"""Virtual-time background compaction (see docs/SCHEDULING.md).

With ``LSMConfig(bg_threads=N)``, N >= 1, a store's maintenance engine is
:class:`CompactionScheduler`: compaction rounds become chunk-granular work
units drained by N deterministic background threads that share the
simulated device's bandwidth with foreground I/O, memtable flushes are
paid on one more such thread, the flush lane, and writes observe
LevelDB-style L0 slowdown/stop throttling.  With the default
``bg_threads=0`` nothing here runs.
"""

from .scheduler import CompactionScheduler
from ..ssd.clock import DeviceChannel

__all__ = ["CompactionScheduler", "DeviceChannel"]
