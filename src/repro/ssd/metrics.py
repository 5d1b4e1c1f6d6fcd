"""I/O category names and their counter keys.

Every read or write charged to the device carries a *category* naming the
engine activity that issued it; the device counts each under
``device.<direction>.<category>.{ops,bytes,time_us}`` in the shared
registry.  The per-category bytes regenerate the paper's compaction-
efficiency results (Fig. 10c, Fig. 12d/e, Fig. 14's I/O series); the
derived quantities (write amplification, compaction bytes) are defined
once, on :class:`~repro.obs.snapshot.MetricsSnapshot`.
"""

from typing import Tuple

USER_READ = "user_read"
USER_SCAN = "user_scan"
WAL_WRITE = "wal_write"
WAL_READ = "wal_read"
FLUSH_WRITE = "flush_write"
COMPACTION_READ = "compaction_read"
COMPACTION_WRITE = "compaction_write"
# Device-internal GC relocation traffic (flash layer only; see
# repro.ssd.flash, which re-exports them as its canonical names).
GC_READ = "gc_read"
GC_WRITE = "gc_write"


def category_keys(direction: str, category: str) -> Tuple[str, str, str]:
    """The ``(ops, bytes, time_us)`` counter keys of one I/O stream."""
    stem = f"device.{direction}.{category}"
    return f"{stem}.ops", f"{stem}.bytes", f"{stem}.time_us"


#: Prebuilt: read before and after every maintenance round.
COMPACTION_READ_BYTES_KEY = category_keys("read", COMPACTION_READ)[1]
COMPACTION_WRITE_BYTES_KEY = category_keys("write", COMPACTION_WRITE)[1]
