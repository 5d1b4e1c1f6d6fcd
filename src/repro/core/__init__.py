"""The paper's primary contribution: Lower-level Driven Compaction.

* :mod:`~repro.core.primitives` — the link & merge compaction
  (Algorithm 1) as design-space primitives: the ``ldc_unit`` selector and
  the ``ldc_link_merge`` movement behind the registered ``ldc``
  composition (``DB(policy="ldc")``);
* :class:`~repro.core.slice.Slice` — key-subrange views of frozen files;
* :class:`~repro.core.frozen.FrozenRegion` — refcounted frozen storage;
* :class:`~repro.core.adaptive.AdaptiveThreshold` — the self-tuning
  SliceLink threshold of §III-B.4.
"""

from .adaptive import AdaptiveThreshold
from .frozen import FrozenRegion
from .primitives import LDCLinkMergeMovement
from .slice import Slice, attach_slice

__all__ = [
    "LDCLinkMergeMovement",
    "Slice",
    "attach_slice",
    "FrozenRegion",
    "AdaptiveThreshold",
]
