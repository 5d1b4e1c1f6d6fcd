"""Extensions beyond the paper's implementation.

The paper's related-work discussion (§V) argues LDC generalises past
LSM-trees: "in the partitioned B-tree, ... when the data in the small
partitions are merged into the main partition, LDC can be integrated to
both shrink the granularity of data merging for smaller tail latency and
accumulate more data in small partitions for less write amplification".
:mod:`repro.extras.partitioned_btree` implements exactly that claim so it
can be measured rather than asserted.
"""

from .partitioned_btree import EagerAbsorb, LinkedAbsorb, PartitionedBTree

__all__ = [
    "PartitionedBTree",
    "EagerAbsorb",
    "LinkedAbsorb",
]
