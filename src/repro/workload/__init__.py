"""YCSB-like workload generation (the paper's Table III)."""

from .keydist import make_distribution
from .spec import (
    PAPER_VALUE_BYTES,
    TABLE_III,
    WorkloadSpec,
    rh,
    ro,
    rwb,
    scn_rwb,
    scn_wh,
    wo,
)
from .ycsb import (
    OP_DELETE,
    OP_GET,
    OP_PUT,
    OP_RMW,
    OP_SCAN,
    Operation,
    WorkloadGenerator,
)

__all__ = [
    "WorkloadSpec",
    "WorkloadGenerator",
    "Operation",
    "TABLE_III",
    "wo",
    "rwb",
    "rh",
    "ro",
    "scn_wh",
    "scn_rwb",
    "make_distribution",
    "PAPER_VALUE_BYTES",
    "OP_PUT",
    "OP_GET",
    "OP_SCAN",
    "OP_DELETE",
    "OP_RMW",
]
