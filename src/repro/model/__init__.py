"""The analytical performance model of §II–III, as executable formulas."""

from .amplification import (
    ldc_read_amplification,
    ldc_write_amplification,
    optimal_fanout_search,
    udc_read_amplification,
    udc_write_amplification,
)
from .latency import (
    compaction_round_bytes,
    ldc_round_bytes,
    udc_vs_ldc_tail_ratio,
    write_tail_latency_us,
)
from .throughput import (
    lsm_read_throughput,
    lsm_write_throughput,
    paper_example_2c3,
    total_throughput,
)

__all__ = [
    "udc_write_amplification",
    "ldc_write_amplification",
    "udc_read_amplification",
    "ldc_read_amplification",
    "optimal_fanout_search",
    "lsm_write_throughput",
    "lsm_read_throughput",
    "total_throughput",
    "paper_example_2c3",
    "compaction_round_bytes",
    "ldc_round_bytes",
    "write_tail_latency_us",
    "udc_vs_ldc_tail_ratio",
]
