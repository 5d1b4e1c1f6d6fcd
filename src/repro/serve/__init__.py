"""Open-loop serving layer: Poisson arrivals, a bounded queue, SLOs.

The closed-loop harness (:mod:`repro.harness`) measures *service time*;
this package measures what a client of the store would see: requests
arrive on their own schedule, wait in a bounded admission-controlled
queue, and the reported tail latency is queue wait **plus** service —
the regime where compaction interference turns into SLO violations.
See ``docs/SERVING.md`` for the model and its caveats.
"""

from .arrivals import poisson_arrivals
from .server import ServeSpec, serve_workload

__all__ = [
    "ServeSpec",
    "poisson_arrivals",
    "serve_workload",
]
