"""Open-loop serving layer: arrival processes, bounded queues, SLOs.

The closed-loop harness (:mod:`repro.harness`) measures *service time*;
this package measures what a client of the store would see: requests
arrive on their own schedule, wait in a bounded admission-controlled
queue, and the reported tail latency is queue wait **plus** service —
the regime where compaction interference turns into SLO violations.
See ``docs/SERVING.md`` for the model and its caveats.
"""

from .arrivals import (
    ARRIVAL_KINDS,
    DEFAULT_DIURNAL_PROFILE,
    Arrival,
    ArrivalProcess,
    DiurnalProcess,
    OnOffProcess,
    PoissonProcess,
    Tenant,
    make_arrival_process,
    merge_tenant_arrivals,
    split_rate,
)
from .queue import DISCIPLINES, QueueStats, Request, RequestQueue
from .server import (
    WRITE_KINDS,
    ServeResult,
    ServeSpec,
    TenantServeStats,
    admission_bound,
    serve_workload,
)

__all__ = [
    "ARRIVAL_KINDS",
    "DEFAULT_DIURNAL_PROFILE",
    "DISCIPLINES",
    "WRITE_KINDS",
    "Arrival",
    "ArrivalProcess",
    "DiurnalProcess",
    "OnOffProcess",
    "PoissonProcess",
    "QueueStats",
    "Request",
    "RequestQueue",
    "ServeResult",
    "ServeSpec",
    "Tenant",
    "TenantServeStats",
    "admission_bound",
    "make_arrival_process",
    "merge_tenant_arrivals",
    "serve_workload",
    "split_rate",
]
