#!/usr/bin/env python3
"""Open-loop serving: what does compaction cost *paying customers*?

Closed-loop benchmarks understate compaction interference: the client
politely waits for each operation, so a compaction stall slows the
*next* request but never piles requests up.  Real services are open
loop — requests keep arriving while the engine is stalled, the queue
grows, and every queued request inherits the stall.  The serving layer
(``repro.serve``) reproduces that: a seeded Poisson arrival stream in
virtual time, a bounded FIFO queue with admission control, and separate
queue-wait / service-time accounting per request.

This example drives the same read/write-balanced workload through UDC
(stock leveled compaction) and LDC at a rising offered load and a 1 ms
latency SLO, and reports, per load, the numbers a service owner signs:
queue-inflated p99.9, mean wait vs mean service, and the SLO violation
rate (rejections count as violations — shedding load must not launder
the SLO).  UDC's whole-round compactions stall the server long enough
for the queue to spike, so as the load rises its tail and violation
rate pull away from LDC's — the serving-layer form of the paper's
Fig. 1.

Run:  python examples/open_loop_slo.py
"""

from repro import LSMConfig, ServeSpec, serve_workload
from repro.workload import rwb

NUM_OPS = 6_000
KEY_SPACE = 2_000
#: Offered loads, ops per virtual second; the last is the headline.
LOADS_OPS_S = (5_000.0, 10_000.0, 15_000.0)
SLO_US = 1_000.0  # 1 ms, queue wait + service
QUEUE_DEPTH = 128


def run(num_ops=NUM_OPS, key_space=KEY_SPACE, loads=LOADS_OPS_S,
        slo_us=SLO_US):
    """Serve the workload under both policies at every load; return one
    row per (load, policy), UDC before LDC."""
    spec = rwb(num_operations=num_ops, key_space=key_space)
    rows = []
    for rate_ops_s in loads:
        serve = ServeSpec(
            rate_ops_s=rate_ops_s,
            queue_depth=QUEUE_DEPTH,
            slo_us=slo_us,
            seed=7,
        )
        for name in ("udc", "ldc"):
            result = serve_workload(spec, name, serve, config=LSMConfig())
            rows.append(
                {
                    "rate_ops_s": rate_ops_s,
                    "policy": name.upper(),
                    "throughput_ops_s": result.throughput_ops_s,
                    "mean_wait_us": result.wait_latencies.mean(),
                    "mean_service_us": result.service_latencies.mean(),
                    "p99_us": result.total_latencies.percentile(99.0),
                    "p999_us": result.total_latencies.percentile(99.9),
                    "rejected": result.rejected,
                    "slo_violation_rate": result.slo_violation_rate,
                }
            )
    return rows


def main(num_ops=NUM_OPS, key_space=KEY_SPACE, loads=LOADS_OPS_S,
         slo_us=SLO_US):
    rows = run(num_ops, key_space, loads, slo_us)
    print(
        f"open-loop Poisson arrivals, SLO {slo_us:,.0f} us "
        f"(queue wait + service)"
    )
    header = (
        f"{'load':>7} {'policy':<7} {'tput':>8} {'wait':>9} {'service':>9} "
        f"{'p99.9':>10} {'rej':>5} {'SLO viol':>9}"
    )
    print(header)
    print("-" * len(header))
    for row in rows:
        print(
            f"{row['rate_ops_s']:>7,.0f} {row['policy']:<7} "
            f"{row['throughput_ops_s']:>8,.0f} "
            f"{row['mean_wait_us']:>8,.0f}u {row['mean_service_us']:>8,.0f}u "
            f"{row['p999_us']:>9,.0f}u {row['rejected']:>5d} "
            f"{row['slo_violation_rate']:>8.1%}"
        )
    udc, ldc = rows[-2:]
    ratio = udc["p999_us"] / ldc["p999_us"]
    print(
        f"\nat {udc['rate_ops_s']:,.0f} ops/s, UDC's queue-inflated p99.9 is "
        f"{ratio:.1f}x LDC's: whole-round compactions stall the server "
        f"and every queued request inherits the stall."
    )


if __name__ == "__main__":
    main()
