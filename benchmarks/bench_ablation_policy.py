"""Ablation: Algorithm 1's min-load policy vs random placement, and the
scheduler's behaviour on a heterogeneous GPU fleet.

Two experiments probing the boundaries of the paper's design:

1. *Min-load vs random.*  "The scheduler will select a GPU that has the
   minimum work load currently."  Against a random-placement baseline
   (same admission bound, unmanaged choice), min-load wins makespan when
   queues matter and keeps waits shorter.

2. *Heterogeneous fleet.*  "This strategy is simple but very efficient
   when the size of all tasks is approximately equivalent."  The dual
   caveat: it also assumes the *devices* are equivalent.  Pairing a C2075
   with a slower C2075 shows min-load, which is blind to device speed,
   queueing equal task counts on unequal devices.  The bench quantifies
   the gap against a fleet of two full-speed cards — and measures the
   recovery from :class:`~repro.core.scheduler.WeightedScheduler`, the
   backlog-time rule implementing the paper's future-work "improved
   scheme for load balancing".
"""

from dataclasses import replace

from conftest import emit

from repro.bench.reporting import format_table
from repro.core.hybrid import HybridConfig, HybridRunner
from repro.gpusim.device import TESLA_C2075


def test_ablation_policy_and_heterogeneity(
    benchmark, ion_tasks, serial_seconds, results_dir
):
    half_speed = replace(TESLA_C2075, eval_rate=TESLA_C2075.eval_rate / 2.0)

    def sweep():
        out = {}
        # Policy comparison at a tight bound where placement matters.
        for kind in ("shared", "random"):
            res = HybridRunner(
                HybridConfig(
                    n_gpus=4, max_queue_length=3, scheduler_kind=kind
                )
            ).run(ion_tasks)
            out[("policy", kind)] = res
        # Fleet comparison at the paper's operating point; the mixed
        # fleet is run under both placement rules.
        quarter_speed = replace(TESLA_C2075, eval_rate=TESLA_C2075.eval_rate / 4.0)
        for fleet_name, fleet, kind in (
            ("2x full", (TESLA_C2075, TESLA_C2075), "shared"),
            ("full + 1/4 (min-load)", (TESLA_C2075, quarter_speed), "shared"),
            ("full + 1/4 (weighted)", (TESLA_C2075, quarter_speed), "weighted"),
        ):
            res = HybridRunner(
                HybridConfig(
                    n_gpus=2, max_queue_length=4, devices=fleet,
                    scheduler_kind=kind,
                )
            ).run(ion_tasks)
            out[("fleet", fleet_name)] = res
        return out

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)

    rows = []
    for (group, name), res in results.items():
        rows.append(
            [
                group,
                name,
                f"{res.makespan_s:.1f}",
                f"{res.metrics.mean_wait_s() * 1e3:.1f} ms",
                " ".join(str(int(c)) for c in res.metrics.gpu_tasks),
            ]
        )
    emit(
        results_dir,
        "ablation_policy",
        format_table(
            ["experiment", "variant", "time (s)", "mean wait", "tasks per GPU"],
            rows,
            title="Ablation — placement policy and device heterogeneity",
        ),
    )

    # Min-load at least matches random and waits are no longer.
    t_shared = results[("policy", "shared")].makespan_s
    t_random = results[("policy", "random")].makespan_s
    assert t_shared <= t_random * 1.02
    w_shared = results[("policy", "shared")].metrics.mean_wait_s()
    w_random = results[("policy", "random")].metrics.mean_wait_s()
    assert w_shared <= w_random * 1.05

    # The mixed fleet loses against two full-speed cards...
    t_full = results[("fleet", "2x full")].makespan_s
    t_minload = results[("fleet", "full + 1/4 (min-load)")].makespan_s
    t_weighted = results[("fleet", "full + 1/4 (weighted)")].makespan_s
    assert t_minload > t_full
    # ...and the backlog-time rule recovers part of the gap.
    assert t_weighted < t_minload
    # The weighted rule routes more work to the fast card.
    c_min = results[("fleet", "full + 1/4 (min-load)")].metrics.gpu_tasks
    c_w = results[("fleet", "full + 1/4 (weighted)")].metrics.gpu_tasks
    assert int(c_w[0]) > int(c_min[0])
