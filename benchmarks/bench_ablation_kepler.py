"""Ablation: Fermi (C2075) vs Kepler (K20) — the Hyper-Q discussion.

Section III-A: "application-level context switching is necessary on
Fermi, that is the queued tasks are performed serially ... Meanwhile, the
Hyper-Q technique can allow for up to 32 simultaneous connections from
multiple MPI processes on some Kepler GPUs, and this feature can get
higher effective GPU utilization.  So for some Kepler GPUs, the count of
active task may be more than one."

Two findings this bench quantifies (at 1 GPU, where the device — not the
host — binds, and with the K20's eval rate pinned to the C2075's so the
comparison isolates *architecture*, not silicon generation):

1. The optimal maximum queue length is architecture dependent — exactly
   the paper's "the maximum queue length depends on both the computing
   capability of the device and the application itself".  The Fermi
   optimum (12) starves a K20: Hyper-Q drains admitted work roughly 2x
   faster, so the same bound leaves the device idle between synchronous
   submission waves.  At the K20's own tuned bound (24) the device fills.
2. At each device's tuned bound, the fine (Level) granularity recovers
   more from Hyper-Q than the coarse (Ion) one — the per-client context
   switch it kept paying on Fermi is gone — so the Ion/Level gap narrows.
"""

from dataclasses import replace

from conftest import emit

from repro.bench.reporting import format_table
from repro.bench.workloads import paper_level_workload
from repro.core.hybrid import HybridConfig, HybridRunner
from repro.gpusim.device import TESLA_C2075, TESLA_K20

#: Per-architecture tuned maximum queue length (what autotune finds).
TUNED_MAXLEN = {"C2075": 12, "K20": 24}


def test_ablation_fermi_vs_kepler(
    benchmark, ion_tasks, serial_seconds, results_dir
):
    level_tasks = paper_level_workload()
    k20_iso = replace(TESLA_K20, eval_rate=TESLA_C2075.eval_rate)
    devices = {"C2075": TESLA_C2075, "K20": k20_iso}

    def sweep():
        out = {}
        for dev_name, dev in devices.items():
            for gran, tasks in (("ion", ion_tasks), ("level", level_tasks)):
                for maxlen in (12, 24):
                    cfg = HybridConfig(
                        n_gpus=1, max_queue_length=maxlen, device=dev
                    )
                    res = HybridRunner(cfg).run(tasks)
                    out[(dev_name, gran, maxlen)] = (
                        serial_seconds / res.makespan_s,
                        res.gpu_utilization[0],
                    )
        return out

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)

    rows = []
    for dev_name in devices:
        for gran in ("ion", "level"):
            for maxlen in (12, 24):
                spd, util = results[(dev_name, gran, maxlen)]
                tuned = "  <- tuned" if maxlen == TUNED_MAXLEN[dev_name] else ""
                rows.append([dev_name, gran, maxlen, f"{spd:.1f}", f"{util:.0%}{tuned}"])
    emit(
        results_dir,
        "ablation_kepler",
        format_table(
            ["device", "granularity", "maxlen", "speedup", "GPU util"],
            rows,
            title="Ablation — Fermi context switching vs Kepler Hyper-Q (1 GPU, equal eval rate)",
        ),
    )

    def tuned(dev, gran):
        return results[(dev, gran, TUNED_MAXLEN[dev])][0]

    # Finding 1: the Fermi-optimal bound starves the K20 on fine tasks.
    assert results[("K20", "level", 24)][0] > results[("K20", "level", 12)][0] * 1.3
    # while Fermi is insensitive between 12 and 24.
    f12, f24 = results[("C2075", "level", 12)][0], results[("C2075", "level", 24)][0]
    assert abs(f24 - f12) / f12 < 0.10
    # Finding 2: at tuned bounds, Level recovers more than Ion and the gap narrows.
    level_gain = tuned("K20", "level") / tuned("C2075", "level")
    ion_gain = tuned("K20", "ion") / tuned("C2075", "ion")
    assert level_gain > ion_gain
    gap_fermi = tuned("C2075", "ion") / tuned("C2075", "level")
    gap_kepler = tuned("K20", "ion") / tuned("K20", "level")
    assert gap_kepler < gap_fermi
