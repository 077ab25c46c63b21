"""The automatic maximum-queue-length search (Section III-A).

"In practice, the scheduler chooses the maximum queue length through an
automatic test ... increasing the value of it gradually until the
performance inflexion occurs."  The bench builds the probe with
``probe_prefix`` (first ~60 tasks of every point, per-point overhead
scaled to the prefix fraction — see its docstring for why naive few-point
probes tune the wrong operating point) and verifies the tuned length
performs within a few percent of the best fixed setting on the *full*
24-point workload.
"""

from conftest import emit

from repro.bench.paper import fig4
from repro.bench.reporting import format_table
from repro.core.autotune import CANDIDATES, autotune_queue_length, probe_prefix
from repro.core.hybrid import HybridConfig


def test_autotune_generalizes(benchmark, ion_tasks, results_dir):
    def tune_and_validate():
        # Full-workload time at every candidate: the tuned length vs the true optimum.
        full = fig4(gpus=(1, 2), maxlens=CANDIDATES)
        out = {}
        for g in (1, 2):
            cfg = HybridConfig(n_gpus=g, max_queue_length=2)
            probe, probe_cfg = probe_prefix(ion_tasks, cfg, tasks_per_point=60)
            best, probe_times = autotune_queue_length(probe_cfg, probe)
            out[g] = (best, probe_times, full[g])
        return out

    results = benchmark.pedantic(tune_and_validate, rounds=1, iterations=1)

    rows = []
    for g, (best, probe_times, full) in results.items():
        optimum = min(full, key=full.get)
        rows.append(
            [
                g,
                best,
                f"{full[best]:.1f}",
                optimum,
                f"{full[optimum]:.1f}",
                f"{full[best] / full[optimum] - 1.0:+.1%}",
                len(probe_times),
            ]
        )
    emit(
        results_dir,
        "autotune",
        format_table(
            ["GPUs", "tuned maxlen", "time @ tuned", "true optimum",
             "best time", "regret", "probe runs"],
            rows,
            title="Auto-tuning the maximum queue length (prefix probe, all ranks active)",
        ),
    )

    for g, (best, probe_times, full) in results.items():
        optimum = min(full, key=full.get)
        # The tuned choice costs at most 5% over the true optimum.
        assert full[best] <= full[optimum] * 1.05
        # And the probe stopped early (did not sweep every candidate).
        assert len(probe_times) <= len(CANDIDATES)
