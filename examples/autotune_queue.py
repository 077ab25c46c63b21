"""The automatic maximum-queue-length search (Section III-A).

"At the beginning the scheduler will try to find the most proper maximum
queue length by increasing the value of it gradually until the
performance inflexion occurs."  This example builds a representative
probe from the front of the real workload (first ~60 tasks of *every*
grid point, so all 24 ranks contend exactly as in the real run — see
``probe_prefix`` for why naive few-point probes tune the wrong operating
point), runs the search for 1 and 3 GPUs, and checks the tuned value
against the full workload.

Run:  python examples/autotune_queue.py
"""

from repro import HybridConfig, HybridRunner, WorkloadSpec, autotune_queue_length, build_tasks
from repro.core.autotune import probe_prefix


def main() -> None:
    tasks = build_tasks(WorkloadSpec())
    print(f"full workload: {len(tasks)} tasks over 24 points\n")

    for n_gpus in (1, 3):
        cfg = HybridConfig(n_gpus=n_gpus, max_queue_length=2)
        probe, probe_cfg = probe_prefix(tasks, cfg, tasks_per_point=60)
        best, times = autotune_queue_length(probe_cfg, probe)
        print(f"{n_gpus} GPU(s) — probe of {len(probe)} tasks:")
        for length, t in times.items():
            marker = "  <- chosen" if length == best else ""
            print(f"  maxlen {length:2d}: {t:7.1f} s{marker}")
        full = HybridRunner(
            HybridConfig(n_gpus=n_gpus, max_queue_length=best)
        ).run(tasks)
        print(
            f"  -> fixed at {best}; full workload at that setting: "
            f"{full.makespan_s:.1f} s "
            "(paper: peak performance at 10-12 for all testcases)\n"
        )


if __name__ == "__main__":
    main()
