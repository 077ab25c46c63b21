"""Table II: NEI speedup on 1-4 GPUs vs the 24-core pure-MPI version.

Paper row (maxlen 8): speedups 2.8 / 5.9 / 10.8 / 15.1
                      times    3137 / 1494 / 810 / 582 s.

Reproduction criterion: monotone, near-linear scaling through 4 GPUs —
the contrast with Fig. 3's saturation after 2-3 GPUs is the point of the
adaptability study (NEI tasks are heavy enough to keep 4 GPUs busy).
The paper's top-end superlinearity (15.1 > 4 x 2.8/1) is not reachable in
a work-conserving deterministic model; EXPERIMENTS.md discusses the gap.
"""

import pytest
from conftest import emit

from repro.bench.paper import table2
from repro.bench.reporting import paper_vs_measured

PAPER_SPEEDUP = {1: 2.8, 2: 5.9, 3: 10.8, 4: 15.1}


def test_table2_nei_speedup(benchmark, results_dir):
    mpi, runs = benchmark.pedantic(table2, rounds=1, iterations=1)
    speedups = {g: mpi.makespan_s / res.makespan_s for g, res in runs.items()}

    emit(
        results_dir,
        "table2_nei",
        paper_vs_measured(
            "Table II — NEI speedup vs 24-core MPI (maxlen 8)",
            PAPER_SPEEDUP,
            speedups,
        ),
    )

    assert speedups[1] < speedups[2] < speedups[3] < speedups[4]
    # Near-linear: each added GPU keeps paying (>15% at the 4th).
    assert speedups[4] / speedups[3] > 1.15
    assert speedups[1] == pytest.approx(PAPER_SPEEDUP[1], rel=0.30)
    assert speedups[4] == pytest.approx(PAPER_SPEEDUP[4], rel=0.35)
