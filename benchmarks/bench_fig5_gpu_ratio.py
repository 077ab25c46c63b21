"""Fig. 5: task ratio on GPUs vs maximum queue length (1-4 GPUs).

Paper: even at maxlen 2 more than 95% of tasks run on GPUs, rising to
100% by maxlen 12-14; curves with more GPUs sit uniformly higher.
"""

import pytest
from conftest import emit

from repro.bench.paper import MAXLENS, fig5
from repro.bench.reporting import format_series

PAPER = {
    1: dict(zip(MAXLENS, (95.57, 97.25, 98.12, 98.78, 98.93, 99.40, 99.54))),
    2: dict(zip(MAXLENS, (97.47, 99.00, 99.25, 99.76, 99.90, 100.0, 100.0))),
    3: dict(zip(MAXLENS, (98.88, 99.68, 99.90, 99.95, 100.0, 100.0, 100.0))),
    4: dict(zip(MAXLENS, (99.22, 99.85, 100.0, 100.0, 100.0, 100.0, 100.0))),
}


def test_fig5_gpu_task_ratio(benchmark, results_dir):
    measured = benchmark.pedantic(fig5, rounds=1, iterations=1)

    series = {}
    for g in (1, 2, 3, 4):
        series[f"{g} GPU paper %"] = PAPER[g]
        series[f"{g} GPU measured %"] = measured[g]
    emit(
        results_dir,
        "fig5_gpu_ratio",
        format_series("maxlen", series, title="Fig. 5 — tasks achieved by GPUs (%)"),
    )

    for g in (1, 2, 3, 4):
        r = measured[g]
        # High everywhere, monotone-ish, saturating at ~100%.
        assert r[2] > 85.0
        assert r[14] > 99.0
        assert r[14] >= r[6] >= r[2] - 0.5
    # More GPUs -> higher ratio at the tight bound.
    assert measured[4][2] > measured[1][2]
    assert measured[4][14] == pytest.approx(100.0, abs=0.3)
