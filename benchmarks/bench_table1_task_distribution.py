"""Table I: task distribution between GPU and CPU vs task complexity.

Paper rows (2 GPUs, maxlen 6; "computation amount/task" = 2^k):

    amount  tasks-on-GPU  ratio     GPU-load>=3 time share
    2^7     6674          98.26%    37.85%
    2^9     6344          93.40%    65.46%
    2^11    4518          66.52%    70.76%
    2^13    2779          40.92%    66.64%

(The paper's absolute task totals imply a smaller point count than its
main experiment; the ratio columns are the comparable quantities.)
"""

import pytest
from conftest import emit

from repro.bench.paper import table1
from repro.bench.reporting import format_table, paper_vs_measured

PAPER_RATIO = {7: 98.26, 9: 93.40, 11: 66.52, 13: 40.92}
PAPER_LOAD3 = {7: 37.85, 9: 65.46, 11: 70.76, 13: 66.64}


def test_table1_task_distribution(benchmark, results_dir):
    measured = benchmark.pedantic(table1, rounds=1, iterations=1)

    rows = [
        [
            f"2^{k}",
            measured[k][0],
            f"{measured[k][1]:.2f}% ({PAPER_RATIO[k]:.2f}%)",
            f"{measured[k][2]:.2f}% ({PAPER_LOAD3[k]:.2f}%)",
        ]
        for k in PAPER_RATIO
    ]
    text = "\n\n".join(
        [
            format_table(
                ["amount/task", "tasks on GPU", "ratio on GPU (paper)", "load>=3 (paper)"],
                rows,
                title="Table I — task distribution (2 GPUs, maxlen 6)",
            ),
            paper_vs_measured(
                "GPU task ratio (%)", PAPER_RATIO, {k: v[1] for k, v in measured.items()}
            ),
        ]
    )
    emit(results_dir, "table1_task_distribution", text)

    ratios = {k: v[1] for k, v in measured.items()}
    # The headline column: monotone degradation from ~98% to ~40%.
    assert ratios[7] > ratios[9] > ratios[11] > ratios[13]
    assert ratios[7] == pytest.approx(PAPER_RATIO[7], abs=3.0)
    assert ratios[13] == pytest.approx(PAPER_RATIO[13], abs=10.0)
    # Load>=3 share rises as tasks get heavier (k=7 vs the rest).
    assert measured[7][2] < measured[9][2]
