"""Fig. 3: speedup over serial APEC vs #GPUs, Ion vs Level granularity.

Paper series (speedup over the serial version):
    Ion   : 196.4 / 278.7 / 305.8 / 311.4   (1 / 2 / 3 / 4 GPUs)
    Level :  97.9 / 132.9 / 155.7 / 158.5
"""

import pytest
from conftest import emit

from repro.bench.paper import fig3
from repro.bench.reporting import format_series, paper_vs_measured

PAPER_ION = {1: 196.4, 2: 278.7, 3: 305.8, 4: 311.4}
PAPER_LEVEL = {1: 97.9, 2: 132.9, 3: 155.7, 4: 158.5}


def test_fig3_speedup_vs_gpus(benchmark, results_dir):
    measured = benchmark.pedantic(fig3, rounds=1, iterations=1)
    ion, level = measured["Ion"], measured["Level"]

    text = "\n\n".join(
        [
            format_series(
                "#GPUs",
                {
                    "Ion (paper)": PAPER_ION,
                    "Ion (measured)": ion,
                    "Level (paper)": PAPER_LEVEL,
                    "Level (measured)": level,
                },
                title="Fig. 3 — speedup over serial APEC by task granularity",
            ),
            paper_vs_measured("Ion granularity", PAPER_ION, ion),
            paper_vs_measured("Level granularity", PAPER_LEVEL, level),
        ]
    )
    emit(results_dir, "fig3_granularity", text)

    # Shape assertions: magnitudes within 25%, Ion ~2x Level, saturation.
    for g in (1, 2, 3, 4):
        assert ion[g] == pytest.approx(PAPER_ION[g], rel=0.25)
        assert level[g] == pytest.approx(PAPER_LEVEL[g], rel=0.35)
        assert 1.3 < ion[g] / level[g] < 3.0
    assert ion[4] / ion[3] < 1.05  # "not very helpful by simply adding more GPUs"
    assert ion[2] > ion[1] * 1.3
