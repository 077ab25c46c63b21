"""The reference loop: a fixed amount of interpreter work, timed in short
bursts around everything the benchmark times.

The reference host (a 2-vCPU guest) shares its cores with neighbours:
this loop reads anything from 3.3 ms to 5.4 ms, drifting over seconds to
minutes, and the raw median of 10 s of passes spread by up to 27 %
between back-to-back runs and moved by up to 36 % between two sets of
ten (README.md has the table) — wider than any bound the benchmark may
declare.  Dividing each timing by the speed the reference loop ran at
around it turns ``ops_per_s`` and ``setup_s`` into within-run ratios —
workload speed over reference-loop speed — which is what ROADMAP item 1
asks the gates to be, and halves both figures.  ``NOMINAL_S`` only
scales the ratio so that it reads as op/s and s on the quiet reference
host; it cancels whenever two runs are compared.  The raw figures are
reported beside the corrected ones, ungated.
"""

from __future__ import annotations

import time

ITERATIONS = 60_000
#: Quiet time of one loop on the reference host.
NOMINAL_S = 3.3e-3
BURST_S = 0.04


def ref_loop() -> int:
    total = 0
    for i in range(ITERATIONS):
        total += i * i
    return total


def host_slowdown(burst_s: float = BURST_S) -> float:
    """Median time of the reference loop over one burst, as a multiple
    of its quiet time on the reference host."""
    samples = []
    deadline = time.perf_counter() + burst_s
    while not samples or time.perf_counter() < deadline:
        t0 = time.perf_counter()
        ref_loop()
        samples.append(time.perf_counter() - t0)
    samples.sort()
    return samples[len(samples) // 2] / NOMINAL_S
