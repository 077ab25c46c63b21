"""Active-window pruning: wall-clock and simulated-device speedup sweep.

Sweeps the relative tail tolerance over {0 (off), 1e-6, 1e-9, 1e-12} on
the Fig. 7 workload (T = 1e7 K, 10-45 Angstrom) and reports, per setting:

- real wall-clock time of the batched Simpson hot path and its speedup
  over the unpruned kernel,
- the simulated Tesla C2075's service time for the same task set, priced
  from the *active* integral counts (`repro.core.task.task_cost`),
- integrand evaluations saved (the pruning ledger), and
- the max per-bin relative error against the unpruned reference.

Dense and pruned settings run the same kernel
(:func:`repro.physics.rrc_kernel.rule_rrc`; ``tail_tol = 0`` is
``cutoff = n_bins``), so wall time differs only by the pairs the budget
prunes — on this grid the few above-grid edges, i.e. almost nothing.
The wall column is reported, not asserted.

Set ``REPRO_BENCH_SMOKE=1`` to run a tiny configuration (few ions,
200 bins) — the CI smoke mode.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest
from conftest import emit

from repro.bench.reporting import format_table
from repro.bench.workloads import small_real_database, small_real_grid
from repro.constants import K_B_KEV
from repro.core.task import Task, TaskKind, task_cost
from repro.gpusim.device import TESLA_C2075
from repro.physics.apec import GridPoint, ion_emissivity_batched
from repro.physics.windows import level_windows

TAIL_TOLS = (0.0, 1.0e-6, 1.0e-9, 1.0e-12)
SIMPSON_PIECES = 64
SMOKE = bool(int(os.environ.get("REPRO_BENCH_SMOKE", "0")))


def _workload():
    db = small_real_database()
    grid = small_real_grid(n_bins=200)
    point = GridPoint(temperature_k=1.0e7, ne_cm3=1.0)
    ions = [ion for ion in db.ions if db.n_levels(ion) > 0]
    if SMOKE:
        # A deterministic spread across the charge ladder — the high-Z
        # ions keep some prunable (above-grid) edges in the tiny config.
        ions = ions[:: max(1, len(ions) // 8)][:8]
    return db, grid, point, ions


def _spectrum(db, grid, point, ions, tail_tol):
    out = np.zeros(grid.n_bins)
    for ion in ions:
        out += ion_emissivity_batched(
            db, ion, point, grid, pieces=SIMPSON_PIECES, tail_tol=tail_tol
        )
    return out


def _wall_seconds(db, grid, point, ions, tail_tol, repeats):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        _spectrum(db, grid, point, ions, tail_tol)
        best = min(best, time.perf_counter() - t0)
    return best


def _device_tasks(db, grid, point, ions, tail_tol):
    """The same workload priced for the simulated GPU."""
    kt = K_B_KEV * point.temperature_k
    specs = []
    for i, ion in enumerate(ions):
        n_active = None
        if tail_tol > 0.0:
            win = level_windows(
                db.levels(ion).energy_kev, grid, kt, tail_tol
            )
            n_active = win.n_active
        cost = task_cost(db.n_levels(ion), grid.n_bins, SIMPSON_PIECES + 1, n_active)
        specs.append(Task(i, TaskKind.ION, label=ion.name, **cost))
    return specs


def test_pruning_speedup_sweep(results_dir):
    db, grid, point, ions = _workload()
    repeats = 1 if SMOKE else 3

    # Warm caches (weights, node vectors, numpy paths) off the clock.
    _spectrum(db, grid, point, ions, 1.0e-6)
    reference = _spectrum(db, grid, point, ions, 0.0)
    ref_nonzero = np.abs(reference) > 0.0
    assert ref_nonzero.any()

    base_wall = _wall_seconds(db, grid, point, ions, 0.0, repeats)
    base_specs = _device_tasks(db, grid, point, ions, 0.0)
    base_device = sum(TESLA_C2075.service_time(s) for s in base_specs)
    base_compute = sum(TESLA_C2075.compute_time(s) for s in base_specs)
    base_evals = sum(s.total_evals for s in base_specs)

    rows = []
    measured = {}
    for tt in TAIL_TOLS:
        wall = (
            base_wall
            if tt == 0.0
            else _wall_seconds(db, grid, point, ions, tt, repeats)
        )
        specs = _device_tasks(db, grid, point, ions, tt)
        device = sum(TESLA_C2075.service_time(s) for s in specs)
        compute = sum(TESLA_C2075.compute_time(s) for s in specs)
        evals = sum(s.total_evals for s in specs)
        saved = sum(s.evals_saved for s in specs)
        # The ledger must balance: active + saved == the dense workload.
        assert evals + saved == base_evals

        values = reference if tt == 0.0 else _spectrum(db, grid, point, ions, tt)
        if tt == 0.0:
            max_rel = 0.0
            assert np.array_equal(values, reference)  # bit-for-bit off-switch
        else:
            max_rel = float(
                np.max(
                    np.abs(values - reference)[ref_nonzero]
                    / np.abs(reference)[ref_nonzero]
                )
            )
        measured[tt] = {
            "wall": wall,
            "device": device,
            "compute": compute,
            "evals": evals,
            "saved": saved,
            "max_rel": max_rel,
        }
        rows.append(
            [
                f"{tt:.0e}" if tt else "off",
                f"{wall * 1e3:.1f}",
                f"{base_wall / wall:.2f}x",
                f"{device * 1e3:.2f}",
                f"{compute * 1e3:.2f}",
                f"{base_compute / compute:.3f}x",
                f"{saved:,}",
                f"{max_rel:.2e}",
            ]
        )

    emit(
        results_dir,
        "pruning",
        format_table(
            [
                "tail_tol",
                "wall (ms)",
                "wall speedup",
                "sim C2075 (ms)",
                "sim compute (ms)",
                "compute speedup",
                "evals saved",
                "max rel err",
            ],
            rows,
            title=(
                "Active-window pruning - batched Simpson-64, "
                f"{len(ions)} ions x 200 bins, T=1e7 K (10-45 A)"
            ),
        ),
    )

    for tt in TAIL_TOLS[1:]:
        m = measured[tt]
        # Accuracy: the budget holds with orders of magnitude to spare.
        assert m["max_rel"] <= tt
        # The simulated ledger shrinks consistently with the savings:
        # compute time is linear in total_evals, so the ratios match.
        assert m["saved"] > 0
        assert m["device"] < base_device
        assert base_compute / m["compute"] == pytest.approx(
            base_evals / m["evals"], rel=1e-12
        )
    # Looser budgets can only save more.
    assert (
        measured[1e-6]["saved"]
        >= measured[1e-9]["saved"]
        >= measured[1e-12]["saved"]
    )
