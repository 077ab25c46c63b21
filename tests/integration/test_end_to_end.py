"""End-to-end: real spectra computed *through* the hybrid scheduler.

The strongest correctness statement in the reproduction: attach real
numerics to every task, push them through the discrete-event hybrid run
(GPU path = batched Simpson kernels, CPU fallback = scalar QAGS), and the
accumulated per-point spectra must equal the serial APEC calculation —
independent of scheduling order, queue bound, GPU count, or which tasks
happened to fall back to CPU.
"""

import numpy as np
import pytest

from repro.atomic.database import AtomicConfig, AtomicDatabase
from repro.core.granularity import WorkloadSpec, build_tasks
from repro.core.hybrid import HybridConfig, HybridRunner
from repro.core.paramspace import Axis, ParameterSpace
from repro.physics.apec import (
    GridPoint,
    SerialAPEC,
    ion_emissivity_batched,
    ion_emissivity_scalar,
)
from repro.physics.spectrum import EnergyGrid


@pytest.fixture(scope="module")
def setup():
    db = AtomicDatabase(AtomicConfig.tiny())
    grid = EnergyGrid.from_wavelength(10.0, 45.0, 40)
    space = ParameterSpace(
        temperature=Axis.log("temperature", 5e6, 2e7, 2),
        density=Axis.linear("density", 1.0, 1.0, 1),
    )
    return db, grid, space


def _gpu_factory(db, grid, space):
    def gpu_factory(ion, point_index):
        point = list(space)[point_index]
        return lambda: ion_emissivity_batched(db, ion, point, grid)

    return gpu_factory


def real_tasks(db, grid, space):
    """The workload with real execute callables on both paths."""

    def cpu_factory(ion, point_index):
        point = list(space)[point_index]
        # Scalar Simpson (not QAGS) keeps the test fast; numerically the
        # two CPU variants agree to 1e-12 anyway.
        return lambda: ion_emissivity_scalar(
            db, ion, point, grid, method="simpson"
        )

    spec = WorkloadSpec(
        n_points=len(space), bins_per_level=grid.n_bins,
        db_config=AtomicConfig.tiny(),
    )
    return build_tasks(
        spec,
        db=db,
        gpu_execute_factory=_gpu_factory(db, grid, space),
        cpu_execute_factory=cpu_factory,
    )


class TestHybridProducesSerialSpectra:
    @pytest.mark.parametrize("n_gpus,maxlen", [(1, 1), (2, 4), (0, 2)])
    def test_scheduled_spectra_match_serial(self, setup, n_gpus, maxlen):
        db, grid, space = setup
        tasks = real_tasks(db, grid, space)
        runner = HybridRunner(
            HybridConfig(n_workers=4, n_gpus=n_gpus, max_queue_length=maxlen)
        )
        result = runner.run(tasks)

        assert set(result.spectra) == set(range(len(space)))
        apec = SerialAPEC(db, grid, method="simpson-batch")
        for point_index, point in enumerate(space):
            serial = apec.compute(point)
            hybrid = result.spectra[point_index]
            assert np.allclose(hybrid, serial.values, rtol=1e-10), (
                f"point {point_index} differs (n_gpus={n_gpus})"
            )

    def test_mixed_placement_still_exact(self, setup):
        """Force heavy CPU fallback (tiny queue, many workers): results
        must be identical even when placement is completely different."""
        db, grid, space = setup
        tasks = real_tasks(db, grid, space)
        # stagger 0: both ranks hit SCHE-ALLOC at the same instants, so
        # with one single-slot GPU one of them must take the CPU path.
        starved = HybridRunner(
            HybridConfig(
                n_workers=2, n_gpus=1, max_queue_length=1, stagger_s=0.0
            )
        ).run(tasks)
        roomy = HybridRunner(
            HybridConfig(n_workers=2, n_gpus=4, max_queue_length=8)
        ).run(tasks)
        assert starved.metrics.cpu_tasks > 0  # the premise: real fallback
        assert roomy.metrics.cpu_tasks < starved.metrics.cpu_tasks
        for point_index in starved.spectra:
            assert np.allclose(
                starved.spectra[point_index],
                roomy.spectra[point_index],
                rtol=1e-10,
            )


    def test_fallback_without_a_cpu_factory_runs_execute(self, setup):
        """A task built with only ``execute`` runs it on the CPU path:
        forced fallbacks give the all-device run's bits."""
        db, grid, space = setup
        spec = WorkloadSpec(
            n_points=len(space), bins_per_level=grid.n_bins,
            db_config=AtomicConfig.tiny(),
        )
        tasks = build_tasks(
            spec, db=db, gpu_execute_factory=_gpu_factory(db, grid, space)
        )
        starved = HybridRunner(
            HybridConfig(n_workers=2, n_gpus=1, max_queue_length=1, stagger_s=0.0)
        ).run(tasks)
        device_only = HybridRunner(
            HybridConfig(n_workers=2, n_gpus=1, max_queue_length=2)
        ).run(tasks)
        assert starved.metrics.cpu_tasks > 0
        assert device_only.metrics.cpu_tasks == 0
        assert set(starved.spectra) == set(device_only.spectra) == set(range(len(space)))
        for point_index in device_only.spectra:
            np.testing.assert_array_equal(
                starved.spectra[point_index], device_only.spectra[point_index]
            )


class TestParameterSpaceDrivenRun:
    def test_paper_space_end_to_end(self, setup):
        """The full pipeline: config -> space -> tasks -> hybrid -> result."""
        db, grid, _ = setup
        space = ParameterSpace.from_config(
            {
                "temperature": {"lo": 8e6, "hi": 1.2e7, "n": 2, "spacing": "log"},
                "density": [1.0],
            }
        )
        tasks = real_tasks(db, grid, space)
        result = HybridRunner(
            HybridConfig(n_workers=2, n_gpus=1, max_queue_length=4)
        ).run(tasks)
        assert result.metrics.total_tasks == len(tasks)
        for point_index, spectrum in result.spectra.items():
            assert np.all(spectrum >= 0.0)
            assert spectrum.sum() > 0.0
