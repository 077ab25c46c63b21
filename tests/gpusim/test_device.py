"""DeviceSpec timing model and the event-driven GPU."""

import pytest

from repro.cluster.simclock import SimClock
from repro.core.task import Task, TaskKind
from repro.gpusim.device import TESLA_C2075, TESLA_K20, DeviceSpec, SimulatedGPU


def priced(**fields) -> Task:
    """A cost-only task with the given price fields."""
    return Task(0, TaskKind.ION, **fields)


class TestDeviceSpec:
    def test_c2075_identity(self):
        assert TESLA_C2075.architecture == "fermi"
        assert TESLA_C2075.sm_count * TESLA_C2075.cores_per_sm == 448
        assert TESLA_C2075.dp_gflops == 515.0
        assert TESLA_C2075.max_concurrent_kernels == 1

    def test_k20_hyper_q(self):
        assert TESLA_K20.architecture == "kepler"
        assert TESLA_K20.max_concurrent_kernels == 32
        assert TESLA_K20.context_switch_s == 0.0

    def test_compute_time_linear_in_evals(self):
        k1 = priced(n_integrals=1000, evals_per_integral=65)
        k2 = priced(n_integrals=2000, evals_per_integral=65)
        assert TESLA_C2075.compute_time(k2) == pytest.approx(
            2.0 * TESLA_C2075.compute_time(k1)
        )

    def test_transfer_time_latency_plus_bandwidth(self):
        spec = TESLA_C2075
        t_small = spec.transfer_time(8)
        t_big = spec.transfer_time(8_000_000)
        assert t_small >= spec.pcie_latency_s
        assert t_big == pytest.approx(
            spec.pcie_latency_s + 8e6 / (spec.pcie_bandwidth_gbs * 1e9)
        )

    def test_zero_transfer_free(self):
        assert TESLA_C2075.transfer_time(0) == 0.0

    def test_service_time_components(self):
        k = priced(n_integrals=1000, evals_per_integral=65, bytes_in=64, bytes_out=8000)
        spec = TESLA_C2075
        expected = (
            spec.context_switch_s
            + spec.transfer_time(64)
            + spec.kernel_launch_s
            + spec.compute_time(k)
            + spec.transfer_time(8000)
        )
        assert spec.service_time(k) == pytest.approx(expected)

    def test_with_eval_rate(self):
        faster = TESLA_C2075.with_eval_rate(1e10)
        assert faster.eval_rate == 1e10
        assert faster.name == TESLA_C2075.name

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(architecture="volta"),
            dict(eval_rate=0.0),
            dict(max_concurrent_kernels=0),
        ],
    )
    def test_spec_validation(self, kwargs):
        base = dict(
            name="x",
            architecture="fermi",
            sm_count=1,
            cores_per_sm=32,
            core_clock_ghz=1.0,
            dp_gflops=100.0,
            memory_gb=1.0,
        )
        base.update(kwargs)
        with pytest.raises(ValueError):
            DeviceSpec(**base)


class TestSimulatedGPU:
    def _kernel(self, evals=1000):
        return priced(n_integrals=evals, evals_per_integral=1)

    def test_fifo_serial_execution(self):
        clock = SimClock()
        gpu = SimulatedGPU(clock, TESLA_C2075)
        svc = TESLA_C2075.service_time(self._kernel())
        done1 = gpu.submit(self._kernel())
        done2 = gpu.submit(self._kernel())
        clock.run()
        assert done1.fired and done2.fired
        assert clock.now == pytest.approx(2.0 * svc)
        assert gpu.completed == 2

    def test_concurrent_kernels_on_kepler(self):
        """Hyper-Q overlaps ingress/egress but computes serialize at full
        rate: makespan = one ingress + N computes (no egress: 0 bytes)."""
        clock = SimClock()
        gpu = SimulatedGPU(clock, TESLA_K20)
        k = self._kernel()
        ingress = TESLA_K20.kernel_launch_s  # ctx switch 0, no bytes
        compute = TESLA_K20.compute_time(k)
        for _ in range(4):
            gpu.submit(k)
        clock.run()
        assert clock.now == pytest.approx(ingress + 4.0 * compute)
        assert gpu.completed == 4

    def test_busy_time_tracking(self):
        clock = SimClock()
        gpu = SimulatedGPU(clock, TESLA_C2075)
        gpu.submit(self._kernel())
        clock.run()
        assert gpu.busy_time == pytest.approx(clock.now)
        assert gpu.utilization(clock.now) == pytest.approx(1.0)

    def test_idle_gap_not_counted_busy(self):
        clock = SimClock()
        gpu = SimulatedGPU(clock, TESLA_C2075)
        gpu.submit(self._kernel())
        svc = TESLA_C2075.service_time(self._kernel())
        clock.at(svc * 3.0, lambda: gpu.submit(self._kernel()))
        clock.run()
        assert clock.now == pytest.approx(4.0 * svc)
        assert gpu.utilization(clock.now) == pytest.approx(0.5)

    def test_execute_payload_delivered(self):
        clock = SimClock()
        gpu = SimulatedGPU(clock, TESLA_C2075)
        k = priced(n_integrals=10, evals_per_integral=1, execute=lambda: 42)
        done = gpu.submit(k)
        clock.run()
        assert done.payload == 42

    def test_in_flight_counter(self):
        clock = SimClock()
        gpu = SimulatedGPU(clock, TESLA_C2075)
        gpu.submit(self._kernel())
        gpu.submit(self._kernel())
        assert gpu.in_flight == 2
        clock.run()
        assert gpu.in_flight == 0

    def test_failed_device_rejects_submissions(self):
        clock = SimClock()
        gpu = SimulatedGPU(clock, TESLA_C2075)
        gpu.fail()
        with pytest.raises(RuntimeError):
            gpu.submit(self._kernel())

    def test_failure_mid_run_swallows_completions(self):
        clock = SimClock()
        gpu = SimulatedGPU(clock, TESLA_C2075)
        done = gpu.submit(self._kernel())
        gpu.fail()
        clock.run()
        assert not done.fired  # the result never arrives
