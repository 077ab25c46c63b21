"""DeviceSpec timing model and the event-driven GPU."""

from dataclasses import replace

import pytest

from repro.cluster.simclock import SimClock
from repro.core.task import Task, TaskKind
from repro.gpusim.device import LOST, TESLA_C2075, TESLA_K20, DeviceSpec, SimulatedGPU


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
        assert TESLA_C2075.phase_times(k2)[1] == pytest.approx(
            2.0 * TESLA_C2075.phase_times(k1)[1]
        )

    def test_phase_times_transfer_latency_plus_bandwidth(self):
        spec = TESLA_C2075
        ingress, _, egress = spec.phase_times(priced(bytes_in=8, bytes_out=8_000_000))
        fixed = spec.context_switch_s + spec.kernel_launch_s
        assert ingress - fixed >= spec.pcie_latency_s
        assert egress == pytest.approx(
            spec.pcie_latency_s + 8e6 / (spec.pcie_bandwidth_gbs * 1e9)
        )

    def test_phase_times_zero_transfer_free(self):
        spec = TESLA_C2075
        ingress, _, egress = spec.phase_times(priced(bytes_in=0, bytes_out=0))
        assert ingress == spec.context_switch_s + spec.kernel_launch_s
        assert egress == 0.0

    def test_phase_times_refuses_negative_bytes(self):
        with pytest.raises(ValueError, match="non-negative"):
            TESLA_C2075.phase_times(priced(bytes_out=-1))

    def test_service_time_components(self):
        k = priced(n_integrals=1000, evals_per_integral=65, bytes_in=64, bytes_out=8000)
        spec = TESLA_C2075
        link = spec.pcie_bandwidth_gbs * 1e9
        expected = (
            spec.context_switch_s
            + spec.pcie_latency_s + 64 / link
            + spec.kernel_launch_s
            + spec.phase_times(k)[1]
            + spec.pcie_latency_s + 8000 / link
        )
        assert spec.service_time(k) == pytest.approx(expected)

    def test_with_eval_rate(self):
        faster = replace(TESLA_C2075, eval_rate=1e10)
        assert faster.eval_rate == 1e10
        assert faster.name == TESLA_C2075.name

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(architecture="volta"),
            dict(eval_rate=0.0),
            dict(pcie_bandwidth_gbs=0.0),
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


    @pytest.mark.parametrize(
        "field,value",
        [
            ("kernel_launch_s", -1.0),
            ("pcie_latency_s", float("nan")),
            ("context_switch_s", float("inf")),
            ("eval_rate", float("nan")),
            ("eval_rate", float("inf")),
            ("pcie_bandwidth_gbs", float("nan")),
        ],
    )
    def test_refuses_a_timing_that_would_misprice_a_task(self, field, value):
        """Each value once reached the first ``submit`` (or priced NaN);
        the spec refuses it and names the field."""
        with pytest.raises(ValueError, match=f"^{field} must be "):
            replace(TESLA_C2075, **{field: value})

    def test_zero_delays_and_a_free_link_are_valid(self):
        spec = replace(TESLA_K20, pcie_latency_s=0.0, kernel_launch_s=0.0, pcie_bandwidth_gbs=float("inf"))
        task = priced(n_integrals=10, evals_per_integral=1, bytes_in=64, bytes_out=64)
        assert spec.service_time(task) == spec.phase_times(task)[1] > 0.0


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
        compute = TESLA_K20.phase_times(k)[1]
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
        clock.call_at(svc * 3.0, gpu.submit, self._kernel())
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

    def test_failed_device_answers_submissions_with_lost(self):
        """A dead device takes no job: it answers a submit at once, through
        the waiter the job carries, and holds nothing."""
        clock = SimClock()
        gpu = SimulatedGPU(clock, TESLA_C2075)
        clock.call_at(1.0, lambda _: gpu.fail(), None)
        clock.run()
        woken = []
        done = gpu.submit(self._kernel())
        gpu.submit(self._kernel(), wake=lambda payload: woken.append((clock.now, payload)))
        assert done.fired and done.payload is LOST
        clock.run()
        assert woken == [(1.0, LOST)]
        assert gpu.completed == 0 and gpu._active == 0 and gpu.busy_time == 0.0

    @pytest.mark.parametrize("spec", [TESLA_C2075, TESLA_K20], ids=["c2075", "k20"])
    def test_failure_mid_run_answers_every_held_job_with_lost(self, spec):
        """Jobs in flight, in the compute queue and waiting for a slot all
        reach their waiters as ``LOST``; the busy interval closes with the
        last of them and the device completes nothing."""
        clock = SimClock()
        gpu = SimulatedGPU(clock, replace(spec, max_concurrent_kernels=2))
        kernel = priced(n_integrals=1000, evals_per_integral=1, bytes_out=64)
        svc = spec.service_time(kernel)
        woken_at, payloads = {}, {}

        def waiter(i):
            def wake(payload):
                woken_at[i], payloads[i] = clock.now, payload
            return wake

        for i in range(4):  # two held, two waiting
            gpu.submit(kernel, wake=waiter(i))
        fail_at = 0.5 * svc
        clock.call_at(fail_at, lambda _: gpu.fail(), None)
        clock.run()
        assert len(payloads) == 4 and all(p is LOST for p in payloads.values())
        assert woken_at[2] == woken_at[3] == fail_at  # the two waiting for a slot
        for held in (0, 1):  # in flight: lost when its current phase ends
            assert fail_at <= woken_at[held] <= fail_at + svc
        assert gpu.busy_time == max(woken_at.values())
        assert gpu.completed == 0 and gpu._active == 0
        assert not gpu._waiting and not gpu._compute_queue

    @pytest.mark.parametrize("spec", [TESLA_C2075, TESLA_K20], ids=["c2075", "k20"])
    @pytest.mark.parametrize("fail_at_svc", [0.0, 0.3, 1.5, 2.7, 9.0])
    def test_failure_adds_no_busy_time_after_the_last_held_job_is_lost(
        self, spec, fail_at_svc
    ):
        """Busy time ends when the device's last held job is lost (or, after
        the work is done, where it ended): a dead device accrues none."""
        clock = SimClock()
        gpu = SimulatedGPU(clock, spec)
        kernel = priced(n_integrals=1000, evals_per_integral=1, bytes_out=64)
        svc = spec.service_time(kernel)
        ends = []
        for _ in range(3):
            gpu.submit(kernel, wake=lambda payload: ends.append(clock.now))
        fail_at = fail_at_svc * svc
        clock.call_at(fail_at, lambda _: gpu.fail(), None)
        clock.call_at(20.0 * svc, lambda _: gpu.submit(kernel), None)  # after the failure
        clock.run()
        assert len(ends) == 3
        last_held = max(ends)
        assert gpu.busy_time == pytest.approx(last_held)
        assert gpu.utilization(clock.now) == pytest.approx(last_held / clock.now)
        if fail_at < last_held:
            assert last_held <= fail_at + svc  # lost at its next event, not after all three
