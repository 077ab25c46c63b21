"""Broker semantics: coalescing, backpressure, lanes, batching."""

import numpy as np
import pytest

from repro.cluster.simclock import SimClock
from repro.service.broker import RETRY_AFTER_S, ServiceConfig, SpectrumBroker, run_trace
from repro.service.loadgen import TrafficSpec, generate_trace
from repro.service.requests import SpectrumRequest


def make_broker(**over) -> tuple[SimClock, SpectrumBroker]:
    clock = SimClock()
    broker = SpectrumBroker(clock, ServiceConfig(**over))
    broker.start()
    return clock, broker


def req(t=1.0e7, **kw) -> SpectrumRequest:
    kw.setdefault("z_max", 4)
    kw.setdefault("n_bins", 16)
    return SpectrumRequest(temperature_k=t, **kw)


class TestSubmit:
    def test_requires_start(self):
        broker = SpectrumBroker(SimClock())
        with pytest.raises(RuntimeError, match="not started"):
            broker.submit(req())

    def test_unknown_lane_rejected(self):
        _, broker = make_broker()
        with pytest.raises(ValueError, match="unknown lane"):
            broker.submit(req(), lane="batch")

    def test_out_of_scope_request_refused_before_it_is_an_arrival(self):
        """Admitted, it raised out of ``clock.run()`` from inside the
        worker and stranded the valid request drained beside it."""
        clock, broker = make_broker(db_z_max=8, n_service_workers=1)
        mate = broker.submit(req(), lane="survey")
        with pytest.raises(ValueError, match="exceeds database z_max=8"):
            broker.submit(req(2.0e7, z_max=14), lane="survey")
        assert broker.telemetry.arrivals == 1
        assert broker.queue_depth == 1 and len(broker.coalescer) == 1
        clock.run()
        assert mate.done
        report = broker.report()
        assert report["arrivals"] == report["completions"] == 1
        assert report["lost"] == 0

    def test_miss_then_hit(self):
        clock, broker = make_broker()
        first = broker.submit(req())
        clock.run()
        assert first.done and not first.cached
        second = broker.submit(req())
        assert second.done and second.cached
        assert second.latency_s == 0.0
        np.testing.assert_array_equal(first.result, second.result)

    def test_cache_result_matches_direct_sum(self):
        from repro.service.requests import ion_emission

        clock, broker = make_broker()
        request = req()
        ticket = broker.submit(request)
        clock.run()
        expected = sum(
            ion_emission(ion, broker.db.n_levels(ion), request)
            for ion in broker.db.ions
            if ion.z <= request.z_max
        )
        np.testing.assert_allclose(ticket.result, expected, rtol=1e-12)


class TestServedSpectraAreReadOnly:
    def test_a_write_through_one_ticket_raises_and_the_key_stays_intact(self):
        """Every ticket of a key holds the cache entry's one array (fan-back
        row, cache hits, coalesced followers): it is frozen, not copied."""
        trace = generate_trace(TrafficSpec(n_requests=120, seed=7))
        broker, tickets = run_trace(trace, ServiceConfig())
        by_key: dict[str, list] = {}
        for ticket in tickets:
            by_key.setdefault(ticket.key, []).append(ticket)
        hot = max(by_key.values(), key=len)
        assert any(t.cached for t in hot) and any(t.coalesced for t in hot)
        assert all(t.result is hot[0].result for t in hot)
        assert not any(t.result.flags.writeable for t in tickets)
        before = hot[0].result.copy()
        with pytest.raises(ValueError, match="read-only"):
            hot[-1].result[0] = -1.0
        again = broker.submit(hot[0].request)
        assert again.cached and again.result.tobytes() == before.tobytes()

    def test_lattice_answers_are_read_only(self):
        trace = generate_trace(
            TrafficSpec(n_requests=40, seed=11, pattern="walk", accuracy=1.0e-3)
        )
        _, tickets = run_trace(trace, ServiceConfig())
        served = [t for t in tickets if t.lattice]
        assert served and not any(t.result.flags.writeable for t in served)


class TestCoalescing:
    def test_identical_concurrent_requests_share_one_run(self):
        clock, broker = make_broker()
        leader = broker.submit(req())
        follower = broker.submit(req())
        assert not leader.coalesced and follower.coalesced
        assert follower.signal is leader.signal
        clock.run()
        assert leader.done and follower.done
        np.testing.assert_array_equal(leader.result, follower.result)
        assert broker.coalescer.coalesced == 1
        assert broker.cache.stats.insertions == 1  # one hybrid run total
        assert broker.telemetry.batch_sizes == [1]

    def test_different_requests_not_coalesced(self):
        clock, broker = make_broker()
        a = broker.submit(req(1.0e7))
        b = broker.submit(req(2.0e7))
        assert not a.coalesced and not b.coalesced
        clock.run()
        assert broker.coalescer.coalesced == 0
        assert broker.cache.stats.insertions == 2

    def test_coalesced_requests_bypass_backpressure(self):
        # Queue capacity 1: the duplicate attaches instead of rejecting.
        _, broker = make_broker(queue_capacity=1)
        leader = broker.submit(req())
        follower = broker.submit(req())
        assert not leader.rejected and follower.coalesced


class TestBackpressure:
    def test_full_queue_rejects_with_retry_after(self):
        _, broker = make_broker(queue_capacity=2)
        admitted = [broker.submit(req(t)) for t in (1e6, 2e6)]
        overflow = broker.submit(req(3e6))
        assert all(not t.rejected for t in admitted)
        assert overflow.rejected
        assert overflow.retry_after_s == RETRY_AFTER_S == 0.5
        assert overflow.signal is None
        assert broker.telemetry.rejections == 1

    def test_rejected_request_succeeds_after_drain(self):
        clock, broker = make_broker(queue_capacity=1)
        broker.submit(req(1e6))
        overflow = broker.submit(req(2e6))
        assert overflow.rejected
        clock.run()  # queue drains
        retry = broker.submit(req(2e6), retry=True)
        assert not retry.rejected
        clock.run()
        assert retry.done
        assert broker.telemetry.retries == 1
        # A retry must not inflate the arrival count.
        assert broker.telemetry.arrivals == 2

    def test_queue_depth_telemetry(self):
        clock, broker = make_broker(queue_capacity=8)
        for t in (1e6, 2e6, 3e6):
            broker.submit(req(t))
        assert broker.queue_depth == 3
        clock.run()
        assert broker.queue_depth == 0
        broker.telemetry.finalize(clock.now)
        assert broker.telemetry.max_depth == 3


class TestLanesAndBatching:
    def test_interactive_drains_before_survey(self):
        clock, broker = make_broker(batch_max=1, n_service_workers=1)
        survey = broker.submit(req(1e6), lane="survey")
        inter = broker.submit(req(2e6), lane="interactive")
        clock.run()
        # Both complete, but the interactive request finished first even
        # though it arrived second.
        assert inter.done and survey.done
        assert inter.completed_at < survey.completed_at

    def test_batch_max_bounds_dispatch(self):
        clock, broker = make_broker(batch_max=2, n_service_workers=1)
        for t in (1e6, 2e6, 3e6, 4e6, 5e6):
            broker.submit(req(t))
        clock.run()
        assert sum(broker.telemetry.batch_sizes) == 5
        assert max(broker.telemetry.batch_sizes) <= 2

    def test_report_spans_all_ledgers(self):
        clock, broker = make_broker()
        broker.submit(req())
        clock.run()
        broker.submit(req())  # cache hit
        broker.telemetry.finalize(clock.now)
        report = broker.report()
        assert report["completions"] == 2
        assert report["cache"]["hits"] == 1
        assert report["cache"]["entries"] == 1
        assert report["coalescer"]["opened"] == 1
        assert report["gpu_tasks"] + report["cpu_tasks"] > 0
