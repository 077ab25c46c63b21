"""Continuous batching: megabatch dispatch must be invisible in the bits.

The feature is a pure performance transform — fuse the compatible part
of a drained backlog into one launch — whose contract is that every
served spectrum stays bit-identical to one-request-at-a-time dispatch.
These tests pin that contract at each layer: group compilation, the
stacked family payload, the assembler's grouping rules, and the broker's
batched dispatch across every execution backend.
"""

import numpy as np
import pytest

from repro.atomic.database import AtomicConfig, AtomicDatabase
from repro.service import ServiceConfig, TrafficSpec, generate_trace, run_trace
from repro.service.batching import BatchAssembler
from repro.service.requests import (
    SpectrumRequest,
    compile_group_tasks,
    compile_tasks,
    family_spectra,
    request_spectrum,
)


@pytest.fixture(scope="module")
def db() -> AtomicDatabase:
    return AtomicDatabase(AtomicConfig.tiny())


def _request(**kw) -> SpectrumRequest:
    base = dict(temperature_k=1.0e7, z_max=6, n_bins=32)
    base.update(kw)
    return SpectrumRequest(**base)


def _group(*temps, **kw) -> tuple[SpectrumRequest, ...]:
    return tuple(_request(temperature_k=t, **kw) for t in temps)


class _Entry:
    """Assembler input stub: only ``request`` (and ``lane``) are read."""

    def __init__(self, request: SpectrumRequest, lane: str = "survey"):
        self.request = request
        self.lane = lane


class TestFamilyPayload:
    def test_rows_bit_identical_to_single_requests(self, db):
        group = _group(8.0e6, 1.0e7, 1.6e7, 3.0e7)
        n_max, z_max = db.config.n_max, db.config.z_max
        stacked = family_spectra((group, n_max, z_max))
        assert stacked.shape == (4, 32)
        for j, request in enumerate(group):
            single = request_spectrum((request, n_max, z_max))
            np.testing.assert_array_equal(stacked[j], single)

    def test_empty_group_is_empty(self, db):
        out = family_spectra(((), db.config.n_max, db.config.z_max))
        assert out.shape == (0, 0)


class TestCompileGroupTasks:
    def test_payload_rows_match_single_task_fold(self, db):
        group = _group(8.0e6, 2.0e7)
        gtasks = compile_group_tasks(group, db)
        for j, request in enumerate(group):
            singles = compile_tasks(request, db)
            for gtask, stask in zip(gtasks, singles):
                np.testing.assert_array_equal(
                    gtask.cpu_execute()[j], stask.cpu_execute()
                )

    def test_kernel_priced_as_fused_launch(self, db):
        group = _group(8.0e6, 1.0e7, 2.0e7)
        gtasks = compile_group_tasks(group, db)
        singles = compile_tasks(group[0], db)
        for gtask, stask in zip(gtasks, singles):
            # Output (integrals, result bytes) scales with width; the
            # per-level parameter upload is paid once for the group.
            assert gtask.kernel.n_integrals == 3 * stask.kernel.n_integrals
            assert gtask.kernel.bytes_out == 3 * stask.kernel.bytes_out
            assert gtask.kernel.bytes_in == stask.kernel.bytes_in

    def test_spread_assigns_one_point_per_task(self, db):
        group = _group(8.0e6, 2.0e7)
        spread = compile_group_tasks(group, db, point_index=5, spread=True)
        assert [t.point_index for t in spread] == [
            5 + i for i in range(len(spread))
        ]
        packed = compile_group_tasks(group, db, point_index=5)
        assert {t.point_index for t in packed} == {5}

    def test_mixed_family_rejected(self, db):
        with pytest.raises(ValueError, match="family"):
            compile_group_tasks(
                (_request(), _request(n_bins=64)), db
            )

    def test_empty_group_compiles_nothing(self, db):
        assert compile_group_tasks((), db) == []


class TestBatchAssembler:
    def test_groups_by_family_preserving_drain_order(self):
        a1, a2 = _request(temperature_k=8.0e6), _request(temperature_k=2.0e7)
        b1 = _request(temperature_k=1.0e7, n_bins=64)
        groups = BatchAssembler().assemble(
            [_Entry(a1), _Entry(b1), _Entry(a2)]
        )
        assert [g.width for g in groups] == [2, 1]
        assert groups[0].requests == (a1, a2)
        assert groups[1].requests == (b1,)

    def test_width_cap_spills_into_consecutive_groups(self):
        entries = [
            _Entry(_request(temperature_k=1.0e6 * (1 + i))) for i in range(5)
        ]
        groups = BatchAssembler(width_max=2).assemble(entries)
        assert [g.width for g in groups] == [2, 2, 1]

    def test_interactive_entries_keep_their_priority(self):
        hot = _Entry(_request(temperature_k=9.0e6), lane="interactive")
        cold = _Entry(_request(temperature_k=9.0e6, n_bins=64))
        groups = BatchAssembler().assemble([hot, cold])
        # Drain order put the interactive entry first; the assembler
        # must not reorder groups behind later-seen families.
        assert groups[0].lanes == ("interactive",)

    def test_width_validation(self):
        with pytest.raises(ValueError, match="width_max"):
            BatchAssembler(width_max=0)


class TestBrokerMegabatchIdentity:
    @pytest.fixture(scope="class")
    def trace(self):
        # Bursty arrivals over few distinct points: the shape that
        # actually produces multi-width megabatch groups.
        return generate_trace(
            TrafficSpec(
                n_requests=24,
                seed=13,
                n_distinct=8,
                burst=6,
                mean_interarrival_s=0.02,
                pattern="uniform",
            )
        )

    @pytest.fixture(scope="class")
    def unbatched_tickets(self, trace):
        _, tickets = run_trace(trace, ServiceConfig(n_service_workers=2))
        return tickets

    def _batched(self, trace, **kw):
        cfg = ServiceConfig(
            n_service_workers=2,
            batch_max=8,
            batch_width_max=8,
            batch_window_s=0.02,
            **kw,
        )
        return run_trace(trace, cfg)

    @pytest.mark.parametrize("backend", ["serial", "thread"])
    def test_bit_identical_across_backends(
        self, trace, unbatched_tickets, backend
    ):
        extra = {} if backend == "serial" else {"backend": backend, "jobs": 2}
        broker, tickets = self._batched(trace, **extra)
        assert len(tickets) == len(unbatched_tickets)
        for a, b in zip(unbatched_tickets, tickets):
            np.testing.assert_array_equal(a.result, b.result)
        assert len(broker.telemetry.megabatch_widths) > 0

    def test_telemetry_books_widths_and_coalesced(self, trace):
        broker, _ = self._batched(trace)
        tel = broker.telemetry
        widths = tel.megabatch_widths
        assert max(widths) > 1
        assert tel.batched_temperatures == sum(widths)
        # Requests that shared a fused launch with at least one other.
        assert tel.batch_coalesced_requests == sum(
            w for w in widths if w > 1
        )
        report = broker.report()
        assert report["megabatch_groups"] == len(widths)
        assert report["batch_width_max"] == max(widths)

    def test_zero_window_still_batches_backlog(self, trace):
        # window=0 never waits, but whatever backlog a drain finds is
        # still fused — and the answers still match unbatched dispatch.
        broker, tickets = self._batched(trace)
        zero_broker, zero_tickets = run_trace(
            trace,
            ServiceConfig(
                n_service_workers=2,
                batch_max=8,
                batch_width_max=8,
                batch_window_s=0.0,
            ),
        )
        assert zero_broker.telemetry.batch_window_waits == 0
        for a, b in zip(tickets, zero_tickets):
            np.testing.assert_array_equal(a.result, b.result)

    def test_width_one_cap_degenerates_to_unbatched(
        self, trace, unbatched_tickets
    ):
        broker, tickets = run_trace(
            trace,
            ServiceConfig(
                n_service_workers=2,
                batch_max=8,
                batch_width_max=1,
                batch_window_s=0.0,
            ),
        )
        assert all(w == 1 for w in broker.telemetry.megabatch_widths)
        for a, b in zip(unbatched_tickets, tickets):
            np.testing.assert_array_equal(a.result, b.result)

    def test_config_validates_batching_knobs(self):
        with pytest.raises(ValueError, match="batch_window_s"):
            ServiceConfig(batch_window_s=-0.1)
        with pytest.raises(ValueError, match="batch_width_max"):
            ServiceConfig(batch_width_max=0)


class TestBatchedLatticeTier:
    def test_lattice_serving_unchanged_by_batching(self):
        trace = generate_trace(
            TrafficSpec(
                n_requests=20,
                seed=5,
                pattern="walk",
                accuracy=1.0e-3,
                burst=5,
                mean_interarrival_s=0.02,
            )
        )
        _, plain = run_trace(trace, ServiceConfig(n_service_workers=2))
        _, batched = run_trace(
            trace,
            ServiceConfig(
                n_service_workers=2,
                batch_max=8,
                batch_width_max=8,
                batch_window_s=0.02,
            ),
        )
        for a, b in zip(plain, batched):
            np.testing.assert_array_equal(a.result, b.result)
