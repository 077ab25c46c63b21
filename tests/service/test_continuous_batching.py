"""Continuous batching: megabatch dispatch must be invisible in the bits.

The feature is a pure performance transform — fuse the compatible part
of a drained backlog into one launch — whose contract is that every
served spectrum stays bit-identical to one-request-at-a-time dispatch.
These tests pin that contract at each layer: group compilation, the
stacked family payload, the assembler's grouping rules, and the broker's
dispatch — which evaluates its spectra out of band — against two
oracles that do not: the in-simulation fold of payload-carrying tasks
and the scalar ``ion_emission`` left fold.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.atomic.database import AtomicConfig, AtomicDatabase
from repro.core.hybrid import HybridRunner
from repro.service import ServiceConfig, TrafficSpec, generate_trace, run_trace
from repro.service.batching import BatchAssembler
from repro.service.broker import _default_hybrid
from repro.service.requests import (
    SpectrumRequest,
    compile_group_tasks,
    compile_tasks,
    family_spectra,
    ion_emission,
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
            assert gtask.n_integrals == 3 * stask.n_integrals
            assert gtask.bytes_out == 3 * stask.bytes_out
            assert gtask.bytes_in == stask.bytes_in

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
        assert [e.lane for e in groups[0].entries] == ["interactive"]

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
        for window in (-0.1, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="batch_window_s"):
                ServiceConfig(batch_window_s=window)
        with pytest.raises(ValueError, match="batch_width_max"):
            ServiceConfig(batch_width_max=0)


class TestBrokerAgainstOracles:
    """The broker's answers come from ``family_spectra``; checking them
    against ``request_spectrum`` would compare that function with
    itself.  Every ticket of a cold and a burst trace, under each
    dispatch policy, must equal (a) what the hybrid runner accumulates
    *inside the simulation* from payload-carrying tasks and (b) the
    scalar oracle folded ion by ion."""

    DISPATCH = {
        "shared": {},
        "predictive": {"scheduler_kind": "predictive"},
        "async_depth": {"async_depth": 2},
    }

    @pytest.fixture(scope="class")
    def traces(self):
        cold = generate_trace(
            TrafficSpec(
                n_requests=12, seed=7, pattern="uniform", n_distinct=30000,
                mean_interarrival_s=0.4, tail_tol=1.0e-9,
            )
        )
        burst = generate_trace(
            TrafficSpec(
                n_requests=24, seed=13, n_distinct=8, burst=6,
                mean_interarrival_s=0.02, pattern="uniform",
            )
        )
        batching = dict(batch_max=8, batch_width_max=8, batch_window_s=0.02)
        return {"cold": (cold, {}), "burst": (burst, batching)}

    @staticmethod
    def _scalar_fold(db, request: SpectrumRequest) -> np.ndarray:
        out = np.zeros(request.n_bins)
        for ion in db.ions:
            if ion.z <= request.z_max:
                out += ion_emission(ion, db.n_levels(ion), request)
        return out

    @pytest.mark.parametrize("dispatch", sorted(DISPATCH))
    @pytest.mark.parametrize("shape", ["cold", "burst"])
    def test_tickets_equal_the_in_simulation_fold_and_the_scalar_fold(
        self, traces, shape, dispatch
    ):
        trace, batching = traces[shape]
        hybrid = replace(_default_hybrid(), **self.DISPATCH[dispatch])
        broker, tickets = run_trace(
            trace, ServiceConfig(n_service_workers=2, hybrid=hybrid, **batching)
        )
        db = broker.db
        assert len(tickets) == len(trace) and all(t.done for t in tickets)
        if batching:
            assert max(broker.telemetry.megabatch_widths) > 1

        # (a) in-simulation: one run per request, and one per family with
        # every distinct member riding a single fused group.
        runner = HybridRunner(hybrid)
        distinct = list(dict.fromkeys(a.request for a in trace))
        in_sim = {
            r: runner.run(compile_tasks(r, db, with_payload=True)).spectra[0]
            for r in distinct
        }
        families: dict[str, list[SpectrumRequest]] = {}
        for r in distinct:
            families.setdefault(r.family_key, []).append(r)
        grouped = {}
        for members in families.values():
            block = runner.run(
                compile_group_tasks(tuple(members), db, with_payload=True)
            ).spectra[0]
            grouped.update(zip(members, block))

        for ticket in tickets:
            request = ticket.request
            assert np.array_equal(ticket.result, in_sim[request])
            assert np.array_equal(ticket.result, grouped[request])
            assert np.array_equal(ticket.result, self._scalar_fold(db, request))


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
