"""The lattice store: serve outcomes, budget, invalidation, accounting."""

import numpy as np
import pytest

from repro.approx import LatticeSpec, LatticeStore, RequestEvaluator
from repro.service.requests import SpectrumRequest

_E_KEV = np.linspace(0.3, 1.5, 24)
_K_B_KEV = 8.617333262e-8


class _StubEvaluator:
    """Duck-typed evaluator: synthetic spectra, controllable fingerprint."""

    def __init__(self) -> None:
        self.fp = "fp-a"

    def fingerprint(self, request) -> str:
        return f"{self.fp}|{request.family_key[:8]}"

    def exact_fn(self, request):
        def exact(temperature_k: float) -> np.ndarray:
            kt = _K_B_KEV * temperature_k
            return np.exp(-_E_KEV / kt) / np.sqrt(kt)

        return exact


def _request(temperature_k=5.0e6, accuracy=1.0e-2, **kw) -> SpectrumRequest:
    return SpectrumRequest(
        temperature_k=temperature_k, accuracy=accuracy, **kw
    )


def _store(**kw) -> LatticeStore:
    args = dict(
        evaluator=_StubEvaluator(),
        spec=LatticeSpec(1.0e6, 5.0e7, n_nodes=9, method="cubic"),
    )
    args.update(kw)
    return LatticeStore(**args)


def _family_bytes() -> int:
    """Budgeted size of one freshly built family (``lat.nbytes``: node
    spectra, certificates and interval tables) — what budgets below are
    derived from, so they track whatever a lattice holds."""
    probe = _store()
    probe.serve(_request())
    return probe.lattice(_request().family_key).nbytes


class TestServeOutcomes:
    def test_hit_within_budget(self):
        store = _store()
        result = store.serve(_request())
        assert result.served and result.status == "hit"
        assert result.values is not None
        assert 0.0 <= result.error_bound <= 1.0e-2
        assert result.abs_bound is not None
        assert store.stats.hits == 1
        assert store.stats.builds == 1
        assert store.stats.hit_ratio() == 1.0

    def test_second_serve_reuses_the_family_lattice(self):
        store = _store()
        store.serve(_request(temperature_k=5.0e6))
        evals = store.stats.node_evals
        store.serve(_request(temperature_k=6.0e6))
        assert store.stats.builds == 1
        assert store.stats.node_evals == evals  # no new exact work

    def test_out_of_domain_is_a_miss(self):
        store = _store()
        result = store.serve(_request(temperature_k=1.0e9))
        assert result.status == "miss"
        assert result.values is None
        assert store.stats.misses == 1

    def test_uncertifiable_budget_is_a_fallback(self):
        store = _store(refine_max=0)
        result = store.serve(_request(accuracy=1.0e-15))
        assert result.status == "fallback"
        assert not result.served
        assert result.error_bound > 1.0e-15
        assert store.stats.fallbacks == 1

    def test_refinement_is_booked_and_capped(self):
        store = _store(refine_max=3)
        result = store.serve(_request(accuracy=1.0e-15))
        assert result.status == "fallback"
        assert result.refinements == 3
        assert store.stats.refinements == 3
        # Two exact evaluations per bisection, on top of the build.
        lat = store.lattice(_request().family_key)
        assert store.stats.node_evals == lat.node_evals

    def test_refinement_can_turn_fallback_into_hit(self):
        store = _store(refine_max=6)
        loose = store.serve(_request(accuracy=1.0e-2))
        tight = store.serve(_request(accuracy=loose.error_bound / 4.0))
        assert tight.status == "hit"
        assert store.stats.refinements >= 1


class TestLifecycle:
    def test_fingerprint_change_invalidates_and_rebuilds(self):
        evaluator = _StubEvaluator()
        store = _store(evaluator=evaluator)
        store.serve(_request())
        assert store.stats.builds == 1
        evaluator.fp = "fp-b"  # database/grid changed under the family
        result = store.serve(_request())
        assert result.served
        assert store.stats.invalidations == 1
        assert store.stats.builds == 2

    def test_byte_budget_evicts_lru_family_never_current(self):
        store = _store(max_bytes=_family_bytes() - 1)
        store.serve(_request(n_bins=64))
        assert len(store) == 1  # over budget, but the only family stays
        store.serve(_request(n_bins=32))  # different family
        assert len(store) == 1
        assert store.stats.evictions == 1
        # The survivor is the family just served.
        assert store.lattice(_request(n_bins=32).family_key) is not None

    def test_budget_for_two_families_holds_two(self):
        one = _family_bytes()
        store = _store(max_bytes=2 * one)
        for n_bins in (64, 32, 16):
            store.serve(_request(n_bins=n_bins))
        assert len(store) == 2
        assert store.stats.evictions == 1
        assert store.bytes_stored == 2 * one
        assert store.lattice(_request(n_bins=64).family_key) is None  # the LRU

    def test_refinement_growth_is_charged_to_the_budget(self):
        one = _family_bytes()
        store = _store(max_bytes=2 * one, refine_max=1)
        store.serve(_request(n_bins=64))
        store.serve(_request(n_bins=32))
        assert store.stats.evictions == 0
        # One bisection adds a node, a certificate and its table to the
        # second family: past the budget, so the first (LRU) goes.
        store.serve(_request(n_bins=32, accuracy=1.0e-15))
        assert store.stats.refinements == 1
        assert store.stats.evictions == 1
        survivor = store.lattice(_request(n_bins=32).family_key)
        assert one < survivor.nbytes == store.bytes_stored <= store.max_bytes

    def test_stored_bytes_stay_within_budget_after_every_serve(self):
        store = _store(max_bytes=int(2.5 * _family_bytes()), refine_max=2)
        rng = np.random.default_rng(3)
        for _ in range(60):
            store.serve(
                _request(
                    temperature_k=float(np.exp(rng.uniform(np.log(1.0e6), np.log(5.0e7)))),
                    accuracy=float(rng.choice([1.0e-2, 1.0e-6])),
                    n_bins=int(rng.choice([16, 32, 64])),
                )
            )
            # Tables counted; only the family just served may overshoot.
            assert store.bytes_stored <= store.max_bytes or len(store) == 1
        assert store.stats.evictions > 0 and store.stats.refinements > 0

    def test_as_dict_shape(self):
        store = _store()
        store.serve(_request())
        out = store.as_dict()
        assert out["families"] == 1
        assert out["nodes"] == store.n_nodes
        assert out["bytes_stored"] == store.bytes_stored
        assert out["hits"] == 1


class TestRequestEvaluator:
    def test_fingerprint_ignores_temperature_and_accuracy(self):
        from repro.atomic.database import AtomicConfig, AtomicDatabase

        ev = RequestEvaluator(AtomicDatabase(AtomicConfig.tiny()))
        a = ev.fingerprint(_request(temperature_k=1.0e6, accuracy=1.0e-2))
        b = ev.fingerprint(_request(temperature_k=3.0e7, accuracy=1.0e-4))
        assert a == b

    def test_fingerprint_tracks_the_grid(self):
        from repro.atomic.database import AtomicConfig, AtomicDatabase

        ev = RequestEvaluator(AtomicDatabase(AtomicConfig.tiny()))
        a = ev.fingerprint(_request(n_bins=64))
        b = ev.fingerprint(_request(n_bins=32))
        assert a != b

    def test_fingerprint_memo_tracks_the_database(self):
        from repro.atomic.database import AtomicConfig, AtomicDatabase

        ev = RequestEvaluator(AtomicDatabase(AtomicConfig.tiny()))
        a = ev.fingerprint(_request())
        assert ev.fingerprint(_request(temperature_k=2.0e6)) is a  # memo hit
        ev.db = AtomicDatabase(AtomicConfig(n_max=5, z_max=8))
        b = ev.fingerprint(_request())
        assert b != a
        assert b == RequestEvaluator(ev.db).fingerprint(_request())

    def test_exact_fn_matches_service_payload(self):
        from repro.atomic.database import AtomicConfig, AtomicDatabase
        from repro.service.requests import request_spectrum

        db = AtomicDatabase(AtomicConfig.tiny())
        ev = RequestEvaluator(db)
        req = _request(n_bins=32, z_max=db.config.z_max)
        probe = ev.exact_fn(req)(2.0e6)
        import dataclasses

        exact = request_spectrum(
            (
                dataclasses.replace(req, temperature_k=2.0e6, accuracy=0.0),
                db.config.n_max,
                db.config.z_max,
            )
        )
        np.testing.assert_array_equal(probe, exact)
