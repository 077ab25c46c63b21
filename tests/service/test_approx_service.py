"""The lattice tier through the broker: budgets, bit-identity, booking."""

from dataclasses import replace

import numpy as np
import pytest

from repro.approx import LatticeSpec
from repro.cluster.simclock import SimClock
from repro.service.broker import ServiceConfig, SpectrumBroker
from repro.service.requests import SpectrumRequest

SPEC = LatticeSpec(t_min_k=1.0e6, t_max_k=5.0e7, n_nodes=17, method="cubic")


def _config(**kw) -> ServiceConfig:
    return ServiceConfig(**{"lattice": SPEC, **kw})


def _submit(broker: SpectrumBroker, clock: SimClock, request: SpectrumRequest):
    ticket = broker.submit(request, lane="interactive")
    clock.run()
    return ticket


class TestRequestKey:
    def test_exact_canonical_is_unchanged_by_the_accuracy_field(self):
        # accuracy=0 requests must keep their pre-lattice canonical form
        # (and sha1 key) bit for bit — cache keys and golden traces
        # depend on it.
        req = SpectrumRequest(temperature_k=1.0e7)
        assert req.canonical() == (
            "T=1.000000000e+07|ne=1.000000000e+00|z=8|bins=64|"
            "rule=simpson|tol=1.000e-06|tt=0.000e+00"
        )
        assert "acc=" not in req.canonical()

    def test_positive_accuracy_enters_the_key(self):
        exact = SpectrumRequest(temperature_k=1.0e7)
        budgeted = SpectrumRequest(temperature_k=1.0e7, accuracy=1.0e-3)
        assert budgeted.canonical().endswith("|acc=1.000e-03")
        assert budgeted.key != exact.key

    def test_negative_accuracy_rejected(self):
        with pytest.raises(ValueError, match="accuracy"):
            SpectrumRequest(temperature_k=1.0e7, accuracy=-1.0e-3)

    def test_family_ignores_temperature_and_accuracy(self):
        a = SpectrumRequest(temperature_k=1.0e6, accuracy=1.0e-3)
        b = SpectrumRequest(temperature_k=4.7e7, accuracy=1.0e-5)
        assert a.family_canonical() == b.family_canonical()
        assert a.family_key == b.family_key
        assert "T=" not in a.family_canonical()

    def test_family_tracks_shape_knobs(self):
        a = SpectrumRequest(temperature_k=1.0e6, n_bins=64)
        b = SpectrumRequest(temperature_k=1.0e6, n_bins=32)
        assert a.family_key != b.family_key


class TestConfigValidation:
    def test_bad_method(self):
        with pytest.raises(ValueError, match="unknown method 'spline'"):
            ServiceConfig(lattice=replace(SPEC, method="spline"))

    def test_bad_domain(self):
        with pytest.raises(ValueError, match="t_min_k < t_max_k"):
            ServiceConfig(lattice=replace(SPEC, t_min_k=1.0e8, t_max_k=1.0e6))

    def test_default_lattice_is_the_service_spec(self):
        """Not ``LatticeSpec``'s own defaults (17 nodes, linear); the
        store keeps ``LatticeStore``'s byte budget and refinement cap."""
        assert ServiceConfig().lattice == LatticeSpec(
            t_min_k=5.0e5, t_max_k=1.0e8, n_nodes=33, method="cubic", safety=2.0
        )
        clock = SimClock()
        broker = SpectrumBroker(clock, ServiceConfig())
        broker.start()
        _submit(broker, clock, SpectrumRequest(temperature_k=1.3e7, accuracy=1e-3))
        assert broker._lattice.spec is broker.config.lattice
        assert broker._lattice.max_bytes == 8 << 20
        assert broker._lattice.refine_max == 2


class TestExactPathUntouched:
    def test_accuracy_zero_is_bit_identical_with_tier_disabled(self):
        request = SpectrumRequest(temperature_k=1.3e7)
        results = []
        for spec in (SPEC, None):
            clock = SimClock()
            broker = SpectrumBroker(clock, _config(lattice=spec))
            broker.start()
            results.append(_submit(broker, clock, request).result)
        np.testing.assert_array_equal(results[0], results[1])

    def test_accuracy_zero_never_constructs_the_store(self):
        clock = SimClock()
        broker = SpectrumBroker(clock, _config())
        broker.start()
        ticket = _submit(broker, clock, SpectrumRequest(temperature_k=1.3e7))
        assert not ticket.lattice
        assert broker._lattice is None
        lat = broker.report()["lattice"]
        assert lat["requests"] == 0
        assert lat["families"] == 0


class TestLatticeServing:
    def test_hit_within_budget_and_verified_against_exact(self):
        budget = 1.0e-3
        request = SpectrumRequest(temperature_k=1.3e7, accuracy=budget)
        clock = SimClock()
        broker = SpectrumBroker(clock, _config())
        broker.start()
        ticket = _submit(broker, clock, request)
        assert ticket.done and ticket.lattice and not ticket.cached
        assert 0.0 < ticket.error_bound <= budget
        assert ticket.latency_s == 0.0

        # Re-verify the served spectrum against exact recomputation.
        exact_clock = SimClock()
        exact_broker = SpectrumBroker(exact_clock, _config(lattice=None))
        exact_broker.start()
        exact = _submit(
            exact_broker, exact_clock,
            SpectrumRequest(temperature_k=1.3e7),
        ).result
        err = float(np.max(np.abs(ticket.result - exact)) / exact.max())
        assert err <= ticket.error_bound <= budget

        report = broker.report()
        assert report["lattice"]["hits"] == 1
        assert report["lanes"]["interactive"]["lattice_hits"] == 1
        assert broker._lattice is not None

    def test_nearby_temperatures_share_one_build(self):
        clock = SimClock()
        broker = SpectrumBroker(clock, _config())
        broker.start()
        for t in (1.1e7, 1.3e7, 1.7e7):
            ticket = _submit(
                broker, clock, SpectrumRequest(temperature_k=t, accuracy=1e-3)
            )
            assert ticket.lattice
        lat = broker.report()["lattice"]
        assert lat["builds"] == 1
        assert lat["hits"] == 3

    def test_uncertifiable_budget_falls_back_to_exact(self):
        request = SpectrumRequest(temperature_k=1.3e7, accuracy=1.0e-13)
        clock = SimClock()
        broker = SpectrumBroker(clock, _config())
        broker.start()
        ticket = _submit(broker, clock, request)
        assert ticket.done and not ticket.lattice

        exact_clock = SimClock()
        exact_broker = SpectrumBroker(exact_clock, _config(lattice=None))
        exact_broker.start()
        exact = _submit(
            exact_broker, exact_clock, SpectrumRequest(temperature_k=1.3e7)
        ).result
        np.testing.assert_array_equal(ticket.result, exact)
        assert broker.report()["lattice"]["fallbacks"] == 1

    def test_out_of_domain_temperature_computes_exactly(self):
        request = SpectrumRequest(temperature_k=9.0e7, accuracy=1.0e-3)
        clock = SimClock()
        broker = SpectrumBroker(clock, _config())
        broker.start()
        ticket = _submit(broker, clock, request)
        assert ticket.done and not ticket.lattice
        assert broker.report()["lattice"]["misses"] == 1


class TestPromExport:
    def test_lattice_families_render_zeroed_without_the_tier(self):
        clock = SimClock()
        broker = SpectrumBroker(clock, _config())
        broker.start()
        _submit(broker, clock, SpectrumRequest(temperature_k=1.3e7))
        text = broker.registry().render()
        assert 'repro_approx_lattice_requests_total{result="hit"} 0' in text
        assert "repro_spectrum_cache_lookups_total" in text

    def test_lattice_outcomes_exported(self):
        from repro.obs.prom import parse_exposition

        clock = SimClock()
        broker = SpectrumBroker(clock, _config())
        broker.start()
        _submit(
            broker, clock,
            SpectrumRequest(temperature_k=1.3e7, accuracy=1.0e-3),
        )
        families = parse_exposition(broker.registry().render())
        hits = {
            labels.get("result"): value
            for labels, value in families["repro_approx_lattice_requests_total"]
        }
        assert hits["hit"] == 1.0
        outcomes = {
            (labels.get("lane"), labels.get("outcome")): value
            for labels, value in families["repro_requests_total"]
        }
        assert outcomes[("interactive", "lattice_hit")] == 1.0
        assert families["repro_approx_lattice_builds_total"][0][1] == 1.0
