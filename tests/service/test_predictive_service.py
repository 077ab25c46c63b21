"""Predictive scheduling through the service layer.

The broker contract: switching the hybrid nodes to the predictive
scheduler (with work stealing) changes *when* tasks run, never *what*
they compute — every served spectrum is bit-identical to the depth
scheduler's (and to the oracles of
``test_continuous_batching.TestBrokerAgainstOracles``) — and the
per-batch steal / donation ledgers stay conserved.  The cost model persists: a second
broker seeded from the first one's serialized model keeps refining the
same observation history.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.obs.attribution import CostModel
from repro.service.broker import ServiceConfig, _default_hybrid, run_trace
from repro.service.loadgen import TrafficSpec, generate_trace


def _trace():
    return generate_trace(
        TrafficSpec(
            n_requests=24,
            seed=7,
            mean_interarrival_s=0.02,
            burst=6,
            pattern="uniform",
            n_distinct=8,
            tail=0.35,
            tail_z_max=14,
        )
    )


def _config(**kw):
    hybrid = replace(_default_hybrid(), scheduler_kind="predictive")
    base = dict(n_service_workers=2, hybrid=hybrid)
    base.update(kw)
    return ServiceConfig(**base)


class TestPredictiveBroker:
    @pytest.fixture(scope="class")
    def trace(self):
        return _trace()

    @pytest.fixture(scope="class")
    def depth_tickets(self, trace):
        _, tickets = run_trace(trace, ServiceConfig(n_service_workers=2))
        return tickets

    @pytest.fixture(scope="class")
    def predictive_run(self, trace):
        return run_trace(trace, _config())

    def test_all_requests_served(self, trace, predictive_run):
        _, tickets = predictive_run
        assert len(tickets) == len(trace)
        assert all(t is not None and t.done for t in tickets)

    def test_spectra_bit_identical_to_depth(self, depth_tickets, predictive_run):
        _, tickets = predictive_run
        for a, b in zip(depth_tickets, tickets):
            np.testing.assert_array_equal(a.result, b.result)

    def test_steals_conserved(self, predictive_run):
        broker, _ = predictive_run
        tel = broker.telemetry
        assert sum(tel.sched_steals) == sum(tel.sched_donations)

    def test_report_carries_sched_keys(self, predictive_run):
        broker, _ = predictive_run
        report = broker.report()
        assert "sched_steals" in report
        assert "sched_prediction_error_mean" in report
        assert "sched_load_imbalance" in report

    def test_prediction_errors_collected(self, predictive_run):
        broker, _ = predictive_run
        assert broker.cost_model is not None
        assert broker.cost_model.n_observations > 0
        assert len(broker.telemetry.sched_prediction_errors) > 0


class TestCostModelPersistence:
    def test_round_trip_keeps_observation_history(self):
        trace = _trace()
        first, _ = run_trace(trace, _config())
        doc = first.cost_model.to_dict()
        restored = CostModel.from_dict(doc)
        assert restored.n_keys == first.cost_model.n_keys
        assert restored.n_observations == first.cost_model.n_observations

        second, _ = run_trace(trace, _config(), cost_model=restored)
        assert second.cost_model is restored
        assert (
            second.cost_model.n_observations
            > first.cost_model.n_observations
        )

    def test_depth_scheduler_has_no_model_by_default(self):
        trace = generate_trace(TrafficSpec(n_requests=6, seed=3, n_distinct=3))
        broker, _ = run_trace(trace, ServiceConfig(n_service_workers=1))
        assert broker.cost_model is None
