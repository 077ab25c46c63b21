"""The plan cache through the service layer."""

import pytest

from repro.atomic.database import AtomicConfig, AtomicDatabase
from repro.physics.plan import PLAN_CACHE, PlanCache
from repro.service import ServiceConfig, TrafficSpec, generate_trace, run_trace
from repro.service.requests import SpectrumRequest, compile_tasks


@pytest.fixture(scope="module")
def db() -> AtomicDatabase:
    return AtomicDatabase(AtomicConfig.tiny())


def _request(**kw) -> SpectrumRequest:
    base = dict(temperature_k=1.0e7, z_max=6, n_bins=32, tail_tol=1.0e-9)
    base.update(kw)
    return SpectrumRequest(**base)


class TestCompileTasksPlanCache:
    def test_second_compile_hits(self, db):
        cache = PlanCache()
        compile_tasks(_request(), db, plan_cache=cache)
        compile_tasks(_request(), db, plan_cache=cache)
        assert cache.stats.compilations == 1
        assert cache.stats.hits == 1

    def test_different_temperature_zero_new_compilations(self, db):
        cache = PlanCache()
        compile_tasks(_request(temperature_k=8.0e6), db, plan_cache=cache)
        compile_tasks(_request(temperature_k=1.6e7), db, plan_cache=cache)
        assert cache.stats.compilations == 1
        assert cache.stats.hits == 1

    def test_rule_or_tail_tol_recompiles(self, db):
        cache = PlanCache()
        compile_tasks(_request(), db, plan_cache=cache)
        compile_tasks(_request(rule="romberg"), db, plan_cache=cache)
        compile_tasks(_request(tail_tol=1.0e-6), db, plan_cache=cache)
        assert cache.stats.compilations == 3

    def test_unpruned_requests_skip_the_cache(self, db):
        cache = PlanCache()
        compile_tasks(_request(tail_tol=0.0), db, plan_cache=cache)
        assert cache.stats.lookups == 0

    def test_cost_only_tasks_price_identically(self, db):
        cache = PlanCache()
        priced = compile_tasks(_request(), db, plan_cache=cache)
        costed = compile_tasks(
            _request(), db, with_payload=False, plan_cache=cache
        )
        assert len(priced) == len(costed)
        for a, b in zip(priced, costed):
            assert a.n_integrals == b.n_integrals
            assert a.evals_saved == b.evals_saved
            assert a.total_evals == b.total_evals
            assert b.cpu_execute is None and b.execute is None
            assert a.cpu_execute is not None


class TestBrokerBackends:
    def test_config_validates_backend(self):
        # The payload pool and its two knobs are gone, not silently accepted.
        for removed in ({"backend": "thread"}, {"backend": "process"}, {"jobs": 2}):
            with pytest.raises(TypeError):
                ServiceConfig(**removed)


class TestPlanMetricsExported:
    def test_plan_cache_counters_in_registry(self):
        trace = generate_trace(
            TrafficSpec(n_requests=10, seed=3, n_distinct=4, tail_tol=1.0e-9)
        )
        PLAN_CACHE.clear()
        broker, _ = run_trace(trace, ServiceConfig())
        text = broker.registry().render()
        assert "repro_plan_cache_lookups_total" in text
        assert "repro_plan_compilations_total" in text
        assert "repro_plan_cache_hit_ratio" in text
        # The pruned trace compiled at least one plan and reused it.
        assert PLAN_CACHE.stats.compilations >= 1
        assert PLAN_CACHE.stats.hits >= 1
