"""The span tracer: null implementation, recording, track interning."""

import inspect

import pytest

from repro.cluster.simclock import SimClock
from repro.obs import NULL_TRACER, EventTracer, NullTracer, WallClock


class TestNullTracer:
    def test_disabled(self):
        assert NULL_TRACER.enabled is False

    def test_every_method_is_a_silent_noop(self):
        """Every public callable of the recording tracer exists on the null
        one, takes the recorder's call, and does nothing — so a new
        emission method cannot be missing from the null object, and an
        instrumented site that forgot its ``enabled`` guard cannot raise."""
        t = NullTracer()
        methods = {
            name: fn
            for name, fn in inspect.getmembers(EventTracer, inspect.isfunction)
            if not name.startswith("_")
        }
        assert {"span", "instant", "load", "task_alloc", "device_task", "task_end"} <= set(methods)
        for name, recording in methods.items():
            params = list(inspect.signature(recording).parameters.values())[1:]
            required = [object() for p in params if p.default is p.empty]
            optional = {p.name: object() for p in params if p.default is not p.empty}
            result = getattr(t, name)(*required, **optional)
            assert result is {"bind": t, "track": 0, "new_id": 0}.get(name), name
        assert vars(t) == {}

    def test_singleton_is_shared(self):
        from repro.obs.tracer import NULL_TRACER as again

        assert again is NULL_TRACER


class TestEventTracer:
    def test_requires_clock(self):
        with pytest.raises(RuntimeError, match="no clock"):
            _ = EventTracer().now

    def test_bind_returns_self(self):
        t = EventTracer()
        assert t.bind(SimClock()) is t

    def test_track_interning_is_stable(self):
        t = EventTracer()
        a = t.track("svc0", "gpu0")
        b = t.track("svc0", "gpu1")
        assert a != b
        assert t.track("svc0", "gpu0") == a
        assert t.tracks[a].process == "svc0"
        assert t.tracks[a].thread == "gpu0"

    def test_span_uses_explicit_interval(self):
        t = EventTracer(SimClock())
        t.span(1, "s", 1.0, 4.0)
        assert t.events[0].ts == 1.0
        assert t.events[0].dur == 3.0

    def test_async_pair_and_instant_and_counter(self):
        t = EventTracer(SimClock())
        t.async_begin(0, "req", 7, cat="request")
        t.async_end(0, "req", 7, cat="request")
        t.instant(0, "hit", cat="cache")
        t.counter(0, "depth", 3)
        phases = [ev.ph for ev in t.events]
        assert phases == ["b", "e", "i", "C"]
        assert t.events[0].id == 7
        assert t.events[3].args == {"value": 3}

    def test_wall_clock_is_monotone_from_zero(self):
        wc = WallClock()
        a = wc.now
        b = wc.now
        assert 0.0 <= a <= b
