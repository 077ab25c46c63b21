"""Prometheus registry: rendering, parsing, ledger derivations."""

import math

import pytest

from repro.obs import MetricsRegistry, parse_exposition
from repro.obs.prom import Counter, Family, fill


def set_counter(registry: MetricsRegistry, name: str, total: float, **labels: str) -> None:
    """Write counter ``name``'s sample at ``total`` the way the product
    writes one: a :class:`Family` fill."""
    sample = [(tuple(labels.values()), total)] if labels else total
    fill(registry, [Family(Counter, name, "h", lambda _: sample, tuple(labels))], None)


class TestRegistry:
    def test_counter_renders_with_labels(self):
        reg = MetricsRegistry()
        reg.counter("x_total", "things", ("kind",))
        set_counter(reg, "x_total", 2, kind="a")
        set_counter(reg, "x_total", 1, kind="b")
        text = reg.render()
        assert "# TYPE x_total counter" in text
        assert 'x_total{kind="a"} 2' in text
        assert 'x_total{kind="b"} 1' in text

    def test_counter_rejects_negative(self):
        reg = MetricsRegistry()
        set_counter(reg, "x_total", 2)
        with pytest.raises(ValueError, match="only go up"):
            set_counter(reg, "x_total", 1)

    def test_gauge_overwrites(self):
        reg = MetricsRegistry()
        g = reg.gauge("depth", "h")
        g.set(3)
        g.set(5)
        assert "depth 5" in reg.render()

    def test_histogram_cumulative_buckets(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", "h", buckets=(1.0, 2.0))
        h.observe(0.5)
        h.observe(1.5)
        h.observe(9.0)
        fams = parse_exposition(reg.render())
        buckets = {lbl["le"]: v for lbl, v in fams["lat_bucket"]}
        assert buckets == {"1": 1.0, "2": 2.0, "+Inf": 3.0}
        assert fams["lat_count"][0][1] == 3.0
        assert fams["lat_sum"][0][1] == pytest.approx(11.0)

    def test_duplicate_name_rejected(self):
        reg = MetricsRegistry()
        reg.gauge("x", "h")
        with pytest.raises(ValueError, match="already registered"):
            reg.gauge("x", "h")

    def test_invalid_metric_name_rejected(self):
        with pytest.raises(ValueError, match="invalid metric name"):
            MetricsRegistry().gauge("bad name", "h")

    def test_wrong_labels_rejected(self):
        c = MetricsRegistry().counter("x_total", "h", ("lane",))
        with pytest.raises(ValueError, match="expected labels"):
            c.value(kind="a")


class TestEscaping:
    ADVERSARIAL = (
        'plain',
        'quote:"inside"',
        "back\\slash",
        "new\nline",
        'all\\of"them\ntogether',
        "trailing\\",
        "comma,and}brace{",
    )

    def test_adversarial_label_values_round_trip(self):
        reg = MetricsRegistry()
        reg.counter("x_total", "h", ("k",))
        for i, value in enumerate(self.ADVERSARIAL):
            set_counter(reg, "x_total", i + 1, k=value)
        fams = parse_exposition(reg.render())
        recovered = {lbl["k"]: v for lbl, v in fams["x_total"]}
        assert recovered == {
            value: float(i + 1) for i, value in enumerate(self.ADVERSARIAL)
        }

    def test_rendered_form_is_escaped(self):
        reg = MetricsRegistry()
        reg.gauge("g", "h", ("k",)).set(1, k='a"b\\c\nd')
        line = [l for l in reg.render().splitlines() if l.startswith("g{")][0]
        assert line == 'g{k="a\\"b\\\\c\\nd"} 1'
        assert "\n" not in line  # literal newline would corrupt the format

    def test_unknown_escape_passes_through(self):
        fams = parse_exposition('x{k="a\\tb"} 1\n')
        assert fams["x"][0][0]["k"] == "a\\tb"


class TestQuantile:
    def test_linear_interpolation_within_bucket(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", "h", buckets=(1.0, 2.0, 4.0))
        for v in (0.5, 1.5, 1.6, 3.0):
            h.observe(v)
        # q=0.5 -> target rank 2 of 4: second observation falls in the
        # (1, 2] bucket; cum before it is 1, so fraction = 1/2.
        assert h.quantile(0.5) == pytest.approx(1.5)
        assert h.quantile(0.0) == pytest.approx(0.0)
        # q=1.0 inside the last finite bucket.
        assert h.quantile(1.0) == pytest.approx(4.0)

    def test_overflow_clamps_to_last_bound(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", "h", buckets=(1.0,))
        h.observe(50.0)
        assert h.quantile(0.99) == 1.0  # +Inf bucket reports the last bound

    def test_labelled_series_and_empty(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", "h", ("lane",), buckets=(1.0, 2.0))
        h.observe(0.5, lane="a")
        assert h.quantile(0.5, lane="a") == pytest.approx(0.5)
        assert h.quantile(0.5, lane="b") == 0.0  # never observed

    def test_invalid_q_rejected(self):
        h = MetricsRegistry().histogram("lat", "h")
        with pytest.raises(ValueError):
            h.quantile(1.5)


class TestAccessors:
    def test_counter_and_gauge_value(self):
        reg = MetricsRegistry()
        c = reg.counter("c_total", "h", ("k",))
        set_counter(reg, "c_total", 3, k="a")
        assert c.value(k="a") == 3.0
        assert c.value(k="never") == 0.0
        g = reg.gauge("g", "h")
        g.set(2.5)
        assert g.value() == 2.5

    def test_registry_get_and_value(self):
        reg = MetricsRegistry()
        reg.gauge("g", "h").set(7)
        assert reg.value("g") == 7.0
        assert "g" in reg
        with pytest.raises(KeyError, match="registered"):
            reg.get("missing")


class TestParser:
    def test_round_trip(self):
        reg = MetricsRegistry()
        set_counter(reg, "a_total", 3, k="v")
        reg.gauge("b", "h").set(1.5)
        fams = parse_exposition(reg.render())
        assert fams["a_total"] == [({"k": "v"}, 3.0)]
        assert fams["b"] == [({}, 1.5)]

    def test_inf_parses(self):
        fams = parse_exposition('x_bucket{le="+Inf"} 4\n')
        assert fams["x_bucket"][0][1] == 4.0 or math.isinf(fams["x_bucket"][0][1])

    def test_malformed_sample_raises(self):
        with pytest.raises(ValueError, match="malformed sample"):
            parse_exposition("this is not a metric line\n")

    def test_malformed_label_raises(self):
        with pytest.raises(ValueError, match="malformed label"):
            parse_exposition("x{bad} 1\n")

    def test_empty_family_registered_by_type_line(self):
        fams = parse_exposition("# TYPE quiet counter\n")
        assert fams["quiet"] == []


class TestDerivations:
    def test_service_registry_from_broker(self):
        from repro.service.broker import ServiceConfig, run_trace
        from repro.service.loadgen import TrafficSpec, generate_trace

        trace = generate_trace(TrafficSpec(n_requests=16, seed=3, n_distinct=4))
        broker, tickets = run_trace(trace, ServiceConfig(n_service_workers=1))
        fams = parse_exposition(broker.registry().render())
        requests = sum(v for _lbl, v in fams["repro_requests_total"])
        assert requests >= 16
        assert "repro_request_latency_seconds_bucket" in fams
        assert "repro_spectrum_cache_hit_ratio" in fams
        assert "repro_device_load_residency_seconds" in fams
        assert "repro_evals_saved_total" in fams
        # Latency histogram count equals completed (non-cached latencies
        # include cache hits at 0 s, which also land in the histogram).
        count = sum(v for _lbl, v in fams["repro_request_latency_seconds_count"])
        completed = sum(1 for t in tickets if t is not None and t.done)
        assert count == completed

    def test_sched_families_zeroed_without_predictive(self):
        from repro.service.broker import ServiceConfig, run_trace
        from repro.service.loadgen import TrafficSpec, generate_trace

        trace = generate_trace(TrafficSpec(n_requests=8, seed=3, n_distinct=4))
        broker, _ = run_trace(trace, ServiceConfig(n_service_workers=1))
        rendered = broker.registry().render()
        fams = parse_exposition(rendered)
        # Stable schema: scheduler families exist (at zero) even on the
        # depth scheduler, where nothing is ever stolen or predicted.
        for family in (
            "repro_sched_steals_total",
            "repro_sched_donations_total",
        ):
            assert sum(v for _lbl, v in fams[family]) == 0
        assert "repro_sched_load_imbalance" in fams
        # The empty prediction-error histogram still declares itself.
        assert "repro_sched_prediction_error" in rendered

    def test_sched_families_book_predictive_run(self):
        from dataclasses import replace

        from repro.service.broker import ServiceConfig, _default_hybrid, run_trace
        from repro.service.loadgen import TrafficSpec, generate_trace

        trace = generate_trace(
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
        hybrid = replace(_default_hybrid(), scheduler_kind="predictive")
        broker, _ = run_trace(
            trace, ServiceConfig(n_service_workers=2, hybrid=hybrid)
        )
        fams = parse_exposition(broker.registry().render())
        steals = sum(v for _lbl, v in fams["repro_sched_steals_total"])
        donations = sum(v for _lbl, v in fams["repro_sched_donations_total"])
        assert steals == donations == broker.telemetry.total_steals
        errors = sum(
            v for _lbl, v in fams["repro_sched_prediction_error_count"]
        )
        assert errors == len(broker.telemetry.sched_prediction_errors)
        assert errors > 0
        assert "repro_sched_mean_device_load" in fams

    def test_batch_families_zeroed_without_batching(self):
        from repro.service.broker import ServiceConfig, run_trace
        from repro.service.loadgen import TrafficSpec, generate_trace

        trace = generate_trace(TrafficSpec(n_requests=8, seed=3, n_distinct=4))
        broker, _ = run_trace(trace, ServiceConfig(n_service_workers=1))
        fams = parse_exposition(broker.registry().render())
        # Stable schema: the batch families exist (at zero) even when
        # continuous batching never engaged.
        for family in (
            "repro_batch_groups_total",
            "repro_batch_temperatures_total",
            "repro_batch_coalesced_requests_total",
            "repro_batch_window_waits_total",
        ):
            assert sum(v for _lbl, v in fams[family]) == 0
        assert "repro_batch_width" in broker.registry().render()

    def test_batch_families_book_megabatch_dispatch(self):
        from repro.service.broker import ServiceConfig, run_trace
        from repro.service.loadgen import TrafficSpec, generate_trace

        trace = generate_trace(
            TrafficSpec(
                n_requests=24,
                seed=13,
                n_distinct=8,
                burst=6,
                mean_interarrival_s=0.02,
                pattern="uniform",
            )
        )
        broker, _ = run_trace(
            trace,
            ServiceConfig(
                n_service_workers=2,
                batch_max=8,
                batch_width_max=8,
                batch_window_s=0.02,
            ),
        )
        fams = parse_exposition(broker.registry().render())
        tel = broker.telemetry
        groups = sum(v for _lbl, v in fams["repro_batch_groups_total"])
        temps = sum(v for _lbl, v in fams["repro_batch_temperatures_total"])
        assert groups == len(tel.megabatch_widths) > 0
        assert temps == tel.batched_temperatures
        width_count = sum(
            v for _lbl, v in fams["repro_batch_width_count"]
        )
        assert width_count == groups
