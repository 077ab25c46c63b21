"""Tracer overhead on the paper workload: off must be free, on cheap.

The observability layer promises that an uninstrumented run pays only a
disabled-flag check per emission site.  This bench quantifies that on
the Fig. 7-scale hybrid workload (24 points x 496 Ion tasks):

- *tracer off* — the default :data:`~repro.obs.tracer.NULL_TRACER`;
  every instrumentation site reduces to one attribute read.
- *tracer on* — a recording :class:`~repro.obs.EventTracer`; the full
  span stream (task, kernel, scheduler, counter events) is captured.

The no-op assertion is made in absolute terms: the measured per-site
guard cost times the number of guarded sites the *untraced* run crosses
must stay under 2% of its wall time.  The sites are counted, not
estimated: a ``NullTracer`` whose ``enabled`` counts its reads, and hands
out a false flag that counts its truth tests, stands in for the runner's
and the devices' tracer for one run.  A device reads the flag once per
task, the bus and the batch once per batch; the rank loop reads it once
per rank and tests the local wherever a task crosses a guard.  Every
read is priced as a whole guard and every test as a test of a cached
flag (an upper bound: an inline guard is one of each).
"""

from __future__ import annotations

import time

from conftest import emit

from repro.bench.reporting import format_table
from repro.core.hybrid import HybridConfig, HybridRunner
from repro.obs import NULL_TRACER, EventTracer, NullTracer


class _CountingFlag:
    """A false flag, counting how often it is tested."""

    def __init__(self) -> None:
        self.tests = 0

    def __bool__(self) -> bool:
        self.tests += 1
        return False


class _CountingNullTracer(NullTracer):
    """The no-op tracer, counting how often its ``enabled`` is read."""

    def __init__(self) -> None:
        self.reads = 0
        self.flag = _CountingFlag()

    @property
    def enabled(self) -> _CountingFlag:
        self.reads += 1
        return self.flag


def _best_of(fn, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_obs_overhead(ion_tasks, results_dir, monkeypatch):
    cfg = HybridConfig(n_gpus=2, max_queue_length=8)

    t_off = _best_of(lambda: HybridRunner(cfg).run(ion_tasks))

    event_counts: list[int] = []

    def traced_run():
        tracer = EventTracer()
        HybridRunner(cfg, tracer=tracer).run(ion_tasks)
        event_counts.append(len(tracer.events))

    t_on = _best_of(traced_run)
    n_events = event_counts[-1]

    # Guarded sites an untraced run crosses: reads of the flag and truth
    # tests of it (the rank loop tests a local it read once), both counted.
    counting = _CountingNullTracer()
    # An untraced runner builds its devices on the shared null tracer.
    monkeypatch.setattr("repro.gpusim.device.NULL_TRACER", counting)
    HybridRunner(cfg, tracer=counting).run(ion_tasks)
    monkeypatch.undo()
    n_tests = counting.flag.tests

    # Per-site costs: the disabled guard (`if tracer.enabled: ...`) and a
    # test of the flag cached in a local (`if traced: ...`).
    n_probe = 1_000_000
    null = NULL_TRACER
    t0 = time.perf_counter()
    for _ in range(n_probe):
        if null.enabled:
            raise AssertionError("unreachable")
    guard_s = (time.perf_counter() - t0) / n_probe
    traced = False
    t0 = time.perf_counter()
    for _ in range(n_probe):
        if traced:
            raise AssertionError("unreachable")
    cached_s = (time.perf_counter() - t0) / n_probe

    noop_cost_s = guard_s * counting.reads + cached_s * n_tests
    noop_frac = noop_cost_s / t_off
    on_overhead = t_on / t_off - 1.0

    emit(
        results_dir,
        "obs_overhead",
        format_table(
            ["quantity", "value"],
            [
                ["workload", f"{len(ion_tasks)} Ion tasks, 2 GPUs, maxlen 8"],
                ["wall time, tracer off (s)", f"{t_off:.3f}"],
                ["wall time, tracer on (s)", f"{t_on:.3f}"],
                ["tracing-on overhead", f"{on_overhead:+.1%}"],
                ["events recorded (on)", n_events],
                ["`enabled` reads, untraced run", counting.reads],
                ["flag tests, untraced run", f"{n_tests} ({n_tests / len(ion_tasks):.2f} a task)"],
                ["disabled-guard cost (ns/read)", f"{guard_s * 1e9:.1f}"],
                ["cached-flag cost (ns/test)", f"{cached_s * 1e9:.1f}"],
                ["no-op cost, all sites (ms)", f"{noop_cost_s * 1e3:.3f}"],
                ["no-op overhead vs run", f"{noop_frac:.4%}"],
            ],
            title="Observability overhead — hybrid paper workload",
        ),
    )

    # The headline guarantee: tracing *off* costs < 2% of the run.
    assert noop_frac < 0.02
    # Sanity: the traced run actually recorded the stream.
    assert n_events > len(ion_tasks)


def test_attribution_off_overhead(results_dir):
    """Attribution off must be free: no ledger, no model, guard-only cost.

    With tracing off the broker never constructs an
    :class:`~repro.obs.attribution.Attribution` or cost model — the only
    residue on the hot path is one ``is not None`` check per batch
    completion (plus the trace-id plumbing riding fields that already
    exist).  As above, the assertion is absolute: the measured guard
    cost times the number of sites an untraced serve run crosses must
    stay under 2% of its wall time.
    """
    from repro.service.broker import ServiceConfig, run_trace
    from repro.service.loadgen import TrafficSpec, generate_trace

    trace = generate_trace(TrafficSpec(n_requests=60, seed=7))
    cfg = ServiceConfig(n_service_workers=2)

    t_off = _best_of(lambda: run_trace(trace, cfg))
    broker, _ = run_trace(trace, cfg)
    assert broker.attribution is None
    assert broker.cost_model is None
    report = broker.report()

    def attributed_run():
        tracer = EventTracer()
        b, _ = run_trace(trace, cfg, tracer=tracer)
        b.cost_report()

    t_on = _best_of(attributed_run)

    # Per-site cost of the disabled guard (`if attribution is not None`).
    n_probe = 1_000_000
    attribution = None
    t0 = time.perf_counter()
    for _ in range(n_probe):
        if attribution is not None:
            raise AssertionError("unreachable")
    guard_s = (time.perf_counter() - t0) / n_probe

    # One guard per batch completion plus one per request completion
    # (the trace-id pass-through on the telemetry path).
    n_sites = report["batches"] + report["completions"]
    noop_cost_s = guard_s * n_sites
    noop_frac = noop_cost_s / t_off
    on_overhead = t_on / t_off - 1.0

    emit(
        results_dir,
        "attribution_overhead",
        format_table(
            ["quantity", "value"],
            [
                ["workload", "60-request zipf trace, 2 workers"],
                ["wall time, attribution off (s)", f"{t_off:.3f}"],
                ["wall time, attribution on (s)", f"{t_on:.3f}"],
                ["attribution-on overhead", f"{on_overhead:+.1%}"],
                ["guarded sites crossed", n_sites],
                ["disabled-guard cost (ns/site)", f"{guard_s * 1e9:.1f}"],
                ["no-op cost, all sites (ms)", f"{noop_cost_s * 1e3:.3f}"],
                ["no-op overhead vs run", f"{noop_frac:.4%}"],
            ],
            title="Attribution overhead — service stack",
        ),
    )

    # The headline guarantee: attribution *off* costs < 2% of the run.
    assert noop_frac < 0.02


def test_tsdb_off_overhead(results_dir):
    """Telemetry off must be free, and the scrape cadence must price out.

    With no store attached the broker holds :data:`~repro.obs.tsdb.NULL_TSDB`
    and each batch completion pays exactly one ``tsdb.enabled`` attribute
    read.  The absolute guard argument again: that cost times the number
    of batch completions must stay under 2% of the unscraped wall time.
    The second half of the table is the cadence cost curve — the same
    trace scraped at coarser-to-finer cadences — so the marginal price
    of higher-resolution telemetry is a recorded number, not a guess.
    """
    from repro.obs.tsdb import NULL_TSDB, TimeSeriesStore
    from repro.service.broker import ServiceConfig, run_trace
    from repro.service.loadgen import TrafficSpec, generate_trace

    trace = generate_trace(TrafficSpec(n_requests=60, seed=7))
    cfg = ServiceConfig(n_service_workers=2)

    t_off = _best_of(lambda: run_trace(trace, cfg))
    broker, _ = run_trace(trace, cfg)
    assert broker.tsdb is NULL_TSDB
    report = broker.report()

    # Per-site cost of the disabled guard (`if tsdb.enabled: ...`).
    n_probe = 1_000_000
    null = NULL_TSDB
    t0 = time.perf_counter()
    for _ in range(n_probe):
        if null.enabled:
            raise AssertionError("unreachable")
    guard_s = (time.perf_counter() - t0) / n_probe

    n_sites = report["batches"]
    noop_cost_s = guard_s * n_sites
    noop_frac = noop_cost_s / t_off

    rows = [
        ["workload", "60-request zipf trace, 2 workers"],
        ["wall time, telemetry off (s)", f"{t_off:.3f}"],
        ["guarded sites crossed", n_sites],
        ["disabled-guard cost (ns/site)", f"{guard_s * 1e9:.1f}"],
        ["no-op cost, all sites (ms)", f"{noop_cost_s * 1e3:.3f}"],
        ["no-op overhead vs run", f"{noop_frac:.4%}"],
    ]

    # Cadence cost curve: the same trace at coarser-to-finer scrape
    # cadences.  Scraping is pure observation, so only the wall time
    # moves; the virtual-time report stays bit-identical.
    scrape_counts: list[int] = []
    for cadence_s in (2.0, 1.0, 0.5, 0.25, 0.1):
        last: list[TimeSeriesStore] = []

        def scraped_run():
            store = TimeSeriesStore(cadence_s=cadence_s)
            run_trace(trace, cfg, tsdb=store)
            last.append(store)

        t_on = _best_of(scraped_run)
        store = last[-1]
        scrape_counts.append(store.n_scrapes)
        rows.append(
            [
                f"cadence {cadence_s:g}s",
                f"{t_on:.3f}s ({t_on / t_off - 1.0:+.1%}), "
                f"{store.n_scrapes} scrapes, {store.n_samples} samples",
            ]
        )

    emit(
        results_dir,
        "tsdb_overhead",
        format_table(
            ["quantity", "value"],
            rows,
            title="Telemetry (TSDB) overhead — service stack",
        ),
    )

    # The headline guarantee: telemetry *off* costs < 2% of the run.
    assert noop_frac < 0.02
    # Finer cadence must never scrape less.
    assert all(a <= b for a, b in zip(scrape_counts, scrape_counts[1:]))
