"""Command-line interface: run the paper's experiments from a shell.

    python -m repro quickstart
    python -m repro fig3
    python -m repro fig4 --gpus 1 2
    python -m repro fig5
    python -m repro table1
    python -m repro table2
    python -m repro autotune --gpus 1
    python -m repro spectrum --temperature 1e7 --bins 120
    python -m repro nei-solve --element 8 --temperature 1e6
    python -m repro fit --temperature 1.05e7
    python -m repro serve --trace zipf --requests 200 --seed 7
    python -m repro serve --dash dash.html --tsdb-out tsdb.json --slo
    python -m repro query 'rate(repro_requests_total[2s])' --tsdb tsdb.json
    python -m repro submit --temperature 1e7 --repeat 2
    python -m repro bench --quick
    python -m repro bench --compare BENCH_BASELINE.json BENCH_PERF.json

Each subcommand prints the same tables the corresponding benchmark
produces; the benchmarks remain the canonical reproduction (they assert
shapes), the CLI is for interactive exploration.  ``serve`` and
``submit`` exercise the service layer (broker + cache + coalescer) on
top of the hybrid runner.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Hybrid GPU spectral calculation (ICPP 2015) — experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("quickstart", help="headline run: baselines + 3-GPU hybrid")
    p.add_argument("--gpus", type=int, default=3)
    p.add_argument("--maxlen", type=int, default=12)

    p = sub.add_parser("fig3", help="speedup vs #GPUs, Ion vs Level granularity")
    p.add_argument("--points", type=int, default=24)

    p = sub.add_parser("fig4", help="total time vs maximum queue length")
    p.add_argument("--gpus", type=int, nargs="+", default=[1, 2, 3, 4])
    p.add_argument(
        "--maxlens", type=int, nargs="+", default=[2, 4, 6, 8, 10, 12, 14]
    )

    p = sub.add_parser("fig5", help="GPU task ratio vs maximum queue length")
    p.add_argument("--gpus", type=int, nargs="+", default=[1, 2])

    p = sub.add_parser("table1", help="task distribution vs Romberg complexity")
    p.add_argument("--ks", type=int, nargs="+", default=[7, 9, 11, 13])

    p = sub.add_parser("table2", help="NEI speedups vs 24-core MPI")

    p = sub.add_parser("nei-solve", help="evolve one element's NEI state")
    p.add_argument("--element", type=int, default=8)
    p.add_argument("--temperature", type=float, default=1.0e6)
    p.add_argument("--t-initial", type=float, default=1.0e4)
    p.add_argument("--density", type=float, default=1.0e10)

    p = sub.add_parser("fit", help="fit a mock observation's temperature")
    p.add_argument("--temperature", type=float, default=1.05e7)
    p.add_argument("--bins", type=int, default=100)
    p.add_argument("--seed", type=int, default=2015)

    p = sub.add_parser("autotune", help="automatic maximum-queue-length search")
    p.add_argument("--gpus", type=int, default=1)
    p.add_argument("--tasks-per-point", type=int, default=60)

    p = sub.add_parser("spectrum", help="compute a real RRC spectrum")
    p.add_argument("--temperature", type=float, default=1.0e7)
    p.add_argument("--density", type=float, default=1.0)
    p.add_argument("--bins", type=int, default=60)
    p.add_argument("--components", nargs="+", default=["rrc"],
                   choices=["rrc", "lines", "brems"])
    p.add_argument("--tail-tol", type=float, default=0.0,
                   help="relative tail tolerance for active-window "
                        "pruning (0 = off, exact)")
    p.add_argument("--accuracy", type=float, default=0.0,
                   help="serve from a plan-backed log-T lattice with "
                        "this certified relative-error budget (rrc "
                        "component only; 0 = exact path)")
    p.add_argument("--json", action="store_true",
                   help="machine-readable output (one JSON object)")
    _add_obs_flags(p)

    p = sub.add_parser("serve", help="play a traffic trace through the service")
    p.add_argument("--pattern", default="zipf",
                   choices=["zipf", "uniform", "walk"],
                   help="traffic popularity pattern ('walk' = correlated "
                        "log-T random walk, no exact repeats)")
    p.add_argument("--requests", type=int, default=200)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--rate", type=float, default=20.0,
                   help="mean arrival rate (requests per virtual second)")
    p.add_argument("--distinct", type=int, default=32,
                   help="distinct grid points in the request population")
    p.add_argument("--zipf-s", type=float, default=1.1)
    p.add_argument("--walk-sigma", type=float, default=0.05,
                   help="log-T random-walk step in dex (--pattern walk)")
    p.add_argument("--accuracy", type=float, default=0.0,
                   help="per-request relative accuracy budget; > 0 lets "
                        "the lattice tier serve interpolated spectra "
                        "within it (0 = exact only)")
    p.add_argument("--workers", type=int, default=2,
                   help="service workers (one hybrid node each)")
    p.add_argument("--queue-capacity", type=int, default=32)
    p.add_argument("--batch-max", type=int, default=4)
    p.add_argument("--batch-window", type=float, default=None,
                   help="continuous-batching admission window in virtual "
                        "seconds: a worker finding a short backlog waits "
                        "this long for more compatible requests before "
                        "dispatching one fused megabatch (default: off, "
                        "one request per dispatch)")
    p.add_argument("--batch-width", type=int, default=16,
                   help="max temperatures fused into one megabatch group")
    p.add_argument("--burst", type=int, default=1,
                   help="arrivals per cluster: >1 lands requests in "
                        "simultaneous bursts at the same long-run rate")
    p.add_argument("--gpus", type=int, default=1, help="GPUs per worker node")
    p.add_argument("--tail", type=float, default=0.0,
                   help="heavy-tail work mix: fraction of requests whose "
                        "z_max is inflated by a Pareto factor (0 = off; "
                        "legacy traces replay bit for bit)")
    _add_sched_flags(p)
    p.add_argument("--cache-entries", type=int, default=256)
    p.add_argument("--cache-mb", type=float, default=32.0)
    p.add_argument("--ttl", type=float, default=3600.0,
                   help="cache TTL in virtual seconds")
    p.add_argument("--tail-tol", type=float, default=0.0,
                   help="relative tail tolerance for active-window "
                        "pruning on every request (0 = off)")
    p.add_argument("--json", action="store_true")
    _add_obs_flags(p)
    p.add_argument("--gantt", action="store_true",
                   help="render an ASCII Gantt of the trace after the run")
    p.add_argument("--slo", action="store_true",
                   help="evaluate default SLO rules (p95 latency, queue "
                        "depth) during the run and print the report")
    p.add_argument("--slo-p95", type=float, default=2.0,
                   help="interactive-lane p95 latency objective in "
                        "virtual seconds (with --slo)")
    p.add_argument("--slo-depth", type=float, default=None,
                   help="queue-depth objective (default: 80%% of "
                        "--queue-capacity; with --slo)")
    p.add_argument("--postmortem", metavar="DIR", default=None,
                   help="arm an SLO-triggered flight recorder: each rule "
                        "entering 'firing' dumps a postmortem bundle "
                        "(trailing trace window + cost ledger) into DIR "
                        "(enables tracing and the default SLO rules)")
    p.add_argument("--postmortem-window", type=float, default=10.0,
                   help="trailing trace window of each postmortem "
                        "bundle, virtual seconds")

    p = sub.add_parser(
        "bench", help="seeded perf suite -> schema-validated BENCH_PERF.json"
    )
    p.add_argument("--quick", action="store_true",
                   help="small workloads (the CI perf-gate mode)")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--out", default="BENCH_PERF.json",
                   help="output path (default: ./BENCH_PERF.json)")
    p.add_argument("--cases", nargs="+", default=None,
                   help="subset of cases to run (default: all)")
    p.add_argument("--flamegraph", metavar="PATH", default=None,
                   help="write a collapsed-stack flamegraph of the "
                        "service case (speedscope-importable)")
    p.add_argument("--baseline", metavar="PATH", default=None,
                   help="after running, compare against this baseline "
                        "and exit nonzero on regressions")
    p.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"), default=None,
                   help="compare two existing BENCH_PERF.json files "
                        "(no benchmarks run); exit nonzero on regressions")
    p.add_argument("--json", action="store_true",
                   help="print the result document instead of the table")
    p.add_argument("--dash", metavar="PATH", default=None,
                   help="write an HTML dashboard of the service case's "
                        "scraped time series")

    p = sub.add_parser(
        "query", help="evaluate a PromQL-subset expression over a saved store"
    )
    p.add_argument("expr",
                   help="expression, e.g. "
                        "'rate(repro_requests_total{outcome=\"computed\"}[2s])' "
                        "or 'histogram_quantile(0.95, "
                        "repro_request_latency_seconds_bucket)'")
    p.add_argument("--tsdb", metavar="PATH", required=True,
                   help="time-series store JSON written by --tsdb-out "
                        "(or a flight-recorder series.json)")
    p.add_argument("--at", type=float, default=None,
                   help="evaluation instant in store time "
                        "(default: the last scrape)")
    p.add_argument("--json", action="store_true",
                   help="machine-readable result (labels + values)")

    p = sub.add_parser("submit", help="one-shot request through broker+cache")
    p.add_argument("--temperature", type=float, default=1.0e7)
    p.add_argument("--density", type=float, default=1.0)
    p.add_argument("--z-max", type=int, default=8)
    p.add_argument("--bins", type=int, default=64)
    p.add_argument("--rule", default="simpson", choices=["simpson", "romberg"])
    p.add_argument("--tolerance", type=float, default=1.0e-6)
    p.add_argument("--tail-tol", type=float, default=0.0,
                   help="relative tail tolerance for active-window "
                        "pruning (0 = off; enters the cache key)")
    p.add_argument("--accuracy", type=float, default=0.0,
                   help="relative accuracy budget; > 0 allows lattice-"
                        "interpolated answers within it (enters the "
                        "cache key)")
    p.add_argument("--lane", default="interactive",
                   choices=["interactive", "survey"])
    p.add_argument("--repeat", type=int, default=2,
                   help="submissions of the identical request; the second "
                        "and later ones demonstrate the cache")
    _add_sched_flags(p)
    p.add_argument("--json", action="store_true")
    _add_obs_flags(p)

    return parser


def _add_sched_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--scheduler", choices=["depth", "predictive"],
                   default="depth",
                   help="hybrid placement policy: 'depth' = Algorithm 1 "
                        "queue-depth scan; 'predictive' = measured-cost "
                        "placement with work stealing")
    p.add_argument("--cost-model", metavar="PATH", default=None,
                   help="JSON cost-model state: loaded before the run "
                        "when the file exists, saved (updated) after it — "
                        "predictions warm-start across runs")


def _add_obs_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--trace", metavar="PATH", default=None,
                   help="write a Chrome trace-event JSON (Perfetto-loadable)")
    p.add_argument("--metrics", metavar="PATH", default=None,
                   help="write Prometheus text-format metrics")
    p.add_argument("--profile", action="store_true",
                   help="print hierarchical cost attribution (top-down "
                        "table, device utilization, critical path)")
    p.add_argument("--flamegraph", metavar="PATH", default=None,
                   help="write a collapsed-stack flamegraph "
                        "(FlameGraph/speedscope-importable)")
    p.add_argument("--cost-report", action="store_true",
                   help="print the per-request attributed cost ledger "
                        "(fair-share over fused groups; enables tracing)")
    p.add_argument("--dash", metavar="PATH", default=None,
                   help="write a self-contained HTML dashboard of the "
                        "scraped time series (enables telemetry scraping "
                        "and anomaly detection)")
    p.add_argument("--tsdb-out", metavar="PATH", default=None,
                   help="write the scraped time-series store as delta-"
                        "encoded JSON ('repro query' reads it back)")
    p.add_argument("--scrape-cadence", type=float, default=0.5,
                   help="telemetry scrape cadence in virtual seconds "
                        "(wall-clock seconds for 'spectrum'; default 0.5)")


def _refuse(args: argparse.Namespace, exc: Exception | str) -> int:
    """Report a flag value refused before any work ran: exit status 2."""
    print(f"repro {args.command}: error: {exc}", file=sys.stderr)
    return 2


def _load_cost_model(args: argparse.Namespace):
    """The (possibly persisted) cost model a run should start from.

    Returns ``None`` when no ``--cost-model`` path is given (the broker
    seeds its own when needed).  A missing file is not an error — the
    first run creates it on save.
    """
    import os

    path = getattr(args, "cost_model", None)
    if not path or not os.path.exists(path):
        return None
    import json

    from repro.obs.attribution import CostModel

    with open(path) as fh:
        return CostModel.from_dict(json.load(fh))


def _save_cost_model(args: argparse.Namespace, model) -> None:
    """Persist the run's updated cost model back to ``--cost-model``."""
    path = getattr(args, "cost_model", None)
    if not path or model is None:
        return
    import json

    with open(path, "w") as fh:
        json.dump(model.to_dict(), fh)
    print(f"wrote cost model to {path}", file=sys.stderr)


def _sched_kind(args: argparse.Namespace) -> str:
    """The HybridConfig scheduler_kind for a --scheduler flag value."""
    return "predictive" if getattr(args, "scheduler", "depth") == "predictive" else "shared"


def _make_tsdb(args: argparse.Namespace):
    """Build the (store, detector) pair when ``--dash``/``--tsdb-out`` ask.

    Returns ``(None, None)`` when neither flag is set, keeping the run on
    the :data:`~repro.obs.tsdb.NULL_TSDB` zero-overhead path; raises
    ValueError for a cadence that is not positive.
    """
    if not (getattr(args, "dash", None) or getattr(args, "tsdb_out", None)):
        return None, None
    if not args.scrape_cadence > 0.0:
        raise ValueError(f"--scrape-cadence must be positive, got {args.scrape_cadence}")
    from repro.obs import AnomalyDetector, TimeSeriesStore

    return TimeSeriesStore(cadence_s=args.scrape_cadence), AnomalyDetector()


def _emit_tsdb(
    args: argparse.Namespace,
    store,
    detector=None,
    slo=None,
    title: str = "repro telemetry",
) -> None:
    """Honour ``--tsdb-out`` / ``--dash`` for one scraped store."""
    if store is None:
        return
    if getattr(args, "tsdb_out", None):
        import json

        with open(args.tsdb_out, "w") as fh:
            json.dump(store.to_dict(), fh)
        print(
            f"wrote {store.n_scrapes} scrape(s), {len(store)} series "
            f"to {args.tsdb_out}",
            file=sys.stderr,
        )
    if getattr(args, "dash", None):
        from repro.obs import render_dashboard

        anomalies = detector.events if detector is not None else ()
        with open(args.dash, "w") as fh:
            fh.write(
                render_dashboard(store, title=title, slo=slo, anomalies=anomalies)
            )
        extra = f", {len(anomalies)} anomaly event(s)" if anomalies else ""
        print(f"wrote dashboard to {args.dash}{extra}", file=sys.stderr)


def _cmd_query(args: argparse.Namespace) -> int:
    import json

    from repro.obs import QueryEngine, QueryError, TimeSeriesStore
    from repro.obs.query import format_result

    try:
        with open(args.tsdb) as fh:
            store = TimeSeriesStore.from_dict(json.load(fh))
    except (OSError, ValueError) as exc:
        return _refuse(args, exc)
    try:
        result = QueryEngine(store).query(args.expr, at=args.at)
    except QueryError as exc:
        print(f"query error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        at = args.at if args.at is not None else store.last_scrape
        if isinstance(result, float):
            doc = {"expr": args.expr, "at": at, "scalar": result}
        else:
            doc = {
                "expr": args.expr,
                "at": at,
                "samples": [
                    {"labels": s.label_dict(), "value": s.value} for s in result
                ],
            }
        print(json.dumps(doc))
        return 0
    print(format_result(result))
    return 0


def _emit_cost_report(args: argparse.Namespace, broker=None, tracer=None) -> None:
    """Honour ``--cost-report`` for one run.

    With a broker the report comes from its attribution ledger and cost
    model; a bare tracer (the standalone ``spectrum`` path) gets a fresh
    ledger over its events — honest about unattributed spans.
    """
    if not getattr(args, "cost_report", False):
        return
    from repro.obs import Attribution, render_cost_report

    if broker is not None:
        result = broker.cost_report()
        if result is not None:
            print(render_cost_report(result, broker.cost_model))
            return
        tracer = getattr(broker, "tracer", None)
    if tracer is None or not getattr(tracer, "enabled", False):
        print("(--cost-report needs tracing)", file=sys.stderr)
        return
    ledger = Attribution(tracer)
    ledger.ingest()
    print(render_cost_report(ledger.result()))


def _emit_profile(args: argparse.Namespace, tracer) -> None:
    """Honour ``--profile`` / ``--flamegraph`` for one recorded tracer."""
    if tracer is None:
        return
    if getattr(args, "profile", False):
        from repro.obs import Profile, render_profile

        print(render_profile(Profile.from_tracer(tracer)))
    if getattr(args, "flamegraph", None):
        from repro.obs import write_collapsed

        n = write_collapsed(args.flamegraph, tracer)
        print(
            f"wrote {n} collapsed stack(s) to {args.flamegraph}",
            file=sys.stderr,
        )


def _cmd_quickstart(args: argparse.Namespace) -> int:
    from repro.bench.reporting import format_table
    from repro.core import HybridConfig, HybridRunner, WorkloadSpec, build_tasks

    tasks = build_tasks(WorkloadSpec())
    runner = HybridRunner(
        HybridConfig(n_gpus=args.gpus, max_queue_length=args.maxlen)
    )
    serial = runner.serial_time(tasks)
    mpi = runner.run_mpi_only(tasks)
    hybrid = runner.run(tasks)
    print(
        format_table(
            ["configuration", "time (s)", "speedup vs serial"],
            [
                ["serial APEC", f"{serial:.0f}", "1.0x"],
                ["24-core MPI", f"{mpi.makespan_s:.0f}", f"{serial / mpi.makespan_s:.1f}x"],
                [
                    f"hybrid {args.gpus} GPU(s), maxlen {args.maxlen}",
                    f"{hybrid.makespan_s:.0f}",
                    f"{serial / hybrid.makespan_s:.1f}x",
                ],
            ],
            title="Hybrid spectral calculation (24 points x 496 ions)",
        )
    )
    print(
        f"\nGPU task share {hybrid.metrics.gpu_task_ratio():.1%}, "
        f"per-GPU tasks {[int(c) for c in hybrid.metrics.gpu_tasks]}"
    )
    return 0


def _cmd_fig3(args: argparse.Namespace) -> int:
    from repro.bench.reporting import format_series
    from repro.core import Granularity, HybridConfig, HybridRunner, WorkloadSpec, build_tasks

    ion = build_tasks(WorkloadSpec(n_points=args.points))
    level = build_tasks(
        WorkloadSpec(n_points=args.points, granularity=Granularity.LEVEL)
    )
    serial = HybridRunner().serial_time(ion)
    series: dict[str, dict[int, float]] = {"Ion": {}, "Level": {}}
    for g in (1, 2, 3, 4):
        cfg = HybridConfig(n_gpus=g, max_queue_length=12)
        series["Ion"][g] = serial / HybridRunner(cfg).run(ion).makespan_s
        series["Level"][g] = serial / HybridRunner(cfg).run(level).makespan_s
    print(format_series("#GPUs", series, title="Fig. 3 — speedup over serial"))
    return 0


def _cmd_fig4(args: argparse.Namespace) -> int:
    from repro.bench.reporting import format_series
    from repro.core import HybridConfig, HybridRunner, WorkloadSpec, build_tasks

    tasks = build_tasks(WorkloadSpec())
    series: dict[str, dict[int, float]] = {}
    for g in args.gpus:
        series[f"{g} GPU(s)"] = {
            m: HybridRunner(
                HybridConfig(n_gpus=g, max_queue_length=m)
            ).run(tasks).makespan_s
            for m in args.maxlens
        }
    print(format_series("maxlen", series, title="Fig. 4 — total time (s)"))
    return 0


def _cmd_table2(_args: argparse.Namespace) -> int:
    from repro.bench.reporting import format_table
    # Named apart from the obs EWMA CostModel this file also imports.
    from repro.core import CostModel as HostCostModel, HybridConfig, HybridRunner
    from repro.nei.runner import NEIWorkloadSpec, build_nei_tasks

    cost = HostCostModel(point_overhead_s=0.0)
    tasks = build_nei_tasks(NEIWorkloadSpec())
    mpi = HybridRunner(
        HybridConfig(n_gpus=0, max_queue_length=8, cost=cost)
    ).run_mpi_only(tasks)
    rows = []
    for g in (1, 2, 3, 4):
        res = HybridRunner(
            HybridConfig(n_gpus=g, max_queue_length=8, cost=cost)
        ).run(tasks)
        rows.append(
            [g, f"{res.makespan_s:.0f}", f"{mpi.makespan_s / res.makespan_s:.1f}x"]
        )
    print(
        format_table(
            ["#GPUs", "time (s)", "speedup vs MPI"],
            rows,
            title=f"Table II — NEI (MPI baseline {mpi.makespan_s:.0f} s)",
        )
    )
    return 0


def _cmd_autotune(args: argparse.Namespace) -> int:
    from repro.bench.reporting import format_table
    from repro.core import HybridConfig, WorkloadSpec, build_tasks
    from repro.core.autotune import autotune_queue_length, probe_prefix

    tasks = build_tasks(WorkloadSpec())
    cfg = HybridConfig(n_gpus=args.gpus, max_queue_length=2)
    probe, probe_cfg = probe_prefix(tasks, cfg, tasks_per_point=args.tasks_per_point)
    best, times = autotune_queue_length(
        probe_cfg, probe, candidates=(2, 4, 6, 8, 10, 12, 14, 16)
    )
    rows = [
        [m, f"{t:.1f}", "<- chosen" if m == best else ""]
        for m, t in times.items()
    ]
    print(
        format_table(
            ["maxlen", "probe time (s)", ""],
            rows,
            title=f"Queue-length auto-tuning ({args.gpus} GPU(s))",
        )
    )
    return 0


def _cmd_spectrum(args: argparse.Namespace) -> int:
    import numpy as np

    from repro.atomic.database import AtomicConfig, AtomicDatabase
    from repro.bench.reporting import format_table
    from repro.physics.apec import GridPoint, SerialAPEC
    from repro.physics.spectrum import EnergyGrid

    if not args.accuracy >= 0.0:
        return _refuse(args, f"--accuracy must be >= 0, got {args.accuracy}")
    if args.accuracy > 0.0:
        # The lattice path serves the rrc component and records no trace.
        if set(args.components) != {"rrc"}:
            return _refuse(args, "--components other than rrc is not supported with --accuracy")
        for flag in ("--trace", "--metrics", "--profile", "--flamegraph", "--cost-report"):
            if getattr(args, flag[2:].replace("-", "_")):
                return _refuse(args, f"{flag} is not supported with --accuracy")
    try:
        point = GridPoint(temperature_k=args.temperature, ne_cm3=args.density)
        grid = EnergyGrid.from_wavelength(10.0, 45.0, args.bins)
        tsdb, anomaly = _make_tsdb(args)
    except ValueError as exc:
        return _refuse(args, exc)
    db = AtomicDatabase(AtomicConfig(n_max=6, z_max=14))
    if args.accuracy > 0.0:
        return _spectrum_via_lattice(args, db, grid, tsdb, anomaly)
    tracer = None
    if (
        args.trace
        or args.metrics
        or args.profile
        or args.flamegraph
        or args.cost_report
        or tsdb is not None
    ):
        from repro.obs import EventTracer, WallClock

        tracer = EventTracer(WallClock())
    registry = None
    if args.metrics or tsdb is not None:
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        wall_gauge = registry.gauge(
            "repro_wall_seconds", "Host wall-clock compute time"
        )
        registry.gauge("repro_spectrum_bins", "Energy bins computed").set(
            args.bins
        )
        peak_gauge = registry.gauge(
            "repro_spectrum_peak_flux", "Peak normalized flux"
        )
    apec = SerialAPEC(
        db,
        grid,
        method="simpson-batch",
        components=tuple(args.components),
        tail_tol=args.tail_tol,
    )
    t0 = tracer.now if tracer is not None else 0.0
    if tsdb is not None:
        tsdb.scrape(registry, t0)  # wall-clock baseline sample
    spec = apec.compute(point).normalized()
    if tracer is not None:
        tracer.span(
            tracer.track("spectrum", "apec"),
            "apec.compute",
            t0,
            tracer.now,
            cat="compute",
            args={
                "temperature_k": args.temperature,
                "n_bins": args.bins,
                "components": "+".join(args.components),
            },
        )
        wall_s = tracer.now - t0
        if args.trace:
            from repro.obs import write_chrome_trace

            write_chrome_trace(args.trace, tracer)
            print(f"wrote Chrome trace to {args.trace}", file=sys.stderr)
        if registry is not None:
            from repro.obs.prom import PLAN_CACHE_FAMILIES, fill
            from repro.physics.plan import PLAN_CACHE

            wall_gauge.set(wall_s)
            peak_gauge.set(float(spec.values.max()))
            fill(registry, PLAN_CACHE_FAMILIES, PLAN_CACHE)
            if args.metrics:
                with open(args.metrics, "w") as fh:
                    fh.write(registry.render())
                print(
                    f"wrote Prometheus metrics to {args.metrics}",
                    file=sys.stderr,
                )
            if tsdb is not None:
                tsdb.scrape(registry, tracer.now)  # closing wall-clock sample
                if anomaly is not None:
                    anomaly.scan(tsdb)
        _emit_profile(args, tracer)
        _emit_cost_report(args, tracer=tracer)
        _emit_tsdb(
            args,
            tsdb,
            anomaly,
            title=f"repro spectrum — T={args.temperature:.2e} K",
        )
    if args.json:
        import json

        print(
            json.dumps(
                {
                    "temperature_k": args.temperature,
                    "ne_cm3": args.density,
                    "components": list(args.components),
                    "n_bins": args.bins,
                    "wavelength_a": [float(w) for w in grid.wavelength_centers],
                    "flux": [float(v) for v in spec.values],
                }
            )
        )
        return 0
    rows = [
        [f"{wl:.2f}", f"{v:.4f}", "#" * int(round(v * 40))]
        for wl, v in zip(grid.wavelength_centers, spec.values)
    ]
    step = max(1, len(rows) // 30)
    print(
        format_table(
            ["wavelength (A)", "flux", ""],
            rows[::step],
            title=(
                f"Normalized spectrum, T={args.temperature:.2e} K, "
                f"components={'+'.join(args.components)}"
            ),
        )
    )
    return 0


def _spectrum_via_lattice(args: argparse.Namespace, db, grid, tsdb, anomaly) -> int:
    """``spectrum --accuracy E``: interpolate from a plan-backed lattice.

    Builds a log-T lattice around the requested temperature through the
    shared plan cache, refines the containing interval until its
    certificate fits the budget, and serves the interpolated spectrum —
    or recomputes exactly when the certificate cannot be met.
    """
    from repro.approx import LatticeSpec, SpectrumLattice, plan_exact_fn
    from repro.bench.reporting import format_table

    exact_fn = plan_exact_fn(db, grid, tail_tol=args.tail_tol, ne_cm3=args.density)
    spec_ = LatticeSpec(
        t_min_k=args.temperature / 8.0,
        t_max_k=args.temperature * 8.0,
        n_nodes=9,
        method="cubic",
    )
    registry = None
    if tsdb is not None:
        from repro.obs import MetricsRegistry, WallClock

        wall = WallClock()
        registry = MetricsRegistry()
        nodes_gauge = registry.gauge("repro_lattice_nodes", "Lattice nodes held")
        evals_gauge = registry.gauge(
            "repro_lattice_node_evals", "Exact node evaluations so far"
        )
        bound_gauge = registry.gauge(
            "repro_lattice_error_bound",
            "Certified relative error bound at the target",
        )

    def _scrape_lattice(lat, interval) -> None:
        if tsdb is None:
            return
        nodes_gauge.set(lat.n_nodes)
        evals_gauge.set(lat.node_evals)
        err = lat.certified_error(interval) if interval is not None else 0.0
        bound_gauge.set(err if err != float("inf") else 0.0)
        tsdb.scrape(registry, wall.now)

    lat = SpectrumLattice(spec_, exact_fn)
    interval = lat.locate(args.temperature)
    _scrape_lattice(lat, interval)
    refinements = 0
    while (
        interval is not None
        and lat.certified_error(interval) > args.accuracy
        and refinements < 8
        and lat.n_nodes < spec_.max_nodes
    ):
        lat.refine(interval)
        interval = lat.locate(args.temperature)
        refinements += 1
        _scrape_lattice(lat, interval)
    bound = lat.certified_error(interval) if interval is not None else float("inf")
    if bound <= args.accuracy:
        values = lat.interpolate(args.temperature)
        source = "lattice"
    else:
        values = exact_fn(args.temperature)
        source = "exact-fallback"
        bound = 0.0
    peak = float(values.max())
    flux = values / peak if peak > 0.0 else values
    if tsdb is not None and anomaly is not None:
        anomaly.scan(tsdb)
    _emit_tsdb(
        args,
        tsdb,
        anomaly,
        title=f"repro spectrum (lattice) — T={args.temperature:.2e} K",
    )
    if args.json:
        import json

        print(
            json.dumps(
                {
                    "temperature_k": args.temperature,
                    "ne_cm3": args.density,
                    "accuracy": args.accuracy,
                    "source": source,
                    "error_bound": bound,
                    "refinements": refinements,
                    "lattice_nodes": lat.n_nodes,
                    "node_evals": lat.node_evals,
                    "n_bins": args.bins,
                    "wavelength_a": [float(w) for w in grid.wavelength_centers],
                    "flux": [float(v) for v in flux],
                }
            )
        )
        return 0
    print(
        format_table(
            ["quantity", "value"],
            [
                ["accuracy budget", f"{args.accuracy:.2e}"],
                ["served from", source],
                ["certified error bound", f"{bound:.2e}"],
                ["lattice nodes / refinements", f"{lat.n_nodes} / {refinements}"],
                ["exact node evaluations", lat.node_evals],
            ],
            title=f"Approximate spectrum, T={args.temperature:.2e} K (rrc)",
        )
    )
    rows = [
        [f"{wl:.2f}", f"{v:.4f}", "#" * int(round(v * 40))]
        for wl, v in zip(grid.wavelength_centers, flux)
    ]
    step = max(1, len(rows) // 30)
    print()
    print(
        format_table(
            ["wavelength (A)", "flux", ""],
            rows[::step],
            title="Normalized lattice-served spectrum",
        )
    )
    return 0


def _cmd_fig5(args: argparse.Namespace) -> int:
    from repro.bench.reporting import format_series
    from repro.core import HybridConfig, HybridRunner, WorkloadSpec, build_tasks

    tasks = build_tasks(WorkloadSpec())
    series: dict[str, dict[int, float]] = {}
    for g in args.gpus:
        series[f"{g} GPU(s) %"] = {
            m: HybridRunner(
                HybridConfig(n_gpus=g, max_queue_length=m)
            ).run(tasks).metrics.gpu_task_ratio() * 100.0
            for m in (2, 4, 6, 8, 10, 12, 14)
        }
    print(format_series("maxlen", series, title="Fig. 5 — tasks on GPUs (%)"))
    return 0


def _cmd_table1(args: argparse.Namespace) -> int:
    from repro.bench.reporting import format_table
    from repro.bench.workloads import romberg_workload
    from repro.core import HybridConfig, HybridRunner

    rows = []
    for k in args.ks:
        tasks = romberg_workload(k)
        res = HybridRunner(HybridConfig(n_gpus=2, max_queue_length=6)).run(tasks)
        m = res.metrics
        rows.append(
            [
                f"2^{k}",
                int(m.gpu_tasks.sum()),
                f"{m.gpu_task_ratio() * 100:.2f}%",
                f"{m.load_at_least_ratio(3, 0) * 100:.2f}%",
            ]
        )
    print(
        format_table(
            ["amount/task", "tasks on GPU", "ratio", "load>=3"],
            rows,
            title="Table I — task distribution (2 GPUs, maxlen 6)",
        )
    )
    return 0


def _cmd_nei_solve(args: argparse.Namespace) -> int:
    import numpy as np

    from repro.bench.reporting import format_table
    from repro.nei.equilibrium import equilibrium_state, relaxation_time_scale
    from repro.nei.odes import NEISystem
    from repro.nei.solvers import AutoSwitchSolver

    z = args.element
    sys_ = NEISystem(z=z, ne_cm3=args.density, temperature_k=args.temperature)
    y0 = equilibrium_state(z, args.t_initial)
    tau = relaxation_time_scale(z, args.temperature, args.density)
    res = AutoSwitchSolver(rtol=1e-6, atol=1e-10).solve(
        sys_.rhs, sys_.jacobian, y0, (0.0, 3.0 * tau)
    )
    st = res.stats
    print(
        f"Z={z}: {args.t_initial:.1e} K -> {args.temperature:.1e} K at "
        f"n_e={args.density:.1e}; tau={tau:.3g} s"
    )
    print(
        f"solver: {st.n_steps} steps ({st.nonstiff_steps} Adams / "
        f"{st.stiff_steps} BDF), {st.n_switches} switches"
    )
    rows = [
        [f"+{c}", f"{y0[c]:.4f}", f"{res.y_final[c]:.4f}"]
        for c in range(z + 1)
        if y0[c] > 1e-4 or res.y_final[c] > 1e-4
    ]
    print(format_table(["charge", "initial", "final"], rows, title="ion fractions"))
    return 0


def _cmd_fit(args: argparse.Namespace) -> int:
    import numpy as np

    from repro.atomic.database import AtomicConfig, AtomicDatabase
    from repro.bench.reporting import format_table
    from repro.physics.apec import GridPoint, SerialAPEC
    from repro.physics.fitting import (
        InstrumentResponse,
        fit_temperature,
        mock_observation,
    )
    from repro.physics.spectrum import EnergyGrid

    db = AtomicDatabase(AtomicConfig.tiny())
    grid = EnergyGrid.from_wavelength(10.0, 45.0, args.bins)
    apec = SerialAPEC(db, grid, method="simpson-batch")
    response = InstrumentResponse(grid, fwhm_kev=0.015)
    truth = apec.compute(GridPoint(temperature_k=args.temperature, ne_cm3=1.0))
    exposure = 1e6 / max(response.apply(truth.values).max(), 1e-300)
    observed = mock_observation(
        truth, response, exposure, rng=np.random.default_rng(args.seed)
    )
    result = fit_temperature(
        apec, observed, response, exposure, t_bounds=(2e6, 6e7)
    )
    print(
        format_table(
            ["quantity", "value"],
            [
                ["true temperature", f"{args.temperature:.4e} K"],
                ["fitted temperature", f"{result.temperature_k:.4e} K"],
                ["relative error", f"{result.temperature_k / args.temperature - 1:+.2%}"],
                ["chi^2 / channels", f"{result.chi2:.1f} / {args.bins}"],
                ["model evaluations", result.n_model_evals],
            ],
            title="Temperature fit",
        )
    )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.bench.reporting import format_table
    from repro.service import ServiceConfig, TrafficSpec, generate_trace
    from repro.service.broker import _default_hybrid, play_trace, trace_broker

    from dataclasses import replace

    if not 0.0 < args.rate < float("inf"):
        return _refuse(args, f"--rate must be positive and finite, got {args.rate}")
    if not args.postmortem_window > 0.0:  # refused with or without --postmortem
        return _refuse(args, f"--postmortem-window must be positive, got {args.postmortem_window}")
    tracer = None
    if (
        args.trace
        or args.gantt
        or args.profile
        or args.flamegraph
        or args.cost_report
        or args.postmortem
    ):
        from repro.obs import EventTracer

        tracer = EventTracer()
    slo = None
    if args.slo or args.postmortem:
        from repro.obs import Rule, SLOEngine

        # An objective these fail would breach on the first sample.
        if not args.slo_p95 > 0.0:
            return _refuse(args, f"--slo-p95 must be positive, got {args.slo_p95}")
        if args.slo_depth is not None and not args.slo_depth >= 0.0:
            return _refuse(args, f"--slo-depth must be >= 0, got {args.slo_depth}")
        depth = (
            args.slo_depth
            if args.slo_depth is not None
            else 0.8 * args.queue_capacity
        )
        slo = SLOEngine(
            (
                Rule(
                    name="interactive-p95",
                    metric="repro_request_latency_seconds",
                    labels={"lane": "interactive"},
                    op=">",
                    threshold=args.slo_p95,
                    quantile=0.95,
                    for_s=0.5,
                ),
                Rule(
                    name="queue-depth",
                    metric="repro_queue_depth",
                    op=">",
                    threshold=depth,
                ),
            )
        )
    try:
        tsdb, anomaly = _make_tsdb(args)
        trace = generate_trace(
            TrafficSpec(
                n_requests=args.requests,
                seed=args.seed,
                mean_interarrival_s=1.0 / args.rate,
                burst=args.burst,
                pattern=args.pattern,
                zipf_s=args.zipf_s,
                walk_sigma_dex=args.walk_sigma,
                n_distinct=args.distinct,
                tail_tol=args.tail_tol,
                accuracy=args.accuracy,
                tail=args.tail,
                # Inflated requests must stay servable by the broker's DB.
                tail_z_max=ServiceConfig().db_z_max,
            )
        )
        config = ServiceConfig(
            queue_capacity=args.queue_capacity,
            n_service_workers=args.workers,
            batch_max=args.batch_max,
            batch_window_s=args.batch_window,
            batch_width_max=args.batch_width,
            cache_max_entries=args.cache_entries,
            cache_max_bytes=int(args.cache_mb * (1 << 20)),
            cache_ttl_s=args.ttl,
            hybrid=replace(
                _default_hybrid(),
                n_gpus=args.gpus,
                scheduler_kind=_sched_kind(args),
            ),
        )
        broker = trace_broker(
            config,
            tracer=tracer,
            slo=slo,
            flight_dir=args.postmortem,
            flight_window_s=args.postmortem_window,
            tsdb=tsdb,
            anomaly=anomaly,
            cost_model=_load_cost_model(args),
        )
    except ValueError as exc:
        return _refuse(args, exc)
    play_trace(broker, trace)
    _save_cost_model(args, broker.cost_model)
    if args.postmortem and broker.flight is not None and broker.flight.bundles:
        for bundle in broker.flight.bundles:
            print(f"wrote postmortem bundle {bundle}", file=sys.stderr)
    if args.trace:
        from repro.obs import write_chrome_trace

        write_chrome_trace(args.trace, tracer)
        print(f"wrote Chrome trace to {args.trace}", file=sys.stderr)
    if args.metrics:
        with open(args.metrics, "w") as fh:
            fh.write(broker.registry().render())
        print(f"wrote Prometheus metrics to {args.metrics}", file=sys.stderr)
    if args.gantt:
        from repro.obs import render_gantt, render_summary

        print(render_gantt(tracer))
        print(render_summary(tracer))
    _emit_profile(args, tracer)
    _emit_cost_report(args, broker=broker)
    _emit_tsdb(
        args,
        tsdb,
        anomaly,
        slo=slo,
        title=(
            f"repro serve — {args.requests} requests, {args.pattern} trace, "
            f"seed {args.seed}"
        ),
    )
    if slo is not None:
        print(slo.report())
        print()
    report = broker.report()
    if args.json:
        import json

        print(json.dumps(report))
        return 0
    cache = report["cache"]
    lattice = report["lattice"]
    print(
        format_table(
            ["quantity", "value"],
            [
                ["requests issued", report["arrivals"]],
                ["requests completed", report["completions"]],
                ["requests lost", report["lost"]],
                ["rejections (backpressure)", report["rejections"]],
                ["retries", report["retries"]],
                ["coalesced joins", report["coalescer"]["coalesced"]],
                ["megabatch groups", report["megabatch_groups"]],
                ["megabatch width (mean)",
                 f"{report['batch_width_mean']:.1f}"],
                ["cache hit ratio", f"{cache['hit_ratio']:.1%}"],
                ["lattice hit ratio", f"{lattice['hit_ratio']:.1%}"],
                ["virtual time (s)", f"{report['virtual_time_s']:.2f}"],
            ],
            title=(
                f"Service run — {args.requests} requests, {args.pattern} trace, "
                f"seed {args.seed}"
            ),
        )
    )
    rows = []
    for lane, s in report["lanes"].items():
        rows.append(
            [
                lane,
                s["arrivals"],
                s["cache_hits"],
                s["lattice_hits"],
                s["coalesced"],
                s["computed"],
                s["rejections"],
                f"{s['latency_mean_s']:.3f}",
                f"{s['latency_p95_s']:.3f}",
            ]
        )
    print()
    print(
        format_table(
            ["lane", "reqs", "cache", "lattice", "coalesced", "computed",
             "rejected", "mean lat (s)", "p95 lat (s)"],
            rows,
            title="Per-lane outcomes (virtual seconds)",
        )
    )
    print()
    print(
        format_table(
            ["quantity", "value"],
            [
                ["cache entries / bytes", f"{cache['entries']} / {cache['bytes_stored']}"],
                ["cache evictions / expirations",
                 f"{cache['evictions']} / {cache['expirations']}"],
                ["lattice hits / misses / fallbacks",
                 f"{lattice['hits']} / {lattice['misses']} / {lattice['fallbacks']}"],
                ["lattice families / nodes / bytes",
                 f"{lattice['families']} / {lattice['nodes']} / "
                 f"{lattice['bytes_stored']}"],
                ["lattice refinements / node evals",
                 f"{lattice['refinements']} / {lattice['node_evals']}"],
                ["mean / max queue depth",
                 f"{report['queue_depth_mean']:.2f} / {report['queue_depth_max']}"],
                ["hybrid batches (mean size)",
                 f"{report['batches']} ({report['batch_size_mean']:.1f})"],
                ["tasks on GPU", f"{report['gpu_task_ratio']:.1%}"],
                ["work steals (predictive)", report["sched_steals"]],
                ["cost prediction error (mean)",
                 f"{report['sched_prediction_error_mean']:.1%}"],
            ],
            title="Cache, queue, and dispatch",
        )
    )
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    from repro.bench.reporting import format_table
    from repro.cluster.simclock import SimClock
    from repro.service import ServiceConfig, SpectrumBroker, SpectrumRequest

    if args.repeat < 1:
        return _refuse(args, f"--repeat must be >= 1, got {args.repeat}")
    db_z_max = ServiceConfig().db_z_max
    if args.z_max > db_z_max:
        return _refuse(
            args, f"--z-max {args.z_max} exceeds the service database's z_max={db_z_max}"
        )
    try:
        request = SpectrumRequest(
            temperature_k=args.temperature,
            ne_cm3=args.density,
            z_max=args.z_max,
            n_bins=args.bins,
            rule=args.rule,
            tolerance=args.tolerance,
            tail_tol=args.tail_tol,
            accuracy=args.accuracy,
        )
        tsdb, anomaly = _make_tsdb(args)
    except ValueError as exc:
        return _refuse(args, exc)
    clock = SimClock()
    tracer = None
    if args.trace or args.profile or args.flamegraph or args.cost_report:
        from repro.obs import EventTracer

        tracer = EventTracer(clock)
    from dataclasses import replace

    from repro.service.broker import _default_hybrid

    broker = SpectrumBroker(
        clock,
        ServiceConfig(
            hybrid=replace(_default_hybrid(), scheduler_kind=_sched_kind(args))
        ),
        tracer=tracer,
        tsdb=tsdb,
        anomaly=anomaly,
        cost_model=_load_cost_model(args),
    )
    broker.start()
    outcomes = []
    for _ in range(args.repeat):
        ticket = broker.submit(request, lane=args.lane)
        clock.run()  # drain this submission to completion
        outcomes.append(
            {
                "cached": ticket.cached,
                "lattice": ticket.lattice,
                "error_bound": ticket.error_bound,
                "latency_s": ticket.latency_s,
                "peak_flux": float(ticket.result.max()),
                "total_flux": float(ticket.result.sum()),
            }
        )
    broker.bus.finalize(clock.now)
    _save_cost_model(args, broker.cost_model)
    if tsdb is not None:
        tsdb.scrape(broker.registry(), clock.now)  # closing boundary scrape
        if anomaly is not None:
            for event in anomaly.scan(tsdb):
                broker.bus.on_anomaly(event)
    if args.trace:
        from repro.obs import write_chrome_trace

        write_chrome_trace(args.trace, tracer)
        print(f"wrote Chrome trace to {args.trace}", file=sys.stderr)
    if args.metrics:
        with open(args.metrics, "w") as fh:
            fh.write(broker.registry().render())
        print(f"wrote Prometheus metrics to {args.metrics}", file=sys.stderr)
    _emit_profile(args, tracer)
    _emit_cost_report(args, broker=broker)
    _emit_tsdb(
        args,
        tsdb,
        anomaly,
        title=f"repro submit — {args.repeat}x {args.lane}",
    )
    if args.json:
        import json

        print(
            json.dumps(
                {
                    "request": request.canonical(),
                    "key": request.key,
                    "submissions": outcomes,
                }
            )
        )
        return 0
    rows = [
        [
            i + 1,
            str(o["cached"]).lower(),
            str(o["lattice"]).lower(),
            f"{o['error_bound']:.2e}" if o["lattice"] else "-",
            f"{o['latency_s']:.3f}",
            f"{o['peak_flux']:.4g}",
        ]
        for i, o in enumerate(outcomes)
    ]
    print(
        format_table(
            ["submission", "cached", "lattice", "err bound", "latency (s)",
             "peak flux"],
            rows,
            title=f"submit {request.canonical()}  (key {request.key[:12]})",
        )
    )
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    import json

    from repro.bench.harness import (
        compare_bench,
        load_bench,
        render_bench,
        run_suite,
        validate_bench,
        write_bench,
    )

    if args.compare is not None:
        old = load_bench(args.compare[0])
        new = load_bench(args.compare[1])
        regressions, lines = compare_bench(old, new)
        print("\n".join(lines))
        if regressions:
            print(
                f"\n{len(regressions)} regression(s) beyond tolerance",
                file=sys.stderr,
            )
            return 1
        print("\nno regressions beyond tolerance")
        return 0

    doc = run_suite(
        quick=args.quick,
        seed=args.seed,
        cases=args.cases,
        flamegraph=args.flamegraph,
        dash=args.dash,
    )
    errors = validate_bench(doc)
    if errors:  # a suite bug, not a perf regression — fail loudly
        print("schema validation failed:\n  " + "\n  ".join(errors), file=sys.stderr)
        return 2
    write_bench(args.out, doc)
    if args.json:
        print(json.dumps(doc, sort_keys=True))
    else:
        print(render_bench(doc))
    print(f"wrote {args.out}", file=sys.stderr)
    if args.flamegraph:
        print(f"wrote flamegraph to {args.flamegraph}", file=sys.stderr)
    if args.dash:
        print(f"wrote dashboard to {args.dash}", file=sys.stderr)

    if args.baseline is not None:
        baseline = load_bench(args.baseline)
        regressions, lines = compare_bench(baseline, doc)
        print()
        print("\n".join(lines))
        if regressions:
            print(
                f"\n{len(regressions)} regression(s) beyond tolerance "
                f"vs {args.baseline}",
                file=sys.stderr,
            )
            return 1
        print(f"\nno regressions beyond tolerance vs {args.baseline}")
    return 0


_COMMANDS = {
    "quickstart": _cmd_quickstart,
    "fig3": _cmd_fig3,
    "fig4": _cmd_fig4,
    "fig5": _cmd_fig5,
    "table1": _cmd_table1,
    "table2": _cmd_table2,
    "autotune": _cmd_autotune,
    "spectrum": _cmd_spectrum,
    "nei-solve": _cmd_nei_solve,
    "fit": _cmd_fit,
    "serve": _cmd_serve,
    "submit": _cmd_submit,
    "bench": _cmd_bench,
    "query": _cmd_query,
}


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
