"""The six workloads of the wall-clock benchmark.

Each workload uses only the frozen call surface listed in README.md —
public constructors and functions of ``repro`` — so later PRs can delete
compute paths, backends and dispatch loops without editing this file.

Run shape (all workloads): closed loop, one caller, one process.  A
workload is set up once, runs one warm-up pass, then repeats passes of
seed-determined work; the worker times each pass and reports the median.
Validation of a pass's outputs happens off the clock in :meth:`account`,
the heavier oracle comparisons once at the end in :meth:`check`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from spans import SpanRecorder

#: Temperature range the sweeps draw from (traces keep loadgen's own).
T_MIN_K, T_MAX_K = 2.0e6, 5.0e7
#: Relative jitter around each log-spaced temperature stratum: enough
#: that no temperature repeats (the per-plan window memo never hits),
#: too little to change a pass's amount of work between seeds.
T_JITTER = 0.02


def scaled(count: int, scale: float, floor: int = 1) -> int:
    return max(floor, int(round(count * scale)))


def spectrum_ok(values: object, n_bins: int) -> bool:
    """Finite, non-negative, right-shaped — what every spectrum must be."""
    arr = np.asarray(values)
    return (
        arr.shape == (n_bins,)
        and bool(np.all(np.isfinite(arr)))
        and bool(np.all(arr >= 0.0))
    )


def peak_rel(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.max(np.abs(a - b)) / max(float(np.max(np.abs(b))), 1e-300))


@dataclass
class PassStats:
    ops: int
    failed: int
    #: Simulated-clock metrics of the pass; identical for every pass of
    #: one seed (the worker checks it).
    sim: dict[str, float] = field(default_factory=dict)


@dataclass
class CheckStats:
    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)
    sim: dict[str, float] = field(default_factory=dict)
    #: Per-layer metrics a check computes anyway (the traced run reports
    #: them; no probe repeats the comparison).
    layer: dict[str, float] = field(default_factory=dict)

    def expect(self, ok: bool, note: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(note)


class Workload:
    name = ""
    #: What one op is (the denominator of ``ops_per_s``).
    op = ""

    def __init__(self, seed: int, scale: float, rec: SpanRecorder) -> None:
        self.seed = seed
        self.scale = scale
        self.rec = rec

    def rng(self, pass_index: int) -> np.random.Generator:
        # +1: the warm-up pass is index -1 and seeds must be non-negative.
        return np.random.default_rng([self.seed, pass_index + 1])

    def temperatures(self, n: int, pass_index: int) -> np.ndarray:
        """``n`` log-spaced strata over the range, each jittered."""
        centers = np.geomspace(T_MIN_K, T_MAX_K, n)
        return centers * np.exp(self.rng(pass_index).uniform(-T_JITTER, T_JITTER, n))

    def setup(self) -> None:
        raise NotImplementedError

    def run_pass(self, i: int):
        raise NotImplementedError

    def account(self, raw) -> PassStats:
        raise NotImplementedError

    def corrupt(self, raw) -> None:
        """Damage one output of a pass in place (fault-injection test)."""
        raise NotImplementedError

    def check(self, raw) -> CheckStats:
        raise NotImplementedError


# ----------------------------------------------------------------------
# Real numerics: physics + quadrature
# ----------------------------------------------------------------------
class SweepDense(Workload):
    """Algorithm 2's shape on the model's default path: every level x bin
    integral evaluated, one spectrum per pass."""

    name = "sweep_dense"
    op = "spectrum"
    N_BINS = 400
    #: Strata the pass temperatures cycle through.
    N_STRATA = 8
    QAGS_IONS = 5

    def setup(self) -> None:
        from repro.bench.workloads import small_real_database, small_real_grid
        from repro.physics.apec import SerialAPEC

        with self.rec.span("atomic.database.build"):
            self.db = small_real_database()
        self.grid = small_real_grid(scaled(self.N_BINS, self.scale, floor=8))
        self.apec = SerialAPEC(
            self.db, self.grid, method="simpson-batch", components=("rrc",)
        )

    def point(self, i: int):
        from repro.physics.apec import GridPoint

        t = self.temperatures(self.N_STRATA, i)[i % self.N_STRATA]
        return GridPoint(temperature_k=float(t), ne_cm3=1.0)

    def run_pass(self, i: int):
        point = self.point(i)
        with self.rec.span("physics.apec.compute"):
            return [self.apec.compute(point).values]

    def account(self, raw) -> PassStats:
        bad = sum(not spectrum_ok(v, self.grid.n_bins) for v in raw)
        return PassStats(ops=len(raw), failed=bad)

    def corrupt(self, raw) -> None:
        raw[0][0] = np.nan

    def check(self, raw) -> CheckStats:
        from repro.physics.apec import SerialAPEC

        out = CheckStats()
        ions = [ion for ion in self.db.ions if self.db.n_levels(ion) > 0]
        step = max(1, len(ions) // self.QAGS_IONS)
        subset = tuple(ions[::step][: self.QAGS_IONS])
        point = self.point(0)
        oracle = SerialAPEC(self.db, self.grid, method="qags", components=("rrc",))
        got = self.apec.compute(point, ions=subset).values
        want = oracle.compute(point, ions=subset).values
        err = peak_rel(got, want)
        out.expect(err <= 1e-9, f"simpson-batch vs qags peak-relative {err:.3e} > 1e-9")
        out.layer["physics.max_rel_err_vs_qags"] = err
        return out


class SweepPrunedMany(Workload):
    """The same layers used the other way: compiled plan, active-window
    pruning, batched temperature axis."""

    name = "sweep_pruned_many"
    op = "spectrum"
    N_BINS = 400
    WIDTH = 4
    TAIL_TOL = 1.0e-9
    IDENTITY_ROWS = 2

    def setup(self) -> None:
        from repro.bench.workloads import small_real_database, small_real_grid
        from repro.physics.plan import PLAN_CACHE

        with self.rec.span("atomic.database.build"):
            self.db = small_real_database()
        self.grid = small_real_grid(scaled(self.N_BINS, self.scale, floor=8))
        with self.rec.span("physics.plan.compile"):
            self.plan = PLAN_CACHE.get(
                self.db, self.grid, method="simpson", tail_tol=self.TAIL_TOL
            )
        self.width = scaled(self.WIDTH, self.scale, floor=2)

    def points(self, i: int):
        from repro.physics.apec import GridPoint

        return [
            GridPoint(temperature_k=float(t), ne_cm3=1.0)
            for t in self.temperatures(self.width, i)
        ]

    def run_pass(self, i: int):
        points = self.points(i)
        with self.rec.span("physics.plan.execute_many"):
            results = self.plan.execute_many(points)
        return points, [r.values for r in results]

    def account(self, raw) -> PassStats:
        _, rows = raw
        bad = sum(not spectrum_ok(v, self.grid.n_bins) for v in rows)
        return PassStats(ops=len(rows), failed=bad)

    def corrupt(self, raw) -> None:
        raw[1][0][0] = np.nan

    def check(self, raw) -> CheckStats:
        from repro.physics.apec import SerialAPEC

        out = CheckStats()
        points, rows = raw
        picks = self.rng(10**6).choice(
            len(points), size=min(self.IDENTITY_ROWS, len(points)), replace=False
        )
        for j in picks:
            single = self.plan.execute(points[j]).values
            out.expect(
                np.array_equal(rows[j], single),
                f"execute_many row {j} differs from execute()",
            )
        j = int(picks[0])
        dense = SerialAPEC(
            self.db, self.grid, method="simpson-batch", components=("rrc",)
        ).compute(points[j]).values
        err = peak_rel(rows[j], dense)
        out.expect(err <= 1e-8, f"pruned vs dense peak-relative {err:.3e} > 1e-8")
        return out


# ----------------------------------------------------------------------
# The simulated node: cluster + core + gpusim, no numerics
# ----------------------------------------------------------------------
class HybridPaper(Workload):
    """The paper's main experiment: 24 grid points x 496 cost-only ion
    tasks at the paper's node, once per dispatch loop."""

    name = "hybrid_paper"
    op = "simulated task"
    N_POINTS = 24
    NODE = dict(n_workers=24, n_gpus=3, max_queue_length=12)

    def setup(self) -> None:
        from repro.bench.workloads import paper_workload

        with self.rec.span("bench.workloads.paper_workload"):
            self.tasks = paper_workload(scaled(self.N_POINTS, self.scale))

    def run_kind(self, kind: str):
        from repro.core.hybrid import HybridConfig, HybridRunner

        runner = HybridRunner(HybridConfig(scheduler_kind=kind, **self.NODE))
        with self.rec.span(f"core.hybrid.run.{kind}"):
            return runner.run(self.tasks)

    def run_pass(self, i: int):
        return [self.run_kind("shared"), self.run_kind("predictive")]

    def account(self, raw) -> PassStats:
        n = len(self.tasks)
        shared = raw[0]
        missing = sum(
            abs(n - r.n_tasks) + abs(n - r.metrics.total_tasks) for r in raw
        )
        return PassStats(
            ops=n * len(raw),
            failed=min(missing, n * len(raw)),
            sim={
                "sim_makespan_s": shared.makespan_s,
                "sim_gpu_utilization": float(np.mean(shared.gpu_utilization)),
                "sim_gpu_task_ratio": shared.metrics.gpu_task_ratio(),
            },
        )

    def corrupt(self, raw) -> None:
        raw[0].n_tasks -= 1

    def check(self, raw) -> CheckStats:
        out = CheckStats()
        shared, predictive = raw
        out.expect(
            shared.metrics.total_tasks == predictive.metrics.total_tasks,
            "shared and predictive runs placed different task counts",
        )
        return out


# ----------------------------------------------------------------------
# The service: service + core + cluster (+ approx, + obs)
# ----------------------------------------------------------------------
def _ticket_ok(ticket, n_bins: int) -> bool:
    return ticket is not None and ticket.done and spectrum_ok(ticket.result, n_bins)


def _service_sim(plays, tail: bool) -> dict[str, float]:
    """Simulated-clock metrics over one pass's (broker, tickets) plays;
    the tail percentile only where ``tail`` says the pass has the
    tickets for one."""
    latencies = np.array(
        [t.latency_s for _, tickets in plays for t in tickets if t is not None and t.done]
    )
    reports = [broker.report() for broker, _ in plays]
    gpu = sum(r["gpu_tasks"] for r in reports)
    cpu = sum(r["cpu_tasks"] for r in reports)
    sim = {
        "sim_makespan_s": float(sum(r["virtual_time_s"] for r in reports)),
        "sim_latency_s_p50": float(np.median(latencies)) if latencies.size else 0.0,
        "sim_gpu_task_ratio": gpu / (gpu + cpu) if gpu + cpu else 0.0,
    }
    if tail and latencies.size:
        sim["sim_latency_s_p95"] = float(np.percentile(latencies, 95.0))
    return sim


class _Service(Workload):
    op = "request"
    EXACT_SAMPLES = 50
    #: p95 is the highest percentile with >= 10 tickets beyond it on a
    #: 200-arrival pass; a workload with fewer arrivals reports none.
    TAIL_PERCENTILE = True

    def specs(self) -> list[tuple[str, object, object]]:
        """(label, TrafficSpec, ServiceConfig) per trace of a pass."""
        raise NotImplementedError

    def run_kwargs(self) -> dict:
        """Extra ``run_trace`` arguments, built afresh for every play."""
        return {}

    def setup(self) -> None:
        from repro.service.loadgen import generate_trace

        self.plans = []
        for label, spec, config in self.specs():
            with self.rec.span("service.loadgen.generate_trace"):
                trace = generate_trace(spec)
            self.plans.append((label, trace, config))

    def run_pass(self, i: int):
        from repro.service.broker import run_trace

        plays = []
        for label, trace, config in self.plans:
            with self.rec.span(f"service.broker.run_trace.{label}"):
                plays.append(run_trace(trace, config, **self.run_kwargs()))
        return plays

    def account(self, raw) -> PassStats:
        ops = failed = 0
        for (_, trace, _), (_, tickets) in zip(self.plans, raw):
            n_bins = trace[0].request.n_bins
            ops += len(trace)
            failed += sum(not _ticket_ok(t, n_bins) for t in tickets)
            failed += abs(len(trace) - len(tickets))
        return PassStats(
            ops=ops, failed=failed, sim=_service_sim(raw, self.TAIL_PERCENTILE)
        )

    def corrupt(self, raw) -> None:
        ticket = raw[0][1][0]
        ticket.result = np.full_like(ticket.result, np.nan)

    def check(self, raw) -> CheckStats:
        from repro.approx import RequestEvaluator, peak_rel_error
        from repro.service.requests import request_spectrum

        out = CheckStats()
        rng = self.rng(10**6)
        over = -1.0  # worst lattice error as a share of its budget; < 0 = none served
        for (label, _, config), (broker, tickets) in zip(self.plans, raw):
            done = [t for t in tickets if t is not None and t.done]
            exact = [t for t in done if not t.lattice]
            lattice = [t for t in done if t.lattice]
            for t in _sample(rng, exact, self.EXACT_SAMPLES):
                want = request_spectrum((t.request, config.db_n_max, config.db_z_max))
                out.expect(
                    np.array_equal(t.result, want),
                    f"{label}: ticket {t.key[:8]} differs from request_spectrum",
                )
            evaluator = RequestEvaluator(broker.db)
            for t in _sample(rng, lattice, self.EXACT_SAMPLES):
                want = evaluator.exact_fn(t.request)(t.request.temperature_k)
                err = peak_rel_error(t.result, want)
                out.expect(
                    err <= t.request.accuracy,
                    f"{label}: lattice ticket off by {err:.3e} > {t.request.accuracy:.1e}",
                )
                over = max(over, err / t.request.accuracy)
        if over >= 0.0:
            out.layer["approx.lattice.max_err_over_budget"] = over
        return out


def _sample(rng: np.random.Generator, items: list, k: int) -> list:
    if len(items) <= k:
        return items
    return [items[j] for j in rng.choice(len(items), size=k, replace=False)]


def cold_spec(seed: int, n_requests: int):
    from repro.service.loadgen import TrafficSpec

    return TrafficSpec(
        n_requests=n_requests, pattern="uniform", n_distinct=30000,
        mean_interarrival_s=0.4, tail_tol=1.0e-9, seed=seed,
    )


class ServeCold(_Service):
    """Every request misses every reuse tier and crosses the whole stack;
    the arrival rate stays below the simulated service's capacity."""

    name = "serve_cold"
    N_REQUESTS = 200

    def specs(self):
        from repro.service.broker import ServiceConfig

        n = scaled(self.N_REQUESTS, self.scale, floor=8)
        return [("cold", cold_spec(self.seed, n), ServiceConfig(n_service_workers=2))]


class ServeReuse(_Service):
    """Traffic the reuse tiers should absorb: exact cache + coalescer
    (zipf), the approx lattice (walk), megabatch groups (burst)."""

    name = "serve_reuse"
    N_ZIPF, N_WALK, N_BURST = 2000, 1000, 256

    def specs(self):
        from repro.service.broker import ServiceConfig
        from repro.service.loadgen import TrafficSpec

        common = dict(seed=self.seed)
        plain = ServiceConfig(n_service_workers=2)
        batching = ServiceConfig(
            n_service_workers=2, queue_capacity=96, batch_max=32,
            batch_width_max=32, batch_window_s=0.05,
        )
        return [
            ("zipf", TrafficSpec(
                n_requests=scaled(self.N_ZIPF, self.scale, floor=8),
                pattern="zipf", n_distinct=32, **common), plain),
            ("walk", TrafficSpec(
                n_requests=scaled(self.N_WALK, self.scale, floor=8),
                pattern="walk", accuracy=1.0e-3, **common), plain),
            # uniform over 512 points: few exact repeats, so the bursts
            # reach the batch assembler instead of the cache.
            ("burst", TrafficSpec(
                n_requests=scaled(self.N_BURST, self.scale, floor=8),
                pattern="uniform", n_distinct=512, burst=32, n_bins=128,
                tolerance=1.0e-9, **common), batching),
        ]


class ServeObserved(_Service):
    """serve_cold's traffic, half as long, with ``obs`` switched on — the only
    workload where the observability stack does real work."""

    name = "serve_observed"
    N_REQUESTS = 100
    TAIL_PERCENTILE = False  # 100 tickets leave 5 beyond p95

    def specs(self):
        from repro.service.broker import ServiceConfig

        n = scaled(self.N_REQUESTS, self.scale, floor=8)
        return [("observed", cold_spec(self.seed, n), ServiceConfig(n_service_workers=2))]

    def run_kwargs(self) -> dict:
        from repro.obs import AnomalyDetector, EventTracer, TimeSeriesStore

        # Only the latest pass's tracer is kept (for the utilization
        # figure); holding all of them would grow peak RSS with run length.
        self.tracer = EventTracer()
        return dict(
            tracer=self.tracer,
            tsdb=TimeSeriesStore(cadence_s=0.5),
            anomaly=AnomalyDetector(),
        )

    def check(self, raw) -> CheckStats:
        from repro.obs import Profile
        from repro.service.broker import run_trace

        out = super().check(raw)
        _, trace, config = self.plans[0]
        _, plain = run_trace(trace, config)
        _, observed = raw[0]
        same = len(plain) == len(observed) and all(
            a is not None and b is not None and np.array_equal(a.result, b.result)
            for a, b in zip(plain, observed)
        )
        out.expect(same, "results differ from the obs-off replay")
        devices = Profile.from_tracer(self.tracer).device_usage()
        if devices:
            out.sim["sim_gpu_utilization"] = float(
                np.mean([d.utilization for d in devices])
            )
        return out


WORKLOADS = {
    cls.name: cls
    for cls in (
        SweepDense, SweepPrunedMany, HybridPaper,
        ServeCold, ServeReuse, ServeObserved,
    )
}
