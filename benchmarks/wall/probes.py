"""Per-layer probes of the traced run.

Each probe times one layer's public call alone, from outside, on inputs
of the same shape the workloads use (one fixture, built from the seed,
shared by all probes and identical for every workload), or reads a count
the program already keeps (``KERNEL_COUNTERS.snapshot()``,
``PLAN_CACHE.stats``, ``broker.report()``, ``RunResult.metrics``).

One probe = one call that a later PR may delete (a dispatch loop, a
backend, a kernel, ``run_mpi_only``, ``fused=``): each is wrapped on its
own, so a missing symbol, a removed keyword or any other exception turns
*its* metrics into ``None`` plus the reason and leaves every other probe
standing.  A ratio's probe takes both sides from the fixture, which
measures a side the first time anything asks for it — no probe depends
on another having run.

Metric names are ``<layer>.<what>``, the layer being the package under
``src/repro/``; README.md says which end-to-end metric each should move.
"""

from __future__ import annotations

import gc
import os
import resource
import statistics
import subprocess
import sys
import time
from functools import cached_property
from typing import Callable

import numpy as np

from spans import SpanRecorder
from workloads import (
    T_JITTER, HybridPaper, ServeCold, ServeReuse, SweepDense, SweepPrunedMany,
    cold_spec, scaled,
)

#: Arrays an integrand evaluation touches (abscissa, exp, Gaunt, product)
#: in the *computed* bytes-per-spectrum figure.
ARRAYS_PER_EVAL = 4
SIMPSON_PIECES, ROMBERG_K, GAUSS_POINTS = 64, 7, 12
KERNEL_ROW_STRIDE = 4


def timed_value(fn: Callable[[], object], repeat: int = 3, warm: int = 1) -> tuple[float, object]:
    """Median seconds of ``repeat`` calls after ``warm`` untimed ones,
    and what the last call returned."""
    for _ in range(warm):
        fn()
    samples = []
    value = None
    for _ in range(repeat):
        gc.collect()
        t0 = time.perf_counter()
        value = fn()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples), value


def timed(fn: Callable[[], object], repeat: int = 3, warm: int = 1) -> float:
    return timed_value(fn, repeat, warm)[0]


def per_item(
    fn: Callable[[object], object], items: list, repeat: int = 3, warm: int = 1
) -> float:
    """Median seconds per item of ``repeat`` sweeps over ``items``."""
    def sweep() -> None:
        for item in items:
            fn(item)

    return timed(sweep, repeat=repeat, warm=warm) / len(items)


class Fixture:
    """Inputs and baselines shared by the probes, each built or measured
    the first time a probe asks for it."""

    def __init__(self, seed: int, scale: float) -> None:
        self.seed = seed
        self.scale = scale
        self._rng = np.random.default_rng([seed, 0xBEEF])

    def fresh_point(self):
        """A grid point near 1e7 K that no earlier call has used, so the
        per-plan window memo misses as it does for never-repeated
        temperatures."""
        from repro.physics.apec import GridPoint

        t = 1.0e7 * float(np.exp(self._rng.uniform(-T_JITTER, T_JITTER)))
        return GridPoint(temperature_k=t, ne_cm3=1.0)

    @cached_property
    def db(self):
        from repro.bench.workloads import small_real_database

        return small_real_database()

    @cached_property
    def grid(self):
        from repro.bench.workloads import small_real_grid

        return small_real_grid(scaled(SweepDense.N_BINS, self.scale, floor=8))

    def apec(self, **knobs):
        """``sweep_dense``'s model, plus ``knobs``."""
        from repro.physics.apec import SerialAPEC

        return SerialAPEC(
            self.db, self.grid, method="simpson-batch", components=("rrc",), **knobs
        )

    @cached_property
    def plan(self):
        from repro.physics.plan import PLAN_CACHE

        return PLAN_CACHE.get(
            self.db, self.grid, method="simpson", tail_tol=SweepPrunedMany.TAIL_TOL
        )

    @cached_property
    def plan_dense(self):
        from repro.physics.plan import PLAN_CACHE

        return PLAN_CACHE.get(self.db, self.grid, method="simpson", tail_tol=0.0)

    @cached_property
    def width(self) -> int:
        return scaled(SweepPrunedMany.WIDTH, self.scale, floor=2)

    # -- baselines: seconds per spectrum ------------------------------
    @cached_property
    def legacy_dense(self) -> tuple[float, float]:
        """(seconds, minor page faults) per spectrum of ``SerialAPEC`` on
        its default path, ``tail_tol=0`` — the base of the backend
        speedups and of ``plan_vs_legacy_dense``."""
        model = self.apec()
        faults0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        seconds = timed(lambda: model.compute(self.fresh_point()), repeat=2, warm=0)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults0
        return seconds, faults / 2

    @cached_property
    def legacy_pruned_s(self) -> float:
        model = self.apec(tail_tol=SweepPrunedMany.TAIL_TOL)
        return timed(lambda: model.compute(self.fresh_point()))

    @cached_property
    def plan_dense_s(self) -> float:
        return timed(lambda: self.plan_dense.execute(self.fresh_point()), repeat=1, warm=0)

    @cached_property
    def plan_single_s(self) -> float:
        return timed(lambda: self.plan.execute(self.fresh_point()))

    @cached_property
    def plan_many_s(self) -> float:
        """Per point of one ``execute_many`` group."""
        return timed(
            lambda: self.plan.execute_many([self.fresh_point() for _ in range(self.width)]),
            repeat=1, warm=0,
        ) / self.width

    @cached_property
    def kernel_inputs(self) -> tuple[tuple, dict]:
        """(args, kwargs) of a cross-ion window kernel: the plan's own
        pruned window set (every fourth level: a rate needs no more) and
        a recombination-shaped integrand of the benchmark's own."""
        point = self.fresh_point()
        kt = point.kt_kev
        rows = slice(None, None, KERNEL_ROW_STRIDE)
        first, cutoff = (w[rows] for w in self.plan.windows(kt))
        energy = self.plan.energy_kev[rows]
        c_l = self.plan.flat_constants(point)[rows]

        def integrand(rows: np.ndarray, x: np.ndarray) -> np.ndarray:
            return c_l[rows][:, None] * np.exp(-(x - energy[rows][:, None]) / kt)

        return (integrand, self.grid.edges, first, cutoff), {"lower_clip": energy}

    # -- the simulated node -------------------------------------------
    @cached_property
    def tasks(self):
        from repro.bench.workloads import paper_workload

        return paper_workload(scaled(HybridPaper.N_POINTS, self.scale))

    def hybrid_run(self, method: str = "run", **knobs):
        """(tasks per host second, RunResult) of one pass over
        ``hybrid_paper``'s task list at the paper's node."""
        from repro.core.hybrid import HybridConfig, HybridRunner

        runner = HybridRunner(HybridConfig(**{**HybridPaper.NODE, **knobs}))
        call = getattr(runner, method)
        gc.collect()
        t0 = time.perf_counter()
        result = call(self.tasks)
        return len(self.tasks) / (time.perf_counter() - t0), result

    # -- service ------------------------------------------------------
    @cached_property
    def service_config(self):
        from repro.service.broker import ServiceConfig

        return ServiceConfig(n_service_workers=2)

    @cached_property
    def service_scope(self) -> tuple[int, int]:
        return self.service_config.db_n_max, self.service_config.db_z_max

    @cached_property
    def service_db(self):
        from repro.atomic.database import AtomicConfig, AtomicDatabase

        n_max, z_max = self.service_scope
        return AtomicDatabase(AtomicConfig(n_max=n_max, z_max=z_max))

    @cached_property
    def cold(self):
        """(label, trace, config) of a half-size serve_cold pass."""
        wl = ServeCold(self.seed, self.scale * 0.5, SpanRecorder("probe"))
        wl.setup()
        return wl.plans[0]

    @cached_property
    def cold_requests(self) -> list:
        return [a.request for a in self.cold[1]]

    @cached_property
    def reuse(self) -> dict:
        wl = ServeReuse(self.seed, self.scale, SpanRecorder("probe"))
        wl.setup()
        return {label: (trace, config) for label, trace, config in wl.plans}

    @cached_property
    def burst_group(self) -> tuple:
        """One family of the burst trace: what a megabatch group holds."""
        head = tuple(a.request for a in self.reuse["burst"][0][:32])
        return tuple(r for r in head if r.family_key == head[0].family_key)

    @cached_property
    def cold_play(self):
        """(seconds, broker, tickets) of the cold trace, obs off."""
        return self.play(self.cold[1], self.cold[2])

    @cached_property
    def observed_play(self):
        """(seconds, broker, tracer, tsdb) of the same trace with tracer,
        tsdb and anomaly detector on."""
        from repro.obs import AnomalyDetector, EventTracer, TimeSeriesStore

        tracer, tsdb = EventTracer(), TimeSeriesStore(cadence_s=0.5)
        seconds, broker, _ = self.play(
            self.cold[1], self.cold[2], tracer=tracer, tsdb=tsdb, anomaly=AnomalyDetector()
        )
        return seconds, broker, tracer, tsdb

    @staticmethod
    def play(trace, config, **kwargs):
        from repro.service.broker import run_trace

        gc.collect()
        t0 = time.perf_counter()
        broker, tickets = run_trace(trace, config, **kwargs)
        return time.perf_counter() - t0, broker, tickets


# ----------------------------------------------------------------------
# Probes.  Each returns {metric name: value} for the names it registers.
# Definition order is run order: a probe's timing depends on what ran
# before it in the process, so the order is part of the benchmark.
# ----------------------------------------------------------------------
Probe = Callable[[Fixture], dict]
#: (span name, probe, the metrics it owes)
PROBES: list[tuple[str, Probe, tuple[str, ...]]] = []


def probe(span: str, *names: str) -> Callable[[Probe], Probe]:
    def register(fn: Probe) -> Probe:
        PROBES.append((span, fn, names))
        return fn

    return register


# -- atomic --------------------------------------------------------------
@probe("atomic.database", "atomic.database.build_ms")
def atomic_database(fx: Fixture) -> dict:
    from repro.bench.workloads import small_real_database

    def build() -> None:
        db = small_real_database()
        for ion in db.ions:
            db.levels(ion)

    return {"atomic.database.build_ms": timed(build) * 1e3}


# -- quadrature ----------------------------------------------------------
def _kernel_probe(name: str, kernel_name: str, knobs: dict, points_per_pair: int) -> None:
    metric = f"quadrature.{name}.evals_per_s"

    @probe(f"quadrature.{name}", metric)
    def kernel_rate(fx: Fixture) -> dict:
        from repro.quadrature import megabatch

        kernel = getattr(megabatch, kernel_name)
        args, kwargs = fx.kernel_inputs
        seconds, result = timed_value(
            lambda: kernel(*args, **kwargs, **knobs), repeat=2, warm=0
        )
        return {metric: result.n_pairs * points_per_pair / seconds}


_kernel_probe("simpson", "megabatch_simpson_windows", {"pieces": SIMPSON_PIECES}, SIMPSON_PIECES + 1)
_kernel_probe("romberg", "megabatch_romberg_windows", {"k": ROMBERG_K}, 2**ROMBERG_K + 1)
_kernel_probe("gauss", "megabatch_gauss_windows", {"n": GAUSS_POINTS}, GAUSS_POINTS)


@probe("quadrature.evals", "quadrature.evals_per_spectrum",
       "quadrature.evals_saved_per_spectrum", "quadrature.bytes_computed_per_spectrum")
def quadrature_evals(fx: Fixture) -> dict:
    """Exact work of one pruned spectrum, and what pruning skipped: the
    dense window set's pairs minus the pairs evaluated.  (0 on the seed
    tree: at ``tail_tol=1e-9`` the tail budget, kT ln(1e9) >= 3.6 keV
    over the sweeps' range, outruns the 0.28-1.24 keV grid, so the
    setting selects the windowed code path and prunes nothing.)"""
    point = fx.fresh_point()
    evals = SIMPSON_PIECES + 1
    pairs = fx.plan.execute(point).n_pairs
    d_first, d_cutoff = fx.plan_dense.windows(point.kt_kev)
    return {
        "quadrature.evals_per_spectrum": pairs * evals,
        "quadrature.evals_saved_per_spectrum": (int((d_cutoff - d_first).sum()) - pairs) * evals,
        "quadrature.bytes_computed_per_spectrum": pairs * evals * 8 * ARRAYS_PER_EVAL,
    }


@probe("quadrature.counters", "quadrature.pairs_skipped")
def quadrature_counters(fx: Fixture) -> dict:
    from repro.quadrature.batch import KERNEL_COUNTERS

    model = fx.apec(tail_tol=SweepPrunedMany.TAIL_TOL)
    before = KERNEL_COUNTERS.snapshot()["zero_width_pairs"]
    model.compute(fx.fresh_point())
    return {
        "quadrature.pairs_skipped": KERNEL_COUNTERS.snapshot()["zero_width_pairs"] - before
    }


# -- physics -------------------------------------------------------------
@probe("physics.apec.dense", "physics.apec.compute_ms", "quadrature.minor_faults_per_spectrum")
def apec_dense(fx: Fixture) -> dict:
    """``SerialAPEC`` on its default (per-ion) path, and the page faults
    of one spectrum (the heap-history effect: NumPy temporaries that
    glibc serves by mmap are faulted in on every call)."""
    seconds, faults = fx.legacy_dense
    return {
        "physics.apec.compute_ms": seconds * 1e3,
        "quadrature.minor_faults_per_spectrum": faults,
    }


@probe("physics.apec.pruned", "physics.apec.compute_pruned_ms")
def apec_pruned(fx: Fixture) -> dict:
    return {"physics.apec.compute_pruned_ms": fx.legacy_pruned_s * 1e3}


@probe("physics.plan.dense", "physics.plan.execute_dense_ms")
def plan_dense(fx: Fixture) -> dict:
    return {"physics.plan.execute_dense_ms": fx.plan_dense_s * 1e3}


@probe("physics.plan.single", "physics.plan.execute_ms")
def plan_single(fx: Fixture) -> dict:
    return {"physics.plan.execute_ms": fx.plan_single_s * 1e3}


@probe("physics.plan.many", "physics.plan.execute_many_ms_per_point")
def plan_many(fx: Fixture) -> dict:
    return {"physics.plan.execute_many_ms_per_point": fx.plan_many_s * 1e3}


@probe("physics.plan.many_vs_single", "physics.plan.many_vs_single")
def plan_many_vs_single(fx: Fixture) -> dict:
    """Base: ``execute`` called in a loop (> 1 = batching is faster)."""
    n = max(2, fx.width // 2)
    looped = timed(
        lambda: [fx.plan.execute(fx.fresh_point()) for _ in range(n)], repeat=1, warm=0
    ) / n
    return {"physics.plan.many_vs_single": looped / fx.plan_many_s}


# The within-run ratios that hold across hosts.  Base of both: the
# ``SerialAPEC`` default path (> 1 = the plan is faster).
@probe("physics.plan_vs_legacy.dense", "physics.plan_vs_legacy_dense")
def plan_vs_legacy_dense(fx: Fixture) -> dict:
    return {"physics.plan_vs_legacy_dense": fx.legacy_dense[0] / fx.plan_dense_s}


@probe("physics.plan_vs_legacy.pruned", "physics.plan_vs_legacy_pruned")
def plan_vs_legacy_pruned(fx: Fixture) -> dict:
    return {"physics.plan_vs_legacy_pruned": fx.legacy_pruned_s / fx.plan_single_s}


@probe("physics.plan.windows", "physics.plan.windows_ms")
def plan_windows(fx: Fixture) -> dict:
    # One cold sweep: a second would hit the per-plan window memo.
    seconds = per_item(
        lambda p: fx.plan.windows(p.kt_kev), [fx.fresh_point() for _ in range(50)],
        repeat=1, warm=0,
    )
    return {"physics.plan.windows_ms": seconds * 1e3}


@probe("physics.plan.compile", "physics.plan.compile_ms")
def plan_compile(fx: Fixture) -> dict:
    from repro.physics.plan import PlanCache

    seconds = timed(
        lambda: PlanCache().get(
            fx.db, fx.grid, method="simpson", tail_tol=SweepPrunedMany.TAIL_TOL
        ),
        repeat=5,
    )
    return {"physics.plan.compile_ms": seconds * 1e3}


@probe("physics.plan.cache_hit", "physics.plan.cache_hit_us")
def plan_cache_hit(fx: Fixture) -> dict:
    from repro.physics.plan import PLAN_CACHE

    fx.plan  # compiled, so every get below hits
    hits0 = PLAN_CACHE.stats.hits
    seconds = per_item(
        lambda _: PLAN_CACHE.get(
            fx.db, fx.grid, method="simpson", tail_tol=SweepPrunedMany.TAIL_TOL
        ),
        [None] * 100,
    )
    if PLAN_CACHE.stats.hits - hits0 < 100:
        raise RuntimeError("PLAN_CACHE.get did not hit")
    return {"physics.plan.cache_hit_us": seconds * 1e6}


@probe("physics.plan.per_ion_active", "physics.plan.per_ion_active_us")
def plan_per_ion_active(fx: Fixture) -> dict:
    seconds = per_item(
        lambda p: fx.plan.per_ion_active(p.kt_kev), [fx.fresh_point() for _ in range(50)],
        repeat=1, warm=0,
    )
    return {"physics.plan.per_ion_active_us": seconds * 1e6}


# -- parallel ------------------------------------------------------------
# The backends against the serial one on ``sweep_dense``'s inputs,
# ``jobs=2``.  Base of both speedups: the serial backend (> 1 = the
# backend is faster).
@probe("parallel.thread", "parallel.thread.speedup")
def parallel_thread(fx: Fixture) -> dict:
    with fx.apec(backend="thread", jobs=2) as model:
        seconds = timed(lambda: model.compute(fx.fresh_point()), repeat=1, warm=0)
    return {"parallel.thread.speedup": fx.legacy_dense[0] / seconds}


def _pipe_bytes() -> int:
    """Bytes this process has moved through read()/write() so far —
    the pickles crossing to a worker pool are all it moves here."""
    with open("/proc/self/io") as fh:
        io = dict(line.split(": ") for line in fh.read().splitlines())
    return int(io["rchar"]) + int(io["wchar"])


@probe("parallel.process", "parallel.process.speedup", "parallel.process.pool_start_s",
       "parallel.process.bytes_pickled_per_spectrum")
def parallel_process(fx: Fixture) -> dict:
    from repro.parallel.executor import get_backend

    t0 = time.perf_counter()
    pool = get_backend("process", 2)
    pool.map(abs, [1, 2])
    pool_start_s = time.perf_counter() - t0
    pool.close()  # parks the warm pool; the model below adopts it
    with fx.apec(backend="process", jobs=2) as model:
        model.compute(fx.fresh_point())  # workers build their databases
        bytes0 = _pipe_bytes()
        seconds = timed(lambda: model.compute(fx.fresh_point()), repeat=1, warm=0)
        pickled = _pipe_bytes() - bytes0
    return {
        "parallel.process.speedup": fx.legacy_dense[0] / seconds,
        "parallel.process.pool_start_s": pool_start_s,
        "parallel.process.bytes_pickled_per_spectrum": pickled,
    }


# -- cluster, gpusim -----------------------------------------------------
@probe("cluster.simclock", "cluster.simclock.events_per_s")
def simclock(fx: Fixture) -> dict:
    """Ten generators of bare timeouts: the event loop and nothing else."""
    from repro.cluster.simclock import SimClock

    n_procs, n_events = 10, scaled(20_000, fx.scale, floor=100)

    def ticker():
        for _ in range(n_events):
            yield 1.0e-3

    def run() -> None:
        clock = SimClock()
        for _ in range(n_procs):
            clock.spawn(ticker())
        clock.run()

    return {"cluster.simclock.events_per_s": n_procs * n_events / timed(run, repeat=2, warm=0)}


def _kernels(fx: Fixture) -> list:
    return [task.kernel for task in fx.tasks[: scaled(5000, fx.scale, floor=50)]]


@probe("gpusim.service_time", "gpusim.service_time_us")
def gpusim_service_time(fx: Fixture) -> dict:
    from repro.gpusim.device import TESLA_C2075

    return {"gpusim.service_time_us": per_item(TESLA_C2075.service_time, _kernels(fx)) * 1e6}


@probe("gpusim.device", "gpusim.device.tasks_per_s")
def gpusim_device(fx: Fixture) -> dict:
    """Cost-only kernels through one device on a bare clock."""
    from repro.cluster.simclock import SimClock
    from repro.gpusim.device import TESLA_C2075, SimulatedGPU

    kernels = _kernels(fx)

    def run() -> None:
        clock = SimClock()
        gpu = SimulatedGPU(clock, TESLA_C2075)

        def feeder():
            for kernel in kernels:
                yield gpu.submit(kernel)

        clock.spawn(feeder())
        clock.run()
        if gpu.completed != len(kernels):
            raise RuntimeError("device dropped kernels")

    return {"gpusim.device.tasks_per_s": len(kernels) / timed(run, repeat=2, warm=0)}


# -- core: one probe per dispatch path -----------------------------------
@probe("core.hybrid.shared", "core.hybrid.shared.tasks_per_s")
def hybrid_shared(fx: Fixture) -> dict:
    return {"core.hybrid.shared.tasks_per_s": fx.hybrid_run(scheduler_kind="shared")[0]}


@probe("core.hybrid.predictive", "core.hybrid.predictive.tasks_per_s",
       "core.scheduler.predictive.sim_makespan_s", "core.scheduler.steals",
       "core.scheduler.load_imbalance")
def hybrid_predictive(fx: Fixture) -> dict:
    rate, result = fx.hybrid_run(scheduler_kind="predictive")
    return {
        "core.hybrid.predictive.tasks_per_s": rate,
        "core.scheduler.predictive.sim_makespan_s": result.makespan_s,
        "core.scheduler.steals": result.metrics.total_steals,
        "core.scheduler.load_imbalance": result.metrics.load_imbalance(),
    }


@probe("core.hybrid.fallback", "core.hybrid.fallback.tasks_per_s",
       "core.hybrid.fallback.cpu_task_share")
def hybrid_fallback(fx: Fixture) -> dict:
    """Queue length 2, so the CPU-fallback branch is taken; the share
    shows that it was."""
    rate, result = fx.hybrid_run(max_queue_length=2)
    return {
        "core.hybrid.fallback.tasks_per_s": rate,
        "core.hybrid.fallback.cpu_task_share":
            result.metrics.cpu_tasks / result.metrics.total_tasks,
    }


@probe("core.hybrid.mpi_only", "core.hybrid.mpi_only.tasks_per_s")
def hybrid_mpi_only(fx: Fixture) -> dict:
    return {"core.hybrid.mpi_only.tasks_per_s": fx.hybrid_run("run_mpi_only")[0]}


def _alloc_free_rounds(fx: Fixture) -> list:
    return [None] * scaled(20_000, fx.scale, floor=100)


@probe("core.scheduler.shared", "core.scheduler.shared.alloc_free_us")
def scheduler_shared(fx: Fixture) -> dict:
    from repro.core.scheduler import SharedMemoryScheduler

    node = HybridPaper.NODE
    sched = SharedMemoryScheduler(node["n_gpus"], node["max_queue_length"])
    seconds = per_item(lambda _: sched.sche_free(sched.sche_alloc()), _alloc_free_rounds(fx))
    return {"core.scheduler.shared.alloc_free_us": seconds * 1e6}


@probe("core.scheduler.predictive", "core.scheduler.predictive.alloc_free_us")
def scheduler_predictive(fx: Fixture) -> dict:
    from repro.core.scheduler import PredictiveScheduler

    node = HybridPaper.NODE
    sched = PredictiveScheduler(node["n_gpus"], node["max_queue_length"])
    seconds = per_item(
        lambda _: sched.sche_free(sched.sche_alloc(cost_s=1.0e-3), cost_s=1.0e-3),
        _alloc_free_rounds(fx),
    )
    return {"core.scheduler.predictive.alloc_free_us": seconds * 1e6}


@probe("core.paramspace", "core.paramspace.build_tasks_ms")
def build_tasks(fx: Fixture) -> dict:
    from repro.bench.workloads import paper_workload

    n = scaled(HybridPaper.N_POINTS, fx.scale)
    return {"core.paramspace.build_tasks_ms": timed(lambda: paper_workload(n)) * 1e3}


# -- service: one probe per public call a request crosses ----------------
@probe("service.loadgen", "service.loadgen.generate_us_per_request")
def loadgen(fx: Fixture) -> dict:
    from repro.service.loadgen import generate_trace

    n = len(fx.cold[1])
    spec = cold_spec(fx.seed, n)
    return {
        "service.loadgen.generate_us_per_request": timed(lambda: generate_trace(spec)) / n * 1e6
    }


@probe("service.requests.key", "service.requests.key_us")
def request_key(fx: Fixture) -> dict:
    return {"service.requests.key_us": per_item(lambda r: r.key, fx.cold_requests[:50]) * 1e6}


@probe("service.requests.compile_tasks", "service.requests.compile_tasks_us")
def request_compile_tasks(fx: Fixture) -> dict:
    """Warm plan cache: the warm-up sweep compiled the plan."""
    from repro.service.requests import compile_tasks

    seconds = per_item(lambda r: compile_tasks(r, fx.service_db), fx.cold_requests[:50])
    return {"service.requests.compile_tasks_us": seconds * 1e6}


@probe("service.requests.compile_group_tasks", "service.requests.compile_group_tasks_us")
def request_compile_group_tasks(fx: Fixture) -> dict:
    from repro.service.requests import compile_group_tasks

    seconds = timed(lambda: compile_group_tasks(fx.burst_group, fx.service_db, spread=True))
    return {"service.requests.compile_group_tasks_us": seconds * 1e6}


@probe("service.requests.payload", "service.requests.payload_us")
def request_payload(fx: Fixture) -> dict:
    from repro.service.requests import request_spectrum

    seconds = per_item(
        lambda r: request_spectrum((r, *fx.service_scope)), fx.cold_requests[:50]
    )
    return {"service.requests.payload_us": seconds * 1e6}


@probe("service.requests.family_payload", "service.requests.family_payload_us_per_row")
def request_family_payload(fx: Fixture) -> dict:
    from repro.service.requests import family_spectra

    seconds = timed(lambda: family_spectra((fx.burst_group, *fx.service_scope)))
    return {"service.requests.family_payload_us_per_row": seconds / len(fx.burst_group) * 1e6}


@probe("service.broker.cold", "service.broker.cold_us_per_request",
       "service.broker.rejections", "service.broker.retries")
def broker_cold(fx: Fixture) -> dict:
    seconds, broker, _ = fx.cold_play
    report = broker.report()
    return {
        "service.broker.cold_us_per_request": seconds / len(fx.cold_requests) * 1e6,
        "service.broker.rejections": report["rejections"],
        "service.broker.retries": report["retries"],
    }


@probe("service.broker.residual", "service.broker.residual_share")
def broker_residual(fx: Fixture) -> dict:
    """How much of the cold trace's host time the three calls the broker
    makes per request — ``compile_tasks``, ``HybridRunner.run``, the
    payload — do *not* explain when timed alone: the broker / cache /
    coalescer / clock glue that cannot be timed from outside.  Reported
    as is (one hybrid run per request has more fixed cost than the
    broker's batches, so it may be negative)."""
    from repro.core.hybrid import HybridRunner
    from repro.service.requests import compile_tasks, request_spectrum

    cfg = fx.service_config
    explained = 0.0
    for request in fx.cold_requests:
        t0 = time.perf_counter()
        tasks = compile_tasks(request, fx.service_db, with_payload=False)
        HybridRunner(cfg.hybrid).run(tasks)
        request_spectrum((request, *fx.service_scope))
        explained += time.perf_counter() - t0
    return {"service.broker.residual_share": 1.0 - explained / fx.cold_play[0]}


# One trace per reuse tier.
@probe("service.reuse.zipf", "service.broker.zipf_us_per_request", "service.cache.hit_ratio",
       "service.coalesce.coalesced")
def reuse_zipf(fx: Fixture) -> dict:
    trace, config = fx.reuse["zipf"]
    seconds, broker, _ = fx.play(trace, config)
    report = broker.report()
    return {
        "service.broker.zipf_us_per_request": seconds / len(trace) * 1e6,
        "service.cache.hit_ratio": report["cache"]["hit_ratio"],
        "service.coalesce.coalesced": report["coalescer"]["coalesced"],
    }


@probe("approx.lattice.walk", "approx.lattice.walk_us_per_request", "approx.lattice.hit_rate",
       "approx.lattice.node_evals")
def reuse_walk(fx: Fixture) -> dict:
    trace, config = fx.reuse["walk"]
    seconds, broker, _ = fx.play(trace, config)
    lattice = broker.report()["lattice"]
    return {
        "approx.lattice.walk_us_per_request": seconds / len(trace) * 1e6,
        "approx.lattice.hit_rate": lattice["hit_ratio"],
        "approx.lattice.node_evals": lattice["node_evals"],
    }


@probe("service.batching.burst", "service.batching.burst_us_per_request",
       "service.batching.width_mean", "service.batching.groups")
def reuse_burst(fx: Fixture) -> dict:
    trace, config = fx.reuse["burst"]
    seconds, broker, _ = fx.play(trace, config)
    report = broker.report()
    return {
        "service.batching.burst_us_per_request": seconds / len(trace) * 1e6,
        "service.batching.width_mean": report["batch_width_mean"],
        "service.batching.groups": report["megabatch_groups"],
    }


# -- obs: the cold trace replayed with tracer, tsdb and anomaly detector
# attached, then each exporter alone on what that run recorded ----------
@probe("obs.stack", "obs.overhead_ratio", "obs.tracer.events", "obs.tsdb.scrapes")
def obs_stack(fx: Fixture) -> dict:
    """Base of ``overhead_ratio``: the obs-off run of the same trace."""
    observed_s, _, tracer, tsdb = fx.observed_play
    return {
        "obs.overhead_ratio": observed_s / fx.cold_play[0],
        "obs.tracer.events": len(tracer.events),
        "obs.tsdb.scrapes": tsdb.n_scrapes,
    }


@probe("obs.tracer", "obs.tracer.span_us")
def obs_tracer(fx: Fixture) -> dict:
    from repro.obs import EventTracer

    tracer = EventTracer()
    track = tracer.track("probe", "spans")
    seconds = per_item(
        lambda _: tracer.span(track, "span", 0.0, 1.0),
        [None] * scaled(20_000, fx.scale, floor=100),
    )
    return {"obs.tracer.span_us": seconds * 1e6}


@probe("obs.prom", "obs.prom.registry_build_ms")
def obs_prom(fx: Fixture) -> dict:
    return {"obs.prom.registry_build_ms": timed(fx.observed_play[1].registry) * 1e3}


@probe("obs.tsdb", "obs.tsdb.scrape_ms")
def obs_tsdb(fx: Fixture) -> dict:
    from repro.obs import TimeSeriesStore

    registry = fx.observed_play[1].registry()
    store = TimeSeriesStore()
    clock = iter(range(1, 10**6))
    seconds = timed(lambda: store.scrape(registry, float(next(clock))))
    return {"obs.tsdb.scrape_ms": seconds * 1e3}


@probe("obs.anomaly", "obs.anomaly.scan_ms")
def obs_anomaly(fx: Fixture) -> dict:
    from repro.obs import AnomalyDetector

    tsdb = fx.observed_play[3]
    return {"obs.anomaly.scan_ms": timed(lambda: AnomalyDetector().scan(tsdb)) * 1e3}


@probe("obs.export", "obs.export.chrome_trace_ms")
def obs_export(fx: Fixture) -> dict:
    from repro.obs import to_chrome

    tracer = fx.observed_play[2]
    return {"obs.export.chrome_trace_ms": timed(lambda: to_chrome(tracer), repeat=1) * 1e3}


@probe("obs.profile", "obs.profile.build_ms")
def obs_profile(fx: Fixture) -> dict:
    from repro.obs import Profile

    tracer = fx.observed_play[2]
    return {"obs.profile.build_ms": timed(lambda: Profile.from_tracer(tracer), repeat=1) * 1e3}


# -- cli: cold start of the command line, in fresh interpreters ----------
def _interpreter_start_s(*argv: str) -> float:
    def once() -> None:
        subprocess.run(
            [sys.executable, *argv], check=True, env=os.environ,
            stdout=subprocess.DEVNULL, timeout=60,
        )

    return timed(once, repeat=3, warm=0)


@probe("cli.import", "cli.import_s")
def cli_import(fx: Fixture) -> dict:
    return {"cli.import_s": _interpreter_start_s("-c", "import repro.cli")}


@probe("cli.help", "cli.help_s")
def cli_help(fx: Fixture) -> dict:
    return {"cli.help_s": _interpreter_start_s("-m", "repro", "--help")}


def run_probes(
    seed: int, scale: float, rec: SpanRecorder
) -> tuple[dict[str, float | None], dict[str, str]]:
    """Run every probe; returns (values, reasons for the ``None`` ones)."""
    fx = Fixture(seed, scale)
    values: dict[str, float | None] = {}
    unavailable: dict[str, str] = {}
    for span_name, fn, names in PROBES:
        try:
            with rec.span(span_name):
                got = fn(fx)
            values.update({name: float(got[name]) for name in names})
        except Exception as exc:  # noqa: BLE001 - the boundary that must keep running
            reason = f"{type(exc).__name__}: {exc}"
            print(f"probe {span_name} unavailable: {reason}", file=sys.stderr)
            for name in names:
                values[name] = None
                unavailable[name] = reason
    return values, unavailable
