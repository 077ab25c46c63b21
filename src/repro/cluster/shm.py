"""Algorithm 1 on *live* processes and real shared memory.

The event simulation answers the paper's quantitative questions; this
module answers a different one — does the scheduler actually work as a
concurrent program?  It runs N worker processes and one server process
per "GPU" (executing the vectorized batch kernel, the same role the CUDA
device plays).  The workers share one
:class:`~repro.core.scheduler.SharedMemoryScheduler` whose load and
history lists are ``multiprocessing`` shared arrays, and call its
SCHE-ALLOC / SCHE-FREE under one process lock (the paper's atomic ops).

The integrand family is fixed (the Kramers-collapsed RRC form
``scale * exp(-(x - edge) / kt)`` above its edge) because closures do not
pickle; it is the same integrand the spectral code integrates.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import queue
import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.scheduler import NO_DEVICE, SharedMemoryScheduler
from repro.quadrature.batch import batch_simpson
from repro.quadrature.qags import qags
from repro.quadrature.simpson import _check_pieces

__all__ = ["LiveTask", "LiveRunResult", "LiveHybridRunner", "rrc_like_integrand"]


def rrc_like_integrand(edge: float, kt: float, scale: float):
    """The Kramers-collapsed RRC integrand as a picklable closure factory."""

    def f(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        return np.where(x >= edge, scale * np.exp(-(x - edge) / kt), 0.0)

    return f


@dataclass(frozen=True)
class LiveTask:
    """One live integration task: many bins of one RRC-like integrand."""

    task_id: int
    lo: np.ndarray
    hi: np.ndarray
    edge: float = 0.5
    kt: float = 1.0
    scale: float = 1.0
    pieces: int = 64

    def __post_init__(self) -> None:
        _check_pieces(self.pieces)
        if np.shape(self.lo) != np.shape(self.hi):
            raise ValueError(
                f"lo and hi differ in shape: {np.shape(self.lo)} vs {np.shape(self.hi)}"
            )

    def gpu_compute(self) -> np.ndarray:
        """The device-side computation: one vectorized batch call."""
        f = rrc_like_integrand(self.edge, self.kt, self.scale)
        lo = np.maximum(self.lo, self.edge)
        hi = np.maximum(self.hi, lo)
        return batch_simpson(f, lo, hi, pieces=self.pieces)

    def cpu_compute(self) -> np.ndarray:
        """The fallback: scalar adaptive QAGS per bin (slow on purpose)."""
        f = rrc_like_integrand(self.edge, self.kt, self.scale)
        out = np.zeros(len(self.lo))
        for i, (a, b) in enumerate(zip(self.lo, self.hi)):
            a = max(float(a), self.edge)
            if b <= a:
                continue
            out[i] = qags(f, a, float(b), epsabs=1e-30, epsrel=1e-10).value
        return out


@dataclass
class LiveRunResult:
    """Outcome of one live run."""

    wall_s: float
    gpu_tasks: int
    cpu_tasks: int
    totals: dict[int, float] = field(default_factory=dict)  # task_id -> sum

    @property
    def gpu_ratio(self) -> float:
        total = self.gpu_tasks + self.cpu_tasks
        return self.gpu_tasks / total if total else 0.0


def _gpu_server(task_queue, reply_queues):
    """One simulated device: executes batch kernels FIFO until sentinel."""
    while True:
        item = task_queue.get()
        if item is None:
            return
        worker_rank, task = item
        reply_queues[worker_rank].put((task.task_id, float(task.gpu_compute().sum())))


def _worker(rank, tasks, sched, lock, device_queues, reply_queue, results_queue):
    """One MPI-rank equivalent: Algorithm 1's per-process loop."""
    totals: dict[int, float] = {}
    for task in tasks:
        with lock:
            device = sched.sche_alloc()
        if device != NO_DEVICE:
            device_queues[device].put((rank, task))
            task_id, total = reply_queue.get()  # synchronous wait
            with lock:
                sched.sche_free(device)
            totals[task_id] = total
        else:
            totals[task.task_id] = float(task.cpu_compute().sum())
    results_queue.put(totals)


class LiveHybridRunner:
    """Run LiveTasks through real processes + shared-memory scheduling."""

    def __init__(
        self,
        n_workers: int = 4,
        n_devices: int = 1,
        max_queue_length: int = 4,
    ) -> None:
        if n_workers < 1 or n_devices < 1:
            raise ValueError("need at least one worker and one device")
        if max_queue_length < 1:
            raise ValueError("maximum queue length must be >= 1")
        self.n_workers = n_workers
        self.n_devices = n_devices
        self.max_queue_length = max_queue_length

    def run(self, tasks: list[LiveTask], timeout_s: float = 120.0) -> LiveRunResult:
        """Execute; tasks are dealt round-robin to workers.

        Raises ``RuntimeError`` as soon as a server or worker dies, or
        when the run ends with a queue slot still held, and
        ``TimeoutError`` when ``timeout_s`` passes first.
        """
        ctx = mp.get_context("fork" if os.name == "posix" else "spawn")
        sched = SharedMemoryScheduler(self.n_devices, self.max_queue_length)
        sched.segment.load = ctx.Array("q", self.n_devices, lock=False)
        sched.segment.history = ctx.Array("q", self.n_devices, lock=False)
        lock = ctx.Lock()
        device_queues = [ctx.Queue() for _ in range(self.n_devices)]
        reply_queues = [ctx.Queue() for _ in range(self.n_workers)]
        results_queue = ctx.Queue()

        servers = [
            ctx.Process(
                target=_gpu_server,
                args=(device_queues[d], reply_queues),
                name=f"device server {d}",
                daemon=True,
            )
            for d in range(self.n_devices)
        ]
        partitions: list[list[LiveTask]] = [[] for _ in range(self.n_workers)]
        for i, task in enumerate(tasks):
            partitions[i % self.n_workers].append(task)
        workers = [
            ctx.Process(
                target=_worker,
                args=(r, partitions[r], sched, lock, device_queues,
                      reply_queues[r], results_queue),
                name=f"worker {r}",
                daemon=True,
            )
            for r in range(self.n_workers)
        ]
        procs = servers + workers

        t0 = time.perf_counter()
        deadline = t0 + timeout_s
        for p in procs:
            p.start()
        totals: dict[int, float] = {}
        reports = 0
        try:
            while reports < self.n_workers:
                try:  # short slices, so a dead process is seen at once
                    totals.update(results_queue.get(timeout=0.1))
                except queue.Empty:
                    dead = [f"{p.name} (exit code {p.exitcode})" for p in procs if p.exitcode]
                    if dead:
                        raise RuntimeError(f"live run failed: {', '.join(dead)} died")
                    if time.perf_counter() > deadline:
                        raise TimeoutError(
                            f"live run: {self.n_workers - reports} of {self.n_workers} "
                            f"workers unfinished after {timeout_s} s"
                        )
                else:
                    reports += 1
        finally:
            for q in device_queues:
                q.put(None)  # stop sentinels
            if reports < self.n_workers:
                for p in procs:  # a failed run's blocked ranks never return
                    p.terminate()
            join_by = time.perf_counter() + 10.0
            for p in procs:
                p.join(timeout=max(0.1, join_by - time.perf_counter()))
            for p in procs:
                if p.is_alive():
                    p.terminate()
        wall = time.perf_counter() - t0
        sched.validate()
        if sched.segment.total_load() != 0:
            raise RuntimeError("live run leaked queue slots at end of run")
        gpu_tasks = sum(sched.histories())  # every admission ran on a device
        return LiveRunResult(wall, gpu_tasks, len(tasks) - gpu_tasks, totals)
