"""A plan call across real ranks: its grid points, or one point's bins.

The paper's CPU side is MPI ranks that each own **grid points**.  A
:class:`RankPool` is that, one node wide: persistent forked helper
processes, one per usable CPU beyond the caller's.  :meth:`RankPool.gather`
is the only entry: it cuts ``items`` — a list of grid points or a
``range`` of bins — into contiguous slices balanced by the caller's own
price of each item, runs slice 0 inline while the ranks run theirs, and
joins the parts **in input order**.  It requires of ``fn`` what
:meth:`repro.physics.plan.SpectrumPlan.execute_many` guarantees on either
axis — result ``j`` depends on item ``j`` alone, bit for bit — so nothing
downstream can tell which process computed a row or a bin.

**Selection** is by observation only; there is no switch.  A call is cut
into ``min(width(sum(work)), len(items))`` slices and runs
``fn(items, *args)`` as is — the code path of a host with one CPU — when
that is under two, when the platform has no ``fork``, when the caller is
not the process's only thread (a threaded process is never forked, and a
pool already in a call is busy: serial), when a request does not pickle,
or after quarantine.  The caller picks the axis by ``width`` too.

**Protocol.**  A rank is forked at the first call that wants it, with a
pipe each way, and serves ``pickle`` frames until it reads EOF — which
the caller's exit, however it happens, delivers; a rank holds no other
rank's pipe ends, so none keeps another alive.  Request:
``(fn, items[a:b], args)``; reply: ``b - a`` results of the kind the
caller's own slice returned (docs/ARCHITECTURE.md section 11 has the
measured choices).

**Failure semantics.**  A rank that is dead, hangs up, or answers with
anything else is a *fault*: the rank is killed and reaped, its slice —
and nothing else — is recomputed inline (same bits: same function, same
items), and the next call forks a replacement.  Three consecutive faults
quarantine the pool to serial for the rest of the process.  An exception
raised *by* ``fn`` in a rank travels the same road, so the caller meets
it where a serial run would.  Every item reaches exactly one result.
"""

from __future__ import annotations

import os
import pickle
import signal
import threading
from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate
from typing import BinaryIO, Callable, NamedTuple, Sequence

import numpy as np

__all__ = ["POOL", "WORK_FLOOR", "RankPool", "RankStats", "split_bounds", "usable_cpus"]

#: Smallest priced work of a slice — in the unit ``gather``'s callers
#: price in, the plan's in-window (level, bin) pairs — worth a hand-off.
#: A hand-off costs ~0.2 ms (pickle the plan's 40 kB, two pipe
#: crossings, the reply) and the cheapest pair, Simpson's, ~22 ns:
#: measured, two slices tie with one at ~20 k pairs a slice and lead by
#: 1.4x from 40 k.  The floor keeps a slice >= 10 hand-offs of work
#: (docs/ARCHITECTURE.md section 11 has the bins x width table).
WORK_FLOOR = 100_000

#: Consecutive faults after which the pool stops trying.
_MAX_STRIKES = 3


def usable_cpus() -> int:
    """CPUs this process may run on: the affinity mask where the platform
    has one — ``taskset`` and a container's cpuset shrink it,
    ``os.cpu_count()`` ignores both."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


@dataclass
class RankStats:
    """Monotonic counters of one :class:`RankPool`."""

    #: Rank processes started (first use and replacements).
    forks: int = 0
    #: Slices handed to a rank.
    slices: int = 0
    #: Slices a rank failed to answer.
    faults: int = 0
    #: Items of those slices — points or bins, whichever axis was cut —
    #: recomputed by the caller.
    reissued_items: int = 0


class _Rank(NamedTuple):
    pid: int
    tx: BinaryIO
    rx: BinaryIO


def split_bounds(work: Sequence[int], n: int) -> list[int]:
    """``n + 1`` ascending bounds of ``n`` non-empty contiguous slices of
    ``len(work) >= n`` items, their summed ``work`` as equal as the order
    allows (slice ``k`` ends where the running sum first reaches
    ``k/n`` of the total)."""
    csum = list(accumulate(work))
    bounds = [0]
    for k in range(1, n):
        cut = bisect_left(csum, csum[-1] * k / n) + 1
        bounds.append(min(max(cut, bounds[-1] + 1), len(work) - (n - k)))
    return bounds + [len(work)]


def _serve(rx: BinaryIO, tx: BinaryIO) -> None:
    """A rank's life: answer requests until the caller hangs up."""
    while True:
        try:
            fn, items, args = pickle.load(rx)
        except EOFError:
            return
        try:
            reply = fn(items, *args)
        except Exception:
            # Not a reply: the caller recomputes the slice and raises
            # this exception itself, in its own frame.
            reply = None
        pickle.dump(reply, tx, pickle.HIGHEST_PROTOCOL)
        tx.flush()


class RankPool:
    """Persistent forked ranks serving slices of one caller's axis."""

    def __init__(self) -> None:
        self.stats = RankStats()
        #: True once three consecutive faults retired the pool.
        self.quarantined = False
        self._ranks: list[_Rank] = []
        self._strikes = 0
        self._busy = threading.Lock()

    def width(self, work: int) -> int:
        """Slices a call of ``work`` priced in all is worth, by what can
        be observed now (at most one per usable CPU)."""
        if self.quarantined or not hasattr(os, "fork") or threading.active_count() != 1:
            return 1
        return max(1, min(usable_cpus(), int(work) // WORK_FLOOR))

    def gather(
        self, fn: Callable[..., Sequence], items: Sequence, work: Sequence[int], *args: object
    ) -> Sequence:
        """``fn(items, *args)``, computed as slices on the caller and the
        ranks.  ``work[j]`` prices ``items[j]``; ``fn`` and ``args`` must
        pickle, and ``fn`` must return one result per item — a list, or an
        array whose first axis is the items — each a function of its own
        item alone."""
        n = min(self.width(sum(work)), len(work))
        if n < 2 or not self._busy.acquire(blocking=False):
            return fn(items, *args)
        try:
            n = min(n, 1 + self._fill(n - 1))
            if n < 2:
                return fn(items, *args)
            bounds = split_bounds(work, n)
            try:
                requests = [
                    pickle.dumps((fn, items[a:b], args), pickle.HIGHEST_PROTOCOL)
                    for a, b in zip(bounds[1:-1], bounds[2:])
                ]
            except (pickle.PicklingError, TypeError, AttributeError):
                return fn(items, *args)
            return self._scatter(fn, items, args, bounds, requests)
        finally:
            self._busy.release()

    def close(self) -> None:
        """Kill and reap every rank; the next eligible call forks anew."""
        for rank in list(self._ranks):
            self._discard(rank)

    # ------------------------------------------------------------------
    def _fill(self, want: int) -> int:
        """Fork up to ``want`` ranks; how many there are."""
        while len(self._ranks) < want and not self.quarantined:
            try:
                self._fork()
            except OSError:  # no process or descriptor to be had
                self._strike()
                break
        return len(self._ranks)

    def _fork(self) -> None:
        fds: list[int] = []
        try:
            fds += os.pipe()
            fds += os.pipe()
            pid = os.fork()
        except OSError:
            for fd in fds:
                os.close(fd)
            raise
        ours_rx, theirs_tx, theirs_rx, ours_tx = fds
        if pid == 0:
            status = 1
            try:
                # The terminal's ^C reaches the whole process group; a
                # rank leaves by EOF when the caller does.
                signal.signal(signal.SIGINT, signal.SIG_IGN)
                os.close(ours_rx)
                os.close(ours_tx)
                for rank in self._ranks:
                    rank.tx.close()
                    rank.rx.close()
                _serve(os.fdopen(theirs_rx, "rb"), os.fdopen(theirs_tx, "wb"))
                status = 0
            finally:
                # Never unwind into the caller's frames, atexit handlers
                # or unflushed buffers this process only inherited.
                os._exit(status)
        os.close(theirs_rx)
        os.close(theirs_tx)
        self._ranks.append(_Rank(pid, os.fdopen(ours_tx, "wb"), os.fdopen(ours_rx, "rb")))
        self.stats.forks += 1

    def _scatter(
        self,
        fn: Callable[..., Sequence],
        items: Sequence,
        args: tuple,
        bounds: list[int],
        requests: list[bytes],
    ) -> Sequence:
        """Slice ``k >= 1`` to rank ``k - 1``, slice 0 here, then the
        replies in order — or the slice again, here, where there is none."""
        ranks = self._ranks[: len(requests)]
        try:
            sent = [self._send(rank, request) for rank, request in zip(ranks, requests)]
            parts = [fn(items[: bounds[1]], *args)]
            for rank, a, b, ok in zip(ranks, bounds[1:], bounds[2:], sent):
                part = self._receive(rank, parts[0], b - a) if ok else None
                if part is None:
                    self._discard(rank)
                    self.stats.faults += 1
                    self.stats.reissued_items += b - a
                    self._strike()
                    part = fn(items[a:b], *args)
                else:
                    self._strikes = 0
                parts.append(part)
        except BaseException:
            # A reply may still be in flight; a rank that kept it would
            # answer the next call with it.
            for rank in ranks:
                self._discard(rank)
            raise
        if isinstance(parts[0], np.ndarray):
            return np.concatenate(parts)
        return [result for part in parts for result in part]

    def _send(self, rank: _Rank, request: bytes) -> bool:
        self.stats.slices += 1
        try:
            rank.tx.write(request)
            rank.tx.flush()
        except OSError:  # died since its last reply
            return False
        return True

    @staticmethod
    def _receive(rank: _Rank, own: Sequence, n: int) -> Sequence | None:
        """The rank's reply if it is ``n`` results of the kind ``own``
        (the caller's slice) holds, else ``None``."""
        try:
            reply = pickle.load(rank.rx)
        except Exception:
            # EOF, a frame cut short, bytes that are no pickle: whatever
            # the damage, there is no reply, and the fault is counted.
            return None
        kind = (type(own), getattr(own, "shape", ())[1:])
        fits = (type(reply), getattr(reply, "shape", ())[1:]) == kind and len(reply) == n
        return reply if fits else None

    def _strike(self) -> None:
        self._strikes += 1
        if self._strikes >= _MAX_STRIKES:
            self.quarantined = True
            self.close()

    def _discard(self, rank: _Rank) -> None:
        if rank not in self._ranks:
            return
        self._ranks.remove(rank)
        for pipe in (rank.tx, rank.rx):
            try:
                pipe.close()
            except OSError:  # unflushed bytes for a dead reader
                pass
        # Unreaped, the pid is still ours: nothing else can be hit.
        try:
            os.kill(rank.pid, signal.SIGKILL)
            os.waitpid(rank.pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass


#: The process's ranks, shared by every plan.
POOL = RankPool()
