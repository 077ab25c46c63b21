"""Deterministic discrete-event engine with generator processes.

A tiny SimPy-flavoured kernel, just large enough for the hybrid runner:

- :class:`SimClock` owns virtual time and the event heap;
- a *process* is a generator that yields either a float (sleep for that
  many virtual seconds), a :class:`Signal` (block until fired), or another
  :class:`ProcessHandle` (join);
- :class:`Signal` is a one-shot broadcast: every waiter resumes when it
  fires, and waits on an already-fired signal return immediately.

Determinism: the heap is ordered by ``(time, scheduled_at, seq)`` — fire
time, push time, a monotone sequence number.  ``seq`` is monotone in push
time, so ordinary pushes run in schedule order at equal times and a given
workload always produces the identical trace — the property that makes
every figure reproducible.  :meth:`SimClock.call_chain` alone declares a
later ``scheduled_at``: one event sorting where a chain's last link would.

Wake-up protocol.  A *waiter* is anything with a ``_step(payload)``; to
wake one is to push ``(now, now, seq, waiter._step, payload)``, the entry
:meth:`Signal.fire` pushes per waiter, and a hot loop may push it onto
``clock._heap`` itself (bumping ``clock._seq``) instead of building a
one-waiter signal.  A generator started by :meth:`SimClock.start` is
resumed by its own C-level ``send``: before each ``yield`` it pushes the
entry a handle's step would, ``(now + d, now, seq, send, None)`` for a
sleep of ``d`` (:meth:`SimClock.wake_after` refuses what a handle
refuses).  It ends on a bare ``yield``, signalling its joiners itself:
a return would raise ``StopIteration`` out of :meth:`SimClock.run`.
"""

from __future__ import annotations

from heapq import heappop, heappush
from math import inf
from typing import Callable, Generator, Optional

__all__ = ["SimClock", "Signal", "ProcessHandle"]


class Signal:
    """One-shot event; processes yield it to block until :meth:`fire`.

    ``payload`` carries an arbitrary result to waiters (e.g. a GPU task's
    output array).
    """

    __slots__ = ("name", "fired", "payload", "_waiters")

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.fired = False
        self.payload: object = None
        self._waiters: list["ProcessHandle"] = []

    def fire(self, clock: "SimClock", payload: object = None) -> None:
        """Fire the signal, waking all waiters at the current time.

        Promised: each waiter wakes at this instant by its own push, in
        the order the waiters began waiting.  Not promised: that they run
        in that order, so what must precede every waiter belongs before
        the fire (tests break same-instant ties at random)."""
        if self.fired:
            raise RuntimeError(f"signal {self.name!r} fired twice")
        self.fired = True
        self.payload = payload
        waiters = self._waiters
        if waiters:
            self._waiters = []
            for proc in waiters:
                clock._schedule(0.0, proc._step, payload)


class ProcessHandle:
    """A running generator process; yield it from another process to join."""

    def __init__(self, clock: "SimClock", gen: Generator, name: str) -> None:
        self._clock = clock
        self._gen = gen
        self.name = name
        self.done = Signal(name=f"{name}.done")
        self.alive = True
        self.result: object = None

    def _step(self, send_value: object = None) -> None:
        try:
            target = self._gen.send(send_value)
        except StopIteration as stop:
            self.alive = False
            self.result = stop.value
            self.done.fire(self._clock, stop.value)
            return
        # The common yields come first: a plain float sleep and a wait on
        # a Signal.
        kind = type(target)
        if kind is float and 0.0 <= target < inf:
            self._clock._schedule(target, self._step, None)
            return
        if kind is not Signal:
            if isinstance(target, ProcessHandle):
                target = target.done  # join = wait for the done signal
            elif isinstance(target, (float, int)):  # ints, NumPy floats, refusals
                self._clock.wake_after(target, self._step, self.name)
                return
            elif not isinstance(target, Signal):
                raise TypeError(
                    f"process {self.name!r} yielded unsupported {target!r}; "
                    "yield a delay, a Signal, or a ProcessHandle"
                )
        if target.fired:
            self._clock._schedule(0.0, self._step, target.payload)
        else:
            target._waiters.append(self)


class SimClock:
    """Virtual time plus the deterministic event heap."""

    def __init__(self) -> None:
        self.now: float = 0.0
        self._heap: list[tuple[float, float, int, Callable, object]] = []
        self._seq = 0

    def _schedule(self, delay: float, fn: Callable, arg: object) -> None:
        self._seq += 1
        now = self.now
        heappush(self._heap, (now + delay, now, self._seq, fn, arg))

    def call_at(self, delay: float, fn: Callable[[object], None], arg: object) -> None:
        """Run ``fn(arg)`` ``delay`` seconds from now — the raw heap event."""
        if not 0 <= delay < inf:
            raise ValueError("delay must be non-negative and finite")
        self._seq += 1
        now = self.now
        heappush(self._heap, (now + delay, now, self._seq, fn, arg))

    def wake_after(self, delay: float, fn: Callable[[object], None], name: str) -> None:
        """Push ``fn(None)`` ``delay`` seconds on: process ``name``'s
        wake-up from a sleep of ``delay``, refused if it must be."""
        if not 0 <= delay < inf:
            raise ValueError(
                f"process {name!r} yielded negative or non-finite delay {delay}"
            )
        self._schedule(float(delay), fn, None)

    def call_chain(
        self, hops: tuple[float, ...], fn: Callable[[object], None], arg: object
    ) -> None:
        """Run ``fn(arg)`` where a chain of events, each pushing the next
        ``hops[i]`` seconds on, would run its last link — as one event.
        Fire time is ``((now + h0) + h1) + ...`` in that float order and
        ``scheduled_at`` the time the last link would have been pushed, so
        the event keeps the chain's place among events at its fire time
        unless one of them was also pushed in that very instant (then
        ``seq`` decides, and the chain's is older than the link's).  The
        last hop must be positive: a +0 link belongs behind the +0 events
        already pushed in its instant, which no key can say."""
        scheduled_at = fire = self.now
        for hop in hops:
            if not 0 <= hop < inf:
                raise ValueError("hops must be non-negative and finite")
            scheduled_at, fire = fire, fire + hop
        if not fire > scheduled_at:
            raise ValueError("the last hop of a chain must be positive")
        self._seq += 1
        heappush(self._heap, (fire, scheduled_at, self._seq, fn, arg))

    def spawn(self, gen: Generator, name: str = "proc") -> ProcessHandle:
        """Start a generator process immediately (first step at t = now)."""
        handle = ProcessHandle(self, gen, name)
        self._schedule(0.0, handle._step, None)
        return handle

    def start(self, gen: Generator) -> None:
        """Start a generator that drives itself (see the module docstring):
        at t = now, as one event, its first ``yield`` receives its own
        ``send``, the callable every later wake-up of it pushes."""
        gen.send(None)
        self.call_at(0.0, gen.send, gen.send)

    def run(self, until: Optional[float] = None) -> float:
        """Process events until the heap drains (or ``until`` is passed).

        Returns the final virtual time.  Raises ``RuntimeError`` if time
        would move backwards (a corrupted heap — should be impossible, but
        cheap to assert and invaluable when it is not).
        """
        heap = self._heap
        while heap:
            if until is not None and heap[0][0] > until:
                self.now = until
                return self.now
            t, _scheduled_at, _seq, fn, arg = heappop(heap)
            if t < self.now:
                raise RuntimeError(f"causality violation: {t} < {self.now}")
            self.now = t
            fn(arg)
        return self.now
