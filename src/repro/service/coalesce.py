"""In-flight request deduplication.

When N identical requests are concurrently outstanding, only the first
one enters the admission queue; the other N-1 *attach* to its in-flight
entry and share the single hybrid run's result.  Attachment is free of
queue slots, so coalesced requests can never be rejected by
backpressure — they cost nothing to admit.

The coalescer is a plain deterministic map; the broker owns the locking
discipline (there is none to need: everything runs on one SimClock).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.cluster.simclock import Signal
from repro.obs.tracer import NULL_TRACER

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.service.broker import Ticket
    from repro.service.requests import SpectrumRequest

__all__ = ["InFlight", "RequestCoalescer"]


@dataclass
class InFlight:
    """One unique request currently queued or executing."""

    key: str
    request: "SpectrumRequest"
    lane: str
    opened_at: float
    done: Signal
    #: Every ticket (leader first) waiting on this entry's result.
    subscribers: list["Ticket"] = field(default_factory=list)


class RequestCoalescer:
    """Tracks unique in-flight requests by content address."""

    def __init__(self, tracer=None, track: int = 0) -> None:
        self._inflight: dict[str, InFlight] = {}
        self.opened = 0
        self.coalesced = 0
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.track = track

    def __len__(self) -> int:
        return len(self._inflight)

    def lookup(self, key: str) -> Optional[InFlight]:
        return self._inflight.get(key)

    def open(
        self, key: str, request: "SpectrumRequest", lane: str, now: float
    ) -> InFlight:
        """Register a new unique in-flight request (the leader's entry)."""
        if key in self._inflight:
            raise ValueError(f"request {key} is already in flight")
        entry = InFlight(
            key=key,
            request=request,
            lane=lane,
            opened_at=now,
            done=Signal(name=f"inflight.{key[:8]}"),
        )
        self._inflight[key] = entry
        self.opened += 1
        if self.tracer.enabled:
            self.tracer.instant(
                self.track,
                "coalesce.open",
                cat="coalesce",
                args={"key": key[:8], "lane": lane},
            )
        return entry

    def attach(self, entry: InFlight, ticket: "Ticket") -> None:
        """Join a follower ticket to an existing in-flight entry."""
        entry.subscribers.append(ticket)
        self.coalesced += 1
        if self.tracer.enabled:
            self.tracer.instant(
                self.track,
                "coalesce.attach",
                cat="coalesce",
                args={"key": entry.key[:8], "subscribers": len(entry.subscribers)},
            )

    def resolve(self, key: str) -> InFlight:
        """Close an entry once its result exists; returns it for fan-out."""
        entry = self._inflight.pop(key, None)
        if entry is None:
            raise KeyError(f"no in-flight request with key {key}")
        if self.tracer.enabled:
            self.tracer.instant(
                self.track,
                "coalesce.resolve",
                cat="coalesce",
                args={"key": key[:8], "subscribers": len(entry.subscribers)},
            )
        return entry
