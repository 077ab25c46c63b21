"""Continuous-batching assembly: fold a drained backlog into megabatches.

The broker's workers historically dispatched each queued request as its
own set of ion tasks — under survey traffic the device executed many tiny
plans back-to-back and sat idle between launches.  Continuous batching
(the spectral-service analogue of continuous batching in LLM serving)
instead groups the *compatible* part of the backlog — requests whose
:meth:`~repro.service.requests.SpectrumRequest.family_key` matches, i.e.
identical db/grid fingerprints, ion subset, quadrature rule and tail
tolerance, differing only in temperature — into one megabatch whose ion
tasks each cover every temperature of the group.

The assembler is deliberately pure and order-preserving: entries arrive
in drain order (interactive lane strictly before survey), groups are
keyed by family and capped at ``width_max``, and group dispatch order is
the order each family was first seen.  Determinism of the assembled
groups is what lets the batched dispatch path stay bit-identical to
one-request-at-a-time dispatch.

The admission *window* — how long a worker lingers to let compatible
arrivals accumulate — lives in the broker's dispatch loop, not here: the
wait interacts with the clock and lane fairness (an interactive arrival
short-circuits it), while the grouping itself is a pure function of the
drained entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.service.coalesce import InFlight
from repro.service.requests import SpectrumRequest

__all__ = ["BatchAssembler", "MegabatchGroup"]


@dataclass
class MegabatchGroup:
    """One assembled megabatch: same-family entries, drain-ordered."""

    entries: tuple[InFlight, ...]
    #: Trace context, stamped by the broker's compile stage when tracing
    #: is on: the group's span id and that span's args.
    span_id: int = 0
    meta: Optional[dict] = None

    @property
    def width(self) -> int:
        """Temperatures riding this group's fused launch."""
        return len(self.entries)

    @property
    def requests(self) -> tuple[SpectrumRequest, ...]:
        return tuple(entry.request for entry in self.entries)


class BatchAssembler:
    """Groups a drained backlog by plan-family compatibility.

    ``width_max`` caps how many temperatures one fused launch carries —
    a family wider than the cap spills into consecutive groups (each a
    full-width launch) rather than growing without bound.
    """

    def __init__(self, width_max: int = 16) -> None:
        if width_max < 1:
            raise ValueError("width_max must be >= 1")
        self.width_max = width_max

    def assemble(self, entries: Sequence[InFlight]) -> list[MegabatchGroup]:
        """Partition ``entries`` into family groups of at most
        ``width_max``, preserving drain order within each group and
        first-seen order across groups.

        Because the broker drains the interactive lane first, any group
        containing an interactive entry sorts ahead of pure-survey
        groups that entered the backlog later — fairness falls out of
        order preservation.
        """
        order: list[list[InFlight]] = []
        open_group: dict[str, list[InFlight]] = {}
        for entry in entries:
            family = entry.request.family_key
            group = open_group.get(family)
            if group is None or len(group) >= self.width_max:
                group = []
                open_group[family] = group
                order.append(group)
            group.append(entry)
        return [MegabatchGroup(tuple(group)) for group in order]
