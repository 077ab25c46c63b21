"""Declarative SLO rules evaluated over metrics snapshots on the sim clock.

The metrics registry (PR 3) is write-only: nothing watches it.  This
module closes that loop with a tiny Prometheus-alerting-flavoured rule
engine:

- a :class:`Rule` names a metric family, an optional label selector, a
  comparison, and a threshold — the rule *breaches* whenever
  ``value <op> threshold`` holds for the sampled value;
- :class:`SLOEngine.sample` evaluates every rule against one
  :class:`~repro.obs.prom.MetricsRegistry` snapshot at one virtual
  time; callers decide the cadence (the service broker samples at each
  batch completion, tests drive the clock by hand);
- a breach must persist ``for_s`` virtual seconds before the rule
  *fires* (``inactive -> pending -> firing``), and the first
  non-breaching sample after firing *resolves* it — the same hysteresis
  a Prometheus ``for:`` clause provides;
- ``quantile`` targets a histogram family's q-quantile
  (:meth:`~repro.obs.prom.Histogram.quantile`); a rule without one
  reads a counter or gauge (:meth:`~repro.obs.prom._Scalar.value`).

Every rule compares the registry's current value, so the engine reads
the registry it is handed and keeps no history; postmortems read the
broker's own time-series store (:mod:`repro.obs.flight`).

The no-op path is free: an engine with no rules returns from
:meth:`~SLOEngine.sample` before touching the registry, and the broker
only builds snapshots when an engine with rules is attached — a run
without SLOs is bit-identical to one with an empty engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional

from repro.obs.prom import Histogram, MetricsRegistry

__all__ = ["Rule", "RuleState", "Transition", "SLOEngine"]

_OPS = {
    ">": lambda v, t: v > t,
    ">=": lambda v, t: v >= t,
    "<": lambda v, t: v < t,
    "<=": lambda v, t: v <= t,
}


@dataclass(frozen=True)
class Rule:
    """One alert rule: *breaches* whenever ``value <op> threshold``.

    Attributes
    ----------
    name:
        Stable identifier; transitions and reports key on it.
    metric:
        Metric family name in the registry (e.g.
        ``repro_request_latency_seconds``).
    op, threshold:
        The breach comparison, e.g. ``op=">"``, ``threshold=2.0``
        breaches while the value exceeds 2.
    labels:
        Label selector for multi-series metrics (must name the metric's
        full label set, like every accessor in :mod:`repro.obs.prom`).
    for_s:
        Virtual seconds a breach must persist before the rule fires
        (0 = fire on the first breaching sample).
    quantile:
        When set, the metric must be a histogram and the compared value
        is its q-quantile (0 <= q <= 1).
    """

    name: str
    metric: str
    op: str
    threshold: float
    labels: Mapping[str, str] = field(default_factory=dict)
    for_s: float = 0.0
    quantile: Optional[float] = None

    def __post_init__(self) -> None:
        if self.op not in _OPS:
            raise ValueError(f"unknown op {self.op!r}; expected one of {tuple(_OPS)}")
        if self.for_s < 0.0:
            raise ValueError("for_s must be non-negative")
        if self.quantile is not None and not 0.0 <= self.quantile <= 1.0:
            raise ValueError("quantile must be in [0, 1]")

    def breaches(self, value: float) -> bool:
        return _OPS[self.op](value, self.threshold)

    def describe(self) -> str:
        target = self.metric
        if self.quantile is not None:
            target = f"quantile({self.quantile:g}, {target})"
        if self.labels:
            sel = ",".join(f'{k}="{v}"' for k, v in sorted(self.labels.items()))
            target += "{" + sel + "}"
        return f"{target} {self.op} {self.threshold:g} for {self.for_s:g}s"


#: Rule lifecycle states.
class RuleState:
    INACTIVE = "inactive"
    PENDING = "pending"
    FIRING = "firing"


@dataclass(frozen=True)
class Transition:
    """One state change of one rule, stamped with virtual time."""

    t: float
    rule: str
    frm: str
    to: str
    value: float


@dataclass
class _State:
    state: str = RuleState.INACTIVE
    breach_since: Optional[float] = None
    last_value: float = 0.0
    last_sampled: Optional[float] = None


class SLOEngine:
    """Evaluates rules against registry snapshots; tracks transitions."""

    def __init__(self, rules: tuple[Rule, ...] | list[Rule] = ()) -> None:
        self.rules: list[Rule] = []
        self._states: dict[str, _State] = {}
        self.transitions: list[Transition] = []
        self._listeners: list = []
        for rule in rules:
            self.add(rule)

    def on_transition(self, listener) -> None:
        """Register a callback invoked with each :class:`Transition`.

        Called after the rule's state has advanced, so a listener reading
        :meth:`state` or :meth:`report` sees the post-transition engine —
        the hook the flight recorder arms to dump postmortem bundles on
        ``* -> firing``.
        """
        self._listeners.append(listener)

    def add(self, rule: Rule) -> Rule:
        if rule.name in self._states:
            raise ValueError(f"rule {rule.name!r} already registered")
        self.rules.append(rule)
        self._states[rule.name] = _State()
        return rule

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def sample(self, registry: MetricsRegistry, now: float) -> None:
        """Evaluate every rule against one snapshot at virtual ``now``."""
        if not self.rules:  # the zero-overhead no-op path
            return
        for rule in self.rules:
            state = self._states[rule.name]
            value = self._value(rule, registry)
            state.last_value = value
            state.last_sampled = now
            self._advance(rule, state, value, now)

    def _value(self, rule: Rule, registry: MetricsRegistry) -> float:
        """The registry's current value for ``rule`` (0 for an unset
        label set); KeyError for a missing metric, TypeError for the
        wrong kind, ValueError for an incomplete label selector."""
        metric = registry.get(rule.metric)
        is_histogram = isinstance(metric, Histogram)
        if rule.quantile is not None:
            if not is_histogram:
                raise TypeError(
                    f"rule {rule.name!r}: quantile target {rule.metric!r} "
                    "is not a histogram"
                )
            return metric.quantile(rule.quantile, **rule.labels)
        if is_histogram:
            raise TypeError(
                f"rule {rule.name!r}: {rule.metric!r} is a histogram; "
                "set quantile to compare one of its quantiles"
            )
        return metric.value(**rule.labels)

    def _advance(self, rule: Rule, state: _State, value: float, now: float) -> None:
        breached = rule.breaches(value)
        if breached:
            if state.state == RuleState.INACTIVE:
                state.breach_since = now
                self._transition(rule, state, RuleState.PENDING, now, value)
            if (
                state.state == RuleState.PENDING
                and now - state.breach_since >= rule.for_s
            ):
                self._transition(rule, state, RuleState.FIRING, now, value)
        else:
            if state.state != RuleState.INACTIVE:
                self._transition(rule, state, RuleState.INACTIVE, now, value)
            state.breach_since = None

    def _transition(
        self, rule: Rule, state: _State, to: str, now: float, value: float
    ) -> None:
        tr = Transition(now, rule.name, state.state, to, value)
        self.transitions.append(tr)
        state.state = to
        for listener in self._listeners:
            listener(tr)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def report(self) -> str:
        """Text report: one row per rule, then the transition log."""
        if not self.rules:
            return "(no SLO rules registered)"
        lines = [f"{'rule':<26} {'state':<9} {'last value':>12}  objective"]
        for rule in self.rules:
            st = self._states[rule.name]
            last = f"{st.last_value:.4g}" if st.last_sampled is not None else "-"
            lines.append(
                f"{rule.name:<26} {st.state:<9} {last:>12}  {rule.describe()}"
            )
        if self.transitions:
            lines.append("")
            lines.append("transitions (virtual time):")
            for tr in self.transitions:
                lines.append(
                    f"  t={tr.t:>9.3f}  {tr.rule:<26} {tr.frm} -> {tr.to} "
                    f"(value {tr.value:.4g})"
                )
        return "\n".join(lines)
