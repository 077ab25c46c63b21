"""Prometheus-style metrics: registry, text exposition, minimal parser.

Counters, gauges, and histograms in the Prometheus exposition text
format (the ``# HELP`` / ``# TYPE`` / sample-line layout scraped by a
real Prometheus).  No client library is required — the renderer and the
parser are both in-repo, so CI can assert round-trips without extra
dependencies.

:func:`service_registry` derives the full serving-stack metric set from
one :class:`~repro.service.broker.SpectrumBroker` (telemetry, cache,
coalescer, folded hybrid ledgers): lane latency histograms, cache hit
ratio, device load residency, evals saved by pruning, queue depth.
The registry is a *derived consumer* — it reads the same ledgers the
tracer's event stream feeds, so the two exports can never disagree.
"""

from __future__ import annotations

import math
import re
from typing import Iterable, Optional, Sequence

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "parse_exposition",
    "service_registry",
    "run_registry",
]

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")

#: Latency buckets (virtual seconds) for the lane histograms.
DEFAULT_BUCKETS = (0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 2.5, 5.0, 10.0)


def _fmt(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _escape_label_value(value: str) -> str:
    """Exposition-format escaping: ``\\`` -> ``\\\\``, ``"`` -> ``\\"``,
    newline -> ``\\n`` (the three escapes the Prometheus text format
    defines for label values)."""
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _unescape_label_value(value: str) -> str:
    out: list[str] = []
    i = 0
    while i < len(value):
        ch = value[i]
        if ch == "\\" and i + 1 < len(value):
            nxt = value[i + 1]
            if nxt == "n":
                out.append("\n")
            elif nxt in ('"', "\\"):
                out.append(nxt)
            else:  # unknown escape: keep it verbatim, like Prometheus
                out.append(ch + nxt)
            i += 2
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def _label_str(labels: dict) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{k}="{_escape_label_value(str(v))}"' for k, v in sorted(labels.items())
    )
    return "{" + inner + "}"


class _Metric:
    kind = "untyped"

    def __init__(self, name: str, help: str, labelnames: Sequence[str] = ()) -> None:
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)

    def _key(self, labels: dict) -> tuple:
        if set(labels) != set(self.labelnames):
            raise ValueError(
                f"{self.name}: expected labels {self.labelnames}, got "
                f"{tuple(labels)}"
            )
        return tuple(str(labels[k]) for k in self.labelnames)

    def exemplar_suffix(self, name: str, labels: dict) -> str:
        """OpenMetrics exemplar annotation for one sample line ('' = none)."""
        return ""


class Counter(_Metric):
    """Monotone accumulator."""

    kind = "counter"

    def __init__(self, name, help, labelnames=()) -> None:
        super().__init__(name, help, labelnames)
        self._values: dict[tuple, float] = {}

    def inc(self, value: float = 1.0, **labels) -> None:
        if value < 0:
            raise ValueError("counters only go up")
        key = self._key(labels)
        self._values[key] = self._values.get(key, 0.0) + value

    def value(self, **labels) -> float:
        """Current value for one label set (0 if never incremented)."""
        return self._values.get(self._key(labels), 0.0)

    def samples(self) -> Iterable[tuple[str, dict, float]]:
        for key, value in sorted(self._values.items()):
            yield self.name, dict(zip(self.labelnames, key)), value


class Gauge(_Metric):
    """Point-in-time value."""

    kind = "gauge"

    def __init__(self, name, help, labelnames=()) -> None:
        super().__init__(name, help, labelnames)
        self._values: dict[tuple, float] = {}

    def set(self, value: float, **labels) -> None:
        self._values[self._key(labels)] = float(value)

    def value(self, **labels) -> float:
        """Current value for one label set (0 if never set)."""
        return self._values.get(self._key(labels), 0.0)

    def samples(self) -> Iterable[tuple[str, dict, float]]:
        for key, value in sorted(self._values.items()):
            yield self.name, dict(zip(self.labelnames, key)), value


class Histogram(_Metric):
    """Cumulative-bucket histogram (`_bucket`/`_sum`/`_count` samples)."""

    kind = "histogram"

    def __init__(self, name, help, labelnames=(), buckets=DEFAULT_BUCKETS) -> None:
        super().__init__(name, help, labelnames)
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError("need at least one bucket bound")
        self.bounds = bounds
        self._counts: dict[tuple, list[int]] = {}
        self._sums: dict[tuple, float] = {}
        #: label key -> bucket index -> (exemplar labels, exemplar value).
        self._exemplars: dict[tuple, dict[int, tuple[dict, float]]] = {}

    def _bucket_index(self, value: float) -> int:
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                return i
        return len(self.bounds)

    def observe(self, value: float, exemplar: Optional[dict] = None, **labels) -> None:
        key = self._key(labels)
        counts = self._counts.setdefault(key, [0] * (len(self.bounds) + 1))
        counts[self._bucket_index(value)] += 1
        self._sums[key] = self._sums.get(key, 0.0) + value
        if exemplar:
            self.annotate(value, exemplar, **labels)

    def annotate(self, value: float, exemplar: dict, **labels) -> None:
        """Attach an exemplar to the bucket ``value`` falls in.

        Does not change any count — the observation itself must have been
        (or be) recorded separately.  The most recent exemplar per bucket
        wins, matching OpenMetrics's one-exemplar-per-bucket-line rule.
        """
        key = self._key(labels)
        self._exemplars.setdefault(key, {})[self._bucket_index(value)] = (
            dict(exemplar),
            float(value),
        )

    def count(self, **labels) -> int:
        """Observations recorded for one label set."""
        return sum(self._counts.get(self._key(labels), ()))

    def quantile(self, q: float, **labels) -> float:
        """The q-quantile by linear interpolation within cumulative buckets.

        The estimator Prometheus's ``histogram_quantile`` uses: find the
        bucket the target rank lands in and interpolate linearly between
        its bounds (the first bucket's lower bound is 0).  Observations
        in the ``+Inf`` bucket clamp to the largest finite bound.  SLO
        rules targeting p95/p99 latency read this directly off the
        registry — no exposition-text round trip.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        counts = self._counts.get(self._key(labels))
        if counts is None:
            return 0.0
        total = sum(counts)
        if total == 0:
            return 0.0
        target = q * total
        cum = 0
        lower = 0.0
        for bound, n in zip(self.bounds, counts):
            if n and cum + n >= target:
                fraction = (target - cum) / n
                return lower + (bound - lower) * fraction
            cum += n
            lower = bound
        return self.bounds[-1]

    def samples(self) -> Iterable[tuple[str, dict, float]]:
        for key in sorted(self._counts):
            labels = dict(zip(self.labelnames, key))
            counts = self._counts[key]
            cum = 0
            for bound, n in zip(self.bounds, counts):
                cum += n
                yield self.name + "_bucket", {**labels, "le": _fmt(bound)}, cum
            cum += counts[-1]
            yield self.name + "_bucket", {**labels, "le": "+Inf"}, cum
            yield self.name + "_sum", labels, self._sums[key]
            yield self.name + "_count", labels, cum

    def exemplar_suffix(self, name: str, labels: dict) -> str:
        if name != self.name + "_bucket" or not self._exemplars:
            return ""
        per = self._exemplars.get(tuple(str(labels[k]) for k in self.labelnames))
        if not per:
            return ""
        le = labels.get("le", "")
        if le == "+Inf":
            idx = len(self.bounds)
        else:
            idx = next(
                (i for i, b in enumerate(self.bounds) if _fmt(b) == le), -1
            )
            if idx < 0:
                return ""
        ex = per.get(idx)
        if ex is None:
            return ""
        ex_labels, ex_value = ex
        return f" # {_label_str(ex_labels)} {_fmt(ex_value)}"


class MetricsRegistry:
    """Ordered collection of metrics with one text exposition."""

    def __init__(self) -> None:
        self._metrics: dict[str, _Metric] = {}

    def register(self, metric: _Metric) -> _Metric:
        if metric.name in self._metrics:
            raise ValueError(f"metric {metric.name!r} already registered")
        self._metrics[metric.name] = metric
        return metric

    def get(self, name: str) -> _Metric:
        """Look a metric up by family name (KeyError if absent)."""
        try:
            return self._metrics[name]
        except KeyError:
            raise KeyError(
                f"no metric {name!r}; registered: {sorted(self._metrics)}"
            ) from None

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def metrics(self) -> list[_Metric]:
        """Every registered metric, registration-ordered."""
        return list(self._metrics.values())

    def merge(self, other: "MetricsRegistry", extra_labels=None) -> "MetricsRegistry":
        """Fold ``other``'s samples into this registry (federation).

        Families are unified by name: a family ``other`` has that this
        registry lacks is created; one both have must agree on kind,
        label-name set, and (for histograms) bucket bounds, or the merge
        raises ``ValueError`` — help text is reconciled by keeping this
        registry's.  ``extra_labels`` (e.g. ``{"node": "0"}``) are added
        as constant labels to every merged sample, the Prometheus
        federation shape; a merged label set that already exists on the
        target family is a collision and raises rather than silently
        summing two nodes' counters.  Returns ``self`` for chaining.
        """
        extra = {str(k): str(v) for k, v in dict(extra_labels or {}).items()}
        for theirs in other._metrics.values():
            if any(k in theirs.labelnames for k in extra):
                raise ValueError(
                    f"{theirs.name}: extra labels {sorted(extra)} collide "
                    f"with family labels {theirs.labelnames}"
                )
            merged_names = tuple(theirs.labelnames) + tuple(sorted(extra))
            mine = self._metrics.get(theirs.name)
            if mine is None:
                if isinstance(theirs, Histogram):
                    mine = Histogram(
                        theirs.name, theirs.help, merged_names, theirs.bounds
                    )
                elif isinstance(theirs, Counter):
                    mine = Counter(theirs.name, theirs.help, merged_names)
                else:
                    mine = Gauge(theirs.name, theirs.help, merged_names)
                self.register(mine)
            else:
                if mine.kind != theirs.kind:
                    raise ValueError(
                        f"{theirs.name}: cannot merge {theirs.kind} into "
                        f"{mine.kind}"
                    )
                if set(mine.labelnames) != set(merged_names):
                    raise ValueError(
                        f"{theirs.name}: label sets differ "
                        f"({mine.labelnames} vs {merged_names})"
                    )
                if isinstance(mine, Histogram) and mine.bounds != theirs.bounds:
                    raise ValueError(
                        f"{theirs.name}: bucket bounds differ"
                    )
            if isinstance(theirs, Histogram):
                for key, counts in theirs._counts.items():
                    labels = dict(zip(theirs.labelnames, key), **extra)
                    target = mine._key(labels)
                    if target in mine._counts:
                        raise ValueError(
                            f"{theirs.name}{labels}: duplicate label set"
                        )
                    mine._counts[target] = list(counts)
                    mine._sums[target] = theirs._sums[key]
                    if key in theirs._exemplars:
                        mine._exemplars[target] = {
                            idx: (dict(ex[0]), ex[1])
                            for idx, ex in theirs._exemplars[key].items()
                        }
            else:
                for key, value in theirs._values.items():
                    labels = dict(zip(theirs.labelnames, key), **extra)
                    target = mine._key(labels)
                    if target in mine._values:
                        raise ValueError(
                            f"{theirs.name}{labels}: duplicate label set"
                        )
                    mine._values[target] = value
        return self

    def value(self, name: str, **labels) -> float:
        """Shortcut: current value of a counter or gauge sample."""
        metric = self.get(name)
        if not hasattr(metric, "value"):
            raise TypeError(f"metric {name!r} ({metric.kind}) has no scalar value")
        return metric.value(**labels)

    def counter(self, name, help, labelnames=()) -> Counter:
        return self.register(Counter(name, help, labelnames))

    def gauge(self, name, help, labelnames=()) -> Gauge:
        return self.register(Gauge(name, help, labelnames))

    def histogram(self, name, help, labelnames=(), buckets=DEFAULT_BUCKETS) -> Histogram:
        return self.register(Histogram(name, help, labelnames, buckets))

    def render(self) -> str:
        """The Prometheus text exposition format, one family per metric."""
        lines: list[str] = []
        for metric in self._metrics.values():
            lines.append(f"# HELP {metric.name} {metric.help}")
            lines.append(f"# TYPE {metric.name} {metric.kind}")
            for name, labels, value in metric.samples():
                lines.append(
                    f"{name}{_label_str(labels)} {_fmt(value)}"
                    + metric.exemplar_suffix(name, labels)
                )
        return "\n".join(lines) + "\n"


def parse_exposition(text: str) -> dict[str, list[tuple[dict, float]]]:
    """Minimal exposition-format parser: family name -> [(labels, value)].

    Sample names like ``x_bucket``/``x_sum``/``x_count`` are grouped
    under their own keys; ``# TYPE``/``# HELP`` lines register the
    family (so an empty family still appears).  Raises ``ValueError`` on
    malformed lines — the CI step uses this as a validity check.
    """
    families: dict[str, list[tuple[dict, float]]] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) >= 3 and parts[1] in ("TYPE", "HELP"):
                families.setdefault(parts[2], [])
                continue
            raise ValueError(f"line {lineno}: malformed comment {line!r}")
        name, labels, value = _parse_sample(line, lineno)
        families.setdefault(name, []).append(
            (labels, math.inf if value == "+Inf" else float(value))
        )
    return families


_SAMPLE_NAME_RE = re.compile(r"^([a-zA-Z_:][a-zA-Z0-9_:]*)")
_LABEL_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def _parse_sample(line: str, lineno: int) -> tuple[str, dict[str, str], str]:
    """Split one sample line into (name, labels, value text).

    A hand-rolled scanner rather than one regex because label *values*
    may contain ``,``, ``}``, and escaped quotes — the adversarial cases
    the round-trip test covers.
    """
    m = _SAMPLE_NAME_RE.match(line)
    if not m:
        raise ValueError(f"line {lineno}: malformed sample {line!r}")
    name = m.group(1)
    rest = line[m.end():]
    labels: dict[str, str] = {}
    if rest.startswith("{"):
        pos = 1
        while True:
            if pos < len(rest) and rest[pos] == "}":
                pos += 1
                break
            lm = _LABEL_RE.match(rest, pos)
            if not lm:
                raise ValueError(
                    f"line {lineno}: malformed label {rest[pos:]!r}"
                )
            labels[lm.group(1)] = _unescape_label_value(lm.group(2))
            pos = lm.end()
            if pos < len(rest) and rest[pos] == ",":
                pos += 1
            elif pos < len(rest) and rest[pos] == "}":
                pos += 1
                break
            else:
                raise ValueError(
                    f"line {lineno}: malformed label block {rest!r}"
                )
        rest = rest[pos:]
    # Tolerate an OpenMetrics exemplar annotation (` # {...} value`) —
    # the renderer attaches them to histogram bucket lines.
    rest = rest.split(" # ", 1)[0]
    value = rest.strip()
    if not value or any(c.isspace() for c in value.strip()):
        raise ValueError(f"line {lineno}: malformed sample {line!r}")
    if not rest[:1].isspace():
        raise ValueError(f"line {lineno}: malformed sample {line!r}")
    return name, labels, value


# ----------------------------------------------------------------------
# Derivations from the repo's ledgers
# ----------------------------------------------------------------------
def _plan_cache_metrics(reg: MetricsRegistry) -> None:
    """Export the process-global plan cache into ``reg``.

    The cache (:data:`repro.physics.plan.PLAN_CACHE`) is shared by the
    model layer and the service cost model, so its counters describe the
    whole process, not one broker.
    """
    from repro.physics.plan import PLAN_CACHE

    stats = PLAN_CACHE.stats
    lookups = reg.counter(
        "repro_plan_cache_lookups_total",
        "Compiled-plan cache lookups by result",
        ("result",),
    )
    lookups.inc(stats.hits, result="hit")
    lookups.inc(stats.misses, result="miss")
    reg.counter(
        "repro_plan_compilations_total", "Spectrum plans compiled"
    ).inc(stats.compilations)
    reg.counter(
        "repro_plan_cache_evictions_total", "Compiled plans evicted"
    ).inc(stats.evictions)
    reg.gauge(
        "repro_plan_cache_hit_ratio", "Plan-cache hits / lookups"
    ).set(stats.hit_rate)
    reg.gauge(
        "repro_plan_cache_entries", "Compiled plans resident in the cache"
    ).set(len(PLAN_CACHE))


def _spectrum_cache_metrics(reg: MetricsRegistry, broker) -> None:
    """Export the broker's spectrum cache under ``repro_spectrum_cache_*``.

    Mirrors the ``repro_plan_cache_*`` family shape so dashboards treat
    the two caches uniformly.  (The legacy ``repro_cache_*`` names stay
    exported for compatibility.)
    """
    stats = broker.cache.stats
    lookups = reg.counter(
        "repro_spectrum_cache_lookups_total",
        "Spectrum cache lookups by result",
        ("result",),
    )
    lookups.inc(stats.hits, result="hit")
    lookups.inc(stats.misses, result="miss")
    reg.counter(
        "repro_spectrum_cache_insertions_total", "Spectra inserted"
    ).inc(stats.insertions)
    churn = reg.counter(
        "repro_spectrum_cache_removals_total",
        "Spectrum cache removals by cause",
        ("cause",),
    )
    churn.inc(stats.evictions, cause="evicted")
    churn.inc(stats.expirations, cause="expired")
    reg.counter(
        "repro_spectrum_cache_oversize_rejections_total",
        "Spectra refused for exceeding the byte budget",
    ).inc(stats.oversize_rejections)
    reg.gauge(
        "repro_spectrum_cache_hit_ratio", "Spectrum-cache hits / lookups"
    ).set(stats.hit_ratio())
    reg.gauge(
        "repro_spectrum_cache_entries", "Spectra resident in the cache"
    ).set(len(broker.cache))
    reg.gauge(
        "repro_spectrum_cache_bytes", "Bytes resident in the cache"
    ).set(broker.cache.bytes_stored)


def _lattice_metrics(reg: MetricsRegistry, store) -> None:
    """Export one broker's approximate-serving store.

    ``store`` may be ``None`` (no positive-accuracy request seen yet) —
    the families still render, at zero, so scrapers and CI assertions
    see a stable schema.
    """
    from repro.approx import LatticeStats

    stats = store.stats if store is not None else LatticeStats()
    requests = reg.counter(
        "repro_approx_lattice_requests_total",
        "Lattice lookups by result",
        ("result",),
    )
    requests.inc(stats.hits, result="hit")
    requests.inc(stats.misses, result="miss")
    requests.inc(stats.fallbacks, result="fallback")
    reg.counter(
        "repro_approx_lattice_refinements_total",
        "Lattice intervals bisected on demand",
    ).inc(stats.refinements)
    reg.counter(
        "repro_approx_lattice_builds_total", "Family lattices built"
    ).inc(stats.builds)
    reg.counter(
        "repro_approx_lattice_invalidations_total",
        "Family lattices dropped on fingerprint change",
    ).inc(stats.invalidations)
    reg.counter(
        "repro_approx_lattice_evictions_total",
        "Family lattices evicted by the byte budget",
    ).inc(stats.evictions)
    reg.counter(
        "repro_approx_lattice_node_evals_total",
        "Exact spectra evaluated for lattice nodes and certificates",
    ).inc(stats.node_evals)
    reg.gauge(
        "repro_approx_lattice_hit_ratio", "Lattice hits / lookups"
    ).set(stats.hit_ratio())
    reg.gauge(
        "repro_approx_lattice_families", "Family lattices resident"
    ).set(len(store) if store is not None else 0)
    reg.gauge(
        "repro_approx_lattice_nodes", "Lattice nodes resident (all families)"
    ).set(store.n_nodes if store is not None else 0)
    reg.gauge(
        "repro_approx_lattice_bytes", "Bytes resident across family lattices"
    ).set(store.bytes_stored if store is not None else 0)


#: Width buckets of the megabatch histogram — powers of two up to the
#: widest fused launch a service config can reasonably ask for.
BATCH_WIDTH_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)


def _batch_metrics(reg: MetricsRegistry, tel) -> None:
    """Export continuous-batching counters under ``repro_batch_*``.

    The families render even when batching never engaged (legacy
    dispatch, or ``batch_window_s=None``) — counters at zero, the
    histogram empty — so scrapers and the CI smoke step always see the
    schema.
    """
    widths = reg.histogram(
        "repro_batch_width",
        "Temperatures fused per megabatch group",
        buckets=BATCH_WIDTH_BUCKETS,
    )
    for w in tel.megabatch_widths:
        widths.observe(float(w))
    reg.counter(
        "repro_batch_groups_total", "Megabatch groups dispatched"
    ).inc(len(tel.megabatch_widths))
    reg.counter(
        "repro_batch_temperatures_total",
        "Temperatures dispatched through megabatch groups",
    ).inc(tel.batched_temperatures)
    reg.counter(
        "repro_batch_coalesced_requests_total",
        "Requests that shared a fused launch with at least one other",
    ).inc(tel.batch_coalesced_requests)
    reg.counter(
        "repro_batch_window_waits_total",
        "Admission-window waits taken by service workers",
    ).inc(tel.batch_window_waits)


def _cost_metrics(reg: MetricsRegistry, broker) -> None:
    """Export the causal-attribution ledger under ``repro_request_cost_*``.

    The families render even when tracing is off (no attribution rides
    the broker) — zeroed samples per component, conservation at its
    vacuous 1.0 — so scrapers and the CI smoke step always see the
    schema.  With tracing on, the counters carry the fair-share
    attributed virtual seconds and the gauges describe the online cost
    model (:class:`repro.obs.attribution.CostModel`).
    """
    from repro.obs.attribution import COMPONENTS, TICKS_PER_S

    cost = reg.counter(
        "repro_request_cost_seconds_total",
        "Attributed virtual seconds by lane and cost component",
        ("lane", "component"),
    )
    unattributed = reg.counter(
        "repro_request_cost_unattributed_seconds_total",
        "Measured span seconds with no causal chain to a request",
        ("component",),
    )
    conservation = reg.gauge(
        "repro_request_cost_conservation_ratio",
        "min over components of attributed/measured cost (1.0 = exact)",
    )
    model_keys = reg.gauge(
        "repro_request_cost_model_keys",
        "Distinct (ion, method, width-bucket) cost-model keys",
    )
    model_obs = reg.counter(
        "repro_request_cost_model_observations_total",
        "Measured task costs folded into the online cost model",
    )
    model_err = reg.gauge(
        "repro_request_cost_model_mean_abs_rel_error",
        "Running mean |predicted - measured| / measured of the cost model",
    )
    for lane in sorted(broker.telemetry.lanes):
        for comp in COMPONENTS:
            cost.inc(0.0, lane=lane, component=comp)
    for comp in COMPONENTS:
        unattributed.inc(0.0, component=comp)
    result = broker.cost_report() if hasattr(broker, "cost_report") else None
    if result is None:
        conservation.set(1.0)
        return
    for entry in result.entries:
        lane = entry.lane or "unknown"
        for comp, ticks in entry.ticks.items():
            cost.inc(ticks / TICKS_PER_S, lane=lane, component=comp)
    for comp in COMPONENTS:
        unattributed.inc(
            result.unattributed_ticks.get(comp, 0) / TICKS_PER_S, component=comp
        )
    conservation.set(result.conservation)
    model = getattr(broker, "cost_model", None)
    if model is not None:
        model_keys.set(model.n_keys)
        model_obs.inc(model.n_observations)
        model_err.set(model.mean_abs_rel_error)


#: Relative-error buckets for the predicted-vs-measured histogram: the
#: EWMA cost model converges to a few percent, so the resolution sits
#: there, with a long tail for cold-start mispredictions.
SCHED_ERROR_BUCKETS = (0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5)


def _sched_metrics(
    reg: MetricsRegistry,
    n_devices: int,
    steals,
    donations,
    prediction_errors,
    mean_loads,
    imbalance: float,
) -> None:
    """Export the predictive-scheduling families under ``repro_sched_*``.

    Zeroed-schema convention: the families are always emitted — all-zero
    counters, an empty histogram, a 0.0 imbalance — when the run used a
    non-predictive scheduler, so scrapers and the CI validation step see
    a stable exposition either way.
    """
    steal_c = reg.counter(
        "repro_sched_steals_total",
        "Tasks each device pulled from another device's queue",
        ("device",),
    )
    donation_c = reg.counter(
        "repro_sched_donations_total",
        "Tasks pulled away from each device's queue",
        ("device",),
    )
    err_h = reg.histogram(
        "repro_sched_prediction_error",
        "Relative |predicted - measured| / measured task cost",
        buckets=SCHED_ERROR_BUCKETS,
    )
    load_g = reg.gauge(
        "repro_sched_mean_device_load",
        "Time-weighted mean queue load per device",
        ("device",),
    )
    for d in range(max(1, n_devices)):
        steal_c.inc(float(steals[d]) if d < len(steals) else 0.0, device=d)
        donation_c.inc(
            float(donations[d]) if d < len(donations) else 0.0, device=d
        )
        load_g.set(
            float(mean_loads[d]) if d < len(mean_loads) else 0.0, device=d
        )
    for err in prediction_errors:
        err_h.observe(float(err))
    reg.gauge(
        "repro_sched_load_imbalance",
        "Spread (max - min) of time-weighted mean device loads",
    ).set(float(imbalance))


def service_registry(broker) -> MetricsRegistry:
    """Derive the serving-stack metric set from one broker's ledgers."""
    reg = MetricsRegistry()
    tel = broker.telemetry

    arrivals = reg.counter(
        "repro_requests_total", "Requests by lane and outcome", ("lane", "outcome")
    )
    latency = reg.histogram(
        "repro_request_latency_seconds",
        "Completion latency by lane (virtual seconds)",
        ("lane",),
    )
    for lane, stats in tel.lanes.items():
        arrivals.inc(stats.cache_hits, lane=lane, outcome="cache_hit")
        arrivals.inc(stats.lattice_hits, lane=lane, outcome="lattice_hit")
        arrivals.inc(stats.coalesced, lane=lane, outcome="coalesced")
        arrivals.inc(stats.computed, lane=lane, outcome="computed")
        arrivals.inc(stats.rejections, lane=lane, outcome="rejected")
        arrivals.inc(stats.retries, lane=lane, outcome="retried")
        for sample in stats.latency_samples():
            latency.observe(sample, lane=lane)
        # Trace-id exemplars: the most recent traced completions annotate
        # the buckets their latencies fell in, linking the histogram back
        # to the causal trace (OpenMetrics-style).
        for latency_s, trace_id in getattr(stats, "latency_exemplars", ()):
            latency.annotate(latency_s, {"trace_id": f"{trace_id:x}"}, lane=lane)

    cache = broker.cache.stats
    lookups = reg.counter(
        "repro_cache_lookups_total", "Cache lookups by result", ("result",)
    )
    lookups.inc(cache.hits, result="hit")
    lookups.inc(cache.misses, result="miss")
    reg.gauge("repro_cache_hit_ratio", "Cache hits / lookups").set(cache.hit_ratio())
    reg.gauge("repro_cache_entries", "Entries resident in the cache").set(
        len(broker.cache)
    )
    reg.gauge("repro_cache_bytes", "Bytes resident in the cache").set(
        broker.cache.bytes_stored
    )
    churn = reg.counter(
        "repro_cache_churn_total", "Cache removals by cause", ("cause",)
    )
    churn.inc(cache.evictions, cause="evicted")
    churn.inc(cache.expirations, cause="expired")

    reg.counter(
        "repro_coalesced_joins_total", "Requests attached to an in-flight leader"
    ).inc(broker.coalescer.coalesced)

    _plan_cache_metrics(reg)
    _spectrum_cache_metrics(reg, broker)
    _lattice_metrics(reg, getattr(broker, "lattice_store", None))

    reg.gauge("repro_queue_depth", "Admission depth at snapshot time").set(
        broker.queue_depth
    )
    reg.gauge("repro_queue_depth_mean", "Time-weighted mean admission depth").set(
        tel.mean_queue_depth()
    )
    reg.gauge("repro_queue_depth_max", "Peak admission depth").set(tel.max_depth)

    tasks = reg.counter(
        "repro_tasks_total", "Hybrid tasks by placement", ("placement",)
    )
    tasks.inc(tel.gpu_tasks, placement="gpu")
    tasks.inc(tel.cpu_tasks, placement="cpu")
    reg.counter("repro_batches_total", "Hybrid batches dispatched").inc(
        len(tel.batch_sizes)
    )
    reg.counter(
        "repro_evals_saved_total",
        "Integrand evaluations pruned by active windows",
    ).inc(tel.evals_saved)

    _batch_metrics(reg, tel)
    _cost_metrics(reg, broker)

    residency = reg.gauge(
        "repro_device_load_residency_seconds",
        "Virtual seconds each device load level was held (all batches)",
        ("device", "load"),
    )
    if tel.load_residency is not None:
        for d in range(tel.load_residency.shape[0]):
            for load in range(tel.load_residency.shape[1]):
                residency.set(
                    float(tel.load_residency[d, load]), device=d, load=load
                )
    _sched_metrics(
        reg,
        tel.load_residency.shape[0] if tel.load_residency is not None else 1,
        tel.sched_steals,
        tel.sched_donations,
        tel.sched_prediction_errors,
        tel.sched_mean_loads(),
        tel.sched_imbalance(),
    )
    reg.gauge("repro_virtual_time_seconds", "Virtual end time of the run").set(
        tel.end_time
    )
    return reg


def run_registry(result, wall_s: Optional[float] = None) -> MetricsRegistry:
    """Derive a registry from one hybrid :class:`RunResult` ledger."""
    reg = MetricsRegistry()
    m = result.metrics
    reg.gauge("repro_makespan_seconds", "Virtual makespan of the run").set(
        result.makespan_s
    )
    tasks = reg.counter(
        "repro_tasks_total", "Tasks by placement", ("placement",)
    )
    tasks.inc(int(m.gpu_tasks.sum()), placement="gpu")
    tasks.inc(m.cpu_tasks, placement="cpu")
    reg.gauge("repro_gpu_task_ratio", "Fraction of tasks served by GPUs").set(
        m.gpu_task_ratio()
    )
    reg.counter(
        "repro_evals_saved_total",
        "Integrand evaluations pruned by active windows",
    ).inc(m.evals_saved)
    residency = reg.gauge(
        "repro_device_load_residency_seconds",
        "Virtual seconds each device load level was held",
        ("device", "load"),
    )
    seconds = m.load_residency
    for d in range(m.n_devices):
        for load in range(m.max_queue_length + 1):
            residency.set(float(seconds[d, load]), device=d, load=load)
    _sched_metrics(
        reg,
        m.n_devices,
        m.steals,
        m.donations,
        m.prediction_errors(),
        [m.mean_device_load(d) for d in range(m.n_devices)],
        m.load_imbalance(),
    )
    if wall_s is not None:
        reg.gauge("repro_wall_seconds", "Host wall-clock time of the run").set(wall_s)
    return reg
