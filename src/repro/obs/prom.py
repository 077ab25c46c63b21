"""Prometheus-style metrics: registry, text exposition, minimal parser.

Counters, gauges, and histograms in the Prometheus exposition text
format (the ``# HELP`` / ``# TYPE`` / sample-line layout scraped by a
real Prometheus).  No client library is required — the renderer and the
parser are both in-repo, so CI can assert round-trips without extra
dependencies.

Every exported family is *declared once* (:class:`Family`: name, type,
help, label names, and where its value is read) and :func:`fill` sets a
registry's samples from those declarations — the same code for the
zeroed schema, the first fill and every later refresh.  A
:class:`~repro.service.broker.SpectrumBroker` owns one live registry
(``broker.registry()``): counters and gauges are set from the
ledgers' running totals, histograms observe only the samples they have
not seen, so a refresh costs the samples, not the history.  The
registry is a *derived consumer* — it reads the same ledgers the
tracer's event stream feeds, so the two exports can never disagree.
``docs/METRICS.md`` is generated from the declarations.
"""

from __future__ import annotations

import bisect
import itertools
import math
import re
from operator import itemgetter
from typing import Callable, NamedTuple, Sequence

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "parse_exposition",
    "Family",
    "fill",
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

    def rows(self) -> list[tuple[tuple, float]]:
        """``(identity, value)`` per sample, in exposition order.

        The identity is the hashable ``(sample name, label names, label
        values)`` triple, the same object from one call to the next — a
        scraper resolves it to its series once and keeps the handle.
        """
        raise NotImplementedError

    def lines(self) -> list[str]:
        """The exposition format's sample lines, in order."""
        return [
            f"{name}{_label_str(dict(zip(names, values)))} {_fmt(value)}"
            for (name, names, values), value in self.rows()
        ]


class _Scalar(_Metric):
    """One float per label set (the storage counters and gauges share)."""

    def __init__(self, name, help, labelnames=()) -> None:
        super().__init__(name, help, labelnames)
        self._values: dict[tuple, float] = {}
        self._order: list[tuple[tuple, tuple]] = []  # (identity, key), key-sorted

    def value(self, **labels) -> float:
        """Current value for one label set (0 if never touched)."""
        return self._values.get(self._key(labels), 0.0)

    def rows(self) -> list[tuple[tuple, float]]:
        values = self._values
        if len(self._order) != len(values):  # label sets are only ever added
            self._order = [
                ((self.name, self.labelnames, key), key) for key in sorted(values)
            ]
        return [(ident, values[key]) for ident, key in self._order]


class Counter(_Scalar):
    """Monotone accumulator."""

    kind = "counter"

    def _put(self, key: tuple, value: float) -> None:
        """Set the running total a ledger already keeps (never downward)."""
        if value < self._values.get(key, 0.0):
            raise ValueError(f"{self.name}: counters only go up")
        self._values[key] = float(value)


class _WaitingCounter(Counter):
    """A counter over a ledger total that can fall back.

    Spans still waiting for their group span count as unattributed until
    it lands, so the exported total dips when they resolve — to a scraper
    a counter reset, which rate() already tolerates.
    """

    def _put(self, key: tuple, value: float) -> None:
        self._values[key] = float(value)


class Gauge(_Scalar):
    """Point-in-time value."""

    kind = "gauge"

    def set(self, value: float, **labels) -> None:
        self._values[self._key(labels)] = float(value)

    def _put(self, key: tuple, value: float) -> None:
        self._values[key] = float(value)


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
        #: label key -> bucket index -> (exemplar labels, exemplar value):
        #: one OpenMetrics exemplar per bucket line, set by whoever fills.
        self._exemplars: dict[tuple, dict[int, tuple[dict, float]]] = {}
        self._order: list[tuple[list[tuple], tuple]] = []  # (identities, key)

    def _bucket_index(self, value: float) -> int:
        return bisect.bisect_left(self.bounds, value)

    def observe(self, value: float, **labels) -> None:
        key = self._key(labels)
        counts = self._counts.setdefault(key, [0] * (len(self.bounds) + 1))
        counts[self._bucket_index(value)] += 1
        self._sums[key] = self._sums.get(key, 0.0) + value

    def _put(self, key: tuple, data) -> None:
        """Bring one label set up to date with its ledger.

        ``data`` is the ledger's append-only sample list: only the items
        past this label set's observation count are observed, in order,
        so ``_sum`` is the float a full replay would give.
        """
        counts = self._counts.get(key)
        seen = sum(counts) if counts is not None else 0
        if len(data) == seen:
            return
        labels = dict(zip(self.labelnames, key))
        for value in data[seen:]:
            self.observe(value, **labels)

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

    def rows(self) -> list[tuple[tuple, float]]:
        if len(self._order) != len(self._counts):  # label sets are only added
            les = tuple(_fmt(b) for b in self.bounds) + ("+Inf",)
            bucket_names = self.labelnames + ("le",)
            self._order = [
                (
                    [(self.name + "_bucket", bucket_names, key + (le,)) for le in les]
                    + [
                        (self.name + "_sum", self.labelnames, key),
                        (self.name + "_count", self.labelnames, key),
                    ],
                    key,
                )
                for key in sorted(self._counts)
            ]
        out = []
        for idents, key in self._order:
            cum = list(itertools.accumulate(self._counts[key]))
            out.extend(zip(idents, cum + [self._sums[key], cum[-1]]))
        return out

    def lines(self) -> list[str]:
        out = super().lines()
        per_key = len(self.bounds) + 3  # bucket lines, then _sum and _count
        for k, (_, key) in enumerate(self._order):
            # OpenMetrics exemplar annotations on the bucket lines.
            for idx, (ex_labels, ex_value) in self._exemplars.get(key, {}).items():
                out[k * per_key + idx] += f" # {_label_str(ex_labels)} {_fmt(ex_value)}"
        return out


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
            lines.extend(metric.lines())
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
# Family declarations: what every metric is and where its value is read
# ----------------------------------------------------------------------
class Family(NamedTuple):
    """One metric family, declared once.

    The declaration is the schema (``docs/METRICS.md`` is generated from
    it), the first fill and every later refresh: :func:`fill` registers
    the family on a registry that lacks it, then *sets* its samples from
    ``read(source)`` — a bare value for an unlabelled family (``None``:
    no sample), else ``(label values, value)`` pairs.  Histogram
    families read ``(label values, data)`` pairs, ``data`` being what
    :meth:`Histogram._put` takes.
    """

    cls: type[_Metric]
    name: str
    help: str
    read: Callable
    labelnames: tuple[str, ...] = ()
    buckets: tuple[float, ...] = DEFAULT_BUCKETS

    def build(self) -> _Metric:
        if self.cls is Histogram:
            return Histogram(self.name, self.help, self.labelnames, self.buckets)
        return self.cls(self.name, self.help, self.labelnames)


def fill(registry: MetricsRegistry, families: Sequence[Family], source) -> None:
    """Bring ``families`` on ``registry`` up to date with ``source``.

    Samples are set in place, so filling a registry again costs its
    samples — not the history behind them — and renders exactly what a
    registry filled for the first time at this instant would.
    """
    metrics = registry._metrics
    for fam in families:
        metric = metrics.get(fam.name)
        if metric is None:
            metric = registry.register(fam.build())
        got = fam.read(source)
        if fam.labelnames or fam.cls is Histogram:
            for key, data in got:
                metric._put(key, data)
        elif got is not None:
            metric._put((), got)


def _by(**reads: Callable) -> Callable:
    """Reader of a one-label family with fixed values: value -> reader."""
    rows = [((value,), read) for value, read in reads.items()]
    return lambda source: [(key, read(source)) for key, read in rows]


def _plan_cache(_broker):
    # Imported on use: obs stays importable without the physics layer.
    from repro.physics.plan import PLAN_CACHE

    return PLAN_CACHE


#: The process-global plan cache (shared by the model layer and the
#: service cost model, so its counters describe the whole process).
PLAN_CACHE_FAMILIES = (
    Family(Counter, "repro_plan_cache_lookups_total",
           "Compiled-plan cache lookups by result",
           _by(hit=lambda c: c.stats.hits, miss=lambda c: c.stats.misses), ("result",)),
    Family(Counter, "repro_plan_compilations_total", "Spectrum plans compiled",
           lambda c: c.stats.compilations),
    Family(Counter, "repro_plan_cache_evictions_total", "Compiled plans evicted",
           lambda c: c.stats.evictions),
    Family(Gauge, "repro_plan_cache_hit_ratio", "Plan-cache hits / lookups",
           lambda c: c.stats.hit_rate),
    Family(Gauge, "repro_plan_cache_entries", "Compiled plans resident in the cache",
           len),
)


def _lane_outcomes(broker):
    for lane, s in broker.telemetry.lanes.items():
        yield (lane, "cache_hit"), s.cache_hits
        yield (lane, "lattice_hit"), s.lattice_hits
        yield (lane, "coalesced"), s.coalesced
        yield (lane, "computed"), s.computed
        yield (lane, "rejected"), s.rejections
        yield (lane, "retried"), s.retries


# Read off the broker.  The spectrum cache's families follow, in the
# plan-cache family shape so dashboards treat the two caches uniformly.
_REQUEST_FAMILIES = (
    Family(Counter, "repro_requests_total", "Requests by lane and outcome",
           _lane_outcomes, ("lane", "outcome")),
    Family(Histogram, "repro_request_latency_seconds",
           "Completion latency by lane (virtual seconds)",
           lambda b: (((lane,), s.latencies_s)
                      for lane, s in b.telemetry.lanes.items()),
           ("lane",)),
    Family(Counter, "repro_coalesced_joins_total",
           "Requests attached to an in-flight leader", lambda b: b.coalescer.coalesced),
)

_SPECTRUM_CACHE_FAMILIES = (
    Family(Counter, "repro_spectrum_cache_lookups_total",
           "Spectrum cache lookups by result",
           _by(hit=lambda c: c.stats.hits, miss=lambda c: c.stats.misses), ("result",)),
    Family(Counter, "repro_spectrum_cache_insertions_total", "Spectra inserted",
           lambda c: c.stats.insertions),
    Family(Counter, "repro_spectrum_cache_removals_total",
           "Spectrum cache removals by cause",
           _by(evicted=lambda c: c.stats.evictions,
               expired=lambda c: c.stats.expirations), ("cause",)),
    Family(Counter, "repro_spectrum_cache_oversize_rejections_total",
           "Spectra refused for exceeding the byte budget",
           lambda c: c.stats.oversize_rejections),
    Family(Gauge, "repro_spectrum_cache_hit_ratio", "Spectrum-cache hits / lookups",
           lambda c: c.stats.hit_ratio()),
    Family(Gauge, "repro_spectrum_cache_entries", "Spectra resident in the cache",
           len),
    Family(Gauge, "repro_spectrum_cache_bytes", "Bytes resident in the cache",
           lambda c: c.bytes_stored),
)


# Read off ``broker.lattice_report()``: the same schema, at zero, before
# the first positive-accuracy request builds the store.
_LATTICE_FAMILIES = (
    Family(Counter, "repro_approx_lattice_requests_total", "Lattice lookups by result",
           _by(hit=lambda d: d["hits"], miss=lambda d: d["misses"],
               fallback=lambda d: d["fallbacks"]), ("result",)),
    Family(Counter, "repro_approx_lattice_refinements_total",
           "Lattice intervals bisected on demand", lambda d: d["refinements"]),
    Family(Counter, "repro_approx_lattice_builds_total", "Family lattices built",
           lambda d: d["builds"]),
    Family(Counter, "repro_approx_lattice_invalidations_total",
           "Family lattices dropped on fingerprint change",
           lambda d: d["invalidations"]),
    Family(Counter, "repro_approx_lattice_evictions_total",
           "Family lattices evicted by the byte budget", lambda d: d["evictions"]),
    Family(Counter, "repro_approx_lattice_node_evals_total",
           "Exact spectra evaluated for lattice nodes and certificates",
           lambda d: d["node_evals"]),
    Family(Gauge, "repro_approx_lattice_hit_ratio", "Lattice hits / lookups",
           lambda d: d["hit_ratio"]),
    Family(Gauge, "repro_approx_lattice_families", "Family lattices resident",
           lambda d: d["families"]),
    Family(Gauge, "repro_approx_lattice_nodes",
           "Lattice nodes resident (all families)", lambda d: d["nodes"]),
    Family(Gauge, "repro_approx_lattice_bytes",
           "Bytes resident across family lattices", lambda d: d["bytes_stored"]),
)

#: Width buckets of the megabatch histogram — powers of two up to the
#: widest fused launch a service config can reasonably ask for.
BATCH_WIDTH_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)

# Read off the broker's telemetry.  The ``repro_batch_*`` families stay
# at zero (the histogram empty) when batching never engaged.
_DISPATCH_FAMILIES = (
    Family(Gauge, "repro_queue_depth", "Admission depth at snapshot time",
           lambda b: b.queue_depth),
    Family(Gauge, "repro_queue_depth_mean", "Time-weighted mean admission depth",
           lambda b: b.telemetry.mean_queue_depth()),
    Family(Gauge, "repro_queue_depth_max", "Peak admission depth",
           lambda b: b.telemetry.max_depth),
    Family(Counter, "repro_tasks_total", "Hybrid tasks by placement",
           _by(gpu=lambda b: b.telemetry.gpu_tasks, cpu=lambda b: b.telemetry.cpu_tasks),
           ("placement",)),
    Family(Counter, "repro_batches_total", "Hybrid batches dispatched",
           lambda b: len(b.telemetry.batch_sizes)),
    Family(Counter, "repro_evals_saved_total",
           "Integrand evaluations pruned by active windows",
           lambda b: b.telemetry.evals_saved),
    Family(Histogram, "repro_batch_width", "Temperatures fused per megabatch group",
           lambda b: (((), b.telemetry.megabatch_widths),), (), BATCH_WIDTH_BUCKETS),
    Family(Counter, "repro_batch_groups_total", "Megabatch groups dispatched",
           lambda b: len(b.telemetry.megabatch_widths)),
    Family(Counter, "repro_batch_temperatures_total",
           "Temperatures dispatched through megabatch groups",
           lambda b: b.telemetry.batched_temperatures),
    Family(Counter, "repro_batch_coalesced_requests_total",
           "Requests that shared a fused launch with at least one other",
           lambda b: b.telemetry.batch_coalesced_requests),
    Family(Counter, "repro_batch_window_waits_total",
           "Admission-window waits taken by service workers",
           lambda b: b.telemetry.batch_window_waits),
)


def _current_ledger(broker):
    """The broker with its attribution ledger brought up to date."""
    if broker.attribution is not None:
        broker.fold_trace()
    return broker


def _lane_costs(broker):
    from repro.obs.attribution import COMPONENTS

    ledger = broker.attribution
    seconds = ledger.lane_seconds() if ledger is not None else {}
    for lane in broker.telemetry.lanes:
        for comp in COMPONENTS:
            yield (lane, comp), seconds.get((lane, comp), 0.0)
    yield from seconds.items()


def _unattributed(broker):
    from repro.obs.attribution import COMPONENTS, TICKS_PER_S

    ledger = broker.attribution
    ticks = ledger.unattributed_ticks() if ledger is not None else {}
    return [((comp,), ticks.get(comp, 0) / TICKS_PER_S) for comp in COMPONENTS]


# The causal-attribution ledger.  Untraced brokers carry no attribution:
# zeroed samples per component, conservation at its vacuous 1.0.
_COST_FAMILIES = (
    Family(Counter, "repro_request_cost_seconds_total",
           "Attributed virtual seconds by lane and cost component",
           _lane_costs, ("lane", "component")),
    Family(_WaitingCounter, "repro_request_cost_unattributed_seconds_total",
           "Measured span seconds with no causal chain to a request",
           _unattributed, ("component",)),
    Family(Gauge, "repro_request_cost_conservation_ratio",
           "min over components of attributed/measured cost (1.0 = exact)",
           lambda b: 1.0 if b.attribution is None else b.attribution.conservation),
)

# Read off the online cost model of a *traced* broker (it learns from the
# attributed spans); otherwise ``None``: declared, no sample.
_COST_MODEL_FAMILIES = (
    Family(Gauge, "repro_request_cost_model_keys",
           "Distinct (ion, method, width-bucket) cost-model keys",
           lambda m: m and m.n_keys),
    Family(Counter, "repro_request_cost_model_observations_total",
           "Measured task costs folded into the online cost model",
           lambda m: m and m.n_observations),
    Family(Gauge, "repro_request_cost_model_mean_abs_rel_error",
           "Running mean |predicted - measured| / measured of the cost model",
           lambda m: m and m.mean_abs_rel_error),
)


def _residency_cells(grid):
    """(device, load) -> seconds over a device x load residency array."""
    if grid is not None:
        for d, row in enumerate(grid.tolist()):
            for load, seconds in enumerate(row):
                yield (str(d), str(load)), seconds


#: Relative-error buckets for the predicted-vs-measured histogram: the
#: EWMA cost model converges to a few percent, so the resolution sits
#: there, with a long tail for cold-start mispredictions.
SCHED_ERROR_BUCKETS = (0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5)


class _Sched(NamedTuple):
    """What the ``repro_sched_*`` families read off a broker's telemetry."""

    n_devices: int
    steals: Sequence[int]
    donations: Sequence[int]
    errors: Sequence[float]
    mean_loads: Sequence[float]
    imbalance: float

    @classmethod
    def of_telemetry(cls, broker) -> "_Sched":
        tel = broker.telemetry
        grid, means = tel.load_residency, tel.sched_mean_loads()
        return cls(grid.shape[0] if grid is not None else 1, tel.sched_steals,
                   tel.sched_donations, tel.sched_prediction_errors,
                   means, tel.sched_imbalance(means))

    def per_device(self, values) -> list:
        return [((str(d),), values[d] if d < len(values) else 0.0)
                for d in range(max(1, self.n_devices))]


# Predictive scheduling.  Always emitted — all-zero counters, an empty
# histogram, a 0.0 imbalance under a depth scheduler — so scrapers and
# the CI validation step see a stable exposition either way.
_SCHED_FAMILIES = (
    Family(Counter, "repro_sched_steals_total",
           "Tasks each device pulled from another device's queue",
           lambda s: s.per_device(s.steals), ("device",)),
    Family(Counter, "repro_sched_donations_total",
           "Tasks pulled away from each device's queue",
           lambda s: s.per_device(s.donations), ("device",)),
    Family(Histogram, "repro_sched_prediction_error",
           "Relative |predicted - measured| / measured task cost",
           lambda s: (((), s.errors),), (), SCHED_ERROR_BUCKETS),
    Family(Gauge, "repro_sched_mean_device_load",
           "Time-weighted mean queue load per device",
           lambda s: s.per_device(s.mean_loads), ("device",)),
    Family(Gauge, "repro_sched_load_imbalance",
           "Spread (max - min) of time-weighted mean device loads",
           lambda s: s.imbalance),
)

#: The serving stack's exposition, in order: ``(families, source of a
#: broker)`` — every family ``broker.registry()`` exports.
SERVICE_FAMILIES = (
    (_REQUEST_FAMILIES, lambda broker: broker),
    (PLAN_CACHE_FAMILIES, _plan_cache),
    (_SPECTRUM_CACHE_FAMILIES, lambda broker: broker.cache),
    (_LATTICE_FAMILIES, lambda broker: broker.lattice_report()),
    (_DISPATCH_FAMILIES, lambda broker: broker),
    (_COST_FAMILIES, _current_ledger),
    (_COST_MODEL_FAMILIES,
     lambda broker: broker.cost_model if broker.attribution is not None else None),
    ((Family(Gauge, "repro_device_load_residency_seconds",
             "Virtual seconds each device load level was held (all batches)",
             _residency_cells, ("device", "load")),),
     lambda broker: broker.telemetry.load_residency),
    (_SCHED_FAMILIES, _Sched.of_telemetry),
    ((Family(Gauge, "repro_virtual_time_seconds", "Virtual end time of the run",
             lambda broker: broker.telemetry.end_time),),
     lambda broker: broker),
)


def fill_service(registry: MetricsRegistry, broker) -> MetricsRegistry:
    """Bring a broker's registry up to date with the broker's ledgers."""
    for families, source_of in SERVICE_FAMILIES:
        fill(registry, families, source_of(broker))
    # Trace-id exemplars: the most recent traced completions annotate the
    # buckets their latencies fell in, linking the histogram back to the
    # causal trace (OpenMetrics-style).  Only the lane's retained window
    # counts, so each fill replaces the lane's exemplars outright.
    latency = registry.get("repro_request_latency_seconds")
    bounds = itertools.repeat(latency.bounds)
    for lane, stats in broker.telemetry.lanes.items():
        exemplars = stats.latency_exemplars
        if exemplars:  # bucket -> its latest (latency, trace id), bucketed in C
            latest = dict(zip(map(bisect.bisect_left, bounds, map(itemgetter(0), exemplars)),
                              exemplars))
            latency._exemplars[(lane,)] = {
                idx: ({"trace_id": f"{tid:x}"}, float(v))
                for idx, (v, tid) in latest.items()
            }
    return registry
