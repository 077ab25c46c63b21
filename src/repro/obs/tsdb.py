"""An in-process time-series store: continuous telemetry over sim time.

The metrics registry (:mod:`repro.obs.prom`) is a *snapshot*: it can say
what a counter is, not how it got there.  This module closes that gap
with a dependency-free, bounded store that *scrapes* a registry on the
shared sim clock at a configurable cadence:

- each sample a registry renders becomes one point in a per-series ring
  buffer keyed by ``(sample name, label set)``, so history is bounded
  per series no matter how long a run is;
- scrape times ride the caller's clock (the service broker scrapes at
  batch completions); :data:`NULL_TSDB` is the free disabled path;
- the JSON round trip is *exact*: timestamps and values are
  delta-encoded as XOR deltas of their IEEE-754 bit patterns (the
  Gorilla trick), so repeated or slowly-moving values compress to
  streams of zeros while ``from_dict(to_dict(s))`` reproduces every
  float bit for bit.

The query engine (:mod:`repro.obs.query`), anomaly detector
(:mod:`repro.obs.anomaly`), and dashboard renderer
(:mod:`repro.obs.dash`) are all consumers of this store.
"""

from __future__ import annotations

import struct
from typing import Iterable, Mapping, Optional

__all__ = [
    "NULL_TSDB",
    "NullTimeSeriesStore",
    "Series",
    "TimeSeriesStore",
]

TSDB_SCHEMA = "repro.tsdb/v1"


# ----------------------------------------------------------------------
# Exact delta encoding (IEEE-754 bit-pattern XOR)
# ----------------------------------------------------------------------
def _bits(value: float) -> int:
    return struct.unpack(">Q", struct.pack(">d", float(value)))[0]


def _unbits(bits: int) -> float:
    return struct.unpack(">d", struct.pack(">Q", bits))[0]


def encode_floats(values: Iterable[float]) -> list[int]:
    """XOR-delta encode a float sequence losslessly.

    The first element is the raw 64-bit pattern; each subsequent element
    is the XOR against its predecessor's pattern — 0 for repeats, small
    for slow drifts — so the JSON stays compact without ever rounding.
    """
    out: list[int] = []
    prev = 0
    for value in values:
        bits = _bits(value)
        out.append(bits if not out else bits ^ prev)
        prev = bits
    return out


def decode_floats(encoded: Iterable[int]) -> list[float]:
    """Invert :func:`encode_floats` exactly."""
    out: list[float] = []
    prev = 0
    for delta in encoded:
        bits = delta if not out else delta ^ prev
        out.append(_unbits(bits))
        prev = bits
    return out


def _label_key(labels: Mapping[str, str]) -> tuple[tuple[str, str], ...]:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Series:
    """One bounded series: ``(name, labels)`` plus a ring of points.

    ``kind`` records the originating metric family's type (``counter`` /
    ``gauge`` / ``histogram``) so consumers know whether to difference
    (counters) or read raw (gauges).  ``evicted`` counts points dropped
    by the ring so cursor-based consumers (the anomaly detector) can
    skip exactly the points they already saw.
    """

    __slots__ = ("name", "labels", "kind", "capacity", "key", "_ts", "_vs", "evicted")

    def __init__(
        self,
        name: str,
        labels: Mapping[str, str],
        kind: str = "gauge",
        capacity: int = 512,
    ) -> None:
        if capacity < 2:
            raise ValueError("series capacity must be >= 2")
        self.name = name
        self.labels = {str(k): str(v) for k, v in labels.items()}
        self.kind = kind
        self.capacity = capacity
        self.key = (name, _label_key(self.labels))
        self._ts: list[float] = []
        self._vs: list[float] = []
        self.evicted = 0

    def __len__(self) -> int:
        return len(self._ts)

    def append(self, t: float, value: float) -> None:
        """Add one point; same-timestamp appends overwrite in place.

        Overwriting keeps "the value at t" well-defined when two events
        land on the same virtual instant (two batches completing
        simultaneously): the later write is the registry's newer state.
        """
        ts, vs = self._ts, self._vs
        if ts and t <= ts[-1]:
            if t == ts[-1]:
                vs[-1] = float(value)
                return
            raise ValueError(
                f"series {self.name}: non-monotonic append ({t} after {ts[-1]})"
            )
        ts.append(float(t))
        vs.append(float(value))
        if len(ts) > self.capacity:
            drop = len(ts) - self.capacity
            del ts[:drop]
            del vs[:drop]
            self.evicted += drop

    def points(self) -> list[tuple[float, float]]:
        """Every retained point, oldest first."""
        return list(zip(self._ts, self._vs))

    def tail(self, start: int) -> tuple[list[float], list[float]]:
        """Times and values from ring index ``start`` on — what a
        cursor-holding consumer has not read yet, and nothing else."""
        return self._ts[start:], self._vs[start:]

    def values(self) -> list[float]:
        return list(self._vs)

    def latest_at(self, t: float) -> Optional[tuple[float, float]]:
        """The newest point with timestamp <= ``t`` (None if none)."""
        idx = self._index_at(t)
        if idx < 0:
            return None
        return self._ts[idx], self._vs[idx]

    def base_at(self, t: float, window_s: float) -> Optional[tuple[float, float]]:
        """The reference point a trailing-window rate measures against.

        The newest point with timestamp <= ``t - window_s``; when the
        window reaches past the retained history, the oldest point not
        after ``t`` — exactly the head the SLO engine's legacy burn-rate
        history kept after pruning.
        """
        last = self._index_at(t)
        if last < 0:
            return None
        horizon = t - window_s
        base = self._index_at(horizon)
        if base < 0:
            base = 0  # oldest retained point
        base = min(base, last)
        return self._ts[base], self._vs[base]

    def window(self, start: float, end: float) -> list[tuple[float, float]]:
        """Points with ``start < t <= end`` (the PromQL range shape)."""
        import bisect

        lo = bisect.bisect_right(self._ts, start)
        hi = bisect.bisect_right(self._ts, end)
        return list(zip(self._ts[lo:hi], self._vs[lo:hi]))

    def _index_at(self, t: float) -> int:
        import bisect

        return bisect.bisect_right(self._ts, t) - 1

    def to_dict(self, since: Optional[float] = None) -> dict:
        ts, vs = self._ts, self._vs
        if since is not None:
            import bisect

            lo = bisect.bisect_left(ts, since)
            ts, vs = ts[lo:], vs[lo:]
        return {
            "name": self.name,
            "labels": dict(sorted(self.labels.items())),
            "kind": self.kind,
            "t": encode_floats(ts),
            "v": encode_floats(vs),
            "evicted": self.evicted,
        }

    @classmethod
    def from_dict(cls, doc: dict, capacity: int = 512) -> "Series":
        s = cls(doc["name"], doc.get("labels", {}), doc.get("kind", "gauge"),
                capacity=max(capacity, len(doc["t"]), 2))
        s._ts = decode_floats(doc["t"])
        s._vs = decode_floats(doc["v"])
        s.evicted = int(doc.get("evicted", 0))
        return s


class TimeSeriesStore:
    """Bounded ring-buffer store scraping registries into series.

    One store owns many :class:`Series`; :meth:`scrape` walks every
    sample a registry renders and appends one point per series at the
    scrape time — a sample is resolved to its series the first time it
    is seen and the handle reused afterwards.  ``cadence_s`` throttles
    :meth:`due` so hot paths (the broker's per-batch hook) refresh their
    registry only when a scrape is actually owed; ``cadence_s=0`` scrapes
    on every opportunity.
    """

    enabled = True

    def __init__(self, capacity: int = 512, cadence_s: float = 0.0) -> None:
        if capacity < 2:
            raise ValueError("capacity must be >= 2")
        if not 0.0 <= cadence_s < float("inf"):
            raise ValueError(f"cadence_s must be finite and non-negative, got {cadence_s}")
        self.capacity = capacity
        self.cadence_s = cadence_s
        self._series: dict[tuple, Series] = {}
        self._sorted: list[Series] = []  # key-ordered view of ``_series``
        #: Registry sample identity -> its series, resolved on first sight.
        self._bound: dict[tuple, Series] = {}
        self.families: dict[str, str] = {}  # family name -> metric kind
        self.scrape_times: list[float] = []
        self.last_scrape: Optional[float] = None
        self.n_scrapes = 0
        self.n_samples = 0

    def __len__(self) -> int:
        return len(self._series)

    # ------------------------------------------------------------------
    # Scraping
    # ------------------------------------------------------------------
    def due(self, now: float) -> bool:
        """Whether a scrape is owed at ``now`` under the cadence."""
        if self.last_scrape is None:
            return True
        if now == self.last_scrape:
            return False
        return now - self.last_scrape >= self.cadence_s

    def scrape(self, registry, now: float) -> int:
        """Scrape every sample of ``registry`` at time ``now``.

        Returns the number of samples appended.  Re-scraping the same
        timestamp overwrites in place (see :meth:`Series.append`), so
        the store never holds two points at one instant.
        """
        appended = 0
        bound = self._bound
        for metric in registry.metrics():
            for ident, value in metric.rows():
                series = bound.get(ident)
                if series is None:
                    series = bound[ident] = self._bind(ident, metric.kind)
                series.append(now, value)
                appended += 1
        if not self.scrape_times or self.scrape_times[-1] != now:
            self.scrape_times.append(now)
            if len(self.scrape_times) > self.capacity:
                del self.scrape_times[: len(self.scrape_times) - self.capacity]
        self.last_scrape = now
        self.n_scrapes += 1
        self.n_samples += appended
        return appended

    def _bind(self, ident: tuple, kind: str) -> Series:
        """The series a registry sample lands in (adopted or created)."""
        name, labelnames, values = ident
        self.families.setdefault(name, kind)
        fresh = Series(name, dict(zip(labelnames, values)), kind, capacity=self.capacity)
        return self._series.setdefault(fresh.key, fresh)

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def series(self, name: Optional[str] = None) -> list[Series]:
        """Every series (optionally restricted to one sample name)."""
        if len(self._sorted) != len(self._series):  # series are only added
            self._sorted = sorted(self._series.values(), key=lambda s: s.key)
        return [s for s in self._sorted if name is None or s.name == name]

    # ------------------------------------------------------------------
    # Exact JSON round trip
    # ------------------------------------------------------------------
    def to_dict(self, since: Optional[float] = None) -> dict:
        """JSON-serializable snapshot (optionally only points >= since)."""
        series = [
            s.to_dict(since=since)
            for s in self.series()
        ]
        if since is not None:
            series = [doc for doc in series if doc["t"]]
        times = self.scrape_times
        if since is not None:
            times = [t for t in times if t >= since]
        return {
            "schema": TSDB_SCHEMA,
            "capacity": self.capacity,
            "cadence_s": self.cadence_s,
            "scrape_times": encode_floats(times),
            "families": dict(sorted(self.families.items())),
            "series": series,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "TimeSeriesStore":
        if not isinstance(doc, dict):
            raise ValueError(f"expected a {TSDB_SCHEMA!r} object, got {type(doc).__name__}")
        if doc.get("schema") != TSDB_SCHEMA:
            raise ValueError(
                f"expected schema {TSDB_SCHEMA!r}, got {doc.get('schema')!r}"
            )
        store = cls(
            capacity=int(doc.get("capacity", 512)),
            cadence_s=float(doc.get("cadence_s", 0.0)),
        )
        store.families = dict(doc.get("families", {}))
        store.scrape_times = decode_floats(doc.get("scrape_times", []))
        if store.scrape_times:
            store.last_scrape = store.scrape_times[-1]
            store.n_scrapes = len(store.scrape_times)
        for sdoc in doc.get("series", []):
            series = Series.from_dict(sdoc, capacity=store.capacity)
            store._series[series.key] = series
            store.n_samples += len(series)
        return store


class NullTimeSeriesStore:
    """The zero-overhead disabled store (mirror of ``NULL_TRACER``).

    Every hot-path guard reduces to one ``enabled`` attribute read; the
    methods exist so accidental unguarded calls stay harmless no-ops.
    """

    enabled = False
    cadence_s = 0.0
    scrape_times: list[float] = []
    families: dict[str, str] = {}

    def due(self, now: float) -> bool:
        return False

    def scrape(self, registry, now: float) -> int:
        return 0

    def series(self, name=None) -> list:
        return []

    def __len__(self) -> int:
        return 0


NULL_TSDB = NullTimeSeriesStore()
