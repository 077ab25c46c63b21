"""A PromQL-subset query engine over the time-series store.

Grammar (recursive descent, no dependencies)::

    expr     := term (('+' | '-') term)*
    term     := factor (('*' | '/') factor)*
    factor   := NUMBER
              | FUNC '(' expr (',' expr)* ')'
              | selector
              | '(' expr ')'
    selector := NAME ('{' matcher (',' matcher)* '}')? ('[' DURATION ']')?
    matcher  := LABEL ('=' | '!=' | '=~') STRING
    DURATION := NUMBER ('ms' | 's' | 'm' | 'h')?      # bare number = seconds

Functions: ``rate``, ``increase``, ``avg_over_time``, ``max_over_time``,
``min_over_time``, ``sum_over_time``, ``count_over_time``,
``histogram_quantile``.

Semantics follow the store's scrape model rather than strict PromQL:

- An instant selector evaluates each matching series to its newest
  point at or before the evaluation time (no staleness cutoff — the
  store only holds real scrapes).
- ``rate(m[w])`` divides the increase over the window by the *actual*
  span between the newest point and the window's base point (the newest
  point at or before ``t - w``, else the oldest retained) — no
  extrapolation.  This is exactly the windowed-delta semantics the SLO
  engine's burn-rate rules historically used, which is what lets the
  engine replace them bit for bit.
- ``histogram_quantile(q, m_bucket{...})`` groups cumulative ``le``
  buckets by their remaining labels and applies the same
  skip-empty-buckets linear interpolation as
  :meth:`repro.obs.prom.Histogram.quantile`, so quantiles computed from
  scrapes match the registry's own estimator exactly.
- Binary operators join vectors on identical label sets; division by
  zero yields 0.0 (deterministic dashboards beat NaN propagation).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence, Union

from repro.obs.tsdb import Series, TimeSeriesStore

__all__ = [
    "QueryEngine",
    "QueryError",
    "Sample",
    "parse_query",
]


class QueryError(ValueError):
    """Raised for syntax errors and invalid evaluations."""


@dataclass(frozen=True)
class Sample:
    """One element of an instant vector: a label set and its value."""

    labels: tuple[tuple[str, str], ...]
    value: float

    def label_dict(self) -> dict[str, str]:
        return dict(self.labels)


Result = Union[float, list[Sample]]


# ----------------------------------------------------------------------
# AST
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Number:
    value: float


@dataclass(frozen=True)
class Matcher:
    label: str
    op: str  # '=', '!=', '=~'
    value: str

    def matches(self, labels: Mapping[str, str]) -> bool:
        actual = labels.get(self.label, "")
        if self.op == "=":
            return actual == self.value
        if self.op == "!=":
            return actual != self.value
        return _regex(self.value).fullmatch(actual) is not None


@dataclass(frozen=True)
class Selector:
    name: str
    matchers: tuple[Matcher, ...] = ()
    window_s: Optional[float] = None


@dataclass(frozen=True)
class FuncCall:
    fn: str
    args: tuple


@dataclass(frozen=True)
class BinOp:
    op: str
    lhs: object
    rhs: object


_REGEX_CACHE: dict[str, "re.Pattern[str]"] = {}


def _regex(pattern: str) -> "re.Pattern[str]":
    compiled = _REGEX_CACHE.get(pattern)
    if compiled is None:
        try:
            compiled = re.compile(pattern)
        except re.error as exc:
            raise QueryError(f"bad regex {pattern!r}: {exc}") from None
        _REGEX_CACHE[pattern] = compiled
    return compiled


RANGE_FUNCS = {
    "rate",
    "increase",
    "avg_over_time",
    "max_over_time",
    "min_over_time",
    "sum_over_time",
    "count_over_time",
}
FUNCS = RANGE_FUNCS | {"histogram_quantile"}


# ----------------------------------------------------------------------
# Tokenizer
# ----------------------------------------------------------------------
_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<number>(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?)
  | (?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)
  | (?P<string>"(?:[^"\\]|\\.)*")
  | (?P<op>=~|!=|[=+\-*/(){}\[\],])
    """,
    re.VERBOSE,
)

_ESCAPES = {"\\": "\\", '"': '"', "n": "\n", "t": "\t"}


def _unquote(raw: str) -> str:
    body = raw[1:-1]
    out: list[str] = []
    i = 0
    while i < len(body):
        ch = body[i]
        if ch == "\\" and i + 1 < len(body):
            out.append(_ESCAPES.get(body[i + 1], body[i + 1]))
            i += 2
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def _tokenize(text: str) -> list[tuple[str, str]]:
    tokens: list[tuple[str, str]] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise QueryError(f"bad character {text[pos]!r} at offset {pos}")
        pos = m.end()
        kind = m.lastgroup
        if kind != "ws":
            tokens.append((kind, m.group()))
    tokens.append(("eof", ""))
    return tokens


class _Parser:
    def __init__(self, text: str) -> None:
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> tuple[str, str]:
        return self.tokens[self.pos]

    def next(self) -> tuple[str, str]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, value: str) -> None:
        kind, got = self.next()
        if got != value:
            raise QueryError(
                f"expected {value!r}, got {got or 'end of input'!r} "
                f"in {self.text!r}"
            )

    # expr := term (('+'|'-') term)*
    def expr(self):
        node = self.term()
        while self.peek()[1] in ("+", "-"):
            op = self.next()[1]
            node = BinOp(op, node, self.term())
        return node

    def term(self):
        node = self.factor()
        while self.peek()[1] in ("*", "/"):
            op = self.next()[1]
            node = BinOp(op, node, self.factor())
        return node

    def factor(self):
        kind, value = self.peek()
        if value == "(":
            self.next()
            node = self.expr()
            self.expect(")")
            return node
        if kind == "number":
            self.next()
            return Number(float(value))
        if kind == "name":
            if value in FUNCS and self.tokens[self.pos + 1][1] == "(":
                return self.func_call()
            return self.selector()
        raise QueryError(
            f"unexpected {value or 'end of input'!r} in {self.text!r}"
        )

    def func_call(self):
        fn = self.next()[1]
        self.expect("(")
        args = [self.expr()]
        while self.peek()[1] == ",":
            self.next()
            args.append(self.expr())
        self.expect(")")
        return FuncCall(fn, tuple(args))

    def selector(self):
        name = self.next()[1]
        matchers: list[Matcher] = []
        if self.peek()[1] == "{":
            self.next()
            while self.peek()[1] != "}":
                lkind, label = self.next()
                if lkind != "name":
                    raise QueryError(f"expected label name, got {label!r}")
                okind, op = self.next()
                if op not in ("=", "!=", "=~"):
                    raise QueryError(f"expected label operator, got {op!r}")
                skind, raw = self.next()
                if skind != "string":
                    raise QueryError(
                        f"expected quoted label value, got {raw!r}"
                    )
                matchers.append(Matcher(label, op, _unquote(raw)))
                if self.peek()[1] == ",":
                    self.next()
            self.expect("}")
        window = None
        if self.peek()[1] == "[":
            self.next()
            window = self.duration()
            self.expect("]")
        return Selector(name, tuple(matchers), window)

    def duration(self) -> float:
        kind, value = self.next()
        if kind != "number":
            raise QueryError(f"expected duration, got {value!r}")
        seconds = float(value)
        nkind, unit = self.peek()
        if nkind == "name" and unit in ("ms", "s", "m", "h"):
            self.next()
            seconds *= {"ms": 1e-3, "s": 1.0, "m": 60.0, "h": 3600.0}[unit]
        return seconds

    def parse(self):
        node = self.expr()
        kind, value = self.peek()
        if kind != "eof":
            raise QueryError(f"trailing {value!r} in {self.text!r}")
        return node


def parse_query(text: str):
    """Parse ``text`` into an AST (cached by :class:`QueryEngine`)."""
    return _Parser(text).parse()


# ----------------------------------------------------------------------
# Evaluation
# ----------------------------------------------------------------------
def _series_key(series: Series) -> tuple[tuple[str, str], ...]:
    return tuple(sorted(series.labels.items()))


def _select(store: TimeSeriesStore, sel: Selector) -> list[Series]:
    return [
        s
        for s in store.series(sel.name)
        if all(m.matches(s.labels) for m in sel.matchers)
    ]


def _histogram_quantile(q: float, buckets: list[Sample]) -> list[Sample]:
    """The registry's own estimator, re-run over scraped buckets.

    Cumulative ``le`` buckets are grouped by their remaining labels;
    per-bucket counts are recovered by differencing, then interpolated
    with the exact algorithm of
    :meth:`repro.obs.prom.Histogram.quantile` — skip empty buckets,
    linear within the first bucket crossing ``q * total``, clamp to the
    last finite bound — so SLO quantile rules evaluated here reproduce
    registry-side values bit for bit.
    """
    groups: dict[tuple[tuple[str, str], ...], list[tuple[float, float]]] = {}
    for sample in buckets:
        labels = sample.label_dict()
        le = labels.pop("le", None)
        if le is None:
            raise QueryError(
                "histogram_quantile needs _bucket series with le labels"
            )
        bound = float("inf") if le in ("+Inf", "inf", "Inf") else float(le)
        key = tuple(sorted(labels.items()))
        groups.setdefault(key, []).append((bound, sample.value))
    out: list[Sample] = []
    for key in sorted(groups):
        pairs = sorted(groups[key])
        bounds = [b for b, _ in pairs if b != float("inf")]
        cumulative = [c for _, c in pairs]
        total = cumulative[-1]
        counts = [
            cumulative[i] - (cumulative[i - 1] if i else 0.0)
            for i in range(len(cumulative))
        ]
        if total == 0:
            out.append(Sample(key, 0.0))
            continue
        target = q * total
        cum = 0.0
        lower = 0.0
        value = bounds[-1] if bounds else 0.0
        for bound, n in zip(bounds, counts):
            if n and cum + n >= target:
                fraction = (target - cum) / n
                value = lower + (bound - lower) * fraction
                break
            cum += n
            lower = bound
        out.append(Sample(key, value))
    return out


def _combine(op: str, a: float, b: float) -> float:
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    if b == 0.0:
        return 0.0
    return a / b


class QueryEngine:
    """Evaluate parsed expressions against one store."""

    def __init__(self, store: TimeSeriesStore) -> None:
        self.store = store
        self._asts: dict[str, object] = {}

    def compile(self, expr: str):
        ast = self._asts.get(expr)
        if ast is None:
            ast = parse_query(expr)
            self._asts[expr] = ast
        return ast

    def query(self, expr: str, at: Optional[float] = None) -> Result:
        """Evaluate ``expr`` at time ``at`` (default: newest scrape)."""
        return self.query_ast(self.compile(expr), at=at)

    def query_ast(self, ast, at: Optional[float] = None) -> Result:
        if at is None:
            at = self.store.last_scrape
            if at is None:
                return []
        return self._eval(ast, at)

    # ------------------------------------------------------------------
    def _eval(self, node, at: float) -> Result:
        if isinstance(node, Number):
            return node.value
        if isinstance(node, Selector):
            if node.window_s is not None:
                raise QueryError(
                    f"range selector {node.name}[...] needs a range function"
                )
            out = []
            for series in _select(self.store, node):
                point = series.latest_at(at)
                if point is not None:
                    out.append(Sample(_series_key(series), point[1]))
            return out
        if isinstance(node, FuncCall):
            return self._eval_func(node, at)
        if isinstance(node, BinOp):
            return self._eval_binop(node, at)
        raise QueryError(f"cannot evaluate {node!r}")

    def _eval_func(self, node: FuncCall, at: float) -> Result:
        if node.fn == "histogram_quantile":
            if len(node.args) != 2:
                raise QueryError("histogram_quantile takes (q, vector)")
            q = self._eval(node.args[0], at)
            if not isinstance(q, float):
                raise QueryError("histogram_quantile: q must be a scalar")
            vec = self._eval(node.args[1], at)
            if isinstance(vec, float):
                raise QueryError("histogram_quantile: second arg not a vector")
            return _histogram_quantile(q, vec)
        # range functions
        if len(node.args) != 1 or not isinstance(node.args[0], Selector):
            raise QueryError(f"{node.fn} takes one range selector argument")
        sel = node.args[0]
        if sel.window_s is None:
            raise QueryError(f"{node.fn} needs a [window], e.g. {sel.name}[30s]")
        out: list[Sample] = []
        for series in _select(self.store, sel):
            value = self._range_value(node.fn, series, at, sel.window_s)
            if value is not None:
                out.append(Sample(_series_key(series), value))
        return out

    @staticmethod
    def _range_value(
        fn: str, series: Series, at: float, window_s: float
    ) -> Optional[float]:
        if fn in ("rate", "increase"):
            latest = series.latest_at(at)
            if latest is None:
                return None
            base = series.base_at(at, window_s)
            assert base is not None  # latest exists, so a base does too
            if fn == "increase":
                return latest[1] - base[1]
            if latest[0] <= base[0]:
                return 0.0
            return (latest[1] - base[1]) / (latest[0] - base[0])
        points = series.window(at - window_s, at)
        if not points:
            return None
        values = [v for _, v in points]
        if fn == "avg_over_time":
            return sum(values) / len(values)
        if fn == "max_over_time":
            return max(values)
        if fn == "min_over_time":
            return min(values)
        if fn == "sum_over_time":
            return sum(values)
        if fn == "count_over_time":
            return float(len(values))
        raise QueryError(f"unknown function {fn!r}")

    def _eval_binop(self, node: BinOp, at: float) -> Result:
        lhs = self._eval(node.lhs, at)
        rhs = self._eval(node.rhs, at)
        if isinstance(lhs, float) and isinstance(rhs, float):
            return _combine(node.op, lhs, rhs)
        if isinstance(lhs, float):
            assert isinstance(rhs, list)
            return [
                Sample(s.labels, _combine(node.op, lhs, s.value)) for s in rhs
            ]
        if isinstance(rhs, float):
            return [
                Sample(s.labels, _combine(node.op, s.value, rhs)) for s in lhs
            ]
        right = {s.labels: s.value for s in rhs}
        out = []
        for s in lhs:
            other = right.get(s.labels)
            if other is not None:
                out.append(Sample(s.labels, _combine(node.op, s.value, other)))
        return out


def format_result(result: Result, unit: str = "") -> str:
    """Render a query result as an aligned plain-text table."""
    if isinstance(result, float):
        return f"{result:g}{(' ' + unit) if unit else ''}"
    if not result:
        return "(empty vector)"
    lines = []
    for sample in sorted(result, key=lambda s: s.labels):
        lbl = ",".join(f'{k}="{v}"' for k, v in sample.labels)
        lines.append(f"{{{lbl}}}  {sample.value:g}")
    return "\n".join(lines)
