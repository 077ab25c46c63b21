"""``docs/METRICS.md`` is generated from the family declarations.

The declarations in :mod:`repro.obs.prom` are the single place that says
what every exported metric is; this module renders them as the reference
page and fails when the committed page is stale.  Regenerate with::

    PYTHONPATH=src python tests/obs/test_metrics_doc.py
"""

import pathlib

from repro.obs import prom

PAGE = pathlib.Path(__file__).resolve().parents[2] / "docs" / "METRICS.md"

_INTRO = """\
# Metrics reference

Generated from the family declarations in `src/repro/obs/prom.py` by
`tests/obs/test_metrics_doc.py` (which fails when this page is stale) —
do not edit by hand.  One declaration per family is the schema, the
first fill and every later refresh, so what is listed here is exactly
what the registries export, in exposition order.  Histograms add the
usual `_bucket{le=...}` / `_sum` / `_count` samples.  The one-shot CLI
commands (`spectrum`, `lattice`) additionally set a few ad-hoc gauges
declared where they are measured, in `src/repro/cli.py`.
"""

_SECTIONS = (
    (
        "Serving stack",
        "`broker.registry()`: one live registry per broker, refreshed in "
        "place from the broker's ledgers.",
        lambda: [f for families, _ in prom.SERVICE_FAMILIES for f in families],
    ),
)


def reference() -> str:
    out = [_INTRO]
    for title, blurb, families in _SECTIONS:
        out += [f"## {title}", "", blurb, "", "| metric | type | labels | meaning |",
                "| --- | --- | --- | --- |"]
        for fam in families():
            kind = fam.cls.kind
            if kind == "histogram":
                kind += " (le: " + ", ".join(prom._fmt(b) for b in fam.buckets) + ")"
            labels = ", ".join(f"`{name}`" for name in fam.labelnames) or "—"
            help_text = fam.help.replace("|", "\\|")
            out.append(f"| `{fam.name}` | {kind} | {labels} | {help_text} |")
        out.append("")
    return "\n".join(out)


def test_metrics_page_is_current():
    assert PAGE.read_text() == reference(), (
        "docs/METRICS.md is stale; regenerate it with "
        "`PYTHONPATH=src python tests/obs/test_metrics_doc.py`"
    )


def test_every_family_has_a_meaning():
    for _title, _blurb, families in _SECTIONS:
        for fam in families():
            assert fam.help.strip() and fam.name.startswith("repro_")


if __name__ == "__main__":
    PAGE.write_text(reference())
    print(f"wrote {PAGE}")
