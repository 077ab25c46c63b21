#!/usr/bin/env python3
"""Compare two sets of wall-benchmark results, row by row.

    python3 benchmarks/wall/compare.py OLD NEW
    python3 benchmarks/wall/compare.py --repeat-check [--seed N] [--seconds S]

OLD and NEW are directories written by ``run.py --out`` (untraced runs).
Every (end-to-end metric, workload) pair is one row, judged by the bound
and direction ``BENCHMARK.json`` fixes: *worse* / *better* when the
medians differ by more than the bound, *same* otherwise, *unresolved*
when the host was busy or the pass-to-pass spread of either side is wider
than the bound (unless every sample of one side beats every sample of
the other).  The simulated-clock rows (``sim_*``) and ``failed_share``
have no tolerance: a host-speed change must leave them bit for bit, so
any difference at equal seed and scale is *worse* or *better*.

Every ratio is NEW / OLD (base = OLD).  Exit code 1 on any *worse* row
or a higher ``failed_share``.

``--repeat-check`` runs the suite twice on the current tree and demands
that the two agree: every timing median within its bound, every
``sim_*`` row bit-equal.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

sys.path.insert(0, str(HERE))
from summary import spread  # noqa: E402


def load_dir(path: Path) -> dict[str, dict]:
    docs = {}
    for file in sorted(path.glob("*.json")):
        with open(file) as fh:
            doc = json.load(fh)
        if isinstance(doc, dict) and "rows" in doc and not doc.get("traced"):
            docs[doc["workload"]] = doc
    if not docs:
        raise SystemExit(f"error: no untraced result files in {path}")
    return docs


def worsening(old: float, new: float, better: str) -> float:
    """Relative change in the bad direction, as a share of OLD."""
    if old == 0.0:
        if new == 0.0:
            return 0.0
        bad = (new > 0.0) == (better == "lower")
        return float("inf") if bad else float("-inf")
    change = (new - old) / abs(old)
    return change if better == "lower" else -change


def judge(old: dict, new: dict, bound: float, exact: bool, comparable: bool) -> tuple[str, str, str]:
    """(verdict, what the medians alone say, why the two differ)."""
    bad = worsening(old["median"], new["median"], old["better"])
    by_medians = "worse" if bad > bound else "better" if -bad > bound else "same"
    if exact:
        if not comparable:
            return "unresolved", by_medians, "seed or scale differ"
        return by_medians, by_medians, ""
    if old.get("unresolved") or new.get("unresolved"):
        return "unresolved", by_medians, "host busy"
    if max(spread(old), spread(new)) > bound:
        lower = old["better"] == "lower"
        new_wins = new["max"] < old["min"] if lower else new["min"] > old["max"]
        old_wins = old["max"] < new["min"] if lower else old["min"] > new["max"]
        if not (new_wins or old_wins):
            return "unresolved", by_medians, "spread wider than bound"
    return by_medians, by_medians, ""


def fmt(row: dict) -> str:
    if row["value"] is None:
        return "n/a"
    if row["n"] > 1:
        return f"{row['median']:.6g} [{row['q1']:.4g}, {row['q3']:.4g}] n={row['n']}"
    return f"{row['value']:.6g}"


def compare(old_docs: dict, new_docs: dict, bounds: dict[str, float], strict: bool) -> int:
    """Print every row; returns the number of rows that fail."""
    failures = 0
    print(f"{'workload':<18} {'metric':<20} {'OLD':<36} {'NEW':<36} {'NEW/OLD':>8}  verdict")
    for workload, old_doc in old_docs.items():
        new_doc = new_docs.get(workload)
        if new_doc is None:
            print(f"{workload:<18} missing from NEW")
            failures += 1
            continue
        comparable = (old_doc["seed"], old_doc["scale"]) == (new_doc["seed"], new_doc["scale"])
        for name, old in old_doc["rows"].items():
            new = new_doc["rows"].get(name)
            exact = name.startswith("sim_") or name == "failed_share"
            if new is None or not (exact or old["kind"] == "end_to_end"):
                continue
            if old["value"] is None and new["value"] is None:
                continue  # not defined on this workload
            if old["value"] is None or new["value"] is None:
                print(f"{workload:<18} {name:<20} {fmt(old):<36} {fmt(new):<36} "
                      f"{'':>8}  unresolved (defined on one side only)")
                continue
            verdict, by_medians, why = judge(
                old, new, bounds.get(name, 0.0), exact, comparable
            )
            ratio = new["value"] / old["value"] if old["value"] else float("nan")
            note = f" ({why}; medians say {by_medians})" if why else ""
            print(f"{workload:<18} {name:<20} {fmt(old):<36} {fmt(new):<36} "
                  f"{ratio:>8.4f}  {verdict}{note}")
            if name == "failed_share":
                failed = new["value"] > old["value"]
            elif strict:
                failed = by_medians != "same"  # two runs of one tree must agree
            else:
                failed = verdict == "worse"
            failures += failed
    return failures


def repeat_check(args: argparse.Namespace) -> tuple[Path, Path]:
    dirs = []
    for tag in ("repeat-a", "repeat-b"):
        out = HERE / "out" / tag
        cmd = [sys.executable, str(HERE / "run.py"), "--seed", str(args.seed),
               "--scale", str(args.scale), "--out", str(out)]
        if args.seconds is not None:
            cmd += ["--seconds", str(args.seconds)]
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL, cwd=ROOT)
        dirs.append(out)
    return dirs[0], dirs[1]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("old", nargs="?", type=Path)
    ap.add_argument("new", nargs="?", type=Path)
    ap.add_argument("--repeat-check", action="store_true")
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--scale", type=float, default=1.0)
    args = ap.parse_args()
    if args.repeat_check == (args.old is not None):
        ap.error("give OLD and NEW, or --repeat-check")
    if args.repeat_check:
        args.old, args.new = repeat_check(args)
    elif args.new is None:
        ap.error("give both OLD and NEW")

    with open(ROOT / "BENCHMARK.json") as fh:
        bounds = {m["name"]: m["bound"] for m in json.load(fh)["end_to_end"]}
    failures = compare(load_dir(args.old), load_dir(args.new), bounds, args.repeat_check)
    print(f"{failures} failing row(s); every ratio is NEW/OLD (base = OLD)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
