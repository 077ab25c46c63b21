#!/usr/bin/env python3
"""Wall-clock layer-budget benchmark: one command, every metric by name.

    python3 benchmarks/wall/run.py [--workload NAME] [--seed N]
                                   [--seconds S] [--trace 0|1|both]

Each workload runs in fresh subprocesses of its own (see ``worker.py``
for why).  An untraced run reports the end-to-end metrics declared in
``BENCHMARK.json`` (plus the simulated-clock rows, which cost nothing to
read); a traced run (``--trace 1``) reports every per-layer metric and
writes a Chrome trace and ``layers.json``.  With ``--workload`` the last
line of stdout is one JSON object, the form the PR driver reads.

This file never imports ``repro``: it only starts workers, reads their
results and prints them, so nothing it allocates can leak into a timing.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SCHEMA = "repro.wallbench/v1"
#: Set-ups per untraced run; ``setup_s`` is their median.  A shrunk run
#: (``--scale`` < 1: smoke tests, nothing gated) sets up once.
SETUP_SAMPLES = 3
#: Hard stop for one worker, inside the driver's 180 s per run.
WORKER_TIMEOUT_S = 170.0
TIME_UNITS = {"s", "ms", "us", "op/s", "1/s"}

sys.path.insert(0, str(HERE))
from host import load_1m, nproc  # noqa: E402
from summary import summarize  # noqa: E402


def load_declared() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def worker_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_worker(mode: str, args: argparse.Namespace, workload: str) -> tuple[float, float, dict | None]:
    """Start one worker; returns (spawn -> READY seconds, the host
    slowdown it read at that moment, its result)."""
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--scale", str(args.scale),
        "--mode", mode, "--out", str(args.out),
    ]
    if args.inject_fault:
        cmd.append("--inject-fault")
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, text=True, env=worker_env(), cwd=ROOT
    )
    # A hung worker is killed rather than waited for: the driver allows
    # one run 180 s.
    watchdog = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
    watchdog.start()
    ready_s = slowdown = None
    result = None
    try:
        assert proc.stdout is not None
        for line in proc.stdout:
            if line.startswith("READY"):
                ready_s = time.perf_counter() - t0
            elif line.startswith("SLOWDOWN "):
                slowdown = float(line.split()[1])
            elif line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0 or ready_s is None or slowdown is None or (mode != "setup" and result is None):
        raise RuntimeError(f"worker {workload}/{mode} failed (exit code {code})")
    return ready_s, slowdown, result


def run_workload(workload: str, traced: bool, args: argparse.Namespace, declared: dict) -> dict:
    """All the worker runs of one workload, folded into one result doc."""
    load = load_1m()
    busy = load > nproc()
    if busy:
        print(
            f"warning: 1-min load average {load:.2f} exceeds nproc {nproc()}; "
            "timing rows are marked unresolved", file=sys.stderr,
        )
    rows: dict[str, dict] = {}

    def row(name: str, spec: dict, kind: str, stats: dict | None, reason: str | None = None) -> None:
        """``stats`` None = no value: the file keeps ``null`` and the
        reason; only the driver's JSON line substitutes 0."""
        if stats is None:
            stats = {"median": None, "q1": None, "q3": None, "min": None, "max": None, "n": 0}
        rows[name] = {
            "value": stats["median"], "unit": spec["unit"], "better": spec["better"],
            "kind": kind, **stats,
            "unresolved": busy and spec["unit"] in TIME_UNITS,
        }
        if "bound" in spec:
            rows[name]["bound"] = spec["bound"]
        if reason:
            rows[name]["reason"] = reason

    per_layer = {m["name"]: m for m in declared["per_layer"]}
    if traced:
        *_, result = run_worker("trace", args, workload)
    else:
        n_setups = SETUP_SAMPLES if args.scale >= 1.0 else 1
        setups = [run_worker("setup", args, workload)[:2] for _ in range(n_setups - 1)]
        ready_s, slowdown, result = run_worker("measure", args, workload)
        setups.append((ready_s, slowdown))
        measured = {
            "setup_s": summarize([s / slow for s, slow in setups]),
            "ops_per_s": result["ops_per_s"],
            "peak_rss_mb": summarize([result["peak_rss_mb"]]),
        }
        for spec in declared["end_to_end"]:
            row(spec["name"], spec, "end_to_end", measured[spec["name"]])
        # Trend only: the uncorrected rate and the correction applied.
        row("ops_per_s_raw", {"unit": "op/s", "better": "higher"}, "info",
            result["ops_per_s_raw"])
        row("host_slowdown", {"unit": "ratio", "better": "lower"}, "info",
            result["host_slowdown"])
        row("setup_s_raw", {"unit": "s", "better": "lower"}, "info",
            summarize([s for s, _ in setups]))

    # Rows every run can fill: the simulated clock and the failure count.
    always = dict(result["sim"])
    always["failed_share"] = result["failed"] / result["attempted"]
    probed = result.get("per_layer", {})
    unavailable = result.get("unavailable", {})
    for name, spec in per_layer.items():
        value = always.get(name, probed.get(name))
        if value is not None:
            row(name, spec, "per_layer", summarize([value]))
        elif traced or name.startswith("sim_"):
            # Either its probe failed (the worker says why) or this
            # workload has no such quantity.
            row(name, spec, "per_layer", None,
                unavailable.get(name, "not defined on this workload"))

    host = dict(result["host"], load_1m_at_start=load)
    return {
        "schema": SCHEMA,
        "workload": workload,
        "op": result["op"],
        "seed": args.seed,
        "scale": args.scale,
        "seconds": args.seconds,
        "traced": traced,
        "host": host,
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "notes": result["notes"],
        "passes": len(result["pass_s"]),
        "rows": rows,
        "layers": result.get("layers"),
    }


def print_rows(doc: dict) -> None:
    tag = "traced" if doc["traced"] else "untraced"
    print(f"== {doc['workload']} ({tag}, seed {doc['seed']}, {doc['passes']} passes, "
          f"op = {doc['op']}) ==")
    for name, r in doc["rows"].items():
        if r["value"] is None:
            print(f"{doc['workload']:<18} {name:<46} {'n/a':>14} {r['unit']}  ({r['reason']})")
            continue
        extra = ""
        if r["n"] > 1:
            extra = f"  [q1 {r['q1']:.6g}, q3 {r['q3']:.6g}, n {r['n']}]"
        if r["unresolved"]:
            extra += "  unresolved (host busy)"
        print(f"{doc['workload']:<18} {name:<46} {r['value']:>14.6g} {r['unit']}{extra}")
    print(f"{doc['workload']:<18} {'correct':<46} {str(doc['correct']):>14} "
          f"({doc['failed']} failed of {doc['attempted']} attempted)")
    for note in doc["notes"]:
        print(f"{doc['workload']:<18} note: {note}")


def driver_line(doc: dict, declared: dict) -> str:
    """The one-object last line the PR driver parses."""
    kind = "per_layer" if doc["traced"] else "end_to_end"
    # The driver wants a number for every name; a row without one
    # (``null`` in the result file, with its reason) goes out as 0.
    metrics = {
        m["name"]: {"value": doc["rows"][m["name"]]["value"] or 0.0, "unit": m["unit"]}
        for m in declared[kind]
    }
    return json.dumps({
        "correct": doc["correct"],
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": metrics,
    })


def main() -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure under {ROOT / 'src'}", file=sys.stderr)
        return 2
    declared = load_declared()
    names = [w["name"] for w in declared["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=names, help="default: all six")
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=float(declared["run_seconds"]),
                    help="measured time per run")
    ap.add_argument("--trace", choices=("0", "1", "both"), default="0",
                    help="0 end-to-end metrics, 1 per-layer metrics + trace files")
    ap.add_argument("--scale", type=float, default=1.0,
                    help="shrink every count (smoke tests)")
    ap.add_argument("--out", type=Path, default=HERE / "out",
                    help="directory for result, trace and layers files")
    ap.add_argument("--inject-fault", action="store_true",
                    help="corrupt one output (tests that failures are counted)")
    args = ap.parse_args()
    if args.seconds <= 0 or args.scale <= 0:
        ap.error("--seconds and --scale must be positive")
    args.out = args.out.resolve()
    args.out.mkdir(parents=True, exist_ok=True)

    doc = None
    for workload in [args.workload] if args.workload else names:
        for traced in {"0": (False,), "1": (True,), "both": (False, True)}[args.trace]:
            doc = run_workload(workload, traced, args, declared)
            suffix = ".traced.json" if traced else ".json"
            with open(args.out / f"{workload}{suffix}", "w") as fh:
                json.dump(doc, fh, indent=1)
            print_rows(doc)
    if args.workload and args.trace != "both":
        print(driver_line(doc, declared))
    return 0


if __name__ == "__main__":
    sys.exit(main())
