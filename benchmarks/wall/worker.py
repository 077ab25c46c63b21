"""One workload in one fresh process (started by ``run.py``, never imported).

A fresh process with a fixed call order is part of the measurement: the
same ``SerialAPEC.compute`` call costs 0.5 s or 1.1 s depending on what
the process allocated before it (glibc adapts its mmap threshold, which
changes the page-fault cost of NumPy temporaries), so timings taken in a
process shared with other work are not comparable between commits.

Protocol on stdout: ``READY`` once set-up and the warm-up pass are done
(the parent timestamps it — that interval is ``setup_s``), ``SLOWDOWN x``
(the reference loop's reading at that moment), then, unless ``--mode
setup``, one ``RESULT <json>`` line.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time

MIN_PASSES = 3
#: One reference-loop burst corrects a whole set-up, so it is longer
#: than the bursts between passes.
SETUP_BURST_S = 0.1


def peak_rss_mb() -> float:
    """High-water RSS of this process and any children it waited for."""
    kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kib / 1024.0


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--scale", type=float, default=1.0)
    ap.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    ap.add_argument("--out", default=None)
    ap.add_argument("--inject-fault", action="store_true")
    args = ap.parse_args()

    from host import fingerprint
    from refloop import host_slowdown
    from spans import SpanRecorder
    from summary import summarize
    from workloads import WORKLOADS

    traced = args.mode == "trace"
    rec = SpanRecorder(args.workload)
    rec.enabled = traced
    workload = WORKLOADS[args.workload](args.seed, args.scale, rec)

    with rec.span(f"wall.workload.{args.workload}"):
        with rec.span("wall.setup"):
            workload.setup()
            workload.account(workload.run_pass(-1))  # warm-up
        print("READY", flush=True)
        # Taken here, in the process that just did the work, not by the
        # parent: an idle parent's first loops after waking read 1.5x slow.
        slow_at_ready = host_slowdown(SETUP_BURST_S)
        print(f"SLOWDOWN {slow_at_ready!r}", flush=True)
        if args.mode == "setup":
            return 0

        # The traced run spends half its time here and the rest in the
        # per-layer probes; traced and untraced passes alternate so that
        # their ratio is taken within one process.
        budget = args.seconds / 2 if traced else args.seconds
        rates: dict[bool, list[float]] = {True: [], False: []}
        raw_rates: list[float] = []
        slowdowns: list[float] = []
        pass_s: list[float] = []
        attempted = failed = 0
        notes: list[str] = []
        sim: dict[str, float] | None = None
        raw = None
        loop_start = time.perf_counter()
        slow_before = slow_at_ready
        i = 0
        while i < MIN_PASSES or time.perf_counter() - loop_start < budget:
            rec.enabled = traced and i % 2 == 0
            rec.pass_index = i
            gc.collect()
            t0 = time.perf_counter()
            with rec.span("wall.pass"):
                raw = workload.run_pass(i)
            dt = time.perf_counter() - t0
            slow_after = host_slowdown()
            slowdown = (slow_before + slow_after) / 2
            slow_before = slow_after
            if args.inject_fault and i == 0:
                workload.corrupt(raw)
            stats = workload.account(raw)
            attempted += stats.ops
            failed += stats.failed
            rates[rec.enabled].append(stats.ops / dt * slowdown)
            if not rec.enabled:
                raw_rates.append(stats.ops / dt)
            slowdowns.append(slowdown)
            pass_s.append(dt)
            if sim is None:
                sim = stats.sim
            elif stats.sim != sim:
                attempted += 1
                failed += 1
                notes.append(f"pass {i}: simulated metrics differ from pass 0")
            i += 1
        rec.enabled = traced
        rec.pass_index = -1

        with rec.span("wall.check"):
            checks = workload.check(raw)
        attempted += checks.attempted
        failed += checks.failed
        notes += checks.notes
        sim = {**(sim or {}), **checks.sim}

        result = {
            "workload": args.workload,
            "op": workload.op,
            "seed": args.seed,
            "scale": args.scale,
            "seconds": args.seconds,
            "mode": args.mode,
            "host": fingerprint(),
            "attempted": attempted,
            "failed": failed,
            "notes": notes,
            "pass_s": pass_s,
            "ops_per_s": summarize(rates[False]),
            "ops_per_s_raw": summarize(raw_rates),
            "host_slowdown": summarize(slowdowns),
            "sim": sim,
        }
        if traced:
            from probes import run_probes

            with rec.span("wall.probes"):
                values, unavailable = run_probes(args.seed, args.scale, rec)
            values["bench.trace_overhead_ratio"] = (
                statistics.median(rates[True]) / statistics.median(rates[False])
            )
            values.update(checks.layer)
            result["per_layer"] = values
            result["unavailable"] = unavailable
    result["peak_rss_mb"] = peak_rss_mb()

    if traced:
        result["layers"] = rec.layer_times()
        if args.out:
            from repro.obs import validate_chrome_trace

            counts = {k: v for k, v in result["per_layer"].items() if v is not None}
            chrome = rec.to_chrome(counts)
            problems = validate_chrome_trace(chrome)
            if problems:
                result["notes"].append(f"chrome trace invalid: {problems[:3]}")
                result["failed"] += 1
            result["attempted"] += 1
            os.makedirs(args.out, exist_ok=True)
            with open(os.path.join(args.out, f"{args.workload}.trace.json"), "w") as fh:
                json.dump(chrome, fh)
            with open(os.path.join(args.out, f"{args.workload}.layers.json"), "w") as fh:
                json.dump(result["layers"], fh, indent=1, sort_keys=True)
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
