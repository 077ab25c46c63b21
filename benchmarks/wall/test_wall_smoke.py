"""Smoke tests of the wall-clock benchmark itself.

Run with ``PYTHONPATH=src python -m pytest benchmarks/wall`` — outside
the tier-1 ``testpaths``, since every test starts benchmark subprocesses.
Sizes are shrunk with ``--scale 0.05``; nothing here asserts a timing.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in DECLARED["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def bench(out: Path, *extra: str, run_py: Path = HERE / "run.py") -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(run_py), "--scale", "0.05", "--seconds", "0.3",
         "--out", str(out), *extra],
        capture_output=True, text=True, timeout=170,
    )


def last_json(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def untraced(tmp_path_factory) -> dict[str, tuple[subprocess.CompletedProcess, dict]]:
    out = tmp_path_factory.mktemp("untraced")
    runs = {}
    for name in WORKLOADS:
        proc = bench(out, "--workload", name, "--seed", "7")
        assert proc.returncode == 0, proc.stderr
        runs[name] = (proc, json.loads((out / f"{name}.json").read_text()))
    return runs


def test_benchmark_json_meets_the_contract():
    assert set(DECLARED) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert DECLARED["paths"] == ["benchmarks/wall"]
    assert 2 <= len(WORKLOADS) <= 8 and len(DECLARED["per_layer"]) <= 128
    names = WORKLOADS + [m["name"] for m in DECLARED["end_to_end"] + DECLARED["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    for w in DECLARED["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in DECLARED["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    for m in DECLARED["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in DECLARED["end_to_end"] + DECLARED["per_layer"]:
        assert UNIT.fullmatch(m["unit"]) and m["better"] in ("lower", "higher")
    setup = next(m for m in DECLARED["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in DECLARED["end_to_end"])


@pytest.mark.parametrize("name", WORKLOADS)
def test_workload_prints_exactly_the_declared_end_to_end_metrics(untraced, name):
    proc, _ = untraced[name]
    result = last_json(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in DECLARED["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    for metric, unit in declared.items():
        value = result["metrics"][metric]["value"]
        assert isinstance(value, float) and value > 0.0
        # ... and by name, with its unit, in the table a person reads.
        assert re.search(rf"^{name}\s+{re.escape(metric)}\s+\S+ {re.escape(unit)}", proc.stdout, re.M)


def test_traced_run_prints_every_per_layer_metric_and_a_valid_trace(tmp_path):
    from repro.obs import validate_chrome_trace

    result = last_json(bench(tmp_path, "--workload", "serve_observed", "--trace", "1"))
    declared = {m["name"]: m["unit"] for m in DECLARED["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    assert result["correct"] is True

    # On the seed tree every probe runs; the only rows without a value
    # are the ones this workload does not define.
    doc = json.loads((tmp_path / "serve_observed.traced.json").read_text())
    missing = {n: r["reason"] for n, r in doc["rows"].items() if r["value"] is None}
    assert missing == dict.fromkeys(
        ("sim_latency_s_p95", "physics.max_rel_err_vs_qags",
         "approx.lattice.max_err_over_budget"),
        "not defined on this workload",
    )
    assert all(result["metrics"][n]["value"] == 0.0 for n in missing)
    for key in ("nproc", "cpu_model", "python", "numpy", "blas", "env", "load_1m_at_start"):
        assert key in doc["host"]

    trace = json.loads((tmp_path / "serve_observed.trace.json").read_text())
    assert validate_chrome_trace(trace) == []
    spans = [e for e in trace["traceEvents"] if e["ph"] == "X"]
    assert {"wall.workload.serve_observed", "wall.pass", "wall.probes"} <= {e["name"] for e in spans}
    layers = json.loads((tmp_path / "serve_observed.layers.json").read_text())
    assert {"service", "physics", "obs", "wall"} <= set(layers)
    assert all(0.0 <= row["self_s"] <= row["total_s"] for row in layers.values())


def test_a_deleted_call_nulls_only_its_own_probe(monkeypatch):
    """ROADMAP items 2-3 will delete dispatch paths and backends: the
    metrics of the deleted call go ``None`` with the reason, the rest of
    the layer's metrics and every ratio's base survive."""
    import probes
    from repro.core.hybrid import HybridRunner
    from spans import SpanRecorder

    monkeypatch.delattr(HybridRunner, "run_mpi_only")
    wanted = {
        "core.hybrid.shared", "core.hybrid.predictive", "core.hybrid.fallback",
        "core.hybrid.mpi_only",
    }
    monkeypatch.setattr(probes, "PROBES", [p for p in probes.PROBES if p[0] in wanted])
    values, reasons = probes.run_probes(7, 0.05, SpanRecorder("test"))
    assert values["core.hybrid.mpi_only.tasks_per_s"] is None
    assert "run_mpi_only" in reasons["core.hybrid.mpi_only.tasks_per_s"]
    assert set(reasons) == {"core.hybrid.mpi_only.tasks_per_s"}
    assert values["core.hybrid.shared.tasks_per_s"] > 0.0
    assert values["core.hybrid.predictive.tasks_per_s"] > 0.0
    assert values["core.hybrid.fallback.tasks_per_s"] > 0.0


def sim_rows(doc: dict) -> dict[str, float]:
    return {n: r["value"] for n, r in doc["rows"].items() if n.startswith("sim_")}


def test_simulated_metrics_repeat_for_a_seed_and_move_with_it(untraced, tmp_path):
    first = sim_rows(untraced["serve_cold"][1])
    assert first["sim_makespan_s"] > 0.0 and first["sim_latency_s_p50"] > 0.0
    for seed, same in (("7", True), ("11", False)):
        proc = bench(tmp_path, "--workload", "serve_cold", "--seed", seed)
        assert proc.returncode == 0, proc.stderr
        again = sim_rows(json.loads((tmp_path / "serve_cold.json").read_text()))
        assert (again == first) is same


@pytest.mark.parametrize("name", ["sweep_dense", "serve_cold"])
def test_a_corrupted_output_raises_failed_share(tmp_path, name):
    result = last_json(bench(tmp_path, "--workload", name, "--inject-fault"))
    assert result["correct"] is False and result["failed"] >= 1
    doc = json.loads((tmp_path / f"{name}.json").read_text())
    assert doc["rows"]["failed_share"]["value"] > 0.0


def test_compare_flags_a_regression_and_accepts_a_repeat(untraced, tmp_path):
    old, new = tmp_path / "old", tmp_path / "new"
    for d in (old, new):
        d.mkdir()
    doc = untraced["hybrid_paper"][1]
    (old / "hybrid_paper.json").write_text(json.dumps(doc))
    (new / "hybrid_paper.json").write_text(json.dumps(doc))
    cmd = [sys.executable, str(HERE / "compare.py"), str(old), str(new)]
    same = subprocess.run(cmd, capture_output=True, text=True)
    assert same.returncode == 0, same.stdout + same.stderr

    slower = json.loads(json.dumps(doc))
    for key in ("value", "median", "q1", "q3", "min", "max"):
        slower["rows"]["ops_per_s"][key] *= 0.5
        slower["rows"]["sim_makespan_s"][key] *= 1.0 + 1e-12  # a few ulps
    (new / "hybrid_paper.json").write_text(json.dumps(slower))
    worse = subprocess.run(cmd, capture_output=True, text=True)
    assert worse.returncode == 1
    assert re.search(r"ops_per_s .* worse", worse.stdout)
    assert re.search(r"sim_makespan_s .* worse", worse.stdout)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "benchmarks" / "wall",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench(tmp_path / "out", "--workload", "sweep_dense",
                 run_py=tmp_path / "benchmarks" / "wall" / "run.py")
    assert proc.returncode != 0
    assert "{" not in proc.stdout
