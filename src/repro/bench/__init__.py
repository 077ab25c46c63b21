"""Shared harness utilities for the ``benchmarks/`` directory."""

from repro._lazy import _exports

__all__, __getattr__ = _exports(__name__, {
    "repro.bench.workloads": (
        "paper_workload", "paper_level_workload", "romberg_workload", "small_real_grid",
        "small_real_database",
    ),
    "repro.bench.reporting": ("format_table", "format_series", "paper_vs_measured"),
    "repro.bench.harness": (
        "CASES", "DEFAULT_TOLERANCES", "SCHEMA_ID", "compare_bench", "load_bench",
        "render_bench", "run_suite", "validate_bench", "write_bench",
    ),
})
