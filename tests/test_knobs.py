"""The knob inventory: every settable value of the run configs and the CLI.

Each independent setting doubles the configurations tests and benchmarks
must cover, so the inventory is pinned as literals.  Adding, removing or
renaming a knob makes this test fail; the edit that updates a literal
here needs a CHANGES.md line naming the knob and why it was added or
removed.
"""

import argparse
import dataclasses

import pytest

from repro.cli import build_parser
from repro.core.hybrid import HybridConfig
from repro.obs.slo import Rule
from repro.service.broker import ServiceConfig

CONFIG_FIELDS = {
    HybridConfig: (
        "n_workers", "n_gpus", "max_queue_length", "device", "devices", "cost",
        "scheduler_kind", "rpc_latency_s", "async_depth", "stagger_s",
        "tie_break",
    ),
    ServiceConfig: (
        "queue_capacity", "n_service_workers", "batch_max", "batch_window_s",
        "batch_width_max", "cache_max_entries", "cache_max_bytes",
        "cache_ttl_s", "hybrid", "db_n_max", "db_z_max", "lattice",
    ),
    Rule: (
        "name", "metric", "op", "threshold", "labels", "for_s", "quantile",
    ),
}

_OBS = (
    "--trace", "--metrics", "--profile", "--flamegraph", "--cost-report",
    "--dash", "--tsdb-out", "--scrape-cadence",
)
_SCHED = ("--scheduler", "--cost-model")

CLI_OPTIONS = {
    "quickstart": ("--gpus", "--maxlen"),
    "fig3": ("--points",),
    "fig4": ("--gpus", "--maxlens"),
    "fig5": ("--gpus",),
    "table1": ("--ks",),
    "table2": (),
    "nei-solve": ("--element", "--temperature", "--t-initial", "--density"),
    "fit": ("--temperature", "--bins", "--seed"),
    "autotune": ("--gpus", "--tasks-per-point"),
    "spectrum": (
        "--temperature", "--density", "--bins", "--components", "--tail-tol",
        "--accuracy", "--json", *_OBS,
    ),
    "serve": (
        "--pattern", "--requests", "--seed", "--rate", "--distinct",
        "--zipf-s", "--walk-sigma", "--accuracy", "--workers",
        "--queue-capacity", "--batch-max", "--batch-window", "--batch-width",
        "--burst", "--gpus", "--tail", *_SCHED, "--cache-entries",
        "--cache-mb", "--ttl", "--tail-tol", "--json", *_OBS, "--gantt",
        "--slo", "--slo-p95", "--slo-depth", "--postmortem",
        "--postmortem-window",
    ),
    "bench": (
        "--quick", "--seed", "--out", "--cases", "--flamegraph", "--baseline",
        "--compare", "--json", "--dash",
    ),
    "query": ("--tsdb", "--at", "--json"),
    "submit": (
        "--temperature", "--density", "--z-max", "--bins", "--rule",
        "--tolerance", "--tail-tol", "--accuracy", "--lane", "--repeat",
        *_SCHED, "--json", *_OBS,
    ),
}


@pytest.mark.parametrize("config", list(CONFIG_FIELDS), ids=lambda c: c.__name__)
def test_config_fields(config):
    assert tuple(f.name for f in dataclasses.fields(config)) == CONFIG_FIELDS[config]


def test_cli_options():
    (subcommands,) = [
        a for a in build_parser()._actions
        if isinstance(a, argparse._SubParsersAction)
    ]
    got = {
        name: tuple(
            s
            for action in sub._actions
            for s in action.option_strings
            if s not in ("-h", "--help")
        )
        for name, sub in subcommands.choices.items()
    }
    assert got == CLI_OPTIONS
