"""Cross-commit guard on what the non-service task producers emit.

``GOLDEN`` was recorded at commit d1b5e5d — the parent of the change
that folds the kernel descriptor into the task record — *before the
first edit*, and must never be refreshed by a change that claims the
same tasks.  One sha1 per producer over every priced field of every
task (the fields ``tests/service/test_family_plan.py::_fields`` reads,
plus ``kind``, ``efficiency``, ``cpu_evals_per_integral`` and the one
label).  Fields are read off the record with nested records flattened,
so the same reader serves a record of any depth.

``TestProducerInputChecks`` is the other half of that change's
contract, recorded passing at the same commit: every ``ValueError`` a
producer input raised there is still raised, wherever the check moved.
"""

import dataclasses
import hashlib

import pytest

from repro.atomic.database import AtomicConfig, AtomicDatabase
from repro.bench.workloads import paper_level_workload, paper_workload, romberg_workload
from repro.core.granularity import Granularity, WorkloadSpec, build_tasks
from repro.nei.runner import NEIWorkloadSpec, build_nei_tasks

FIELDS = (
    "task_id", "label", "point_index", "n_levels", "trace_parent", "method",
    "n_integrals", "evals_per_integral", "bytes_in", "bytes_out", "evals_saved",
    "kind", "efficiency", "cpu_evals_per_integral",
)

GOLDEN = {
    "paper_workload": "2e0f4bec3b9d7d038876d52e81ca95caf468ab6c",
    "paper_level_workload": "9d44fefd5c2dcb8ace3718859941a0731d94cd32",
    "element": "13ef99f94879345169fef5ff3d702f308af62a15",
    "romberg_workload": "4685bdf6520769a11a28e7fdc3940a7fc2392d6c",
    "nei": "664cc2ad62ab2e555cfd390a2e2ceffdfe99d7b6",
    "predictive_harness": "76d610a50c655182485a31816da90536306e863a",
}


def _flat(record) -> dict:
    """Every dataclass field of ``record``, nested dataclasses flattened
    (an outer field of the same name wins over a nested one)."""
    out: dict = {}
    for f in dataclasses.fields(record):
        value = getattr(record, f.name)
        if dataclasses.is_dataclass(value):
            out = {**_flat(value), **out}
        else:
            out[f.name] = value
    return out


def _digest(tasks) -> str:
    h = hashlib.sha1()
    for task in tasks:
        flat = _flat(task)
        row = tuple(flat[name] for name in FIELDS)
        h.update(repr(row[:11] + (row[11].value,) + row[12:]).encode())
    return h.hexdigest()


def _predictive_harness_tasks(monkeypatch) -> list:
    """The tasks the bench harness's predictive case builds, caught at
    its first runner call."""
    from repro.bench import harness
    from repro.core.hybrid import HybridRunner

    class Caught(Exception):
        pass

    seen: list = []

    def catch(self, tasks):
        seen.extend(tasks)
        raise Caught

    monkeypatch.setattr(HybridRunner, "run", catch)
    with pytest.raises(Caught):
        harness.CASES["predictive_scheduling"](True, 7)
    return seen


def _producers(monkeypatch) -> dict:
    return {
        "paper_workload": paper_workload(2),
        "paper_level_workload": paper_level_workload(1),
        "element": build_tasks(
            WorkloadSpec(n_points=2, granularity=Granularity.ELEMENT)
        ),
        "romberg_workload": romberg_workload(7, 1),
        "nei": build_nei_tasks(NEIWorkloadSpec(n_grid_points=240)),
        "predictive_harness": _predictive_harness_tasks(monkeypatch),
    }


def test_producers_emit_the_recorded_tasks(monkeypatch):
    got = {name: _digest(tasks) for name, tasks in _producers(monkeypatch).items()}
    assert got == GOLDEN


@pytest.fixture(scope="module")
def tiny_db() -> AtomicDatabase:
    return AtomicDatabase(AtomicConfig(n_max=2, z_max=3))


class TestProducerInputChecks:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n_points=0),
            dict(bins_per_level=0),
            dict(method="gauss"),
            dict(pieces=-1),
            dict(pieces=-1, granularity=Granularity.LEVEL),
            dict(pieces=-1, granularity=Granularity.ELEMENT),
        ],
    )
    def test_workload_spec(self, tiny_db, kwargs):
        with pytest.raises(ValueError):
            build_tasks(WorkloadSpec(**{"n_points": 1, **kwargs}), db=tiny_db)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n_grid_points=0),
            dict(timesteps=0),
            dict(points_per_task=0),
            dict(n_grid_points=245),
            dict(gpu_units_per_step=0),
            dict(n_elements=-1),
            dict(prep_levels=-1),
        ],
    )
    def test_nei_workload_spec(self, kwargs):
        with pytest.raises(ValueError):
            build_nei_tasks(NEIWorkloadSpec(**{"n_grid_points": 240, **kwargs}))
