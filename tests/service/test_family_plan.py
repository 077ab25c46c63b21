"""Cross-commit guard on what ``compile_tasks`` / ``compile_group_tasks`` emit.

``GOLDEN`` was recorded at commit 54dae41 — the parent of the PR that
stamps tasks from a per-family template instead of building each one
through ``KernelSpec.for_ion_task`` — *before the first edit*, and must
never be refreshed by a change that claims the same tasks.  One sha1 per
(rule, tail_tol, spread) over every priced field of every task of a
seeded request set: widths 1-8, three tolerances, pruning on and off,
both rules, with each group's members also lowered one by one through
``compile_tasks``.

The property below it is the same statement without a literal: for any
family, group and call arguments, the emitted tasks equal — field by
field — the ones the parent's loop builds (``_reference_tasks``: one
``for_ion_task`` per ion, one ``per_ion_active`` per member).

The last two classes are about the ``FamilyPlan`` itself: there is one
family cache, and a batch computes each distinct temperature's windows
once and rebuilds no ``PlanKey`` — compile and attribution weights price
from one ``active_pairs``.
"""

import dataclasses
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.atomic.database import AtomicConfig, AtomicDatabase
from repro.constants import K_B_KEV
from repro.core.task import Task, TaskKind
from repro.gpusim.kernel import KernelSpec
from repro.obs import EventTracer
from repro.physics.plan import PLAN_CACHE, PlanCache, SpectrumPlan
from repro.service import ServiceConfig, TrafficSpec, generate_trace, run_trace
from repro.service.requests import (
    FamilyPlan,
    SpectrumRequest,
    compile_group_tasks,
    compile_tasks,
    family_plan,
    request_grid,
)

RULES = ("simpson", "romberg")
TAIL_TOLS = (0.0, 1.0e-9)
TOLERANCES = (1.0e-4, 1.0e-6, 1.0e-8)

GOLDEN = {
    "simpson|0.0|packed": "936ad82dfb1b83aeccef1ba40030e3a2fe5835a1",
    "simpson|0.0|spread": "f19efc7475297ec5054c0e2910ff494317ed417b",
    "simpson|1e-09|packed": "b1affcc1d221bfaf9da9981b4ce2997fcbd2508e",
    "simpson|1e-09|spread": "883cd2c3bc164fc51e31c16b45622c1f50fbb89d",
    "romberg|0.0|packed": "188cbb3e0148277063e121826ec1276f57bbec4c",
    "romberg|0.0|spread": "c23e80eae1d642be65792246eb717bdf06b8a1b1",
    "romberg|1e-09|packed": "5b5dc510b02ed2cad2a2c438a4ab2a8bab27d488",
    "romberg|1e-09|spread": "434816acb5292a49b8ae515214bbbfeae34ca361",
}


@pytest.fixture(scope="module")
def db() -> AtomicDatabase:
    # The service's default scope: requests of z_max 8 see 36 of its ions.
    return AtomicDatabase(AtomicConfig(n_max=4, z_max=14))


def _fields(task: Task) -> tuple:
    kernel = task.kernel
    return (
        task.task_id, task.label, task.point_index, task.n_levels,
        task.trace_parent, task.method, kernel.n_integrals,
        kernel.evals_per_integral, kernel.bytes_in, kernel.bytes_out,
        kernel.evals_saved,
    )


def _kernel_fields(kernel) -> tuple:
    return tuple(
        getattr(kernel, f.name) for f in dataclasses.fields(KernelSpec) if f.compare
    )


def _seeded_groups(rule: str, tail_tol: float):
    """(group, point_index, task_id_base, trace_parent) for widths 1-8."""
    rng = np.random.default_rng(2015)
    for width in range(1, 9):
        family = dict(
            ne_cm3=float(rng.choice([0.5, 1.0, 4.0])),
            z_max=int(rng.choice([3, 8, 11])),
            n_bins=int(rng.choice([16, 64, 200])),
            rule=rule,
            tolerance=TOLERANCES[width % 3],
            tail_tol=tail_tol,
        )
        temps = 10.0 ** rng.uniform(5.0, 9.0, size=width)
        group = tuple(
            SpectrumRequest(temperature_k=float(t), **family) for t in temps
        )
        yield group, int(rng.integers(0, 50)), int(rng.integers(0, 500)), width * 7


def _fingerprint(db, rule: str, tail_tol: float, spread: bool) -> str:
    cache = PlanCache()
    digest = hashlib.sha1()
    for group, point, base, parent in _seeded_groups(rule, tail_tol):
        tasks = compile_group_tasks(
            group, db, point_index=point, task_id_base=base,
            with_payload=False, plan_cache=cache, spread=spread,
            trace_parent=parent,
        )
        for j, request in enumerate(group):
            tasks += compile_tasks(
                request, db, point_index=point + j, task_id_base=base + j,
                with_payload=False, plan_cache=cache, trace_parent=parent + j,
            )
        digest.update(repr([_fields(t) for t in tasks]).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_tasks_unchanged_since_the_parent_commit(db, case):
    rule, tail_tol, layout = case.split("|")
    assert _fingerprint(db, rule, float(tail_tol), layout == "spread") == GOLDEN[case]


# ----------------------------------------------------------------------
# The parent's loop, kept as the reference
# ----------------------------------------------------------------------
def _reference_tasks(
    group, db, point_index, task_id_base, spread, trace_parent, grouped
) -> list[Task]:
    lead = group[0]
    width = len(group)
    grid = request_grid(lead)
    ions = tuple(ion for ion in db.ions if ion.z <= lead.z_max)
    evals = lead.evals_per_integral
    active = None
    if lead.tail_tol > 0.0:
        if lead.rule == "simpson":
            knobs = dict(pieces=evals - 1, k=7)
        else:
            knobs = dict(pieces=64, k=(evals - 1).bit_length() - 1)
        plan = PlanCache().get(
            db, grid, ions=ions, method=lead.rule, tail_tol=lead.tail_tol,
            gaunt=True, **knobs,
        )
        active = sum(
            plan.per_ion_active(K_B_KEV * r.temperature_k) for r in group
        )
    tasks = []
    for i, ion in enumerate(ions):
        n_levels = db.n_levels(ion)
        n_active = None
        if active is not None and n_levels > 0:
            n_active = int(active[i])
        label = (
            f"grp{point_index}/{ion.name}x{width}" if grouped
            else f"req{point_index}/{ion.name}"
        )
        tasks.append(
            Task(
                task_id=task_id_base + i,
                kind=TaskKind.ION,
                kernel=KernelSpec.for_ion_task(
                    n_levels=n_levels, n_bins=lead.n_bins * width,
                    evals_per_integral=evals, label=label, n_active=n_active,
                ),
                point_index=point_index + i if spread else point_index,
                n_levels=n_levels,
                label=label,
                trace_parent=trace_parent,
                method=lead.rule,
            )
        )
    return tasks


@st.composite
def compile_calls(draw):
    family = dict(
        ne_cm3=draw(st.floats(min_value=1.0e-3, max_value=1.0e3)),
        z_max=draw(st.integers(min_value=1, max_value=14)),
        n_bins=draw(st.integers(min_value=1, max_value=256)),
        rule=draw(st.sampled_from(RULES)),
        tolerance=draw(st.sampled_from(TOLERANCES + (1.0e-2, 1.0e-12))),
        tail_tol=draw(st.sampled_from(TAIL_TOLS + (1.0e-3, 1.0e-14))),
    )
    temps = draw(
        st.lists(st.floats(min_value=1.0e4, max_value=1.0e10), min_size=1, max_size=8)
    )
    group = tuple(SpectrumRequest(temperature_k=t, **family) for t in temps)
    return dict(
        group=group,
        point_index=draw(st.integers(min_value=0, max_value=1000)),
        task_id_base=draw(st.integers(min_value=0, max_value=10**6)),
        spread=draw(st.booleans()),
        trace_parent=draw(st.integers(min_value=0, max_value=10**9)),
        with_payload=draw(st.booleans()),
    )


@given(call=compile_calls())
@settings(max_examples=60, deadline=None)
def test_stamped_tasks_equal_the_per_ion_loop_field_by_field(db, call):
    group, with_payload = call["group"], call["with_payload"]
    shared = dict(
        point_index=call["point_index"], task_id_base=call["task_id_base"],
        trace_parent=call["trace_parent"],
    )
    got = compile_group_tasks(
        group, db, with_payload=with_payload, plan_cache=PlanCache(),
        spread=call["spread"], **shared,
    )
    want = _reference_tasks(group, db, spread=call["spread"], grouped=True, **shared)
    single = compile_tasks(
        group[0], db, with_payload=with_payload, plan_cache=PlanCache(), **shared
    )
    want_single = _reference_tasks(
        group[:1], db, spread=False, grouped=False, **shared
    )
    for tasks, reference in ((got, want), (single, want_single)):
        assert len(tasks) == len(reference)
        for task, ref in zip(tasks, reference):
            assert task.kind is ref.kind
            assert _fields(task) == _fields(ref)
            # Every field ``KernelSpec.__eq__`` compares (all but
            # ``execute``): a stamped task's kernel is a view, not a
            # ``KernelSpec``, so equality is restated field by field.
            assert _kernel_fields(task.kernel) == _kernel_fields(ref.kernel)
            assert task.cpu_evals_per_integral is None
            assert (task.kernel.execute is not None) == with_payload
            assert task.cpu_execute is task.kernel.execute


# ----------------------------------------------------------------------
# The dataclasses' checks, made once a template or a call
# ----------------------------------------------------------------------
class TestChecksOncePerCall:
    def test_no_dataclass_is_built_per_ion(self, db, monkeypatch):
        """A cold request and a 32-wide group construct no ``KernelSpec``
        and no ``Task``; the template's one ``for_ion_task`` a family is
        where ``KernelSpec``'s checks still run."""
        def cold(t):
            return SpectrumRequest(temperature_k=float(t), tail_tol=1.0e-9)

        compile_tasks(cold(2.0e6), db)  # the family's template, once
        calls = {KernelSpec: 0, Task: 0}
        for cls in calls:
            def counting(self, check=cls.__post_init__, cls=cls):
                calls[cls] += 1
                check(self)

            monkeypatch.setattr(cls, "__post_init__", counting)
        tasks = compile_tasks(cold(3.1e6), db)
        tasks += compile_group_tasks(
            tuple(cold(t) for t in np.geomspace(1.0e6, 1.0e8, 32)), db,
            with_payload=False, spread=True,
        )
        assert len(tasks) == 2 * 36 and calls == {KernelSpec: 0, Task: 0}
        FamilyPlan.build(db, cold(3.1e6))
        assert calls == {KernelSpec: 36, Task: 0}

    @pytest.mark.parametrize("grouped", [False, True], ids=["request", "group"])
    def test_a_negative_task_id_base_raises_what_task_raised(self, db, grouped):
        with pytest.raises(ValueError) as refused:
            Task(-1, TaskKind.ION, KernelSpec(1, 1))
        request = SpectrumRequest(temperature_k=1.0e7)
        with pytest.raises(ValueError, match=str(refused.value)):
            if grouped:
                compile_group_tasks((request,), db, task_id_base=-1)
            else:
                compile_tasks(request, db, task_id_base=-1)

    @pytest.mark.parametrize("bound", ["below", "above"])
    def test_active_pairs_outside_zero_to_dense_are_refused(self, db, monkeypatch, bound):
        request = SpectrumRequest(temperature_k=1.0e7, tail_tol=1.0e-9)
        dense = family_plan(db, request).dense
        active = np.zeros((1, dense.size), dtype=np.int64)
        active[0, 5] = -1 if bound == "below" else dense[5] + 1
        monkeypatch.setattr(FamilyPlan, "active_pairs", lambda *args: active)
        with pytest.raises(ValueError, match=r"active pairs outside \[0, levels x bins x width\]"):
            compile_tasks(request, db)


# ----------------------------------------------------------------------
# One family cache, one window computation per temperature
# ----------------------------------------------------------------------
class TestFamilyCache:
    def test_one_entry_per_family_and_siblings_share_a_basis(self, db):
        a = family_plan(db, SpectrumRequest(temperature_k=1.0e7, n_bins=40))
        assert family_plan(db, SpectrumRequest(temperature_k=3.0e6, ne_cm3=2.0, n_bins=40)) is a
        assert family_plan(AtomicDatabase(db.config), SpectrumRequest(temperature_k=1.0e7, n_bins=40)) is a
        pruned = family_plan(
            db, SpectrumRequest(temperature_k=1.0e7, n_bins=40, rule="romberg", tail_tol=1.0e-9)
        )
        assert pruned is not a and pruned.basis is a.basis
        assert a.plan_key is None and pruned.plan_key.method == "romberg"

    def test_out_of_scope_family_is_refused_every_time(self, db):
        for _ in range(2):
            with pytest.raises(ValueError, match="exceeds database"):
                family_plan(db, SpectrumRequest(temperature_k=1.0e7, z_max=30))


class TestWindowsOncePerTemperature:
    @pytest.mark.parametrize("traced", [False, True], ids=["plain", "traced"])
    def test_a_batch_computes_each_temperatures_windows_once(self, monkeypatch, traced):
        """Compile and — traced — the attribution weights read one
        ``FamilyPlan.active_pairs``: no second window pass, and no
        ``PlanKey`` rebuilt per request."""
        def spec(seed):
            return TrafficSpec(
                n_requests=20, seed=seed, pattern="uniform", n_distinct=30000,
                mean_interarrival_s=0.4, tail_tol=1.0e-9,
            )

        run_trace(generate_trace(spec(3)), ServiceConfig())  # family plan cached
        PLAN_CACHE.clear()  # a fresh SpectrumPlan, so an empty window memo
        computed, keys_built = [], []
        compute_windows, make_key = SpectrumPlan._compute_windows, PlanCache.make_key

        def counting_windows(plan, kt):
            computed.append(kt)
            return compute_windows(plan, kt)

        def counting_make_key(cache, *args, **kwargs):
            keys_built.append(args)
            return make_key(cache, *args, **kwargs)

        monkeypatch.setattr(SpectrumPlan, "_compute_windows", counting_windows)
        monkeypatch.setattr(PlanCache, "make_key", counting_make_key)
        trace = generate_trace(spec(7))
        broker, tickets = run_trace(
            trace, ServiceConfig(), tracer=EventTracer() if traced else None
        )
        assert all(t.done for t in tickets)
        temperatures = {K_B_KEV * a.request.temperature_k for a in trace}
        assert sorted(computed) == sorted(temperatures)
        assert keys_built == []
        # The plan is still asked of the cache on every use: once per
        # compile, traced or not (the weights are the compile's matrix).
        assert PLAN_CACHE.stats.lookups == len(temperatures)

    def test_tracing_books_the_plan_lookups_an_untraced_run_books(self):
        """Observability reports the plan cache, so it must not move it: a
        traced and an untraced replay of one cold trace book equal
        ``PLAN_CACHE.stats`` deltas and equal
        ``repro_plan_cache_lookups_total``, and every plan instant of the
        traced run has its group span as parent."""
        trace = generate_trace(TrafficSpec(
            n_requests=24, seed=7, pattern="uniform", n_distinct=30000,
            mean_interarrival_s=0.4, tail_tol=1.0e-9,
        ))
        booked = []
        for tracer in (None, EventTracer()):
            PLAN_CACHE.clear()
            broker, _ = run_trace(trace, ServiceConfig(), tracer=tracer)
            lookups = broker.registry().get("repro_plan_cache_lookups_total")
            booked.append((
                PLAN_CACHE.stats.as_dict(),
                {r: lookups.value(result=r) for r in ("hit", "miss")},
            ))
        assert booked[0] == booked[1]
        assert booked[0][0]["hits"] + booked[0][0]["misses"] == len(trace)
        plan = [ev for ev in tracer.events if ev.cat == "plan"]
        assert plan and all(ev.parent for ev in plan)
