"""Cold start: a process imports only the modules it calls.

Every package ``__init__`` is a lazy façade (:mod:`repro._lazy`) and the
CLI imports each subcommand's modules in that subcommand's handler.
Each contract runs a fresh interpreter and reads its ``sys.modules``.
"""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro

PACKAGE = Path(repro.__file__).parent
PACKAGES = sorted(
    ".".join(init.parent.relative_to(PACKAGE.parent).parts) for init in PACKAGE.rglob("__init__.py")
)

#: What the dense and pruned sweeps import, and what they must not pay for.
SWEEP_MODULES = ("repro.physics.apec", "repro.physics.plan", "repro.bench.workloads")
NOT_SWEPT = (
    "repro.obs", "repro.service", "repro.core.hybrid", "repro.gpusim", "repro.bench.harness", "scipy",
)

#: ``python -m repro --help``, run in-process so ``sys.modules`` can be read after it.
HELP = """
import runpy
sys.argv = ["repro", "--help"]
try:
    runpy.run_module("repro", run_name="__main__")
except SystemExit:
    pass
"""


def modules_after(code: str) -> set[str]:
    """The ``sys.modules`` of a fresh interpreter that has run ``code``."""
    dump = "\nimport json, sys\nprint('\\n' + json.dumps(sorted(sys.modules)))\n"
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run(
        [sys.executable, "-c", "import sys\n" + code + dump],
        capture_output=True, text=True, check=True, env=env, timeout=120,
    ).stdout
    return set(json.loads(out.splitlines()[-1]))


def under(modules: set[str], roots: tuple[str, ...]) -> list[str]:
    return sorted(m for m in modules if any(m == r or m.startswith(r + ".") for r in roots))


def test_the_sweeps_load_no_module_they_never_call():
    loaded = modules_after("".join(f"import {m}\n" for m in SWEEP_MODULES))
    assert set(SWEEP_MODULES) <= loaded
    assert under(loaded, NOT_SWEPT) == []


def test_cli_help_loads_no_numpy():
    loaded = modules_after(HELP)
    assert "repro.cli" in loaded
    assert under(loaded, ("numpy",)) == []


def test_importing_every_package_loads_none_of_their_modules():
    loaded = modules_after("".join(f"import {p}\n" for p in PACKAGES))
    assert under(loaded, ("repro",)) == sorted({*PACKAGES, "repro._lazy"})


@pytest.mark.parametrize("package", PACKAGES)
def test_every_facade_name_resolves_and_shadows_no_module(package):
    """A façade name equal to a submodule's would read as the module
    once that module is imported (the import binds it on the package)."""
    pkg = importlib.import_module(package)
    assert sorted(set(pkg.__all__) & {m.name for m in pkgutil.iter_modules(pkg.__path__)}) == []
    assert [name for name in pkg.__all__ if not hasattr(pkg, name)] == []
    with pytest.raises(AttributeError, match=f"module '{package}' has no attribute 'not_offered'"):
        pkg.not_offered
