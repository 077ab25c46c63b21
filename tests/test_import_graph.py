"""The generic pair-by-pair window driver is a reference, not a path.

``repro.quadrature.megabatch``'s kernels, ``_romberg_reduce`` and the
ragged integrand ``window_integrand`` are what the tests (and the wall
benchmark's ``quadrature.*`` probes) compare the production kernel
:mod:`repro.physics.rrc_kernel` against.  No module of the package
outside ``repro.quadrature`` may import one: read from the source with
``ast``, so a lazy import inside a function is seen too.
"""

import ast
import re
from pathlib import Path

import repro

REFERENCE_ONLY = re.compile(
    r"megabatch_\w+_windows|batch_\w+_windows|_run_megabatch|_romberg_reduce"
    r"|window_integrand"
)


def reference_imports(path: Path) -> list[str]:
    """``name (line)`` of every reference-only name ``path`` imports,
    as ``from m import name`` or as an attribute of an imported module."""
    tree = ast.parse(path.read_text())
    names = [
        (alias.name, node.lineno)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ] + [
        (node.attr, node.lineno)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
    ]
    return [f"{name} ({line})" for name, line in names if REFERENCE_ONLY.fullmatch(name)]


def test_no_production_module_imports_the_generic_driver():
    root = Path(repro.__file__).parent
    modules = [p for p in root.rglob("*.py") if "quadrature" not in p.relative_to(root).parts]
    assert len(modules) > 50
    offenders = {
        str(p.relative_to(root)): found for p in modules if (found := reference_imports(p))
    }
    assert offenders == {}


def test_the_scan_sees_both_import_forms(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from repro.quadrature.megabatch import MegabatchResult, batch_gauss_windows\n"
        "def f():\n"
        "    from repro.physics.rrc import window_integrand\n"
        "    import repro.quadrature.megabatch as mb\n"
        "    return mb.megabatch_romberg_windows, mb._run_megabatch\n"
    )
    assert reference_imports(probe) == [
        "batch_gauss_windows (1)", "window_integrand (3)",
        "megabatch_romberg_windows (5)", "_run_megabatch (5)",
    ]
