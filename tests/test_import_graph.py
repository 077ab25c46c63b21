"""Two contracts on the package's import graph, read from the source with
``ast`` so that a lazy import inside a function is seen too.

*The generic pair-by-pair window driver is a reference, not a path.*
``repro.quadrature.megabatch``'s kernels, ``_romberg_reduce`` and the
ragged integrand ``window_integrand`` are what the tests (and the wall
benchmark's ``quadrature.*`` probes) compare the production kernel
:mod:`repro.physics.rrc_kernel` against.  No module of the package
outside ``repro.quadrature`` may import one.

*Every public name has a caller that is not a test.*  The roots are what
a person runs: the CLI, every non-test script under ``benchmarks/`` (the
wall harness and the figure scripts) and ``examples/*.py``.  A public
top-level function or class of ``repro``, or a public method of one of
its classes, passes if code a root reaches mentions it: as a bare name,
an attribute, a renamed import or an identifier string (``getattr``).
A top-level ``M:f`` counts only where the mention is in a file F that
is M, imports ``f`` from M (directly or through a module that offers it,
such as a package ``__init__`` by an import or in the ``{module:
(name, ...)}`` table of its lazy façade), uses ``x.f`` with ``x`` bound
to module M, or imports M and names ``f`` bare or as a string.  A
reached class reaches its dunders.  A method is reached once its class
is (a class is keyed by its module: two classes may share a name) and
reached code names it as an attribute or an identifier string; a bare
name does not reach a method.  ``x.m`` and ``"m"`` reach ``m`` on every
reached class, since the type of ``x`` is not known; ``self.m`` or
``cls.m`` inside a class reaches it only on that class, its bases in
the package and its subclasses.  A package ``__init__``'s re-exports,
eager or lazy, and any ``__all__`` reach nothing.
What only tests reach is on :data:`TEST_ONLY` with a one-line reason,
or is deleted.  Every ``repro`` import that reached code makes must
resolve, and so must every attribute it takes of an imported ``repro``
module or class; a deletion that breaks a probe or a figure script
fails here instead of quietly turning a probe "unavailable".
"""

import ast
import functools
import re
from pathlib import Path
from typing import Iterator

import repro

PACKAGE = Path(repro.__file__).parent
REPO = PACKAGE.parent.parent

REFERENCE_ONLY = re.compile(
    r"megabatch_\w+_windows|batch_\w+_windows|_run_megabatch|_romberg_reduce"
    r"|window_integrand"
)

#: Public names of ``repro`` that only tests reach, each with one line
#: of reason tagged ``reference`` (what a test compares a reached name
#: against) or ``roadmap item N`` (the seed of an open item).
TEST_ONLY = {
    # What tests hold reached code (or each other) to.
    "repro.approx.interp:interpolate_loglog":
        "reference: the whole-lattice interpolation a lattice hit's stencil table equals bit for bit",
    "repro.atomic.cross_sections:milne_recombination":
        "reference: Eq. (1)'s cross section by the Milne relation, held to Kramers photoionization",
    "repro.core.replay:ReplayReport": "reference: what replay_trace returns",
    "repro.core.replay:replay_trace":
        "reference: ARCHITECTURE section 5's independent audit of a run's trace against Algorithm 1",
    "repro.nei.network:Reaction": "reference: builds the stiff networks the AutoSwitchSolver tests integrate",
    "repro.nei.network:ReactionNetwork":
        "reference: builds the stiff networks the AutoSwitchSolver tests integrate",
    "repro.nei.network:alpha_chain_network":
        "reference: builds the stiff networks the AutoSwitchSolver tests integrate",
    "repro.nei.odes:NEISystem.conservation_defect":
        "reference: the charge-conservation check the NEI solver tests apply",
    "repro.nei.solvers:backward_euler":
        "reference: the fixed-step stiff integrator the adaptive NEI solvers are checked against",
    "repro.obs.prom:parse_exposition":
        "reference: how CI's validation steps and the tests read a rendered exposition",
    "repro.physics.rrc:analytic_bin_integral":
        "reference: the closed-form bin integral the RRC windows and kernels are checked against",
    "repro.physics.rrc:window_integrand": "reference: the generic window driver's integrand (REFERENCE_ONLY)",
    "repro.quadrature.batch:batch_simpson_edges":
        "reference: the dense per-bin Simpson the window-driver tests compare against",
    "repro.quadrature.gauss_legendre:gauss_legendre":
        "reference: the scalar rule linear_rule('gauss', n) is held to (test_matches_scalar)",
    "repro.quadrature.megabatch:batch_gauss_windows": "reference: the generic window driver (REFERENCE_ONLY)",
    "repro.quadrature.megabatch:batch_romberg_windows": "reference: the generic window driver (REFERENCE_ONLY)",
    "repro.quadrature.megabatch:batch_simpson_windows": "reference: the generic window driver (REFERENCE_ONLY)",
    "repro.quadrature.romberg:romberg":
        "reference: the scalar Romberg of Eq. (3) batch_romberg is held to (test_matches_scalar_romberg)",
    "repro.quadrature.romberg:romberg_table": "reference: the tableau romberg reads (Eq. 3)",
    "repro.quadrature.romberg:trapezoid_ladder": "reference: the trapezoid column romberg_table extrapolates",
    "repro.service.requests:ion_emission":
        "reference: the per-ion emission oracle served rows are checked against",
    # Seeds of open items.
    "repro.gpusim.device:SimulatedGPU.fail":
        "roadmap item 1: the device fault whose waiters get a failure payload",
    "repro.nei.propagator:EigenPropagator": "roadmap item 4: the fixed-step NEI pack a live run executes",
    "repro.nei.runner:attach_real_execution": "roadmap item 4: real NEI numerics for a live run",
}

#: ``repro`` names reached code imports, or takes of an imported module or
#: class, that do not exist.
DANGLING = {
    "benchmarks/wall/probes.py: repro.parallel.executor.get_backend":
        "roadmap item 5: deletes the four parallel.* probes; benchmarks/wall/ is frozen until then",
}

_FUNCTION = (ast.FunctionDef, ast.AsyncFunctionDef)
_DEF = (*_FUNCTION, ast.ClassDef)


def reference_imports(tree: ast.Module) -> list[str]:
    """``name (line)`` of every reference-only name ``tree`` imports,
    as ``from m import name`` or as an attribute of an imported module."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names += [(alias.name, node.lineno) for alias in node.names]
        elif isinstance(node, ast.Attribute):
            names.append((node.attr, node.lineno))
    return [f"{name} ({line})" for name, line in names if REFERENCE_ONLY.fullmatch(name)]


def read(nodes: list[ast.AST], cls: ast.ClassDef | None = None):
    """``(names, imports, uses, members, selfs)`` of ``nodes``, which
    sit in the body of class ``cls`` if one is given: every name they
    mention (bare names, attributes, the source name of a renamed
    import, identifier strings less docstrings), every absolute import
    as ``(module, name or None)``, every ``x.attr`` as ``(x, attr,
    scopes)``, ``scopes`` the ``id()`` of each function around it,
    outermost first, the names that can reach a method (attributes
    other than ``self.m`` / ``cls.m`` inside a class, and identifier
    strings), and each ``self.m`` / ``cls.m`` inside a class as
    ``(class, scopes around the class, m)``."""
    walked, stack = [], [(node, (), (cls, ()) if cls else None) for node in nodes]
    while stack:
        n, around, inside = stack.pop()
        walked.append((n, around, inside))
        inner = (*around, id(n)) if isinstance(n, _FUNCTION) else around
        inside = (n, around) if isinstance(n, ast.ClassDef) else inside
        stack += [(c, inner, inside) for c in ast.iter_child_nodes(n)]
    docstrings = {
        id(n.body[0].value) for n, _, _ in walked
        if isinstance(n, (ast.Module, *_DEF)) and n.body
        and isinstance(n.body[0], ast.Expr) and isinstance(n.body[0].value, ast.Constant)
    }
    names, imports, uses, members, selfs = set(), [], [], set(), []
    for n, around, inside in walked:
        if isinstance(n, ast.Name):
            names.add(n.id)
        elif isinstance(n, ast.Attribute):
            names.add(n.attr)
            if isinstance(n.value, ast.Name):
                uses.append((n.value.id, n.attr, around))
                if inside and n.value.id in ("self", "cls"):
                    selfs.append((*inside, n.attr))
                    continue
            members.add(n.attr)
        elif isinstance(n, ast.Import):
            imports += [(a.name, None) for a in n.names]
        elif isinstance(n, ast.ImportFrom) and n.module and not n.level:
            imports += [(n.module, a.name) for a in n.names]
        elif isinstance(n, ast.alias) and n.asname:
            names.update(n.name.split("."))
        elif (isinstance(n, ast.Constant) and isinstance(n.value, str)
              and n.value.isidentifier() and id(n) not in docstrings):
            names.add(n.value)
            members.add(n.value)
    return names, imports, uses, members, selfs


def _statements(body: list) -> Iterator[ast.AST]:
    """Every statement in ``body``, nested ones included, less the body
    of a function it defines."""
    for s in body:
        yield s
        if not isinstance(s, _FUNCTION):
            for field in ("body", "orelse", "finalbody", "handlers"):
                yield from _statements(getattr(s, field, []))


def aliases(tree: ast.Module, package: str) -> dict:
    """What each name a file binds by importing from ``package`` stands
    for, ``(module, name)`` or ``(module, None)`` for ``import m as x``,
    by scope: ``{id(function) or None: {name: ...}}``, None for the
    module's own (class bodies included)."""
    found: dict = {}
    pending = [(None, tree.body)]
    while pending:
        scope, body = pending.pop()
        bound = found.setdefault(scope, {})
        for n in _statements(body):
            if isinstance(n, ast.ImportFrom) and n.module and not n.level:
                bound.update({a.asname or a.name: (n.module, a.name) for a in n.names})
            elif isinstance(n, ast.Import):
                bound.update({a.asname: (a.name, None) for a in n.names if a.asname})
            elif isinstance(n, _FUNCTION):
                pending.append((id(n), n.body))
    return {
        scope: {k: v for k, v in bound.items() if v[0].split(".")[0] == package}
        for scope, bound in found.items()
    }


def _alias(scoped: dict, x: str, scopes: tuple) -> tuple[str | None, str | None]:
    """What ``x`` stands for where it is used: the innermost of
    ``scopes`` that imports it, else the module's import."""
    for scope in (*reversed(scopes), None):
        if x in scoped.get(scope, {}):
            return scoped[scope][x]
    return None, None


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _assigns(s: ast.stmt, name: str) -> bool:
    targets = s.targets if isinstance(s, ast.Assign) else [getattr(s, "target", None)]
    return any(
        isinstance(n, ast.Name) and n.id == name
        for t in targets if t is not None for n in ast.walk(t)
    )


def lazy_table(body: list[ast.stmt]) -> dict[str, str]:
    """``{name: module}`` of a lazy package façade (PEP 562): the
    ``{module: (name, ...)}`` table in the call its ``__getattr__`` is
    assigned from."""
    return {
        name.value: module.value
        for s in body if _assigns(s, "__getattr__") and isinstance(s.value, ast.Call)
        for table in s.value.args if isinstance(table, ast.Dict)
        for module, names in zip(table.keys, table.values)
        for name in names.elts
    }


def _bound(body: list[ast.stmt]) -> set[str]:
    """Names a module body binds at its top level (inside ``if`` and
    ``try`` too): what ``from module import ...`` may take."""
    names, stack = set(), list(body)
    while stack:
        s = stack.pop()
        if isinstance(s, _DEF):
            names.add(s.name)
        elif isinstance(s, (ast.Import, ast.ImportFrom)):
            names.update((a.asname or a.name).split(".")[0] for a in s.names)
        elif isinstance(s, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = s.targets if isinstance(s, ast.Assign) else [s.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
        else:
            stack += [c for c in ast.iter_child_nodes(s) if isinstance(c, ast.stmt)]
    return names


class Package:
    """One package's modules, parsed once, with the names each binds."""

    def __init__(self, root: Path):
        self.root, self.name = root, root.name
        self.paths = {self._module(p): p for p in sorted(root.rglob("*.py"))}
        self.trees = {m: ast.parse(p.read_text()) for m, p in self.paths.items()}
        self.lazy = {m: lazy_table(tree.body) for m, tree in self.trees.items()}
        self.bound = {m: _bound(tree.body) | self.lazy[m].keys() for m, tree in self.trees.items()}
        for module in self.trees:
            parent, _, leaf = module.rpartition(".")
            self.bound.get(parent, set()).add(leaf)

    def _module(self, path: Path) -> str:
        parts = path.relative_to(self.root.parent).with_suffix("").parts
        return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)

    def top(self, module: str) -> list[ast.stmt]:
        """What importing ``module`` runs, less its definitions, any
        ``__all__`` and, for a package ``__init__``, its re-exports."""
        init = self.paths[module].name == "__init__.py"
        return [
            s for s in self.trees[module].body
            if not isinstance(s, _DEF) and not _assigns(s, "__all__")
            and not (init and isinstance(s, (ast.Import, ast.ImportFrom)))
        ]

    def missing(self, module: str, name: str | None) -> bool:
        """Whether ``import module`` (``name`` None) or ``from module
        import name`` fails."""
        return module not in self.trees or (name is not None and name not in self.bound[module])

    def attributes(self, module: str, name: str | None) -> set[str] | None:
        """What module ``module`` (``name`` None) or the name ``name`` it
        binds offers as attributes: a submodule's or a class's, inherited
        ones included.  None when that is unknown: a function, a value,
        a class with a base from outside the package."""
        if name is None or f"{module}.{name}" in self.trees:
            return self.bound[module if name is None else f"{module}.{name}"]
        if name in self.lazy[module]:
            return self.attributes(self.lazy[module][name], name)
        for s in self.trees[module].body:
            if isinstance(s, ast.ClassDef) and s.name == name:
                found = _bound(s.body)
                for base in s.bases:
                    inherited = self.attributes(module, base.id) if isinstance(base, ast.Name) else None
                    if inherited is None:
                        return None
                    found |= inherited
                return found
            if isinstance(s, ast.ImportFrom) and any((a.asname or a.name) == name for a in s.names):
                source = next(a.name for a in s.names if (a.asname or a.name) == name)
                return self.attributes(s.module, source) if s.module in self.trees else None
        return None

    @functools.cache
    def origin(self, module: str, name: str) -> str | None:
        """The module whose top-level def ``name`` of ``module`` is:
        ``module`` itself, or where a top-level ``from ... import`` or
        the lazy table of ``module`` takes it from; None when it is
        neither."""
        if name in self.lazy.get(module, {}):
            return self.origin(self.lazy[module][name], name)
        for s in self.trees[module].body if module in self.trees else ():
            if isinstance(s, _DEF) and s.name == name:
                return module
            if isinstance(s, ast.ImportFrom) and s.module and not s.level:
                for a in s.names:
                    if (a.asname or a.name) == name:
                        return self.origin(s.module, a.name)
        return None

    def loaded(self, found: list[tuple[str, str | None]]) -> set[str]:
        """This package's modules the imports ``found`` load, with their
        parent packages."""
        modules = set()
        for module, name in found:
            parts = f"{module}.{name}".split(".") if name else module.split(".")
            modules.update(".".join(parts[:i]) for i in range(1, len(parts) + 1))
        return modules & self.trees.keys()

    def definitions(self):
        """``(module, qualname, name, owning class or None, class the
        nodes sit in or None, nodes a reach scans)`` of every top-level
        function and class and every method.  A class's nodes are its
        header and its body less the methods that are not dunders."""
        for module, tree in self.trees.items():
            for s in tree.body:
                if isinstance(s, _FUNCTION):
                    yield module, s.name, s.name, None, None, [s]
                elif isinstance(s, ast.ClassDef):
                    methods = [m for m in s.body if isinstance(m, _FUNCTION) and not _is_dunder(m.name)]
                    rest = [m for m in s.body if m not in methods]
                    yield module, s.name, s.name, None, s, [*s.bases, *s.keywords, *s.decorator_list, *rest]
                    for m in methods:
                        yield module, f"{s.name}.{m.name}", m.name, s, s, [m]


def reachability(pkg: Package, roots: list[Path]) -> tuple[list[str], list[str]]:
    """``(unreached, dangling)``.  ``unreached`` is every public name of
    ``pkg`` no root reaches, as ``module:qualname`` (a method only when
    its class is reached); ``dangling`` is every import of a module or
    name of ``pkg`` that does not exist, and every ``x.attr`` that names
    no attribute of the imported module or class ``x``, made by a root
    or by code a root reaches, as ``path: module.name``."""
    trees = {path: ast.parse(path.read_text()) for path in roots}
    trees.update({pkg.paths[m]: tree for m, tree in pkg.trees.items()})
    module_of = {path: m for m, path in pkg.paths.items()}
    bindings = {path: aliases(tree, pkg.name) for path, tree in trees.items()}
    defs = list(pkg.definitions())
    index = {(module, name): i for i, (module, _, name, owner, _, _) in enumerate(defs) if owner is None}
    #: ``id()`` of each top-level class -> ``(module, class)``.
    classes = {id(c): (module, c.name) for module, _, _, owner, c, _ in defs if owner is None and c}
    #: Names that reach a method of any reached class (``x.m``, ``"m"``).
    members: set[str] = set()
    #: ``(module, class)``: the methods ``self.m`` / ``cls.m`` reach on it.
    own: dict[tuple[str, str], set[str]] = {}
    mentioned_in: dict[str, set[Path]] = {}
    #: What each file's reached code imports (``(module, name or None)``)
    #: or takes of a module it binds (``x.attr`` as ``(module, attr)``).
    imported: dict[Path, set[tuple[str, str | None]]] = {path: set() for path in trees}

    def reaches(path: Path, module: str, name: str) -> bool:
        return path == pkg.paths[module] or any(
            (n == name and pkg.origin(m, n) == module)
            or pkg.origin(m if n is None else f"{m}.{n}", name) == module
            for m, n in imported[path]
        )

    def base_of(path: Path, base: ast.expr, scopes: tuple) -> tuple[str, str] | None:
        """The package class a class header's ``base`` names, if any."""
        if isinstance(base, ast.Name):
            module, name = _alias(bindings[path], base.id, scopes)
            if module is None:
                module, name = module_of.get(path), base.id
        elif isinstance(base, ast.Attribute) and isinstance(base.value, ast.Name):
            module, name = _alias(bindings[path], base.value.id, scopes)
            module, name = (module if name is None else f"{module}.{name}"), base.attr
        else:
            return None
        source = pkg.origin(module, name) if module in pkg.trees else None
        return (source, name) if source else None

    bases = {
        (module, c.name): {b for b in (base_of(pkg.paths[module], e, ()) for e in c.bases) if b}
        for module, _, _, owner, c, _ in defs if owner is None and c
    }

    @functools.cache
    def ancestors(key: tuple[str, str]) -> frozenset:
        return frozenset(bases.get(key, ())).union(*(ancestors(b) for b in bases.get(key, ())))

    def family(path: Path, cls: ast.ClassDef, scopes: tuple) -> set[tuple[str, str]]:
        """The package classes a ``self.m`` in ``cls`` may land on: the
        class, its package bases and, for a package class, its subclasses."""
        key = classes.get(id(cls))
        if key is None:
            found = {b for b in (base_of(path, e, scopes) for e in cls.bases) if b}
            return found.union(*(ancestors(b) for b in found))
        return {key, *ancestors(key), *(k for k in bases if key in ancestors(k))}

    modules: set[str] = set()
    scanned: set[int] = set()
    dangling: set[str] = set()
    pending = [(path, None, [trees[path]]) for path in roots]
    while pending:
        while pending:
            path, inside, nodes = pending.pop()
            names, found, uses, named, selfs = read(nodes, inside)
            members |= named
            for cls, scopes, attr in selfs:
                for key in family(path, cls, scopes):
                    own.setdefault(key, set()).add(attr)
            for name in names:
                mentioned_in.setdefault(name, set()).add(path)
            imported[path].update(found)
            dangling.update(
                f"{_shown(path)}: {module}" + (f".{name}" if name else "")
                for module, name in found
                if module.split(".")[0] == pkg.name and pkg.missing(module, name)
            )
            for x, attr, scopes in uses:
                module, name = _alias(bindings[path], x, scopes)
                target = module if name is None else f"{module}.{name}"
                if target in pkg.trees:
                    imported[path].add((target, attr))
                if module in pkg.trees and not _is_dunder(attr):
                    offered = pkg.attributes(module, name)
                    if offered is not None and attr not in offered:
                        dangling.add(f"{_shown(path)}: {module}.{f'{name}.' if name else ''}{attr}")
            for module in sorted(pkg.loaded(found) - modules):
                modules.add(module)
                pending.append((pkg.paths[module], None, pkg.top(module)))
        for i, (module, _, name, owner, inside, nodes) in enumerate(defs):
            if i in scanned:
                continue
            if owner is None:
                hit = any(reaches(path, module, name) for path in mentioned_in.get(name, ()))
            else:
                hit = index[module, owner.name] in scanned and (
                    name in members or name in own.get((module, owner.name), ())
                )
            if hit:
                scanned.add(i)
                pending.append((pkg.paths[module], inside, nodes))
                if module not in modules:
                    modules.add(module)
                    pending.append((pkg.paths[module], None, pkg.top(module)))
    unreached = sorted(
        f"{module}:{qualname}"
        for i, (module, qualname, name, owner, _, _) in enumerate(defs)
        if i not in scanned and not name.startswith("_")
        and (owner is None or (index[module, owner.name] in scanned and not owner.name.startswith("_")))
    )
    return unreached, sorted(dangling)


def _shown(path: Path) -> str:
    return str(path.relative_to(REPO)) if path.is_relative_to(REPO) else path.name


def roots() -> list[Path]:
    """The CLI, every non-test script under ``benchmarks/``, and the examples."""
    return [
        PACKAGE / "cli.py",
        PACKAGE / "__main__.py",
        *(p for p in sorted((REPO / "benchmarks").rglob("*.py")) if not p.name.startswith("test_")),
        *sorted((REPO / "examples").glob("*.py")),
    ]


@functools.cache
def repro_package() -> Package:
    return Package(PACKAGE)


def test_no_production_module_imports_the_generic_driver():
    trees = {m: t for m, t in repro_package().trees.items() if ".quadrature" not in m}
    assert len(trees) > 50
    offenders = {m: found for m, tree in trees.items() if (found := reference_imports(tree))}
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
    assert reference_imports(ast.parse(probe.read_text())) == [
        "batch_gauss_windows (1)", "window_integrand (3)",
        "megabatch_romberg_windows (5)", "_run_megabatch (5)",
    ]


def test_every_public_name_has_a_caller_that_is_not_a_test():
    unreached, dangling = reachability(repro_package(), roots())
    assert {name: TEST_ONLY.get(name) for name in unreached} == TEST_ONLY
    assert {name: DANGLING.get(name) for name in dangling} == DANGLING
    tag = re.compile(r"(reference|roadmap item \d+): \S.*")
    assert [r for r in [*TEST_ONLY.values(), *DANGLING.values()] if not tag.fullmatch(r)] == []


def test_the_reachability_scan_sees_every_way_of_reaching_a_name(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text(
        "from pkg.lib import exported, reexported\n__all__ = ['exported', 'tested']\n"
    )
    (pkg / "lib.py").write_text(
        "def lazy(): pass\n"
        "def attribute(): pass\n"
        "def by_string(): pass\n"
        "def from_a_dunder(): pass\n"
        "def exported(): pass\n"
        "def tested(): pass\n"
        "def reexported(): pass\n"
        "def shadowed(): pass\n"
        "def lazily(): pass\n"
        "def lazily_unused(): pass\n"
        "class LazyClass: pass\n"
        "class Reached:\n"
        "    def __init__(self): from_a_dunder()\n"
        "    def unused(self): pass\n"
        "    def bare(self): pass\n"
        "    def selfish(self): pass\n"
        "class Unreached:\n"
        "    def lazy(self): pass\n"
        "class Twin:\n"
        "    def here(self): pass\n"
        "class Base:\n"
        "    def hook(self): pass\n"
        "    def template(self): return self.step()\n"
        "    def step(self): pass\n"
        # ``self.hook`` / ``self.selfish`` here reach no other class's method.
        "class Stranger:\n"
        "    def hook(self): pass\n"
        "    def go(self): return self.selfish()\n"
    )
    # A subclass in another module: its ``self.hook`` reaches its base's
    # hook, and the base's ``self.step`` reaches the override.
    (pkg / "kin.py").write_text(
        "from pkg.lib import Base\n"
        "class Sub(Base):\n"
        "    def run(self): return self.hook()\n"
        "    def step(self): pass\n"
    )
    # A lazy façade: its table offers names without importing pkg.lib.
    (pkg / "facade").mkdir()
    (pkg / "facade" / "__init__.py").write_text(
        "from pkg._lazy import _exports\n"
        "__all__, __getattr__ = _exports(__name__, {\n"
        "    'pkg.lib': ('lazily', 'lazily_unused', 'LazyClass'),\n"
        "})\n"
    )
    # Names ``shadowed`` only as another object's method, and never imports pkg.lib.
    (pkg / "other.py").write_text(
        "from pkg import reexported\n"
        "def helper(x):\n"
        "    reexported()\n"
        "    return x.shadowed()\n"
        "class Twin:\n"
        "    def there(self): pass\n"
    )
    root = tmp_path / "root.py"
    root.write_text(
        "import pkg.lib\n"
        "from pkg.other import helper\n"
        "from pkg.facade import LazyClass, lazily, not_offered\n"
        "from pkg.kin import Sub\n"
        "def main():\n"
        "    from pkg.lib import Reached, Stranger, lazy, missing\n"
        "    lazy()\n"
        "    bare = Sub().run(), Sub().template(), Stranger().go()\n"
        "    lazily(LazyClass.gone)\n"
        "    pkg.lib.attribute()\n"
        "    getattr(pkg.lib, 'by_string')()\n"
        "    return Reached(), Reached.gone, helper\n"
        # One name imported from two modules: each function's own import.
        "def first():\n"
        "    from pkg.lib import Twin\n"
        "    return Twin.here, Twin.there\n"
        "def second():\n"
        "    from pkg.other import Twin\n"
        "    return Twin.there\n"
    )
    (tmp_path / "test_lib.py").write_text(
        "from pkg.lib import tested\n"
        "def test_tested():\n"
        "    tested()\n"
    )
    unreached, dangling = reachability(Package(pkg), [root])
    assert unreached == [
        "pkg.lib:Reached.bare", "pkg.lib:Reached.selfish", "pkg.lib:Reached.unused",
        "pkg.lib:Stranger.hook", "pkg.lib:Unreached", "pkg.lib:exported", "pkg.lib:lazily_unused",
        "pkg.lib:shadowed", "pkg.lib:tested",
    ]
    assert dangling == [
        "root.py: pkg.facade.LazyClass.gone", "root.py: pkg.facade.not_offered",
        "root.py: pkg.lib.Reached.gone", "root.py: pkg.lib.Twin.there", "root.py: pkg.lib.missing",
    ]
