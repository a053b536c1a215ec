import ast
import importlib
import importlib.util
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import saddlebounds
from saddlebounds import cli, mmio, saddle, verify
from saddlebounds.fem import problems

MODULES = ["saddlebounds"] + [
    info.name for info in pkgutil.walk_packages(saddlebounds.__path__, "saddlebounds.")
]

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "benchmarks" / "tracing.py"
ACCEPTANCE = ROOT / "tests" / "test_acceptance.py"

#: The files the lint tests read: the package and the demos.
SOURCES = sorted(Path(saddlebounds.__file__).resolve().parent.rglob("*.py")) + sorted(
    (ROOT / "demos").glob("*.py")
)
#: The import lint also reads the tests.
IMPORT_SOURCES = SOURCES + sorted((ROOT / "tests").glob("*.py"))

_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [key for key in getattr(module, "__all__", ()) if not hasattr(module, key)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"


def test_public_names_are_read_by_the_program():
    """Every name in an ``__all__`` of the package is read by a module of
    the package or by a demo: public API that only the tests use belongs
    in the tests.  Importing a name or listing it in ``__all__`` is not
    reading it."""
    read = set()
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    unread = [
        f"{name}.{key}"
        for name in MODULES
        for key in getattr(importlib.import_module(name), "__all__", ())
        if key not in read
    ]
    assert not unread, f"public names read only outside the program: {unread}"


def test_cli_import_leaves_out_scipy_optimize():
    """Every command pays its imports; scipy.optimize alone costs about
    0.25 s, and no module of the package needs it."""
    src = str(Path(saddlebounds.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    probe = "import sys, saddlebounds.cli; print('scipy.optimize' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "False"


def test_benchmark_tracer_installs_and_restores(monkeypatch):
    """The benchmark's span tracer rebinds package attributes by name; each
    must stay bound, and uninstalling must put every original back."""
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave benchmarks/ as is
    spec.loader.exec_module(tracing)
    owners = [
        cli, mmio, saddle, verify, problems, problems.ModelProblem,
        cli._BUILDERS, verify.SUITES,
    ]

    def bindings():
        return [dict(o) if isinstance(o, dict) else dict(vars(o)) for o in owners]

    before = bindings()
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        for name in ("brezzi_constants", "babuska_constants", "minres_solve"):
            assert getattr(cli, name) is not before[0][name]
    finally:
        tracer.uninstall()
    after = bindings()
    for old, new in zip(before, after):
        assert old.keys() == new.keys()
        changed = [key for key in old if old[key] is not new[key]]
        assert not changed, f"not restored: {changed}"


def test_acceptance_reports_criteria_1_to_12():
    """``tests/test_acceptance.py`` prints the twelve ``ACCEPTANCE n:`` lines
    when it passes: its tests are exactly ``test_criterion_01`` to ``_12``,
    in order, none decorated, skipped or left by a ``return``, and each ends
    with ``report(n, ...)`` with its own ``n``."""
    tree = ast.parse(ACCEPTANCE.read_text())
    tests = [
        node for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.lower().startswith("test")
    ]
    names = [test.name for test in tests]
    assert len(names) == 12 and all(
        name.startswith(f"test_criterion_{n:02d}_") for n, name in enumerate(names, 1)
    ), names
    for n, test in enumerate(tests, 1):
        assert not test.decorator_list, f"{test.name} is decorated"
        assert not any(isinstance(node, ast.Return) for node in _own_scope(test)), test.name
        last = test.body[-1]
        assert (
            isinstance(last, ast.Expr) and isinstance(last.value, ast.Call)
            and isinstance(last.value.func, ast.Name) and last.value.func.id == "report"
            and isinstance(last.value.args[0], ast.Constant) and last.value.args[0].value == n
        ), f"{test.name} does not end with report({n}, ...)"
    skips = _names(ast.walk(tree), ast.Store) | {
        node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
    }
    assert not skips & {"pytestmark", "skip", "xfail", "importorskip"}


def _own_scope(func):
    """The nodes of ``func``'s own scope, without nested functions and classes."""
    stack = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, _SCOPES):
            stack.extend(ast.iter_child_nodes(node))


def _names(nodes, ctx) -> set:
    return {node.id for node in nodes if isinstance(node, ast.Name) and isinstance(node.ctx, ctx)}


def test_no_unread_local_names():
    """No function in the package or the demos assigns a local name it
    never reads (nested functions count as readers); names starting with
    ``_`` are exempt."""
    unread = []
    for path in SOURCES:
        for func in ast.walk(ast.parse(path.read_text())):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            own = list(_own_scope(func))
            declared = {
                name
                for node in own
                if isinstance(node, (ast.Global, ast.Nonlocal))
                for name in node.names
            }
            stored = _names(own, ast.Store) - declared - _names(ast.walk(func), ast.Load)
            unread += [f"{path.name}:{func.name}:{name}" for name in stored if name[0] != "_"]
    assert not unread, f"local names assigned and never read: {sorted(unread)}"


def test_no_unused_imports():
    """Every import in the package, the demos and the tests is read, listed
    in ``__all__`` or marked ``# noqa: F401``."""
    unused = []
    for path in IMPORT_SOURCES:
        text = path.read_text()
        lines = text.splitlines()
        tree = ast.parse(text)
        loaded = _names(ast.walk(tree), ast.Load)
        exported = set()
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                exported = set(ast.literal_eval(node.value))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                marked = "# noqa: F401" in lines[alias.lineno - 1]
                if name not in loaded | exported and not marked:
                    unused.append(f"{path.name}:{alias.lineno}:{name}")
    assert not unused, f"unused imports: {unused}"
