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

TRACING = Path(__file__).resolve().parent.parent / "benchmarks" / "tracing.py"


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [key for key in getattr(module, "__all__", ()) if not hasattr(module, key)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"


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
