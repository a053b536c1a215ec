"""Smoke test of the benchmark itself, at tiny sizes.

Stokes levels 0-2, parabolic level 2 and a level-2 KKT bundle; a run takes a
few seconds.  Run it with ``python -m pytest benchmarks/test_smoke.py``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

COUNTS = (
    "fem.matvec_calls",
    "fem.precond_calls",
    "krylov.minres_iters",
    "krylov.estimate_steps",
    "densecore.eig_calls",
)


def bench(*args, script=HERE / "run.py"):
    cmd = [sys.executable, str(script), "--size", "smoke", "--seconds", "1", *args]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=170)


def result_line(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload, trace):
    proc = bench("--workload", workload, "--seed", "5", "--trace", str(trace))
    result = result_line(proc)
    units = tracing.METRICS if trace else run.END_TO_END
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    printed = proc.stdout.splitlines()
    for name, unit in dict(units, failed_frac="ratio").items():
        assert any(
            line.startswith(f"{name} = ") and line.split()[3] == unit for line in printed
        ), name
    if trace:
        layers = {k: v["value"] for k, v in result["metrics"].items()}
        covered = sum(layers[f"{layer}.self_s"] for layer in tracing.LAYERS)
        assert covered == pytest.approx(layers["trace.pass_s"], rel=1e-9)


def test_counts_repeat_between_runs():
    counts = []
    for seed in ("5", "6"):
        metrics = result_line(bench("--workload", "stokes-tables", "--seed", seed, "--trace", "1"))["metrics"]
        counts.append({name: metrics[name]["value"] for name in COUNTS})
    assert counts[0] == counts[1]
    assert counts[0]["fem.matvec_calls"] > 0


def _add_one(row):
    row["iterations"] += 1
    return row


def _nudge(value):
    """Move a bounds value by 1e-7 relative, ten times the tolerance."""
    return f"{float(value) * (1.0 + 1e-7):.12g}"


@pytest.mark.parametrize(
    "workload, key, corrupt",
    [
        ("stokes-tables", "stokes level=1 nu=1 omega=1", _add_one),
        ("bounds-bundle", "bounds gamma", _nudge),
    ],
)
def test_corrupted_reference_value_is_counted(tmp_path, workload, key, corrupt):
    reference = json.loads((HERE / "reference.json").read_text())
    outputs = reference["smoke"][workload]
    outputs[key] = corrupt(outputs[key])
    path = tmp_path / "reference.json"
    path.write_text(json.dumps(reference))
    proc = bench("--workload", workload, "--seed", "5", "--reference", str(path))
    result = result_line(proc)
    assert not result["correct"] and result["failed"] > 0
    failed_frac = next(l for l in proc.stdout.splitlines() if l.startswith("failed_frac = "))
    assert float(failed_frac.split()[2]) > 0
    assert key in proc.stderr


def test_refuses_to_run_without_the_package_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = bench("--workload", "stokes-tables", "--seed", "5", script=tmp_path / HERE.name / "run.py")
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_self_time_excludes_child_spans():
    spans = [
        ["cli.pass", 0.0, 10.0, None, 0, None, None],
        ["krylov.minres", 1.0, 5.0, 0, 0, 0, None],
        ["fem.matvec", 2.0, 3.0, 1, 0, 0, None],
        ["fem.matvec", 3.5, 4.0, 1, 0, 0, None],
    ]
    assert tracing.self_times(spans) == [6.0, 2.5, 1.0, 0.5]


def test_scaled_pass_is_wall_time_at_the_reference_speed():
    ref = calibrate.REFERENCE_S
    assert calibrate.scaled_pass([1.0, 2.0], [ref, ref, ref]) == pytest.approx(3.0)
    # A host at half speed doubles both the units and the kernel.
    assert calibrate.scaled_pass([2.0, 4.0], [2 * ref] * 3) == pytest.approx(3.0)
    # Each kernel pair counts with the time of the unit between them.
    assert calibrate.scaled_pass([1.0, 3.0], [ref, ref, 3 * ref]) == pytest.approx(16.0 / 7.0)
    # One slow call among close calls before a long unit does not decide.
    assert calibrate.scaled_pass([0.01, 0.01, 5.0], [ref, ref, 9 * ref, ref]) == pytest.approx(5.02)
    with pytest.raises(ValueError):
        calibrate.scaled_pass([1.0], [ref])
    assert all(calibrate.Kernel(kind).time_s() > 0.0 for kind in ("sparse", "dense"))
