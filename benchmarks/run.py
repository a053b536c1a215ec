"""saddlebounds benchmark: time to result of the paper's tables and bounds.

One workload per call, in fresh worker processes:

    python3 benchmarks/run.py --workload stokes-tables --seed 1 --seconds 36 --trace 0

prints every end-to-end metric with its unit (``--trace 0``) or every
per-layer metric with the layer self-time table (``--trace 1``), checks every
output against ``reference.json``, and ends with one JSON line
``{"correct", "attempted", "failed", "metrics"}``.

    python3 benchmarks/run.py --record benchmarks/BENCH_baseline.json

runs every workload untraced and traced and writes a ``BENCH_*.json``
record with the environment block.

End-to-end times are scaled to a reference host speed with the
calibration kernel of ``calibrate.py``; the unscaled wall times are printed
and recorded next to them.  The runner imports no numerical library
itself.  It caps BLAS and OpenMP threads in the workers' environment and
starts one worker at a time.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("stokes-tables", "parabolic-l6", "bounds-bundle")

#: BLAS/OpenMP threads per worker, fixed and recorded.  The table workloads
#: spend their time in sparse products, ``splu`` solves and vector updates:
#: a second OpenBLAS thread only spins (twice the CPU time, no faster) and
#: makes the pass depend on the other core being free.  The dense
#: eigensolves of bounds-bundle take about 1.4x longer at one thread, but
#: then every workload runs on one core, whose speed the single-threaded
#: calibration kernel measures.
THREAD_CAP = 1

#: Fresh processes that measure set-up in one untraced run; the median is
#: reported.
SETUP_SAMPLES = 5

#: A run must end well inside three minutes.
DEADLINE_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "pass_s": "s",
    "peak_rss_mb": "MB",
    "correct_frac": "ratio",
}


class BenchError(RuntimeError):
    pass


def thread_cap() -> int:
    return max(1, min(THREAD_CAP, len(os.sched_getaffinity(0))))


def child_env() -> dict:
    env = dict(os.environ)
    cap = str(thread_cap())
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = cap
    return env


def run_worker(args, workdir: Path, tag: str, deadline: float, *extra) -> dict:
    """Start one worker, wait for it, and return its JSON result."""
    result = workdir / f"result-{tag}.json"
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--size", args.size,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--workdir", str(workdir),
        "--result", str(result),
        "--reference", str(args.reference),
        *extra,
    ]
    t0 = time.monotonic()
    proc = subprocess.Popen(
        cmd + ["--t0", repr(t0)], env=child_env(), stdout=subprocess.DEVNULL, cwd=ROOT
    )
    try:
        code = proc.wait(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {tag} did not finish before the deadline") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0 or not result.is_file():
        raise BenchError(f"worker {tag} failed with exit code {code}")
    return json.loads(result.read_text())


def measure(args, deadline: float) -> dict:
    """All workers of one workload; returns the worker result plus the
    set-up samples."""
    workdir = ROOT / ".bench_work" / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    setups = []
    if not args.trace:
        for i in range(SETUP_SAMPLES - 1):
            setups.append(run_worker(args, workdir, f"setup{i}", deadline, "--setup-only"))
    result = run_worker(args, workdir, "main", deadline)
    setups.append(result)
    result["setup_samples"] = [r["setup_s"] for r in setups]
    result["setup_wall_samples"] = [r["setup_wall_s"] for r in setups]
    return result


def end_to_end(result: dict) -> dict:
    return {
        "setup_s": statistics.median(result["setup_samples"]),
        "pass_s": statistics.median(result["pass_s"]),
        "peak_rss_mb": result["peak_rss_mb"],
        "correct_frac": 1.0 - result["failed"] / result["checked"],
    }


def metric_lines(metrics: dict, units: dict) -> list[str]:
    return [f"{name} = {metrics[name]:.6g} {units[name]}" for name in units]


def layer_table(layers: dict) -> list[str]:
    """Layer self times of the traced pass next to the untraced pass_s."""
    lines = [f"{'layer':<10} {'self_s':>10} {'share':>7}"]
    traced = layers["trace.pass_s"]
    for layer in tracing.LAYERS:
        value = layers[f"{layer}.self_s"]
        lines.append(f"{layer:<10} {value:>10.4f} {value / traced:>7.1%}")
    lines.append(f"{'traced':<10} {traced:>10.4f}")
    lines.append(f"{'untraced':<10} {layers['trace.untraced_pass_s']:>10.4f}")
    lines.append(f"{'overhead':<10} {layers['trace.overhead_s']:>10.4f}")
    return lines


def run_one(args) -> int:
    deadline = time.monotonic() + DEADLINE_S
    result = measure(args, deadline)
    if args.trace:
        metrics, units = result["layers"], tracing.METRICS
    else:
        metrics, units = end_to_end(result), END_TO_END
    passes = len(result["pass_s"]) + len(result.get("traced_pass_s", []))
    print(f"workload {args.workload} ({args.size}), seed {args.seed}, {passes} passes, "
          f"{len(result['setup_samples'])} set-up samples, {thread_cap()} BLAS threads")
    print(f"failed_frac = {result['failed'] / result['checked']:.6g} ratio "
          f"({result['failed']} of {result['checked']} checked outputs)")
    for key in result["failures"]:
        print(f"wrong output: {key}", file=sys.stderr)
    print("\n".join(metric_lines(metrics, units)))
    if not args.trace:
        print(f"unscaled: pass {statistics.median(result['pass_wall_s']):.6g} s, "
              f"set-up {statistics.median(result['setup_wall_samples']):.6g} s "
              f"(wall times before the host-speed scaling of calibrate.py)")
    if args.trace:
        print("\n".join(layer_table(metrics)))
    line = {
        "correct": result["failed"] == 0,
        "attempted": result["checked"],
        "failed": result["failed"],
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    print(json.dumps(line))
    return 0


def record(args) -> int:
    """Run every workload untraced and traced and write a BENCH_*.json record."""
    git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = {
        "benchmark": "saddlebounds",
        "commit": git.stdout.strip() or None,
        "created": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "seed": args.seed,
        "seconds": args.seconds,
        "size": args.size,
        "thread_cap": thread_cap(),
        "environment": None,
        "workloads": {},
    }
    for workload in spec["workloads"]:
        name = args.workload = workload["name"]
        args.trace = 0
        plain = measure(args, time.monotonic() + DEADLINE_S)
        args.trace = 1
        traced = measure(args, time.monotonic() + DEADLINE_S)
        workdir = ROOT / ".bench_work" / name
        env = run_worker(args, workdir, "describe", time.monotonic() + DEADLINE_S, "--describe")["environment"]
        metrics = end_to_end(plain)
        checked = plain["checked"] + traced["checked"]
        failed = plain["failed"] + traced["failed"]
        out["environment"] = {k: v for k, v in env.items() if k != "working_set_bytes"}
        out["workloads"][name] = {
            "why": workload["why"],
            "end_to_end": {k: {"value": metrics[k], "unit": u} for k, u in END_TO_END.items()},
            "failed_frac": failed / checked,
            "checked": checked,
            "failures": sorted(set(plain["failures"]) | set(traced["failures"])),
            "samples": {
                "pass_s": plain["pass_s"],
                "pass_wall_s": plain["pass_wall_s"],
                "kernel_s": plain["kernel_s"],
                "setup_s": plain["setup_samples"],
                "setup_wall_s": plain["setup_wall_samples"],
            },
            "per_layer": {k: {"value": traced["layers"][k], "unit": u} for k, u in tracing.METRICS.items()},
            "traced_pass_s": traced["traced_pass_s"],
            "layer_table": layer_table(traced["layers"]),
            "rows": [dict(row, output=key) for row, key in zip(traced["rows"], traced["outputs"])],
            "working_set_bytes": env["working_set_bytes"],
            "outputs": plain["outputs"],
        }
        print(f"{name}: " + ", ".join(metric_lines(metrics, END_TO_END)))
    Path(args.record).write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {args.record}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--reference", type=Path, default=HERE / "reference.json")
    parser.add_argument("--record", help="run every workload and write this BENCH_*.json")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "saddlebounds" / "__init__.py").is_file():
        print(f"error: no saddlebounds sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.record is None and args.workload is None:
        parser.error("give --workload or --record")
    try:
        return record(args) if args.record else run_one(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
