"""One benchmark process: set up one workload, run passes, check outputs.

``run.py`` starts this script in a fresh interpreter for every measurement
and passes ``--t0``, its ``time.monotonic()`` just before the start, so
``setup_s`` covers interpreter start, imports, the first LAPACK call and the
workload's own set-up.  The result goes to ``--result`` as JSON.

Passes run until the next one would end after ``--seconds``; there is always
at least one.  An untraced pass runs unit by unit with the calibration
kernel of ``calibrate.py`` before each unit and after the last, and its
wall time is also reported scaled to the reference host speed; ``setup_s`` is scaled the same
way by kernel calls made right after set-up.  With ``--trace 1`` untraced and traced passes alternate (at
least one of each), set-up is traced too, and the spans are written next to
the result.  ``--describe`` reports the environment and working-set sizes
instead of measuring.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _import_package():
    """Import ``saddlebounds`` from this checkout's ``src``, never from
    anywhere else on the path."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import saddlebounds

    if Path(saddlebounds.__file__).resolve().parent != src / "saddlebounds":
        raise ImportError(f"saddlebounds imported from {saddlebounds.__file__}, not {src}")


def _cache_sizes() -> dict:
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level = (index / "level").read_text().strip()
        kind = (index / "type").read_text().strip()
        if kind != "Instruction":
            sizes[f"L{level}"] = (index / "size").read_text().strip()
    return sizes


def describe(workload) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "thread_env": {
            k: os.environ.get(k)
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "cpu_cache": _cache_sizes(),
        "working_set_bytes": workload.working_set_bytes(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--reference", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--describe", action="store_true")
    args = parser.parse_args(argv)

    _import_package()
    import calibrate
    import tracing
    import workloads

    workdir = Path(args.workdir)
    workload = workloads.Workload(args.workload, args.size, args.seed, workdir)
    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        tracing.install(tracer)
        tracer.pass_id = "setup"
    workload.setup()
    setup_s = time.monotonic() - args.t0
    if tracer:
        tracer.uninstall()
    kernel = calibrate.Kernel(workloads.KERNEL[args.workload])
    setup_kernel_s = [kernel.time_s() for _ in range(calibrate.SETUP_CALLS)]
    result = {
        "setup_wall_s": setup_s,
        "setup_s": setup_s * calibrate.scale(setup_kernel_s),
    }
    if args.describe:
        result["environment"] = describe(workload)
    if args.setup_only or args.describe:
        Path(args.result).write_text(json.dumps(result))
        return 0

    reference = json.loads(Path(args.reference).read_text())[args.size][args.workload]
    pass_s, pass_wall_s, kernel_s, traced_s, wrong = [], [], [], [], []
    checked = 0
    started = time.perf_counter()
    while True:
        traced = tracer is not None and len(pass_s) > len(traced_s)
        if traced:
            tracing.install(tracer)
            tracer.pass_id, tracer.row = len(traced_s), None
            t = time.perf_counter()
            outputs = tracer.call(tracing.PASS_SPAN, workload.run_pass)
            traced_s.append(time.perf_counter() - t)
            tracer.uninstall()
        else:
            # The kernel runs before every unit and after the last one,
            # outside the units' timing.
            outputs, unit_s, pass_kernel_s = {}, [], [kernel.time_s()]
            for unit in workload.units():
                t = time.perf_counter()
                outputs.update(unit())
                unit_s.append(time.perf_counter() - t)
                pass_kernel_s.append(kernel.time_s())
            pass_wall_s.append(sum(unit_s))
            pass_s.append(calibrate.scaled_pass(unit_s, pass_kernel_s))
            kernel_s.append(pass_kernel_s)
        failures = workloads.check(outputs, reference)
        checked += len(reference) + sum(k not in reference for k in outputs)
        wrong += failures
        elapsed = time.perf_counter() - started
        longest = max(pass_wall_s + traced_s)
        need_traced = tracer is not None and not traced_s
        if elapsed + longest > args.seconds and not need_traced:
            break

    result.update(
        {
            "pass_s": pass_s,
            "pass_wall_s": pass_wall_s,
            "kernel_s": kernel_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "checked": checked,
            "failed": len(wrong),
            "failures": sorted(set(wrong)),
            "outputs": outputs,
        }
    )
    if tracer:
        # One whole pass, the median one, so that the layer self times add up
        # to its duration.
        median_pass = sorted(range(len(traced_s)), key=traced_s.__getitem__)[(len(traced_s) - 1) // 2]
        layers = tracing.pass_metrics(tracer.spans, median_pass)
        layers["mmio.write_s"] = sum(
            (s[tracing.END] - s[tracing.START] for s in tracer.spans if s[tracing.NAME] == "mmio.write"),
            0.0,
        )
        untraced = statistics.median(pass_wall_s)
        layers["trace.untraced_pass_s"] = untraced
        layers["trace.overhead_s"] = layers["trace.pass_s"] - untraced
        layers["trace.span_cost_s"] = layers["trace.spans"] * tracing.span_cost()
        result["layers"] = {k: layers[k] for k in tracing.METRICS}
        result["rows"] = tracing.row_breakdown(tracer.spans, median_pass)
        result["traced_pass_s"] = traced_s
        tracer.write(workdir / "spans.jsonl")
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
