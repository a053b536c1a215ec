"""In-memory span recorder for the traced benchmark run.

A span is ``[name, start, end, parent, pass_id, row, attrs]``: the layer
call it times, its ``perf_counter`` interval, the index of the span that was
open when it started, the pass it belongs to (``"setup"`` for set-up), the
table row it belongs to, and a small dict of facts read from the call's
arguments or result.

Wrappers are installed by rebinding the module attributes that the
package's callers look up at call time (``saddlebounds.cli.minres_solve``,
``saddlebounds.saddle.generalized_hermitian_eig``, ...), so nothing inside
the package changes.  :func:`install` and :meth:`Tracer.uninstall` are
called only in the traced process.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from pathlib import Path

NAME, START, END, PARENT, PASS, ROW, ATTRS = range(7)

#: Layers in report order; a span's layer is the part of its name before the dot.
LAYERS = ("fem", "krylov", "mmio", "saddle", "densecore", "verify", "cli")

#: The traced pass itself; its self time is the CLI layer's own time, ``cli.self_s``.
PASS_SPAN = "cli.pass"


class Tracer:
    """Records spans in memory and rebinds attributes to traced wrappers."""

    def __init__(self):
        self.spans: list[list] = []
        self.pass_id: object = None
        self.row: int | None = None
        self._open: list[int] = []
        self._undo: list[tuple] = []

    def call(self, name, fn, args=(), kwargs=None, attrs=None, new_row=False):
        """Run ``fn`` inside a span; ``attrs(result, args)`` adds facts after
        the span has ended, so reading them is not timed."""
        if new_row:
            self.row = 0 if self.row is None else self.row + 1
        parent = self._open[-1] if self._open else None
        span = [name, 0.0, 0.0, parent, self.pass_id, self.row, None]
        self._open.append(len(self.spans))
        self.spans.append(span)
        span[START] = time.perf_counter()
        try:
            result = fn(*args, **(kwargs or {}))
        finally:
            span[END] = time.perf_counter()
            self._open.pop()
        if attrs is not None:
            span[ATTRS] = attrs(result, args)
        return result

    def wrap(self, name, fn, attrs=None, new_row=False):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, attrs, new_row)

        return traced

    def patch(self, owner, key, replacement) -> None:
        """Rebind ``owner.key`` (or ``owner[key]`` for a dict) until uninstall."""
        if isinstance(owner, dict):
            self._undo.append((owner, key, owner[key]))
            owner[key] = replacement
        else:
            self._undo.append((owner, key, getattr(owner, key)))
            setattr(owner, key, replacement)

    def patch_span(self, owner, key, name, attrs=None, new_row=False) -> None:
        original = owner[key] if isinstance(owner, dict) else getattr(owner, key)
        self.patch(owner, key, self.wrap(name, original, attrs, new_row))

    def uninstall(self) -> None:
        while self._undo:
            owner, key, original = self._undo.pop()
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)

    def write(self, path: Path) -> None:
        """Write the spans out as JSON lines, one span per line."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _minres_attrs(report, args):
    h = report.residual_history
    drift = abs(report.true_residual - float(h[-1])) / float(h[0]) if h[0] else 0.0
    return {
        "iterations": int(report.iterations),
        "converged": bool(report.converged),
        "drift": drift,
    }


def _bundle_bytes(result, args):
    directory = Path(args[0])
    return {"bytes": sum(f.stat().st_size for f in directory.iterdir() if f.is_file())}


def _eig_attrs(result, args):
    return {"n": int(result.eigenvalues.shape[0])}


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the workloads cross."""
    from saddlebounds import cli, mmio, saddle, verify
    from saddlebounds.fem import problems
    from saddlebounds.krylov import LinearOperator

    tracer.patch_span(cli, "build_mesh", "fem.mesh", new_row=True)
    for flavor in list(cli._BUILDERS):
        tracer.patch_span(cli._BUILDERS, flavor, "fem.build")
    tracer.patch_span(problems, "assemble_p1", "fem.assemble")
    tracer.patch_span(problems, "assemble_taylor_hood", "fem.assemble")

    def applies(method, apply_name):
        # Building the operator is fem work; each application is its own span.
        def traced(problem):
            op = tracer.call("fem.operator", method, (problem,))
            return LinearOperator(op.dim, tracer.wrap(apply_name, op.apply))

        return traced

    model = problems.ModelProblem
    tracer.patch(model, "operator", applies(model.operator, "fem.matvec"))
    tracer.patch(model, "preconditioner", applies(model.preconditioner, "fem.precond"))

    tracer.patch_span(cli, "minres_solve", "krylov.minres", _minres_attrs)
    tracer.patch_span(cli, "estimate_intervals", "krylov.estimate")

    tracer.patch_span(mmio, "save_bundle", "mmio.write", _bundle_bytes)
    tracer.patch_span(mmio, "load_bundle", "mmio.read", _bundle_bytes)

    tracer.patch_span(cli, "brezzi_constants", "saddle.brezzi")
    tracer.patch_span(cli, "babuska_constants", "saddle.babuska")
    tracer.patch_span(saddle, "generalized_hermitian_eig", "densecore.eig", _eig_attrs)
    tracer.patch_span(verify, "generalized_hermitian_eig", "densecore.eig", _eig_attrs)
    for suite in list(verify.SUITES):
        tracer.patch_span(verify.SUITES, suite, "verify.suite")


def eig_gflop(n: int) -> float:
    """Computed real-flop count, in GFLOP, of one dense generalized Hermitian
    eigenproblem of order n as ``densecore.generalized_hermitian_eig`` does
    it: Cholesky (n^3/3), two triangular solves with n right-hand sides
    (2 n^3), tridiagonal reduction (4/3 n^3), eigenvector back-transform
    (2 n^3) and the final triangular solve (n^3), in complex multiply-adds of
    8 real flops each.  A model count from the dimension, not a measurement."""
    return 8.0 * (1.0 / 3.0 + 2.0 + 4.0 / 3.0 + 2.0 + 1.0) * n**3 / 1e9


#: Per-layer metrics and their units, in report order.
METRICS = {
    "fem.mesh_s": "s",
    "fem.assemble_s": "s",
    "fem.build_s": "s",
    "fem.precond_setup_s": "s",
    "fem.matvec_ms": "ms",
    "fem.matvec_calls": "count",
    "fem.precond_ms": "ms",
    "fem.precond_calls": "count",
    "fem.self_s": "s",
    "krylov.minres_s": "s",
    "krylov.minres_iters": "count",
    "krylov.minres_self_s": "s",
    "krylov.unconverged": "count",
    "krylov.residual_drift": "ratio",
    "krylov.estimate_s": "s",
    "krylov.estimate_steps": "count",
    "krylov.estimate_self_s": "s",
    "krylov.self_s": "s",
    "mmio.write_s": "s",
    "mmio.read_s": "s",
    "mmio.bytes": "B",
    "mmio.self_s": "s",
    "saddle.brezzi_s": "s",
    "saddle.babuska_s": "s",
    "saddle.self_s": "s",
    "densecore.eig_s": "s",
    "densecore.eig_calls": "count",
    "densecore.eig_gflop": "GFLOP",
    "densecore.self_s": "s",
    "verify.s": "s",
    "verify.self_s": "s",
    "cli.self_s": "s",
    "trace.pass_s": "s",
    "trace.untraced_pass_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
    "trace.span_cost_s": "s",
}


def span_cost(calls: int = 20000) -> float:
    """Measured cost in seconds of recording one span around a call that
    does nothing, on a fresh tracer."""
    tracer = Tracer()
    noop = tracer.wrap("noop", lambda: None)
    start = time.perf_counter()
    for _ in range(calls):
        noop()
    return (time.perf_counter() - start) / calls


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its child spans cover.  Calls are
    single-threaded, so children of one span never overlap."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] is not None:
            covered[span[PARENT]] += span[END] - span[START]
    return [s[END] - s[START] - c for s, c in zip(spans, covered)]


def _inside(spans, index, name) -> bool:
    parent = spans[index][PARENT]
    while parent is not None:
        if spans[parent][NAME] == name:
            return True
        parent = spans[parent][PARENT]
    return False


def pass_metrics(spans: list[list], pass_id) -> dict[str, float]:
    """Per-layer metrics of one traced pass (without the ``mmio.write_s`` of
    set-up and the ``trace.*`` comparison, which the worker adds)."""
    own = self_times(spans)
    total = defaultdict(float)
    calls = defaultdict(int)
    layer_self = defaultdict(float)
    iters = unconverged = steps = 0
    drift = gflop = 0.0
    minres_self = estimate_self = 0.0
    nbytes = 0
    pass_s = 0.0
    for i, span in enumerate(spans):
        if span[PASS] != pass_id:
            continue
        name, dur = span[NAME], span[END] - span[START]
        total[name] += dur
        calls[name] += 1
        layer_self[name.split(".")[0]] += own[i]
        attrs = span[ATTRS] or {}
        if name == PASS_SPAN:
            pass_s = dur
        elif name == "krylov.minres":
            iters += attrs["iterations"]
            unconverged += not attrs["converged"]
            drift = max(drift, attrs["drift"])
            minres_self += own[i]
        elif name == "krylov.estimate":
            estimate_self += own[i]
        elif name == "fem.matvec" and _inside(spans, i, "krylov.estimate"):
            steps += 1
        elif name == "densecore.eig":
            gflop += eig_gflop(attrs["n"])
        elif name == "mmio.read":
            nbytes = max(nbytes, attrs["bytes"])

    def per_call_ms(name):
        return 1e3 * total[name] / calls[name] if calls[name] else 0.0

    return {
        "fem.mesh_s": total["fem.mesh"],
        "fem.assemble_s": total["fem.assemble"],
        "fem.build_s": total["fem.build"],
        "fem.precond_setup_s": total["fem.build"] - total["fem.assemble"],
        "fem.matvec_ms": per_call_ms("fem.matvec"),
        "fem.matvec_calls": calls["fem.matvec"],
        "fem.precond_ms": per_call_ms("fem.precond"),
        "fem.precond_calls": calls["fem.precond"],
        "fem.self_s": layer_self["fem"],
        "krylov.minres_s": total["krylov.minres"],
        "krylov.minres_iters": iters,
        "krylov.minres_self_s": minres_self,
        "krylov.unconverged": unconverged,
        "krylov.residual_drift": drift,
        "krylov.estimate_s": total["krylov.estimate"],
        "krylov.estimate_steps": steps,
        "krylov.estimate_self_s": estimate_self,
        "krylov.self_s": layer_self["krylov"],
        "mmio.read_s": total["mmio.read"],
        "mmio.bytes": nbytes,
        "mmio.self_s": layer_self["mmio"],
        "saddle.brezzi_s": total["saddle.brezzi"],
        "saddle.babuska_s": total["saddle.babuska"],
        "saddle.self_s": layer_self["saddle"],
        "densecore.eig_s": total["densecore.eig"],
        "densecore.eig_calls": calls["densecore.eig"],
        "densecore.eig_gflop": gflop,
        "densecore.self_s": layer_self["densecore"],
        "verify.s": total["verify.suite"],
        "verify.self_s": layer_self["verify"],
        "cli.self_s": layer_self["cli"],
        "trace.pass_s": pass_s,
        "trace.spans": sum(calls.values()),
    }


def row_breakdown(spans: list[list], pass_id) -> list[dict]:
    """Per table row of one traced pass: build, solve and estimate times,
    iterations, and the mean cost of one operator and one preconditioner
    application."""
    rows = defaultdict(lambda: defaultdict(float))
    counts = defaultdict(lambda: defaultdict(int))
    for span in spans:
        if span[PASS] != pass_id or span[ROW] is None:
            continue
        name, dur = span[NAME], span[END] - span[START]
        rows[span[ROW]][name] += dur
        counts[span[ROW]][name] += 1
        if name == "krylov.minres":
            rows[span[ROW]]["iterations"] += span[ATTRS]["iterations"]
    out = []
    for row in sorted(rows):
        t, c = rows[row], counts[row]
        out.append(
            {
                "row": row,
                "build_s": t["fem.build"],
                "minres_s": t["krylov.minres"],
                "minres_iters": int(t["iterations"]),
                "estimate_s": t["krylov.estimate"],
                "matvec_ms": 1e3 * t["fem.matvec"] / max(c["fem.matvec"], 1),
                "precond_ms": 1e3 * t["fem.precond"] / max(c["fem.precond"], 1),
            }
        )
    return out
