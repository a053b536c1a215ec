"""Command-line driver: constants/bounds, experiment tables, verification.

Subcommands
-----------
``bounds PATH``
    Load a system bundle (Matrix Market blocks plus manifest), print its
    exact constants, every closed-form bound, and the inclusion set.  The
    inclusion set presumes a (1,1) block positive definite on ker(B); for
    any other system one line says it is omitted.  A bundle above the dense
    limit (order 6000), or with an empty (1,1) or coupling block, is
    refused before any block is densified.  The bundle is reduced to the
    Euclidean geometry in place (:func:`saddlebounds.saddle.reduce_system`);
    then Babuska's eigensolve runs on one helper thread while Brezzi's
    constants are computed in the reduced system's own buffers, with BLAS
    at one thread, and a system both refuse gets Babuska's message.
``table``
    Reproduce the preconditioned-MINRES experiment tables for a model
    problem family: one row per swept parameter (mesh size, frequency, or
    cost parameter) with the measured positive spectral interval, the
    positive interval of the family's theory set (:data:`THEORY`), the
    observed iteration count, and the MINRES bound over the symmetric hull
    of the whole theory set, both of its intervals.
    ``--format json`` writes every field of every row, including the
    number of Lanczos steps of the interval estimate and whether it was
    certified, the true residual of the solve, and the operator and
    preconditioner applications of the solve and of the estimate; each
    uncertified row also gets a line on stderr.  A row's solve and its
    estimate, two independent Lanczos runs on the same operators, overlap
    on two threads.
``verify SUITE``
    Run a named randomized verification suite and print a JSON summary.
``export``
    Assemble a model problem and write it as a Matrix Market bundle plus a
    plain-text mesh listing; a problem that ``bounds`` would refuse for its
    size is refused before any directory is made.

Experiment configuration can come from a JSON file (``--config``) whose
keys are the names of the ``table`` flags; any command-line flag overrides
the file.  Output is deterministic: CSV and Markdown tables print intervals
with three decimals, counts as integers.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import math
import numbers
import sys
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import bounds as bnd
from . import mmio, saddle, verify
from .densecore import hermitian_eigenvalues, one_blas_thread
from .fem import build_mesh, parabolic_kkt, parabolic_reduced, stokes_system
from .fem.mesh import check_level
from .fem.problems import check_parameters
from .krylov import (
    MinresReport,
    RitzEstimate,
    estimate_intervals,
    minres_solve,
    printed_endpoint,
)
from .saddle import (
    BabuskaConstants,
    BrezziConstants,
    SaddleSystem,
    babuska_constants,
    brezzi_constants,
    reduce_system,
)

_BUILDERS = {
    "parabolic-kkt": parabolic_kkt,
    "parabolic-reduced": parabolic_reduced,
    "stokes": stokes_system,
}
FLAVORS = tuple(_BUILDERS)
FORMATS = ("csv", "markdown", "json")


def _mirror(lo: float, hi: float) -> bnd.SpectralInclusion:
    return bnd.SpectralInclusion(-hi, -lo, lo, hi)


#: Each family's parameter-free inclusion set, from the robust-preconditioner
#: theorems.  Stokes: +-[cubic bound at (alpha, beta, a_norm) = (1/sqrt(3),
#: 1, 1), sharp norm bound (1 + sqrt(5))/2]; the full parabolic optimality
#: system: the two intervals of the eigenvalue-range constants
#: (2 - sqrt(2), sqrt(2)/2, 0, 1); the reduced parabolic system:
#: +-[1/sqrt(3), 1].
THEORY = {
    "parabolic-kkt": bnd.inclusion_set(
        BrezziConstants(2.0 - math.sqrt(2.0), math.sqrt(2.0) / 2.0, 1.0, 1.0, 0.0, 1.0)
    ),
    "parabolic-reduced": _mirror(1.0 / math.sqrt(3.0), 1.0),
    "stokes": _mirror(
        bnd.gamma_opt_general(1.0 / math.sqrt(3.0), 1.0, 1.0), bnd.b_norm_upper(1.0, 1.0)
    ),
}


@dataclass
class ExperimentConfig:
    """Declarative description of one experiment table.

    The fields are the keys of a ``--config`` file and the ``table`` flags
    of the same names.
    """

    flavor: str = "stokes"
    levels: list[int] = field(default_factory=lambda: [4])
    nu: list[float] = field(default_factory=lambda: [1.0])
    omega: list[float] = field(default_factory=lambda: [1.0])
    eps: float = 1e-8
    maxit: int = 600
    format: str = "csv"
    out: str | None = None

    def __post_init__(self):
        if self.flavor not in FLAVORS:
            raise ValueError(f"unknown flavor {self.flavor!r}; choose from {FLAVORS}")
        if self.format not in FORMATS:
            raise ValueError(f"unknown format {self.format!r}; choose from {FORMATS}")
        for name in ("levels", "nu", "omega"):
            if not isinstance(getattr(self, name), (list, tuple)):
                raise TypeError(f"{name}: expected a list, got {getattr(self, name)!r}")
        # JSON's true and false are Python bools, which are also ints.
        ints, reals = (numbers.Integral, "an integer"), (numbers.Real, "a real number")
        for name, values, (kind, what) in (
            ("levels", self.levels, ints), ("maxit", [self.maxit], ints),
            ("nu", self.nu, reals), ("omega", self.omega, reals), ("eps", [self.eps], reals),
        ):
            bad = [v for v in values if isinstance(v, bool) or not isinstance(v, kind)]
            if bad:
                raise TypeError(f"{name}: expected {what}, got {bad[0]!r}")
        if not (self.out is None or isinstance(self.out, str)):
            raise TypeError(f"out: expected a path or null, got {self.out!r}")
        if not (self.levels and self.nu and self.omega):
            raise ValueError("levels, nu and omega must be nonempty")
        if not (0.0 < self.eps < 1.0):
            raise ValueError(f"eps must be in (0, 1), got {self.eps}")
        if self.maxit < 1:
            raise ValueError(f"maxit must be at least 1, got {self.maxit}")
        sweeps = [len(self.levels) > 1, len(self.nu) > 1, len(self.omega) > 1]
        if sum(sweeps) > 1:
            raise ValueError("exactly one of levels/nu/omega may be swept per table")
        for _, _, level, nu, omega in _sweep(self):
            check_level(level)
            check_parameters(nu, omega)


class ConvergenceError(RuntimeError):
    """A table row's MINRES solve stopped without reaching its target."""


@dataclass(frozen=True)
class TableRow:
    """One experiment-table row.

    ``estimate_steps`` and ``estimate_certified`` are the Lanczos steps of
    the interval estimate and its certificate (see
    :func:`saddlebounds.krylov.estimate_intervals`).  ``true_residual`` and
    the application counts come from the MINRES report and the estimate;
    only ``table --format json`` prints them.
    """

    parameter_name: str
    parameter_value: float
    computed_lo: float
    computed_hi: float
    theory_lo: float
    theory_hi: float
    iterations: int
    iteration_bound: int
    estimate_steps: int
    estimate_certified: bool
    true_residual: float
    minres_operator_applications: int
    minres_preconditioner_applications: int
    estimate_operator_applications: int
    estimate_preconditioner_applications: int


def _sweep(config: ExperimentConfig) -> list[tuple]:
    """``(parameter_name, parameter_value, level, nu, omega)`` of each row."""
    if len(config.nu) > 1:
        return [("nu", nu, config.levels[0], nu, config.omega[0]) for nu in config.nu]
    if len(config.omega) > 1:
        return [("omega", om, config.levels[0], config.nu[0], om) for om in config.omega]
    return [
        ("h", 2.0 ** (-level), level, config.nu[0], config.omega[0])
        for level in config.levels
    ]


def _row_label(flavor: str, level: int, nu: float, omega: float) -> str:
    return f"{flavor} level={level} nu={nu:g} omega={omega:g}"


def _solve_and_estimate(
    config: ExperimentConfig, label: str, op, pc, rhs
) -> tuple[MinresReport, RitzEstimate]:
    """One row's MINRES solve and interval estimate, each called once.

    The estimate runs on a helper thread while the calling thread solves.
    The two share only the operators, and the BLAS cap lets their level-1
    calls run side by side.  The helper is joined before this returns or
    raises, and the errors are those of the serial order: a failing solve,
    then an unconverged one (:class:`ConvergenceError`), then a failing
    estimate.
    """
    # Leaving the pool joins the helper.
    with concurrent.futures.ThreadPoolExecutor(1) as pool:
        helper = pool.submit(estimate_intervals, op, pc)
        report = minres_solve(op, pc, rhs, eps=config.eps, maxit=config.maxit)
    if not report.converged:
        raise ConvergenceError(
            f"{label}: MINRES stopped unconverged after {report.iterations} "
            f"iterations (eps={config.eps:g}, maxit={config.maxit})"
        )
    return report, helper.result()


def run_table(config: ExperimentConfig) -> list[TableRow]:
    """Compute all rows of an experiment table.

    Per row: the iteration count is the number of :func:`minres_solve` steps
    on the model right-hand side (the target interpolant times the mass
    matrix, see :mod:`saddlebounds.fem.problems`) until the recurrence
    residual in the ``Pc^{-1}`` norm has dropped by the factor
    ``config.eps``.  The paper's printed counts come from its own right-hand
    side and stopping rule and differ from these; the README section
    "Iteration counts against the paper" compares them.  The measured
    interval comes from a separate spectral-estimation run with a generic
    probe vector (the model right-hand side can have exactly zero weight on
    symmetry classes that contain the extreme eigenvalues, which would hide
    them from the solve's own Lanczos data).  The theory columns are the
    positive interval of the family's set in :data:`THEORY`, and
    ``iteration_bound`` is the MINRES bound of the whole set.

    The solve and the estimate of a row overlap on two threads
    (:func:`_solve_and_estimate`).  Raises :class:`ConvergenceError`,
    naming the row, if a solve stops (at ``config.maxit`` or on breakdown)
    without converging.
    """
    build = _BUILDERS[config.flavor]
    theory = THEORY[config.flavor]
    k_bound = bnd.minres_iteration_bound(theory, config.eps)

    rows = []
    for name, value, level, nu, omega in _sweep(config):
        problem = build(build_mesh(level), nu, omega)
        report, estimate = _solve_and_estimate(
            config,
            _row_label(config.flavor, level, nu, omega),
            problem.operator(),
            problem.preconditioner(),
            problem.rhs,
        )
        rows.append(
            TableRow(
                parameter_name=name,
                parameter_value=value,
                computed_lo=estimate.pos_lo,
                computed_hi=estimate.pos_hi,
                theory_lo=theory.mu3,
                theory_hi=theory.mu4,
                iterations=report.iterations,
                iteration_bound=k_bound,
                estimate_steps=estimate.steps,
                estimate_certified=estimate.certified,
                true_residual=report.true_residual,
                minres_operator_applications=report.operator_applications,
                minres_preconditioner_applications=report.preconditioner_applications,
                estimate_operator_applications=estimate.operator_applications,
                estimate_preconditioner_applications=estimate.preconditioner_applications,
            )
        )
    return rows


def format_table(rows: list[TableRow], fmt: str) -> str:
    if fmt == "json":
        return json.dumps([asdict(row) for row in rows], indent=2) + "\n"
    header = [
        rows[0].parameter_name if rows else "param",
        "computed_lo",
        "computed_hi",
        "theory_lo",
        "theory_hi",
        "iterations",
        "iteration_bound",
    ]
    body = [
        [
            f"{row.parameter_value:g}",
            printed_endpoint(row.computed_lo),
            printed_endpoint(row.computed_hi),
            printed_endpoint(row.theory_lo),
            printed_endpoint(row.theory_hi),
            str(row.iterations),
            str(row.iteration_bound),
        ]
        for row in rows
    ]
    if fmt == "csv":
        lines = [",".join(header)] + [",".join(line) for line in body]
        return "\n".join(lines) + "\n"
    if fmt == "markdown":
        lines = [
            "| " + " | ".join(header) + " |",
            "|" + "|".join("---" for _ in header) + "|",
        ]
        lines += ["| " + " | ".join(line) + " |" for line in body]
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown format {fmt!r}")


def _emit(text: str, out: str | None) -> int:
    """Write ``text`` to the file ``out``, or to stdout; the exit code."""
    if not out:
        sys.stdout.write(text)
        return 0
    try:
        Path(out).write_text(text)
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 2
    return 0


def _babuska_beside_brezzi(
    red: SaddleSystem,
) -> tuple[BabuskaConstants, BrezziConstants | None]:
    """Babuska's constants of the reduced system ``red``, and Brezzi's where
    C vanishes and ker(B) is not trivial; ``red`` is consumed.

    The calling thread writes the buffer of Babuska's eigensolve, which one
    helper thread then runs while the calling thread computes Brezzi's
    constants in ``red``'s own buffers (``overwrite=True``); BLAS is held
    at one thread meanwhile.  The helper is joined before this returns or
    raises, and the errors are those of the serial order: Babuska's, then
    Brezzi's.
    """
    buffer = red.assemble(mirror=False)
    with one_blas_thread, concurrent.futures.ThreadPoolExecutor(1) as pool:
        spectrum = pool.submit(hermitian_eigenvalues, buffer, overwrite=True)
        # The helper's reference is the buffer's last: it is freed when the
        # eigensolve ends.
        del buffer
        refused = bc = None
        try:
            if red.c is None and red.n > red.m:
                bc = brezzi_constants(red, overwrite=True)
        except ValueError as exc:
            refused = exc
    bab = babuska_constants(spectrum.result())
    if refused is not None:
        raise refused
    return bab, bc


def cmd_bounds(args) -> int:
    try:
        bundle = mmio.load_bundle(args.bundle)
        red = reduce_system(*bundle)
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: cannot load bundle: {exc}", file=sys.stderr)
        return 2
    # The reduced system is all the analyses read; the loaded blocks need
    # not stay alive through the eigensolves.
    del bundle
    try:
        bab, bc = _babuska_beside_brezzi(red)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    lines = [f"gamma = {bab.gamma:.12g}", f"B_norm = {bab.b_norm:.12g}"]
    if bc is not None:
        for key, value in bc.as_dict().items():
            lines.append(f"{key} = {value:.12g}")
        gamma_opt = bnd.gamma_opt_general(bc.alpha, bc.beta, bc.a_norm)
        lines.append(f"gamma_classical = {bnd.gamma_classical(bc.alpha, bc.beta, bc.a_norm):.12g}")
        lines.append(f"gamma_simple = {bnd.gamma_simple(bc.alpha, bc.beta, bc.a_norm):.12g}")
        lines.append(f"gamma_opt = {gamma_opt:.12g}")
        lines.append(f"B_norm_upper = {bnd.b_norm_upper(bc.a_norm, bc.b_norm):.12g}")
        if bc.kernel_coercive:
            inc = bnd.inclusion_set(bc)
            lines.append(
                f"inclusion = [{inc.mu1:.12g}, {inc.mu2:.12g}] u [{inc.mu3:.12g}, {inc.mu4:.12g}]"
            )
            if bc.lambda_min_a <= 0.0:
                mu3 = bnd.mu3_simple(bc.alpha, bc.beta, bc.lambda_min_a, bc.lambda_max_a)
                lines.append(f"mu3_simple = {mu3:.12g}")
        else:
            lines.append(
                "inclusion = omitted: the (1,1) block is not positive definite on ker(B)"
            )
        sharp = abs(bab.gamma - gamma_opt) <= 1e-8 * gamma_opt
        lines.append(f"sharpness = {'sharp' if sharp else 'strict'}")
    return _emit("\n".join(lines) + "\n", args.out)


def _list_of(cast):
    """The argparse ``type`` of a comma-separated list of ``cast`` values."""

    def parse(text: str) -> list:
        return [cast(tok) for tok in text.split(",") if tok.strip()]

    parse.__name__ = f"{cast.__name__} list"  # named in argparse's error message
    return parse


def _read_config(path: str) -> dict:
    values = json.loads(Path(path).read_text())
    if not isinstance(values, dict):
        raise ValueError(f"{path} must hold a JSON object, not a {type(values).__name__}")
    return values


def cmd_table(args) -> int:
    try:
        values = _read_config(args.config) if args.config else {}
        # Each table flag but --config sets the field of its name.
        names = {f.name for f in fields(ExperimentConfig)}
        values.update(
            (name, value) for name, value in vars(args).items()
            if name in names and value is not None
        )
        config = ExperimentConfig(**values)
    except (OSError, TypeError, ValueError) as exc:
        print(f"error: bad configuration: {exc}", file=sys.stderr)
        return 2
    try:
        rows = run_table(config)
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for row, (_, _, level, nu, omega) in zip(rows, _sweep(config)):
        if not row.estimate_certified:
            print(
                f"warning: {_row_label(config.flavor, level, nu, omega)}: interval "
                f"not certified after {row.estimate_steps} Lanczos steps",
                file=sys.stderr,
            )
    return _emit(format_table(rows, config.format), config.out)


def cmd_verify(args) -> int:
    names = sorted(verify.SUITES) if args.suite == "all" else [args.suite]
    if args.suite not in verify.SUITES and args.suite != "all":
        known = ", ".join(sorted(verify.SUITES))
        print(f"error: unknown suite {args.suite!r}; available: {known}", file=sys.stderr)
        return 2
    results = [verify.SUITES[name]() for name in names]
    text = json.dumps(results, indent=2, default=float) + "\n"
    return _emit(text, args.out) or (0 if all(r["passed"] for r in results) else 1)


def cmd_export(args) -> int:
    try:
        mesh = build_mesh(args.level)
        problem = _BUILDERS[args.flavor](mesh, args.nu, args.omega)
        # ``bounds`` would refuse the bundle; refused before any directory is made.
        saddle.check_dense(problem.dim)
        p, r = problem.inner_product_blocks()
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        mmio.save_bundle(out, problem.a, problem.b, problem.c, p, r)
        np.save(out / "rhs.npy", problem.rhs)
        (out / "mesh.txt").write_text(mesh.to_text())
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"wrote bundle to {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="saddlebounds",
        description="stability constants, spectral bounds and MINRES "
        "experiments for saddle-point systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_bounds = sub.add_parser("bounds", help="constants and bounds of a bundle")
    p_bounds.add_argument("bundle", help="bundle directory (manifest.json inside)")
    p_bounds.add_argument("--out", help="write output to this file")
    p_bounds.set_defaults(func=cmd_bounds)

    p_table = sub.add_parser("table", help="run an experiment table")
    p_table.add_argument("--config", help="JSON config file")
    p_table.add_argument("--flavor", choices=FLAVORS)
    p_table.add_argument("--levels", type=_list_of(int), help="comma-separated refinement levels")
    p_table.add_argument("--nu", type=_list_of(float), help="comma-separated cost parameters")
    p_table.add_argument("--omega", type=_list_of(float), help="comma-separated frequencies")
    p_table.add_argument("--eps", type=float)
    p_table.add_argument("--maxit", type=int)
    p_table.add_argument("--format", choices=FORMATS)
    p_table.add_argument("--out")
    p_table.set_defaults(func=cmd_table)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument(
        "suite", help="suite name (%s) or 'all'" % ", ".join(sorted(verify.SUITES))
    )
    p_verify.add_argument("--out")
    p_verify.set_defaults(func=cmd_verify)

    p_export = sub.add_parser("export", help="export a model problem bundle")
    p_export.add_argument("--flavor", required=True, choices=FLAVORS)
    p_export.add_argument("--level", type=int, default=2)
    p_export.add_argument("--nu", type=float, default=1.0)
    p_export.add_argument("--omega", type=float, default=1.0)
    p_export.add_argument("--out", required=True)
    p_export.set_defaults(func=cmd_export)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
