"""Acceptance suite: every release criterion with its pinned tolerance.

Each test prints one ``ACCEPTANCE n: PASS/FAIL`` line (run pytest with -rA
or -s to see the lines for passing tests as well).
"""

import math
import time

import numpy as np

from saddlebounds import bounds as bnd
from saddlebounds import cli, verify
from saddlebounds.cli import ExperimentConfig, run_table
from saddlebounds.fem import (
    assemble_taylor_hood,
    build_mesh,
    parabolic_kkt,
    parabolic_reduced,
    stokes_system,
)
from saddlebounds.krylov import minres_solve, stagnation_profile
from saddlebounds.saddle import (
    BrezziConstants,
    brezzi_constants,
    preconditioned_spectrum,
)
from saddlebounds.spectrum import pairing_check
from dense_pair import reduce_problem
from reference_gmres import gmres_pc_norm

SQRT2 = math.sqrt(2.0)
SQRT3 = math.sqrt(3.0)


def report(num: int, ok: bool, detail: str = ""):
    print(f"ACCEPTANCE {num:>2}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_sharpness_general():
    start = time.perf_counter()
    worst = verify.suite_sharpness(seed=101)["max_rel_defect_general"]
    elapsed = time.perf_counter() - start
    report(
        1,
        worst <= 1e-10 and elapsed < 1.0,
        f"max rel defect {worst:.2e} (tol 1e-10), {elapsed:.2f}s",
    )


def test_criterion_02_sharpness_eigenvalue_range():
    start = time.perf_counter()
    worst = verify.suite_sharpness(seed=101)["max_rel_defect_range"]
    elapsed = time.perf_counter() - start
    report(
        2,
        worst <= 1e-10 and elapsed < 1.0,
        f"max rel defect {worst:.2e} (tol 1e-10), {elapsed:.2f}s",
    )


def test_criterion_03_bound_ordering():
    start = time.perf_counter()
    rng = np.random.default_rng(103)
    min_margin = math.inf
    ok = True
    for _ in range(1000):
        a_norm = float(rng.uniform(0.2, 4.0))
        alpha = float(rng.uniform(0.02, 1.0)) * a_norm
        beta = float(rng.uniform(0.1, 3.0))
        opt = bnd.gamma_opt_general(alpha, beta, a_norm)
        simple = bnd.gamma_simple(alpha, beta, a_norm)
        classical = bnd.gamma_classical(alpha, beta, a_norm)
        min_margin = min(min_margin, simple - classical, opt - simple)
        ok = ok and classical < simple < opt <= alpha * (1.0 + 1e-12)
    elapsed = time.perf_counter() - start
    report(
        3,
        ok and min_margin > 1e-12 and elapsed < 1.0,
        f"1000 points, min margin {min_margin:.2e}, {elapsed:.2f}s",
    )


PARABOLIC_THEOREM_CONSTANTS = BrezziConstants(
    alpha=2.0 - SQRT2,
    beta=SQRT2 / 2.0,
    a_norm=1.0,
    b_norm=1.0,
    lambda_min_a=0.0,
    lambda_max_a=1.0,
)

PARABOLIC_GRID = [(nu, om) for nu in (1e-4, 1.0) for om in (0.0, 1.0, 100.0)]


def test_criterion_04_parabolic_inclusion_interval():
    start = time.perf_counter()
    inc = bnd.inclusion_set(PARABOLIC_THEOREM_CONSTANTS)
    rounded = tuple(round(v, 3) for v in (inc.mu1, inc.mu2, inc.mu3, inc.mu4))
    interval_ok = rounded == (-1.0, -0.366, 0.396, 1.618)
    failures = [] if interval_ok else [f"interval rounds to {rounded}"]
    mesh = build_mesh(2)
    for nu, om in PARABOLIC_GRID:
        problem = parabolic_kkt(mesh, nu, om)
        mu = preconditioned_spectrum(
            reduce_problem(problem)
        )
        if not inc.contains(mu, slack=1e-6):
            failures.append(f"spectrum escapes at nu={nu:g}, omega={om:g}")
    elapsed = time.perf_counter() - start
    report(
        4,
        not failures and elapsed < 60.0,
        f"interval [-1, -0.366] u [0.396, 1.618]; 6 grid spectra inside; "
        f"{elapsed:.1f}s" + ("; " + "; ".join(failures) if failures else ""),
    )


def test_criterion_05_parabolic_theorem_constants():
    mesh = build_mesh(2)
    failures = []
    for nu, om in PARABOLIC_GRID:
        problem = parabolic_kkt(mesh, nu, om)
        bc = brezzi_constants(
            reduce_problem(problem)
        )
        checks = {
            "alpha": bc.alpha >= 2.0 - SQRT2 - 1e-10,
            "lambda_min": bc.lambda_min_a >= -1e-12,
            "lambda_max": bc.lambda_max_a <= 1.0 + 1e-10,
            "beta": bc.beta >= SQRT2 / 2.0 - 1e-10,
            "b_norm": bc.b_norm <= 1.0 + 1e-10,
        }
        for name, good in checks.items():
            if not good:
                failures.append(f"{name} violated at nu={nu:g}, omega={om:g}")
    report(5, not failures, "; ".join(failures) or "all grid points satisfy the bounds")


def test_criterion_06_symmetric_spectra():
    failures = []
    worst_defect = 0.0
    for level in (0, 1, 2):
        mesh = build_mesh(level)
        for nu, om in [(1.0, 1.0), (1e-4, 100.0)]:
            reduced = parabolic_reduced(mesh, nu, om)
            mu = preconditioned_spectrum(
                reduce_problem(reduced)
            )
            pr = pairing_check(mu)
            worst_defect = max(worst_defect, pr.defect)
            if not pr.passed:
                failures.append(f"reduced pairing at l={level}, nu={nu:g}, om={om:g}")
            moduli = np.abs(mu)
            if moduli.min() < 1.0 / SQRT3 - 1e-6 or moduli.max() > 1.0 + 1e-6:
                failures.append(f"reduced spectrum escapes at l={level}, nu={nu:g}")
            stokes = stokes_system(mesh, nu, om)
            mu2 = preconditioned_spectrum(
                reduce_problem(stokes)
            )
            pr2 = pairing_check(mu2)
            worst_defect = max(worst_defect, pr2.defect)
            if not pr2.passed:
                failures.append(f"stokes pairing at l={level}, nu={nu:g}, om={om:g}")
    report(
        6,
        not failures,
        "; ".join(failures) or f"max pairing defect {worst_defect:.2e} (tol 1e-8)",
    )


TABLE1_PRINTED = {
    0: (0.627, 1.595, 6),
    1: (0.620, 1.612, 26),
    2: (0.619, 1.616, 28),
    3: (0.618, 1.618, 28),
    4: (0.618, 1.618, 28),
}


# Iteration counts of the documented experiment: the model right-hand side
# and a reduction of the recurrence residual in the Pc^{-1} norm by eps, as
# run_table measures them, verified with the reference solver in
# reference_gmres.py.  The printed counts above stem from the paper's own
# right-hand side and stopping rule, which the repository does not hold;
# README "Iteration counts against the paper" records the gap.
TABLE1_VERIFIED = {0: 10, 1: 22, 2: 24, 3: 26, 4: 26}


def record_stokes_builds(monkeypatch) -> list:
    """Route ``run_table``'s Stokes builds through a recorder; the returned
    list receives ``((level, nu, omega), problem)`` for each build, in row
    order."""
    built = []

    def build(mesh, nu, omega):
        built.append(((mesh.level, nu, omega), stokes_system(mesh, nu, omega)))
        return built[-1][1]

    monkeypatch.setitem(cli._BUILDERS, "stokes", build)
    return built


def reference_iterations(problem, eps: float):
    """Step count of the reference GMRES on a problem ``run_table`` solved."""
    k, _, _ = gmres_pc_norm(
        problem.operator(), problem.preconditioner(), problem.rhs, eps=eps
    )
    return k


def check_iterations(label, measured, reference, verified, printed, counts, failures):
    counts.append(f"{label} {measured}/{reference}/{printed}")
    if not measured == reference == verified:
        failures.append(
            f"{label}: iterations {measured}, reference {reference}, "
            f"verified {verified}"
        )


def test_criterion_07_table1_reproduction(monkeypatch):
    start = time.perf_counter()
    config = ExperimentConfig(
        flavor="stokes", levels=[0, 1, 2, 3, 4], nu=[1.0], omega=[1.0], eps=1e-8
    )
    built = record_stokes_builds(monkeypatch)
    rows = run_table(config)
    assert [level for (level, _, _), _ in built] == config.levels
    failures = []
    counts = []
    for row, level, (_, problem) in zip(rows, config.levels, built):
        lo, hi, khat = TABLE1_PRINTED[level]
        if abs(row.computed_lo - lo) > 0.005 or abs(row.computed_hi - hi) > 0.005:
            failures.append(
                f"l={level}: interval [{row.computed_lo:.4f}, {row.computed_hi:.4f}] "
                f"vs printed [{lo}, {hi}]"
            )
        reference = reference_iterations(problem, config.eps)
        check_iterations(
            f"l={level}", row.iterations, reference, TABLE1_VERIFIED[level], khat,
            counts, failures,
        )
        if row.iteration_bound != 102:
            failures.append(f"l={level}: theoretical bound {row.iteration_bound} != 102")
    elapsed = time.perf_counter() - start
    report(
        7,
        not failures and elapsed < 300.0,
        ("; ".join(failures) or "all rows match")
        + "; iterations measured/reference/printed: " + ", ".join(counts)
        + f"; {elapsed:.0f}s",
    )


TABLE23_PRINTED = {
    ("omega", 0.0): (0.618, 1.618, 18),
    ("omega", 1e2): (0.611, 1.613, 42),
    ("omega", 1e8): (0.618, 1.618, 16),
    ("nu", 1e-8): (0.566, 1.614, 43),
    ("nu", 1e-2): (0.619, 1.618, 38),
    ("nu", 1e8): (0.618, 1.618, 28),
}

# Verified counts of the documented experiment, as for TABLE1_VERIFIED.
TABLE23_VERIFIED = {
    ("omega", 0.0): 24,
    ("omega", 1e2): 40,
    ("omega", 1e8): 8,
    ("nu", 1e-8): 32,
    ("nu", 1e-2): 34,
    ("nu", 1e8): 24,
}


def test_criterion_08_table23_spot_rows(monkeypatch):
    start = time.perf_counter()
    failures = []
    counts = []
    config_omega = ExperimentConfig(
        flavor="stokes", levels=[4], nu=[1.0], omega=[0.0, 1e2, 1e8], eps=1e-8
    )
    config_nu = ExperimentConfig(
        flavor="stokes", levels=[4], nu=[1e-8, 1e-2, 1e8], omega=[1.0], eps=1e-8
    )
    for config, kind in ((config_omega, "omega"), (config_nu, "nu")):
        built = record_stokes_builds(monkeypatch)
        rows = run_table(config)
        for row, (called, problem) in zip(rows, built, strict=True):
            key = (kind, row.parameter_value)
            lo, hi, khat = TABLE23_PRINTED[key]
            if abs(row.computed_lo - lo) > 0.005 or abs(row.computed_hi - hi) > 0.005:
                failures.append(
                    f"{kind}={row.parameter_value:g}: interval "
                    f"[{row.computed_lo:.4f}, {row.computed_hi:.4f}] vs [{lo}, {hi}]"
                )
            nu = row.parameter_value if kind == "nu" else config.nu[0]
            omega = row.parameter_value if kind == "omega" else config.omega[0]
            assert called == (4, nu, omega)
            reference = reference_iterations(problem, config.eps)
            check_iterations(
                f"{kind}={row.parameter_value:g}", row.iterations, reference,
                TABLE23_VERIFIED[key], khat, counts, failures,
            )
    elapsed = time.perf_counter() - start
    report(
        8,
        not failures,
        ("; ".join(failures) or "all spot rows match")
        + "; iterations measured/reference/printed: " + ", ".join(counts)
        + f"; {elapsed:.0f}s",
    )


def test_criterion_09_unknown_count():
    fem = assemble_taylor_hood(build_mesh(4))
    complex_unknowns = 2 * (2 * fem.velocity_component_dim) + 2 * fem.pressure_dim
    report(
        9,
        complex_unknowns == 9028 and 2 * complex_unknowns == 18056,
        f"{complex_unknowns} complex = {2 * complex_unknowns} real unknowns",
    )


def test_criterion_10_iteration_bound_consistency():
    failures = []
    cases = [
        (flavor, level, build(build_mesh(level), 1.0, 1.0))
        for level in (0, 1, 2)
        for flavor, build in cli._BUILDERS.items()
    ]
    for flavor, level, problem in cases:
        mu = preconditioned_spectrum(
            reduce_problem(problem)
        )
        neg, pos = mu[mu < 0.0], mu[mu > 0.0]
        spectrum = bnd.SpectralInclusion(neg.min(), neg.max(), pos.min(), pos.max())
        bound = bnd.minres_iteration_bound(spectrum, 1e-8)
        run = minres_solve(
            problem.operator(), problem.preconditioner(), problem.rhs, eps=1e-8
        )
        if run.iterations > bound:
            failures.append(
                f"{flavor} l={level}: {run.iterations} > bound {bound}"
            )
    report(10, not failures, "; ".join(failures) or f"{len(cases)} systems within bound")


def test_criterion_11_appendix_domination():
    worst = verify.suite_appendix(seed=111)["max_violation"]
    report(
        11,
        worst <= 1e-12,
        f"max violation {worst:.2e} over 20 tuples x 10^4 samples (tol 1e-12)",
    )


def test_criterion_12_stagnation():
    # The criterion fixes level and threshold but not (nu, omega); this runs
    # the staircase check at nu=1, omega=100 (a point of the standard test
    # grid where the mirror symmetry dominates the rhs weights).
    problem = parabolic_reduced(build_mesh(2), nu=1.0, omega=100.0)
    run = minres_solve(problem.operator(), problem.preconditioner(), problem.rhs, eps=1e-8)
    factors, _ = stagnation_profile(run)
    odd = factors[0 : len(factors) - 1 : 2]
    ok = odd.size > 0 and bool(np.all(odd >= 0.999))
    context = parabolic_reduced(build_mesh(2), nu=1.0, omega=1.0)
    run2 = minres_solve(context.operator(), context.preconditioner(), context.rhs, eps=1e-8)
    factors2, _ = stagnation_profile(run2)
    odd2 = factors2[0 : len(factors2) - 1 : 2]
    report(
        12,
        ok,
        f"odd-step factors min {odd.min():.6f} at omega=100 "
        f"(for reference, omega=1 gives min {odd2.min():.6f})",
    )
