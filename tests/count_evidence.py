"""Evidence on the gap between the measured and the printed MINRES counts.

Re-measures the numbers quoted in the README section "Iteration counts
against the paper":

* every Table 1-3 row of acceptance criteria 7 and 8: the MINRES count, the
  reference GMRES count, the printed count, and the count when stopping on
  ``|Pc^{-1} r_k|_2 <= 1e-8 |Pc^{-1} b|_2`` instead;
* level 0: the weight of the model right-hand side on the extreme
  eigenvalues, the relative residual by step, and the count under other
  stopping norms;
* level 4: the residual histories at (nu, omega) = (1, 0) and (1e8, 1).

Run from the repository root with ``PYTHONPATH=src python tests/count_evidence.py``.
"""

import numpy as np
import scipy.linalg

from dense_pair import inner_product_matrix
from reference_gmres import gmres_pc_norm
from saddlebounds.fem import build_mesh, stokes_system
from saddlebounds.krylov import minres_solve
from test_acceptance import TABLE1_PRINTED, TABLE23_PRINTED

EPS = 1e-8


def table_rows():
    for level, (_, _, printed) in TABLE1_PRINTED.items():
        yield f"Table 1, l={level}", level, 1.0, 1.0, printed
    for (kind, value), (_, _, printed) in TABLE23_PRINTED.items():
        nu, omega = (value, 1.0) if kind == "nu" else (1.0, value)
        yield f"l=4, {kind}={value:g}", 4, nu, omega, printed


def stop_on_l2_of_preconditioned_residual(problem):
    op, prec = problem.operator(), problem.preconditioner()
    target = EPS * np.linalg.norm(prec(problem.rhs))
    return lambda x: np.linalg.norm(prec(problem.rhs - op(x))) <= target


def count_table():
    print("| row | MINRES | reference | printed | stop on |Pc^-1 r|_2 |")
    print("|---|---|---|---|---|")
    for label, level, nu, omega, printed in table_rows():
        problem = stokes_system(build_mesh(level), nu, omega)
        op, prec = problem.operator(), problem.preconditioner()
        measured = minres_solve(op, prec, problem.rhs, eps=EPS).iterations
        reference, _, _ = gmres_pc_norm(op, prec, problem.rhs, eps=EPS)
        l2_count, _, _ = gmres_pc_norm(
            op, prec, problem.rhs, maxit=80,
            stop=stop_on_l2_of_preconditioned_residual(problem),
        )
        print(f"| {label} | {measured} | {reference} | {printed} | {l2_count} |")


def level_zero():
    problem = stokes_system(build_mesh(0), 1.0, 1.0)
    lam, vecs = scipy.linalg.eigh(
        problem.matrix().toarray(), inner_product_matrix(*problem.inner_product_blocks())
    )
    weights = np.abs(vecs.conj().T @ problem.rhs) ** 2  # Pc-orthonormal vecs
    weights /= weights.sum()
    moduli = np.abs(lam)
    extreme = np.isclose(moduli, moduli.min()) | np.isclose(moduli, moduli.max())
    print(
        f"level 0: eigenvalue moduli in [{moduli.min():.3f}, {moduli.max():.3f}], "
        f"relative weight of the rhs on the {extreme.sum()} extreme eigenvalues "
        f"{weights[extreme].sum():.1e}"
    )
    op, prec = problem.operator(), problem.preconditioner()
    history = minres_solve(op, prec, problem.rhs, eps=1e-300, maxit=12).residual_history
    print("level 0: relative residual by step:", " ".join(
        f"{v:.1e}" for v in history / history[0]
    ))

    # Preconditioned residuals of every iterate, for the other stopping norms.
    residuals, pre_residuals = [problem.rhs], [prec(problem.rhs)]

    def record(x):
        residuals.append(problem.rhs - op(x))
        pre_residuals.append(prec(residuals[-1]))
        return False

    gmres_pc_norm(op, prec, problem.rhs, maxit=14, stop=record)

    def first_below(values):
        return next(k for k, v in enumerate(values) if v <= EPS * values[0])

    counts = {
        "Pc^-1 norm": first_below([np.sqrt(np.vdot(r, z).real)
                                   for r, z in zip(residuals, pre_residuals)]),
        "|r|_2": first_below([np.linalg.norm(r) for r in residuals]),
        "|Pc^-1 r|_2": first_below([np.linalg.norm(z) for z in pre_residuals]),
    }
    half_n, half_m = problem.n // 2, problem.m // 2
    bounds = np.cumsum([0, half_n, half_n, half_m, half_m])
    block_norms = np.array([
        [np.linalg.norm(z[lo:hi]) ** 2 for lo, hi in zip(bounds[:-1], bounds[1:])]
        for z in pre_residuals
    ])
    grid = 10.0 ** np.arange(-8, 9, 2)
    weighted = {
        first_below(np.sqrt(block_norms @ np.array([1.0, a, b, c])))
        for a in grid for b in grid for c in grid
    }
    print(f"level 0: counts by stopping norm {counts}; block-weighted "
          f"|Pc^-1 r|_2 over {grid.size ** 3} weightings in [1e-8, 1e8]: {sorted(weighted)}")


def mirror_rows():
    histories = []
    for nu, omega in ((1.0, 0.0), (1e8, 1.0)):
        problem = stokes_system(build_mesh(4), nu, omega)
        report = minres_solve(
            problem.operator(), problem.preconditioner(), problem.rhs,
            eps=1e-300, maxit=40,
        )
        histories.append(report.residual_history / report.residual_history[0])
    diff = np.max(np.abs(histories[0] / histories[1] - 1.0))
    print(f"level 4: residual histories at (nu, omega) = (1, 0) and (1e8, 1) "
          f"differ by at most {diff:.2%} over 40 steps")


if __name__ == "__main__":
    count_table()
    level_zero()
    mirror_rows()
