"""Mirror-symmetric spectra and the MINRES staircase.

The reduced optimality system of time-periodic parabolic control has the
block shape [[A, B*], [B, -A]] with A real SPD and B complex symmetric.
Its preconditioned spectrum is symmetric around zero, so MINRES makes
essentially no progress on odd steps: the residual history is a staircase.
"""

from saddlebounds import (
    SaddleSystem,
    detect_structure,
    minres_solve,
    pairing_check,
    preconditioned_spectrum,
    reduce_system,
    stagnation_profile,
)
from saddlebounds.fem import build_mesh, parabolic_reduced

nu, omega = 1.0, 100.0
problem = parabolic_reduced(build_mesh(2), nu=nu, omega=omega)
print(f"reduced parabolic system: dim={problem.dim}, nu={nu}, omega={omega}")

# The exact analyses take the model's sparse blocks as they are: A, B and C
# to SaddleSystem, P and R to reduce_system.
system = SaddleSystem(a=problem.a, b=problem.b, c=problem.c)
print(f"mirror block structure detected: {detect_structure(system)}")

red = reduce_system(system, *problem.inner_product_blocks())
report = pairing_check(preconditioned_spectrum(red), tol=1e-8)
print(f"pairing (mu, -mu) defect: {report.defect:.2e}  ({report.pairs} pairs)")

run = minres_solve(problem.operator(), problem.preconditioner(), problem.rhs, eps=1e-8)
factors, flag = stagnation_profile(run)
odd = factors[0 : len(factors) - 1 : 2]
print(f"\nMINRES converged in {run.iterations} iterations")
print(f"smallest odd-step reduction factor: {odd.min():.6f} (1.0 = exact stagnation)")
print(f"exact-stagnation flag (threshold 1 - 1e-6): {flag}")
print("step  residual      reduction")
for k, res in enumerate(run.residual_history):
    factor = "" if k == 0 else f"{factors[k - 1]:.6f}"
    print(f"{k:4d}  {res:.6e}  {factor}")
