"""Sharp stability bounds for saddle-point systems, and why sharp matters.

A saddle-point system [[A, B*], [B, 0]] with coercivity constant alpha on
ker(B), coupling inf-sup constant beta and form norms (a_norm, b_norm) is
invertible with a stability constant gamma.  Three lower bounds for gamma
of increasing quality are compared here, and the best one is shown to be
attained exactly by an explicit 3x3 witness system.
"""

import numpy as np

from saddlebounds import (
    babuska_constants,
    b_norm_upper,
    gamma_classical,
    gamma_opt_general,
    gamma_simple,
    witness_general,
)

alpha, beta, a_norm = 0.5, 1.0, 1.0
print(f"constants: alpha={alpha}, beta={beta}, a_norm={a_norm}\n")

classical = gamma_classical(alpha, beta, a_norm)
simple = gamma_simple(alpha, beta, a_norm)
optimal = gamma_opt_general(alpha, beta, a_norm)
print(f"classical bound      gamma >= {classical:.6f}")
print(f"rank-one bound       gamma >= {simple:.6f}")
print(f"cubic (sharp) bound  gamma >= {optimal:.6f}")

# The witness system attains the cubic bound with equality.
sys = witness_general(alpha, beta, a_norm)
print("\nwitness system (identity inner product):")
print(np.round(sys.assemble().real, 6))

bab = babuska_constants(sys)
print(f"\nexact gamma of the witness : {bab.gamma:.12f}")
print(f"cubic bound                : {optimal:.12f}")
print(f"defect                     : {abs(bab.gamma - optimal):.2e}")

print(f"\nupper bound for the form norm: {b_norm_upper(a_norm, beta):.6f}")
print(f"exact norm of the witness    : {bab.b_norm:.6f}")
