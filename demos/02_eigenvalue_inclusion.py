"""Two-interval eigenvalue inclusion from exact discrete constants.

For a Hermitian saddle-point system preconditioned by a block-diagonal SPD
matrix, all eigenvalues lie in [mu1, mu2] u [mu3, mu4] where the endpoints
are closed-form expressions in the system's constants.  This script draws a
random system, extracts its constants exactly, and compares the predicted
intervals with the true spectrum.
"""

import numpy as np

from saddlebounds import (
    brezzi_constants,
    inclusion_set,
    preconditioned_spectrum,
    reduce_system,
)
from saddlebounds.verify import random_coercive_system

rng = np.random.default_rng(42)
n, m = 8, 3

# random Hermitian (1,1) block, shifted to be coercive on the coupling kernel
red = reduce_system(*random_coercive_system(rng, n, m))

constants = brezzi_constants(red)
print("extracted constants:")
for name, value in constants.as_dict().items():
    print(f"  {name:13s} = {value: .6f}")

inc = inclusion_set(constants)
print(f"\npredicted inclusion: [{inc.mu1:.4f}, {inc.mu2:.4f}] u [{inc.mu3:.4f}, {inc.mu4:.4f}]")

mu = preconditioned_spectrum(red)
print("true spectrum:")
print(np.round(mu, 4))
print(f"\nall eigenvalues inside: {inc.contains(mu, slack=1e-10)}")
