"""Two-interval eigenvalue inclusion from exact discrete constants.

For a Hermitian saddle-point system preconditioned by a block-diagonal SPD
matrix, all eigenvalues lie in [mu1, mu2] u [mu3, mu4] where the endpoints
are closed-form expressions in the system's constants.  This script draws a
random system, extracts its constants exactly, and compares the predicted
intervals with the true spectrum.
"""

import numpy as np

from saddlebounds import (
    InnerProduct,
    SaddleSystem,
    block_decompose,
    brezzi_constants,
    inclusion_set,
    preconditioned_spectrum,
    reduce_system,
)

rng = np.random.default_rng(42)
n, m = 8, 3

# random Hermitian (1,1) block, made coercive on the coupling kernel
g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
a = 0.5 * (g + g.conj().T)
b = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
gp = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
p = gp @ gp.conj().T + n * np.eye(n)
gr = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
r = gr @ gr.conj().T + m * np.eye(m)

ip = InnerProduct(p=p, r=r)
dec = block_decompose(reduce_system(SaddleSystem(a=a, b=b), ip))
shift = max(0.0, 0.5 - np.linalg.eigvalsh(dec.a00)[0])
red = reduce_system(SaddleSystem(a=a + shift * p, b=b), ip)

constants = brezzi_constants(red)
print("extracted constants:")
for name, value in constants.as_dict().items():
    print(f"  {name:13s} = {value: .6f}")

inc = inclusion_set(constants)
print(f"\npredicted inclusion: [{inc.mu1:.4f}, {inc.mu2:.4f}] u [{inc.mu3:.4f}, {inc.mu4:.4f}]")

spec = preconditioned_spectrum(red)
print("true spectrum:")
print(np.round(spec.eigenvalues, 4))
print(f"\nall eigenvalues inside: {inc.contains(spec.eigenvalues, slack=1e-10)}")
