"""Stability constants and spectral bounds for Hermitian saddle-point systems.

The package computes exact discrete inf-sup/stability constants of complex
Hermitian block systems ``[[A, B*], [B, -C]]`` in a block-diagonal geometry,
evaluates the sharp closed-form eigenvalue inclusion bounds built from those
constants (with explicit witness systems attaining them), and reproduces the
preconditioned-MINRES experiments for two time-periodic optimal-control
model problems on the unit square.
"""

from .densecore import (
    EigenDecomposition,
    cholesky,
    generalized_hermitian_eig,
)
from .saddle import (
    BabuskaConstants,
    BlockDecomposition,
    BrezziConstants,
    InnerProduct,
    ReducedSystem,
    SaddleSystem,
    babuska_constants,
    block_decompose,
    brezzi_constants,
    preconditioned_spectrum,
    reduce_system,
)
from .bounds import (
    CubicCoefficients,
    SpectralInclusion,
    b_norm_upper,
    gamma_classical,
    gamma_opt_general,
    gamma_simple,
    hermitian_outer_bounds,
    inclusion_set,
    minres_iteration_bound,
    mu3_cubic,
    mu3_simple,
    phi_max_appendix,
    smallest_positive_root,
    witness_general,
    witness_hermitian,
)
from .spectrum import (
    PairingReport,
    SymmetricSpectrumSystem,
    detect_structure,
    linearize_quadratic,
    pairing_check,
    skew_pairing_check,
)
from .krylov import (
    LinearOperator,
    MinresReport,
    RitzEstimate,
    minres_solve,
    stagnation_profile,
)
from . import fem  # noqa: F401
from . import mmio  # noqa: F401

__version__ = "0.1.0"

__all__ = [
    "EigenDecomposition",
    "cholesky",
    "generalized_hermitian_eig",
    "BabuskaConstants",
    "BlockDecomposition",
    "BrezziConstants",
    "InnerProduct",
    "ReducedSystem",
    "SaddleSystem",
    "babuska_constants",
    "block_decompose",
    "brezzi_constants",
    "preconditioned_spectrum",
    "reduce_system",
    "CubicCoefficients",
    "SpectralInclusion",
    "b_norm_upper",
    "gamma_classical",
    "gamma_opt_general",
    "gamma_simple",
    "hermitian_outer_bounds",
    "inclusion_set",
    "minres_iteration_bound",
    "mu3_cubic",
    "mu3_simple",
    "phi_max_appendix",
    "smallest_positive_root",
    "witness_general",
    "witness_hermitian",
    "PairingReport",
    "SymmetricSpectrumSystem",
    "detect_structure",
    "linearize_quadratic",
    "pairing_check",
    "skew_pairing_check",
    "LinearOperator",
    "MinresReport",
    "RitzEstimate",
    "minres_solve",
    "stagnation_profile",
]
