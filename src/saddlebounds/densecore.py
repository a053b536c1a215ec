"""Dense complex linear algebra kernels shared by the whole package.

Everything downstream (constant extraction, inclusion-bound verification,
FEM model problems) reduces to a handful of primitives collected here:
eigenvalues of Hermitian matrices and Hermitian pencils, Cholesky
factorization and weighted null-space bases.  The heavy lifting is
delegated to LAPACK via numpy/scipy; this module adds the input validation
and the accuracy contracts the rest of the package relies on.

Conventions
-----------
* All dense matrices are numpy arrays in C (row-major) order with
  ``complex128`` entries; real inputs are accepted and promoted.
* Eigenvalues are returned as real arrays in ascending order.
* ``M`` always denotes a Hermitian positive definite matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

__all__ = [
    "EigenDecomposition",
    "NotHermitianError",
    "NotPositiveDefiniteError",
    "as_complex_matrix",
    "require_hermitian",
    "hermitian_eig",
    "cholesky",
    "generalized_hermitian_eig",
    "nullspace_basis",
]

#: Relative threshold below which singular values count as zero when
#: determining kernel dimensions.  Matches the eigen-residual tolerances
#: used throughout the test suite.
RANK_RTOL = 1e-10

#: Relative max-norm tolerance for accepting a matrix as Hermitian.
HERMITIAN_RTOL = 1e-12


class NotHermitianError(ValueError):
    """Input matrix fails the Hermitian symmetry tolerance."""

    def __init__(self, defect: float, tol: float):
        self.defect = defect
        self.tol = tol
        super().__init__(
            f"matrix is not Hermitian: max |H - H*| = {defect:.3e} "
            f"exceeds tolerance {tol:.3e}"
        )


class NotPositiveDefiniteError(ValueError):
    """Cholesky factorization hit a nonpositive pivot."""

    def __init__(self, pivot: int):
        self.pivot = pivot
        super().__init__(
            f"matrix is not positive definite (nonpositive pivot at index {pivot})"
        )


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenvalues of a Hermitian (pencil) problem, real and ascending.

    Every constant of the theory is an extreme eigenvalue, so no
    eigenvectors are computed.
    """

    eigenvalues: np.ndarray

    @property
    def min(self) -> float:
        return float(self.eigenvalues[0])

    @property
    def max(self) -> float:
        return float(self.eigenvalues[-1])


def as_complex_matrix(a) -> np.ndarray:
    """Return ``a`` as a 2-d C-contiguous complex128 array."""
    m = np.ascontiguousarray(a, dtype=np.complex128)
    if m.ndim != 2:
        raise ValueError(f"expected a matrix, got array of ndim {m.ndim}")
    return m


def require_hermitian(h, tol: float = HERMITIAN_RTOL) -> np.ndarray:
    """Validate Hermitian symmetry and return the symmetrized matrix.

    The returned matrix is ``(h + h*)/2``, which removes round-off level
    asymmetry without hiding genuine violations: those raise
    :class:`NotHermitianError` with the measured defect.
    """
    h = as_complex_matrix(h)
    if h.shape[0] != h.shape[1]:
        raise ValueError(f"Hermitian matrix must be square, got {h.shape}")
    scale = float(np.max(np.abs(h))) if h.size else 0.0
    defect = float(np.max(np.abs(h - h.conj().T))) if h.size else 0.0
    if defect > tol * max(scale, 1e-300):
        raise NotHermitianError(defect, tol * scale)
    return 0.5 * (h + h.conj().T)


def hermitian_eig(h, tol: float = HERMITIAN_RTOL) -> EigenDecomposition:
    """Eigenvalues of a Hermitian matrix.

    Returns the ascending real eigenvalues; each one satisfies
    ``sigma_min(H - lam I) <= 1e-10 ||H||``.
    """
    h = require_hermitian(h, tol)
    return EigenDecomposition(eigenvalues=np.linalg.eigvalsh(h))


def cholesky(m, tol: float = HERMITIAN_RTOL) -> np.ndarray:
    """Lower-triangular ``L`` with ``L L* = M`` for Hermitian positive definite M.

    Raises :class:`NotPositiveDefiniteError` carrying the failing pivot index
    when M is not positive definite.
    """
    m = require_hermitian(m, tol)
    try:
        return scipy.linalg.cholesky(m, lower=True)
    except scipy.linalg.LinAlgError as exc:
        # LAPACK reports the 1-based order of the failing leading minor.
        msg = str(exc)
        pivot = -1
        for token in msg.replace("-", " ").split():
            if token.isdigit():
                pivot = int(token) - 1
                break
        raise NotPositiveDefiniteError(pivot) from exc


def generalized_hermitian_eig(a, m, tol: float = HERMITIAN_RTOL) -> EigenDecomposition:
    """Eigenvalues of ``A x = mu M x`` with A Hermitian, M Hermitian positive definite.

    Computed by Cholesky reduction ``M = L L*`` followed by the Hermitian
    eigenvalues of ``L^{-1} A L^{-*}``; the eigenvalues are real and
    ascending.
    """
    a = require_hermitian(a, tol)
    l = cholesky(m, tol)  # noqa: E741 - L as in M = L L*
    c = scipy.linalg.solve_triangular(l, a, lower=True)
    c = scipy.linalg.solve_triangular(l, c.conj().T, lower=True)
    return hermitian_eig(c, tol=1e-10)


def nullspace_basis(b, p=None, rtol: float = RANK_RTOL) -> np.ndarray:
    """Columns spanning ker(B), orthonormal in the P inner product.

    Singular values below ``rtol`` times the largest singular value count as
    zero.  With ``p=None`` the Euclidean inner product is used.  Returns an
    ``n x dim(ker B)`` matrix Z with ``B Z = 0`` and ``Z* P Z = I``; an empty
    kernel yields a matrix with zero columns.
    """
    b = as_complex_matrix(b)
    n = b.shape[1]
    u, s, vh = np.linalg.svd(b)
    cutoff = rtol * (s[0] if s.size else 0.0)
    rank = int(np.sum(s > cutoff))
    z = vh[rank:, :].conj().T  # Euclidean-orthonormal kernel basis
    if z.shape[1] == 0 or p is None:
        return z
    p = require_hermitian(p)
    gram = z.conj().T @ p @ z
    l = cholesky(gram)  # noqa: E741
    # Z L^{-*} re-orthonormalizes the basis in the P geometry.
    return scipy.linalg.solve_triangular(l, z.conj().T, lower=True).conj().T
