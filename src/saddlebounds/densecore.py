"""Dense linear algebra kernels shared by the whole package.

Everything downstream (constant extraction, inclusion-bound verification,
FEM model problems) reduces to a handful of primitives collected here:
eigenvalues of Hermitian matrices and Hermitian pencils, Cholesky
factorization, and the triangular congruence ``L^{-1} X R^{-*}`` that
carries a block into the Euclidean geometry of a factored inner product.
The heavy lifting is delegated to LAPACK via numpy/scipy; this module adds
the input validation and the accuracy contracts the rest of the package
relies on.

Conventions
-----------
* All dense matrices are numpy arrays in C (row-major) order.  Each one
  keeps the field of its data: real input stays ``float64`` and complex
  input becomes ``complex128``, so real blocks get real LAPACK.  A result
  is complex only where a complex operand makes it so.
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
    "as_matrix",
    "require_hermitian",
    "cholesky",
    "real_columns",
    "apply_in_field",
    "triangular_congruence",
    "generalized_hermitian_eig",
]

#: Relative threshold below which singular values count as zero when
#: determining ranks.  Matches the eigen-residual tolerances used
#: throughout the test suite.
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


def as_matrix(a) -> np.ndarray:
    """Return ``a`` as a 2-d C-contiguous array, complex128 if ``a`` is
    complex and float64 otherwise."""
    a = np.asarray(a)
    dtype = np.complex128 if np.iscomplexobj(a) else np.float64
    m = np.ascontiguousarray(a, dtype=dtype)
    if m.ndim != 2:
        raise ValueError(f"expected a matrix, got array of ndim {m.ndim}")
    return m


def require_hermitian(h, tol: float = HERMITIAN_RTOL) -> np.ndarray:
    """Validate Hermitian symmetry and return the symmetrized matrix.

    The returned matrix is ``(h + h*)/2``, which removes round-off level
    asymmetry without hiding genuine violations: those raise
    :class:`NotHermitianError` with the measured defect.
    """
    h = as_matrix(h)
    if h.shape[0] != h.shape[1]:
        raise ValueError(f"Hermitian matrix must be square, got {h.shape}")
    scale = float(np.max(np.abs(h), initial=0.0))
    # h* = Re(h)^T - i Im(h)^T is never formed: each part of the defect
    # h - h*, and then of the sum h + h*, is written into one buffer.
    out = np.empty_like(h)
    parts = [(h.real, out.real, np.subtract, np.add)]
    if np.iscomplexobj(h):
        parts.append((h.imag, out.imag, np.add, np.subtract))
    for part, dest, minus, _ in parts:
        minus(part, part.T, out=dest)
    defect = float(np.max(np.abs(out), initial=0.0))
    if defect > tol * max(scale, 1e-300):
        raise NotHermitianError(defect, tol * scale)
    for part, dest, _, plus in parts:
        plus(part, part.T, out=dest)
    out *= 0.5
    return out


def cholesky(m) -> np.ndarray:
    """Lower-triangular ``L`` with ``L L* = M`` for Hermitian positive definite M.

    Reads the lower triangle only (validate with :func:`require_hermitian`);
    raises :class:`NotPositiveDefiniteError` with the failing pivot index.
    """
    try:
        return scipy.linalg.cholesky(as_matrix(m), lower=True)
    except scipy.linalg.LinAlgError as exc:
        # LAPACK reports the 1-based order of the failing leading minor.
        msg = str(exc)
        pivot = -1
        for token in msg.replace("-", " ").split():
            if token.isdigit():
                pivot = int(token) - 1
                break
        raise NotPositiveDefiniteError(pivot) from exc


def real_columns(op, x) -> np.ndarray:
    """``op(x)`` for a real linear map ``op`` on the columns of a matrix ``x``.

    A complex ``x`` is viewed as a real array with twice the columns (real
    and imaginary parts interleaved) and the result viewed back, so a real
    operand is never promoted to complex.  Real ``x`` is passed through.
    """
    if not np.iscomplexobj(x):
        return op(x)
    y = op(np.ascontiguousarray(x, dtype=np.complex128).view(np.float64))
    return np.ascontiguousarray(y).view(np.complex128)


def apply_in_field(matrix, op, x) -> np.ndarray:
    """``op(x)`` for a linear map ``op`` given by ``matrix``, in the field of
    ``matrix``: a complex ``matrix`` is applied to ``x`` directly, and a real
    one meets a complex ``x`` through :func:`real_columns`, so it is never
    promoted to complex."""
    return op(x) if np.iscomplexobj(matrix) else real_columns(op, x)


def _solve_lower(l, x) -> np.ndarray:  # noqa: E741
    return apply_in_field(l, lambda y: scipy.linalg.solve_triangular(l, y, lower=True), x)


def triangular_congruence(l, x, r=None) -> np.ndarray:  # noqa: E741
    """``L^{-1} X R^{-*}`` for lower-triangular ``L`` and ``R`` (default ``R = L``).

    A real factor meets a complex ``X`` in real arithmetic, on the real and
    imaginary parts as separate columns.
    """
    r = l if r is None else r
    y = _solve_lower(l, x)
    return _solve_lower(r, y.conj().T).conj().T


def generalized_hermitian_eig(a, m, tol: float = HERMITIAN_RTOL) -> EigenDecomposition:
    """Eigenvalues of ``A x = mu M x`` with A Hermitian, M Hermitian positive definite.

    Computed by Cholesky reduction ``M = L L*`` followed by the Hermitian
    eigenvalues of ``L^{-1} A L^{-*}``, which is checked Hermitian to 1e-10;
    the eigenvalues are real and ascending, and each one satisfies
    ``sigma_min(A - mu M) <= 1e-10 ||A||`` for ``M = I``.
    """
    a = require_hermitian(a, tol)
    l = cholesky(require_hermitian(m, tol))  # noqa: E741 - L as in M = L L*
    reduced = require_hermitian(triangular_congruence(l, a), tol=1e-10)
    return EigenDecomposition(eigenvalues=np.linalg.eigvalsh(reduced))
