"""Structural spectral properties of systems with mirror-symmetric spectrum.

For block matrices ``[[A, B*], [B, -A]]`` with A real symmetric positive
definite and B complex symmetric, the spectrum is real and symmetric around
zero: eigenvalues come in pairs ``(mu, -mu)``.  This module provides

* :func:`detect_structure` -- recognize that block shape inside a general
  saddle system (the (2,2) block of the assembled matrix must equal -A),
* :func:`pairing_check` -- verify the mirror pairing of a computed spectrum,
* :func:`linearize_quadratic` -- the companion-type linearization whose
  spectrum reproduces the system's spectrum, built from a principal square
  root of B; the linearization has the form ``[[0, I], [H, S]]`` with H
  complex symmetric and S complex skew-symmetric,
* :func:`skew_pairing_check` -- the underlying pairing statement for
  ``[[0, I], [H, S]]`` with arbitrary complex-symmetric nonsingular H.

The general (non-Hermitian) eigensolver used by the pairing checks is the
only non-Hermitian eigensolver in the package and is test-only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .densecore import as_matrix
from .saddle import SaddleSystem

__all__ = [
    "SymmetricSpectrumSystem",
    "PairingReport",
    "detect_structure",
    "pairing_check",
    "linearize_quadratic",
    "skew_pairing_check",
]

STRUCTURE_RTOL = 1e-12


@dataclass(frozen=True)
class SymmetricSpectrumSystem:
    """Validated view ``[[A, B*], [B, -A]]``: A real SPD, B complex symmetric."""

    a: np.ndarray
    b: np.ndarray

    @property
    def n(self) -> int:
        return self.a.shape[0]

    def assemble(self) -> np.ndarray:
        return np.block([[self.a, self.b.conj().T], [self.b, -self.a]])


@dataclass(frozen=True)
class PairingReport:
    """Outcome of a mirror-pairing verification."""

    passed: bool
    defect: float
    tol: float
    pairs: int


def _symmetry_defect(b: np.ndarray) -> float:
    return float(np.max(np.abs(b - b.T))) if b.size else 0.0


def detect_structure(
    sys: SaddleSystem, rtol: float = STRUCTURE_RTOL
) -> SymmetricSpectrumSystem | None:
    """Return the symmetric-spectrum view of ``sys`` if it has one.

    Requires n = m, the (2,2) block of the assembled matrix equal to -A
    (i.e. the stored C equals A), A real symmetric positive definite and B
    complex symmetric, all within ``rtol`` relative tolerances.  Returns
    ``None`` when any hypothesis fails.
    """
    if sys.n != sys.m:
        return None
    a, b, c = sys.a, sys.b, sys.c
    scale_a = max(float(np.max(np.abs(a))), 1e-300)
    if float(np.max(np.abs(c - a))) > rtol * scale_a:
        return None
    if float(np.max(np.abs(a.imag))) > rtol * scale_a:
        return None
    a_real = a.real
    if _symmetry_defect(a_real) > rtol * scale_a:
        return None
    try:
        scipy.linalg.cholesky(a_real, lower=True)
    except scipy.linalg.LinAlgError:
        return None
    scale_b = max(float(np.max(np.abs(b))), 1e-300)
    if _symmetry_defect(b) > rtol * scale_b:
        return None
    return SymmetricSpectrumSystem(a=a_real, b=b)


def pairing_check(eigenvalues, tol: float = 1e-8) -> PairingReport:
    """Verify that a sorted real spectrum satisfies ``lam_k = -lam_{N+1-k}``.

    The eigenvalue count must be even; the defect is the largest violation
    ``|lam_k + lam_{N+1-k}|`` over all mirror pairs.
    """
    lam = np.sort(np.asarray(eigenvalues, dtype=float))
    if lam.size % 2:
        raise ValueError(f"pairing needs an even eigenvalue count, got {lam.size}")
    defect = float(np.max(np.abs(lam + lam[::-1]))) if lam.size else 0.0
    return PairingReport(
        passed=defect <= tol, defect=defect, tol=tol, pairs=lam.size // 2
    )


def _principal_sqrt(b: np.ndarray, rtol: float = 1e-10) -> np.ndarray:
    """Principal matrix square root with a verified residual."""
    root = scipy.linalg.sqrtm(b)
    scale = max(float(np.max(np.abs(b))), 1e-300)
    resid = float(np.max(np.abs(root @ root - b)))
    if not np.isfinite(resid) or resid > rtol * scale:
        raise ValueError(
            f"matrix square root failed: residual {resid:.3e} vs {rtol * scale:.3e} "
            "(is B singular?)"
        )
    return root


def linearize_quadratic(sys: SymmetricSpectrumSystem) -> np.ndarray:
    """Companion-type linearization with the same spectrum as the system.

    Eliminating the first block row of the eigenproblem leads to a quadratic
    matrix polynomial in the eigenvalue; with ``G = B^{1/2} A B^{-1/2}`` its
    linearization is

    ``[[0, I], [G G^T + B^{1/2} B* B^{1/2}, G - G^T]]``.

    The (2,1) block is complex symmetric and the (2,2) block skew-symmetric,
    which is exactly the shape handled by :func:`skew_pairing_check`.
    Requires nonsingular B.
    """
    a = as_matrix(sys.a)
    b = as_matrix(sys.b)
    n = a.shape[0]
    scale_b = float(np.max(np.abs(b))) if b.size else 0.0
    sv = np.linalg.svd(b, compute_uv=False)
    if sv.size == 0 or sv[-1] <= 1e-12 * max(sv[0], 1e-300):
        raise ValueError("coupling block B is singular; linearization undefined")
    root = _principal_sqrt(b)
    g = root @ np.linalg.solve(root.T, a.T).T  # B^{1/2} A B^{-1/2}
    h = g @ g.T + root @ b.conj() @ root
    s = g - g.T
    eye = np.eye(n, dtype=np.complex128)
    zero = np.zeros((n, n), dtype=np.complex128)
    return np.block([[zero, eye], [h, s]])


def skew_pairing_check(h, s, tol: float = 1e-8) -> PairingReport:
    """Check the ``(mu, -mu)`` pairing of ``[[0, I], [H, S]]`` eigenvalues.

    H must be complex symmetric and nonsingular, S complex skew-symmetric.
    Eigenvalues are general complex here; pairing is verified by greedy
    minimal-distance matching of each eigenvalue with the negative of
    another.
    """
    h = as_matrix(h)
    s = as_matrix(s)
    n = h.shape[0]
    if h.shape != (n, n) or s.shape != (n, n):
        raise ValueError("H and S must be square of equal size")
    if _symmetry_defect(h) > 1e-10 * max(float(np.max(np.abs(h))), 1e-300):
        raise ValueError("H is not complex symmetric")
    if float(np.max(np.abs(s + s.T))) > 1e-10 * max(float(np.max(np.abs(s))), 1.0):
        raise ValueError("S is not skew-symmetric")
    sv = np.linalg.svd(h, compute_uv=False)
    if sv[-1] <= 1e-12 * max(sv[0], 1e-300):
        raise ValueError("H is singular; the pairing statement needs nonsingular H")
    eye = np.eye(n, dtype=np.complex128)
    zero = np.zeros((n, n), dtype=np.complex128)
    lam = np.linalg.eigvals(np.block([[zero, eye], [h, s]]))
    remaining = list(lam)
    defect = 0.0
    # Match largest-modulus first; its mirror partner is the closest value
    # to its negative among the rest.
    remaining.sort(key=abs, reverse=True)
    while remaining:
        mu = remaining.pop(0)
        dists = [abs(other + mu) for other in remaining]
        j = int(np.argmin(dists))
        defect = max(defect, dists[j])
        remaining.pop(j)
    scale = max(float(np.max(np.abs(lam))), 1e-300)
    return PairingReport(
        passed=defect <= tol * max(1.0, scale),
        defect=defect,
        tol=tol * max(1.0, scale),
        pairs=n,
    )
