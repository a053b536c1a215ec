"""Structural spectral properties of systems with mirror-symmetric spectrum.

For block matrices ``[[A, B*], [B, -A]]`` with A real symmetric positive
definite and B complex symmetric, the spectrum is real and symmetric around
zero: eigenvalues come in pairs ``(mu, -mu)``.  Such a system is a
:class:`~saddlebounds.saddle.SaddleSystem` whose stored C equals A.  This
module provides

* :func:`detect_structure` -- whether a saddle system has that block shape
  (the (2,2) block of the assembled matrix must equal -A),
* :func:`pairing_check` -- verify the mirror pairing of a computed spectrum,
* :func:`linearize_quadratic` -- the companion-type linearization whose
  spectrum reproduces the spectrum of a system of that shape, built from a
  principal square root of B; the linearization has the form
  ``[[0, I], [H, S]]`` with H complex symmetric and S complex
  skew-symmetric,
* :func:`skew_pairing_check` -- the underlying pairing statement for
  ``[[0, I], [H, S]]`` with arbitrary complex-symmetric nonsingular H.

The general (non-Hermitian) eigensolver used by the pairing checks is the
only non-Hermitian eigensolver in the package and is test-only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .densecore import NotPositiveDefiniteError, _field, cholesky
from .saddle import SaddleSystem

__all__ = [
    "PairingReport",
    "detect_structure",
    "pairing_check",
    "linearize_quadratic",
    "skew_pairing_check",
]

STRUCTURE_RTOL = 1e-12
#: Largest mirror defect that :func:`pairing_check` passes.
PAIRING_TOL = 1e-8


@dataclass(frozen=True)
class PairingReport:
    """Outcome of a mirror-pairing verification."""

    passed: bool
    defect: float
    tol: float
    pairs: int


def _symmetry_defect(b: np.ndarray) -> float:
    return float(np.max(np.abs(b - b.T))) if b.size else 0.0


def detect_structure(sys: SaddleSystem) -> bool:
    """Whether ``sys`` has the mirror block shape ``[[A, B*], [B, -A]]``.

    Requires n = m, the (2,2) block of the assembled matrix equal to -A
    (i.e. the stored C equals A), A real symmetric positive definite and B
    complex symmetric, all within the relative tolerance ``STRUCTURE_RTOL``.
    ``SaddleSystem`` stores A exactly Hermitian, so a real A is symmetric.
    """
    if sys.n != sys.m or sys.c is None:
        return False
    a, b, c = sys.a, sys.b, sys.c
    scale_a = float(np.max(np.abs(a), initial=1e-300))
    if float(np.max(np.abs(c - a), initial=0.0)) > STRUCTURE_RTOL * scale_a:
        return False
    if float(np.max(np.abs(a.imag), initial=0.0)) > STRUCTURE_RTOL * scale_a:
        return False
    try:
        cholesky(a.real)
    except NotPositiveDefiniteError:
        return False
    scale_b = float(np.max(np.abs(b), initial=1e-300))
    return _symmetry_defect(b) <= STRUCTURE_RTOL * scale_b


def pairing_check(eigenvalues) -> PairingReport:
    """Verify that a sorted real spectrum satisfies ``lam_k = -lam_{N+1-k}``.

    The eigenvalue count must be even; the defect is the largest violation
    ``|lam_k + lam_{N+1-k}|`` over all mirror pairs, and it passes up to
    :data:`PAIRING_TOL`.
    """
    lam = np.sort(np.asarray(eigenvalues, dtype=float))
    if lam.size % 2:
        raise ValueError(f"pairing needs an even eigenvalue count, got {lam.size}")
    defect = float(np.max(np.abs(lam + lam[::-1]))) if lam.size else 0.0
    return PairingReport(
        passed=defect <= PAIRING_TOL, defect=defect, tol=PAIRING_TOL, pairs=lam.size // 2
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


def _companion(h: np.ndarray, s: np.ndarray) -> np.ndarray:
    """The companion-type block matrix ``[[0, I], [H, S]]``."""
    n = h.shape[0]
    eye = np.eye(n, dtype=np.complex128)
    zero = np.zeros((n, n), dtype=np.complex128)
    return np.block([[zero, eye], [h, s]])


def linearize_quadratic(sys: SaddleSystem) -> np.ndarray:
    """Companion-type linearization with the same spectrum as the system.

    Eliminating the first block row of the eigenproblem leads to a quadratic
    matrix polynomial in the eigenvalue; with ``G = B^{1/2} A B^{-1/2}`` its
    linearization is

    ``[[0, I], [G G^T + B^{1/2} B* B^{1/2}, G - G^T]]``.

    The (2,1) block is complex symmetric and the (2,2) block skew-symmetric,
    which is exactly the shape handled by :func:`skew_pairing_check`.
    Requires the block shape :func:`detect_structure` recognizes and
    nonsingular B; raises ``ValueError`` otherwise.
    """
    if not detect_structure(sys):
        raise ValueError(
            "linearization needs the block shape [[A, B*], [B, -A]] with A real "
            "symmetric positive definite and B complex symmetric"
        )
    a = sys.a.real
    b = sys.b
    sv = np.linalg.svd(b, compute_uv=False)
    if sv[-1] <= 1e-12 * max(sv[0], 1e-300):
        raise ValueError("coupling block B is singular; linearization undefined")
    root = _principal_sqrt(b)
    g = root @ np.linalg.solve(root.T, a.T).T  # B^{1/2} A B^{-1/2}
    h = g @ g.T + root @ b.conj() @ root
    return _companion(h, g - g.T)


def skew_pairing_check(h, s, tol: float = 1e-8) -> PairingReport:
    """Check the ``(mu, -mu)`` pairing of ``[[0, I], [H, S]]`` eigenvalues.

    H must be complex symmetric and nonsingular, S complex skew-symmetric.
    Eigenvalues are general complex here; pairing is verified by greedy
    minimal-distance matching of each eigenvalue with the negative of
    another.
    """
    h, s = (np.asarray(x, dtype=_field(x)) for x in (h, s))
    if h.ndim != 2 or h.shape[0] != h.shape[1] or s.shape != h.shape:
        raise ValueError("H and S must be square of equal size")
    n = h.shape[0]
    if _symmetry_defect(h) > 1e-10 * max(float(np.max(np.abs(h))), 1e-300):
        raise ValueError("H is not complex symmetric")
    if float(np.max(np.abs(s + s.T))) > 1e-10 * max(float(np.max(np.abs(s))), 1.0):
        raise ValueError("S is not skew-symmetric")
    sv = np.linalg.svd(h, compute_uv=False)
    if sv[-1] <= 1e-12 * max(sv[0], 1e-300):
        raise ValueError("H is singular; the pairing statement needs nonsingular H")
    lam = np.linalg.eigvals(_companion(h, s))
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
