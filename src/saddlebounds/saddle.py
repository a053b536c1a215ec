"""Saddle-point system model and exact stability-constant extraction.

A system is the Hermitian block matrix ``[[A, B*], [B, -C]]`` together with a
block-diagonal inner product ``diag(P, R)`` (both blocks Hermitian positive
definite).  For vanishing C this module computes, exactly at the discrete
level,

* the kernel-based block decomposition of the (1,1) block: split the primal
  space into ker(B) and its P-orthogonal complement, project all blocks onto
  the two parts (:func:`block_decompose`), and form the explicit inverse of
  the resulting 3x3 block operator (:func:`three_by_three_inverse`);
* the constants of the Brezzi-type theory, as extreme generalized
  eigenvalues (:func:`brezzi_constants`):

  - ``alpha``: smallest eigenvalue of the (1,1) form restricted to ker(B),
  - ``lambda_min_a``, ``lambda_max_a``: extreme eigenvalues of (A, P),
  - ``beta^2``/``b_norm^2``: extreme eigenvalues of (B P^{-1} B*, R);

* the Babuska constants ``gamma = |mu_min|`` and ``B_norm = |mu_max|`` from
  the full preconditioned spectrum (:func:`babuska_constants`), valid for
  any Hermitian system including C != 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse

from . import densecore
from .densecore import (
    EigenDecomposition,
    as_complex_matrix,
    cholesky,
    generalized_hermitian_eig,
    nullspace_basis,
    require_hermitian,
)

__all__ = [
    "SaddleSystem",
    "InnerProduct",
    "BrezziConstants",
    "BabuskaConstants",
    "BlockDecomposition",
    "block_decompose",
    "three_by_three_inverse",
    "brezzi_constants",
    "babuska_constants",
    "preconditioned_spectrum",
]


def _dense(block) -> np.ndarray:
    if scipy.sparse.issparse(block):
        block = block.toarray()
    return as_complex_matrix(block)


@dataclass(frozen=True)
class SaddleSystem:
    """Hermitian block system ``[[A, B*], [B, -C]]``.

    ``a`` is n x n Hermitian, ``b`` is m x n, ``c`` is m x m Hermitian
    (zero by default).  Sparse blocks are accepted and densified.
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray | None = None

    def __post_init__(self):
        a = require_hermitian(_dense(self.a))
        b = _dense(self.b)
        if b.shape[1] != a.shape[0]:
            raise ValueError(
                f"coupling block is {b.shape}, expected (m, {a.shape[0]})"
            )
        c = self.c
        c = np.zeros((b.shape[0], b.shape[0]), dtype=np.complex128) if c is None \
            else require_hermitian(_dense(c))
        if c.shape[0] != b.shape[0]:
            raise ValueError(f"(2,2) block is {c.shape}, expected m = {b.shape[0]}")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)

    @property
    def n(self) -> int:
        return self.a.shape[0]

    @property
    def m(self) -> int:
        return self.b.shape[0]

    @property
    def dim(self) -> int:
        return self.n + self.m

    @property
    def has_zero_c(self) -> bool:
        return not np.any(self.c)

    def assemble(self) -> np.ndarray:
        """Dense Hermitian matrix ``[[A, B*], [B, -C]]``."""
        top = np.hstack([self.a, self.b.conj().T])
        bottom = np.hstack([self.b, -self.c])
        return np.vstack([top, bottom])

    def apply(self, x: np.ndarray) -> np.ndarray:
        u, p = x[: self.n], x[self.n:]
        return np.concatenate(
            [self.a @ u + self.b.conj().T @ p, self.b @ u - self.c @ p]
        )


@dataclass(frozen=True)
class InnerProduct:
    """Block-diagonal inner product ``diag(P, R)`` with SPD blocks."""

    p: np.ndarray
    r: np.ndarray

    def __post_init__(self):
        p = require_hermitian(_dense(self.p))
        r = require_hermitian(_dense(self.r))
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "r", r)
        # Both blocks must pass Cholesky; failure raises with the pivot.
        cholesky(p)
        cholesky(r)

    @classmethod
    def identity(cls, n: int, m: int) -> "InnerProduct":
        return cls(p=np.eye(n), r=np.eye(m))

    @property
    def n(self) -> int:
        return self.p.shape[0]

    @property
    def m(self) -> int:
        return self.r.shape[0]

    def assemble(self) -> np.ndarray:
        full = np.zeros((self.n + self.m, self.n + self.m), dtype=np.complex128)
        full[: self.n, : self.n] = self.p
        full[self.n:, self.n:] = self.r
        return full


@dataclass(frozen=True)
class BrezziConstants:
    """Constants governing well-posedness for systems with zero (2,2) block."""

    alpha: float
    beta: float
    a_norm: float
    b_norm: float
    lambda_min_a: float
    lambda_max_a: float

    def as_dict(self) -> dict[str, float]:
        return {
            "alpha": self.alpha,
            "beta": self.beta,
            "a_norm": self.a_norm,
            "b_norm": self.b_norm,
            "lambda_min_a": self.lambda_min_a,
            "lambda_max_a": self.lambda_max_a,
        }


@dataclass(frozen=True)
class BabuskaConstants:
    """Extreme moduli of the preconditioned spectrum: ``0 < gamma <= B_norm``."""

    gamma: float
    b_norm: float


@dataclass(frozen=True)
class BlockDecomposition:
    """Kernel-based 3x3 view of a system with zero (2,2) block.

    ``z0`` spans ker(B) and ``z1`` its P-orthogonal complement, both
    P-orthonormal, so the projected inner products are identities and the
    projected blocks live in Euclidean geometry.
    """

    z0: np.ndarray
    z1: np.ndarray
    a00: np.ndarray
    a01: np.ndarray
    a10: np.ndarray
    a11: np.ndarray
    b1: np.ndarray

    @property
    def kernel_dim(self) -> int:
        return self.z0.shape[1]

    def assemble(self) -> np.ndarray:
        """The 3x3 block operator ``[[A00, A01, 0], [A10, A11, B1*], [0, B1, 0]]``."""
        k, m = self.kernel_dim, self.b1.shape[0]
        zk = np.zeros((k, m), dtype=np.complex128)
        zm = np.zeros((m, m), dtype=np.complex128)
        return np.block(
            [
                [self.a00, self.a01, zk],
                [self.a10, self.a11, self.b1.conj().T],
                [zk.conj().T, self.b1, zm],
            ]
        )


def _require_full_rank(b: np.ndarray, rtol: float = densecore.RANK_RTOL) -> None:
    m, n = b.shape
    if m > n:
        raise ValueError(f"coupling block must be wide, got shape {b.shape}")
    s = np.linalg.svd(b, compute_uv=False)
    rank = int(np.sum(s > rtol * s[0])) if s.size else 0
    if rank < m:
        raise ValueError(
            f"coupling block is rank deficient: rank {rank} < m = {m} "
            f"(sigma_min/sigma_max = {s[-1] / s[0]:.3e})"
        )


def _require_zero_c(sys: SaddleSystem, who: str) -> None:
    if not sys.has_zero_c:
        raise ValueError(f"{who} requires a zero (2,2) block")


def block_decompose(sys: SaddleSystem, ip: InnerProduct) -> BlockDecomposition:
    """Split the primal space into ker(B) and its P-orthogonal complement.

    Requires a zero (2,2) block and full-rank B.  The complement basis is
    obtained by P-orthonormalizing ``P^{-1} B*`` (the P-representers of the
    coupling functionals), which spans the complement exactly.
    """
    _require_zero_c(sys, "block_decompose")
    _require_full_rank(sys.b)
    p = ip.p
    z0 = nullspace_basis(sys.b, p)
    if z0.shape[1] != sys.n - sys.m:
        raise ValueError(
            f"kernel dimension {z0.shape[1]} inconsistent with full rank "
            f"(expected {sys.n - sys.m})"
        )
    w = np.linalg.solve(p, sys.b.conj().T)  # P^{-1} B*, spans the complement
    gram = w.conj().T @ p @ w
    lw = cholesky(require_hermitian(gram, tol=1e-10))
    z1 = scipy.linalg.solve_triangular(lw, w.conj().T, lower=True).conj().T

    a = sys.a
    return BlockDecomposition(
        z0=z0,
        z1=z1,
        a00=require_hermitian(z0.conj().T @ a @ z0, tol=1e-8),
        a01=z0.conj().T @ a @ z1,
        a10=z1.conj().T @ a @ z0,
        a11=require_hermitian(z1.conj().T @ a @ z1, tol=1e-8),
        b1=sys.b @ z1,
    )


def three_by_three_inverse(dec: BlockDecomposition) -> np.ndarray:
    """Explicit inverse of the 3x3 block operator of a decomposition.

    ``[[A00^{-1}, 0, -A00^{-1} A01 B1^{-1}],
       [0, 0, B1^{-1}],
       [-B1^{-*} A10 A00^{-1}, B1^{-*},
        -B1^{-*} (A11 - A10 A00^{-1} A01) B1^{-1}]]``

    Requires nonsingular ``A00`` (positive definiteness on the kernel) and
    full-rank ``B1``.
    """
    a00, a01, a10, a11, b1 = dec.a00, dec.a01, dec.a10, dec.a11, dec.b1
    k, m = a00.shape[0], b1.shape[0]
    if k:
        ev = np.linalg.eigvalsh(a00)
        if np.min(np.abs(ev)) <= 1e-13 * max(np.max(np.abs(ev)), 1e-300):
            raise ValueError("A00 is singular: system not coercive on ker(B)")
    a00_inv = np.linalg.inv(a00) if k else a00.reshape(0, 0)
    b1_inv = np.linalg.inv(b1)
    b1_inv_h = b1_inv.conj().T
    schur = a11 - a10 @ a00_inv @ a01
    zkm = np.zeros((k, m), dtype=np.complex128)
    zmm = np.zeros((m, m), dtype=np.complex128)
    return np.block(
        [
            [a00_inv, zkm, -a00_inv @ a01 @ b1_inv],
            [zkm.conj().T, zmm, b1_inv],
            [-b1_inv_h @ a10 @ a00_inv, b1_inv_h, -b1_inv_h @ schur @ b1_inv],
        ]
    )


def brezzi_constants(sys: SaddleSystem, ip: InnerProduct) -> BrezziConstants:
    """Exact Brezzi-type constants of ``(system, inner product)``.

    * ``alpha``: inf-sup constant of the (1,1) form on ker(B).  For a
      Hermitian form this is the smallest eigenvalue modulus of the kernel
      block; when the form is coercive on the kernel it coincides with the
      smallest eigenvalue itself,
    * ``lambda_min_a / lambda_max_a``: extreme eigenvalues of (A, P),
    * ``beta^2 / b_norm^2``: extreme eigenvalues of (B P^{-1} B*, R),
    * ``a_norm = max(|lambda_min_a|, lambda_max_a)``.

    The eigenvalue-range bounds downstream (:func:`saddlebounds.bounds.\
mu3_cubic` via :func:`saddlebounds.bounds.inclusion_set`) presume the
    coercive representation of ``alpha``; they apply when the kernel block
    is positive definite.
    """
    _require_zero_c(sys, "brezzi_constants")
    _require_full_rank(sys.b)
    if sys.n == sys.m:
        raise ValueError("ker(B) is trivial; the kernel inf-sup is undefined")
    z0 = nullspace_basis(sys.b, ip.p)
    a00 = require_hermitian(z0.conj().T @ sys.a @ z0, tol=1e-8)
    kernel_eigs = np.linalg.eigvalsh(a00)
    alpha = float(np.min(np.abs(kernel_eigs)))
    if alpha <= 1e-12 * max(float(np.max(np.abs(kernel_eigs))), 1e-300):
        raise ValueError(
            f"(1,1) block is not elliptic on ker(B): inf-sup constant "
            f"{alpha:.6e} vanishes (singular kernel block)"
        )
    lam = generalized_hermitian_eig(sys.a, ip.p)
    schur = sys.b @ np.linalg.solve(ip.p, sys.b.conj().T)
    coupling = generalized_hermitian_eig(require_hermitian(schur, tol=1e-8), ip.r)
    beta2, b_norm2 = coupling.min, coupling.max
    lam_min, lam_max = lam.min, lam.max
    return BrezziConstants(
        alpha=alpha,
        beta=math.sqrt(max(beta2, 0.0)),
        a_norm=max(abs(lam_min), abs(lam_max)),
        b_norm=math.sqrt(max(b_norm2, 0.0)),
        lambda_min_a=lam_min,
        lambda_max_a=lam_max,
    )


def preconditioned_spectrum(sys: SaddleSystem, ip: InnerProduct) -> EigenDecomposition:
    """Eigenvalues (real, ascending) of the generalized problem ``M x = mu Pc x``."""
    return generalized_hermitian_eig(sys.assemble(), ip.assemble())


def babuska_constants(
    sys: SaddleSystem, ip: InnerProduct, singular_rtol: float = 1e-12
) -> BabuskaConstants:
    """Extreme moduli ``(gamma, B_norm)`` of the preconditioned spectrum."""
    spec = preconditioned_spectrum(sys, ip)
    moduli = np.abs(spec.eigenvalues)
    gamma = float(np.min(moduli))
    b_norm = float(np.max(moduli))
    if gamma <= singular_rtol * max(b_norm, 1e-300):
        raise ValueError(
            f"system is singular: smallest eigenvalue modulus {gamma:.3e}"
        )
    return BabuskaConstants(gamma=gamma, b_norm=b_norm)
