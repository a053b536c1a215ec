"""Saddle-point system model and exact stability-constant extraction.

A system is the Hermitian block matrix ``M = [[A, B*], [B, -C]]`` together
with a block-diagonal inner product ``diag(P, R)`` (both blocks Hermitian
positive definite, factored once as ``P = Lp Lp*`` and ``R = Lr Lr*``).
Every analysis runs in the reduced geometry, where the norms of
``diag(P, R)`` become Euclidean norms: the congruence
``diag(Lp, Lr)^{-1} M diag(Lp, Lr)^{-*} = [[At, G*], [G, -Ct]]`` has the
blocks ``At = Lp^{-1} A Lp^{-*}``, ``G = Lr^{-1} B Lp^{-*}`` and
``Ct = Lr^{-1} C Lr^{-*}``.  For vanishing C this module computes, exactly
at the discrete level,

* the kernel-based block decomposition of the (1,1) block: split the primal
  space into ker(B) and its P-orthogonal complement, project all blocks onto
  the two parts (:func:`block_decompose`), and form the explicit inverse of
  the resulting 3x3 block operator (:func:`three_by_three_inverse`);
* the constants of the Brezzi-type theory (:func:`brezzi_constants`):

  - ``alpha``: smallest eigenvalue of the (1,1) form restricted to ker(B),
  - ``lambda_min_a``, ``lambda_max_a``: extreme eigenvalues of ``At``, the
    range of (A, P),
  - ``beta``/``b_norm``: extreme singular values of ``G``; one SVD of ``G``
    also gives the rank test (the discrete inf-sup condition) and ker(B);

* the Babuska constants ``gamma = |mu_min|`` and ``B_norm = |mu_max|`` from
  the eigenvalues of the reduced matrix ``[[At, G*], [G, -Ct]]``
  (:func:`babuska_constants`), valid for any Hermitian system including
  C != 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse

from .densecore import (
    RANK_RTOL,
    EigenDecomposition,
    as_complex_matrix,
    cholesky,
    hermitian_eig,
    require_hermitian,
    triangular_congruence,
)
# Unused here; benchmarks/tracing.py looks this name up on this module.
from .densecore import generalized_hermitian_eig  # noqa: F401

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
    """Block-diagonal inner product ``diag(P, R)`` with SPD blocks and their
    Cholesky factors ``P = Lp Lp*``, ``R = Lr Lr*`` (factoring checks SPD)."""

    p: np.ndarray
    r: np.ndarray
    lp: np.ndarray = field(init=False, repr=False, compare=False)
    lr: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        p = require_hermitian(_dense(self.p))
        r = require_hermitian(_dense(self.r))
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "lp", cholesky(p))
        object.__setattr__(self, "lr", cholesky(r))

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


def _require_zero_c(sys: SaddleSystem, who: str) -> None:
    if not sys.has_zero_c:
        raise ValueError(f"{who} requires a zero (2,2) block")


def _reduce(sys: SaddleSystem, ip: InnerProduct, who: str):
    """``At`` and the full SVD ``G = U diag(s) Vh`` of a zero-C system.

    Raises unless ``G`` (equivalently B) has full row rank: the inf-sup
    condition, read off the singular values of ``G`` with ``RANK_RTOL``.
    """
    _require_zero_c(sys, who)
    m, n = sys.b.shape
    if m > n:
        raise ValueError(f"coupling block must be wide, got shape {sys.b.shape}")
    a_t = require_hermitian(triangular_congruence(ip.lp, sys.a), tol=1e-10)
    u, s, vh = np.linalg.svd(triangular_congruence(ip.lr, sys.b, ip.lp))
    rank = int(np.sum(s > RANK_RTOL * s[0])) if s.size else 0
    if rank < m:
        raise ValueError(
            f"coupling block is rank deficient: rank {rank} < m = {m} "
            f"(sigma_min/sigma_max = {s[-1] / s[0]:.3e})"
        )
    return a_t, u, s, vh


def block_decompose(sys: SaddleSystem, ip: InnerProduct) -> BlockDecomposition:
    """Split the primal space into ker(B) and its P-orthogonal complement.

    Requires a zero (2,2) block and full-rank B.  With the SVD
    ``G = U S V1*`` in the reduced geometry, the remaining right singular
    vectors ``V0`` span ker(G); the complement basis is ``V1 U*``, the
    orthonormal polar factor of ``G*``, which does not depend on the SVD's
    choice of phases.  ``Lp^{-*}`` maps both back to P-orthonormal bases.
    """
    a_t, u, _, vh = _reduce(sys, ip, "block_decompose")
    v0 = vh[sys.m:].conj().T
    v1 = vh[: sys.m].conj().T @ u.conj().T
    z = scipy.linalg.solve_triangular(
        ip.lp.conj().T, np.hstack([v0, v1]), lower=False
    )
    k = v0.shape[1]
    return BlockDecomposition(
        z0=z[:, :k],
        z1=z[:, k:],
        a00=require_hermitian(v0.conj().T @ a_t @ v0, tol=1e-8),
        a01=v0.conj().T @ a_t @ v1,
        a10=v1.conj().T @ a_t @ v0,
        a11=require_hermitian(v1.conj().T @ a_t @ v1, tol=1e-8),
        b1=sys.b @ z[:, k:],
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
      block ``V0* At V0``; when the form is coercive on the kernel it
      coincides with the smallest eigenvalue itself,
    * ``lambda_min_a / lambda_max_a``: extreme eigenvalues of ``At``, i.e. of
      the pencil (A, P),
    * ``beta / b_norm``: extreme singular values of ``G``; their squares are
      the extreme eigenvalues of (B P^{-1} B*, R),
    * ``a_norm = max(|lambda_min_a|, lambda_max_a)``.

    The eigenvalue-range bounds downstream (:func:`saddlebounds.bounds.\
mu3_cubic` via :func:`saddlebounds.bounds.inclusion_set`) presume the
    coercive representation of ``alpha``; they apply when the kernel block
    is positive definite.
    """
    a_t, _, s, vh = _reduce(sys, ip, "brezzi_constants")
    if sys.n == sys.m:
        raise ValueError("ker(B) is trivial; the kernel inf-sup is undefined")
    v0 = vh[sys.m:].conj().T
    kernel_eigs = np.linalg.eigvalsh(v0.conj().T @ a_t @ v0)
    alpha = float(np.min(np.abs(kernel_eigs)))
    if alpha <= 1e-12 * max(float(np.max(np.abs(kernel_eigs))), 1e-300):
        raise ValueError(
            f"(1,1) block is not elliptic on ker(B): inf-sup constant "
            f"{alpha:.6e} vanishes (singular kernel block)"
        )
    lam = np.linalg.eigvalsh(a_t)
    lam_min, lam_max = float(lam[0]), float(lam[-1])
    return BrezziConstants(
        alpha=alpha,
        beta=float(s[-1]),
        a_norm=max(abs(lam_min), abs(lam_max)),
        b_norm=float(s[0]),
        lambda_min_a=lam_min,
        lambda_max_a=lam_max,
    )


def preconditioned_spectrum(sys: SaddleSystem, ip: InnerProduct) -> EigenDecomposition:
    """Eigenvalues (real, ascending) of the generalized problem ``M x = mu Pc x``.

    These are the eigenvalues of the reduced matrix ``[[At, G*], [G, -Ct]]``.
    """
    g = triangular_congruence(ip.lr, sys.b, ip.lp)
    at, ct = triangular_congruence(ip.lp, sys.a), triangular_congruence(ip.lr, sys.c)
    return hermitian_eig(np.block([[at, g.conj().T], [g, -ct]]), tol=1e-10)


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
