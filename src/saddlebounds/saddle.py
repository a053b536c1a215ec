"""Saddle-point system model and exact stability-constant extraction.

A system is the Hermitian block matrix ``M = [[A, B*], [B, -C]]`` together
with a block-diagonal inner product ``diag(P, R)`` (both blocks Hermitian
positive definite, factored once as ``P = Lp Lp*`` and ``R = Lr Lr*``).
Every analysis runs in the reduced geometry, where the norms of
``diag(P, R)`` become Euclidean norms: the congruence
``diag(Lp, Lr)^{-1} M diag(Lp, Lr)^{-*} = [[At, G*], [G, -Ct]]`` has the
blocks ``At = Lp^{-1} A Lp^{-*}``, ``G = Lr^{-1} B Lp^{-*}`` and
``Ct = Lr^{-1} C Lr^{-*}``.  :func:`reduce_system` forms them once, as a
:class:`ReducedSystem`, and every analysis below takes that object.  Every
block keeps the field of its values, so a real block of a complex system
(``A``, ``P`` and ``R`` of the parabolic KKT system) is factored, reduced
and diagonalized in real arithmetic.  For
vanishing C this module computes, exactly at the discrete level,

* the kernel-based block decomposition of the (1,1) block: split the primal
  space into ker(B) and its P-orthogonal complement and project all blocks
  onto the two parts (:func:`block_decompose`);
* the constants of the Brezzi-type theory (:func:`brezzi_constants`):

  - ``alpha``: smallest eigenvalue modulus of the (1,1) form restricted to
    ker(B), and whether that restriction is positive definite,
  - ``lambda_min_a``, ``lambda_max_a``: extreme eigenvalues of ``At``, the
    range of (A, P),
  - ``beta``/``b_norm``: extreme singular values of ``G``; one SVD of ``G``,
    cached on the reduced system, also gives the rank test (the discrete
    inf-sup condition) and ker(B);

* the Babuska constants ``gamma = |mu_min|`` and ``B_norm = |mu_max|`` from
  the eigenvalues of the reduced matrix ``[[At, G*], [G, -Ct]]``
  (:func:`babuska_constants`), valid for any Hermitian system including
  C != 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.linalg
import scipy.sparse

from .densecore import (
    RANK_RTOL,
    EigenDecomposition,
    apply_in_field,
    as_matrix,
    cholesky,
    require_hermitian,
    triangular_congruence,
)
# Unused here; benchmarks/tracing.py looks this name up on this module.
from .densecore import generalized_hermitian_eig  # noqa: F401

__all__ = [
    "SaddleSystem",
    "InnerProduct",
    "ReducedSystem",
    "BrezziConstants",
    "BabuskaConstants",
    "BlockDecomposition",
    "reduce_system",
    "block_decompose",
    "brezzi_constants",
    "babuska_constants",
    "preconditioned_spectrum",
]


def _dense(block) -> np.ndarray:
    """A block as a dense matrix in the field of its values: a complex block
    whose imaginary part is exactly zero becomes float64."""
    if scipy.sparse.issparse(block):
        block = block.toarray()
    block = as_matrix(block)
    if np.iscomplexobj(block) and not np.any(block.imag):
        block = np.ascontiguousarray(block.real)
    return block


@dataclass(frozen=True, eq=False)
class SaddleSystem:
    """Hermitian block system ``[[A, B*], [B, -C]]``.

    ``a`` is n x n Hermitian, ``b`` is m x n, ``c`` is m x m Hermitian
    (zero by default, in the dtype of ``a`` and ``b``).  Sparse blocks are
    accepted and densified; each block is real if its values are.
    Instances compare by identity.
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
        c = np.zeros((b.shape[0], b.shape[0]), dtype=np.result_type(a, b)) \
            if c is None else require_hermitian(_dense(c))
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
    def has_zero_c(self) -> bool:
        return not np.any(self.c)

    def assemble(self) -> np.ndarray:
        """Dense Hermitian matrix ``[[A, B*], [B, -C]]``."""
        top = np.hstack([self.a, self.b.conj().T])
        bottom = np.hstack([self.b, -self.c])
        return np.vstack([top, bottom])


@dataclass(frozen=True, eq=False)
class InnerProduct:
    """Block-diagonal inner product ``diag(P, R)`` with SPD blocks and their
    Cholesky factors ``P = Lp Lp*``, ``R = Lr Lr*`` (factoring checks SPD).

    Real blocks, and their factors, stay real.  Instances compare by
    identity.
    """

    p: np.ndarray
    r: np.ndarray
    lp: np.ndarray = field(init=False, repr=False)
    lr: np.ndarray = field(init=False, repr=False)

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
        full = np.zeros(
            (self.n + self.m, self.n + self.m), dtype=np.result_type(self.p, self.r)
        )
        full[: self.n, : self.n] = self.p
        full[self.n:, self.n:] = self.r
        return full


@dataclass(frozen=True, eq=False)
class ReducedSystem:
    """A system in the Euclidean geometry of its inner product.

    ``at``, ``g`` and ``ct`` are the reduced blocks ``Lp^{-1} A Lp^{-*}``,
    ``Lr^{-1} B Lp^{-*}`` and ``Lr^{-1} C Lr^{-*}``; ``lp`` and ``lr`` are
    the Cholesky factors that map results back.  Build it with
    :func:`reduce_system`.  Instances compare by identity, since arrays
    have no single truth value.
    """

    at: np.ndarray
    g: np.ndarray
    ct: np.ndarray
    lp: np.ndarray
    lr: np.ndarray

    @property
    def n(self) -> int:
        return self.at.shape[0]

    @property
    def m(self) -> int:
        return self.g.shape[0]

    @property
    def has_zero_c(self) -> bool:
        return not np.any(self.ct)

    @cached_property
    def _svd(self):
        return np.linalg.svd(self.g)

    def coupling_svd(self, who: str):
        """The full SVD ``G = U diag(s) Vh``, computed once per instance.

        Raises unless C vanishes and ``G`` (equivalently B) has full row
        rank: the inf-sup condition, read off the singular values of ``G``
        with ``RANK_RTOL``.
        """
        if not self.has_zero_c:
            raise ValueError(f"{who} requires a zero (2,2) block")
        m, n = self.g.shape
        if m > n:
            raise ValueError(f"coupling block must be wide, got shape {self.g.shape}")
        u, s, vh = self._svd
        rank = int(np.sum(s > RANK_RTOL * s[0])) if s.size else 0
        if rank < m:
            raise ValueError(
                f"coupling block is rank deficient: rank {rank} < m = {m} "
                f"(sigma_min/sigma_max = {s[-1] / s[0]:.3e})"
            )
        return u, s, vh


def reduce_system(sys: SaddleSystem, ip: InnerProduct) -> ReducedSystem:
    """Carry ``sys`` into the geometry of ``ip``; any shape, any C.

    ``At`` and a nonzero ``Ct`` are checked Hermitian to 1e-10.
    """
    at = require_hermitian(triangular_congruence(ip.lp, sys.a), tol=1e-10)
    ct = np.zeros_like(sys.c) if sys.has_zero_c else require_hermitian(
        triangular_congruence(ip.lr, sys.c), tol=1e-10
    )
    g = triangular_congruence(ip.lr, sys.b, ip.lp)
    return ReducedSystem(at=at, g=g, ct=ct, lp=ip.lp, lr=ip.lr)


@dataclass(frozen=True)
class BrezziConstants:
    """Constants governing well-posedness for systems with zero (2,2) block.

    ``kernel_coercive`` says whether the (1,1) form is positive definite on
    ker(B), the case the eigenvalue-range bounds presume; extracted
    constants read it off the kernel eigenvalues.
    """

    alpha: float
    beta: float
    a_norm: float
    b_norm: float
    lambda_min_a: float
    lambda_max_a: float
    kernel_coercive: bool = True

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


def block_decompose(red: ReducedSystem) -> BlockDecomposition:
    """Split the primal space into ker(B) and its P-orthogonal complement.

    Requires a zero (2,2) block and full-rank B.  With the SVD
    ``G = U S V1*`` in the reduced geometry, the remaining right singular
    vectors ``V0`` span ker(G); the complement basis is ``V1 U*``, the
    orthonormal polar factor of ``G*``, which does not depend on the SVD's
    choice of phases.  ``Lp^{-*}`` maps both back to P-orthonormal bases,
    and ``B1 = B Z1 = Lr U S U*``.
    """
    u, s, vh = red.coupling_svd("block_decompose")
    k = red.n - red.m
    v = np.hstack([vh[red.m:].conj().T, vh[: red.m].conj().T @ u.conj().T])
    z = apply_in_field(
        red.lp,
        lambda y: scipy.linalg.solve_triangular(red.lp, y, lower=True, trans="C"),
        v,
    )
    # The blocks V_i* At V_j of V* (At V), with the real or complex At
    # applied in its own field.
    w = v.conj().T @ apply_in_field(red.at, red.at.__matmul__, v)
    return BlockDecomposition(
        z0=z[:, :k],
        z1=z[:, k:],
        a00=require_hermitian(w[:k, :k], tol=1e-8),
        a01=w[:k, k:],
        a10=w[k:, :k],
        a11=require_hermitian(w[k:, k:], tol=1e-8),
        b1=apply_in_field(red.lr, red.lr.__matmul__, (u * s) @ u.conj().T),
    )


def brezzi_constants(red: ReducedSystem) -> BrezziConstants:
    """Exact Brezzi-type constants of a reduced system.

    * ``alpha``: inf-sup constant of the (1,1) form on ker(B).  For a
      Hermitian form this is the smallest eigenvalue modulus of the kernel
      block ``V0* At V0``; when the form is coercive on the kernel it
      coincides with the smallest eigenvalue itself,
    * ``kernel_coercive``: whether the kernel block is positive definite,
    * ``lambda_min_a / lambda_max_a``: extreme eigenvalues of ``At``, i.e. of
      the pencil (A, P),
    * ``beta / b_norm``: extreme singular values of ``G``; their squares are
      the extreme eigenvalues of (B P^{-1} B*, R),
    * ``a_norm = max(|lambda_min_a|, lambda_max_a)``.

    The eigenvalue-range bounds downstream (:func:`saddlebounds.bounds.\
mu3_cubic` via :func:`saddlebounds.bounds.inclusion_set`) presume the
    coercive representation of ``alpha``; ``inclusion_set`` refuses
    constants whose kernel block is not positive definite.
    """
    _, s, vh = red.coupling_svd("brezzi_constants")
    if red.n == red.m:
        raise ValueError("ker(B) is trivial; the kernel inf-sup is undefined")
    v0 = vh[red.m:].conj().T
    at_v0 = apply_in_field(red.at, red.at.__matmul__, v0)
    kernel_eigs = np.linalg.eigvalsh(v0.conj().T @ at_v0)
    alpha = float(np.min(np.abs(kernel_eigs)))
    if alpha <= 1e-12 * max(float(np.max(np.abs(kernel_eigs))), 1e-300):
        raise ValueError(
            f"(1,1) block is not elliptic on ker(B): inf-sup constant "
            f"{alpha:.6e} vanishes (singular kernel block)"
        )
    lam = np.linalg.eigvalsh(red.at)
    lam_min, lam_max = float(lam[0]), float(lam[-1])
    return BrezziConstants(
        alpha=alpha,
        beta=float(s[-1]),
        a_norm=max(abs(lam_min), abs(lam_max)),
        b_norm=float(s[0]),
        lambda_min_a=lam_min,
        lambda_max_a=lam_max,
        kernel_coercive=bool(kernel_eigs[0] > 0.0),
    )


def preconditioned_spectrum(red: ReducedSystem) -> EigenDecomposition:
    """Eigenvalues (real, ascending) of the generalized problem ``M x = mu Pc x``.

    These are the eigenvalues of the reduced matrix ``[[At, G*], [G, -Ct]]``.
    It is Hermitian by construction, since :func:`reduce_system` checked and
    symmetrized ``At`` and ``Ct``, so it is not checked again.
    """
    block = np.block([[red.at, red.g.conj().T], [red.g, -red.ct]])
    return EigenDecomposition(eigenvalues=np.linalg.eigvalsh(block))


def babuska_constants(red: ReducedSystem) -> BabuskaConstants:
    """Extreme moduli ``(gamma, B_norm)`` of the preconditioned spectrum."""
    spec = preconditioned_spectrum(red)
    moduli = np.abs(spec.eigenvalues)
    gamma = float(np.min(moduli))
    b_norm = float(np.max(moduli))
    if gamma <= 1e-12 * max(b_norm, 1e-300):
        raise ValueError(
            f"system is singular: smallest eigenvalue modulus {gamma:.3e}"
        )
    return BabuskaConstants(gamma=gamma, b_norm=b_norm)
