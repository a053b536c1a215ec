"""Saddle-point system model and exact stability-constant extraction.

A system is the Hermitian block matrix ``M = [[A, B*], [B, -C]]``; its
geometry is a block-diagonal inner product ``diag(P, R)`` (both blocks
Hermitian positive definite).  Every analysis reads a system in the
Euclidean geometry.  :func:`reduce_system` carries a system into that
geometry: with ``P = Lp Lp*`` and ``R = Lr Lr*``, the congruence
``diag(Lp, Lr)^{-1} M diag(Lp, Lr)^{-*} = [[At, G*], [G, -Ct]]`` is again a
Hermitian saddle system, with the blocks ``At = Lp^{-1} A Lp^{-*}``,
``G = Lr^{-1} B Lp^{-*}`` and ``Ct = Lr^{-1} C Lr^{-*}``, and
:func:`reduce_system` returns it as a :class:`SaddleSystem`.  A system
given in the Euclidean geometry is analysed as it is.  Every block keeps
the field of its values, so a real block of a complex system (``A``, ``P``
and ``R`` of the parabolic KKT system) is factored, reduced and
diagonalized in real arithmetic.  For vanishing C this module computes,
exactly at the discrete level,

* the kernel-based block decomposition of the (1,1) block: split the
  primal space into ker(G) and its orthogonal complement, which ``Lp^{-*}``
  maps to ker(B) and its P-orthogonal complement, and project all blocks
  onto the two parts (:func:`block_decompose`);
* the constants of the Brezzi-type theory (:func:`brezzi_constants`):

  - ``alpha``: smallest eigenvalue modulus of the (1,1) form restricted to
    ker(B), and whether that restriction is positive definite,
  - ``lambda_min_a``, ``lambda_max_a``: extreme eigenvalues of ``At``, the
    range of (A, P),
  - ``beta``/``b_norm``: extreme singular values of ``G``.  One
    Householder QR ``G* = Q [R; 0]``, factored by each analysis that needs
    it and kept as LAPACK's reflectors, gives them as the singular values of
    the m x m triangle ``R`` (Chan's R-SVD), together with the rank test
    (the discrete inf-sup condition); applying the reflectors to ``[0; I]``
    gives an orthonormal basis of ker(G) without forming the n x n Q, and
    Q itself is the basis of :func:`block_decompose`;

* the Babuska constants ``gamma = |mu_min|`` and ``B_norm = |mu_max|`` from
  the eigenvalues of ``[[At, G*], [G, -Ct]]`` (:func:`babuska_constants`),
  valid for any Hermitian system including C != 0.

:class:`SaddleSystem` is the package's one conversion of sparse blocks to
dense ones; it refuses an order ``n + m`` above :data:`DENSE_LIMIT`, an
empty A or B, and a block of the wrong shape, before converting it, and
keeps a vanishing C as ``None``; :func:`reduce_system` checks ``P`` and
``R`` the same way.  Each block is densified once, into a buffer of its
own, and worked in place from there: ``A``, ``C``, ``P`` and ``R`` are
checked Hermitian and symmetrized in that buffer, ``P`` and ``R`` are
Cholesky-factored in it, and ``At``, ``Ct`` and ``G*`` are solved by
overwriting triangular solves in one copy each of ``A``, ``C`` and
``B*``.  The coupling block is stored once, as ``B*``: the
Fortran-ordered n x m layout that ``?trsm``, ``?geqrf`` and ``?unmqr``
read.  :meth:`SaddleSystem.assemble` is the one dense assembler of ``M``;
the eigensolve reads its lower block triangle only.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np
import scipy.linalg
import scipy.sparse

from .densecore import (
    CHUNK_BYTES,
    RANK_RTOL,
    _field,
    apply_in_field,
    cholesky,
    hermitian_eigenvalues,
    one_blas_thread,
    require_hermitian,
    triangular_congruence,
)
# Unused here; benchmarks/tracing.py looks this name up on this module.
from .densecore import generalized_hermitian_eig  # noqa: F401

__all__ = [
    "DENSE_LIMIT",
    "check_dense",
    "SaddleSystem",
    "BrezziConstants",
    "BabuskaConstants",
    "BlockDecomposition",
    "reduce_system",
    "block_decompose",
    "brezzi_constants",
    "babuska_constants",
    "preconditioned_spectrum",
]


#: Refuse dense conversion above this system order.
DENSE_LIMIT = 6000


def check_dense(order: int) -> None:
    """Raise ``ValueError`` if a system of this order is above :data:`DENSE_LIMIT`."""
    if order > DENSE_LIMIT:
        raise ValueError(f"dense conversion refused at dimension {order} (> {DENSE_LIMIT})")


def _shaped(block, shape: tuple[int, int], name: str):
    """``block``, refused with a ``ValueError`` naming it unless its ``np.shape`` is ``shape``."""
    if np.shape(block) != shape:
        raise ValueError(f"{name} is {np.shape(block)}, expected {shape}")
    return block


def _dense(block) -> np.ndarray:
    """A block as a Fortran-ordered dense matrix of its own, never a view of
    ``block``, in the field of its values: a complex block whose imaginary
    part is exactly zero becomes float64.  The one copy is made in that
    field and order."""
    sparse = scipy.sparse.issparse(block)
    if not sparse:
        block = np.asarray(block)
    if np.iscomplexobj(block) and not (
        block.imag.count_nonzero() if sparse else np.any(block.imag)
    ):
        block = block.real
    if sparse:
        return block.toarray(order="F").astype(_field(block), copy=False)
    return np.array(block, dtype=_field(block), order="F")


@dataclass(frozen=True, eq=False, init=False)
class SaddleSystem:
    """Hermitian block system ``[[A, B*], [B, -C]]``, made as
    ``SaddleSystem(a, b, c=None)``.

    ``a`` is n x n Hermitian, ``b`` is m x n, ``c`` is m x m Hermitian or
    ``None``: a vanishing C (``None``, all-zero dense, or sparse with no
    nonzero entry) is stored as ``None``.  An empty A or B (n = 0 or
    m = 0) is refused, naming the block.  Sparse blocks are accepted and
    densified, each once its shape is checked, up to the order
    ``n + m = DENSE_LIMIT``; each block is real if its values are, and each
    is densified into one buffer of its own: A and C Fortran-ordered and
    symmetrized in place, and the coupling block stored as ``bh = B*``,
    n x m and Fortran-ordered, densified from ``B.T`` and conjugated in
    place.  ``b`` reads B back as ``bh.conj().T``, a view where B is real.
    A system holds its blocks and nothing else: every analysis factors
    what it needs afresh.  Instances compare by identity, since arrays have
    no single truth value.
    """

    a: np.ndarray
    bh: np.ndarray
    c: np.ndarray | None

    def __init__(self, a, b, c=None):
        n, m = np.shape(a)[0], np.shape(b)[0]
        check_dense(n + m)
        for name, block, size in (("(1,1) block", a, n), ("coupling block", b, m)):
            if size == 0:
                raise ValueError(f"{name} is empty: shape {np.shape(block)}")
        a = _dense(_shaped(a, (n, n), "(1,1) block"))
        a = require_hermitian(a, overwrite=True)
        bh = _dense(np.transpose(_shaped(b, (m, n), "coupling block")))
        if np.iscomplexobj(bh):
            np.conjugate(bh, out=bh)
        if c is not None:
            c = _shaped(c, (m, m), "(2,2) block")
            nonzero = c.count_nonzero() if scipy.sparse.issparse(c) else np.any(c)
            c = require_hermitian(_dense(c), overwrite=True) if nonzero else None
        for name, block in (("a", a), ("bh", bh), ("c", c)):
            object.__setattr__(self, name, block)

    @classmethod
    def _of_checked(cls, a, bh, c) -> "SaddleSystem":
        """A system of dense blocks already checked, ``B*`` given as ``bh``,
        without checking them again."""
        sys = object.__new__(cls)
        for name, block in (("a", a), ("bh", bh), ("c", c)):
            object.__setattr__(sys, name, block)
        return sys

    @property
    def b(self) -> np.ndarray:
        return self.bh.conj().T

    @property
    def n(self) -> int:
        return self.a.shape[0]

    @property
    def m(self) -> int:
        return self.bh.shape[1]

    def assemble(self, mirror: bool = True) -> np.ndarray:
        """Dense Hermitian ``[[A, B*], [B, -C]]`` in one Fortran-ordered
        buffer, whose (2,2) block stays zero where C vanishes.

        The lower block triangle (A, B, -C) is written first; ``mirror``
        then writes ``B*``.  With ``mirror=False`` that block stays zero:
        the buffer holds all that :func:`hermitian_eigenvalues` reads, and
        its zero blocks are never written.
        """
        n = self.n
        blocks = (self.a, self.bh) if self.c is None else (self.a, self.bh, self.c)
        full = np.zeros((n + self.m, n + self.m), dtype=np.result_type(*blocks), order="F")
        full[:n, :n] = self.a
        np.conjugate(self.bh.T, out=full[n:, :n])
        if self.c is not None:
            np.negative(self.c, out=full[n:, n:])
        if mirror:
            full[:n, n:] = self.bh
        return full

    def _coupling(self, who: str, overwrite: bool = False):
        """The ``(reflectors, tau, sigma)`` of B's QR (:func:`_coupling_qr`),
        factored afresh on every call, in ``bh``'s own buffer with
        ``overwrite=True``; nothing is stored on the system.

        Raises unless C vanishes and B has full row rank: the inf-sup
        condition, read off the singular values with ``RANK_RTOL``.  The
        shape checks come before B is touched.
        """
        if self.c is not None:
            raise ValueError(f"{who} requires a zero (2,2) block")
        n, m = self.bh.shape
        if m > n:
            raise ValueError(f"coupling block must be wide, got shape {(m, n)}")
        qr, tau, s = _coupling_qr(self.bh, overwrite)
        rank = int(np.sum(s > RANK_RTOL * s[0]))
        if rank < m:
            raise ValueError(
                f"coupling block is rank deficient: rank {rank} < m = {m} "
                f"(sigma_min/sigma_max = {s[-1] / s[0]:.3e})"
            )
        return qr, tau, s


def _coupling_qr(bh, overwrite: bool = False):
    """``(reflectors, tau, sigma)``: the Householder QR ``B* = Q [R; 0]`` of
    ``?geqrf`` in the field of B, which keeps Q as its reflectors, and the
    singular values of B, read off the m x m triangle ``R``.

    ``?geqrf`` overwrites the Fortran-ordered ``B*`` it is given as ``bh``
    with ``overwrite=True``, and a Fortran-ordered copy of it otherwise.
    """
    m = bh.shape[1]
    if not overwrite:
        bh = np.array(bh, order="F")
    (geqrf,) = scipy.linalg.get_lapack_funcs(("geqrf",), (bh,))
    work = geqrf(bh, lwork=-1, overwrite_a=True)[2]
    qr, tau, _, info = geqrf(bh, lwork=int(work[0].real), overwrite_a=True)
    if info != 0:
        raise np.linalg.LinAlgError(f"geqrf failed (LAPACK info = {info})")
    return qr, tau, np.linalg.svd(np.triu(qr[:m]), compute_uv=False)


def _apply_q(qr, tau, c, adjoint: bool = False) -> np.ndarray:
    """``Q c``, or ``Q* c``, for the Q of ``?geqrf``'s reflectors ``qr`` and
    ``tau``, applied by ``?unmqr`` (``?ormqr`` for a real Q) without forming
    Q; ``c`` is copied into a Fortran-ordered buffer in the dtype of ``qr``
    unless it is one, and that buffer is overwritten."""
    name, trans = ("unmqr", "C") if np.iscomplexobj(qr) else ("ormqr", "T")
    trans = trans if adjoint else "N"
    c = np.asfortranarray(c, dtype=qr.dtype)
    (mqr,) = scipy.linalg.get_lapack_funcs((name,), (qr,))
    work = mqr("L", trans, qr, tau, c, -1, overwrite_c=True)[1]
    cq, _, info = mqr("L", trans, qr, tau, c, int(work[0].real), overwrite_c=True)
    if info != 0:
        raise np.linalg.LinAlgError(f"{name} failed (LAPACK info = {info})")
    return cq


def _kernel_basis(qr, tau, columns: slice = slice(None)) -> np.ndarray:
    """The last ``n - m`` columns of Q, ``Q [0; I]``: an orthonormal basis
    of ker(B) for ``B* = Q [R; 0]``, or the slice ``columns`` of it."""
    n, m = qr.shape
    index = np.arange(n - m)[columns]
    c = np.zeros((n, index.size), dtype=qr.dtype, order="F")
    c[m + index, np.arange(index.size)] = 1.0
    return _apply_q(qr, tau, c)


def _factor(block) -> np.ndarray:
    """The Cholesky factor of an inner-product block, densified once into a
    Fortran-ordered buffer, then checked Hermitian, symmetrized and
    factored in that buffer."""
    h = require_hermitian(_dense(block), overwrite=True)
    return cholesky(h, overwrite=True)


def reduce_system(sys: SaddleSystem, p, r) -> SaddleSystem:
    """``sys`` in the Euclidean geometry of ``diag(P, R)``: the system
    ``[[At, G*], [G, -Ct]]``; any shape, any C.

    ``P`` (n x n) and ``R`` (m x m), dense or sparse, must be Hermitian
    positive definite; a block of another shape raises ``ValueError``
    naming it before either is densified.  Each is densified once and
    factored in that buffer; the factors live only in this call.  ``At``,
    ``Ct`` and ``G*`` are each solved in one Fortran-ordered copy of ``A``,
    ``C`` and ``B*`` by overwriting triangular solves; ``At`` and ``Ct``
    are checked Hermitian to 1e-10 and symmetrized in place, and ``G*`` is
    the reduced system's ``bh`` as it comes out of the solves.  ``Ct`` is
    ``None`` where C vanishes.  ``sys`` is left as it was.
    """
    p = _shaped(p, (sys.n, sys.n), "inner-product block P")
    r = _shaped(r, (sys.m, sys.m), "inner-product block R")
    lp = _factor(p)
    lr = _factor(r)
    at = require_hermitian(triangular_congruence(lp, sys.a), tol=1e-10, overwrite=True)
    ct = None if sys.c is None else require_hermitian(
        triangular_congruence(lr, sys.c), tol=1e-10, overwrite=True
    )
    return SaddleSystem._of_checked(at, triangular_congruence(lp, sys.bh, lr), ct)


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
        """The six constants by name, in field order: every field before
        ``kernel_coercive``."""
        return {f.name: getattr(self, f.name) for f in fields(self)[:-1]}


@dataclass(frozen=True)
class BabuskaConstants:
    """Extreme moduli of the preconditioned spectrum: ``0 < gamma <= B_norm``."""

    gamma: float
    b_norm: float


@dataclass(frozen=True)
class BlockDecomposition:
    """Kernel-based 3x3 view of a system with zero (2,2) block.

    ``v0`` and ``v1`` are orthonormal bases of ker(B) and its complement,
    the last ``n - m`` and the first m columns of the Q of ``B* = Q [R; 0]``
    (:func:`block_decompose`); ``Aij = Vi* A Vj`` and ``B1 = B V1 = R*``,
    lower triangular with the singular values of B, not Hermitian in
    general.  For a system from
    :func:`reduce_system` (blocks ``At`` and ``G``), ``Lp^{-*}`` maps them
    to P-orthonormal bases of the original ker(B) and its P-orthogonal
    complement.
    """

    v0: np.ndarray
    v1: np.ndarray
    a00: np.ndarray
    a01: np.ndarray
    a10: np.ndarray
    a11: np.ndarray
    b1: np.ndarray


def block_decompose(sys: SaddleSystem) -> BlockDecomposition:
    """Split the primal space of ``sys`` into ker(B) and its complement.

    Requires a zero (2,2) block and full-rank B.  With the Householder QR
    ``B* = Q [R; 0]``, the last ``n - m`` columns of Q form ``v0`` and the
    first m form ``v1``; since ``B = [R*, 0] Q*``, ``B1 = B v1 = R*``.
    Q is formed by applying the reflectors once, to the identity.
    """
    qr, tau, _ = sys._coupling("block_decompose")
    m = sys.m
    q = _apply_q(qr, tau, np.eye(sys.n, dtype=qr.dtype, order="F"))
    # The blocks of Q* A Q, with the real or complex A applied in its own
    # field; V = [v0, v1] is Q with its first m columns moved last.
    w = q.conj().T @ apply_in_field(sys.a, sys.a.__matmul__, q)
    return BlockDecomposition(
        v0=q[:, m:],
        v1=q[:, :m],
        a00=require_hermitian(w[m:, m:], tol=1e-8),
        a01=w[m:, :m],
        a10=w[:m, m:],
        a11=require_hermitian(w[:m, :m], tol=1e-8),
        b1=np.triu(qr[:m]).conj().T,
    )


def _kernel_block(a, qr, tau) -> np.ndarray:
    """The Fortran-ordered kernel block ``V0* A V0`` for the kernel basis
    ``V0 = Q [0; I]`` of the QR ``(qr, tau)``.

    The block is ``[0 I] Q* A Q [0; I]``, formed a chunk ``J`` of its
    columns at a time as the last ``n - m`` rows of ``Q* (A (Q [0; I_J]))``,
    so neither ``V0`` nor ``A V0`` is ever held whole.  Each product keeps
    the field of its operands: a real Q meets a complex A (Stokes), and a
    real A a complex Q (the parabolic KKT system), as real columns.
    """
    n, m = qr.shape
    k = n - m
    block = np.empty((k, k), dtype=np.result_type(qr, a), order="F")
    width = max(1, CHUNK_BYTES // (16 * n))
    for start in range(0, k, width):
        columns = slice(start, start + width)
        a_v = apply_in_field(a, a.__matmul__, _kernel_basis(qr, tau, columns))
        q_a_v = apply_in_field(qr, lambda y: _apply_q(qr, tau, y, adjoint=True), a_v)
        block[:, columns] = q_a_v[m:]
    return block


def brezzi_constants(sys: SaddleSystem, overwrite: bool = False) -> BrezziConstants:
    """Exact Brezzi-type constants of ``sys`` in the Euclidean geometry.

    For a system from :func:`reduce_system` (blocks ``At``, ``G``) these are
    the constants in the geometry of ``diag(P, R)``:

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

    With ``overwrite=True`` the constants are computed in the system's own
    buffers, which are then destroyed: the QR of ``G*`` in ``bh``, and the
    eigenvalues of ``At`` in A's (both Fortran-ordered, as
    :func:`reduce_system` and :class:`SaddleSystem` store them).  The
    constants are the same, bit for bit; the system must not be used
    afterwards.
    """
    qr, tau, s = sys._coupling("brezzi_constants", overwrite)
    if sys.n == sys.m:
        raise ValueError("ker(B) is trivial; the kernel inf-sup is undefined")
    kernel_eigs = hermitian_eigenvalues(_kernel_block(sys.a, qr, tau), overwrite=True)
    alpha = float(np.min(np.abs(kernel_eigs)))
    if alpha <= 1e-12 * max(float(np.max(np.abs(kernel_eigs))), 1e-300):
        raise ValueError(
            f"(1,1) block is not elliptic on ker(B): inf-sup constant "
            f"{alpha:.6e} vanishes (singular kernel block)"
        )
    lam = hermitian_eigenvalues(sys.a, overwrite=overwrite)
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


@one_blas_thread
def preconditioned_spectrum(sys: SaddleSystem) -> np.ndarray:
    """Eigenvalues (real, ascending) of ``M = [[A, B*], [B, -C]]``.

    For a system from :func:`reduce_system`, ``[[At, G*], [G, -Ct]]``, these
    are the eigenvalues of the generalized problem ``M x = mu Pc x`` with
    ``Pc = diag(P, R)``.  ``M`` is Hermitian by construction, since its
    diagonal blocks were checked and symmetrized when the system was made,
    so it is not checked again.  :meth:`SaddleSystem.assemble` writes its
    lower block triangle into one Fortran-ordered buffer, which the
    eigensolver reads and then overwrites, at one BLAS thread, so the
    eigenvalues have the same bits at any thread count.
    """
    return hermitian_eigenvalues(sys.assemble(mirror=False), overwrite=True)


def babuska_constants(sys: SaddleSystem | np.ndarray) -> BabuskaConstants:
    """Extreme moduli ``(gamma, B_norm)`` of the preconditioned spectrum of
    ``sys``, or of ``sys`` itself where it is that spectrum (as
    ``saddlebounds bounds`` computes it, beside Brezzi's constants).

    Raises ``ValueError`` for a singular system: ``gamma`` at most 1e-12
    ``B_norm``.
    """
    spectrum = preconditioned_spectrum(sys) if isinstance(sys, SaddleSystem) else sys
    moduli = np.abs(spectrum)
    gamma = float(np.min(moduli))
    b_norm = float(np.max(moduli))
    if gamma <= 1e-12 * max(b_norm, 1e-300):
        raise ValueError(
            f"system is singular: smallest eigenvalue modulus {gamma:.3e}"
        )
    return BabuskaConstants(gamma=gamma, b_norm=b_norm)
