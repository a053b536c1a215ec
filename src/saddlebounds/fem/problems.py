"""Time-periodic optimal-control model problems and their preconditioners.

Both problems minimize a tracking functional with control cost ``nu`` under
a time-harmonic (frequency ``omega``) state equation on the unit square,
discretized on criss-cross meshes:

* distributed parabolic control (P1 state/control/adjoint): the full
  optimality system couples state, control and adjoint through the complex
  operator ``K + i omega M``; eliminating the control and rescaling gives a
  2x2 system whose (2,2) block is the negative of its (1,1) block, hence a
  mirror-symmetric preconditioned spectrum;
* distributed Stokes (velocity tracking) control with Taylor-Hood elements:
  after reordering and rescaling, a saddle-point system whose (1,1) block
  has the same mirror structure and whose coupling stacks two divergence
  operators.

The inner products are the robust block-diagonal preconditioners built from
``M + sqrt(nu) (K + omega M)`` (and its exact pressure Schur complement for
Stokes); their stability constants are mesh-, ``nu``- and ``omega``-
independent, which is what the experiments verify.

Each builder declares its inner product as a :class:`BlockPreconditioner`:
a list of real SPD blocks, each placed on one or more slices of the system
with a scale.  Every sparse block is factored once by SuperLU in symmetric
mode (minimum degree on ``A^T + A``, no pivoting), the dense Stokes Schur
complement by Cholesky.  One application makes one real multi-column solve
per factor: the slices of a factor are gathered into one complex array whose
real and imaginary parts are solved as interleaved real columns.  The
sparse inner-product matrix ``diag(P, R)`` of :meth:`ModelProblem.inner_product`
and of exported bundles is read off the same declaration, so the analysed
and the applied preconditioner are one object.

The dense Stokes Schur complement ``S`` is formed in blocks of ``C`` columns,
one SuperLU solve each, on one worker per available CPU.  A block's real
right-hand side of ``ns x 2C`` doubles is held near ``SCHUR_BLOCK_BYTES``
(1.5 MiB), because the formation was fastest at 1-4 MB at every level.
Formation time against the block's columns (and MB), two workers on 2 CPUs,
one BLAS thread, against 128 columns on one thread:

* level 4 (``ns`` = 1,985): 16 (0.5) 0.125 s, 32 (1.0) 0.114 s, 55 (1.7)
  0.107 s, 128 (4.1) 0.145 s; one thread 0.264 s;
* level 5 (8,065): 4 (0.5) 2.88 s, 8 (1.0) 2.2 s, 16 (2.1) 2.2 s, 64 (8.3)
  3.06 s; one thread 7.12 s;
* level 6 (32,513; 256 of the 8,320 columns): 2 (1.0) 1.83 s, 3 (1.6)
  1.44 s, 4 (2.1) 1.45 s, 32 (16.6) 1.92 s; one thread 4.11 s.

1.5 MiB is the smallest budget that keeps 3 columns at level 6.  Each worker
thread's allocator arena keeps about one block's working set after the
solves, so the peak RSS grows with the budget too.

Right-hand sides use the nodal interpolant of the target multiplied by the
mass matrix.  The scalar target mirrors the stream-function profile of the
velocity target so that both vanish on the whole boundary.
"""

from __future__ import annotations

import concurrent.futures
import functools
import os
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from ..densecore import real_columns
from ..krylov import LinearOperator
from ..saddle import InnerProduct, SaddleSystem
from .assembly import assemble_p1, assemble_taylor_hood
from .mesh import Mesh

__all__ = [
    "BlockPreconditioner",
    "ModelProblem",
    "SpdFactor",
    "check_parameters",
    "parabolic_kkt",
    "parabolic_reduced",
    "stokes_system",
    "target_state",
    "target_velocity",
    "stream_profile",
    "stream_profile_derivative",
]

#: Refuse dense conversion above this system dimension.
DENSE_LIMIT = 6000

#: Bytes of the real right-hand side of one Stokes Schur block (see the
#: module docstring): a block of ``C`` columns of ``S`` solves ``ns x 2C``
#: doubles, ``C = SCHUR_BLOCK_BYTES // (16 ns)``, which is 49 columns at
#: level 4, 12 at level 5 and 3 at level 6.
SCHUR_BLOCK_BYTES = 3 << 19


def stream_profile(z):
    """Profile ``(1 - cos(0.8 pi z)) (1 - z)^2``; vanishes with its
    derivative at z = 0 and z = 1."""
    z = np.asarray(z, dtype=float)
    return (1.0 - np.cos(0.8 * np.pi * z)) * (1.0 - z) ** 2


def stream_profile_derivative(z):
    z = np.asarray(z, dtype=float)
    return 0.8 * np.pi * np.sin(0.8 * np.pi * z) * (1.0 - z) ** 2 - 2.0 * (
        1.0 - np.cos(0.8 * np.pi * z)
    ) * (1.0 - z)


def target_velocity(x, y):
    """Divergence-free target velocity: 10 times the rotated gradient of
    ``stream_profile(x) * stream_profile(y)``."""
    u = 10.0 * stream_profile(x) * stream_profile_derivative(y)
    v = -10.0 * stream_profile_derivative(x) * stream_profile(y)
    return u, v


def target_state(x, y):
    """Scalar target ``10 * stream_profile(x) * stream_profile(y)``."""
    return 10.0 * stream_profile(x) * stream_profile(y)


class SpdFactor:
    """A real SPD block, factored once; ``solve`` takes real ``(n, k)``
    right-hand sides.

    Sparse blocks go to SuperLU in symmetric mode: an SPD matrix needs no
    pivoting, and minimum degree on ``A^T + A`` fills far less than the
    default column ordering.  Dense blocks are Cholesky factored; the
    factorization checks the matrix once, so solves skip the finiteness scan
    of the factor.
    """

    def __init__(self, matrix):
        self.matrix = matrix
        if scipy.sparse.issparse(matrix):
            self.solve = scipy.sparse.linalg.splu(
                scipy.sparse.csc_matrix(matrix),
                permc_spec="MMD_AT_PLUS_A",
                diag_pivot_thresh=0.0,
                options={"SymmetricMode": True},
            ).solve
        else:
            cho = scipy.linalg.cho_factor(matrix)
            self.solve = functools.partial(
                scipy.linalg.cho_solve, cho, check_finite=False
            )


class BlockPreconditioner:
    """Inverse of a block-diagonal SPD matrix, applied to complex vectors.

    ``blocks`` lists ``(factor, slices, scales)`` with an :class:`SpdFactor`
    of a block ``A``.  On each of its ``slices`` of the system the
    preconditioner applies ``scale * A^{-1}``, so the inner-product matrix
    has the diagonal block ``A / scale`` there.  The slices of all blocks
    must tile ``range(dim)``.

    An application gathers the slices of each factor into one ``(n, k)``
    array, views a complex one as a real ``(n, 2k)`` array (real and
    imaginary parts become interleaved columns, without a copy, by
    :func:`~saddlebounds.densecore.real_columns`), solves once, and scatters
    the scaled result into a preallocated output.  Inputs
    of shape ``(dim,)`` and ``(dim, k)`` are accepted and never mutated.
    """

    def __init__(self, dim: int, blocks):
        self.dim = dim
        self._blocks = [(f, list(slices), list(scales)) for f, slices, scales in blocks]
        # The output is allocated uninitialized, so a gap would go unnoticed.
        cover = np.zeros(dim, dtype=int)
        for _, slices, _ in self._blocks:
            for rows in slices:
                cover[rows] += 1
        if not np.all(cover == 1):
            raise ValueError(f"preconditioner slices do not tile range({dim})")

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x)
        if x.ndim not in (1, 2) or x.shape[0] != self.dim:
            raise ValueError(
                f"input has shape {x.shape}, expected ({self.dim},) or ({self.dim}, k)"
            )
        cols = x.reshape(self.dim, -1)
        k = cols.shape[1]
        dtype = np.result_type(x.dtype, np.float64)
        out = np.empty(cols.shape, dtype=dtype)
        for factor, slices, scales in self._blocks:
            rhs = np.concatenate([cols[rows] for rows in slices], axis=1, dtype=dtype)
            sol = real_columns(factor.solve, rhs)
            for j, (rows, scale) in enumerate(zip(slices, scales)):
                np.multiply(sol[:, j * k : (j + 1) * k], scale, out=out[rows])
        return out.reshape(x.shape)

    def matrix(self) -> scipy.sparse.csr_matrix:
        """The inner-product matrix that this preconditioner inverts, as CSR:
        each block divided by its scale on each of its slices."""
        parts = {}
        for factor, slices, scales in self._blocks:
            block = scipy.sparse.coo_matrix(factor.matrix)
            for rows, scale in zip(slices, scales):
                # Not block / scale: scipy multiplies by 1 / scale, which rounds.
                parts[rows.start] = scipy.sparse.coo_matrix(
                    (block.data / scale, (block.row, block.col)), shape=block.shape
                )
        return scipy.sparse.block_diag([parts[k] for k in sorted(parts)], format="csr")


@dataclass
class ModelProblem:
    """Assembled optimality system, inner product, right-hand side, metadata.

    Blocks are kept sparse so the largest experiments stay matrix-free, each
    in the field of its values (only blocks with an ``i omega`` term are
    complex; a vanishing ``C`` is empty); :meth:`matrix` assembles the system
    in complex128, and :meth:`saddle_system` and :meth:`inner_product`
    densify for the exact eigenvalue analyses at desk scale.
    ``precond_solve`` applies the inverse of the block-diagonal inner-product
    matrix, whose sparse blocks :meth:`inner_product_blocks` returns.
    """

    flavor: str
    level: int
    nu: float
    omega: float
    a: scipy.sparse.spmatrix
    b: scipy.sparse.spmatrix
    c: scipy.sparse.spmatrix
    rhs: np.ndarray
    precond_solve: BlockPreconditioner

    @property
    def n(self) -> int:
        return self.a.shape[0]

    @property
    def m(self) -> int:
        return self.b.shape[0]

    @property
    def dim(self) -> int:
        return self.n + self.m

    def matrix(self) -> scipy.sparse.csr_matrix:
        """Sparse assembled system ``[[A, B*], [B, -C]]``."""
        return scipy.sparse.bmat(
            [[self.a, self.b.conj().T], [self.b, -self.c]], format="csr", dtype=np.complex128
        )

    def operator(self) -> LinearOperator:
        mat = self.matrix()
        return LinearOperator(dim=self.dim, apply=lambda x: mat @ x)

    def preconditioner(self) -> LinearOperator:
        return LinearOperator(dim=self.dim, apply=self.precond_solve)

    def check_dense(self) -> None:
        if self.dim > DENSE_LIMIT:
            raise ValueError(
                f"dense conversion refused at dimension {self.dim} "
                f"(> {DENSE_LIMIT}); use the operator interface"
            )

    def inner_product_blocks(self) -> tuple[scipy.sparse.csr_matrix, scipy.sparse.csr_matrix]:
        """The sparse blocks ``P`` and ``R`` of the inner-product matrix
        ``Pc = diag(P, R)``; raises ``ValueError`` if ``Pc`` couples the
        first ``n`` unknowns to the others."""
        pc = self.precond_solve.matrix()
        n = self.n
        if pc[:n, n:].nnz:
            raise ValueError(f"the inner product couples unknowns 0:{n} to {n}:{self.dim}")
        return pc[:n, :n], pc[n:, n:]

    def saddle_system(self) -> SaddleSystem:
        self.check_dense()
        return SaddleSystem(a=self.a, b=self.b, c=self.c)

    def inner_product(self) -> InnerProduct:
        self.check_dense()
        return InnerProduct(*self.inner_product_blocks())


def check_parameters(nu: float, omega: float) -> None:
    """Raise ``ValueError`` unless the builders accept ``nu`` and ``omega``."""
    if not 0.0 < nu < np.inf:
        raise ValueError(f"cost parameter nu must be positive and finite, got {nu}")
    if not 0.0 <= omega < np.inf:
        raise ValueError(
            f"frequency omega must be nonnegative and finite, got {omega} "
            "(the inner product uses omega itself, not |omega|)"
        )


def _shifted_operator(mass, stiffness, nu: float, omega: float):
    """The robust scalar building block ``M + sqrt(nu) (K + omega M)``."""
    return (mass + np.sqrt(nu) * (stiffness + omega * mass)).tocsr()


def parabolic_kkt(mesh: Mesh, nu: float, omega: float) -> ModelProblem:
    """Full 3n x 3n optimality system of the parabolic tracking problem.

    Blocks: ``A = diag(M, nu M)``, ``B = [K + i omega M, -M]``, C = 0; the
    inner product uses ``P = diag(Y, nu M)`` and ``R = Y / nu`` with
    ``Y = M + sqrt(nu) (K + omega M)``.
    """
    check_parameters(nu, omega)
    fem = assemble_p1(mesh)
    mass, stiff = fem.mass, fem.stiffness
    n = fem.dim
    y_op = _shifted_operator(mass, stiff, nu, omega)

    a = scipy.sparse.block_diag([mass, nu * mass], format="csr")
    b = scipy.sparse.hstack([(stiff + 1j * omega * mass), -mass], format="csr")
    precond = BlockPreconditioner(
        3 * n,
        [
            (SpdFactor(y_op), [slice(0, n), slice(2 * n, 3 * n)], [1.0, nu]),
            (SpdFactor(mass), [slice(n, 2 * n)], [1.0 / nu]),
        ],
    )

    coords = mesh.vertices[fem.interior]
    y_d = target_state(coords[:, 0], coords[:, 1])
    rhs = np.concatenate(
        [mass @ y_d, np.zeros(n), np.zeros(n)]
    ).astype(np.complex128)

    return ModelProblem(
        flavor="parabolic-kkt",
        level=mesh.level,
        nu=nu,
        omega=omega,
        a=a,
        b=b,
        c=scipy.sparse.csr_matrix((n, n), dtype=np.result_type(a.dtype, b.dtype)),
        rhs=rhs,
        precond_solve=precond,
    )


def parabolic_reduced(mesh: Mesh, nu: float, omega: float) -> ModelProblem:
    """Reduced (control eliminated, rescaled) 2n x 2n parabolic system.

    ``[[M, sqrt(nu)(K - i omega M)], [sqrt(nu)(K + i omega M), -M]]`` with
    inner product ``diag(P, P)``, ``P = M + sqrt(nu) (K + omega M)``.  The
    (2,2) block equals minus the (1,1) block, so the preconditioned spectrum
    is symmetric around zero.
    """
    check_parameters(nu, omega)
    fem = assemble_p1(mesh)
    mass, stiff = fem.mass, fem.stiffness
    n = fem.dim
    p_op = _shifted_operator(mass, stiff, nu, omega)

    a = mass
    b = (np.sqrt(nu) * (stiff + 1j * omega * mass)).tocsr()
    c = mass.copy()  # (2,2) block of the matrix is -M

    precond = BlockPreconditioner(
        2 * n, [(SpdFactor(p_op), [slice(0, n), slice(n, 2 * n)], [1.0, 1.0])]
    )

    coords = mesh.vertices[fem.interior]
    y_d = target_state(coords[:, 0], coords[:, 1])
    rhs = np.concatenate([mass @ y_d, np.zeros(n)]).astype(np.complex128)

    return ModelProblem(
        flavor="parabolic-reduced",
        level=mesh.level,
        nu=nu,
        omega=omega,
        a=a,
        b=b,
        c=c,
        rhs=rhs,
        precond_solve=precond,
    )


def _schur_complement(ps_factor: SpdFactor, dx, dy) -> np.ndarray:
    """Dense exact pressure Schur complement ``S = Dx Ps^{-1} Dx^T + Dy
    Ps^{-1} Dy^T`` (mp x mp), symmetrized.

    The divergence blocks stay sparse.  Each block of ``C`` columns of ``S``
    makes one solve with the ``ns x 2C`` real right-hand side ``[Dx^T, Dy^T]``
    restricted to those columns, sized by :data:`SCHUR_BLOCK_BYTES`.  The
    blocks run on one worker per available CPU, at most one per block: the
    calling thread and a pool of the others, which share the one factor
    (SuperLU releases the GIL during the solve).  Every block writes only its
    own rows, so ``S`` does not depend on the number of workers.  A failing
    block raises here once every worker is joined; the workers take no new
    block after it.
    """
    mp, ns = dx.shape
    width = max(1, SCHUR_BLOCK_BYTES // (16 * ns))
    dxt, dyt = dx.T.tocsc(), dy.T.tocsc()
    schur = np.empty((mp, mp))
    blocks = range(0, mp, width)
    starts = iter(blocks)

    def drain() -> None:
        try:
            for start in starts:
                cols = slice(start, min(start + width, mp))
                rhs = scipy.sparse.hstack([dxt[:, cols], dyt[:, cols]]).toarray()
                sol = ps_factor.solve(rhs)
                half = sol.shape[1] // 2
                # Stored as rows, which are contiguous; S is symmetric.
                schur[cols] = (dx @ sol[:, :half] + dy @ sol[:, half:]).T
        except BaseException:
            for _ in starts:  # the other workers stop after their block
                pass
            raise

    # The pool starts a thread per submitted task only, so one worker runs
    # inline; leaving the pool joins the others.
    workers = min(len(os.sched_getaffinity(0)), len(blocks))
    with concurrent.futures.ThreadPoolExecutor(max(workers - 1, 1)) as pool:
        helpers = [pool.submit(drain) for _ in range(workers - 1)]
        drain()
        for helper in helpers:
            helper.result()
    return 0.5 * (schur + schur.T)


def stokes_system(mesh: Mesh, nu: float, omega: float) -> ModelProblem:
    """Reordered and rescaled Stokes velocity-tracking optimality system.

    Unknowns are ``(u, w, p, r)`` with velocity-like ``u, w`` (two P2
    components each) and pressure-like ``p, r`` (P1, one dof pinned each):

    * ``A = [[Mv, sqrt(nu)(Kv - i omega Mv)], [sqrt(nu)(Kv + i omega Mv), -Mv]]``
    * ``B = -sqrt(nu) [[0, D], [D, 0]]`` with ``D = [Dx, Dy]`` the pinned
      divergence
    * ``P = diag(Pv, Pv)`` with ``Pv = Mv + sqrt(nu)(Kv + omega Mv)``
    * ``R = nu diag(S, S)`` with ``S = D Pv^{-1} D^T`` formed densely in
      column blocks via the factorization of the scalar component block.

    R is the exact Schur complement of the coupling in the P geometry, which
    forces the coupling inf-sup constant and norm to equal one.
    """
    check_parameters(nu, omega)
    fem = assemble_taylor_hood(mesh)
    ms, ks = fem.scalar_mass, fem.scalar_stiffness
    ns = fem.velocity_component_dim
    mp = fem.pressure_dim
    sqrt_nu = np.sqrt(nu)

    mv = scipy.sparse.block_diag([ms, ms], format="csr")
    kv = scipy.sparse.block_diag([ks, ks], format="csr")
    dx, dy = fem.div_x, fem.div_y  # D = [Dx, Dy], (mp, 2 ns)

    a = scipy.sparse.bmat(
        [
            [mv, sqrt_nu * (kv - 1j * omega * mv)],
            [sqrt_nu * (kv + 1j * omega * mv), -mv],
        ],
        format="csr",
    )
    b = (-sqrt_nu) * scipy.sparse.bmat(
        [[None, None, dx, dy], [dx, dy, None, None]], format="csr"
    )

    ps_factor = SpdFactor(_shifted_operator(ms, ks, nu, omega))
    schur = _schur_complement(ps_factor, dx, dy)

    velocity = [slice(j * ns, (j + 1) * ns) for j in range(4)]  # u_x, u_y, w_x, w_y
    pressure = [slice(4 * ns + j * mp, 4 * ns + (j + 1) * mp) for j in range(2)]
    precond = BlockPreconditioner(
        4 * ns + 2 * mp,
        [
            (ps_factor, velocity, [1.0] * 4),
            (SpdFactor(schur), pressure, [1.0 / nu] * 2),
        ],
    )

    coords = fem.p2_coordinates[fem.interior]
    u_target, v_target = target_velocity(coords[:, 0], coords[:, 1])
    rhs = np.concatenate(
        [
            ms @ u_target,
            ms @ v_target,
            np.zeros(2 * ns),
            np.zeros(2 * mp),
        ]
    ).astype(np.complex128)

    return ModelProblem(
        flavor="stokes",
        level=mesh.level,
        nu=nu,
        omega=omega,
        a=a,
        b=b,
        c=scipy.sparse.csr_matrix((2 * mp, 2 * mp), dtype=np.result_type(a.dtype, b.dtype)),
        rhs=rhs,
        precond_solve=precond,
    )
