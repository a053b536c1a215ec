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

A model problem is its blocks ``A``, ``B`` and ``C``, its right-hand side
and its preconditioner declaration.  Each builder declares its inner product
``diag(P, R)`` as a :class:`BlockPreconditioner`: the real SPD blocks along
the diagonal of ``P`` and then of ``R``, each with a scale, one factor
listed once per block it fills.  Every sparse block is factored once by
SuperLU in symmetric mode (minimum degree on ``A^T + A``, no pivoting), the
dense Stokes Schur complement by ``densecore.cholesky`` at one BLAS thread,
so that its factor has the same bits at any thread count.  One application
makes one real multi-column solve per factor: the slices of a factor are
gathered into one complex array whose real and imaginary parts are solved
as interleaved real columns.  The sparse blocks ``P`` and ``R`` of
:meth:`ModelProblem.inner_product_blocks`, which exported bundles hold, are
read off the same declaration (a dense block as ``L L^T`` from its factor),
so the analysed and the applied preconditioner are one object.  A vanishing
``C`` is ``None``, so bundles of such a system hold no C file.  No dense matrix but ``S`` is built here: the
exact analyses pass the sparse blocks ``A``, ``B`` and ``C`` to
``saddle.SaddleSystem`` and ``P`` and ``R`` to ``saddle.reduce_system``.

The dense Stokes Schur complement ``S`` is formed in blocks of ``C`` columns,
one SuperLU solve each, on one worker per available CPU (the affinity mask
where the platform has one, else ``os.cpu_count()``), then checked symmetric,
symmetrized and factored in place, so ``S`` is held once, as its factor.  A
block's real right-hand side of ``ns x 2C`` doubles is held near
``SCHUR_BLOCK_BYTES`` (1.5 MiB), because the formation was fastest at 1-4 MB
at every level.
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

from ..densecore import cholesky, one_blas_thread, real_columns, require_hermitian
from ..krylov import LinearOperator
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
    right-hand sides and ``order`` is ``n``.

    Sparse blocks go to SuperLU in symmetric mode: an SPD matrix needs no
    pivoting, and minimum degree on ``A^T + A`` fills far less than the
    default column ordering.  Dense blocks are factored by
    :func:`~saddlebounds.densecore.cholesky` at one BLAS thread, which
    raises ``NotPositiveDefiniteError`` on an indefinite block; it checks
    the matrix once, so solves skip the finiteness scan of the factor.  Only
    the factor ``lower`` of a dense block is kept (``matrix`` is ``None``):
    a Fortran-ordered float64 block is consumed as its buffer, any other
    copied.
    """

    def __init__(self, matrix):
        self.order = matrix.shape[0]
        if scipy.sparse.issparse(matrix):
            self.matrix = matrix
            self.solve = scipy.sparse.linalg.splu(
                scipy.sparse.csc_matrix(matrix),
                permc_spec="MMD_AT_PLUS_A",
                diag_pivot_thresh=0.0,
                options={"SymmetricMode": True},
            ).solve
        else:
            self.matrix = None
            with one_blas_thread:
                self.lower = cholesky(matrix, overwrite=True)
            self.solve = functools.partial(
                scipy.linalg.cho_solve, (self.lower, True), check_finite=False
            )

    def block(self):
        """The block this factor inverts: the sparse ``matrix``, or ``L L^T``
        of a dense one, formed at one BLAS thread."""
        if self.matrix is not None:
            return self.matrix
        with one_blas_thread:
            return self.lower @ self.lower.T


class BlockPreconditioner:
    """Inverse of a block-diagonal SPD matrix ``Pc = diag(P, R)``, applied to
    complex vectors.

    ``p`` and ``r`` list ``(factor, scale)`` in order along the diagonals of
    ``P`` and ``R``, with an :class:`SpdFactor` of a block ``A``: the
    diagonal block of ``Pc`` there is ``A / scale``, and the preconditioner
    applies ``scale * A^{-1}`` to it.  The slices of the system and ``dim``
    follow from the orders of the factors.

    An application gathers the slices of each distinct factor, however often
    it is listed, into one ``(n, k)`` array, views a complex one as a real
    ``(n, 2k)`` array (real and imaginary parts become interleaved columns,
    without a copy, by :func:`~saddlebounds.densecore.real_columns`), solves
    once, and scatters the scaled result into a preallocated output.  Inputs
    of shape ``(dim,)`` and ``(dim, k)`` are accepted and never mutated.
    """

    def __init__(self, p, r):
        self.p, self.r = list(p), list(r)
        self._blocks = {}  # factor -> [(rows, scale)], in order along the diagonal
        self.dim = 0
        for factor, scale in self.p + self.r:
            rows = slice(self.dim, self.dim + factor.order)
            self._blocks.setdefault(factor, []).append((rows, scale))
            self.dim = rows.stop

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
        for factor, parts in self._blocks.items():
            rhs = np.concatenate([cols[rows] for rows, _ in parts], axis=1, dtype=dtype)
            sol = real_columns(factor.solve, rhs)
            for j, (rows, scale) in enumerate(parts):
                np.multiply(sol[:, j * k : (j + 1) * k], scale, out=out[rows])
        return out.reshape(x.shape)


@dataclass
class ModelProblem:
    """A model problem: its blocks ``A``, ``B`` and ``C``, its right-hand
    side and its preconditioner declaration.

    Blocks are kept sparse so the largest experiments stay matrix-free, each
    in the field of its values (only blocks with an ``i omega`` term are
    complex, so at ``omega = 0`` none is); a vanishing ``C`` is ``None``, as
    in ``saddle.SaddleSystem``.  :meth:`matrix` assembles the system in
    complex128.  ``precond_solve`` applies the inverse of the block-diagonal
    inner-product matrix, whose sparse blocks :meth:`inner_product_blocks`
    returns.
    """

    a: scipy.sparse.spmatrix
    b: scipy.sparse.spmatrix
    c: scipy.sparse.spmatrix | None
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
        """Sparse assembled system ``[[A, B*], [B, -C]]`` in complex128, with
        an empty (2,2) block where C vanishes.

        Each block row is stacked from CSR blocks, then the two rows, without
        the coordinate-format copy that ``bmat`` makes when a block such as
        ``B*`` is CSC; the arrays are bitwise those of ``bmat``.
        """
        c = scipy.sparse.csr_matrix((self.m, self.m)) if self.c is None else -self.c
        upper, lower = (
            scipy.sparse.hstack(
                [block.tocsr() for block in row], format="csr", dtype=np.complex128
            )
            for row in ((self.a, self.b.conj().T), (self.b, c))
        )
        return scipy.sparse.vstack([upper, lower], format="csr")

    def operator(self) -> LinearOperator:
        mat = self.matrix()
        return LinearOperator(dim=self.dim, apply=lambda x: mat @ x)

    def preconditioner(self) -> LinearOperator:
        return LinearOperator(dim=self.dim, apply=self.precond_solve)

    def inner_product_blocks(self) -> tuple[scipy.sparse.csr_matrix, scipy.sparse.csr_matrix]:
        """The sparse blocks ``P`` and ``R`` of the inner-product matrix
        ``Pc = diag(P, R)``, as CSR: the declared blocks
        (:meth:`SpdFactor.block`), each divided by its scale."""

        def scaled(factor, scale):
            block = scipy.sparse.coo_matrix(factor.block())
            # Not block / scale: scipy multiplies by 1 / scale, which rounds.
            return scipy.sparse.coo_matrix(
                (block.data / scale, (block.row, block.col)), shape=block.shape
            )

        pc = self.precond_solve
        return tuple(
            scipy.sparse.block_diag([scaled(f, s) for f, s in side], format="csr")
            for side in (pc.p, pc.r)
        )


def check_parameters(nu: float, omega: float) -> None:
    """Raise ``ValueError`` unless the builders accept ``nu`` and ``omega``."""
    if not 0.0 < nu < np.inf:
        raise ValueError(f"cost parameter nu must be positive and finite, got {nu}")
    if not 0.0 <= omega < np.inf:
        raise ValueError(
            f"frequency omega must be nonnegative and finite, got {omega} "
            "(the inner product uses omega itself, not |omega|)"
        )


def _frequency_shifted(stiffness, mass, omega: float):
    """``K + i omega M``, in which entries that cancel are not stored; at
    ``omega = 0`` the real ``K`` with the same entries."""
    if omega:
        return stiffness + 1j * omega * mass
    stiffness = stiffness.copy()
    stiffness.eliminate_zeros()
    return stiffness


def _shifted_operator(mass, stiffness, nu: float, omega: float):
    """The robust scalar building block ``M + sqrt(nu) (K + omega M)``."""
    return (mass + np.sqrt(nu) * (stiffness + omega * mass)).tocsr()


def _parabolic(mesh: Mesh, nu: float, omega: float):
    """What both parabolic builders share: the checked parameters, the P1
    mass ``M``, the coupling ``K + i omega M``, the robust block ``Y = M +
    sqrt(nu) (K + omega M)`` and the state rows ``M y_d`` of the right-hand
    side.

    ``Y`` is returned unfactored: each builder factors it after forming its
    own blocks, since a factor made first leaves the blocks' temporaries
    above it on the heap, which raised the peak RSS of the level-6 rows by
    4-5 MB.
    """
    check_parameters(nu, omega)
    fem = assemble_p1(mesh)
    mass, stiff = fem.mass, fem.stiffness
    coords = mesh.vertices[fem.interior]
    return (
        mass,
        _frequency_shifted(stiff, mass, omega),
        _shifted_operator(mass, stiff, nu, omega),
        mass @ target_state(coords[:, 0], coords[:, 1]),
    )


def parabolic_kkt(mesh: Mesh, nu: float, omega: float) -> ModelProblem:
    """Full 3n x 3n optimality system of the parabolic tracking problem.

    Blocks: ``A = diag(M, nu M)``, ``B = [K + i omega M, -M]``, C = 0; the
    inner product uses ``P = diag(Y, nu M)`` and ``R = Y / nu`` with
    ``Y = M + sqrt(nu) (K + omega M)``.
    """
    mass, shifted, y_op, state_rows = _parabolic(mesh, nu, omega)
    a = scipy.sparse.block_diag([mass, nu * mass], format="csr")
    b = scipy.sparse.hstack([shifted, -mass], format="csr")
    y_factor = SpdFactor(y_op)
    return ModelProblem(
        a=a,
        b=b,
        c=None,
        rhs=np.concatenate([state_rows, np.zeros(2 * len(state_rows))]).astype(np.complex128),
        precond_solve=BlockPreconditioner(
            [(y_factor, 1.0), (SpdFactor(mass), 1.0 / nu)], [(y_factor, nu)]
        ),
    )


def parabolic_reduced(mesh: Mesh, nu: float, omega: float) -> ModelProblem:
    """Reduced (control eliminated, rescaled) 2n x 2n parabolic system.

    ``[[M, sqrt(nu)(K - i omega M)], [sqrt(nu)(K + i omega M), -M]]`` with
    inner product ``diag(P, P)``, ``P = M + sqrt(nu) (K + omega M)``.  The
    (2,2) block equals minus the (1,1) block, so the preconditioned spectrum
    is symmetric around zero.
    """
    mass, shifted, p_op, state_rows = _parabolic(mesh, nu, omega)
    b = (np.sqrt(nu) * shifted).tocsr()
    p_factor = SpdFactor(p_op)
    return ModelProblem(
        a=mass,
        b=b,
        c=mass.copy(),  # (2,2) block of the matrix is -M
        rhs=np.concatenate([state_rows, np.zeros(len(state_rows))]).astype(np.complex128),
        precond_solve=BlockPreconditioner([(p_factor, 1.0)], [(p_factor, 1.0)]),
    )


@one_blas_thread
def _schur_complement(ps_factor: SpdFactor, dx, dy) -> np.ndarray:
    """Dense exact pressure Schur complement ``S = Dx Ps^{-1} Dx^T + Dy
    Ps^{-1} Dy^T`` (mp x mp, Fortran-ordered for its factor), checked
    symmetric and symmetrized in its own buffer
    (:func:`saddlebounds.densecore.require_hermitian`).

    The divergence blocks stay sparse.  Each block of ``C`` columns of ``S``
    makes one solve with the ``ns x 2C`` real right-hand side ``[Dx^T, Dy^T]``
    restricted to those columns, sized by :data:`SCHUR_BLOCK_BYTES`.  The
    blocks run on one worker per available CPU, at most one per block: the
    calling thread and a pool of the others, which share the one factor
    (SuperLU releases the GIL during the solve).  Every block writes only its
    own columns, so ``S`` does not depend on the number of workers.  A failing
    block raises here once every worker is joined; the workers take no new
    block after it.  BLAS is held at one thread throughout: the workers
    already take every CPU, so a second BLAS thread per solve only
    oversubscribes them.
    """
    mp, ns = dx.shape
    width = max(1, SCHUR_BLOCK_BYTES // (16 * ns))
    dxt, dyt = dx.T.tocsc(), dy.T.tocsc()
    schur = np.empty((mp, mp), order="F")
    blocks = range(0, mp, width)
    starts = iter(blocks)

    def drain() -> None:
        try:
            for start in starts:
                cols = slice(start, min(start + width, mp))
                rhs = scipy.sparse.hstack([dxt[:, cols], dyt[:, cols]]).toarray()
                sol = ps_factor.solve(rhs)
                half = sol.shape[1] // 2
                schur[:, cols] = dx @ sol[:, :half] + dy @ sol[:, half:]
        except BaseException:
            for _ in starts:  # the other workers stop after their block
                pass
            raise

    # The pool starts a thread per submitted task only, so one worker runs
    # inline; leaving the pool joins the others.
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:  # macOS and Windows have no affinity mask
        cpus = os.cpu_count() or 1
    workers = min(cpus, len(blocks))
    with concurrent.futures.ThreadPoolExecutor(max(workers - 1, 1)) as pool:
        helpers = [pool.submit(drain) for _ in range(workers - 1)]
        drain()
        for helper in helpers:
            helper.result()
    return require_hermitian(schur, overwrite=True)


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
            [mv, sqrt_nu * _frequency_shifted(kv, mv, -omega)],
            [sqrt_nu * _frequency_shifted(kv, mv, omega), -mv],
        ],
        format="csr",
    )
    b = (-sqrt_nu) * scipy.sparse.bmat(
        [[None, None, dx, dy], [dx, dy, None, None]], format="csr"
    )

    ps_factor = SpdFactor(_shifted_operator(ms, ks, nu, omega))
    schur = _schur_complement(ps_factor, dx, dy)

    precond = BlockPreconditioner([(ps_factor, 1.0)] * 4, [(SpdFactor(schur), 1.0 / nu)] * 2)

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
        a=a,
        b=b,
        c=None,
        rhs=rhs,
        precond_solve=precond,
    )
