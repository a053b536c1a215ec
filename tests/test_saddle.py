import math
import re
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from saddlebounds import densecore, saddle
from saddlebounds.bounds import (
    b_norm_upper,
    gamma_classical,
    gamma_opt_general,
    gamma_simple,
    inclusion_set,
    witness_general,
)
from saddlebounds.densecore import cholesky
from saddlebounds.fem import build_mesh, parabolic_kkt, parabolic_reduced
from saddlebounds.saddle import (
    SaddleSystem,
    babuska_constants,
    block_decompose,
    brezzi_constants,
    preconditioned_spectrum,
    reduce_system,
)
from saddlebounds.verify import random_coercive_system, random_hermitian
from dense_pair import inner_product_matrix, reduce_problem, saddle_system


def assemble_decomposition(dec):
    """The 3x3 block operator ``[[A00, A01, 0], [A10, A11, B1*], [0, B1, 0]]``."""
    k, m = dec.v0.shape[1], dec.b1.shape[0]
    zk = np.zeros((k, m), dtype=np.complex128)
    zm = np.zeros((m, m), dtype=np.complex128)
    return np.block(
        [
            [dec.a00, dec.a01, zk],
            [dec.a10, dec.a11, dec.b1.conj().T],
            [zk.conj().T, dec.b1, zm],
        ]
    )


def three_by_three_inverse(dec):
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


def p_unitary(rng, p):
    """Random U with U* P U = P."""
    n = p.shape[0]
    l = scipy.linalg.cholesky(p, lower=True)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return scipy.linalg.solve_triangular(l.conj().T, (q @ l.conj().T), lower=False)


class TestSystemModel:
    def test_compare_by_identity(self):
        # Array fields have no single truth value; == must not raise.
        sys = SaddleSystem(a=np.eye(2), b=np.ones((1, 2)))
        assert sys == sys and sys != SaddleSystem(a=np.eye(2), b=np.ones((1, 2)))

    def test_blocks_keep_their_field(self):
        # Exactly-real complex input narrows to float64, and the zero C
        # stays absent; so do P and R, so the reduced blocks of a real
        # system stay real.
        sys = SaddleSystem(a=np.eye(2, dtype=complex), b=np.ones((1, 2), dtype=complex))
        assert sys.a.dtype == sys.b.dtype == np.float64 and sys.c is None
        mixed = SaddleSystem(a=np.eye(2), b=np.array([[1.0, 1j]]))
        assert mixed.a.dtype == np.float64 and mixed.c is None
        red = reduce_system(sys, np.diag([2.0, 3.0 + 0j]), np.array([[4.0 + 0j]]))
        assert red.a.dtype == red.b.dtype == np.float64 and red.c is None

    @pytest.mark.parametrize("kind", [np.asarray, scipy.sparse.csr_array, np.ndarray.tolist],
                             ids=["dense", "sparse", "list"])
    @pytest.mark.parametrize("field", [float, complex])
    def test_coupling_block_stored_as_its_adjoint(self, rng, kind, field):
        # B is stored once, as the Fortran-ordered n x m B*, and read back
        # as B bit for bit.
        b = rng.standard_normal((3, 7)).astype(field)
        if field is complex:
            b.imag = rng.standard_normal((3, 7))
        sys = SaddleSystem(a=np.eye(7), b=kind(b))
        assert sys.bh.shape == (7, 3) and sys.bh.flags.f_contiguous
        assert sys.bh.dtype == sys.b.dtype == b.dtype
        assert sys.b.tobytes() == b.tobytes()

    @pytest.mark.parametrize("field", [float, complex])
    def test_reduced_coupling_block(self, rng, field):
        # The reduction returns G* = (Lr^{-1} B Lp^{-*})* as the reduced
        # system's Fortran-ordered bh; here G is solved densely, by itself.
        sys, p, r = random_coercive_system(rng, 8, 3)
        if field is float:
            sys, p, r = SaddleSystem(a=sys.a.real, b=sys.b.real), p.real, r.real
        red = reduce_system(sys, p, r)
        assert red.bh.shape == (8, 3) and red.bh.flags.f_contiguous
        assert red.bh.dtype == np.dtype(field)
        lp, lr = (scipy.linalg.cholesky(x, lower=True) for x in (p, r))
        lr_b = scipy.linalg.solve_triangular(lr, sys.b, lower=True)
        g = scipy.linalg.solve_triangular(lp, lr_b.conj().T, lower=True).conj().T
        assert np.max(np.abs(red.bh - g.conj().T)) <= 1e-12 * np.max(np.abs(g))

    def test_assemble_lower_block_triangle(self, rng):
        # Without the mirror the buffer holds the same lower block triangle,
        # bit for bit, and a zero B* block.
        sys, _, _ = random_coercive_system(rng, 5, 2)
        sys = SaddleSystem(a=sys.a, b=sys.b, c=random_hermitian(rng, 2))
        full, lower = sys.assemble(), sys.assemble(mirror=False)
        assert lower.flags.f_contiguous and lower.dtype == full.dtype
        assert not np.any(lower[:5, 5:])
        full[:5, 5:] = 0.0
        assert full.tobytes(order="F") == lower.tobytes(order="F")

    EMPTY = {
        "A": (np.zeros((0, 0)), np.zeros((0, 0)), "(1,1) block is empty: shape (0, 0)"),
        "B": (np.eye(3), np.zeros((0, 3)), "coupling block is empty: shape (0, 3)"),
        "sparse-B": (
            np.eye(3), scipy.sparse.coo_array((0, 3)), "coupling block is empty: shape (0, 3)"
        ),
    }

    @pytest.mark.parametrize("case", sorted(EMPTY))
    def test_empty_block_refused(self, case):
        a, b, message = self.EMPTY[case]
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SaddleSystem(a=a, b=b)

    def test_assemble_hermitian(self, rng):
        sys, _, _ = random_coercive_system(rng, 5, 2)
        full = sys.assemble()
        assert np.max(np.abs(full - full.conj().T)) < 1e-12

    @pytest.mark.parametrize("zero_c", [True, False])
    def test_assemble_equals_stacked_blocks(self, rng, zero_c):
        # The one buffer holds what stacking the blocks gave, bit for bit,
        # except that a zero C leaves +0. where the stacked -C held -0.
        sys, _, _ = random_coercive_system(rng, 5, 2)
        c = None if zero_c else random_hermitian(rng, 2)
        sys = SaddleSystem(a=sys.a, b=sys.b, c=c)
        full = sys.assemble()
        assert full.flags.f_contiguous
        c = np.zeros((2, 2), dtype=np.result_type(sys.a, sys.b)) if zero_c else sys.c
        want = np.vstack([np.hstack([sys.a, sys.b.conj().T]), np.hstack([sys.b, -c])])
        if zero_c:
            assert np.signbit(want[5:, 5:].real).all()
            want[5:, 5:] = 0.0
        assert full.dtype == want.dtype
        assert np.ascontiguousarray(full).tobytes() == want.tobytes()

    VANISHING_C = {
        "none": None,
        "dense-zero": np.zeros((2, 2)),
        "sparse-empty": scipy.sparse.coo_array((2, 2)),
        "sparse-explicit-zeros": scipy.sparse.coo_array(
            (np.zeros(2), ([0, 1], [0, 1])), shape=(2, 2)
        ),
    }

    def test_vanishing_c_is_absent(self, rng):
        # Every spelling of a vanishing C is stored as None, and the dense
        # analyses read the same bits off each.
        sys, p, r = random_coercive_system(rng, 6, 2)
        results = []
        for name, c in self.VANISHING_C.items():
            sys_c = SaddleSystem(a=sys.a, b=sys.b, c=c)
            assert sys_c.c is None, name
            red = reduce_system(sys_c, p, r)
            assert red.c is None, name
            results.append(
                (preconditioned_spectrum(red).tobytes(), babuska_constants(red),
                 brezzi_constants(red))
            )
        assert all(result == results[0] for result in results[1:])

    def test_dimension_checks(self):
        with pytest.raises(ValueError, match=r"coupling block is \(1, 2\), expected \(1, 3\)"):
            SaddleSystem(a=np.eye(3), b=np.ones((1, 2)))
        with pytest.raises(ValueError, match=r"\(1,1\) block is \(2, 3\), expected \(2, 2\)"):
            SaddleSystem(a=np.ones((2, 3)), b=np.ones((1, 3)))
        # A vanishing C of the wrong shape is refused, not dropped.
        with pytest.raises(ValueError, match=r"\(2,2\) block is \(2, 2\), expected \(1, 1\)"):
            SaddleSystem(a=np.eye(2), b=np.ones((1, 2)), c=np.zeros((2, 2)))
        sys = SaddleSystem(a=np.eye(2), b=np.eye(2))
        with pytest.raises(ValueError, match="not positive definite"):
            reduce_system(sys, np.eye(2), np.diag([1.0, -1.0]))
        for p, r, name in ((np.eye(3), np.eye(2), "P"), (np.eye(2), np.eye(1), "R")):
            with pytest.raises(ValueError, match=f"inner-product block {name} is"):
                reduce_system(sys, p, r)

    def test_reduction_leaves_its_inputs(self, rng):
        # The reduction works in buffers of its own: the system and dense
        # P and R are left as they were.
        sys, p, r = random_coercive_system(rng, 7, 3)
        kept = [x.copy() for x in (sys.a, sys.b, p, r)]
        reduce_system(sys, p, r)
        for got, want in zip((sys.a, sys.b, p, r), kept):
            assert np.array_equal(got, want)

    def test_reduction_peak_memory(self):
        # n = 600, m = 300: a real A, a complex B, and sparse tridiagonal P
        # and R.  The reduction holds the factors Lp and Lr, the outputs At
        # and G, and one chunk of scratch for the complex right-hand side
        # against a real factor: 12.2 MB, where copying every block peaked
        # at 18.0 MB.
        rng = np.random.default_rng(3)
        n, m = 600, 300
        a = rng.standard_normal((n, n))
        b = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
        sys = SaddleSystem(a=a + a.T, b=b)
        p, r = (
            scipy.sparse.diags_array(
                [np.full(k - 1, -1.0), 4.0 + rng.random(k), np.full(k - 1, -1.0)],
                offsets=[-1, 0, 1],
            ).tocsr()
            for k in (n, m)
        )
        tracemalloc.start()
        try:
            red = reduce_system(sys, p, r)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        live = 8 * (n * n + m * m) + red.a.nbytes + red.b.nbytes
        assert peak <= live + densecore.CHUNK_BYTES


class RealOnly(np.ndarray):
    """A real array that fails every ufunc, matmul included, that would
    promote it to complex."""

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if any(np.iscomplexobj(x) for x in inputs):
            raise AssertionError(f"real factor promoted to complex by {ufunc.__name__}")
        inputs = tuple(x.view(np.ndarray) if isinstance(x, RealOnly) else x for x in inputs)
        return getattr(ufunc, method)(*inputs, **kwargs)


class TestBlockDecompose:
    def test_real_factors_stay_real(self):
        # Level-2 KKT: At and Ct are real and only G is complex.  The
        # reduced blocks are set as they are, without the constructor's
        # narrowing of the promoted copy.
        problem = parabolic_kkt(build_mesh(2), 1.0, 100.0)
        red = reduce_system(saddle_system(problem), *problem.inner_product_blocks())
        assert not any(np.iscomplexobj(x) for x in (red.a, red.c))
        assert np.iscomplexobj(red.b)
        promoted = block_decompose(
            SaddleSystem._of_checked(red.a.astype(complex), red.bh, red.c)
        )
        guarded = SaddleSystem._of_checked(red.a.view(RealOnly), red.bh, red.c)
        dec = block_decompose(guarded)
        for name in ("v0", "v1", "a00", "a01", "a10", "a11", "b1"):
            got, want = getattr(dec, name), getattr(promoted, name)
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want), name
        assert brezzi_constants(guarded).alpha == pytest.approx(
            brezzi_constants(red).alpha, rel=1e-12
        )

    def test_coordinate_split(self):
        sys = SaddleSystem(a=np.eye(2), b=np.array([[0.0, 1.0]]))
        dec = block_decompose(sys)
        assert np.allclose(np.abs(dec.v0[:, 0]), [1.0, 0.0], atol=1e-14)
        assert np.allclose(dec.a00, [[1.0]])
        assert np.allclose(dec.a01, [[0.0]])
        assert np.allclose(dec.a11, [[1.0]])
        # B1 = R* for the Householder QR B* = Q [R; 0], whose reflector maps
        # e2 to -e1.
        assert np.allclose(dec.b1, [[-1.0]])

    def test_witness_blocks(self):
        dec = block_decompose(witness_general(0.5, 1.0, 1.0))
        assert np.allclose(dec.a00, [[0.5]])
        assert np.allclose(np.abs(dec.b1), [[1.0]])

    def test_reconstruction_oracle(self, rng):
        # The 3x3 view is diag(V, I)* [[At, G*], [G, 0]] diag(V, I).
        red = reduce_system(*random_coercive_system(rng, 6, 2))
        dec = block_decompose(red)
        v = np.hstack([dec.v0, dec.v1])
        big = scipy.linalg.block_diag(v, np.eye(red.m))
        reduced = red.assemble()
        rebuilt = big.conj().T @ reduced @ big
        assert np.max(np.abs(rebuilt - assemble_decomposition(dec))) <= 1e-10 * np.max(
            np.abs(reduced)
        )

    def test_basis_contracts(self, rng):
        red = reduce_system(*random_coercive_system(rng, 7, 3))
        dec = block_decompose(red)
        v = np.hstack([dec.v0, dec.v1])
        assert np.max(np.abs(v.conj().T @ v - np.eye(7))) < 1e-10
        assert np.max(np.abs(red.b @ dec.v0)) < 1e-10 * np.linalg.norm(red.b, 2)
        assert np.max(np.abs(dec.a01 - dec.a10.conj().T)) < 1e-10
        # B1 = G V1 = R* is lower triangular, with the singular values of G.
        g_v1 = red.b @ dec.v1
        assert np.max(np.abs(dec.b1 - g_v1)) <= 1e-10 * np.max(np.abs(g_v1))
        assert np.array_equal(dec.b1, np.tril(dec.b1))
        sigma = np.linalg.svd(red.b, compute_uv=False)
        b1_sigma = np.linalg.svd(dec.b1, compute_uv=False)
        assert np.max(np.abs(b1_sigma - sigma)) <= 1e-10 * sigma[0]

    def test_original_geometry(self, rng):
        # Lp^{-*} maps the kernel basis to a P-orthonormal basis of ker(B).
        sys, p, r = random_coercive_system(rng, 7, 3)
        dec = block_decompose(reduce_system(sys, p, r))
        z0 = scipy.linalg.solve_triangular(cholesky(p), dec.v0, lower=True, trans="C")
        assert np.max(np.abs(sys.b @ z0)) < 1e-10 * np.linalg.norm(sys.b, 2)
        assert np.max(np.abs(z0.conj().T @ p @ z0 - np.eye(4))) < 1e-10

    def test_rank_deficient_rejected(self, rng):
        b = np.vstack([np.ones((1, 4)), np.ones((1, 4))])
        sys = SaddleSystem(a=np.eye(4), b=b)
        with pytest.raises(ValueError, match="rank deficient"):
            block_decompose(sys)

    def test_planted_rank_rejected(self, rng):
        for rank in (1, 2, 3):
            left = rng.standard_normal((4, rank)) + 1j * rng.standard_normal((4, rank))
            right = rng.standard_normal((rank, 6)) + 1j * rng.standard_normal((rank, 6))
            sys = SaddleSystem(a=np.eye(6), b=left @ right)
            with pytest.raises(ValueError, match=f"rank deficient: rank {rank} < m = 4"):
                block_decompose(sys)
            with pytest.raises(ValueError, match=f"rank deficient: rank {rank} < m = 4"):
                brezzi_constants(sys)

    def test_square_coupling_has_empty_kernel(self):
        sys = SaddleSystem(a=np.eye(3), b=np.eye(3))
        dec = block_decompose(sys)
        assert dec.v0.shape == (3, 0)
        assert np.allclose(dec.v1.conj().T @ dec.v1, np.eye(3))
        with pytest.raises(ValueError, match="trivial"):
            brezzi_constants(sys)

    def test_hand_kernel(self):
        sys = SaddleSystem(a=np.eye(2), b=np.array([[1.0, 1.0]]))
        dec = block_decompose(sys)
        v = dec.v0[:, 0]
        assert abs(v[0] + v[1]) < 1e-14
        assert np.linalg.norm(v) == pytest.approx(1.0)

    def test_nonzero_c_rejected(self, rng):
        sys = SaddleSystem(a=np.eye(2), b=np.array([[0.0, 1.0]]), c=np.eye(1))
        with pytest.raises(ValueError, match="zero"):
            block_decompose(sys)


def coupling_case(rng, case: str) -> SaddleSystem:
    """A reduced level-1 KKT system (real G at omega = 0, complex at 1), or
    a random complex system with a square or a wide coupling block."""
    if case.startswith("kkt"):
        return reduce_problem(parabolic_kkt(build_mesh(1), 1.0, float(case[-1])))
    n, m = {"square": (5, 5), "wide": (12, 2)}[case]
    b = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
    return SaddleSystem(a=random_hermitian(rng, n), b=b)


class TestCouplingQR:
    """The QR of B* against an independent SVD of B, through checks that do
    not depend on the basis."""

    @pytest.mark.parametrize("case", ["kkt-omega-0", "kkt-omega-1", "square", "wide"])
    def test_matches_svd(self, case, rng):
        sys = coupling_case(rng, case)
        g, n, m = sys.b, sys.n, sys.m
        assert np.iscomplexobj(g) == (case != "kkt-omega-0")
        s = np.linalg.svd(g, compute_uv=False)
        qr, tau, sigma = sys._coupling("test")
        assert np.all(np.abs(sigma - s) <= 1e-12 * s)
        dec = block_decompose(sys)
        kernel = saddle._kernel_basis(qr, tau)
        for v0 in (dec.v0, kernel):
            assert v0.shape == (n, n - m)
            assert np.max(np.abs(g @ v0), initial=0.0) <= 1e-12 * s[0]
            assert np.max(np.abs(v0.conj().T @ v0 - np.eye(n - m)), initial=0.0) <= 1e-12
        assert np.max(np.abs(dec.v0 - kernel), initial=0.0) <= 1e-12
        v = np.hstack([dec.v0, dec.v1])
        assert np.max(np.abs(v.conj().T @ v - np.eye(n))) <= 1e-12
        assert np.max(np.abs(g.conj().T - dec.v1 @ dec.b1.conj().T)) <= 1e-12 * s[0]
        b1_sigma = np.linalg.svd(dec.b1, compute_uv=False)
        assert np.all(np.abs(b1_sigma - s) <= 1e-12 * s)

    def test_system_holds_only_its_blocks(self, rng):
        # Every analysis factors B afresh and leaves nothing on the system.
        analyses = (
            block_decompose,
            brezzi_constants,
            lambda sys: brezzi_constants(sys, overwrite=True),
            babuska_constants,
        )
        for analysis in analyses:
            sys = reduce_system(*random_coercive_system(rng, 7, 3))
            analysis(sys)
            assert set(vars(sys)) == {"a", "bh", "c"}


class TestThreeByThreeInverse:
    def test_coordinate_case(self):
        sys = SaddleSystem(a=np.eye(2), b=np.array([[0.0, 1.0]]))
        dec = block_decompose(sys)
        inv = three_by_three_inverse(dec)
        assert np.allclose(inv @ assemble_decomposition(dec), np.eye(3), atol=1e-12)

    def test_witness_corner_entry(self):
        # lower-right entry is a_norm^2 / (alpha beta^2) = 2 for (0.5, 1, 1)
        dec = block_decompose(witness_general(0.5, 1.0, 1.0))
        inv = three_by_three_inverse(dec)
        assert inv[-1, -1].real == pytest.approx(2.0, rel=1e-12)

    def test_dense_inverse_oracle(self, rng):
        dec = block_decompose(reduce_system(*random_coercive_system(rng, 8, 3)))
        inv = three_by_three_inverse(dec)
        oracle = np.linalg.inv(assemble_decomposition(dec))
        assert np.max(np.abs(inv - oracle)) <= 1e-10 * np.max(np.abs(oracle))

    def test_identity_product(self, rng):
        sys, p, r = random_coercive_system(rng, 6, 2)
        dec = block_decompose(reduce_system(sys, p, r))
        inv = three_by_three_inverse(dec)
        assert np.max(np.abs(inv @ assemble_decomposition(dec) - np.eye(sys.n + sys.m))) < 1e-10


class TestBrezziConstants:
    def test_identity_system(self):
        sys = SaddleSystem(a=np.eye(2), b=np.array([[0.0, 1.0]]))
        bc = brezzi_constants(sys)
        assert bc.alpha == pytest.approx(1.0)
        assert bc.beta == pytest.approx(1.0)
        assert bc.a_norm == pytest.approx(1.0)
        assert bc.b_norm == pytest.approx(1.0)
        assert bc.lambda_min_a == pytest.approx(1.0)
        assert bc.lambda_max_a == pytest.approx(1.0)

    def test_witness_constants(self):
        bc = brezzi_constants(witness_general(0.5, 1.0, 1.0))
        assert bc.alpha == pytest.approx(0.5, abs=1e-12)
        assert bc.beta == pytest.approx(1.0, abs=1e-12)
        assert bc.a_norm == pytest.approx(1.0, abs=1e-12)
        assert bc.lambda_min_a == pytest.approx(-1.0, abs=1e-12)
        assert bc.lambda_max_a == pytest.approx(1.0, abs=1e-12)

    def test_type_invariants(self, rng):
        bc = brezzi_constants(reduce_system(*random_coercive_system(rng, 6, 2)))
        assert bc.lambda_max_a >= bc.alpha > 0.0
        assert bc.kernel_coercive
        assert bc.a_norm == pytest.approx(max(abs(bc.lambda_min_a), bc.lambda_max_a))
        assert bc.beta <= bc.b_norm + 1e-12

    def test_unitary_congruence_invariance(self, rng):
        sys, p, r = random_coercive_system(rng, 6, 3)
        bc = brezzi_constants(reduce_system(sys, p, r))
        u = p_unitary(rng, p)
        w = p_unitary(rng, r)
        sys2 = SaddleSystem(
            a=u.conj().T @ sys.a @ u, b=w.conj().T @ sys.b @ u
        )
        bc2 = brezzi_constants(reduce_system(sys2, p, r))
        for key in ("alpha", "beta", "a_norm", "b_norm", "lambda_min_a", "lambda_max_a"):
            assert getattr(bc, key) == pytest.approx(getattr(bc2, key), abs=1e-10, rel=1e-10)

    def test_not_elliptic_error(self):
        sys = SaddleSystem(
            a=np.diag([0.0, 1.0]), b=np.array([[0.0, 1.0]])
        )
        with pytest.raises(ValueError, match="elliptic"):
            brezzi_constants(sys)

    def test_trivial_kernel_rejected(self):
        sys = SaddleSystem(a=np.eye(2), b=np.eye(2))
        with pytest.raises(ValueError, match="trivial"):
            brezzi_constants(sys)

    def test_tall_coupling_rejected(self):
        sys = SaddleSystem(a=np.eye(2), b=np.ones((3, 2)))
        with pytest.raises(ValueError, match=r"coupling block must be wide, got shape \(3, 2\)"):
            brezzi_constants(sys)

    def test_peak_memory(self):
        # A fixed complex system with n = 600, m = 300 (blocks of 5.76 and
        # 2.88 MB).  The QR keeps the n x m reflectors, and the kernel
        # basis lives only while its block is formed: the traced peak was
        # 10.1 MB, against 18.7 MB for a full SVD of B, which held an n x n
        # W*, an m x m U and a copy of B.
        rng = np.random.default_rng(0)
        b = rng.standard_normal((300, 600)) + 1j * rng.standard_normal((300, 600))
        sys = SaddleSystem(a=random_hermitian(rng, 600), b=b)
        tracemalloc.start()
        try:
            brezzi_constants(sys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12e6

    def test_overwrite_takes_less_memory_and_gives_the_same_bits(self, rng):
        # The same system as above: in its own buffers, Brezzi's constants
        # peak lower by at least half of B (the copy of B* for the QR), and
        # are the same bit for bit.
        def traced(overwrite):
            rng = np.random.default_rng(0)
            b = rng.standard_normal((300, 600)) + 1j * rng.standard_normal((300, 600))
            sys = SaddleSystem(a=random_hermitian(rng, 600), b=b)
            tracemalloc.start()
            try:
                bc = brezzi_constants(sys, overwrite=overwrite)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            return bc, peak, sys.b.nbytes

        (copied, copy_peak, b_bytes), (kept, peak, _) = traced(False), traced(True)
        assert peak < copy_peak - b_bytes // 2
        assert kept == copied

    @pytest.mark.parametrize("fields", ["real", "complex-b", "complex-a"])
    def test_overwrite_on_a_reduced_system(self, fields, rng):
        # The in-place form on a reduction, whose A and B* are both
        # Fortran-ordered, gives the copying form's constants.
        sys, p, r = random_coercive_system(rng, 9, 4)
        if fields != "complex-a":
            sys, p, r = SaddleSystem(a=sys.a.real, b=sys.b), p.real, r.real
        if fields == "real":
            sys = SaddleSystem(a=sys.a, b=sys.b.real)
        want = brezzi_constants(reduce_system(sys, p, r))
        assert brezzi_constants(reduce_system(sys, p, r), overwrite=True) == want


class TestBabuskaConstants:
    def test_identity(self):
        sys = SaddleSystem(a=np.eye(2), b=np.zeros((1, 2)), c=-np.eye(1))
        bab = babuska_constants(sys)
        assert bab.gamma == pytest.approx(1.0)
        assert bab.b_norm == pytest.approx(1.0)

    def test_witness_gamma_is_cubic_root(self):
        sys = witness_general(0.5, 1.0, 1.0)
        bab = babuska_constants(sys)
        # cross-check against an independent bisection on the cubic
        f = lambda m: m**3 - 2.0 * m + 0.5
        lo, hi = 0.0, 0.5
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if f(mid) > 0:
                lo = mid
            else:
                hi = mid
        assert bab.gamma == pytest.approx(0.5 * (lo + hi), rel=1e-12)
        assert bab.gamma == pytest.approx(0.2585, abs=2e-4)

    def test_singular_detected(self):
        sys = SaddleSystem(a=np.diag([1.0, 0.0]), b=np.zeros((1, 2)), c=np.zeros((1, 1)))
        with pytest.raises(ValueError, match="singular"):
            babuska_constants(sys)

    def test_gamma_lower_bound_property(self, rng):
        # the cubic bound from the extracted constants never exceeds gamma
        for _ in range(25):
            n = int(rng.integers(3, 9))
            m = int(rng.integers(1, min(n, 5)))
            red = reduce_system(*random_coercive_system(rng, n, m))
            bc = brezzi_constants(red)
            bab = babuska_constants(red)
            assert bab.gamma >= gamma_opt_general(bc.alpha, bc.beta, bc.a_norm) - 1e-10

    def test_norm_upper_bound_property(self, rng):
        for _ in range(25):
            n = int(rng.integers(3, 9))
            m = int(rng.integers(1, min(n, 5)))
            red = reduce_system(*random_coercive_system(rng, n, m))
            bc = brezzi_constants(red)
            bab = babuska_constants(red)
            assert bab.b_norm <= b_norm_upper(bc.a_norm, bc.b_norm) + 1e-10


def test_spectrum_has_the_same_bits_at_any_blas_thread_count(two_blas_threads):
    # Demo 03's reduced system: its printed pairing defect read 1.22e-15 at
    # one BLAS thread and 1.44e-15 at two while the eigensolve ran uncapped.
    problem = parabolic_reduced(build_mesh(2), nu=1.0, omega=100.0)
    red = reduce_system(
        SaddleSystem(a=problem.a, b=problem.b, c=problem.c), *problem.inner_product_blocks()
    )
    with densecore.one_blas_thread:
        want = preconditioned_spectrum(red)
    assert preconditioned_spectrum(red).tobytes() == want.tobytes()


def assert_matches_pencils(sys, p, r, red):
    """Every dense constant of ``red`` against scipy's pencil eigenvalues of
    the unreduced blocks and ``diag(P, R)``, to 1e-10 relative; returns the
    constants."""

    def close(got, want, scale):
        assert abs(got - want) <= 1e-10 * scale

    mu = preconditioned_spectrum(red)
    ref = scipy.linalg.eigh(sys.assemble(), inner_product_matrix(p, r), eigvals_only=True)
    assert np.max(np.abs(mu - ref)) <= 1e-10 * np.max(np.abs(ref))

    bc = brezzi_constants(red)
    lam = scipy.linalg.eigh(sys.a, p, eigvals_only=True)
    close(bc.lambda_min_a, lam[0], np.max(np.abs(lam)))
    close(bc.lambda_max_a, lam[-1], np.max(np.abs(lam)))
    schur = sys.b @ scipy.linalg.solve(p, sys.b.conj().T)
    coupling = scipy.linalg.eigh(schur, r, eigvals_only=True)
    close(bc.beta**2, coupling[0], coupling[0])
    close(bc.b_norm**2, coupling[-1], coupling[-1])
    z = scipy.linalg.null_space(sys.b)
    kernel = scipy.linalg.eigh(
        z.conj().T @ sys.a @ z, z.conj().T @ p @ z, eigvals_only=True
    )
    alpha = np.min(np.abs(kernel))
    close(bc.alpha, alpha, alpha)
    assert bc.kernel_coercive == bool(kernel[0] > 0.0)
    return mu, bc


class TestDensePathProperty:
    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(
        n=st.integers(3, 12),
        kernel_share=st.floats(0.1, 0.9),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_spectrum_and_gamma_ordering(self, n, kernel_share, seed):
        m = min(n - 1, max(1, int(round((1.0 - kernel_share) * n))))
        rng = np.random.default_rng(seed)
        sys, p, r = random_coercive_system(rng, n, m)
        # One reduction feeds all four analyses.
        red = reduce_system(sys, p, r)
        mu, bc = assert_matches_pencils(sys, p, r, red)
        assert inclusion_set(bc).contains(mu, slack=1e-8)

        # A nonzero Hermitian (2,2) block goes through the reduced C block.
        sys_c = SaddleSystem(a=sys.a, b=sys.b, c=random_hermitian(rng, m))
        mu_c = preconditioned_spectrum(reduce_system(sys_c, p, r))
        ref_c = scipy.linalg.eigh(
            sys_c.assemble(), inner_product_matrix(p, r), eigvals_only=True
        )
        assert np.max(np.abs(mu_c - ref_c)) <= 1e-10 * np.max(np.abs(ref_c))

        gamma = babuska_constants(red).gamma
        chain = [
            gamma_classical(bc.alpha, bc.beta, bc.a_norm),
            gamma_simple(bc.alpha, bc.beta, bc.a_norm),
            gamma_opt_general(bc.alpha, bc.beta, bc.a_norm),
            gamma,
        ]
        for lower, upper in zip(chain, chain[1:]):
            assert lower <= upper * (1.0 + 1e-10)

        # The shared reduction gives what a fresh one does.
        dec = block_decompose(red)
        fresh = reduce_system(sys, p, r)
        dec_fresh = block_decompose(fresh)
        for name in ("v0", "v1", "b1"):
            assert np.array_equal(getattr(dec, name), getattr(dec_fresh, name))
        assert bc == brezzi_constants(fresh)
        g_v1 = red.b @ dec.v1
        assert np.max(np.abs(dec.b1 - g_v1)) <= 1e-10 * np.max(np.abs(g_v1))

    @settings(max_examples=20, deadline=None, derandomize=True, database=None)
    @given(
        n=st.integers(3, 12),
        kernel_share=st.floats(0.1, 0.9),
        seed=st.integers(0, 2**32 - 1),
        real_coupling=st.booleans(),
    )
    def test_mixed_fields(self, n, kernel_share, seed, real_coupling):
        # Real A, P, R with a complex B (the parabolic KKT shape), or the
        # reverse: the real blocks stay real and every constant still matches.
        m = min(n - 1, max(1, int(round((1.0 - kernel_share) * n))))
        rng = np.random.default_rng(seed)
        sys, p, r = random_coercive_system(rng, n, m)
        if real_coupling:
            sys = SaddleSystem(a=sys.a, b=sys.b.real)
        else:
            sys = SaddleSystem(a=sys.a.real, b=sys.b)
            p, r = p.real, r.real
        red = reduce_system(sys, p, r)
        if real_coupling:
            assert sys.b.dtype == np.float64
            assert red.a.dtype == np.complex128
        else:
            # At = Lp^{-1} A Lp^{-*} is real only if the factor of P is.
            assert red.a.dtype == np.float64
        assert red.b.dtype == np.complex128
        assert_matches_pencils(sys, p, r, red)


@pytest.mark.usefixtures("lapack_fallback")
class TestDensePathFallback:
    """The dense-path properties again, with every eigensolve on the fallback
    driver.

    Hypothesis refuses to run one ``@given`` test from two classes, so the
    properties are given their undecorated bodies with the same strategies
    and settings; ``derandomize`` then draws the same examples.
    """

    test_gamma_lower_bound_property = TestBabuskaConstants.test_gamma_lower_bound_property
    test_norm_upper_bound_property = TestBabuskaConstants.test_norm_upper_bound_property
    test_spectrum_and_gamma_ordering = settings(
        max_examples=25, deadline=None, derandomize=True, database=None
    )(given(
        n=st.integers(3, 12),
        kernel_share=st.floats(0.1, 0.9),
        seed=st.integers(0, 2**32 - 1),
    )(TestDensePathProperty.test_spectrum_and_gamma_ordering.hypothesis.inner_test))
    test_mixed_fields = settings(
        max_examples=20, deadline=None, derandomize=True, database=None
    )(given(
        n=st.integers(3, 12),
        kernel_share=st.floats(0.1, 0.9),
        seed=st.integers(0, 2**32 - 1),
        real_coupling=st.booleans(),
    )(TestDensePathProperty.test_mixed_fields.hypothesis.inner_test))


class TestLemma21Inequalities:
    def test_operator_norm_bounds(self, rng):
        for _ in range(30):
            n = int(rng.integers(3, 9))
            m = int(rng.integers(1, min(n, 5)))
            red = reduce_system(*random_coercive_system(rng, n, m))
            dec = block_decompose(red)
            bc = brezzi_constants(red)
            a00_inv = np.linalg.inv(dec.a00)
            cross_bound = math.sqrt(max(bc.a_norm**2 / bc.alpha**2 - 1.0, 0.0))
            assert np.linalg.norm(dec.a10 @ a00_inv, 2) <= cross_bound + 1e-10
            assert np.linalg.norm(a00_inv @ dec.a01, 2) <= cross_bound + 1e-10
            schur = dec.a11 - dec.a10 @ a00_inv @ dec.a01
            assert np.linalg.norm(schur, 2) <= bc.a_norm**2 / bc.alpha + 1e-10
