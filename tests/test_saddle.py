import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from saddlebounds.bounds import (
    b_norm_upper,
    gamma_classical,
    gamma_opt_general,
    gamma_simple,
    inclusion_set,
    witness_general,
)
from saddlebounds.densecore import generalized_hermitian_eig
from saddlebounds.fem import build_mesh, parabolic_kkt
from saddlebounds.saddle import (
    InnerProduct,
    ReducedSystem,
    SaddleSystem,
    babuska_constants,
    block_decompose,
    brezzi_constants,
    preconditioned_spectrum,
    reduce_system,
)
from saddlebounds.verify import random_coercive_system, random_hermitian


def assemble_decomposition(dec):
    """The 3x3 block operator ``[[A00, A01, 0], [A10, A11, B1*], [0, B1, 0]]``."""
    k, m = dec.z0.shape[1], dec.b1.shape[0]
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
        ip = InnerProduct.identity(2, 1)
        assert ip == ip and ip != InnerProduct.identity(2, 1)
        sys = SaddleSystem(a=np.eye(2), b=np.ones((1, 2)))
        assert sys == sys and sys != SaddleSystem(a=np.eye(2), b=np.ones((1, 2)))

    def test_blocks_keep_their_field(self):
        # Exactly-real complex input narrows to float64; the zero C and the
        # assembled inner product take the dtype of their blocks.
        sys = SaddleSystem(a=np.eye(2, dtype=complex), b=np.ones((1, 2), dtype=complex))
        assert sys.a.dtype == sys.b.dtype == sys.c.dtype == np.float64
        mixed = SaddleSystem(a=np.eye(2), b=np.array([[1.0, 1j]]))
        assert mixed.a.dtype == np.float64 and mixed.c.dtype == np.complex128
        ip = InnerProduct(p=np.eye(2, dtype=complex), r=np.eye(1))
        assert ip.lp.dtype == ip.assemble().dtype == np.float64

    def test_assemble_hermitian(self, rng):
        sys, _ = random_coercive_system(rng, 5, 2)
        full = sys.assemble()
        assert np.max(np.abs(full - full.conj().T)) < 1e-12

    def test_dimension_checks(self):
        with pytest.raises(ValueError):
            SaddleSystem(a=np.eye(3), b=np.ones((1, 2)))
        with pytest.raises(ValueError):
            InnerProduct(p=np.eye(2), r=np.diag([1.0, -1.0]))


class RealOnly(np.ndarray):
    """A real array that fails every ufunc, matmul included, that would
    promote it to complex."""

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if any(np.iscomplexobj(x) for x in inputs):
            raise AssertionError(f"real factor promoted to complex by {ufunc.__name__}")
        inputs = tuple(x.view(np.ndarray) if isinstance(x, RealOnly) else x for x in inputs)
        return getattr(ufunc, method)(*inputs, **kwargs)


class TestBlockDecompose:
    def test_real_factors_stay_real(self, monkeypatch):
        # Level-2 KKT: At, Lp and Lr are real and only G is complex.
        problem = parabolic_kkt(build_mesh(2), 1.0, 100.0)
        red = reduce_system(problem.saddle_system(), problem.inner_product())
        assert not any(np.iscomplexobj(x) for x in (red.at, red.lp, red.lr))
        assert np.iscomplexobj(red.g)
        promoted = block_decompose(ReducedSystem(
            at=red.at.astype(complex), g=red.g, ct=red.ct,
            lp=red.lp.astype(complex), lr=red.lr.astype(complex),
        ))
        solve = scipy.linalg.solve_triangular

        def real_solve(a, b, **kwargs):
            assert np.iscomplexobj(a) or not np.iscomplexobj(b), "real factor promoted"
            return solve(a, b, **kwargs)

        monkeypatch.setattr(scipy.linalg, "solve_triangular", real_solve)
        guarded = ReducedSystem(
            at=red.at.view(RealOnly), g=red.g, ct=red.ct,
            lp=red.lp.view(RealOnly), lr=red.lr.view(RealOnly),
        )
        dec = block_decompose(guarded)
        for name in ("z0", "z1", "a00", "a01", "a10", "a11", "b1"):
            got, want = getattr(dec, name), getattr(promoted, name)
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want), name
        assert brezzi_constants(guarded).alpha == pytest.approx(
            brezzi_constants(red).alpha, rel=1e-12
        )

    def test_coordinate_split(self):
        sys = SaddleSystem(a=np.eye(2), b=np.array([[0.0, 1.0]]))
        dec = block_decompose(reduce_system(sys, InnerProduct.identity(2, 1)))
        assert np.allclose(np.abs(dec.z0[:, 0]), [1.0, 0.0], atol=1e-14)
        assert np.allclose(dec.a00, [[1.0]])
        assert np.allclose(dec.a01, [[0.0]])
        assert np.allclose(dec.a11, [[1.0]])
        assert np.allclose(dec.b1, [[1.0]])

    def test_witness_blocks(self):
        dec = block_decompose(
            reduce_system(witness_general(0.5, 1.0, 1.0), InnerProduct.identity(2, 1))
        )
        assert np.allclose(dec.a00, [[0.5]])
        assert np.allclose(np.abs(dec.b1), [[1.0]])

    def test_reconstruction_oracle(self, rng):
        sys, ip = random_coercive_system(rng, 6, 2)
        dec = block_decompose(reduce_system(sys, ip))
        z = np.hstack([dec.z0, dec.z1])
        big = scipy.linalg.block_diag(z, np.eye(sys.m))
        rebuilt = big.conj().T @ sys.assemble() @ big
        assert np.max(np.abs(rebuilt - assemble_decomposition(dec))) <= 1e-10 * np.max(
            np.abs(sys.assemble())
        )

    def test_basis_contracts(self, rng):
        sys, ip = random_coercive_system(rng, 7, 3)
        dec = block_decompose(reduce_system(sys, ip))
        z = np.hstack([dec.z0, dec.z1])
        assert np.max(np.abs(z.conj().T @ ip.p @ z - np.eye(7))) < 1e-10
        assert np.max(np.abs(sys.b @ dec.z0)) < 1e-10 * np.linalg.norm(sys.b, 2)
        assert np.max(np.abs(dec.a01 - dec.a10.conj().T)) < 1e-10

    def test_rank_deficient_rejected(self, rng):
        b = np.vstack([np.ones((1, 4)), np.ones((1, 4))])
        sys = SaddleSystem(a=np.eye(4), b=b)
        with pytest.raises(ValueError, match="rank deficient"):
            block_decompose(reduce_system(sys, InnerProduct.identity(4, 2)))

    def test_planted_rank_rejected(self, rng):
        for rank in (1, 2, 3):
            left = rng.standard_normal((4, rank)) + 1j * rng.standard_normal((4, rank))
            right = rng.standard_normal((rank, 6)) + 1j * rng.standard_normal((rank, 6))
            sys = SaddleSystem(a=np.eye(6), b=left @ right)
            red = reduce_system(sys, InnerProduct.identity(6, 4))
            with pytest.raises(ValueError, match=f"rank deficient: rank {rank} < m = 4"):
                block_decompose(red)
            with pytest.raises(ValueError, match=f"rank deficient: rank {rank} < m = 4"):
                brezzi_constants(red)

    def test_square_coupling_has_empty_kernel(self):
        sys = SaddleSystem(a=np.eye(3), b=np.eye(3))
        red = reduce_system(sys, InnerProduct.identity(3, 3))
        dec = block_decompose(red)
        assert dec.z0.shape == (3, 0)
        assert np.allclose(dec.z1.conj().T @ dec.z1, np.eye(3))
        with pytest.raises(ValueError, match="trivial"):
            brezzi_constants(red)

    def test_hand_kernel(self):
        sys = SaddleSystem(a=np.eye(2), b=np.array([[1.0, 1.0]]))
        dec = block_decompose(reduce_system(sys, InnerProduct.identity(2, 1)))
        v = dec.z0[:, 0]
        assert abs(v[0] + v[1]) < 1e-14
        assert np.linalg.norm(v) == pytest.approx(1.0)

    def test_nonzero_c_rejected(self, rng):
        sys = SaddleSystem(a=np.eye(2), b=np.array([[0.0, 1.0]]), c=np.eye(1))
        with pytest.raises(ValueError, match="zero"):
            block_decompose(reduce_system(sys, InnerProduct.identity(2, 1)))


class TestThreeByThreeInverse:
    def test_coordinate_case(self):
        sys = SaddleSystem(a=np.eye(2), b=np.array([[0.0, 1.0]]))
        dec = block_decompose(reduce_system(sys, InnerProduct.identity(2, 1)))
        inv = three_by_three_inverse(dec)
        assert np.allclose(inv @ assemble_decomposition(dec), np.eye(3), atol=1e-12)

    def test_witness_corner_entry(self):
        # lower-right entry is a_norm^2 / (alpha beta^2) = 2 for (0.5, 1, 1)
        dec = block_decompose(
            reduce_system(witness_general(0.5, 1.0, 1.0), InnerProduct.identity(2, 1))
        )
        inv = three_by_three_inverse(dec)
        assert inv[-1, -1].real == pytest.approx(2.0, rel=1e-12)

    def test_dense_inverse_oracle(self, rng):
        sys, ip = random_coercive_system(rng, 8, 3)
        dec = block_decompose(reduce_system(sys, ip))
        inv = three_by_three_inverse(dec)
        oracle = np.linalg.inv(assemble_decomposition(dec))
        assert np.max(np.abs(inv - oracle)) <= 1e-10 * np.max(np.abs(oracle))

    def test_identity_product(self, rng):
        sys, ip = random_coercive_system(rng, 6, 2)
        dec = block_decompose(reduce_system(sys, ip))
        inv = three_by_three_inverse(dec)
        assert np.max(np.abs(inv @ assemble_decomposition(dec) - np.eye(sys.n + sys.m))) < 1e-10


class TestBrezziConstants:
    def test_identity_system(self):
        sys = SaddleSystem(a=np.eye(2), b=np.array([[0.0, 1.0]]))
        bc = brezzi_constants(reduce_system(sys, InnerProduct.identity(2, 1)))
        assert bc.alpha == pytest.approx(1.0)
        assert bc.beta == pytest.approx(1.0)
        assert bc.a_norm == pytest.approx(1.0)
        assert bc.b_norm == pytest.approx(1.0)
        assert bc.lambda_min_a == pytest.approx(1.0)
        assert bc.lambda_max_a == pytest.approx(1.0)

    def test_witness_constants(self):
        bc = brezzi_constants(
            reduce_system(witness_general(0.5, 1.0, 1.0), InnerProduct.identity(2, 1))
        )
        assert bc.alpha == pytest.approx(0.5, abs=1e-12)
        assert bc.beta == pytest.approx(1.0, abs=1e-12)
        assert bc.a_norm == pytest.approx(1.0, abs=1e-12)
        assert bc.lambda_min_a == pytest.approx(-1.0, abs=1e-12)
        assert bc.lambda_max_a == pytest.approx(1.0, abs=1e-12)

    def test_type_invariants(self, rng):
        sys, ip = random_coercive_system(rng, 6, 2)
        bc = brezzi_constants(reduce_system(sys, ip))
        assert bc.lambda_max_a >= bc.alpha > 0.0
        assert bc.kernel_coercive
        assert bc.a_norm == pytest.approx(max(abs(bc.lambda_min_a), bc.lambda_max_a))
        assert bc.beta <= bc.b_norm + 1e-12

    def test_unitary_congruence_invariance(self, rng):
        sys, ip = random_coercive_system(rng, 6, 3)
        bc = brezzi_constants(reduce_system(sys, ip))
        u = p_unitary(rng, ip.p)
        w = p_unitary(rng, ip.r)
        sys2 = SaddleSystem(
            a=u.conj().T @ sys.a @ u, b=w.conj().T @ sys.b @ u
        )
        bc2 = brezzi_constants(reduce_system(sys2, ip))
        for key in ("alpha", "beta", "a_norm", "b_norm", "lambda_min_a", "lambda_max_a"):
            assert getattr(bc, key) == pytest.approx(getattr(bc2, key), abs=1e-10, rel=1e-10)

    def test_not_elliptic_error(self):
        sys = SaddleSystem(
            a=np.diag([0.0, 1.0]), b=np.array([[0.0, 1.0]])
        )
        with pytest.raises(ValueError, match="elliptic"):
            brezzi_constants(reduce_system(sys, InnerProduct.identity(2, 1)))

    def test_trivial_kernel_rejected(self):
        sys = SaddleSystem(a=np.eye(2), b=np.eye(2))
        with pytest.raises(ValueError, match="trivial"):
            brezzi_constants(reduce_system(sys, InnerProduct.identity(2, 2)))


class TestBabuskaConstants:
    def test_identity(self):
        sys = SaddleSystem(a=np.eye(2), b=np.zeros((1, 2)), c=-np.eye(1))
        bab = babuska_constants(reduce_system(sys, InnerProduct.identity(2, 1)))
        assert bab.gamma == pytest.approx(1.0)
        assert bab.b_norm == pytest.approx(1.0)

    def test_witness_gamma_is_cubic_root(self):
        sys = witness_general(0.5, 1.0, 1.0)
        bab = babuska_constants(reduce_system(sys, InnerProduct.identity(2, 1)))
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
            babuska_constants(reduce_system(sys, InnerProduct.identity(2, 1)))

    def test_gamma_lower_bound_property(self, rng):
        # the cubic bound from the extracted constants never exceeds gamma
        for _ in range(25):
            n = int(rng.integers(3, 9))
            m = int(rng.integers(1, min(n, 5)))
            sys, ip = random_coercive_system(rng, n, m)
            red = reduce_system(sys, ip)
            bc = brezzi_constants(red)
            bab = babuska_constants(red)
            assert bab.gamma >= gamma_opt_general(bc.alpha, bc.beta, bc.a_norm) - 1e-10

    def test_norm_upper_bound_property(self, rng):
        for _ in range(25):
            n = int(rng.integers(3, 9))
            m = int(rng.integers(1, min(n, 5)))
            sys, ip = random_coercive_system(rng, n, m)
            red = reduce_system(sys, ip)
            bc = brezzi_constants(red)
            bab = babuska_constants(red)
            assert bab.b_norm <= b_norm_upper(bc.a_norm, bc.b_norm) + 1e-10


def assert_matches_pencils(sys, ip, red):
    """Every dense constant of ``red`` against scipy's pencil eigenvalues of
    the unreduced blocks, to 1e-10 relative; returns the constants."""

    def close(got, want, scale):
        assert abs(got - want) <= 1e-10 * scale

    mu = preconditioned_spectrum(red).eigenvalues
    ref = scipy.linalg.eigh(sys.assemble(), ip.assemble(), eigvals_only=True)
    assert np.max(np.abs(mu - ref)) <= 1e-10 * np.max(np.abs(ref))

    bc = brezzi_constants(red)
    lam = scipy.linalg.eigh(sys.a, ip.p, eigvals_only=True)
    close(bc.lambda_min_a, lam[0], np.max(np.abs(lam)))
    close(bc.lambda_max_a, lam[-1], np.max(np.abs(lam)))
    schur = sys.b @ scipy.linalg.solve(ip.p, sys.b.conj().T)
    coupling = scipy.linalg.eigh(schur, ip.r, eigvals_only=True)
    close(bc.beta**2, coupling[0], coupling[0])
    close(bc.b_norm**2, coupling[-1], coupling[-1])
    z = scipy.linalg.null_space(sys.b)
    kernel = scipy.linalg.eigh(
        z.conj().T @ sys.a @ z, z.conj().T @ ip.p @ z, eigvals_only=True
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
        sys, ip = random_coercive_system(rng, n, m)
        # One reduction feeds all four analyses.
        red = reduce_system(sys, ip)
        mu, bc = assert_matches_pencils(sys, ip, red)
        assert inclusion_set(bc).contains(mu, slack=1e-8)

        # A nonzero Hermitian (2,2) block goes through the reduced C block.
        sys_c = SaddleSystem(a=sys.a, b=sys.b, c=random_hermitian(rng, m))
        mu_c = preconditioned_spectrum(reduce_system(sys_c, ip)).eigenvalues
        ref_c = scipy.linalg.eigh(sys_c.assemble(), ip.assemble(), eigvals_only=True)
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

        # The shared reduction (and its cached SVD) gives what a fresh one does.
        dec = block_decompose(red)
        fresh = reduce_system(sys, ip)
        dec_fresh = block_decompose(fresh)
        for name in ("z0", "z1", "b1"):
            assert np.array_equal(getattr(dec, name), getattr(dec_fresh, name))
        assert bc == brezzi_constants(fresh)
        b_z1 = sys.b @ dec.z1
        assert np.max(np.abs(dec.b1 - b_z1)) <= 1e-10 * np.max(np.abs(b_z1))

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
        sys, ip = random_coercive_system(rng, n, m)
        if real_coupling:
            sys = SaddleSystem(a=sys.a, b=sys.b.real)
        else:
            sys = SaddleSystem(a=sys.a.real, b=sys.b)
            ip = InnerProduct(p=ip.p.real, r=ip.r.real)
        red = reduce_system(sys, ip)
        real_blocks = (red.at.dtype, red.lp.dtype, red.lr.dtype)
        if real_coupling:
            assert sys.b.dtype == np.float64
            assert real_blocks == (np.complex128,) * 3
        else:
            assert real_blocks == (np.float64,) * 3
        assert red.g.dtype == np.complex128
        assert_matches_pencils(sys, ip, red)


class TestLemma21Inequalities:
    def test_operator_norm_bounds(self, rng):
        for _ in range(30):
            n = int(rng.integers(3, 9))
            m = int(rng.integers(1, min(n, 5)))
            sys, ip = random_coercive_system(rng, n, m)
            red = reduce_system(sys, ip)
            dec = block_decompose(red)
            bc = brezzi_constants(red)
            a00_inv = np.linalg.inv(dec.a00)
            cross_bound = math.sqrt(max(bc.a_norm**2 / bc.alpha**2 - 1.0, 0.0))
            assert np.linalg.norm(dec.a10 @ a00_inv, 2) <= cross_bound + 1e-10
            assert np.linalg.norm(a00_inv @ dec.a01, 2) <= cross_bound + 1e-10
            schur = dec.a11 - dec.a10 @ a00_inv @ dec.a01
            assert np.linalg.norm(schur, 2) <= bc.a_norm**2 / bc.alpha + 1e-10
