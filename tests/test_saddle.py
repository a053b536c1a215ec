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
    witness_general,
)
from saddlebounds.densecore import generalized_hermitian_eig
from saddlebounds.saddle import (
    InnerProduct,
    SaddleSystem,
    babuska_constants,
    block_decompose,
    brezzi_constants,
    preconditioned_spectrum,
    three_by_three_inverse,
)
from saddlebounds.verify import random_coercive_system


def p_unitary(rng, p):
    """Random U with U* P U = P."""
    n = p.shape[0]
    l = scipy.linalg.cholesky(p, lower=True)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return scipy.linalg.solve_triangular(l.conj().T, (q @ l.conj().T), lower=False)


class TestSystemModel:
    def test_assemble_hermitian(self, rng):
        sys, _ = random_coercive_system(rng, 5, 2)
        full = sys.assemble()
        assert np.max(np.abs(full - full.conj().T)) < 1e-12

    def test_apply_matches_assemble(self, rng):
        sys, _ = random_coercive_system(rng, 5, 2)
        x = rng.standard_normal(7) + 1j * rng.standard_normal(7)
        assert np.allclose(sys.apply(x), sys.assemble() @ x)

    def test_dimension_checks(self):
        with pytest.raises(ValueError):
            SaddleSystem(a=np.eye(3), b=np.ones((1, 2)))
        with pytest.raises(ValueError):
            InnerProduct(p=np.eye(2), r=np.diag([1.0, -1.0]))


class TestBlockDecompose:
    def test_coordinate_split(self):
        sys = SaddleSystem(a=np.eye(2), b=np.array([[0.0, 1.0]]))
        dec = block_decompose(sys, InnerProduct.identity(2, 1))
        assert np.allclose(dec.a00, [[1.0]])
        assert np.allclose(dec.a01, [[0.0]])
        assert np.allclose(dec.a11, [[1.0]])
        assert np.allclose(dec.b1, [[1.0]])

    def test_witness_blocks(self):
        dec = block_decompose(witness_general(0.5, 1.0, 1.0), InnerProduct.identity(2, 1))
        assert np.allclose(dec.a00, [[0.5]])
        assert np.allclose(np.abs(dec.b1), [[1.0]])

    def test_reconstruction_oracle(self, rng):
        sys, ip = random_coercive_system(rng, 6, 2)
        dec = block_decompose(sys, ip)
        z = np.hstack([dec.z0, dec.z1])
        big = scipy.linalg.block_diag(z, np.eye(sys.m))
        rebuilt = big.conj().T @ sys.assemble() @ big
        assert np.max(np.abs(rebuilt - dec.assemble())) <= 1e-10 * np.max(
            np.abs(sys.assemble())
        )

    def test_basis_contracts(self, rng):
        sys, ip = random_coercive_system(rng, 7, 3)
        dec = block_decompose(sys, ip)
        z = np.hstack([dec.z0, dec.z1])
        assert np.max(np.abs(z.conj().T @ ip.p @ z - np.eye(7))) < 1e-10
        assert np.max(np.abs(sys.b @ dec.z0)) < 1e-10 * np.linalg.norm(sys.b, 2)
        assert np.max(np.abs(dec.a01 - dec.a10.conj().T)) < 1e-10

    def test_rank_deficient_rejected(self, rng):
        b = np.vstack([np.ones((1, 4)), np.ones((1, 4))])
        sys = SaddleSystem(a=np.eye(4), b=b)
        with pytest.raises(ValueError, match="rank deficient"):
            block_decompose(sys, InnerProduct.identity(4, 2))

    def test_nonzero_c_rejected(self, rng):
        sys = SaddleSystem(a=np.eye(2), b=np.array([[0.0, 1.0]]), c=np.eye(1))
        with pytest.raises(ValueError, match="zero"):
            block_decompose(sys, InnerProduct.identity(2, 1))


class TestThreeByThreeInverse:
    def test_coordinate_case(self):
        sys = SaddleSystem(a=np.eye(2), b=np.array([[0.0, 1.0]]))
        dec = block_decompose(sys, InnerProduct.identity(2, 1))
        inv = three_by_three_inverse(dec)
        assert np.allclose(inv @ dec.assemble(), np.eye(3), atol=1e-12)

    def test_witness_corner_entry(self):
        # lower-right entry is a_norm^2 / (alpha beta^2) = 2 for (0.5, 1, 1)
        dec = block_decompose(witness_general(0.5, 1.0, 1.0), InnerProduct.identity(2, 1))
        inv = three_by_three_inverse(dec)
        assert inv[-1, -1].real == pytest.approx(2.0, rel=1e-12)

    def test_dense_inverse_oracle(self, rng):
        sys, ip = random_coercive_system(rng, 8, 3)
        dec = block_decompose(sys, ip)
        inv = three_by_three_inverse(dec)
        oracle = np.linalg.inv(dec.assemble())
        assert np.max(np.abs(inv - oracle)) <= 1e-10 * np.max(np.abs(oracle))

    def test_identity_product(self, rng):
        sys, ip = random_coercive_system(rng, 6, 2)
        dec = block_decompose(sys, ip)
        inv = three_by_three_inverse(dec)
        assert np.max(np.abs(inv @ dec.assemble() - np.eye(sys.dim))) < 1e-10


class TestBrezziConstants:
    def test_identity_system(self):
        sys = SaddleSystem(a=np.eye(2), b=np.array([[0.0, 1.0]]))
        bc = brezzi_constants(sys, InnerProduct.identity(2, 1))
        assert bc.alpha == pytest.approx(1.0)
        assert bc.beta == pytest.approx(1.0)
        assert bc.a_norm == pytest.approx(1.0)
        assert bc.b_norm == pytest.approx(1.0)
        assert bc.lambda_min_a == pytest.approx(1.0)
        assert bc.lambda_max_a == pytest.approx(1.0)

    def test_witness_constants(self):
        bc = brezzi_constants(witness_general(0.5, 1.0, 1.0), InnerProduct.identity(2, 1))
        assert bc.alpha == pytest.approx(0.5, abs=1e-12)
        assert bc.beta == pytest.approx(1.0, abs=1e-12)
        assert bc.a_norm == pytest.approx(1.0, abs=1e-12)
        assert bc.lambda_min_a == pytest.approx(-1.0, abs=1e-12)
        assert bc.lambda_max_a == pytest.approx(1.0, abs=1e-12)

    def test_type_invariants(self, rng):
        sys, ip = random_coercive_system(rng, 6, 2)
        bc = brezzi_constants(sys, ip)
        assert bc.lambda_max_a >= bc.alpha > 0.0
        assert bc.a_norm == pytest.approx(max(abs(bc.lambda_min_a), bc.lambda_max_a))
        assert bc.beta <= bc.b_norm + 1e-12

    def test_unitary_congruence_invariance(self, rng):
        sys, ip = random_coercive_system(rng, 6, 3)
        bc = brezzi_constants(sys, ip)
        u = p_unitary(rng, ip.p)
        w = p_unitary(rng, ip.r)
        sys2 = SaddleSystem(
            a=u.conj().T @ sys.a @ u, b=w.conj().T @ sys.b @ u
        )
        bc2 = brezzi_constants(sys2, ip)
        for key in ("alpha", "beta", "a_norm", "b_norm", "lambda_min_a", "lambda_max_a"):
            assert getattr(bc, key) == pytest.approx(getattr(bc2, key), abs=1e-10, rel=1e-10)

    def test_not_elliptic_error(self):
        sys = SaddleSystem(
            a=np.diag([0.0, 1.0]), b=np.array([[0.0, 1.0]])
        )
        with pytest.raises(ValueError, match="elliptic"):
            brezzi_constants(sys, InnerProduct.identity(2, 1))

    def test_trivial_kernel_rejected(self):
        sys = SaddleSystem(a=np.eye(2), b=np.eye(2))
        with pytest.raises(ValueError, match="trivial"):
            brezzi_constants(sys, InnerProduct.identity(2, 2))


class TestBabuskaConstants:
    def test_identity(self):
        sys = SaddleSystem(a=np.eye(2), b=np.zeros((1, 2)), c=-np.eye(1))
        bab = babuska_constants(sys, InnerProduct.identity(2, 1))
        assert bab.gamma == pytest.approx(1.0)
        assert bab.b_norm == pytest.approx(1.0)

    def test_witness_gamma_is_cubic_root(self):
        sys = witness_general(0.5, 1.0, 1.0)
        bab = babuska_constants(sys, InnerProduct.identity(2, 1))
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
            babuska_constants(sys, InnerProduct.identity(2, 1))

    def test_gamma_lower_bound_property(self, rng):
        # the cubic bound from the extracted constants never exceeds gamma
        for _ in range(25):
            n = int(rng.integers(3, 9))
            m = int(rng.integers(1, min(n, 5)))
            sys, ip = random_coercive_system(rng, n, m)
            bc = brezzi_constants(sys, ip)
            bab = babuska_constants(sys, ip)
            assert bab.gamma >= gamma_opt_general(bc.alpha, bc.beta, bc.a_norm) - 1e-10

    def test_norm_upper_bound_property(self, rng):
        for _ in range(25):
            n = int(rng.integers(3, 9))
            m = int(rng.integers(1, min(n, 5)))
            sys, ip = random_coercive_system(rng, n, m)
            bc = brezzi_constants(sys, ip)
            bab = babuska_constants(sys, ip)
            assert bab.b_norm <= b_norm_upper(bc.a_norm, bc.b_norm) + 1e-10


class TestDensePathProperty:
    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(
        n=st.integers(3, 12),
        kernel_share=st.floats(0.1, 0.9),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_spectrum_and_gamma_ordering(self, n, kernel_share, seed):
        m = min(n - 1, max(1, int(round((1.0 - kernel_share) * n))))
        sys, ip = random_coercive_system(np.random.default_rng(seed), n, m)

        mu = preconditioned_spectrum(sys, ip).eigenvalues
        ref = scipy.linalg.eigh(sys.assemble(), ip.assemble(), eigvals_only=True)
        assert np.max(np.abs(mu - ref)) <= 1e-10 * np.max(np.abs(ref))

        bc = brezzi_constants(sys, ip)
        gamma = babuska_constants(sys, ip).gamma
        chain = [
            gamma_classical(bc.alpha, bc.beta, bc.a_norm),
            gamma_simple(bc.alpha, bc.beta, bc.a_norm),
            gamma_opt_general(bc.alpha, bc.beta, bc.a_norm),
            gamma,
        ]
        for lower, upper in zip(chain, chain[1:]):
            assert lower <= upper * (1.0 + 1e-10)


class TestLemma21Inequalities:
    def test_operator_norm_bounds(self, rng):
        for _ in range(30):
            n = int(rng.integers(3, 9))
            m = int(rng.integers(1, min(n, 5)))
            sys, ip = random_coercive_system(rng, n, m)
            dec = block_decompose(sys, ip)
            bc = brezzi_constants(sys, ip)
            a00_inv = np.linalg.inv(dec.a00)
            cross_bound = math.sqrt(max(bc.a_norm**2 / bc.alpha**2 - 1.0, 0.0))
            assert np.linalg.norm(dec.a10 @ a00_inv, 2) <= cross_bound + 1e-10
            assert np.linalg.norm(a00_inv @ dec.a01, 2) <= cross_bound + 1e-10
            schur = dec.a11 - dec.a10 @ a00_inv @ dec.a01
            assert np.linalg.norm(schur, 2) <= bc.a_norm**2 / bc.alpha + 1e-10
