import numpy as np
import pytest
import scipy.linalg

from saddlebounds.densecore import (
    NotHermitianError,
    NotPositiveDefiniteError,
    as_matrix,
    cholesky,
    generalized_hermitian_eig,
    require_hermitian,
    triangular_congruence,
)
from saddlebounds.saddle import (
    InnerProduct,
    SaddleSystem,
    block_decompose,
    reduce_system,
)
from saddlebounds.verify import random_hermitian, random_spd


def hermitian_eig(h):
    """Eigenvalues of ``h`` as the pencil ``(h, I)``."""
    return generalized_hermitian_eig(h, np.eye(len(h)))


class TestHermitianEig:
    def test_zero_matrix(self):
        dec = hermitian_eig(np.zeros((3, 3)))
        assert np.allclose(dec.eigenvalues, 0.0)

    def test_diagonal(self):
        dec = hermitian_eig(np.diag([-2.0, 5.0]))
        assert np.allclose(dec.eigenvalues, [-2.0, 5.0])

    def test_off_diagonal_pair(self):
        # characteristic polynomial lambda^2 - 1 by hand
        dec = hermitian_eig(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(dec.eigenvalues, [-1.0, 1.0], atol=1e-14)

    def test_eigenvalues_ascending(self, rng):
        h = random_hermitian(rng, 7)
        dec = hermitian_eig(h)
        assert dec.eigenvalues.shape == (7,)
        assert np.all(np.diff(dec.eigenvalues) >= 0.0)

    def test_eigenvalue_residuals(self, rng):
        # every returned lam is an eigenvalue of H to within rounding:
        # H - lam I is singular up to 1e-10 ||H||
        for n in (2, 5, 9):
            h = random_hermitian(rng, n)
            dec = hermitian_eig(h)
            norm = np.linalg.norm(h, 2)
            for lam in dec.eigenvalues:
                sigma = np.linalg.svd(h - lam * np.eye(n), compute_uv=False)
                assert sigma[-1] <= 1e-10 * norm

    def test_rejects_non_hermitian(self):
        bad = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(NotHermitianError) as err:
            hermitian_eig(bad)
        assert err.value.defect == pytest.approx(1.0)


class TestFields:
    """Real input stays real; complex input stays complex."""

    def test_as_matrix_dtypes(self):
        assert as_matrix(np.eye(2, dtype=int)).dtype == np.float64
        assert as_matrix(np.eye(2, dtype=np.complex64)).dtype == np.complex128
        assert as_matrix(np.eye(2, dtype=complex)).dtype == np.complex128

    def test_require_hermitian_symmetrizes_in_field(self, rng):
        for h in (random_spd(rng, 6, complex_entries=False), random_hermitian(rng, 6)):
            noisy = h + 1e-14 * rng.standard_normal(h.shape)
            sym = require_hermitian(noisy)
            assert sym.dtype == h.dtype
            assert np.array_equal(sym, 0.5 * (noisy + noisy.conj().T))

    def test_real_cholesky(self, rng):
        assert cholesky(random_spd(rng, 5, complex_entries=False)).dtype == np.float64

    def test_real_factor_complex_right_hand_side(self, rng):
        # A complex X against real factors, solved as real columns, matches
        # the solve with the factors promoted to complex.  X is a
        # non-contiguous slice.
        l = cholesky(random_spd(rng, 7, complex_entries=False))
        r = cholesky(random_spd(rng, 4, complex_entries=False))
        big = rng.standard_normal((10, 9)) + 1j * rng.standard_normal((10, 9))
        x = big[:7, 1::2]
        assert not x.flags.c_contiguous
        got = triangular_congruence(l, x, r)
        want = triangular_congruence(l.astype(complex), x, r.astype(complex))
        assert got.dtype == np.complex128
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
        square = big[:7, :7].T
        got = triangular_congruence(l, square)
        want = triangular_congruence(l.astype(complex), square)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


class TestCholesky:
    def test_identity(self):
        assert np.allclose(cholesky(np.eye(3)), np.eye(3))

    def test_diagonal(self):
        assert np.allclose(cholesky(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))

    def test_hand_factorization(self):
        l = cholesky(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert l[0, 0] == pytest.approx(np.sqrt(2.0))

    def test_factor_contract(self, rng):
        m = random_spd(rng, 6)
        l = cholesky(m)
        assert np.max(np.abs(l @ l.conj().T - m)) <= 1e-12 * np.max(np.abs(m))

    def test_not_spd_reports_pivot(self):
        with pytest.raises(NotPositiveDefiniteError) as err:
            cholesky(np.diag([1.0, -1.0, 2.0]))
        assert err.value.pivot == 1


class TestGeneralizedEig:
    def test_identity_pair(self):
        dec = generalized_hermitian_eig(np.eye(3), np.eye(3))
        assert np.allclose(dec.eigenvalues, 1.0)

    def test_diagonal_ratio(self):
        dec = generalized_hermitian_eig(np.diag([2.0, 6.0]), np.diag([1.0, 2.0]))
        assert np.allclose(dec.eigenvalues, [2.0, 3.0])

    def test_rank_one(self):
        # trace/rank: the rank-1 matrix has eigenvalues {0, trace/2} w.r.t. 2I
        a = np.ones((2, 2))
        dec = generalized_hermitian_eig(a, 2.0 * np.eye(2))
        assert np.allclose(dec.eigenvalues, [0.0, 1.0], atol=1e-14)

    def test_pencil_residuals(self, rng):
        # A - lam M is singular up to 1e-10 (||A|| + |lam| ||M||) for every lam
        for n in (3, 5, 8):
            a, m = random_hermitian(rng, n), random_spd(rng, n)
            dec = generalized_hermitian_eig(a, m)
            assert np.all(np.diff(dec.eigenvalues) >= 0.0)
            a_norm, m_norm = np.linalg.norm(a, 2), np.linalg.norm(m, 2)
            for lam in dec.eigenvalues:
                sigma = np.linalg.svd(a - lam * m, compute_uv=False)
                assert sigma[-1] <= 1e-10 * (a_norm + abs(lam) * m_norm)

    def test_matches_scipy_pencil_eigenvalues(self, rng):
        for n in (2, 5, 9):
            a, m = random_hermitian(rng, n), random_spd(rng, n)
            lam = generalized_hermitian_eig(a, m).eigenvalues
            ref = scipy.linalg.eigh(a, m, eigvals_only=True)
            assert np.max(np.abs(lam - ref)) <= 1e-10 * np.max(np.abs(ref))

    def test_congruence_invariance(self, rng):
        for n in (2, 4, 8):
            a, m = random_hermitian(rng, n), random_spd(rng, n)
            s = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            assert np.linalg.matrix_rank(s) == n
            dec1 = generalized_hermitian_eig(a, m)
            dec2 = generalized_hermitian_eig(s.conj().T @ a @ s, s.conj().T @ m @ s)
            scale = np.max(np.abs(dec1.eigenvalues)) + 1.0
            assert np.max(np.abs(dec1.eigenvalues - dec2.eigenvalues)) <= 1e-10 * scale

    def test_not_spd_mass(self):
        with pytest.raises(NotPositiveDefiniteError):
            generalized_hermitian_eig(np.eye(2), np.diag([1.0, -1.0]))


class TestNullspace:
    """The P-orthonormal kernel basis of B, read off :func:`block_decompose`."""

    def test_coordinate_kernel(self):
        sys = SaddleSystem(a=np.eye(2), b=np.array([[0.0, 2.0]]))
        z = block_decompose(reduce_system(sys, InnerProduct.identity(2, 1))).z0
        assert z.shape == (2, 1)
        assert abs(abs(z[0, 0]) - 1.0) < 1e-14 and abs(z[1, 0]) < 1e-14

    def test_contracts_with_weight(self, rng):
        b = rng.standard_normal((3, 7)) + 1j * rng.standard_normal((3, 7))
        p = random_spd(rng, 7)
        sys = SaddleSystem(a=np.eye(7), b=b)
        z = block_decompose(reduce_system(sys, InnerProduct(p=p, r=np.eye(3)))).z0
        assert z.shape == (7, 4)
        assert np.max(np.abs(b @ z)) <= 1e-10 * np.linalg.norm(b, 2)
        assert np.max(np.abs(z.conj().T @ p @ z - np.eye(4))) <= 1e-10
