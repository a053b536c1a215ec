import numpy as np
import pytest

from saddlebounds.densecore import (
    NotHermitianError,
    NotPositiveDefiniteError,
    cholesky,
    generalized_hermitian_eig,
    hermitian_eig,
    nullspace_basis,
)
from saddlebounds.verify import random_hermitian, random_spd


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

    def test_eigenvalues_ascending_and_unitary(self, rng):
        h = random_hermitian(rng, 7)
        dec = hermitian_eig(h)
        assert np.all(np.diff(dec.eigenvalues) >= 0.0)
        v = dec.eigenvectors
        assert np.max(np.abs(v.conj().T @ v - np.eye(7))) < 1e-10

    def test_reconstruction(self, rng):
        for n in (2, 5, 9):
            h = random_hermitian(rng, n)
            dec = hermitian_eig(h)
            rebuilt = dec.eigenvectors @ np.diag(dec.eigenvalues) @ dec.eigenvectors.conj().T
            scale = np.max(np.abs(h))
            assert np.max(np.abs(rebuilt - h)) <= 1e-10 * scale

    def test_pair_residuals(self, rng):
        h = random_hermitian(rng, 6)
        dec = hermitian_eig(h)
        norm = np.linalg.norm(h, 2)
        for lam, v in zip(dec.eigenvalues, dec.eigenvectors.T):
            assert np.linalg.norm(h @ v - lam * v) <= 1e-10 * norm

    def test_rejects_non_hermitian(self):
        bad = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(NotHermitianError) as err:
            hermitian_eig(bad)
        assert err.value.defect == pytest.approx(1.0)


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

    def test_m_orthonormal_vectors(self, rng):
        a, m = random_hermitian(rng, 5), random_spd(rng, 5)
        dec = generalized_hermitian_eig(a, m)
        v = dec.eigenvectors
        assert np.max(np.abs(v.conj().T @ m @ v - np.eye(5))) < 1e-9
        for lam, vec in zip(dec.eigenvalues, v.T):
            assert np.linalg.norm(a @ vec - lam * (m @ vec)) < 1e-9 * np.linalg.norm(a, 2)

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
    def test_coordinate_kernel(self):
        z = nullspace_basis(np.array([[0.0, 2.0]]), np.eye(2))
        assert z.shape == (2, 1)
        assert abs(abs(z[0, 0]) - 1.0) < 1e-14 and abs(z[1, 0]) < 1e-14

    def test_nonsingular_empty(self):
        z = nullspace_basis(np.eye(3), np.eye(3))
        assert z.shape == (3, 0)

    def test_hand_kernel(self):
        z = nullspace_basis(np.array([[1.0, 1.0]]), np.eye(2))
        v = z[:, 0]
        assert abs(v[0] + v[1]) < 1e-14
        assert np.linalg.norm(v) == pytest.approx(1.0)

    def test_contracts_with_weight(self, rng):
        b = rng.standard_normal((3, 7)) + 1j * rng.standard_normal((3, 7))
        p = random_spd(rng, 7)
        z = nullspace_basis(b, p)
        assert z.shape == (7, 4)
        assert np.max(np.abs(b @ z)) <= 1e-10 * np.linalg.norm(b, 2)
        assert np.max(np.abs(z.conj().T @ p @ z - np.eye(4))) <= 1e-10

    def test_rank_nullity_with_planted_rank(self, rng):
        for rank in (1, 2, 3):
            left = rng.standard_normal((4, rank)) + 1j * rng.standard_normal((4, rank))
            right = rng.standard_normal((rank, 6)) + 1j * rng.standard_normal((rank, 6))
            b = left @ right
            z = nullspace_basis(b, np.eye(6))
            assert rank + z.shape[1] == 6
