import numpy as np
import pytest

from saddlebounds.fem import build_mesh, parabolic_reduced, stokes_system
from saddlebounds.saddle import SaddleSystem, preconditioned_spectrum, reduce_system
from saddlebounds.spectrum import (
    detect_structure,
    linearize_quadratic,
    pairing_check,
    skew_pairing_check,
)
from saddlebounds.verify import random_complex_symmetric, random_spd
from dense_pair import reduce_problem, saddle_system


class TestDetectStructure:
    def test_simple_positive(self):
        sys = SaddleSystem(a=np.eye(2), b=1j * np.eye(2), c=np.eye(2))
        assert detect_structure(sys) is True

    def test_zero_c_not_detected(self):
        sys = SaddleSystem(a=np.eye(2), b=1j * np.eye(2))
        assert detect_structure(sys) is False

    def test_rectangular_not_detected(self):
        sys = SaddleSystem(a=np.eye(2), b=np.array([[0.0, 1.0]]))
        assert detect_structure(sys) is False

    def test_indefinite_block_not_detected(self):
        sys = SaddleSystem(a=np.diag([1.0, -1.0]), b=1j * np.eye(2), c=np.diag([1.0, -1.0]))
        assert detect_structure(sys) is False

    def test_complex_block_not_detected(self):
        # Its real part is SPD; A itself is Hermitian, not real symmetric.
        a = np.array([[2.0, 1j], [-1j, 2.0]])
        sys = SaddleSystem(a=a, b=1j * np.eye(2), c=a)
        assert detect_structure(sys) is False

    def test_reduced_parabolic_detected(self):
        problem = parabolic_reduced(build_mesh(1), nu=1.0, omega=1.0)
        sys = saddle_system(problem)
        assert detect_structure(sys) is True
        # the (2,2) block of the assembled matrix is minus the (1,1) block
        full = sys.assemble()
        n = sys.n
        assert np.max(np.abs(full[n:, n:] + full[:n, :n])) < 1e-12


class TestPairingCheck:
    def test_exact_pairing(self):
        report = pairing_check([-2.0, -1.0, 1.0, 2.0])
        assert report.passed and report.defect == 0.0

    def test_broken_pairing(self):
        report = pairing_check([-2.0, -1.0, 1.0, 3.0])
        assert not report.passed
        assert report.defect == pytest.approx(1.0)

    def test_odd_count_rejected(self):
        with pytest.raises(ValueError):
            pairing_check([1.0, -1.0, 0.0])

    def test_stokes_level2_spectrum_pairs(self):
        problem = stokes_system(build_mesh(2), nu=1.0, omega=1.0)
        mu = preconditioned_spectrum(
            reduce_problem(problem)
        )
        report = pairing_check(mu, tol=1e-8)
        assert report.passed

    def test_random_structured_systems_pair(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 7))
            a = random_spd(rng, n, complex_entries=False)
            b = random_complex_symmetric(rng, n)
            sys = SaddleSystem(a=a, b=b, c=a)
            p = random_spd(rng, n, complex_entries=False)
            mu = preconditioned_spectrum(reduce_system(sys, p, p))
            assert pairing_check(mu, tol=1e-8).passed


class TestLinearizeQuadratic:
    def test_identity_blocks(self):
        sys = SaddleSystem(a=np.eye(2), b=np.eye(2, dtype=complex), c=np.eye(2))
        lin = linearize_quadratic(sys)
        lam = np.sort(np.linalg.eigvals(lin).real)
        assert np.allclose(lam, [-np.sqrt(2)] * 2 + [np.sqrt(2)] * 2, atol=1e-10)
        full = np.sort(np.linalg.eigvalsh(sys.assemble()))
        assert np.allclose(lam, full, atol=1e-10)

    def test_diagonal_with_imaginary_coupling(self):
        a = np.diag([1.0, 2.0])
        sys = SaddleSystem(a=a, b=1j * np.eye(2), c=a)
        lin = linearize_quadratic(sys)
        lam = np.sort(np.linalg.eigvals(lin).real)
        full = np.sort(np.linalg.eigvalsh(sys.assemble()))
        assert np.max(np.abs(lam - full)) < 1e-8

    def test_random_multiset_match(self, rng):
        for _ in range(10):
            a = random_spd(rng, 4, complex_entries=False)
            b = random_complex_symmetric(rng, 4) + 0.8 * np.eye(4)
            sys = SaddleSystem(a=a, b=b, c=a)
            lam = np.sort(np.linalg.eigvals(linearize_quadratic(sys)).real)
            full = np.sort(np.linalg.eigvalsh(sys.assemble()))
            scale = max(np.max(np.abs(full)), 1.0)
            assert np.max(np.abs(lam - full)) <= 1e-7 * scale

    def test_singular_coupling_rejected(self):
        sys = SaddleSystem(a=np.eye(2), b=np.zeros((2, 2), dtype=complex), c=np.eye(2))
        with pytest.raises(ValueError, match="singular"):
            linearize_quadratic(sys)

    @pytest.mark.parametrize(
        "sys",
        [
            # C = 0: the eigenvalues are -0.618, -0.414, 1.618, 2.414, not a
            # mirror-symmetric set
            SaddleSystem(a=np.diag([1.0, 2.0]), b=1j * np.eye(2)),
            # A Hermitian but not real
            SaddleSystem(
                a=np.array([[2.0, 1j], [-1j, 2.0]]),
                b=np.eye(2, dtype=complex),
                c=np.array([[2.0, 1j], [-1j, 2.0]]),
            ),
        ],
        ids=["zero_c", "complex_a"],
    )
    def test_unstructured_system_rejected(self, sys):
        assert detect_structure(sys) is False
        with pytest.raises(ValueError, match="block shape"):
            linearize_quadratic(sys)

    def test_linearization_shape(self, rng):
        a = random_spd(rng, 3, complex_entries=False)
        b = random_complex_symmetric(rng, 3) + 0.8 * np.eye(3)
        lin = linearize_quadratic(SaddleSystem(a=a, b=b, c=a))
        n = 3
        h = lin[n:, :n]
        s = lin[n:, n:]
        assert np.max(np.abs(h - h.T)) < 1e-10 * np.max(np.abs(h))
        assert np.max(np.abs(s + s.T)) < 1e-10 * max(np.max(np.abs(s)), 1e-30)


class TestSkewPairing:
    def test_identity_h(self):
        report = skew_pairing_check(np.eye(2), np.zeros((2, 2)))
        assert report.passed

    def test_mixed_signature(self):
        # eigenvalues of [[0, I], [diag(1,-1), 0]] are +-1 and +-i
        h = np.diag([1.0, -1.0]).astype(complex)
        report = skew_pairing_check(h, np.zeros((2, 2)))
        assert report.passed

    def test_random_blocks(self, rng):
        for _ in range(10):
            h = random_complex_symmetric(rng, 3) + 0.7 * np.eye(3)
            g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            s = 0.5 * (g - g.T)
            report = skew_pairing_check(h, s)
            assert report.passed, f"defect {report.defect}"

    def test_singular_h_flagged(self):
        with pytest.raises(ValueError, match="singular"):
            skew_pairing_check(np.zeros((2, 2)), np.zeros((2, 2)))

    def test_requires_equal_shapes(self):
        with pytest.raises(ValueError, match="H and S must be square of equal size"):
            skew_pairing_check(np.eye(2), np.zeros((3, 3)))

    def test_requires_skew_s(self):
        with pytest.raises(ValueError, match="S is not skew-symmetric"):
            skew_pairing_check(np.eye(2), np.eye(2))

    def test_requires_symmetry(self, rng):
        g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        with pytest.raises(ValueError):
            skew_pairing_check(g, np.zeros((3, 3)))
