import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from saddlebounds.bounds import (
    SpectralInclusion,
    _smallest_positive_root,
    b_norm_upper,
    gamma_classical,
    gamma_opt_general,
    gamma_simple,
    hermitian_outer_bounds,
    inclusion_set,
    minres_iteration_bound,
    mu3_cubic,
    mu3_simple,
    phi_max_appendix,
    witness_general,
    witness_hermitian,
)
from saddlebounds.saddle import (
    BrezziConstants,
    SaddleSystem,
    brezzi_constants,
    reduce_system,
)
from saddlebounds.densecore import generalized_hermitian_eig
from saddlebounds.verify import random_coercive_system
from dense_pair import inner_product_matrix

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def bisect_root(coeffs, lo, hi, iters=200):
    """Plain bisection oracle, independent of the production code path."""
    f = lambda x: ((x + coeffs[0]) * x + coeffs[1]) * x + coeffs[2]
    flo = f(lo)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if f(mid) * flo > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def simple_smallest_root(c2, c1, c0):
    """Smallest positive root of a bound cubic by numpy's companion matrix.

    With ``c0 > 0`` the cubic has one negative root and two positive ones
    (a complex pair at a rounded double root).  A double root is conditioned
    at sqrt(eps), where numpy.roots itself is off by about 5e-9, so only
    examples with two well separated positive roots are compared.
    """
    roots = np.roots([1.0, c2, c1, c0])
    small, large = np.sort(roots.real[roots.real > 0.0])
    assume(large - small > 1e-6 * large)
    return small


class TestSmallestPositiveRoot:
    """Each case is the public bound that builds the named cubic."""

    def test_factorable_cubic(self):
        # mu^3 - 2 mu + 1 = (mu - 1)(mu^2 + mu - 1)
        root = gamma_opt_general(1.0, 1.0, 1.0)
        assert root == pytest.approx(GOLDEN, rel=1e-14)

    def test_sqrt3_cubic_vs_bisection(self):
        coeffs = (0.0, -2.0, 1.0 / math.sqrt(3.0))
        oracle = bisect_root(coeffs, 0.0, 0.5)
        root = gamma_opt_general(1.0 / math.sqrt(3.0), 1.0, 1.0)
        assert root == pytest.approx(oracle, rel=1e-13)
        assert root == pytest.approx(0.30252, abs=5e-6)

    def test_parabolic_cubic(self):
        # mu^3 - mu^2 - 0.5 mu + (1 - sqrt(2)/2)
        root = mu3_cubic(2.0 - math.sqrt(2.0), math.sqrt(2.0) / 2.0, 0.0, 1.0)
        assert round(root, 3) == 0.396

    def test_no_positive_root(self):
        with pytest.raises(ValueError, match="no positive real root"):
            _smallest_positive_root(3.0, 3.0, 1.0, 1.0)  # (mu+1)^3

    def test_double_root(self):
        # alpha = lambda_max = 1, lambda_min = 0, beta = 1: (mu - 1)^2 (mu + 1)
        assert mu3_cubic(1.0, 1.0, 0.0, 1.0) == 1.0

    def test_never_above_alpha(self):
        # The exact root lies 1.1e-16 below alpha, where q rounds to a
        # positive value; a bracket wider than alpha returned 1.0.
        alpha = 0.9999999999999999
        assert mu3_cubic(alpha, 3.3590324150830253, 0.0, 1.0) <= alpha

    def test_root_at_alpha_branch(self):
        # alpha = a_norm = 1, beta = 2: roots are 1 and (-1 + sqrt(17))/2 > 1
        root = gamma_opt_general(1.0, 2.0, 1.0)
        assert root == pytest.approx(1.0, rel=1e-14)


class TestCubicBoundsProperty:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        alpha_share=st.floats(0.01, 1.0),
        beta=st.floats(0.05, 5.0),
        lambda_min=st.floats(-5.0, 0.0),
        lambda_max=st.floats(0.05, 5.0),
    )
    def test_mu3_is_smallest_positive_root(self, alpha_share, beta, lambda_min, lambda_max):
        alpha = alpha_share * lambda_max
        root = mu3_cubic(alpha, beta, lambda_min, lambda_max)
        assert 0.0 < root <= alpha
        oracle = simple_smallest_root(
            -(lambda_min + lambda_max), lambda_min * lambda_max - beta * beta, alpha * beta * beta
        )
        assert root == pytest.approx(oracle, rel=1e-12)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        alpha_share=st.floats(0.01, 1.0),
        beta=st.floats(0.05, 5.0),
        a_norm=st.floats(0.05, 5.0),
    )
    def test_gamma_opt_is_smallest_positive_root(self, alpha_share, beta, a_norm):
        alpha = alpha_share * a_norm
        root = gamma_opt_general(alpha, beta, a_norm)
        assert 0.0 < root <= alpha
        oracle = simple_smallest_root(0.0, -(a_norm * a_norm + beta * beta), alpha * beta * beta)
        assert root == pytest.approx(oracle, rel=1e-12)


class TestGammaBounds:
    def test_gamma_opt_is_mu3_cubic_on_the_symmetric_range(self):
        # gamma_opt's cubic is mu3's on the eigenvalue range [-a_norm,
        # a_norm], bit for bit, over the ranges of acceptance criterion 3.
        rng = np.random.default_rng(3)
        for _ in range(2000):
            a_norm = float(rng.uniform(0.2, 4.0))
            alpha = float(rng.uniform(0.02, 1.0)) * a_norm
            beta = float(rng.uniform(0.1, 3.0))
            want = mu3_cubic(alpha, beta, -a_norm, a_norm)
            assert gamma_opt_general(alpha, beta, a_norm) == want

    def test_gamma_opt_golden(self):
        assert gamma_opt_general(1.0, 1.0, 1.0) == pytest.approx(GOLDEN, rel=1e-14)

    def test_gamma_opt_sqrt3(self):
        oracle = bisect_root((0.0, -2.0, 1.0 / math.sqrt(3.0)), 0.0, 0.5)
        assert gamma_opt_general(1.0 / math.sqrt(3.0), 1.0, 1.0) == pytest.approx(
            oracle, rel=1e-13
        )

    def test_gamma_opt_matches_witness_eigenvalue(self):
        sys = witness_general(0.5, 1.0, 1.0)
        spec = generalized_hermitian_eig(sys.assemble(), np.eye(3))
        gamma = np.min(np.abs(spec))
        assert gamma_opt_general(0.5, 1.0, 1.0) == pytest.approx(gamma, rel=1e-12)
        assert gamma == pytest.approx(0.2585, abs=2e-4)

    def test_gamma_simple_values(self):
        assert gamma_simple(1.0, 1.0, 1.0) == pytest.approx(0.5)
        assert gamma_simple(1.0 / math.sqrt(3.0), 1.0, 1.0) == pytest.approx(
            1.0 / (2.0 * math.sqrt(3.0)), rel=1e-14
        )
        assert gamma_simple(2.0 - math.sqrt(2.0), math.sqrt(2.0) / 2.0, 1.0) == (
            pytest.approx((2.0 - math.sqrt(2.0)) / 3.0, rel=1e-14)
        )

    def test_gamma_classical_hand_value(self):
        # D1 = [[1, 2], [2, 2]] has spectral radius (3 + sqrt(17))/2
        expected = 2.0 / (3.0 + math.sqrt(17.0))
        assert gamma_classical(1.0, 1.0, 1.0) == pytest.approx(expected, rel=1e-14)
        assert gamma_classical(1.0, 1.0, 1.0) == pytest.approx(0.28078, abs=5e-6)

    def test_simple_beats_classical(self):
        assert gamma_simple(1.0, 1.0, 1.0) > gamma_classical(1.0, 1.0, 1.0)

    def test_full_ordering_at_unit_point(self):
        opt = gamma_opt_general(1.0, 1.0, 1.0)
        simple = gamma_simple(1.0, 1.0, 1.0)
        classical = gamma_classical(1.0, 1.0, 1.0)
        assert classical < simple < opt <= 1.0

    def test_ordering_sweep(self, rng):
        # strict ordering with margin on a 1000-point parameter sweep
        for _ in range(1000):
            a_norm = float(rng.uniform(0.2, 4.0))
            alpha = float(rng.uniform(0.02, 1.0)) * a_norm
            beta = float(rng.uniform(0.1, 3.0))
            opt = gamma_opt_general(alpha, beta, a_norm)
            simple = gamma_simple(alpha, beta, a_norm)
            classical = gamma_classical(alpha, beta, a_norm)
            assert classical < simple - 1e-12 * simple
            assert simple < opt - 1e-12 * opt
            assert opt <= alpha * (1.0 + 1e-12)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            gamma_opt_general(2.0, 1.0, 1.0)  # alpha > a_norm
        with pytest.raises(ValueError):
            gamma_simple(-1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            gamma_classical(0.5, 0.0, 1.0)


class TestOuterBounds:
    def test_norm_upper_values(self):
        assert b_norm_upper(1.0, 1.0) == pytest.approx((1.0 + math.sqrt(5.0)) / 2.0)
        assert b_norm_upper(0.0, 1.0) == pytest.approx(1.0)
        assert b_norm_upper(2.0, 0.0) == pytest.approx(2.0)

    def test_parabolic_endpoints(self):
        mu1, mu2, mu4 = hermitian_outer_bounds(0.0, 1.0, math.sqrt(2.0) / 2.0, 1.0)
        assert mu1 == pytest.approx(-1.0)
        assert mu2 == pytest.approx((1.0 - math.sqrt(3.0)) / 2.0, rel=1e-14)
        assert mu2 == pytest.approx(-0.366, abs=5e-4)
        assert mu4 == pytest.approx((1.0 + math.sqrt(5.0)) / 2.0, rel=1e-14)

    def test_unit_point(self):
        _, mu2, _ = hermitian_outer_bounds(1.0, 1.0, 1.0, 1.0)
        assert mu2 == pytest.approx((1.0 - math.sqrt(5.0)) / 2.0, rel=1e-14)

    def test_semidefinite_symmetry(self):
        mu1, mu2, mu4 = hermitian_outer_bounds(0.0, 1.0, 1.0, 1.0)
        assert mu2 == pytest.approx((1.0 - math.sqrt(5.0)) / 2.0, rel=1e-14)
        assert mu2 == pytest.approx(-mu4 + 1.0, rel=1e-14)

    def test_validation(self):
        with pytest.raises(ValueError):
            hermitian_outer_bounds(0.0, -1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            hermitian_outer_bounds(0.0, 1.0, 2.0, 1.0)  # beta > b_norm
        with pytest.raises(ValueError, match="norms must be nonnegative"):
            b_norm_upper(1.0, -1.0)


class TestMu3:
    def test_parabolic_value(self):
        root = mu3_cubic(2.0 - math.sqrt(2.0), math.sqrt(2.0) / 2.0, 0.0, 1.0)
        assert round(root, 3) == 0.396

    def test_reduces_to_general_cubic(self):
        # lambda_min = -a_norm, lambda_max = a_norm collapses to the norm-only cubic
        a_norm = 1.0
        assert mu3_cubic(0.5, 1.0, -a_norm, a_norm) == pytest.approx(
            gamma_opt_general(0.5, 1.0, a_norm), rel=1e-13
        )

    def test_matches_witness_eigenvalue(self):
        sys = witness_hermitian(0.5, 1.0, -0.25, 1.0)
        spec = generalized_hermitian_eig(sys.assemble(), np.eye(3))
        pos = spec[spec > 0]
        assert mu3_cubic(0.5, 1.0, -0.25, 1.0) == pytest.approx(pos.min(), rel=1e-12)

    def test_simple_parabolic_value(self):
        val = mu3_simple(2.0 - math.sqrt(2.0), math.sqrt(2.0) / 2.0, 0.0, 1.0)
        assert val == pytest.approx(0.346, abs=5e-4)

    def test_simple_semidefinite_identity(self):
        # lambda_min = 0 specialization: 2 alpha beta / (beta + sqrt(beta^2 + 4 alpha a))
        for alpha, beta, a_norm in [(0.3, 0.7, 1.1), (0.9, 1.5, 2.0), (0.05, 0.3, 0.4)]:
            closed = 2.0 * alpha * beta / (beta + math.sqrt(beta**2 + 4.0 * alpha * a_norm))
            assert mu3_simple(alpha, beta, 0.0, a_norm) == pytest.approx(closed, rel=1e-13)

    def test_simple_negative_trace_branch(self):
        assert mu3_simple(1.0, 1.0, -2.0, 1.0) == pytest.approx(1.0 / 3.0, rel=1e-14)

    def test_cubic_at_least_simple(self, rng):
        for _ in range(1000):
            lam_max = float(rng.uniform(0.2, 3.0))
            lam_min = -float(rng.uniform(0.0, 2.5))
            alpha = float(rng.uniform(0.02, 1.0)) * lam_max
            beta = float(rng.uniform(0.1, 2.5))
            cubic = mu3_cubic(alpha, beta, lam_min, lam_max)
            simple = mu3_simple(alpha, beta, lam_min, lam_max)
            assert cubic >= simple - 1e-12

    def test_monotone_replacement(self, rng):
        # widening the eigenvalue range to +-a_norm never increases the root
        for _ in range(200):
            lam_max = float(rng.uniform(0.2, 3.0))
            lam_min = -float(rng.uniform(0.0, 2.5))
            alpha = float(rng.uniform(0.02, 1.0)) * lam_max
            beta = float(rng.uniform(0.1, 2.5))
            a_norm = max(abs(lam_min), lam_max)
            tight = mu3_cubic(alpha, beta, lam_min, lam_max)
            wide = mu3_cubic(alpha, beta, -a_norm, a_norm)
            assert wide <= tight + 1e-12

    def test_rejects_positive_lambda_min(self):
        with pytest.raises(ValueError):
            mu3_cubic(0.5, 1.0, 0.1, 1.0)

    def test_rejects_alpha_above_lambda_max(self):
        with pytest.raises(ValueError, match="need 0 < alpha <= lambda_max"):
            mu3_cubic(2.0, 1.0, -1.0, 1.0)


class TestInclusionSet:
    def test_parabolic_theorem_constants(self):
        constants = BrezziConstants(
            alpha=2.0 - math.sqrt(2.0),
            beta=math.sqrt(2.0) / 2.0,
            a_norm=1.0,
            b_norm=1.0,
            lambda_min_a=0.0,
            lambda_max_a=1.0,
        )
        inc = inclusion_set(constants)
        assert (round(inc.mu1, 3), round(inc.mu2, 3)) == (-1.0, -0.366)
        assert (round(inc.mu3, 3), round(inc.mu4, 3)) == (0.396, 1.618)

    def test_definite_block_routes_to_lambda_min(self):
        constants = BrezziConstants(
            alpha=0.5, beta=1.0, a_norm=2.0, b_norm=1.0,
            lambda_min_a=0.25, lambda_max_a=2.0,
        )
        inc = inclusion_set(constants)
        assert inc.mu3 == pytest.approx(0.25)

    def test_stokes_symmetric_interval(self):
        mu3 = gamma_opt_general(1.0 / math.sqrt(3.0), 1.0, 1.0)
        mu4 = b_norm_upper(1.0, 1.0)
        assert mu3 == pytest.approx(0.3025, abs=5e-4)
        assert mu4 == pytest.approx(1.618, abs=5e-4)

    def test_encloses_random_spectra(self, rng):
        for _ in range(50):
            n = int(rng.integers(3, 9))
            m = int(rng.integers(1, min(n, 5)))
            sys, p, r = random_coercive_system(rng, n, m)
            constants = brezzi_constants(reduce_system(sys, p, r))
            inc = inclusion_set(constants)
            spec = generalized_hermitian_eig(sys.assemble(), inner_product_matrix(p, r))
            assert inc.contains(spec, slack=1e-8)

    def test_indefinite_kernel_rejected(self):
        sys = SaddleSystem(a=np.array([[-2.0, 2.0], [2.0, 1.0]]), b=np.array([[0.0, 1.0]]))
        constants = brezzi_constants(sys)
        assert constants.alpha == pytest.approx(2.0)
        assert not constants.kernel_coercive
        with pytest.raises(ValueError, match="positive definite on ker"):
            inclusion_set(constants)

    def test_invalid_ordering_rejected(self):
        with pytest.raises(ValueError):
            SpectralInclusion(mu1=-1.0, mu2=0.5, mu3=1.0, mu4=2.0)


class TestWitnesses:
    def test_general_degenerate(self):
        sys = witness_general(1.0, 1.0, 1.0)
        assert np.allclose(sys.a, np.diag([1.0, -1.0]))

    def test_general_sharpness(self, rng):
        for alpha, beta, a_norm in [(0.5, 1.0, 1.0), (0.3, 2.0, 1.0)]:
            sys = witness_general(alpha, beta, a_norm)
            spec = generalized_hermitian_eig(sys.assemble(), np.eye(3))
            gamma = np.min(np.abs(spec))
            assert gamma == pytest.approx(
                gamma_opt_general(alpha, beta, a_norm), rel=1e-12
            )

    def test_general_constants_recovered(self):
        sys = witness_general(0.5, 1.0, 1.0)
        bc = brezzi_constants(sys)
        assert bc.alpha == pytest.approx(0.5, abs=1e-12)
        assert bc.beta == pytest.approx(1.0, abs=1e-12)
        assert bc.a_norm == pytest.approx(1.0, abs=1e-12)

    def test_hermitian_degenerate(self):
        sys = witness_hermitian(1.0, 1.0, 0.0, 1.0)
        assert np.allclose(sys.a, np.diag([1.0, 0.0]))

    def test_hermitian_parabolic_point(self):
        sys = witness_hermitian(2.0 - math.sqrt(2.0), math.sqrt(2.0) / 2.0, 0.0, 1.0)
        spec = generalized_hermitian_eig(sys.assemble(), np.eye(3))
        pos = spec[spec > 0]
        assert pos.min() == pytest.approx(0.396, abs=5e-4)

    def test_hermitian_sharpness(self):
        sys = witness_hermitian(0.5, 1.0, -0.5, 2.0)
        spec = generalized_hermitian_eig(sys.assemble(), np.eye(3))
        pos = spec[spec > 0]
        assert pos.min() == pytest.approx(mu3_cubic(0.5, 1.0, -0.5, 2.0), rel=1e-12)

    def test_witness_block_eigenvalues(self):
        sys = witness_hermitian(0.4, 1.3, -0.7, 1.9)
        lam = np.linalg.eigvalsh(sys.a)
        assert lam == pytest.approx([-0.7, 1.9], rel=1e-12)

    def test_domain_violations(self):
        with pytest.raises(ValueError):
            witness_general(1.5, 1.0, 1.0)
        with pytest.raises(ValueError):
            witness_hermitian(0.5, 1.0, 0.2, 1.0)


class TestAppendixMax:
    def test_degenerate_zero(self):
        value, _ = phi_max_appendix(1.0, 0.0, 1.0, 0.5)
        assert value == pytest.approx(0.0, abs=1e-14)

    def test_hand_value(self):
        value, _ = phi_max_appendix(0.5, -1.0, 1.0, 0.25)
        assert value == pytest.approx(3.5, rel=1e-14)

    def test_argmax_on_both_constraints(self):
        alpha, lam_min, lam_max, mu = 0.6, -0.8, 1.4, 0.3
        value, (r1, r2) = phi_max_appendix(alpha, lam_min, lam_max, mu)
        assert alpha * r1 + (lam_max - alpha) * r2 == pytest.approx(
            lam_max * (lam_max - alpha), rel=1e-12
        )
        assert -alpha * r1 + (alpha - lam_min) * r2 == pytest.approx(
            lam_min * (alpha - lam_min), abs=1e-12
        )
        assert alpha / (alpha - mu) * r1 - r2 == pytest.approx(value, rel=1e-12)

    def test_dominates_samples(self, rng):
        alpha, lam_min, lam_max, mu = 0.7, -0.5, 1.2, 0.35
        value, (r1s, r2s) = phi_max_appendix(alpha, lam_min, lam_max, mu)
        r1 = rng.uniform(r1s - 2.0, r1s + 2.0, size=10_000)
        r2 = rng.uniform(r2s - 3.0, r2s + 3.0, size=10_000)
        feas = (alpha * r1 + (lam_max - alpha) * r2 <= lam_max * (lam_max - alpha)) & (
            -alpha * r1 + (alpha - lam_min) * r2 >= lam_min * (alpha - lam_min)
        )
        phi = alpha / (alpha - mu) * r1[feas] - r2[feas]
        assert np.all(phi <= value + 1e-12)

    def test_mu_domain(self):
        with pytest.raises(ValueError):
            phi_max_appendix(0.5, -1.0, 1.0, 0.6)


def mirror(lo, hi):
    return SpectralInclusion(-hi, -lo, lo, hi)


def chebyshev_residual_max(inclusion, k):
    """Largest modulus, on a grid of both intervals of ``inclusion``, of the
    degree-``k`` residual polynomial behind :func:`minres_iteration_bound`:
    ``T_l`` in ``(d^2 + c^2 - 2 mu^2)/(d^2 - c^2)``, ``k = 2l``, normalized
    at ``mu = 0``, on the symmetric hull ``[-d, -c] u [c, d]``.  Evaluated
    by Clenshaw's recurrence, not by the closed form of its maximum."""
    c = min(-inclusion.mu2, inclusion.mu3)
    d = max(-inclusion.mu1, inclusion.mu4)
    mu = np.concatenate([
        np.linspace(inclusion.mu1, inclusion.mu2, 20001),
        np.linspace(inclusion.mu3, inclusion.mu4, 20001),
    ])
    t_l = np.zeros(k // 2 + 1)
    t_l[-1] = 1.0
    x = (d * d + c * c - 2.0 * mu * mu) / (d * d - c * c)
    at_zero = np.polynomial.chebyshev.chebval((d * d + c * c) / (d * d - c * c), t_l)
    return float(np.max(np.abs(np.polynomial.chebyshev.chebval(x, t_l))) / abs(at_zero))


class TestIterationBound:
    def test_paper_value_102(self):
        mu3 = gamma_opt_general(1.0 / math.sqrt(3.0), 1.0, 1.0)
        mu4 = b_norm_upper(1.0, 1.0)
        assert minres_iteration_bound(mirror(mu3, mu4), 1e-8) == 102

    def test_equal_endpoints(self):
        assert minres_iteration_bound(mirror(1.0, 1.0), 1e-8) == 2

    def test_direct_loop_crosscheck(self):
        mu3, mu4, eps = 0.5, 1.0, 1e-8
        kappa = mu4 / mu3
        q = (kappa - 1.0) / (kappa + 1.0)
        level = 1
        while 2.0 * q**level / (1.0 + q ** (2 * level)) > eps:
            level += 1
        assert minres_iteration_bound(mirror(mu3, mu4), eps) == 2 * level

    def test_monotone_in_eps(self):
        ks = [minres_iteration_bound(mirror(0.5, 1.0), eps) for eps in (1e-2, 1e-4, 1e-8, 1e-12)]
        assert ks == sorted(ks)

    def test_validation(self):
        with pytest.raises(ValueError):
            minres_iteration_bound(SpectralInclusion(-1.0, 0.0, 0.0, 1.0), 1e-8)
        with pytest.raises(ValueError):
            minres_iteration_bound(mirror(0.5, 1.0), 2.0)

    def test_kkt_set(self):
        # The KKT theory set [-1, (1-sqrt(3))/2] u [mu3, (1+sqrt(5))/2]: its
        # negative interval reaches closer to zero than mu3, so the hull is
        # +-[(sqrt(3)-1)/2, (1+sqrt(5))/2]; the positive interval alone
        # would give 78.
        inc = inclusion_set(
            BrezziConstants(2.0 - math.sqrt(2.0), math.sqrt(2.0) / 2.0, 1.0, 1.0, 0.0, 1.0)
        )
        assert -inc.mu2 < inc.mu3
        assert minres_iteration_bound(inc, 1e-8) == 84
        assert minres_iteration_bound(mirror(inc.mu3, inc.mu4), 1e-8) == 78
        assert chebyshev_residual_max(inc, 84) <= 1e-8
        assert chebyshev_residual_max(inc, 82) > 1e-8

    def test_chebyshev_polynomial_on_random_sets(self, rng):
        nearer_negative = 0
        for _ in range(40):
            mu2, mu3 = -rng.uniform(0.05, 1.0), rng.uniform(0.05, 1.0)
            inc = SpectralInclusion(
                mu2 - rng.uniform(0.0, 3.0), mu2, mu3, mu3 + rng.uniform(0.0, 3.0)
            )
            nearer_negative += -mu2 < mu3
            for eps in (1e-2, 1e-8):
                k = minres_iteration_bound(inc, eps)
                assert chebyshev_residual_max(inc, k) <= eps
                if k > 2:
                    assert chebyshev_residual_max(inc, k - 2) > eps
        assert 10 <= nearer_negative <= 30
