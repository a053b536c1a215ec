from itertools import islice

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from saddlebounds import krylov
from saddlebounds.bounds import SpectralInclusion, minres_iteration_bound, witness_general
from saddlebounds.densecore import generalized_hermitian_eig
from saddlebounds.fem import build_mesh, parabolic_kkt, parabolic_reduced, stokes_system
from saddlebounds.krylov import (
    CHECK_EVERY,
    CHECK_FIRST,
    ESTIMATE_STEPS,
    PROBE_SEED,
    LinearOperator,
    RitzEstimate,
    estimate_intervals,
    minres_solve,
    stagnation_profile,
)
from saddlebounds.verify import random_hermitian, random_spd
from dense_pair import inner_product_matrix, saddle_system
from reference_gmres import gmres_pc_norm


def dense(matrix):
    """A dense matrix as the operator the solver takes."""
    return LinearOperator(matrix.shape[0], lambda x: matrix @ x)


def identity(dim):
    return LinearOperator(dim, lambda x: x)


def hermitian_with_spectrum(rng, eigenvalues):
    n = len(eigenvalues)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return q @ np.diag(np.asarray(eigenvalues, dtype=float)) @ q.conj().T


def lanczos_data(op, pc, start, steps):
    """Diagonal entries and the coupling coefficients that follow them (the
    last is the first neglected one) of ``steps`` preconditioned Lanczos
    steps from ``start``, fewer on breakdown."""
    lanczos = krylov._lanczos(op, pc, np.asarray(start, dtype=complex))
    next(lanczos)
    alphas, betas = zip(*((delta, beta) for _, delta, beta in islice(lanczos, steps)))
    return np.array(alphas), np.array(betas)


def ritz_intervals(alphas, betas):
    """Reference extraction from the dense tridiagonal ``T`` and the dense
    harmonic pencil ``(T, T^2 + beta^2 e_k e_k^T)``, whose eigenvalues are
    the reciprocals of the harmonic Ritz values."""
    t = np.diag(alphas) + np.diag(betas[:-1], 1) + np.diag(betas[:-1], -1)
    tt = t @ t
    tt[-1, -1] += betas[-1] ** 2
    ritz = np.linalg.eigvalsh(t)
    harm = 1.0 / scipy.linalg.eigh(t, tt, eigvals_only=True)
    return RitzEstimate(
        neg_lo=float(ritz.min()),
        neg_hi=float(harm[harm < 0.0].max()),
        pos_lo=float(harm[harm > 0.0].min()),
        pos_hi=float(ritz.max()),
        steps=len(alphas),
        certified=False,
    )


def checked_extraction(alphas, betas):
    """The extraction of the estimator, checked against :func:`ritz_intervals`."""
    est = krylov._ritz_estimate(list(alphas), list(betas))
    ref = ritz_intervals(alphas, betas)
    for name in ("neg_lo", "neg_hi", "pos_lo", "pos_hi"):
        assert getattr(est, name) == pytest.approx(getattr(ref, name), rel=1e-12), name
    assert est.steps == len(alphas)
    return est


class TestMinresBasics:
    def test_identity_converges_in_one_step(self):
        rhs = np.zeros(4, dtype=complex)
        rhs[0] = 1.0
        report = minres_solve(dense(np.eye(4, dtype=complex)), identity(4), rhs)
        assert report.converged
        assert report.iterations == 1
        assert np.allclose(report.x, rhs)

    def test_counts_applications(self, rng):
        # Two symmetry probes, the start vector's preconditioner, one pair
        # per step and the true-residual check.
        a = random_hermitian(rng, 12)
        p_inv = np.linalg.inv(random_spd(rng, 12))
        rhs = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        report = minres_solve(dense(a), dense(p_inv), rhs, eps=1e-10)
        assert report.operator_applications == report.iterations + 3
        assert report.preconditioner_applications == report.iterations + 4
        est = estimate_intervals(dense(a), dense(p_inv))
        assert est.operator_applications == est.steps
        assert est.preconditioner_applications == est.steps + 1

    def test_operators_that_return_their_argument(self, rng):
        # The updates run in place, so results that alias the argument are
        # copied first: the answers equal those with fresh results, and the
        # right-hand side is left as it was.
        a = random_hermitian(rng, 10)
        rhs = rng.standard_normal(10) + 1j * rng.standard_normal(10)
        kept = rhs.copy()
        fresh = LinearOperator(10, lambda x: x.copy())
        report = minres_solve(dense(a), identity(10), rhs, eps=1e-10)
        want = minres_solve(dense(a), fresh, rhs, eps=1e-10)
        assert np.array_equal(rhs, kept)
        assert np.array_equal(report.x, want.x)
        assert np.array_equal(report.residual_history, want.residual_history)
        assert estimate_intervals(dense(a), identity(10)) == estimate_intervals(dense(a), fresh)
        report = minres_solve(identity(10), identity(10), rhs)
        assert np.array_equal(rhs, kept)
        assert report.iterations == 1 and np.allclose(report.x, rhs)

    def test_witness_finite_termination(self):
        sys = witness_general(0.5, 1.0, 1.0)
        rhs = np.array([1.0, 2.0, -1.0], dtype=complex)
        report = minres_solve(dense(sys.assemble()), identity(3), rhs, eps=1e-12)
        assert report.converged
        assert report.iterations <= 3
        assert np.linalg.norm(sys.assemble() @ report.x - rhs) < 1e-10

    def test_finite_termination_random(self, rng):
        for n in (6, 11):
            a = random_hermitian(rng, n) + 0j
            rhs = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            report = minres_solve(dense(a), identity(n), rhs, eps=1e-10, maxit=n + 2)
            assert report.converged
            assert report.iterations <= n

    def test_preconditioned_solve(self, rng):
        a = random_hermitian(rng, 8)
        p = random_spd(rng, 8)
        p_inv = np.linalg.inv(p)
        rhs = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        report = minres_solve(dense(a), dense(p_inv), rhs, eps=1e-10)
        assert report.converged
        assert np.linalg.norm(a @ report.x - rhs) <= 1e-7 * np.linalg.norm(rhs)

    def test_residual_history_monotone(self, rng):
        a = random_hermitian(rng, 12)
        rhs = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        report = minres_solve(dense(a), identity(12), rhs, eps=1e-10)
        h = report.residual_history
        assert np.all(h[1:] <= h[:-1] * (1.0 + 1e-13))

    def test_recurrence_matches_true_residual(self, rng):
        a = random_hermitian(rng, 20)
        p = random_spd(rng, 20)
        rhs = rng.standard_normal(20) + 1j * rng.standard_normal(20)
        p_inv = np.linalg.inv(p)
        # Stop every 5 steps, and at convergence, to compare the two residuals.
        for maxit in range(5, 45, 5):
            report = minres_solve(dense(a), dense(p_inv), rhs, eps=1e-9, maxit=maxit)
            assert report.true_residual == pytest.approx(
                report.residual_history[-1], rel=1e-6, abs=1e-12
            )
            if report.converged:
                break
        assert report.converged

    def test_lanczos_scalars_real_and_positive_offdiag(self, rng):
        a = random_hermitian(rng, 10)
        rhs = rng.standard_normal(10) + 1j * rng.standard_normal(10)
        alphas, betas = lanczos_data(dense(a), identity(10), rhs, 10)
        assert np.isrealobj(alphas) and np.isrealobj(betas)
        assert np.all(betas[:-1] > 0.0)

    def test_non_hermitian_rejected(self, rng):
        bad = rng.standard_normal((5, 5))
        rhs = np.ones(5, dtype=complex)
        with pytest.raises(ValueError, match="Hermitian"):
            minres_solve(dense(bad), identity(5), rhs)

    @pytest.mark.parametrize("level", [0, 1, 2])
    def test_zero_lanczos_diagonal_accepted(self, level):
        # At omega = 0 a right-hand side whose second block is 1j times the
        # first gives Lanczos diagonal entries that vanish up to rounding;
        # their imaginary part must not be judged relative to their size.
        problem = stokes_system(build_mesh(level), nu=1.0, omega=0.0)
        half = problem.n // 2
        rhs = problem.rhs.copy()
        rhs[half : 2 * half] = 1j * rhs[:half]
        op, pc = problem.operator(), problem.preconditioner()
        report = minres_solve(op, pc, rhs)
        assert report.converged
        alphas, _ = lanczos_data(op, pc, rhs, report.iterations)
        assert np.max(np.abs(alphas)) < 1e-10

    def test_negative_preconditioner_rejected_by_probe(self, rng):
        a = random_hermitian(rng, 5)
        rhs = np.ones(5, dtype=complex)
        with pytest.raises(ValueError, match="positive"):
            minres_solve(dense(a), dense(-np.eye(5)), rhs)

    def test_indefinite_preconditioner_rejected_in_iteration(self, rng):
        a = random_hermitian(rng, 5)
        rhs = np.zeros(5, dtype=complex)
        rhs[1] = 1.0
        with pytest.raises(ValueError, match="positive"):
            minres_solve(dense(a), dense(np.diag([1.0, -1.0, 1.0, 1.0, 1.0])), rhs)

    def test_zero_rhs_returns_zero_without_iterating(self, rng):
        report = minres_solve(dense(random_hermitian(rng, 4)), identity(4), np.zeros(4))
        assert report.iterations == 0 and report.converged
        assert not np.any(report.x) and report.true_residual == 0.0
        with pytest.raises(ValueError, match="need at least one iteration"):
            stagnation_profile(report)

    def test_rhs_of_wrong_shape_rejected(self):
        with pytest.raises(ValueError, match=r"rhs has shape \(5,\), expected \(4,\)"):
            minres_solve(identity(4), identity(4), np.ones(5))

    def test_missing_rhs_rejected_before_work(self):
        calls = []
        op = LinearOperator(dim=3, apply=lambda x: calls.append(x) or x)
        with pytest.raises(TypeError, match="missing 1 required positional argument: 'rhs'"):
            minres_solve(op, identity(3))
        assert not calls

    def test_maxit_reports_unconverged(self, rng):
        a = random_hermitian(rng, 30)
        rhs = rng.standard_normal(30) + 1j * rng.standard_normal(30)
        report = minres_solve(dense(a), identity(30), rhs, eps=1e-14, maxit=3)
        assert not report.converged
        assert report.iterations == 3


class TestReferenceGmres:
    """The GMRES that checks the acceptance iteration counts."""

    def test_solves_and_reports_true_residual(self, rng):
        a = random_hermitian(rng, 20)
        p = random_spd(rng, 20)
        p_inv = np.linalg.inv(p)
        rhs = rng.standard_normal(20) + 1j * rng.standard_normal(20)
        k, x, history = gmres_pc_norm(lambda v: a @ v, lambda v: p_inv @ v, rhs, eps=1e-10)
        assert k is not None and history[k] <= 1e-10 * history[0]
        assert np.allclose(x, np.linalg.solve(a, rhs), rtol=1e-7)
        r = rhs - a @ x
        assert np.sqrt(np.vdot(r, p_inv @ r).real) == pytest.approx(history[k], rel=1e-4)

    def test_history_matches_minres(self, rng):
        # M = L H L^* with Pc = L L^*: the preconditioned spectrum is that of
        # H, two clusters that MINRES resolves well before n steps.
        spectrum = np.concatenate([rng.uniform(-2.0, -0.5, 30), rng.uniform(0.5, 2.0, 30)])
        lower = np.linalg.cholesky(random_spd(rng, 60))
        a = lower @ hermitian_with_spectrum(rng, spectrum) @ lower.conj().T
        p_inv = np.linalg.inv(lower @ lower.conj().T)
        rhs = rng.standard_normal(60) + 1j * rng.standard_normal(60)
        report = minres_solve(dense(a), dense(p_inv), rhs, eps=1e-8)
        k, _, history = gmres_pc_norm(lambda v: a @ v, lambda v: p_inv @ v, rhs)
        assert k == report.iterations
        assert history == pytest.approx(report.residual_history, rel=1e-6)

    def test_unreached_target_gives_none(self, rng):
        a = random_hermitian(rng, 30)
        rhs = rng.standard_normal(30) + 1j * rng.standard_normal(30)
        k, _, history = gmres_pc_norm(lambda v: a @ v, lambda v: v, rhs, maxit=3)
        assert k is None and history.size == 4


class TestRitzIntervals:
    def test_two_by_two_exact(self):
        a = np.diag([-1.0, 2.0]).astype(complex)
        est = checked_extraction(*lanczos_data(dense(a), identity(2), [1.0, 1.0], 2))
        assert est.neg_lo == pytest.approx(-1.0, abs=1e-10)
        assert est.pos_hi == pytest.approx(2.0, abs=1e-10)

    def test_known_spectrum_endpoints(self, rng):
        lam = np.concatenate([-np.linspace(0.7, 2.3, 10), np.linspace(0.9, 3.1, 10)])
        a = hermitian_with_spectrum(rng, lam)
        rhs = rng.standard_normal(20) + 1j * rng.standard_normal(20)
        est = checked_extraction(*lanczos_data(dense(a), identity(20), rhs, 20))
        assert est.neg_lo == pytest.approx(-2.3, abs=1e-8)
        assert est.neg_hi == pytest.approx(-0.7, abs=1e-8)
        assert est.pos_lo == pytest.approx(0.9, abs=1e-8)
        assert est.pos_hi == pytest.approx(3.1, abs=1e-8)

    def test_contained_in_spectral_hull(self, rng):
        lam = np.concatenate([-np.linspace(0.5, 2.0, 8), np.linspace(0.4, 1.8, 8)])
        a = hermitian_with_spectrum(rng, lam)
        rhs = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        alphas, betas = lanczos_data(dense(a), identity(16), rhs, 16)
        for steps in (4, 8, 12, 16):
            est = checked_extraction(alphas[:steps], betas[:steps])
            assert est.pos_hi <= 1.8 + 1e-8
            assert est.neg_lo >= -2.0 - 1e-8
            assert est.pos_lo >= 0.4 - 1e-8
            assert est.neg_hi <= -0.5 + 1e-8

    def test_non_hermitian_operator_rejected(self):
        # The estimate makes no probes: the Lanczos diagonal is its guard.
        op = dense(np.diag([1.0, 2.0, 3.0, 4.0]) + 1j * np.eye(4))
        with pytest.raises(ValueError, match="system operator inner product has imaginary part"):
            estimate_intervals(op, identity(4))

    def test_needs_two_steps(self):
        # The recurrence breaks down after one step: one Ritz value cannot
        # straddle zero.
        with pytest.raises(ValueError, match="at Lanczos step 1; system looks definite"):
            estimate_intervals(dense(np.eye(3, dtype=complex)), identity(3))

    def test_tridiagonal_shape(self, rng):
        a = random_hermitian(rng, 9)
        rhs = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        alphas, betas = lanczos_data(dense(a), identity(9), rhs, 5)
        assert alphas.shape == betas.shape == (5,)
        assert betas[-1] >= 0.0
        assert checked_extraction(alphas, betas).steps == 5

    def test_estimation_run_matches_dense(self, rng):
        problem = stokes_system(build_mesh(1), nu=1.0, omega=1.0)
        est = estimate_intervals(problem.operator(), problem.preconditioner())
        spec = generalized_hermitian_eig(
            saddle_system(problem).assemble(),
            inner_product_matrix(*problem.inner_product_blocks()),
        )
        pos = spec[spec > 0]
        assert est.pos_lo == pytest.approx(pos.min(), abs=2e-4)
        assert est.pos_hi == pytest.approx(pos.max(), abs=2e-4)

    def test_estimate_is_minres_lanczos_data(self):
        # The estimator and the solver run one recurrence: on the estimator's
        # own probe, a solve that never meets its target has, at every step,
        # the least-squares residual of the estimator's tridiagonal.
        problem = stokes_system(build_mesh(2), nu=1.0, omega=1.0)
        op, pc = problem.operator(), problem.preconditioner()
        est = estimate_intervals(op, pc)
        # The certificate ends the estimate before the step cap.
        assert est.certified and est.steps < ESTIMATE_STEPS
        alphas, betas = lanczos_data(op, pc, probe(op.dim), est.steps)
        assert est == krylov._ritz_estimate(list(alphas), list(betas))
        history = probe_minres(op, pc, est.steps).residual_history
        assert history.size == est.steps + 1
        for k in range(1, est.steps + 1):
            off = betas[: k - 1]
            t = np.zeros((k + 1, k))
            t[:k] = np.diag(alphas[:k]) + np.diag(off, 1) + np.diag(off, -1)
            t[k, k - 1] = betas[k - 1]
            rhs = np.eye(k + 1)[0] * history[0]
            y = np.linalg.lstsq(t, rhs, rcond=None)[0]
            if history[k] > 1e-6 * history[0]:
                assert np.linalg.norm(rhs - t @ y) == pytest.approx(history[k], rel=1e-8)


def probe(dim):
    """The estimator's random probe vector."""
    rng = np.random.default_rng(PROBE_SEED)
    return rng.standard_normal(dim) + 1j * rng.standard_normal(dim)


def probe_minres(op, pc, steps):
    """A MINRES run on the estimator's probe that never meets its target."""
    return minres_solve(op, pc, probe(op.dim), eps=1e-300, maxit=steps)


def printed(value):
    return f"{value:.3f}"


def dense_enclosures(alphas, betas):
    """Largest Ritz value and smallest positive harmonic Ritz value with the
    residual bounds of their pairs, from the dense tridiagonal and the dense
    harmonic pencil ``(T, T^2 + beta^2 e_k e_k^T)``."""
    beta = betas[-1]
    t = np.diag(alphas) + np.diag(betas[:-1], 1) + np.diag(betas[:-1], -1)
    ritz, vectors = np.linalg.eigh(t)
    r_hi = beta * abs(vectors[-1, -1])
    tt = t @ t
    tt[-1, -1] += beta * beta
    rho, vectors = scipy.linalg.eigh(t, tt)
    s, theta = vectors[:, -1], 1.0 / rho[-1]
    r_lo = np.hypot(np.linalg.norm(t @ s - theta * s), beta * s[-1]) / np.linalg.norm(s)
    return ritz[-1], r_hi, theta, r_lo


def enclosures_print_one_value(alphas, betas):
    hi, r_hi, lo, r_lo = dense_enclosures(alphas, betas)
    return printed(hi) == printed(hi + r_hi) and printed(lo) == printed(lo - r_lo)


def certified_stop(op, pc):
    """The estimate, checked to stop at the first check step at which both
    dense enclosures print one value, and those enclosures."""
    est = estimate_intervals(op, pc)
    assert est.certified and est.steps < ESTIMATE_STEPS
    alphas, betas = lanczos_data(op, pc, probe(op.dim), est.steps)
    for k in range(CHECK_FIRST, est.steps, CHECK_EVERY):
        assert not enclosures_print_one_value(alphas[:k], betas[:k]), k
        assert not checked_extraction(alphas[:k], betas[:k]).certified, k
    assert est == checked_extraction(alphas, betas)
    hi, r_hi, lo, r_lo = dense_enclosures(alphas, betas)
    assert hi == pytest.approx(est.pos_hi, abs=1e-12)
    assert lo == pytest.approx(est.pos_lo, abs=1e-12)
    assert printed(hi) == printed(hi + r_hi) and printed(lo) == printed(lo - r_lo)
    return est, r_hi, r_lo


class TestIntervalCertificate:
    @pytest.mark.parametrize(
        "build,level,nu,omega",
        [
            (stokes_system, 1, 1.0, 1.0),
            (stokes_system, 2, 1.0, 100.0),
            (stokes_system, 2, 1e-8, 1.0),
            (parabolic_kkt, 2, 1.0, 100.0),
            (parabolic_reduced, 2, 1.0, 100.0),
        ],
        ids=["stokes-l1", "stokes-l2-omega100", "stokes-l2-nu1e-8", "kkt-l2-omega100",
             "reduced-l2-omega100"],
    )
    def test_sound_against_dense_spectrum(self, build, level, nu, omega):
        problem = build(build_mesh(level), nu, omega)
        est, r_hi, r_lo = certified_stop(problem.operator(), problem.preconditioner())
        lam = generalized_hermitian_eig(
            saddle_system(problem).assemble(),
            inner_product_matrix(*problem.inner_product_blocks()),
        )
        lam_max, lam_min_pos = lam.max(), lam[lam > 0.0].min()
        slack = 1e-10
        assert est.pos_hi - slack <= lam_max <= est.pos_hi + r_hi + slack
        assert est.pos_lo - r_lo - slack <= lam_min_pos <= est.pos_lo + slack
        assert printed(lam_max) == printed(est.pos_hi)
        assert printed(lam_min_pos) == printed(est.pos_lo)

    def test_slow_top_end_holds_the_stop(self):
        # The isolated 0.6 certifies within 30 steps; the dense cluster that
        # ends at 1.6 keeps the largest Ritz pair uncertified until step 90.
        rng = np.random.default_rng(3)
        lam = np.concatenate([
            -rng.uniform(0.5, 1.5, 60), [0.6], rng.uniform(0.9, 1.2, 40),
            np.linspace(1.2, 1.6, 150),
        ])
        a = hermitian_with_spectrum(rng, lam)
        est, r_hi, r_lo = certified_stop(dense(a), identity(a.shape[0]))
        assert est.steps == 90
        assert est.pos_hi <= 1.6 <= est.pos_hi + r_hi + 1e-12
        assert est.pos_lo - r_lo - 1e-12 <= 0.6 <= est.pos_lo

    def test_step_cap_returns_uncertified_lanczos_data(self, monkeypatch):
        monkeypatch.setattr(krylov, "ESTIMATE_STEPS", 30)
        problem = stokes_system(build_mesh(2), nu=1.0, omega=100.0)
        op, pc = problem.operator(), problem.preconditioner()
        est = estimate_intervals(op, pc)
        assert est.certified is False and est.steps == 30
        assert est == checked_extraction(*lanczos_data(op, pc, probe(op.dim), 30))

    def test_zero_diagonal_two_by_two(self):
        # T = [[0, 1], [1, 0]]: the first LDL^T pivot is exactly zero.
        est = krylov._first_certified([(0.0, 1.0), (0.0, 1e-12)])
        assert (est.neg_lo, est.neg_hi, est.pos_lo, est.pos_hi) == pytest.approx(
            (-1.0, -1.0, 1.0, 1.0), abs=1e-12
        )
        assert est.certified and est.steps == 2

    def test_zero_diagonal_four_by_four(self):
        # Couplings (1, 2, 1): eigenvalues +-(sqrt(2) -+ 1), zero pivots.
        est = krylov._first_certified([(0.0, 1.0), (0.0, 2.0), (0.0, 1.0), (0.0, 1e-12)])
        r = np.sqrt(2.0)
        assert (est.neg_lo, est.neg_hi, est.pos_lo, est.pos_hi) == pytest.approx(
            (-r - 1.0, 1.0 - r, r - 1.0, r + 1.0), abs=1e-12
        )
        assert est.certified and est.steps == 4

    def test_singular_tridiagonal(self, monkeypatch):
        # T_3 with diagonal (0, 0.5, 0) and couplings (1, 2) has the Ritz
        # value 0: no harmonic Ritz values at that step.
        monkeypatch.setattr(krylov, "CHECK_FIRST", 3)
        monkeypatch.setattr(krylov, "CHECK_EVERY", 1)
        steps = [(0.0, 1.0), (0.5, 2.0), (0.0, 1.0)]
        with pytest.raises(ValueError, match="singular at step 3"):
            krylov._first_certified(steps)
        # At a check the step is passed over, and the next one decides.
        est = krylov._first_certified(steps + [(1.0, 1e-12)])
        assert est.steps == 4


class TestSharedRecurrenceProperty:
    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(
        n=st.integers(8, 24),
        negative_share=st.floats(0.2, 0.8),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_solve_and_intervals_against_dense(self, n, negative_share, seed):
        rng = np.random.default_rng(seed)
        k = int(round(negative_share * n))
        magnitudes = rng.uniform(0.5, 2.0, n)
        a = hermitian_with_spectrum(rng, np.concatenate([-magnitudes[:k], magnitudes[k:]]))
        p = random_spd(rng, n)
        p_inv = np.linalg.inv(p)
        rhs = rng.standard_normal(n) + 1j * rng.standard_normal(n)

        report = minres_solve(dense(a), dense(p_inv), rhs, eps=1e-12)
        assert report.converged
        exact = np.linalg.solve(a, rhs)
        assert np.linalg.norm(report.x - exact) <= 1e-7 * np.linalg.norm(exact)

        lam = generalized_hermitian_eig(a, p)
        neg, pos = lam[lam < 0.0], lam[lam > 0.0]
        tol = 1e-8 * np.max(np.abs(lam))
        alphas, betas = lanczos_data(dense(a), dense(p_inv), rhs, n)
        for steps in (n // 2, n - 2, n):
            est = checked_extraction(alphas[:steps], betas[:steps])
            # Ritz values stay inside the hull, harmonic Ritz values out of
            # the gap around zero.
            assert est.neg_lo >= neg.min() - tol and est.pos_hi <= pos.max() + tol
            assert est.neg_hi <= neg.max() + tol and est.pos_lo >= pos.min() - tol


class TestIterationBoundConsistency:
    def test_counts_within_bound(self, rng):
        # observed iterations never exceed the two-interval bound computed
        # from the exact extreme eigenvalues
        for trial in range(5):
            neg = -np.linspace(0.6, 1.9, 7)
            pos = np.linspace(0.5, 2.1, 7)
            a = hermitian_with_spectrum(rng, np.concatenate([neg, pos]))
            rhs = rng.standard_normal(14) + 1j * rng.standard_normal(14)
            report = minres_solve(dense(a), identity(14), rhs, eps=1e-8, maxit=200)
            spectrum = SpectralInclusion(-1.9, -0.6, 0.5, 2.1)
            assert report.iterations <= minres_iteration_bound(spectrum, 1e-8)

    def test_witness_within_bound(self):
        sys = witness_general(0.4, 1.2, 1.0)
        rhs = np.array([0.3, -1.0, 0.8], dtype=complex)
        report = minres_solve(dense(sys.assemble()), identity(3), rhs, eps=1e-8)
        spec = generalized_hermitian_eig(sys.assemble(), np.eye(3))
        neg, pos = spec[spec < 0.0], spec[spec > 0.0]
        bound = minres_iteration_bound(
            SpectralInclusion(neg.min(), neg.max(), pos.min(), pos.max()), 1e-8
        )
        assert report.iterations <= bound


class TestStagnation:
    def test_plus_minus_one_balanced(self, rng):
        a = np.diag([-1.0, 1.0]).astype(complex)
        phases = np.exp(1j * rng.uniform(0, 2 * np.pi, size=2))
        report = minres_solve(dense(a), identity(2), phases, eps=1e-12)
        factors, flag = stagnation_profile(report)
        assert factors[0] == pytest.approx(1.0, abs=1e-12)
        assert factors[1] == pytest.approx(0.0, abs=1e-10)
        assert flag

    def test_spd_no_flag(self):
        report = minres_solve(
            dense(np.eye(5, dtype=complex)), identity(5), np.ones(5, dtype=complex)
        )
        factors, flag = stagnation_profile(report)
        assert not flag

    def test_reduced_parabolic_staircase(self, monkeypatch):
        # The odd factors reach 0.999, not STAGNATION_THRESHOLD: the flag is
        # checked at 0.999.
        monkeypatch.setattr(krylov, "STAGNATION_THRESHOLD", 0.999)
        problem = parabolic_reduced(build_mesh(2), nu=1.0, omega=100.0)
        report = minres_solve(
            problem.operator(), problem.preconditioner(), problem.rhs, eps=1e-8
        )
        factors, flag = stagnation_profile(report)
        odd = factors[0 : len(factors) - 1 : 2]
        assert odd.size > 0
        assert np.all(odd >= 0.999)
        assert flag
