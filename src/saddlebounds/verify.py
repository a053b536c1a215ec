"""Named verification suites over randomized instances.

Each suite draws deterministic random instances from ``default_rng(seed)``,
checks one family of structural claims with fixed tolerances, and returns a
summary dict; the command-line driver serializes these as JSON.  Acceptance
criteria 1 and 2 run ``sharpness`` at seed 101, and criterion 11 runs
``appendix`` at seed 111.  Every spectrum a suite reads is
``preconditioned_spectrum`` of a system in the Euclidean geometry, as in
``bounds``: a system with an inner product ``diag(P, R)`` is first carried
there by ``reduce_system(sys, P, R)``, and a system without one is read as
it is.  The suites:

* ``sharpness``  -- the cubic lower bounds are attained by the general and
  the eigenvalue-range witnesses, the latter from ``default_rng(seed + 1)``.
* ``pairing``    -- mirror-symmetric block systems have spectra symmetric
  around zero, the quadratic linearization reproduces them, and the
  skew-pairing statement holds for random companion-type blocks.
* ``appendix``   -- the constrained maximization value dominates sampled
  feasible points.
* ``lemma21``    -- the three kernel-decomposition operator-norm bounds.
"""

from __future__ import annotations

import math

import numpy as np

from . import bounds as bnd
from .densecore import hermitian_eigenvalues
# Unused here; benchmarks/tracing.py looks this name up on this module.
from .densecore import generalized_hermitian_eig  # noqa: F401
from .saddle import SaddleSystem, reduce_system
from .saddle import babuska_constants, block_decompose, brezzi_constants
from .saddle import preconditioned_spectrum
from .spectrum import linearize_quadratic, pairing_check, skew_pairing_check

__all__ = ["SUITES"]


def random_spd(rng, n: int, complex_entries: bool = True) -> np.ndarray:
    g = rng.standard_normal((n, n))
    if complex_entries:
        g = g + 1j * rng.standard_normal((n, n))
    return g @ g.conj().T + n * np.eye(n)


def random_hermitian(rng, n: int) -> np.ndarray:
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.5 * (g + g.conj().T)


def random_complex_symmetric(rng, n: int) -> np.ndarray:
    """Random complex symmetric (``B = B^T``, not Hermitian) n x n matrix."""
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.5 * (g + g.T)


def random_full_rank(rng, m: int, n: int) -> np.ndarray:
    if m > n:
        raise ValueError(f"an {m} x {n} matrix cannot have full row rank {m}")
    while True:
        b = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
        if np.linalg.matrix_rank(b) == m:
            return b


def random_coercive_system(rng, n: int, m: int):
    """Random system with zero (2,2) block, full-rank coupling, and a (1,1)
    block positive definite on the coupling kernel in the geometry of the
    random inner product ``diag(P, R)``; returns ``(sys, P, R)``."""
    a = random_hermitian(rng, n)
    b = random_full_rank(rng, m, n)
    p = random_spd(rng, n)
    r = random_spd(rng, m)
    sys = SaddleSystem(a=a, b=b)
    dec = block_decompose(reduce_system(sys, p, r))
    lam0 = hermitian_eigenvalues(dec.a00)
    shift = max(0.0, 0.5 - float(lam0[0]))
    if shift:
        sys = SaddleSystem(a=a + shift * p, b=b)
    return sys, p, r


def suite_sharpness(seed: int = 1) -> dict:
    general, ranged = np.random.default_rng(seed), np.random.default_rng(seed + 1)
    trials = 25
    worst_general = 0.0
    worst_range = 0.0
    for _ in range(trials):
        a_norm = float(general.uniform(0.3, 3.0))
        alpha = float(general.uniform(0.05, 1.0)) * a_norm
        beta = float(general.uniform(0.2, 2.5))
        sys = bnd.witness_general(alpha, beta, a_norm)
        gamma = babuska_constants(sys).gamma
        target = bnd.gamma_opt_general(alpha, beta, a_norm)
        worst_general = max(worst_general, abs(gamma - target) / target)

        lam_max = float(ranged.uniform(0.3, 3.0))
        lam_min = -float(ranged.uniform(0.0, 2.0))
        alpha2 = float(ranged.uniform(0.05, 1.0)) * lam_max
        beta2 = float(ranged.uniform(0.2, 2.5))
        sys2 = bnd.witness_hermitian(alpha2, beta2, lam_min, lam_max)
        mu = preconditioned_spectrum(sys2)
        pos = mu[mu > 0.0]
        target2 = bnd.mu3_cubic(alpha2, beta2, lam_min, lam_max)
        worst_range = max(worst_range, abs(float(pos.min()) - target2) / target2)
    passed = worst_general <= 1e-10 and worst_range <= 1e-10
    return {
        "suite": "sharpness",
        "passed": bool(passed),
        "trials": trials,
        "max_rel_defect_general": worst_general,
        "max_rel_defect_range": worst_range,
        "tolerance": 1e-10,
    }


def suite_pairing(seed: int = 2) -> dict:
    rng = np.random.default_rng(seed)
    trials = 100
    worst_pair = 0.0
    worst_multiset = 0.0
    worst_skew = 0.0
    for k in range(trials):
        n = int(rng.integers(2, 7))
        a = random_spd(rng, n, complex_entries=False)
        b = random_complex_symmetric(rng, n)
        sys = SaddleSystem(a=a, b=b, c=a)
        p = random_spd(rng, n, complex_entries=False)
        mu = preconditioned_spectrum(reduce_system(sys, p, p))
        worst_pair = max(worst_pair, pairing_check(mu).defect)

        if k < 20:
            try:
                lin = linearize_quadratic(sys)
            except ValueError:
                continue  # singular B drawn; pairing statement needs B invertible
            lam_lin = np.sort(np.linalg.eigvals(lin).real)
            lam_sys = preconditioned_spectrum(sys)
            scale = max(np.max(np.abs(lam_sys)), 1.0)
            worst_multiset = max(
                worst_multiset, float(np.max(np.abs(lam_lin - lam_sys))) / scale
            )

            h = b + 0.5 * np.eye(n)
            s_raw = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            s = 0.5 * (s_raw - s_raw.T)
            try:
                rep = skew_pairing_check(h, s, tol=1e-7)
            except ValueError:
                continue  # singular H drawn
            worst_skew = max(worst_skew, rep.defect / rep.tol)
    passed = worst_pair <= 1e-8 and worst_multiset <= 1e-7 and worst_skew <= 1.0
    return {
        "suite": "pairing",
        "passed": bool(passed),
        "trials": trials,
        "max_pairing_defect": worst_pair,
        "max_linearization_defect": worst_multiset,
        "max_skew_defect": worst_skew,
    }


def suite_appendix(seed: int = 3) -> dict:
    rng = np.random.default_rng(seed)
    tuples, samples = 20, 10_000
    worst = -math.inf
    for _ in range(tuples):
        lam_max = float(rng.uniform(0.3, 3.0))
        lam_min = -float(rng.uniform(0.0, 2.0))
        alpha = float(rng.uniform(0.05, 0.999)) * lam_max
        mu = float(rng.uniform(0.01, 0.99)) * alpha
        value, (r1_star, r2_star) = bnd.phi_max_appendix(alpha, lam_min, lam_max, mu)
        # Sample a box around the maximizer and keep the feasible points.
        spread_1 = abs(r1_star) + 1.0
        spread_2 = abs(r2_star) + abs(lam_min) + lam_max + 1.0
        r1 = rng.uniform(r1_star - spread_1, r1_star + spread_1, size=samples)
        r2 = rng.uniform(r2_star - spread_2, r2_star + spread_2, size=samples)
        con1 = alpha * r1 + (lam_max - alpha) * r2 <= lam_max * (lam_max - alpha) + 1e-15
        con2 = -alpha * r1 + (alpha - lam_min) * r2 >= lam_min * (alpha - lam_min) - 1e-15
        feas = con1 & con2
        phi = alpha / (alpha - mu) * r1[feas] - r2[feas]
        if phi.size:
            worst = max(worst, float(np.max(phi) - value))
    passed = worst <= 1e-12
    return {
        "suite": "appendix",
        "passed": bool(passed),
        "tuples": tuples,
        "samples": samples,
        "max_violation": worst,
        "tolerance": 1e-12,
    }


def suite_lemma21(seed: int = 4) -> dict:
    rng = np.random.default_rng(seed)
    trials = 50
    worst = -math.inf
    for _ in range(trials):
        n = int(rng.integers(3, 9))
        m = int(rng.integers(1, min(n, 5)))
        red = reduce_system(*random_coercive_system(rng, n, m))
        dec = block_decompose(red)
        bc = brezzi_constants(red)
        alpha, a_norm = bc.alpha, bc.a_norm
        a00_inv = np.linalg.inv(dec.a00)
        bound_cross = math.sqrt(max(a_norm**2 / alpha**2 - 1.0, 0.0))
        lhs1 = float(np.linalg.norm(dec.a10 @ a00_inv, 2))
        lhs2 = float(np.linalg.norm(a00_inv @ dec.a01, 2))
        schur = dec.a11 - dec.a10 @ a00_inv @ dec.a01
        lhs3 = float(np.linalg.norm(schur, 2))
        worst = max(
            worst,
            lhs1 - bound_cross,
            lhs2 - bound_cross,
            lhs3 - a_norm**2 / alpha,
        )
    passed = worst <= 1e-10
    return {
        "suite": "lemma21",
        "passed": bool(passed),
        "trials": trials,
        "max_violation": worst,
        "tolerance": 1e-10,
    }


SUITES = {
    "sharpness": suite_sharpness,
    "pairing": suite_pairing,
    "appendix": suite_appendix,
    "lemma21": suite_lemma21,
}

