"""Closed-form stability bounds for Hermitian saddle-point systems.

Given the four constants ``(alpha, beta, a_norm, b_norm)`` of a saddle-point
system with vanishing lower-right block -- coercivity of the (1,1) form on
the constraint kernel, the coupling inf-sup constant, and the two form
norms -- this module evaluates every bound on the inverse norm ``gamma``
and on the eigenvalue inclusion intervals of the preconditioned matrix:

* three lower bounds for ``gamma`` of increasing sharpness
  (:func:`gamma_classical`, :func:`gamma_simple`, :func:`gamma_opt_general`,
  the last one attained by an explicit 3x3 witness system),
* outer interval endpoints ``mu1, mu2, mu4`` and two lower bounds for the
  smallest positive eigenvalue ``mu3`` using the extreme eigenvalues of the
  (1,1) block instead of its norm (:func:`mu3_cubic`, :func:`mu3_simple`),
* the combined two-interval inclusion set (:func:`inclusion_set`),
* witness generators on which the cubic bounds are attained with equality,
* the auxiliary constrained maximization behind the cubic bound
  (:func:`phi_max_appendix`),
* the textbook MINRES iteration bound over the symmetric hull of a whole
  inclusion set, both of its intervals (:func:`minres_iteration_bound`).

Both cubic bounds are the smallest positive root of a monic cubic ``q``
with ``q(0) = alpha beta^2 > 0`` and linear coefficient
``lambda_min lambda_max - beta^2 < 0`` (``lambda_min = -a_norm`` and
``lambda_max = a_norm`` for :func:`gamma_opt_general`).  Such a ``q`` has
exactly one positive critical point ``mu*`` and decreases on ``[0, mu*]``,
so the root is its only zero there.  The root is at most ``alpha``, so one
bisection on ``[0, min(mu*, alpha)]`` computes it and never returns more
than ``alpha``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .saddle import SaddleSystem

__all__ = [
    "SpectralInclusion",
    "gamma_opt_general",
    "gamma_simple",
    "gamma_classical",
    "b_norm_upper",
    "hermitian_outer_bounds",
    "mu3_cubic",
    "mu3_simple",
    "inclusion_set",
    "witness_general",
    "witness_hermitian",
    "phi_max_appendix",
    "minres_iteration_bound",
]


@dataclass(frozen=True)
class SpectralInclusion:
    """Two closed real intervals ``[mu1, mu2] u [mu3, mu4]`` with mu2 < 0 < mu3."""

    mu1: float
    mu2: float
    mu3: float
    mu4: float

    def __post_init__(self):
        if not (self.mu1 <= self.mu2 < 0.0 < self.mu3 <= self.mu4):
            raise ValueError(
                f"invalid inclusion intervals [{self.mu1}, {self.mu2}] u "
                f"[{self.mu3}, {self.mu4}]"
            )

    def contains(self, mu, slack: float = 0.0) -> bool:
        mu = np.asarray(mu, dtype=float)
        neg = (mu >= self.mu1 - slack) & (mu <= self.mu2 + slack)
        pos = (mu >= self.mu3 - slack) & (mu <= self.mu4 + slack)
        return bool(np.all(neg | pos))


def _smallest_positive_root(c2: float, c1: float, c0: float, alpha: float) -> float:
    """Smallest positive root of ``q(mu) = mu^3 + c2 mu^2 + c1 mu + c0``.

    Precondition ``c0 > 0 > c1``: then ``q'`` has exactly one positive zero
    ``mu*`` and ``q`` decreases on ``[0, mu*]`` from ``q(0) = c0 > 0``, so the
    wanted root is the only zero of ``q`` there.  The caller's theory puts
    that root in ``(0, alpha]``, so the bracket is ``[0, min(mu*, alpha)]``
    and rounding in ``q`` can never move the result past ``alpha``.  A zero
    at ``mu*`` itself is a double root and returned as is (at most
    ``alpha``); otherwise bisection halves the bracket until the midpoint
    equals an endpoint and returns the upper one, where ``q <= 0`` unless
    it is ``alpha``.
    """

    def q(mu: float) -> float:
        return ((mu + c2) * mu + c1) * mu + c0

    disc = c2 * c2 - 3.0 * c1
    mu_star = (-c2 + math.sqrt(disc)) / 3.0 if disc > 0.0 else 0.0
    q_star = q(mu_star)
    if not (mu_star > 0.0 and q_star <= 0.0):
        raise ValueError("cubic has no positive real root")
    hi = min(mu_star, float(alpha))
    if q_star == 0.0:
        return hi
    lo = 0.0
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return hi
        if q(mid) > 0.0:
            lo = mid
        else:
            hi = mid


def _check_beta(beta: float) -> None:
    if beta <= 0.0:
        raise ValueError(f"need beta > 0, got {beta}")


def _check_brezzi_params(alpha: float, beta: float, a_norm: float) -> None:
    if not (0.0 < alpha <= a_norm * (1.0 + 1e-14)):
        raise ValueError(f"need 0 < alpha <= a_norm, got alpha={alpha}, a_norm={a_norm}")
    _check_beta(beta)


def gamma_opt_general(alpha: float, beta: float, a_norm: float) -> float:
    """Sharp lower bound for gamma: smallest positive root of
    ``mu^3 - (a_norm^2 + beta^2) mu + alpha beta^2 = 0``.

    The cubic is positive at 0 and nonpositive at ``alpha``, so the root
    always lies in ``(0, alpha]``; equality with gamma is attained by
    :func:`witness_general`.
    """
    _check_brezzi_params(alpha, beta, a_norm)
    return mu3_cubic(alpha, beta, -a_norm, a_norm)


def gamma_simple(alpha: float, beta: float, a_norm: float) -> float:
    """Rank-one-estimate bound ``alpha / (1 + kappa^2)`` with ``kappa = a_norm/beta``."""
    _check_brezzi_params(alpha, beta, a_norm)
    kappa = a_norm / beta
    return alpha / (1.0 + kappa * kappa)


def gamma_classical(alpha: float, beta: float, a_norm: float) -> float:
    """Classical bound ``1/rho(D1)`` from the textbook stability estimate.

    ``D1 = [[1/alpha, t/beta], [t/beta, a_norm t/beta^2]]`` with
    ``t = 1 + a_norm/alpha``; strictly weaker than :func:`gamma_simple`.
    """
    _check_brezzi_params(alpha, beta, a_norm)
    t = 1.0 + a_norm / alpha
    d11 = 1.0 / alpha
    d12 = t / beta
    d22 = a_norm * t / (beta * beta)
    trace = d11 + d22
    det = d11 * d22 - d12 * d12
    rho = 0.5 * (trace + math.sqrt(trace * trace - 4.0 * det))
    return 1.0 / rho


def b_norm_upper(a_norm: float, b_norm: float) -> float:
    """Sharp upper bound ``(a_norm + sqrt(a_norm^2 + 4 b_norm^2))/2`` for the
    norm of the full saddle-point form."""
    if a_norm < 0.0 or b_norm < 0.0:
        raise ValueError("norms must be nonnegative")
    return 0.5 * (a_norm + math.sqrt(a_norm * a_norm + 4.0 * b_norm * b_norm))


def hermitian_outer_bounds(
    lambda_min: float, lambda_max: float, beta: float, b_norm: float
) -> tuple[float, float, float]:
    """Sharp endpoints ``(mu1, mu2, mu4)`` of the eigenvalue inclusion.

    ``mu1 = (lambda_min - sqrt(lambda_min^2 + 4 b_norm^2))/2``,
    ``mu2 = (lambda_max - sqrt(lambda_max^2 + 4 beta^2))/2``,
    ``mu4 = (lambda_max + sqrt(lambda_max^2 + 4 b_norm^2))/2``.
    """
    if lambda_max <= 0.0:
        raise ValueError(f"need lambda_max > 0, got {lambda_max}")
    if not (0.0 < beta <= b_norm * (1.0 + 1e-14)):
        raise ValueError(f"need 0 < beta <= b_norm, got beta={beta}, b_norm={b_norm}")
    mu1 = 0.5 * (lambda_min - math.sqrt(lambda_min**2 + 4.0 * b_norm**2))
    mu2 = 0.5 * (lambda_max - math.sqrt(lambda_max**2 + 4.0 * beta**2))
    mu4 = 0.5 * (lambda_max + math.sqrt(lambda_max**2 + 4.0 * b_norm**2))
    return mu1, mu2, mu4


def _check_eigenrange(alpha: float, lambda_min: float, lambda_max: float) -> None:
    """The eigenvalue-range preconditions ``lambda_min <= 0`` and
    ``0 < alpha <= lambda_max`` of the cubic bound and its appendix."""
    if lambda_min > 0.0:
        raise ValueError(
            f"lambda_min = {lambda_min} > 0: the smallest positive eigenvalue is "
            "bounded by lambda_min itself; the cubic bound assumes lambda_min <= 0"
        )
    if not (0.0 < alpha <= lambda_max * (1.0 + 1e-14)):
        raise ValueError(
            f"need 0 < alpha <= lambda_max, got alpha={alpha}, lambda_max={lambda_max}"
        )


def mu3_cubic(
    alpha: float, beta: float, lambda_min: float, lambda_max: float
) -> float:
    """Sharp lower bound for the smallest positive eigenvalue when
    ``lambda_min <= 0``: smallest positive root of

    ``mu^3 - (lambda_min + lambda_max) mu^2 + (lambda_min lambda_max - beta^2) mu
    + alpha beta^2 = 0``.

    Attained with equality by :func:`witness_hermitian`.  With
    ``lambda_min = -a_norm`` and ``lambda_max = a_norm`` the cubic reduces to
    the one solved by :func:`gamma_opt_general`.
    """
    _check_eigenrange(alpha, lambda_min, lambda_max)
    _check_beta(beta)
    # q(0) = alpha beta^2 > 0 and q(alpha) = alpha (alpha - lambda_min)
    # (alpha - lambda_max) <= 0, so the root lies in (0, alpha].
    return _smallest_positive_root(
        -(lambda_min + lambda_max),
        lambda_min * lambda_max - beta * beta,
        alpha * beta * beta,
        alpha,
    )


def mu3_simple(
    alpha: float, beta: float, lambda_min: float, lambda_max: float
) -> float:
    """Closed-form (non-cubic) lower bound for the smallest positive eigenvalue.

    Case split on the sign of ``lambda_min + lambda_max``; never sharper than
    :func:`mu3_cubic`.
    """
    _check_eigenrange(alpha, lambda_min, lambda_max)
    _check_beta(beta)
    trace = lambda_min + lambda_max
    prod = lambda_min * lambda_max
    if trace <= 0.0:
        return alpha * beta * beta / (-prod + beta * beta)
    mid = (prod - beta * beta) / (2.0 * trace)
    return mid + math.sqrt(mid * mid + alpha * beta * beta / trace)


def inclusion_set(constants) -> SpectralInclusion:
    """Two-interval inclusion from extracted Brezzi-type constants.

    ``constants`` is a :class:`saddlebounds.saddle.BrezziConstants`.
    ``mu3`` uses the cubic bound when ``lambda_min_a <= 0`` and
    ``lambda_min_a`` itself otherwise (the definite case).  The cubic
    presumes a (1,1) block positive definite on ker(B); constants whose
    ``kernel_coercive`` is false raise ``ValueError``.
    """
    if not constants.kernel_coercive:
        raise ValueError("inclusion set needs a (1,1) block positive definite on ker(B)")
    lam_min = constants.lambda_min_a
    lam_max = constants.lambda_max_a
    mu1, mu2, mu4 = hermitian_outer_bounds(
        lam_min, lam_max, constants.beta, constants.b_norm
    )
    if lam_min <= 0.0:
        mu3 = mu3_cubic(constants.alpha, constants.beta, lam_min, lam_max)
    else:
        mu3 = lam_min
    return SpectralInclusion(mu1=mu1, mu2=mu2, mu3=mu3, mu4=mu4)


def witness_general(alpha: float, beta: float, a_norm: float):
    """3x3 system (identity inner product) attaining :func:`gamma_opt_general`.

    This is :func:`witness_hermitian` on the eigenvalue range
    ``[-a_norm, a_norm]``: the (1,1) block is ``[[alpha, -g], [-g, -alpha]]``
    with ``g = sqrt(a_norm^2 - alpha^2)`` and the coupling row is
    ``[0, beta]``; its constants are exactly (alpha, beta, a_norm) and its
    smallest eigenvalue modulus equals the cubic root.
    """
    _check_brezzi_params(alpha, beta, a_norm)
    return witness_hermitian(alpha, beta, -a_norm, a_norm)


def witness_hermitian(
    alpha: float, beta: float, lambda_min: float, lambda_max: float
):
    """3x3 system (identity inner product) attaining :func:`mu3_cubic`.

    The (1,1) block has eigenvalues exactly ``{lambda_min, lambda_max}``,
    kernel coercivity constant ``alpha``, and the characteristic polynomial
    of the assembled system is the mu3 cubic itself.
    """
    _check_eigenrange(alpha, lambda_min, lambda_max)
    _check_beta(beta)
    g = math.sqrt(max((lambda_max - alpha) * (alpha - lambda_min), 0.0))
    a = np.array(
        [[alpha, -g], [-g, lambda_max + lambda_min - alpha]], dtype=np.complex128
    )
    b = np.array([[0.0, beta]], dtype=np.complex128)
    return SaddleSystem(a=a, b=b)


def phi_max_appendix(
    alpha: float, lambda_min: float, lambda_max: float, mu: float
) -> tuple[float, tuple[float, float]]:
    """Maximum of ``phi(r1, r2) = alpha/(alpha - mu) r1 - r2`` under the two
    Schur-complement constraints tied to the extreme eigenvalues.

    The constraints are, in division-free form,

    * ``alpha r1 + (lambda_max - alpha) r2 <= lambda_max (lambda_max - alpha)``
    * ``-alpha r1 + (alpha - lambda_min) r2 >= lambda_min (alpha - lambda_min)``

    and the maximum is attained where both hold with equality.  Returns
    ``(value, (r1, r2))`` with
    ``value = ((lambda_max + lambda_min - alpha) mu - lambda_max lambda_min)
    / (alpha - mu)``.
    """
    _check_eigenrange(alpha, lambda_min, lambda_max)
    if not (0.0 < mu < alpha):
        raise ValueError(f"need mu in (0, alpha), got mu={mu}, alpha={alpha}")
    coeffs = np.array(
        [[alpha, lambda_max - alpha], [-alpha, alpha - lambda_min]], dtype=float
    )
    rhs = np.array(
        [
            lambda_max * (lambda_max - alpha),
            lambda_min * (alpha - lambda_min),
        ],
        dtype=float,
    )
    r1, r2 = np.linalg.solve(coeffs, rhs)
    value = ((lambda_max + lambda_min - alpha) * mu - lambda_max * lambda_min) / (
        alpha - mu
    )
    return float(value), (float(r1), float(r2))


def minres_iteration_bound(inclusion: SpectralInclusion, eps: float) -> int:
    """Smallest even ``k = 2l`` with ``2 q^l / (1 + q^{2l}) <= eps`` where
    ``q = (kappa - 1)/(kappa + 1)`` and ``kappa = d/c``.

    This is the classical MINRES residual bound, from the polynomial
    ``T_l((d^2 + c^2 - 2 mu^2)/(d^2 - c^2))`` normalized at ``mu = 0``, for a
    spectrum in ``[-d, -c] u [c, d]``: the symmetric hull of both intervals
    of ``inclusion``, ``c = min(-mu2, mu3)`` and ``d = max(-mu1, mu4)``.
    """
    if not (0.0 < eps < 1.0):
        raise ValueError(f"need eps in (0, 1), got {eps}")
    kappa = max(-inclusion.mu1, inclusion.mu4) / min(-inclusion.mu2, inclusion.mu3)
    q = (kappa - 1.0) / (kappa + 1.0)
    if q == 0.0:
        return 2
    ql = 1.0
    for level in range(1, 1_000_000):
        ql *= q
        if 2.0 * ql / (1.0 + ql * ql) <= eps:
            return 2 * level
    raise RuntimeError("iteration bound exceeds 2e6; spectrum too ill-conditioned")
