"""Preconditioned MINRES for complex Hermitian indefinite systems.

The solver targets ``M x = b`` with M Hermitian (typically indefinite) and a
Hermitian positive definite block-diagonal preconditioner ``Pc``, supplied
through its inverse action.  One Lanczos recurrence on the symmetrically
preconditioned operator serves both the solver and the interval estimator
(:func:`estimate_intervals`), so

* the recurrence minimizes and reports the residual in the ``Pc^{-1}`` norm,
* the real scalars ``(alpha_k, beta_k)`` of the Lanczos tridiagonal are the
  projection of the preconditioned operator onto the Krylov space; its
  eigenvalues (Ritz values) and the harmonic Ritz values of the extended
  tridiagonal estimate the extreme and the near-zero ends of the spectrum
  of the preconditioned matrix, all read off the tridiagonal by one
  extraction,
* the same coefficients give residual bounds for those estimates, so
  :func:`estimate_intervals` stops as soon as the two endpoints a table
  prints are certified to three decimals, with no extra operator work,
* per-step residual reduction factors expose the even-odd staircase typical
  of spectra that are symmetric around zero (:func:`stagnation_profile`).

The system operator and the preconditioner are both :class:`LinearOperator`
objects (a dimension and an apply callable); a solve owns its workspace,
updates it in place and never mutates its inputs.  Each solve counts its
operator and preconditioner applications, and runs with BLAS capped at one
thread (:data:`saddlebounds.densecore.one_blas_thread`), so that two solves
can share two CPUs.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import islice
from typing import Callable

import numpy as np
import scipy.linalg

from .densecore import one_blas_thread

__all__ = [
    "LinearOperator",
    "MinresReport",
    "RitzEstimate",
    "minres_solve",
    "estimate_intervals",
    "stagnation_profile",
]

#: Most Lanczos steps of :func:`estimate_intervals` (fewer if the dimension
#: is smaller), and the seed of every random probe vector.
ESTIMATE_STEPS = 220
PROBE_SEED = 20240915
#: :func:`estimate_intervals` checks its certificate at step ``CHECK_FIRST``,
#: then every ``CHECK_EVERY`` steps, and at its last step.
CHECK_FIRST = 20
CHECK_EVERY = 10
#: Reduction factor from which :func:`stagnation_profile` flags a step.
STAGNATION_THRESHOLD = 1.0 - 1e-6


@dataclass(frozen=True)
class LinearOperator:
    """Matrix-free linear operator: a dimension and an apply callable.

    ``apply`` returns a new array or its argument itself, never an array it
    keeps: the solvers update the results in place (a result that shares
    memory with the argument is copied first).
    """

    dim: int
    apply: Callable[[np.ndarray], np.ndarray]

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.apply(x)


@dataclass
class MinresReport:
    """Outcome of a MINRES solve.

    ``residual_history[k]`` is the recurrence estimate of the residual norm
    in the ``Pc^{-1}`` inner product after k iterations (entry 0 is the
    initial residual).  The application counts include the two symmetry
    probes and the true-residual check.
    """

    x: np.ndarray
    residual_history: np.ndarray
    iterations: int
    converged: bool
    true_residual: float = float("nan")
    operator_applications: int = 0
    preconditioner_applications: int = 0


@dataclass(frozen=True)
class RitzEstimate:
    """Spectral interval estimates from a Lanczos tridiagonal.

    ``[pos_lo, pos_hi]`` spans the positive Ritz information (smallest
    positive harmonic Ritz value, largest Ritz value), ``[neg_lo, neg_hi]``
    mirrors it for the negative side (smallest Ritz value, largest negative
    harmonic Ritz value).  ``pos_lo`` and ``pos_hi`` are the Rayleigh
    quotients whose residual enclosures the certificate checks.  ``steps``
    is the order of the tridiagonal; ``certified`` says whether residual
    bounds showed that ``pos_lo`` and ``pos_hi`` print the three decimals of
    the endpoints of the positive spectrum (see :func:`estimate_intervals`).
    The application counts are those of the run that produced the estimate,
    0 for an estimate read off given coefficients; they take no part in
    comparisons, which are about the spectrum.
    """

    neg_lo: float
    neg_hi: float
    pos_lo: float
    pos_hi: float
    steps: int
    certified: bool
    operator_applications: int = field(default=0, compare=False)
    preconditioner_applications: int = field(default=0, compare=False)

    def __post_init__(self):
        if not (self.pos_lo > 0.0 > self.neg_hi):
            raise ValueError(
                f"Ritz intervals must straddle zero, got neg_hi={self.neg_hi}, "
                f"pos_lo={self.pos_lo}"
            )


def _real_inner(
    z: np.ndarray, v: np.ndarray, what: str, size: float | None = None
) -> float:
    """Inner product that the Hermitian/SPD contracts force to be real.

    The imaginary part is judged against ``size = |z| |v|`` (computed here
    unless the caller already has it), the size of the rounding error of the
    product, not against ``|value|``: a Hermitian operator with a spectrum
    symmetric around zero gives Lanczos diagonal entries that vanish up to
    rounding.
    """
    value = complex(np.vdot(v, z))
    if size is None:
        size = float(np.linalg.norm(z) * np.linalg.norm(v))
    if abs(value.imag) > 1e-8 * max(size, 1e-300):
        raise ValueError(
            f"{what} inner product has imaginary part {value.imag:.3e}; "
            "operator or preconditioner violates Hermitian symmetry"
        )
    return value.real


def _positive_inner(z: np.ndarray, v: np.ndarray) -> float:
    """``<z, v>`` for z = Pc^{-1} v; negative values expose an indefinite
    preconditioner (random probes alone can miss indefiniteness)."""
    size = float(np.linalg.norm(z) * np.linalg.norm(v))
    value = _real_inner(z, v, "preconditioner", size)
    if value < -1e-12 * size:
        raise ValueError(
            f"preconditioner is not positive definite: <Pc^-1 v, v> = {value:.3e}"
        )
    return max(value, 0.0)


class _Counted:
    """An operator that counts its applications."""

    def __init__(self, op: LinearOperator):
        self.dim, self._apply, self.applications = op.dim, op.apply, 0

    def __call__(self, x: np.ndarray) -> np.ndarray:
        self.applications += 1
        return self._apply(x)


def _own(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """An operator's result ``y = op(x)``, copied if it shares memory with
    ``x`` (the identity returns its argument), so that the recurrence can
    update it in place."""
    return y.copy() if np.may_share_memory(y, x) else y


def _lanczos(a: LinearOperator, m_inv: LinearOperator, v: np.ndarray):
    """Preconditioned Lanczos recurrence started at the residual ``v``.

    Yields the ``Pc^{-1}`` norm ``gamma_1`` of ``v`` first, then per step k
    the normalized preconditioned vector ``z_k``, the diagonal entry
    ``delta_k`` and the coupling coefficient ``gamma_{k+1}`` of the Lanczos
    tridiagonal.  It ends after a step whose coupling vanishes (breakdown):
    the Krylov space is then invariant.  ``v`` is not mutated, and each
    yielded ``z_k`` is a new array.
    """
    z = _own(m_inv(v), v)
    gamma = np.sqrt(_positive_inner(z, v))
    yield gamma
    v_old = gamma_prev = None
    while True:
        z /= gamma
        az = _own(a(z), z)
        delta = _real_inner(az, z, "system operator")
        # Three-term recurrence on the unpreconditioned residuals (v is
        # normalized lazily, hence the ratios of coupling coefficients),
        # written into the operator's output.
        v_new = az
        v_new -= (delta / gamma) * v
        if v_old is not None:
            v_new -= (gamma / gamma_prev) * v_old
        z_new = _own(m_inv(v_new), v_new)
        gamma_new = np.sqrt(_positive_inner(z_new, v_new))
        yield z, delta, gamma_new
        if gamma_new <= 1e-14 * max(1.0, abs(delta)):
            return
        v_old, v = v, v_new
        z = z_new
        gamma_prev, gamma = gamma, gamma_new


def _probe_operators(a: LinearOperator, m_inv: LinearOperator) -> None:
    """Check Hermitian symmetry of ``a`` and positivity of ``m_inv`` on two
    seeded random vectors (freed on return, before the solve allocates)."""
    rng = np.random.default_rng(PROBE_SEED)
    u = rng.standard_normal(a.dim) + 1j * rng.standard_normal(a.dim)
    v = rng.standard_normal(a.dim) + 1j * rng.standard_normal(a.dim)
    au, av = a(u), a(v)
    lhs, rhs_sym = complex(np.vdot(v, au)), complex(np.vdot(u, av))
    scale = max(abs(lhs), abs(rhs_sym), 1e-300)
    if abs(lhs - np.conj(rhs_sym)) > 1e-10 * scale:
        raise ValueError("system operator is not Hermitian on random probes")
    for w in (u, v):
        pw = complex(np.vdot(w, m_inv(w)))
        if pw.real <= 0.0 or abs(pw.imag) > 1e-10 * abs(pw):
            raise ValueError(
                "preconditioner is not Hermitian positive definite on probes"
            )


@one_blas_thread
def minres_solve(
    op: LinearOperator,
    prec: LinearOperator,
    rhs: np.ndarray,
    eps: float = 1e-8,
    maxit: int | None = None,
) -> MinresReport:
    """Preconditioned MINRES with residual tracking in the ``Pc^{-1}`` norm.

    Parameters
    ----------
    op : operator for the Hermitian system matrix.
    prec : operator applying the *inverse* of the Hermitian positive definite
        preconditioner.
    rhs : right-hand side.
    eps : relative reduction target for the preconditioned residual norm.
    maxit : iteration cap (default ``2 * dim``).

    Hermitian symmetry of ``op`` and positivity of ``prec`` are probed on
    random vectors before iterating.  Breakdown of the Lanczos recurrence
    (vanishing coupling coefficient) means the Krylov space is invariant;
    the iteration stops there and convergence is judged by the residual test.
    """
    n = op.dim
    rhs = np.asarray(rhs, dtype=np.complex128)
    if rhs.shape != (n,):
        raise ValueError(f"rhs has shape {rhs.shape}, expected ({n},)")
    if maxit is None:
        maxit = 2 * n

    op, prec = _Counted(op), _Counted(prec)
    _probe_operators(op, prec)

    x = np.zeros(n, dtype=np.complex128)
    lanczos = _lanczos(op, prec, rhs)
    res0 = res = gamma = next(lanczos)
    history = [res0]
    if res0 == 0.0:
        return MinresReport(
            x, np.array(history), 0, True, 0.0, op.applications, prec.applications
        )

    w = w_old = np.zeros(n, dtype=np.complex128)
    eta = gamma
    s_old = s = 0.0
    c_old = c = 1.0
    k = 0
    # zip draws from range first, so no Lanczos step runs past maxit.
    for k, (z, delta, gamma_new) in zip(range(1, maxit + 1), lanczos):
        alpha0 = c * delta - c_old * s * gamma
        alpha1 = np.hypot(alpha0, gamma_new)
        alpha2 = s * delta + c_old * c * gamma
        alpha3 = s_old * gamma
        c_new = alpha0 / alpha1
        s_new = gamma_new / alpha1

        # (z - alpha3 w_old - alpha2 w) / alpha1, in that order, in place.
        w_new = z - alpha3 * w_old
        w_new -= alpha2 * w
        w_new /= alpha1
        x += (c_new * eta) * w_new
        eta = -s_new * eta

        res = abs(s_new) * res
        history.append(res)

        if res <= eps * res0:
            break

        w_old, w = w, w_new
        gamma = gamma_new
        c_old, c = c, c_new
        s_old, s = s, s_new

    true_residual = _true_residual(op, prec, rhs, x)
    return MinresReport(
        x=x,
        residual_history=np.array(history),
        iterations=k,
        converged=bool(res <= eps * res0),
        true_residual=true_residual,
        operator_applications=op.applications,
        preconditioner_applications=prec.applications,
    )


def _true_residual(a, m_inv, rhs, x) -> float:
    r = rhs - a(x)
    return float(np.sqrt(max(_real_inner(m_inv(r), r, "preconditioner"), 0.0)))


def printed_endpoint(value: float) -> str:
    """An interval endpoint as the experiment tables print it; the estimate
    certifies exactly this rounding."""
    return f"{value:.3f}"


def _enclosure(
    alphas: np.ndarray, off: np.ndarray, beta: float, s: np.ndarray, harmonic: bool
) -> tuple[float, float]:
    """Rayleigh quotient ``theta`` of ``y = Q_k s`` and a residual bound ``r``.

    In exact arithmetic ``|(A - theta) y| / |y| = sqrt(|T_k s - theta s|^2 +
    beta^2 |e_k^T s|^2) / |s| = r``, so an eigenvalue lies within ``r`` of
    ``theta``.  The plain quotient ``y* A y / y* y`` is at most the largest
    eigenvalue; the harmonic one ``|A y|^2 / y* A y`` (when ``y* A y > 0``)
    is at least the smallest positive eigenvalue.  For a Ritz (harmonic
    Ritz) vector they are its Ritz (harmonic Ritz) value, and then
    ``r = beta |e_k^T s| / |s|`` for the Ritz pair.
    """
    ts = alphas * s
    ts[:-1] += off * s[1:]
    ts[1:] += off * s[:-1]
    tail = beta * s[-1]
    theta = (ts @ ts + tail * tail) / (s @ ts) if harmonic else (s @ ts) / (s @ s)
    return float(theta), float(np.hypot(np.linalg.norm(ts - theta * s), tail) / np.linalg.norm(s))


def _ritz_estimate(alphas: list, betas: list) -> RitzEstimate:
    """Interval estimates for both spectrum branches from the Lanczos data.

    ``alphas`` are the k diagonal entries of the Lanczos tridiagonal T_k and
    ``betas`` the k coupling coefficients that follow them, the last being
    the first neglected one, ``beta``.  Ritz values are the eigenvalues of
    T_k; harmonic Ritz values solve ``(T_k^2 + beta^2 e_k e_k^T) s = theta
    T_k s``.  Outer endpoints come from the Ritz values, inner endpoints
    from the harmonic Ritz values; in exact arithmetic the result is
    contained in the minimal enclosing intervals of the true spectrum.

    The largest eigenvalue lies in ``[pos_hi, pos_hi + r]`` around the
    largest Ritz pair and the smallest positive one in ``[pos_lo - r,
    pos_lo]`` around the smallest positive harmonic Ritz pair
    (:func:`_enclosure`), provided the eigenvalue within ``r`` of the
    quotient is the extreme one.  The estimate is ``certified`` if both
    enclosures round to the value printed.  Raises ``ValueError`` if the
    Ritz values do not straddle zero or T_k is singular.
    """
    k = len(alphas)
    a = np.array(alphas)
    off = np.array(betas[:-1])
    beta = betas[-1]
    ritz = scipy.linalg.eigvalsh_tridiagonal(a, off, check_finite=False)
    negative = int(np.count_nonzero(ritz < 0.0))
    if negative in (0, k):
        raise ValueError(
            f"spectrum estimates do not straddle zero at Lanczos step {k}; "
            "system looks definite"
        )
    _, top = scipy.linalg.eigh_tridiagonal(
        a, off, select="i", select_range=(k - 1, k - 1), check_finite=False
    )
    hi, r_hi = _enclosure(a, off, beta, top[:, 0], harmonic=False)
    # f = T_k^{-1} e_k by pivoted LU.  Bordered by beta e_k and beta^2 f_k,
    # T_k becomes congruent to diag(T_k, 0): its eigenvalues are the
    # harmonic Ritz values and a zero that sits after the negative ones,
    # and an eigenvector (x, xi) gives the harmonic Ritz vector x + beta xi f.
    bands = np.zeros((3, k))
    bands[0, 1:] = bands[2, :-1] = off
    bands[1] = a
    e_k = np.zeros(k)
    e_k[-1] = 1.0
    try:
        f = scipy.linalg.solve_banded((1, 1), bands, e_k, check_finite=False)
    except np.linalg.LinAlgError:
        raise ValueError(f"Lanczos tridiagonal is singular at step {k}") from None
    harmonic, border = scipy.linalg.eigh_tridiagonal(
        np.append(a, beta * beta * f[-1]), np.append(off, beta),
        select="i", select_range=(negative - 1, negative + 1), check_finite=False,
    )
    lo, r_lo = _enclosure(a, off, beta, border[:k, 2] + beta * border[k, 2] * f, harmonic=True)
    return RitzEstimate(
        neg_lo=float(ritz[0]),
        neg_hi=float(harmonic[0]),
        pos_lo=lo,
        pos_hi=hi,
        steps=k,
        certified=printed_endpoint(hi) == printed_endpoint(hi + r_hi)
        and printed_endpoint(lo) == printed_endpoint(lo - r_lo),
    )


def _first_certified(steps) -> RitzEstimate:
    """:func:`_ritz_estimate` at the first certified check of the Lanczos
    coefficients ``steps`` (pairs ``(delta_k, gamma_{k+1})``), else at the
    last step, uncertified.

    The checks fall at step ``CHECK_FIRST``, every ``CHECK_EVERY`` steps
    after it and at the last step.  A check whose tridiagonal gives no
    estimate is passed over; at the last step that ``ValueError`` is raised.
    """
    alphas: list[float] = []
    betas: list[float] = []
    for delta, beta in steps:
        alphas.append(float(delta))
        betas.append(float(beta))
        k = len(alphas)
        if k >= CHECK_FIRST and k % CHECK_EVERY == 0:
            try:
                est = _ritz_estimate(alphas, betas)
            except ValueError:
                continue
            if est.certified:
                return est
    return _ritz_estimate(alphas, betas)


@one_blas_thread
def estimate_intervals(op: LinearOperator, prec: LinearOperator) -> RitzEstimate:
    """Spectral interval estimation with a generic probe vector.

    Runs the preconditioned Lanczos recurrence on a random probe seeded with
    ``PROBE_SEED``, which excites all eigenvector directions regardless of
    any symmetry of the model right-hand side.  At step ``CHECK_FIRST``,
    every ``CHECK_EVERY`` steps after it and at its last step it reads the
    Ritz and harmonic Ritz estimates off the tridiagonal, with residual
    bounds for the largest Ritz pair and the smallest positive harmonic
    Ritz pair (:func:`_ritz_estimate`), and stops, with ``certified`` set,
    as soon as both enclosures round to the three decimals that ``pos_lo``
    and ``pos_hi`` print.  Otherwise it stops after ``min(dim,
    ESTIMATE_STEPS)`` steps (or on breakdown) and returns the estimate of
    that step uncertified; ``ValueError`` if that tridiagonal is singular or
    its Ritz values do not straddle zero.
    The certificate is a statement about exact arithmetic that assumes the
    probe has reached both ends of the positive spectrum; the README
    ("Certified interval estimates") says what it does and does not prove.
    """
    op, prec = _Counted(op), _Counted(prec)
    rng = np.random.default_rng(PROBE_SEED)
    probe = rng.standard_normal(op.dim) + 1j * rng.standard_normal(op.dim)
    lanczos = _lanczos(op, prec, probe)
    next(lanczos)
    steps = islice(lanczos, min(op.dim, ESTIMATE_STEPS))
    estimate = _first_certified((delta, beta) for _, delta, beta in steps)
    return replace(
        estimate,
        operator_applications=op.applications,
        preconditioner_applications=prec.applications,
    )


def stagnation_profile(report: MinresReport) -> tuple[np.ndarray, bool]:
    """Per-step reduction factors ``rho_k = |r_k| / |r_{k-1}|`` and the
    symmetric-spectrum stagnation flag.

    The flag is raised when every odd step strictly before the final one
    stagnates (``rho >= STAGNATION_THRESHOLD``); the final step is excluded
    because it may terminate mid-cycle.  At least one such odd step must
    exist.
    """
    h = report.residual_history
    if h.size < 2:
        raise ValueError("need at least one iteration to compute factors")
    factors = h[1:] / np.maximum(h[:-1], 1e-300)
    last = factors.size
    odd = factors[0:last - 1:2]
    flag = odd.size > 0 and bool(np.all(odd >= STAGNATION_THRESHOLD))
    return factors, flag
