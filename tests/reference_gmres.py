"""Reference solver for the MINRES iteration counts: preconditioned GMRES.

For a Hermitian ``M`` and a Hermitian positive definite ``Pc``, the
operator ``Pc^{-1} M`` is self-adjoint in the ``Pc`` inner product.  GMRES
in that inner product minimizes ``|Pc^{-1} r_k|_Pc = |r_k|_{Pc^{-1}}`` over
the same Krylov space as preconditioned MINRES, so in exact arithmetic the
two give the same iterates (Paige & Saunders 1975; Saad & Schultz 1986).
This implementation shares no code with :mod:`saddlebounds.krylov`: it runs
Arnoldi with two passes of classical Gram-Schmidt in the ``Pc`` inner product
(no short recurrence, so no loss of orthogonality) and solves the small
least-squares problem directly at every step.
"""

import numpy as np

from saddlebounds.densecore import one_blas_thread


@one_blas_thread
def gmres_pc_norm(op, prec_inv, rhs, eps=1e-8, maxit=600, stop=None):
    """Preconditioned GMRES on ``op x = rhs`` with a zero initial guess.

    ``op`` and ``prec_inv`` are callables applying ``M`` and ``Pc^{-1}``.
    Stops at the first step k with ``|r_k|_{Pc^{-1}} <= eps |rhs|_{Pc^{-1}}``
    or, if ``stop`` is given, at the first step with ``stop(x_k)`` true.
    Returns ``(k, x_k, history)`` with ``history[j] = |r_j|_{Pc^{-1}}`` as
    given by the least-squares residual; ``k`` is ``None`` if the stopping
    test does not hold within ``maxit`` steps or before the Krylov space
    becomes invariant.  Runs with BLAS held at one thread, as the solver it
    checks does: its products are level-1 and level-2 calls.
    """
    rhs = np.asarray(rhs, dtype=np.complex128)
    z0 = prec_inv(rhs)
    beta = np.sqrt(np.vdot(rhs, z0).real)
    # Pc-orthonormal basis q_j, kept with its images p_j = Pc q_j: with
    # u = Pc w, the inner product <w, q_j>_Pc = q_j^* u and the update of u
    # along with w need no application of Pc itself.
    qs, ps = [z0 / beta], [rhs / beta]
    hess = np.zeros((maxit + 1, maxit), dtype=np.complex128)
    history = [beta]
    for k in range(1, maxit + 1):
        u = np.array(op(qs[-1]), dtype=np.complex128)  # u = Pc w, w = Pc^{-1} M q
        w = np.array(prec_inv(u), dtype=np.complex128)
        for _ in range(2):
            coeffs = np.array([np.vdot(q, u) for q in qs])
            hess[:k, k - 1] += coeffs
            for c, q, p in zip(coeffs, qs, ps):
                w -= c * q
                u -= c * p
        h = np.sqrt(max(np.vdot(w, u).real, 0.0))
        hess[k, k - 1] = h
        e1 = np.zeros(k + 1, dtype=np.complex128)
        e1[0] = beta
        y = np.linalg.lstsq(hess[: k + 1, :k], e1, rcond=None)[0]
        history.append(float(np.linalg.norm(e1 - hess[: k + 1, :k] @ y)))
        x = np.column_stack(qs) @ y
        done = history[-1] <= eps * beta if stop is None else stop(x)
        if done:
            return k, x, np.array(history)
        if h <= 1e-14 * beta:  # invariant Krylov space: x is the exact solution
            break
        qs.append(w / h)
        ps.append(u / h)
    return None, x, np.array(history)
