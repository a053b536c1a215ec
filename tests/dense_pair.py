"""The dense pair of a model problem, for the exact analyses at desk scale.

A :class:`~saddlebounds.fem.ModelProblem` keeps its blocks sparse, and a
vanishing ``C`` as ``None``.  The dense analyses take them, as they are:
``A``, ``B`` and ``C`` to :class:`~saddlebounds.saddle.SaddleSystem`, which
densifies them and refuses a system above ``saddle.DENSE_LIMIT``, and the
blocks ``P`` and ``R`` of ``inner_product_blocks()`` to
:func:`~saddlebounds.saddle.reduce_system`.  The assembled ``diag(P, R)``
exists only here, for reference pencil solves, beside a dense ``P`` and
``R`` formed from the assembled finite-element matrices without the
builders' preconditioner declaration.
"""

import math

import numpy as np
import scipy.linalg
import scipy.sparse

from saddlebounds.fem import assemble_p1, assemble_taylor_hood, build_mesh
from saddlebounds.saddle import SaddleSystem, reduce_system


def saddle_system(problem) -> SaddleSystem:
    return SaddleSystem(a=problem.a, b=problem.b, c=problem.c)


def reduce_problem(problem) -> SaddleSystem:
    """The problem's system in the geometry of its inner product."""
    return reduce_system(saddle_system(problem), *problem.inner_product_blocks())


def inner_product_matrix(p, r):
    """The dense block-diagonal matrix ``diag(P, R)`` of dense or sparse blocks."""
    return scipy.linalg.block_diag(
        *(x.toarray() if scipy.sparse.issparse(x) else x for x in (p, r))
    )


def divergence(fem):
    """The pinned divergence ``D = [div_x, div_y]`` on stacked (x, y)
    velocity components, dense."""
    return scipy.sparse.hstack([fem.div_x, fem.div_y]).toarray()


def reference_inner_product(flavor, level, nu, omega):
    """Dense ``P`` and ``R`` of a flavor, formed here from the assembled
    mass and stiffness matrices as the builders' docstrings state them,
    without the builders' own preconditioner declaration."""
    if flavor == "stokes":
        fem = assemble_taylor_hood(build_mesh(level))
        ms, ks = fem.scalar_mass.toarray(), fem.scalar_stiffness.toarray()
        ps = ms + math.sqrt(nu) * (ks + omega * ms)
        d = divergence(fem)
        schur = d @ np.linalg.solve(scipy.linalg.block_diag(ps, ps), d.T)
        return (
            scipy.linalg.block_diag(ps, ps, ps, ps),
            nu * scipy.linalg.block_diag(schur, schur),
        )
    fem = assemble_p1(build_mesh(level))
    m, k = fem.mass.toarray(), fem.stiffness.toarray()
    y = m + math.sqrt(nu) * (k + omega * m)
    if flavor == "parabolic-kkt":
        return scipy.linalg.block_diag(y, nu * m), y / nu
    return y, y
