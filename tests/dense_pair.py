"""The dense pair of a model problem, for the exact analyses at desk scale.

A :class:`~saddlebounds.fem.ModelProblem` keeps its blocks sparse.  The
dense analyses take them, as they are: ``A``, ``B`` and ``C`` to
:class:`~saddlebounds.saddle.SaddleSystem`, which densifies them and
refuses a system above ``saddle.DENSE_LIMIT``, and the blocks ``P`` and
``R`` of ``inner_product_blocks()`` to
:func:`~saddlebounds.saddle.reduce_system`.  The assembled ``diag(P, R)``
exists only here, for reference pencil solves.
"""

import scipy.linalg
import scipy.sparse

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
