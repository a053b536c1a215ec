"""The dense pair of a model problem, for the exact analyses at desk scale.

A :class:`~saddlebounds.fem.ModelProblem` keeps its blocks sparse.  The
dense analyses take them, as they are, to
:class:`~saddlebounds.saddle.SaddleSystem` and
:class:`~saddlebounds.saddle.InnerProduct`, which densify them and refuse a
system above ``saddle.DENSE_LIMIT``.  The assembled ``diag(P, R)`` exists
only here, for reference pencil solves.
"""

import scipy.linalg

from saddlebounds.saddle import InnerProduct, SaddleSystem, reduce_system


def saddle_system(problem) -> SaddleSystem:
    return SaddleSystem(a=problem.a, b=problem.b, c=problem.c)


def inner_product(problem) -> InnerProduct:
    return InnerProduct(*problem.inner_product_blocks())


def reduce_problem(problem):
    """The problem's system in the geometry of its inner product."""
    return reduce_system(saddle_system(problem), inner_product(problem))


def inner_product_matrix(ip: InnerProduct):
    """The dense block-diagonal matrix ``diag(P, R)`` of ``ip``."""
    return scipy.linalg.block_diag(ip.p, ip.r)
