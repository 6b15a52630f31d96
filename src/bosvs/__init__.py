"""Inexact multi-block ADMM with variable-stepsize linearized subproblems.

Separable convex objectives f_i + h_i coupled by sum_i A_i x_i = b are
solved by a common outer loop (block sweep, combined error measure,
back-substitution correction) with a choice of per-block subproblem
schemes: a single BB-seeded linearized step, a multistep averaging loop,
an accelerated inner loop, or an exact subproblem baseline.
"""

from . import bench, errors, inner, linops, outer, problem, problem_io, prox

__version__ = '0.1.0'

__all__ = ['bench', 'errors', 'inner', 'linops', 'outer', 'problem',
           'problem_io', 'prox', '__version__']
