"""Inexact multi-block ADMM with variable-stepsize linearized subproblems.

Separable convex objectives f_i + h_i coupled by sum_i A_i x_i = b are
solved by a common outer loop (block sweep, combined error measure,
back-substitution correction) with a choice of per-block subproblem
schemes: a single BB-seeded linearized step, a multistep averaging loop,
an accelerated inner loop, or an exact subproblem baseline.
"""

from . import errors
from .bench import (DeblurConfig, LassoConfig, ista_oracle, make_deblur,
                    make_lasso, phantom, refsolve, run_benchmark)
from .inner import (BlockState, BlockWorkspace, InnerContext, InnerResult,
                    LineSearchParams, RelaxationParams, accelerated_loop,
                    exact_block_solve, generalized_step, multistep_loop)
from .linops import (BlurOperator, DenseOp, DiffOperator, HaarTransform,
                     IdentityOp, LinOp, NegIdentityOp, ScaledIdentityOp,
                     VStackOp, ZeroOp, assemble_back_sub, back_substitute,
                     gram)
from .outer import (OuterParams, OuterState, SolveResult, TraceRecord,
                    energy_E, error_measure, outer_step, solve,
                    write_summary, write_trace_csv)
from .problem import (Block, KKTReport, L_i_k, Problem, b_i_k, kkt_residual,
                      objective)
from .problem_io import load_problem, save_problem
from .prox import (BoxIndicator, GroupL2, QuadraticLS, ScaledL1, ZeroProx,
                   ZeroSmooth, box_clamp, group_shrink, soft_threshold)

__version__ = '0.1.0'

__all__ = [
    'errors', '__version__',
    # operators
    'LinOp', 'DenseOp', 'ScaledIdentityOp', 'IdentityOp', 'NegIdentityOp',
    'ZeroOp', 'VStackOp', 'HaarTransform', 'DiffOperator', 'BlurOperator',
    'gram', 'assemble_back_sub', 'back_substitute',
    # problem
    'Problem', 'Block', 'KKTReport', 'objective', 'b_i_k', 'L_i_k',
    'kkt_residual',
    'load_problem', 'save_problem',
    # prox and parts
    'soft_threshold', 'group_shrink', 'box_clamp', 'ScaledL1', 'GroupL2',
    'BoxIndicator', 'ZeroProx', 'QuadraticLS', 'ZeroSmooth',
    # inner schemes
    'LineSearchParams', 'RelaxationParams', 'InnerResult', 'BlockState',
    'BlockWorkspace', 'InnerContext', 'generalized_step', 'multistep_loop',
    'accelerated_loop', 'exact_block_solve',
    # outer loop
    'OuterParams', 'OuterState', 'SolveResult', 'TraceRecord',
    'error_measure', 'outer_step', 'solve', 'energy_E', 'write_trace_csv',
    'write_summary',
    # benchmarks
    'DeblurConfig', 'LassoConfig', 'phantom', 'make_deblur', 'make_lasso',
    'ista_oracle', 'refsolve', 'run_benchmark',
]
