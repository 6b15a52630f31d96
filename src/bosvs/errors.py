"""Exception types shared across the package, and ``as_int`` and
``as_real``, the one check of a numeric setting."""

import math
import numbers
import operator


class SolverError(Exception):
    """Base class for all solver-specific failures."""


class DimensionMismatch(SolverError, ValueError):
    """Operand shapes are inconsistent with the operator or problem."""


class BadDims(SolverError, ValueError):
    """A dimension or other numeric setting outside its supported range."""


def as_int(name, value, lo=None, error=BadDims):
    """value as an int if it is a Python or numpy integer, not a bool, and
    >= lo if given. Else an error naming the setting: BadDims (a float is
    refused, not truncated), or ``error``, a callable from a message to an
    exception, for an integer below lo."""
    try:
        if isinstance(value, bool):
            raise TypeError
        value = operator.index(value)
    except TypeError:
        error = BadDims
    else:
        if lo is None or value >= lo:
            return value
    bound = '' if lo is None else f' >= {lo}'
    raise error(f"{name} must be an integer{bound}, got {value!r}")


def as_real(name, value, lo=None, above=False, inf=False, error=BadDims):
    """float(value) if it is a real number, not a bool, not NaN, finite
    (``inf`` also allows +inf) and >= lo if given (> lo if ``above``); else
    BadDims naming the setting, or ``error`` for a real number out of range."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    if (real and (-math.inf < value < math.inf or inf and value == math.inf)
            and (lo is None or (value > lo if above else value >= lo))):
        return float(value)
    bound = '' if lo is None else f" {'>' if above else '>='} {lo:g}"
    kind = (f'a real number{bound} or inf' if inf
            else f'a finite real number{bound}')
    raise (error if real else BadDims)(f"{name} must be {kind}, got {value!r}")


class RankDeficient(SolverError):
    """A coupling block failed the full-column-rank check."""

    def __init__(self, block):
        self.block = block
        super().__init__(f"block {block} is numerically rank deficient")


class NegativeThreshold(SolverError, ValueError):
    """Prox threshold must be nonnegative."""


class EmptyBox(SolverError, ValueError):
    """Box constraint with lo > hi somewhere."""


class UnsupportedSubproblem(SolverError):
    """Block structure outside the solvable classes (h = 0 linear solve,
    or A^T A equal to a positive multiple of the identity)."""

    def __init__(self, block, message=None):
        self.block = block
        super().__init__(message or f"block {block}: no closed-form or direct route "
                                    "for this (f, h, A) combination")


class LineSearchDiverged(SolverError):
    """Backtracking exceeded the trial cap without acceptance."""

    def __init__(self, block, trials):
        self.block = block
        self.trials = trials
        super().__init__(f"block {block}: line search gave up after {trials} "
                         "trials")


class InnerIterationCap(SolverError):
    """Inner loop hit its iteration cap; usually a mis-set psi or a
    degenerate block."""

    def __init__(self, block, cap):
        self.block = block
        self.cap = cap
        super().__init__(f"block {block}: inner loop hit cap {cap}")


class CGNotConverged(SolverError):
    """Conjugate gradient exhausted maxit before reaching tolerance."""

    def __init__(self, maxit):
        self.maxit = maxit
        super().__init__(f"CG did not converge within {maxit} iterations")


class NegativeR(SolverError, ValueError):
    """Inexactness terms r_i must be nonnegative."""


class MissingReference(SolverError, ValueError):
    """Energy evaluation requested without a reference solution."""


class MissingLipschitz(SolverError, ValueError):
    """Constant stepsize schedule requires a Lipschitz constant."""


class MaxItersReached(SolverError):
    """Outer loop exhausted its budget. Carries the best state reached."""

    def __init__(self, result=None, message=None):
        self.result = result
        super().__init__(message or "outer iteration budget exhausted")
