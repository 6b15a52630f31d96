"""Exception types shared across the package."""


class SolverError(Exception):
    """Base class for all solver-specific failures."""


class DimensionMismatch(SolverError, ValueError):
    """Operand shapes are inconsistent with the operator or problem."""


class BadDims(SolverError, ValueError):
    """Instance dimensions outside the supported range."""


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
