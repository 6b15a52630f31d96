"""Problem container: separable objective plus linear coupling.

A ``Problem`` is m blocks, each with a coupling operator A_i, a smooth
convex part f_i (gradient available) and a nonsmooth convex part h_i
(prox available, value may be +inf), tied by sum_i A_i x_i = b. Block
vectors are stored as one contiguous array with an offset table.

The module-level functions evaluate the objective, the exact subproblem
objective L_i and a KKT residual report.
"""

import numpy as np

from .errors import DimensionMismatch
from .linops import block_slices

__all__ = ['SmoothPart', 'NonsmoothPart', 'Block', 'Problem', 'KKTReport',
           'objective', 'L_i_k', 'kkt_residual']


class SmoothPart:
    """Interface for f_i: convex, differentiable, Lipschitz gradient.

    ``lipschitz`` may be None; every algorithm runs without it (the line
    searches adapt). ``hess_apply`` is optional and, when present, must
    be the state-independent Hessian action of a quadratic; ``hess_gram(n)``
    gives it as a cheap ``linops`` Gram value on R^n, or None. ``dim`` is
    the input length, if fixed. The optional ``residual(x)`` gives an r that
    ``value(x, r)`` and ``gradient(x, r)`` accept in place of recomputing it.
    ``normal``, if not None, is (H, b, c) for a quadratic
    f(u) = 0.5 <u, H u> - <b, u> + c whose gradient H u - b costs less than
    its value: the line searches' sufficient-decrease test
    (``inner.BlockState.descent``) then checks the Bregman gap
    f(v) - f(u) - <grad f(u), v - u> = 0.5 <v - u, grad f(v) - grad f(u)>
    and takes no f value, the gradient takes no ``residual``, and a block
    takes f(u) = 0.5 <u, grad f(u) - b> + c from its memoized gradient.
    ``is_zero`` marks f = 0.
    ``in_basis(g)``, if set, is the part in the coordinates Q u of a
    ``linops.Diagonalized`` g, or None when it has no cheap form there.
    """

    lipschitz = None
    hess_apply = None
    residual = None
    normal = None
    in_basis = None
    is_zero = False
    hess_gram = None
    dim = None

    def value(self, x):
        raise NotImplementedError

    def gradient(self, x):
        raise NotImplementedError


class NonsmoothPart:
    """Interface for h_i: proper closed convex, prox available.

    ``value`` may return +inf outside the domain. ``prox(v, t)`` solves
    argmin_u h(u) + ||u - v||^2 / (2 t). Zero parts set ``is_zero``.
    """

    is_zero = False

    def value(self, x):
        raise NotImplementedError

    def prox(self, v, t):
        raise NotImplementedError


class Block:
    """One block: coupling operator A, smooth part f, nonsmooth part h."""

    def __init__(self, A, f, h):
        self.A = A
        self.f = f
        self.h = h

    @property
    def dim(self):
        return self.A.cols


class Problem:
    """Blocks plus the right-hand side b of the coupling constraint."""

    def __init__(self, blocks, b, meta=None):
        blocks = list(blocks)
        if not blocks:
            raise DimensionMismatch("need at least one block")
        b = np.asarray(b, dtype=float).ravel()
        rows = blocks[0].A.rows
        for i, blk in enumerate(blocks):
            if blk.A.rows != rows:
                raise DimensionMismatch(
                    f"block {i + 1} has {blk.A.rows} rows, expected {rows}")
            if blk.f.dim not in (None, blk.dim):
                raise DimensionMismatch(
                    f"block {i + 1}: smooth part {type(blk.f).__name__} "
                    f"takes length {blk.f.dim}, the block has {blk.dim}")
        if b.size != rows:
            raise DimensionMismatch(
                f"b has length {b.size}, expected {rows}")
        self.blocks = blocks
        self.b = b
        self.meta = dict(meta or {})
        self.dims = [blk.dim for blk in blocks]
        self.offsets = np.concatenate([[0], np.cumsum(self.dims)]).astype(int)
        self.n = int(self.offsets[-1])
        self.rows = rows
        self.slices = block_slices(self.dims)
        self.tail = slice(self.slices[0].stop, None)    # blocks 2..m

    @property
    def m(self):
        return len(self.blocks)

    def check_vector(self, x):
        x = np.asarray(x, dtype=float).ravel()
        if x.size != self.n:
            raise DimensionMismatch(
                f"block vector has length {x.size}, expected {self.n}")
        return x

    def split(self, x):
        x = self.check_vector(x)
        return [x[sl] for sl in self.slices]

    def apply_A(self, x):
        """sum_i A_i x_i for a stacked block vector."""
        parts = self.split(x)
        out = np.zeros(self.rows)
        for blk, xi in zip(self.blocks, parts):
            out += blk.A.apply(xi)
        return out


def objective(p, x, f_known=None):
    """Phi(x) = sum_i f_i(x_i) + h_i(x_i); +inf propagates. A value of
    ``f_known`` other than None is the f_i(x_i) a caller already took."""
    total = 0.0
    for blk, xi, fv in zip(p.blocks, p.split(x), f_known or [None] * p.m):
        total += blk.f.value(xi) if fv is None else fv
        hv = blk.h.value(xi)
        if hv == np.inf:
            return np.inf
        total += hv
    return float(total)


def L_i_k(p, i, u, b_ik, lam, rho):
    """Exact subproblem objective for block i.

    f_i(u) + h_i(u) + (rho/2)||A_i u - b_ik + lam/rho||^2.
    """
    blk = p.blocks[i]
    u = np.asarray(u, dtype=float).ravel()
    if u.size != blk.dim:
        raise DimensionMismatch(f"block {i + 1} expects dim {blk.dim}")
    hv = blk.h.value(u)
    if hv == np.inf:
        return np.inf
    pen = blk.A.apply(u) - b_ik + lam / rho
    return blk.f.value(u) + hv + 0.5 * rho * float(pen @ pen)


class KKTReport:
    """Primal residual plus per-block prox-stationarity residuals."""

    def __init__(self, primal, blocks):
        self.primal = float(primal)
        self.blocks = [float(v) for v in blocks]
        self.aggregate = self.primal + sum(self.blocks)


def kkt_residual(p, x, lam):
    """Stationarity and feasibility residuals at (x, lam).

    Block i residual is ||x_i - prox_{h_i}(x_i - grad f_i(x_i)
    - A_i^T lam)|| at unit prox scale; primal is ||Ax - b||.
    """
    x = p.check_vector(x)
    lam = np.asarray(lam, dtype=float).ravel()
    if lam.size != p.rows:
        raise DimensionMismatch("multiplier length mismatch")
    primal = np.linalg.norm(p.apply_A(x) - p.b)
    blocks = []
    for i, blk in enumerate(p.blocks):
        xi = x[p.slices[i]]
        step = xi - blk.f.gradient(xi) - blk.A.apply_adjoint(lam)
        blocks.append(np.linalg.norm(xi - blk.h.prox(step, 1.0)))
    return KKTReport(primal, blocks)
