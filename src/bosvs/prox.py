"""Proximal maps and the concrete smooth / nonsmooth parts.

The three primitive maps (soft thresholding, blockwise l2 shrinkage, box
clamping) are plain functions; the classes wrap them behind the
``NonsmoothPart`` interface used by the solver. Weights multiply the prox
scale t instead of living in separate weighted types.
"""

import functools

import numpy as np

from . import linops
from .errors import (BadDims, DimensionMismatch, EmptyBox, NegativeThreshold,
                     as_int)
from .problem import NonsmoothPart, SmoothPart

__all__ = ['soft_threshold', 'group_shrink', 'box_clamp',
           'ScaledL1', 'GroupL2', 'BoxIndicator', 'ZeroProx',
           'QuadraticLS', 'ZeroSmooth']


def soft_threshold(v, t):
    """Componentwise prox of t * |.|: shrink toward zero by t."""
    if t < 0:
        raise NegativeThreshold(f"threshold {t} < 0")
    v = np.asarray(v, dtype=float)
    return np.sign(v) * np.maximum(np.abs(v) - t, 0.0)


def group_shrink(v, t, group_size=2):
    """Prox of t * sum of group l2 norms.

    Groups are strided: component j of group p sits at v[j*G + p] where
    G = v.size // group_size, matching stacked difference fields. Each
    group is scaled by max(1 - t/||g||, 0); zero groups stay zero.
    """
    if t < 0:
        raise NegativeThreshold(f"threshold {t} < 0")
    if group_size < 1:
        raise BadDims(f"group_size must be >= 1, got {group_size}")
    v = np.asarray(v, dtype=float)
    if v.size % group_size:
        raise DimensionMismatch(
            f"vector length {v.size} not divisible by group size {group_size}")
    g = v.reshape(group_size, -1)
    norms = np.sqrt((g * g).sum(axis=0))
    with np.errstate(divide='ignore', invalid='ignore'):
        scale = np.where(norms > 0.0, np.maximum(1.0 - t / norms, 0.0), 0.0)
    return (g * scale).ravel()


def box_clamp(v, lo, hi):
    """Projection onto the box [lo, hi]; lo/hi broadcast against v."""
    v = np.asarray(v, dtype=float)
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    if np.any(lo > hi):
        raise EmptyBox("box has lo > hi")
    return np.minimum(np.maximum(v, lo), hi)


class ZeroProx(NonsmoothPart):
    """h = 0: value zero everywhere, prox is the identity."""

    is_zero = True

    def value(self, x):
        return 0.0

    def prox(self, v, t):
        return np.asarray(v, dtype=float).copy()


class ScaledL1(NonsmoothPart):
    """h(x) = weight * ||x||_1."""

    def __init__(self, weight):
        if not 0.0 <= weight < np.inf:
            raise NegativeThreshold("l1 weight must be finite and >= 0")
        self.weight = float(weight)

    def value(self, x):
        return self.weight * float(np.abs(x).sum())

    def prox(self, v, t):
        return soft_threshold(v, self.weight * t)


class GroupL2(NonsmoothPart):
    """h(x) = weight * sum over groups of ||x_g||_2 (strided layout)."""

    def __init__(self, weight, group_size=2):
        if not 0.0 <= weight < np.inf:
            raise NegativeThreshold("group weight must be finite and >= 0")
        self.group_size = as_int('group_size', group_size)
        if self.group_size < 1:
            raise BadDims(f"group_size must be >= 1, got {group_size}")
        self.weight = float(weight)

    def value(self, x):
        g = np.asarray(x, dtype=float).reshape(self.group_size, -1)
        return self.weight * float(np.sqrt((g * g).sum(axis=0)).sum())

    def prox(self, v, t):
        return group_shrink(v, self.weight * t, self.group_size)


class BoxIndicator(NonsmoothPart):
    """Indicator of [lo, hi]: zero inside, +inf outside."""

    def __init__(self, lo, hi):
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        if np.any(lo > hi):
            raise EmptyBox("box has lo > hi")
        self.lo = lo
        self.hi = hi

    def value(self, x):
        x = np.asarray(x, dtype=float)
        if np.all(x >= self.lo) and np.all(x <= self.hi):
            return 0.0
        return np.inf

    def prox(self, v, t):
        return box_clamp(v, self.lo, self.hi)


class ZeroSmooth(SmoothPart):
    """f = 0 with zero gradient and Lipschitz constant zero."""

    is_zero = True
    lipschitz = 0.0

    def value(self, x):
        return 0.0

    def gradient(self, x):
        return np.zeros_like(np.asarray(x, dtype=float))

    def hess_apply(self, v):
        return np.zeros_like(np.asarray(v, dtype=float))

    def hess_gram(self, n):
        return linops.ZeroOp(n, n)

    def in_basis(self, g):
        return self


class QuadraticLS(SmoothPart):
    """f(u) = 0.5 * ||F u - data||^2 for a LinOp F.

    For a ``DenseOp`` F no wider than tall, ``normal`` is
    (H, F^T data, 0.5 ||data||^2) with the Gram H = F^T F, built on first
    use and kept; F and data must not change from then on. The gradient is
    then H u - F^T data, one product that reads half of H, where it is
    otherwise F^T (F u - data) (``normal`` None). ``residual(u)`` is
    F u - data; given it, ``value`` skips its F apply, and so does
    ``gradient`` without a normal form. ``hess_gram`` is the Hessian as a
    Gram value: H, else F's structured ``self_gram``, else None (a
    matrix-free F is never materialized). ``lipschitz`` is the largest
    eigenvalue of F^T F (power iteration on first use) unless given; a given
    one must be finite and >= 0.
    """

    def __init__(self, F, data, lipschitz=None):
        self.F = F
        self.data = np.asarray(data, dtype=float).ravel()
        if self.data.size != F.rows:
            raise DimensionMismatch(
                f"data length {self.data.size} != operator rows {F.rows}")
        if lipschitz is not None and not 0.0 <= lipschitz < np.inf:
            raise BadDims(f"need a finite lipschitz >= 0, got {lipschitz}")
        self._lipschitz = None if lipschitz is None else float(lipschitz)

    @functools.cached_property
    def normal(self):
        F = self.F
        if not isinstance(F, linops.DenseOp) or F.cols > F.rows:
            return None
        return (F.self_gram(), F.apply_adjoint(self.data),
                0.5 * float(self.data @ self.data))

    def residual(self, x):
        return self.F.apply(x) - self.data

    def value(self, x, r=None):
        r = self.F.apply(x) - self.data if r is None else r
        return 0.5 * float(r @ r)

    def gradient(self, x, r=None):
        if self.normal is not None:
            H, ftd, _ = self.normal
            return H.apply(x) - ftd
        r = self.F.apply(x) - self.data if r is None else r
        return self.F.apply_adjoint(r)

    def hess_apply(self, v):
        if self.normal is not None:
            return self.normal[0].apply(v)
        return self.F.apply_adjoint(self.F.apply(v))

    @property
    def dim(self):
        return self.F.cols

    def hess_gram(self, n):
        return self.F.self_gram() if self.normal is None else self.normal[0]

    def in_basis(self, g):
        """0.5 ||eig_F v - Q data||^2, this part in the coordinates v = Q u
        of the ``Diagonalized`` g, if F is diagonal on g's basis; else None."""
        d = self.F.diagonalized()
        if d is None or d.forward is not g.forward:
            return None
        return QuadraticLS(linops.DiagonalOp(d.eig), g.forward(self.data),
                           float(np.max(d.eig ** 2)))

    @property
    def lipschitz(self):
        if self._lipschitz is None:
            self._lipschitz = self._power_iteration()
        return self._lipschitz

    def _power_iteration(self):
        rng = np.random.default_rng(0)
        v = rng.standard_normal(self.F.cols)
        v /= np.linalg.norm(v)
        lam = 0.0
        for _ in range(5000):
            w = self.hess_apply(v)
            nw = np.linalg.norm(w)
            if nw == 0.0:
                return 0.0
            lam_new = float(v @ w)
            v = w / nw
            if abs(lam_new - lam) <= 1e-12 * max(abs(lam_new), 1.0):
                return lam_new
            lam = lam_new
        return lam
