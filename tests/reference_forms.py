"""Reference forms of the per-block subproblem pieces.

No solver path calls these; the tests check the library's schemes
against them.
"""

import numpy as np

from bosvs import inner
from bosvs.errors import DimensionMismatch


def b_i_k(p, i, z, y):
    """Partial right-hand side for block i.

    b minus the already-updated blocks of z (j < i) minus the not yet
    updated blocks of y (j > i). z and y are full stacked vectors; only
    the relevant slices are read.
    """
    z = p.check_vector(z)
    y = p.check_vector(y)
    out = p.b.copy()
    for j in range(p.m):
        if j != i:
            out -= p.blocks[j].A.apply((z if j < i else y)[p.slices[j]])
    return out


def bb_stepsize(f, x_cur, x_prev):
    """<grad f(x) - grad f(x_prev), dx> / ||dx||^2, or None if dx = 0."""
    d = np.asarray(x_cur, dtype=float) - np.asarray(x_prev, dtype=float)
    nn = float(d @ d)
    if nn == 0.0:
        return None
    return float((f.gradient(x_cur) - f.gradient(x_prev)) @ d) / nn


def prox_linear_step(p, i, v, delta, b_ik, lam, rho, workspace=None):
    """Minimize the linearized proximal subproblem around v.

    Solves argmin_u f_i(v) + <grad f_i(v), u - v> + (delta/2)||u - v||^2
    + h_i(u) + (rho/2)||A_i u - b_ik + lam/rho||^2. With h_i = 0 this is
    a direct linear solve; with Gram(A_i) = c*I it is one prox call at
    scale 1/(delta + rho*c); otherwise UnsupportedSubproblem.
    """
    ctx = inner.InnerContext(p, i, np.asarray(b_ik, dtype=float),
                             np.asarray(lam, dtype=float), rho,
                             workspace=workspace)
    v = np.asarray(v, dtype=float)
    return inner._composite_argmin(ctx, ctx.block.f.gradient(v), v, delta)


def phi_i_k(p, i, u, v, delta, b_ik, lam, rho):
    """Linearized proximal subproblem objective for block i.

    f_i(v) + <grad f_i(v), u - v> + (delta/2)||u - v||^2 + h_i(u)
    + (rho/2)||A_i u - b_ik + lam/rho||^2.
    """
    blk = p.blocks[i]
    u = np.asarray(u, dtype=float).ravel()
    v = np.asarray(v, dtype=float).ravel()
    if u.size != blk.dim or v.size != blk.dim:
        raise DimensionMismatch(f"block {i + 1} expects dim {blk.dim}")
    d = u - v
    hv = blk.h.value(u)
    if hv == np.inf:
        return np.inf
    pen = blk.A.apply(u) - b_ik + lam / rho
    return (blk.f.value(v) + float(blk.f.gradient(v) @ d)
            + 0.5 * delta * float(d @ d) + hv
            + 0.5 * rho * float(pen @ pen))
