"""Problem container and per-block objectives against hand-built dense
formulas."""

import numpy as np
import pytest

from bosvs.errors import DimensionMismatch
from bosvs.linops import DenseOp, IdentityOp, NegIdentityOp
from bosvs.problem import Block, Problem, L_i_k, kkt_residual, objective
from bosvs.prox import QuadraticLS, ScaledL1, ZeroProx, ZeroSmooth
from reference_forms import b_i_k, phi_i_k


def augmented_lagrangian(p, x, lam, rho):
    """Phi(x) + <lam, Ax - b> + (rho/2) ||Ax - b||^2 (reference form)."""
    lam = np.asarray(lam, dtype=float).ravel()
    if lam.size != p.rows:
        raise DimensionMismatch("multiplier length mismatch")
    r = p.apply_A(x) - p.b
    phi = objective(p, x)
    if phi == np.inf:
        return np.inf
    return phi + float(lam @ r) + 0.5 * rho * float(r @ r)


def dense_three_block(rng, rows=8, dims=(3, 4, 2)):
    mats = [rng.standard_normal((rows, d)) for d in dims]
    F = rng.standard_normal((6, dims[0]))
    data = rng.standard_normal(6)
    blocks = [Block(DenseOp(mats[0]), QuadraticLS(DenseOp(F), data),
                    ZeroProx()),
              Block(DenseOp(mats[1]), ZeroSmooth(), ScaledL1(0.3)),
              Block(DenseOp(mats[2]), ZeroSmooth(), ScaledL1(0.1))]
    b = rng.standard_normal(rows)
    return Problem(blocks, b), mats, F, data


def test_layout_and_split():
    rng = np.random.default_rng(0)
    p, mats, _, _ = dense_three_block(rng)
    assert p.m == 3
    assert p.n == 9
    assert p.rows == 8
    assert [s.start for s in p.slices] + [p.n] == [0, 3, 7, 9]
    x = rng.standard_normal(9)
    parts = p.split(x)
    assert [len(q) for q in parts] == [3, 4, 2]
    assert np.array_equal(np.concatenate(parts), x)
    want = sum(m @ q for m, q in zip(mats, parts))
    assert np.allclose(p.apply_A(x), want, atol=1e-12)
    with pytest.raises(DimensionMismatch):
        p.check_vector(np.zeros(8))


def test_problem_rejects_row_mismatch():
    blocks = [Block(IdentityOp(3), ZeroSmooth(), ZeroProx()),
              Block(IdentityOp(4), ZeroSmooth(), ZeroProx())]
    with pytest.raises(DimensionMismatch):
        Problem(blocks, np.zeros(3))
    with pytest.raises(DimensionMismatch):
        Problem([Block(IdentityOp(3), ZeroSmooth(), ZeroProx())], np.zeros(4))
    with pytest.raises(DimensionMismatch):
        Problem([], np.zeros(0))


def test_problem_rejects_smooth_part_of_another_length():
    f = QuadraticLS(DenseOp(np.ones((4, 3))), np.zeros(4))
    blocks = [Block(IdentityOp(2), f, ZeroProx()),
              Block(NegIdentityOp(2), ZeroSmooth(), ZeroProx())]
    with pytest.raises(DimensionMismatch, match='block 1: smooth part '
                       'QuadraticLS takes length 3, the block has 2'):
        Problem(blocks, np.zeros(2))


def test_objective_and_lagrangian_match_dense_formula():
    rng = np.random.default_rng(1)
    p, mats, F, data = dense_three_block(rng)
    x = rng.standard_normal(9)
    x1, x2, x3 = p.split(x)
    want_phi = (0.5 * np.sum((F @ x1 - data) ** 2)
                + 0.3 * np.abs(x2).sum() + 0.1 * np.abs(x3).sum())
    assert abs(objective(p, x) - want_phi) <= 1e-12 * (1.0 + abs(want_phi))
    lam = rng.standard_normal(8)
    rho = 0.7
    r = p.apply_A(x) - p.b
    want_lag = want_phi + lam @ r + 0.5 * rho * r @ r
    got = augmented_lagrangian(p, x, lam, rho)
    assert abs(got - want_lag) <= 1e-12 * (1.0 + abs(want_lag))


def test_b_i_k_uses_z_before_and_y_after():
    rng = np.random.default_rng(2)
    p, mats, _, _ = dense_three_block(rng)
    z = rng.standard_normal(9)
    y = rng.standard_normal(9)
    zs = p.split(z)
    ys = p.split(y)
    want0 = p.b - mats[1] @ ys[1] - mats[2] @ ys[2]
    want1 = p.b - mats[0] @ zs[0] - mats[2] @ ys[2]
    want2 = p.b - mats[0] @ zs[0] - mats[1] @ zs[1]
    assert np.allclose(b_i_k(p, 0, z, y), want0, atol=1e-12)
    assert np.allclose(b_i_k(p, 1, z, y), want1, atol=1e-12)
    assert np.allclose(b_i_k(p, 2, z, y), want2, atol=1e-12)


def test_phi_and_L_match_dense_formulas():
    rng = np.random.default_rng(3)
    p, mats, F, data = dense_three_block(rng)
    z = rng.standard_normal(9)
    y = rng.standard_normal(9)
    lam = rng.standard_normal(8)
    rho = 1.3
    delta = 2.1
    i = 0
    bik = b_i_k(p, i, z, y)
    u = rng.standard_normal(3)
    v = rng.standard_normal(3)
    grad_v = F.T @ (F @ v - data)
    fval_v = 0.5 * np.sum((F @ v - data) ** 2)
    pen = mats[0] @ u - bik + lam / rho
    want = (fval_v + grad_v @ (u - v) + 0.5 * delta * np.sum((u - v) ** 2)
            + 0.5 * rho * np.sum(pen ** 2))
    got = phi_i_k(p, i, u, v, delta, bik, lam, rho)
    assert abs(got - want) <= 1e-11 * (1.0 + abs(want))
    fval_u = 0.5 * np.sum((F @ u - data) ** 2)
    want_L = fval_u + 0.5 * rho * np.sum(pen ** 2)
    got_L = L_i_k(p, i, u, bik, lam, rho)
    assert abs(got_L - want_L) <= 1e-11 * (1.0 + abs(want_L))
    # nonsmooth block: the h value enters both
    i = 1
    bik = b_i_k(p, i, z, y)
    u2 = rng.standard_normal(4)
    got2 = L_i_k(p, i, u2, bik, lam, rho)
    pen2 = mats[1] @ u2 - bik + lam / rho
    want2 = 0.3 * np.abs(u2).sum() + 0.5 * rho * np.sum(pen2 ** 2)
    assert abs(got2 - want2) <= 1e-11 * (1.0 + abs(want2))


def test_kkt_residual_zero_at_constructed_optimum():
    """Build a 2-block consensus problem whose optimum is known through
    the l1 optimality conditions and check the report vanishes there."""
    rng = np.random.default_rng(4)
    n = 6
    F = rng.standard_normal((10, n))
    # pick x*, then the dual from stationarity of block 1 (smooth):
    # grad f(x1) + lam = 0 at x1 = x*
    x_star = rng.standard_normal(n)
    data = F @ x_star  # makes grad f(x*) = 0
    lam_star = np.zeros(n)
    blocks = [Block(IdentityOp(n), QuadraticLS(DenseOp(F), data), ZeroProx()),
              Block(NegIdentityOp(n), ZeroSmooth(), ScaledL1(0.0))]
    p = Problem(blocks, np.zeros(n))
    x = np.concatenate([x_star, x_star])
    rep = kkt_residual(p, x, lam_star)
    assert rep.primal <= 1e-12
    assert all(v <= 1e-10 for v in rep.blocks)
    assert rep.aggregate <= 1e-9
    # and it is visibly nonzero away from the optimum
    rep_off = kkt_residual(p, x + 0.5, lam_star + 0.1)
    assert rep_off.aggregate > 1e-3


def test_objective_propagates_infinity():
    from bosvs.prox import BoxIndicator
    n = 3
    blocks = [Block(IdentityOp(n), ZeroSmooth(), BoxIndicator(0.0, 1.0))]
    p = Problem(blocks, np.zeros(n))
    assert objective(p, np.array([0.5, 2.0, 0.1])) == np.inf
    assert objective(p, np.array([0.5, 1.0, 0.1])) == 0.0
