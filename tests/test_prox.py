"""Proximal maps against scalar-optimization oracles and their
contraction properties."""

import numpy as np
import pytest

from bosvs.errors import (BadDims, DimensionMismatch, EmptyBox,
                          NegativeThreshold)
from bosvs.inner import BlockState
from bosvs.prox import (BoxIndicator, GroupL2, QuadraticLS, ScaledL1,
                        ZeroProx, ZeroSmooth, box_clamp, group_shrink,
                        soft_threshold)
from bosvs.linops import BlurOperator, DenseOp, DiffOperator


def scalar_l1_prox_oracle(v, t, weight=1.0):
    """argmin_u weight |u| + (u - v)^2 / (2 t) by bisection on the
    (monotone) subgradient; independent of the shrinkage formula."""
    def slope(u):
        return (u - v) / t + weight * np.sign(u)

    lo = v - t * weight - 1.0
    hi = v + t * weight + 1.0
    for _ in range(120):
        mid = 0.5 * (lo + hi)
        if slope(mid) > 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def test_soft_threshold_matches_scalar_oracle():
    rng = np.random.default_rng(0)
    for _ in range(50):
        v = float(rng.normal(scale=3.0))
        t = float(rng.uniform(0.01, 2.0))
        want = scalar_l1_prox_oracle(v, t)
        got = soft_threshold(np.array([v]), t)[0]
        assert abs(got - want) <= 1e-10


def test_soft_threshold_closed_form_cases():
    assert soft_threshold(np.array([3.0]), 1.0)[0] == 2.0
    assert soft_threshold(np.array([-3.0]), 1.0)[0] == -2.0
    assert soft_threshold(np.array([0.5]), 1.0)[0] == 0.0
    assert np.all(soft_threshold(np.array([1.0, -1.0]), 0.0)
                  == np.array([1.0, -1.0]))
    with pytest.raises(NegativeThreshold):
        soft_threshold(np.ones(3), -0.1)


def test_group_shrink_matches_per_group_formula():
    rng = np.random.default_rng(1)
    for _ in range(20):
        ngroups = int(rng.integers(1, 8))
        gs = int(rng.integers(2, 4))
        v = rng.normal(size=gs * ngroups)
        t = float(rng.uniform(0.0, 1.5))
        got = group_shrink(v, t, gs)
        g = v.reshape(gs, -1)
        for p in range(ngroups):
            col = g[:, p]
            nrm = np.linalg.norm(col)
            want = col * max(1.0 - t / nrm, 0.0) if nrm > 0 else col * 0.0
            assert np.allclose(got.reshape(gs, -1)[:, p], want, atol=1e-12)
    with pytest.raises(DimensionMismatch):
        group_shrink(np.ones(5), 0.1, 2)


def test_group_size_below_one_is_rejected():
    for size in (0, -2):
        with pytest.raises(BadDims, match='group_size'):
            GroupL2(0.4, size)
        with pytest.raises(BadDims, match='group_size'):
            group_shrink(np.ones(4), 0.1, size)


def test_group_shrink_zero_group_stays_zero():
    v = np.zeros(6)
    assert np.array_equal(group_shrink(v, 0.5, 2), v)


def test_box_clamp_and_errors():
    v = np.array([-2.0, 0.5, 3.0])
    assert np.array_equal(box_clamp(v, 0.0, 1.0), np.array([0.0, 0.5, 1.0]))
    lo = np.array([0.0, -1.0, 2.0])
    hi = np.array([1.0, 0.0, 4.0])
    assert np.array_equal(box_clamp(v, lo, hi), np.array([0.0, 0.0, 3.0]))
    with pytest.raises(EmptyBox):
        box_clamp(v, 1.0, 0.0)
    with pytest.raises(EmptyBox):
        BoxIndicator(np.array([0.0, 2.0]), np.array([1.0, 1.0]))


def all_prox_parts():
    return [ZeroProx(), ScaledL1(0.3), GroupL2(0.4, 2),
            BoxIndicator(-0.5, 2.0)]


def test_prox_nonexpansive_and_firmly_nonexpansive():
    """||P(u) - P(v)|| <= ||u - v|| and
    <P(u) - P(v), u - v> >= ||P(u) - P(v)||^2, 1000 pairs per prox."""
    rng = np.random.default_rng(2)
    for part in all_prox_parts():
        for _ in range(1000):
            n = 8
            u = rng.normal(scale=2.0, size=n)
            v = rng.normal(scale=2.0, size=n)
            t = float(rng.uniform(0.05, 3.0))
            pu = part.prox(u, t)
            pv = part.prox(v, t)
            lhs = np.linalg.norm(pu - pv)
            rhs = np.linalg.norm(u - v)
            assert lhs <= rhs + 1e-12
            inner = float((pu - pv) @ (u - v))
            assert inner >= float((pu - pv) @ (pu - pv)) - 1e-10


def test_prox_optimality_by_objective_comparison():
    """The prox output beats random perturbations on the prox objective."""
    rng = np.random.default_rng(3)
    for part in all_prox_parts():
        for _ in range(25):
            v = rng.normal(scale=1.5, size=6)
            t = float(rng.uniform(0.1, 2.0))
            p = part.prox(v, t)
            base = part.value(p) + float((p - v) @ (p - v)) / (2.0 * t)
            assert np.isfinite(base)
            for _ in range(10):
                q = p + rng.normal(scale=0.1, size=6)
                cand = part.value(q) + float((q - v) @ (q - v)) / (2.0 * t)
                assert cand >= base - 1e-9


def test_scaled_l1_weight_folds_into_threshold():
    rng = np.random.default_rng(4)
    part = ScaledL1(0.7)
    v = rng.normal(size=9)
    assert np.array_equal(part.prox(v, 0.5), soft_threshold(v, 0.35))
    assert abs(part.value(v) - 0.7 * np.abs(v).sum()) < 1e-12
    with pytest.raises(NegativeThreshold):
        ScaledL1(-1.0)


def test_term_weights_must_be_finite_and_nonnegative():
    # a NaN weight fails no weight < 0 test, and inf makes h(0) = inf * 0 NaN
    for weight in (-1.0, np.nan, np.inf, -np.inf):
        for part in (ScaledL1, GroupL2):
            with pytest.raises(NegativeThreshold, match='finite'):
                part(weight)
    for part in (ScaledL1(0.0), GroupL2(0.0)):
        assert part.value(np.zeros(4)) == 0.0


def test_zero_parts():
    z = ZeroProx()
    v = np.array([1.0, -2.0])
    assert z.value(v) == 0.0
    assert np.array_equal(z.prox(v, 10.0), v)
    assert z.is_zero
    f = ZeroSmooth()
    assert f.value(v) == 0.0
    assert np.array_equal(f.gradient(v), np.zeros(2))
    assert f.lipschitz == 0.0
    assert f.is_zero


def test_quadratic_ls_parts():
    # 12x7 takes its gradient from the normal form, 7x12 (wide) from F
    rng = np.random.default_rng(5)
    for shape in ((12, 7), (7, 12)):
        a = rng.standard_normal(shape)
        data = rng.standard_normal(shape[0])
        f = QuadraticLS(DenseOp(a), data)
        assert (f.normal is None) == (shape[1] > shape[0])
        x = rng.standard_normal(shape[1])
        want_val = 0.5 * float(np.sum((a @ x - data) ** 2))
        assert abs(f.value(x) - want_val) <= 1e-12 * (1.0 + abs(want_val))
        assert np.allclose(f.gradient(x), a.T @ (a @ x - data), atol=1e-12)
        assert np.allclose(f.hess_apply(x), a.T @ (a @ x), atol=1e-12)
        assert np.allclose(f.hess_gram(shape[1]).to_dense(), a.T @ a,
                           rtol=0, atol=1e-12)
        r = f.residual(x)
        assert np.allclose(r, a @ x - data, atol=1e-12)
        assert f.value(x, r) == f.value(x)
        assert np.array_equal(f.gradient(x, r), f.gradient(x))
        lam_max = float(np.linalg.eigvalsh(a.T @ a)[-1])
        assert abs(f.lipschitz - lam_max) <= 1e-8 * lam_max
        assert not f.is_zero
    assert ZeroSmooth.residual is None and ZeroSmooth.normal is None
    with pytest.raises(DimensionMismatch):
        QuadraticLS(DenseOp(a), np.zeros(5))


def test_quadratic_ls_gradient_from_the_normal_form(monkeypatch):
    # on a 12x7 dense part the gradient is H x - F^T data, built once from
    # F, and agrees with F^T (F x - data); the exact scheme's Gram is H, and
    # a block's memo takes f from the gradient without calling value
    rng = np.random.default_rng(6)
    a = rng.standard_normal((12, 7))
    data = rng.standard_normal(12)
    f = QuadraticLS(DenseOp(a), data)
    H = f.normal[0]
    assert f.normal is f.normal and f.hess_gram(7) is H
    # exactly symmetric, so its products read one triangle
    assert H._symmetric and np.array_equal(H.to_dense(), H.to_dense().T)
    calls = []
    monkeypatch.setattr(DenseOp, 'apply_adjoint',
                        lambda op, w: calls.append(op))
    monkeypatch.setattr(QuadraticLS, 'value', None)
    for _ in range(5):
        x = rng.standard_normal(7)
        want = a.T @ (a @ x - data)
        assert np.max(np.abs(f.gradient(x) - want)) <= 1e-12
        assert np.array_equal(f.hess_apply(x), H.apply(x))
        r = a @ x - data
        fx = BlockState(x, 1.0).value(f, x)
        assert abs(fx - 0.5 * float(r @ r)) <= 1e-12 * float(r @ r)
    assert calls == []


def test_quadratic_ls_explicit_lipschitz_is_kept():
    f = QuadraticLS(DenseOp(np.eye(3)), np.zeros(3), lipschitz=9.5)
    assert f.lipschitz == 9.5


def test_quadratic_ls_rejects_a_lipschitz_that_is_not_finite_and_nonnegative():
    # a NaN or negative one used to start the constant schedule from
    # delta_min, and an infinite one to stagnate the run before iteration 1
    for bad in (np.nan, -1.0, np.inf):
        with pytest.raises(BadDims, match='lipschitz'):
            QuadraticLS(DenseOp(np.eye(3)), np.zeros(3), lipschitz=bad)
    for good in (0.0, 2.5):
        f = QuadraticLS(DenseOp(np.eye(3)), np.zeros(3), lipschitz=good)
        assert f.lipschitz == good


def test_quadratic_ls_in_basis_is_the_same_function():
    rng = np.random.default_rng(41)
    g = DiffOperator(8, 8).self_gram()
    f = QuadraticLS(BlurOperator.uniform(8, 8, 3), rng.standard_normal(64))
    fb = f.in_basis(g)
    u = rng.standard_normal(64)
    v = g.forward(u)
    assert fb.value(v) == pytest.approx(f.value(u), rel=1e-12)
    assert np.allclose(fb.gradient(v), g.forward(f.gradient(u)),
                       rtol=0, atol=1e-12)
    assert fb.lipschitz == pytest.approx(f.lipschitz, rel=1e-9)
    # no diagonal form on g's basis: a 5x5 blur, a dense F, another grid
    assert QuadraticLS(BlurOperator.uniform(8, 8, 5), f.data).in_basis(g) \
        is None
    assert QuadraticLS(DenseOp(np.eye(64)), f.data).in_basis(g) is None
    assert QuadraticLS(BlurOperator.uniform(4, 16, 3), f.data).in_basis(g) \
        is None
    assert ZeroSmooth().in_basis(g) is not None
