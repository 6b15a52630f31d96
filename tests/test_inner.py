"""Per-block scheme tests: seeds, line searches, inner loops, baselines."""

import numpy as np
import pytest

from bosvs import bench, inner, linops, outer, problem, prox
from bosvs.errors import (CGNotConverged, InnerIterationCap,
                          LineSearchDiverged, MissingLipschitz,
                          UnsupportedSubproblem)
from reference_forms import bb_stepsize, phi_i_k, prox_linear_step


def quad_smooth(rows, n, seed, lipschitz=None):
    rng = np.random.default_rng(seed)
    F = linops.DenseOp(rng.standard_normal((rows, n)))
    data = rng.standard_normal(rows)
    return prox.QuadraticLS(F, data, lipschitz=lipschitz)


def one_block(*args, **kwargs):
    return block_and_inputs(*args, **kwargs)[:2]


def block_and_inputs(A, f, h, rho=0.7, k=1, relaxed=False, ls=None, seed=3):
    """(ctx, bst, p, b_ik, lam) of a one-block problem."""
    rng = np.random.default_rng(seed)
    p = problem.Problem([problem.Block(A, f, h)], rng.standard_normal(A.rows))
    if ls is None:
        ls = inner.LineSearchParams()
    relax = inner.RelaxationParams(enabled=relaxed)
    b_ik = rng.standard_normal(A.rows)
    lam = rng.standard_normal(A.rows)
    ctx = inner.InnerContext(p, 0, b_ik, lam, rho, ls, relax, k)
    bst = inner.BlockState(rng.standard_normal(A.cols), ls.delta_min)
    return ctx, bst, p, b_ik, lam


class PlainSmooth(problem.SmoothPart):
    """Quadratic that advertises neither hess_apply nor a Lipschitz bound."""

    def __init__(self, H):
        self._H = np.asarray(H, dtype=float)

    def value(self, x):
        return 0.5 * float(x @ (self._H @ x))

    def gradient(self, x):
        return self._H @ np.asarray(x, dtype=float)


class CliffSmooth(problem.SmoothPart):
    """Discontinuous at the start point; no stepsize can satisfy descent."""

    def value(self, x):
        return 0.0 if not np.any(x) else 1.0

    def gradient(self, x):
        return np.zeros_like(np.asarray(x, dtype=float))


def test_param_validation():
    with pytest.raises(ValueError):
        inner.LineSearchParams(delta_min=1.0, delta_max=0.5)
    with pytest.raises(ValueError):
        inner.LineSearchParams(delta_min=0.0)
    ls = inner.LineSearchParams()
    assert 0.0 < ls.sigma < 1.0 < ls.tau <= ls.eta
    relax = inner.RelaxationParams()
    assert relax.eps_exponent > 1.0 and relax.omega_multistep > 1.0
    assert relax.omega_accelerated > 0.5
    assert relax.eps(1) == 10.0
    assert relax.eps(8) == pytest.approx(10.0 / 8.0 ** 1.1, rel=1e-15)
    assert inner.RelaxationParams(enabled=False).eps(8) == 0.0


def test_bb_stepsize_is_rayleigh_quotient():
    rng = np.random.default_rng(11)
    f = quad_smooth(9, 6, seed=11)
    H = f.F.to_dense().T @ f.F.to_dense()
    evals = np.linalg.eigvalsh(H)
    for trial in range(20):
        x = rng.standard_normal(6)
        y = x + rng.standard_normal(6)
        s = bb_stepsize(f, x, y)
        d = x - y
        expect = float(d @ (H @ d)) / float(d @ d)
        assert abs(s - expect) <= 1e-10 * max(abs(expect), 1.0)
        assert evals[0] - 1e-10 <= s <= evals[-1] + 1e-10
    # 1-D x^2 has constant Hessian 2
    f1 = prox.QuadraticLS(linops.DenseOp([[np.sqrt(2.0)]]), [0.0])
    assert bb_stepsize(f1, np.array([0.3]), np.array([-2.0])) == \
        pytest.approx(2.0, rel=1e-14)
    x = rng.standard_normal(6)
    assert bb_stepsize(f, x, x.copy()) is None


def test_solve_shifted_matches_dense_solve():
    rng = np.random.default_rng(4)
    n = 10
    A = linops.DenseOp(rng.standard_normal((14, n)))
    ws = inner.BlockWorkspace(A)
    G = A.to_dense().T @ A.to_dense()
    for delta in [1e-10, 1e-3, 1.0, 1e10]:
        for rho in [5e-4, 1.0]:
            rhs = rng.standard_normal(n)
            u = ws.solve_shifted(delta, rho, rhs)
            ue = np.linalg.solve(delta * np.eye(n) + rho * G, rhs)
            assert np.linalg.norm(u - ue) <= 1e-9 * np.linalg.norm(ue)
            res = rhs - (delta * u + rho * (G @ u))
            assert np.linalg.norm(res) <= 1e-11 * np.linalg.norm(rhs)
    # scaled identity shortcut
    wid = inner.BlockWorkspace(linops.ScaledIdentityOp(5, -2.0))
    rhs = rng.standard_normal(5)
    assert np.array_equal(wid.solve_shifted(0.5, 2.0, rhs), rhs / 8.5)
    assert wid.identity_multiple() == 4.0
    # stacked transform + differences route through the fast Gram basis
    st = linops.VStackOp([linops.HaarTransform(8, 8),
                          linops.DiffOperator(8, 8)])
    wst = inner.BlockWorkspace(st)
    assert wst.gram_basis() is not None
    Gs = st.to_dense().T @ st.to_dense()
    for delta in [1e-10, 0.3, 1e4]:
        rhs = rng.standard_normal(64)
        u = wst.solve_shifted(delta, 5e-4, rhs)
        ue = np.linalg.solve(delta * np.eye(64) + 5e-4 * Gs, rhs)
        assert np.linalg.norm(u - ue) <= 1e-10 * np.linalg.norm(ue)


def test_prox_linear_step_solves_linear_system():
    rng = np.random.default_rng(21)
    rows, n = 9, 7
    A = linops.DenseOp(rng.standard_normal((rows, n)))
    f = quad_smooth(rows, n, seed=22)
    p = problem.Problem([problem.Block(A, f, prox.ZeroProx())],
                        rng.standard_normal(rows))
    G = A.to_dense().T @ A.to_dense()
    for delta, rho in [(0.05, 0.9), (3.0, 5e-4), (1e-8, 1.0)]:
        v = rng.standard_normal(n)
        b_ik = rng.standard_normal(rows)
        lam = rng.standard_normal(rows)
        u = prox_linear_step(p, 0, v, delta, b_ik, lam, rho)
        c = b_ik - lam / rho
        rhs = delta * v - f.gradient(v) + rho * A.to_dense().T @ c
        ue = np.linalg.solve(delta * np.eye(n) + rho * G, rhs)
        assert np.linalg.norm(u - ue) <= 1e-10 * np.linalg.norm(ue)
        res = rhs - (delta * u + rho * (G @ u))
        assert np.linalg.norm(res) <= 1e-12 * np.linalg.norm(rhs)
    # identity block, unit parameters: (I + I) u = (2, 2) gives (1, 1)
    pid = problem.Problem(
        [problem.Block(linops.IdentityOp(2), prox.ZeroSmooth(),
                       prox.ZeroProx())], np.zeros(2))
    u = prox_linear_step(pid, 0, np.zeros(2), 1.0,
                         np.array([2.0, 2.0]), np.zeros(2), 1.0)
    assert np.array_equal(u, np.array([1.0, 1.0]))


def test_prox_linear_step_l1_identity_block():
    rng = np.random.default_rng(30)
    n = 40
    w = 0.37
    A = linops.NegIdentityOp(n)
    h = prox.ScaledL1(w)
    p = problem.Problem([problem.Block(A, prox.ZeroSmooth(), h)],
                        rng.standard_normal(n))
    delta, rho = 0.8, 1.3
    v = rng.standard_normal(n)
    b_ik = rng.standard_normal(n)
    lam = rng.standard_normal(n)
    u = prox_linear_step(p, 0, v, delta, b_ik, lam, rho)
    c = b_ik - lam / rho
    # explicit soft threshold of the gradient-shifted point
    t = 1.0 / (delta + rho)
    expect = prox.soft_threshold((delta * v - rho * c) * t, t * w)
    assert np.allclose(u, expect, rtol=0, atol=1e-14)
    # subgradient optimality: delta (u - v) + rho A^T (A u - c) in -w d|u|
    g = delta * (u - v) + rho * (u + c)
    on = np.abs(u) > 0
    assert np.max(np.abs(g[on] + w * np.sign(u[on]))) <= 1e-10
    assert np.max(np.abs(g[~on])) <= w + 1e-10


def test_prox_linear_step_beats_perturbations():
    rng = np.random.default_rng(40)
    rows, n = 8, 6
    A = linops.DenseOp(rng.standard_normal((rows, n)))
    f = quad_smooth(rows, n, seed=41)
    p = problem.Problem([problem.Block(A, f, prox.ZeroProx())],
                        rng.standard_normal(rows))
    delta, rho = 0.6, 0.9
    v = rng.standard_normal(n)
    b_ik = rng.standard_normal(rows)
    lam = rng.standard_normal(rows)
    u = prox_linear_step(p, 0, v, delta, b_ik, lam, rho)
    base = phi_i_k(p, 0, u, v, delta, b_ik, lam, rho)
    for trial in range(100):
        d = rng.standard_normal(n)
        eps = 10.0 ** rng.uniform(-6, -1)
        moved = phi_i_k(p, 0, u + eps * d, v, delta, b_ik, lam, rho)
        assert moved >= base - 1e-12


def test_prox_linear_step_unsupported_block():
    rng = np.random.default_rng(50)
    A = linops.DenseOp(rng.standard_normal((8, 5)))
    p = problem.Problem([problem.Block(A, prox.ZeroSmooth(),
                                       prox.ScaledL1(0.2))],
                        rng.standard_normal(8))
    with pytest.raises(UnsupportedSubproblem) as info:
        prox_linear_step(p, 0, np.zeros(5), 1.0,
                         rng.standard_normal(8), np.zeros(8), 1.0)
    assert info.value.block == 1


def test_generalized_step_outputs():
    f = quad_smooth(9, 7, seed=61)
    zeta = float(np.linalg.eigvalsh(f.F.to_dense().T @ f.F.to_dense())[-1])
    rng = np.random.default_rng(62)
    A = linops.DenseOp(rng.standard_normal((9, 7)))
    ctx, bst = one_block(A, f, prox.ZeroProx(), seed=63)
    x0 = bst.x.copy()
    res = inner.generalized_step(ctx, bst)
    d = res.x_next - x0
    dd = float(d @ d)
    assert res.inner_iters == 1
    assert res.r == pytest.approx(dd / res.delta_final, rel=1e-14)
    assert res.Gamma == pytest.approx(1.0 / res.delta_final, rel=1e-14)
    # z is x_next itself, so the trace objective can reuse f there
    assert res.z is res.x_next
    # accepted stepsize satisfies the descent condition with zero slack
    lhs = f.value(x0) + float(f.gradient(x0) @ d) \
        + 0.5 * (1.0 - ctx.ls.sigma) * res.delta_final * dd
    assert lhs >= f.value(res.x_next) - 1e-12
    assert ctx.ls.delta_min <= res.delta_final
    assert res.delta_final <= max(ctx.ls.eta * zeta / (1.0 - ctx.ls.sigma),
                                  ctx.ls.delta_max)


def test_generalized_zero_smooth_accepts_seed():
    ctx, bst = one_block(linops.IdentityOp(6), prox.ZeroSmooth(),
                         prox.ScaledL1(0.1), seed=70)
    res = inner.generalized_step(ctx, bst)
    assert res.delta_final == ctx.ls.delta_min
    # k > 1 with zero gradient gives a zero BB value, clamped back up
    ctx2, bst2 = one_block(linops.IdentityOp(6), prox.ZeroSmooth(),
                           prox.ScaledL1(0.1), k=2, seed=71)
    bst2.x_prev = bst2.x + 1.0
    bst2.delta_prev = ctx2.ls.delta_min
    res2 = inner.generalized_step(ctx2, bst2)
    assert res2.delta_final == ctx2.ls.delta_min


def test_generalized_delta_min_ratchet():
    rng = np.random.default_rng(80)
    f = quad_smooth(8, 6, seed=81)
    A = linops.DenseOp(rng.standard_normal((8, 6)))
    # huge slack makes the search accept the BB seed directly
    relax = inner.RelaxationParams(enabled=True)
    relax.eps0 = 1e12
    for prev_small in [True, False]:
        ctx, bst = one_block(A, f, prox.ZeroProx(), k=2, seed=82)
        ctx.relax = relax
        bst.x_prev = bst.x + rng.standard_normal(6)
        seed_val = bb_stepsize(f, bst.x, bst.x_prev)
        bst.delta_prev = seed_val / 10.0 if prev_small else seed_val * 10.0
        before = bst.delta_min
        res = inner.generalized_step(ctx, bst)
        assert res.delta_final == pytest.approx(seed_val, rel=1e-14)
        if prev_small:
            assert bst.delta_min == pytest.approx(before * ctx.ls.tau,
                                                  rel=1e-14)
        else:
            assert bst.delta_min == before


def test_generalized_accepts_first_trial_once_delta_min_large():
    rng = np.random.default_rng(90)
    f = quad_smooth(10, 6, seed=91)
    zeta = float(np.linalg.eigvalsh(f.F.to_dense().T @ f.F.to_dense())[-1])
    A = linops.DenseOp(rng.standard_normal((10, 6)))
    ctx, bst, p, b_ik, lam = block_and_inputs(A, f, prox.ZeroProx(), k=2,
                                              seed=92)
    bst.delta_min = 1.01 * zeta / (1.0 - ctx.ls.sigma)
    bst.x_prev = bst.x + rng.standard_normal(6)
    bst.delta_prev = bst.delta_min
    floor = bst.delta_min
    for k in range(2, 32):
        ctx = inner.InnerContext(p, 0, b_ik, lam, ctx.rho,
                                 ctx.ls, ctx.relax, k, ctx.workspace)
        x_old = bst.x
        res = inner.generalized_step(ctx, bst)
        assert res.delta_final == floor
        assert bst.delta_min == floor
        bst.x_prev = x_old
        bst.x = res.x_next
        bst.delta_prev = res.delta_final


def run_generalized(ls, n_iters, seed):
    f = quad_smooth(11, 8, seed=seed)
    zeta = float(np.linalg.eigvalsh(f.F.to_dense().T @ f.F.to_dense())[-1])
    rng = np.random.default_rng(seed + 1)
    A = linops.DenseOp(rng.standard_normal((11, 8)))
    ctx, bst, p, base, lam = block_and_inputs(A, f, prox.ZeroProx(), ls=ls,
                                              seed=seed + 2)
    deltas = []
    for k in range(1, n_iters + 1):
        # wander the coupling target the way an outer loop would, so the
        # subproblem never collapses to an exact float fixed point
        b_ik = base + 0.3 * rng.standard_normal(base.size)
        ctx = inner.InnerContext(p, 0, b_ik, lam, ctx.rho,
                                 ctx.ls, ctx.relax, k, ctx.workspace)
        x_old = bst.x
        res = inner.generalized_step(ctx, bst)
        deltas.append(res.delta_final)
        bst.x_prev = x_old
        bst.x = res.x_next
        bst.delta_prev = res.delta_final
    return np.array(deltas), zeta


def test_stepsize_bounds_hold_across_runs():
    for ls, seed in [(inner.LineSearchParams(), 100),
                     (inner.LineSearchParams(delta_max=1e-3), 200)]:
        deltas, zeta = run_generalized(ls, 500, seed)
        upper = max(ls.eta * zeta / (1.0 - ls.sigma), ls.delta_max)
        assert np.all(deltas >= ls.delta_min * (1.0 - 1e-15))
        assert np.all(deltas <= upper * (1.0 + 1e-15))


def test_line_search_diverged_on_cliff():
    # every caller of the shared line search reports the same failure
    for step in (inner.generalized_step,
                 lambda ctx, bst: inner.multistep_loop(ctx, bst, np.inf),
                 lambda ctx, bst: inner.accelerated_loop(ctx, bst, np.inf)):
        ctx, bst, p, _, _ = block_and_inputs(
            linops.IdentityOp(4), CliffSmooth(), prox.ZeroProx(), rho=1.0,
            seed=110)
        ctx = inner.InnerContext(p, 0, 0.5 * np.ones(4), np.zeros(4),
                                 ctx.rho, ctx.ls, ctx.relax, ctx.k)
        bst.x = np.zeros(4)
        with pytest.raises(LineSearchDiverged) as info:
            step(ctx, bst)
        assert info.value.block == 1
        assert info.value.trials == inner.LINE_SEARCH_CAP


def test_running_average_matches_batch():
    rng = np.random.default_rng(120)
    for trial in range(100):
        length = int(rng.integers(1, 60))
        deltas = 10.0 ** rng.uniform(-6, 6, size=length)
        us = rng.standard_normal((length, 5))
        avg = inner.RunningAverage(rng.standard_normal(5))
        for u, d in zip(us, deltas):
            avg.update(u, d)
        weights = 1.0 / deltas
        batch = (weights[:, None] * us).sum(axis=0) / weights.sum()
        assert np.max(np.abs(avg.a - batch)) <= 1e-12
        assert avg.gamma == pytest.approx(weights.sum(), rel=1e-12)


def test_multistep_record_consistency():
    rng = np.random.default_rng(130)
    f = quad_smooth(9, 7, seed=131)
    A = linops.DenseOp(rng.standard_normal((9, 7)))
    ctx, bst = one_block(A, f, prox.ZeroProx(), seed=132)
    probe = inner.multistep_loop(ctx, inner.BlockState(bst.x.copy(),
                                                       ctx.ls.delta_min),
                                 np.inf)
    bst.Gamma_prev = 6.5 * probe.Gamma
    record = []
    res = inner.multistep_loop(ctx, bst, np.inf, record=record)
    assert res.inner_iters == len(record) >= 3
    deltas = np.array([rec['delta'] for rec in record])
    us = np.array([rec['u'] for rec in record])
    weights = 1.0 / deltas
    batch = (weights[:, None] * us).sum(axis=0) / weights.sum()
    assert np.max(np.abs(res.z - batch)) <= 1e-12
    assert res.Gamma == pytest.approx(weights.sum(), rel=1e-12)
    chain = np.vstack([probe.x_next * 0 + bst.x, us])  # u^0 = x_i^k
    sumsq = float(((chain[1:] - chain[:-1]) ** 2).sum())
    assert res.r == pytest.approx(sumsq / res.Gamma, rel=1e-12)
    assert np.array_equal(res.x_next, record[-1]['u'])
    # strict gate: gamma first reaches Gamma_prev exactly at the exit
    gammas = np.array([rec['gamma'] for rec in record])
    assert gammas[-1] >= bst.Gamma_prev
    assert np.all(gammas[:-1] < bst.Gamma_prev)


def test_multistep_first_outer_matches_generalized():
    rng = np.random.default_rng(140)
    f = quad_smooth(8, 6, seed=141)
    A = linops.DenseOp(rng.standard_normal((8, 6)))
    ctx, bst = one_block(A, f, prox.ZeroProx(), seed=142)
    twin = inner.BlockState(bst.x.copy(), ctx.ls.delta_min)
    ms = inner.multistep_loop(ctx, bst, np.inf)
    gen = inner.generalized_step(ctx, twin)
    assert ms.inner_iters == 1
    assert np.array_equal(ms.x_next, gen.x_next)
    assert np.allclose(ms.z, gen.z, rtol=0, atol=1e-13)
    assert ms.delta_final == gen.delta_final


def test_multistep_relaxed_l_gate_bumps_delta_min():
    rng = np.random.default_rng(150)
    f = quad_smooth(8, 6, seed=151)
    A = linops.DenseOp(rng.standard_normal((8, 6)))
    ctx, bst = one_block(A, f, prox.ZeroProx(), relaxed=True, seed=152)
    bst.Gamma_prev = 1e12
    bst.l_prev = 4
    before = bst.delta_min
    res = inner.multistep_loop(ctx, bst, np.inf)
    assert res.inner_iters == 4
    assert res.Gamma < bst.Gamma_prev
    assert bst.delta_min == pytest.approx(before * ctx.ls.tau, rel=1e-14)


def test_multistep_inner_cap():
    rng = np.random.default_rng(160)
    f = quad_smooth(8, 6, seed=161)
    A = linops.DenseOp(rng.standard_normal((8, 6)))
    ctx, bst = one_block(A, f, prox.ZeroProx(), seed=162)
    with pytest.raises(InnerIterationCap) as info:
        inner.multistep_loop(ctx, bst, -1.0, inner_cap=7)
    assert info.value.block == 1
    assert info.value.cap == 7
    bst2 = inner.BlockState(bst.x.copy(), ctx.ls.delta_min)
    res = inner.multistep_loop(ctx, bst2, -1.0, inner_cap=7, cap_error=False)
    assert res.inner_iters == 7


def test_inner_cap_below_one_is_rejected():
    # a cap below 1 ended in UnboundLocalError on gamma, or in "inner loop
    # hit cap 0" before any step
    rng = np.random.default_rng(165)
    f = quad_smooth(8, 6, seed=166)
    A = linops.DenseOp(rng.standard_normal((8, 6)))
    ctx, bst = one_block(A, f, prox.ZeroProx(), seed=167)
    for loop in (inner.multistep_loop, inner.accelerated_loop):
        for cap in (0, -3):
            for cap_error in (True, False):
                with pytest.raises(ValueError, match='inner_cap'):
                    loop(ctx, bst, np.inf, inner_cap=cap,
                         cap_error=cap_error)


def accel_record(ls, n_inner, seed, schedule='adaptive', lipschitz=None):
    f = quad_smooth(10, 7, seed=seed, lipschitz=lipschitz)
    rng = np.random.default_rng(seed + 1)
    A = linops.DenseOp(rng.standard_normal((10, 7)))
    ctx, bst = one_block(A, f, prox.ZeroProx(), ls=ls, seed=seed + 2)
    record = []
    inner.accelerated_loop(ctx, bst, -1.0, schedule=schedule, record=record,
                           inner_cap=n_inner, cap_error=False)
    zeta = float(np.linalg.eigvalsh(f.F.to_dense().T @ f.F.to_dense())[-1])
    return record, zeta, ctx


def test_bregman_gap_is_the_value_gap():
    # f(v) - f(u) - <grad f(u), v - u> = 0.5 <v - u, grad f(v) - grad f(u)>
    # for a quadratic, at random points and scales
    rng = np.random.default_rng(7)
    f = quad_smooth(12, 7, seed=8)
    for scale in (1e-3, 1.0, 1e3):
        u = rng.standard_normal(7)
        v = u + scale * rng.standard_normal(7)
        gu, gv = f.gradient(u), f.gradient(v)
        want = f.value(v) - f.value(u) - float(gu @ (v - u))
        got = inner._gap(v - u, gu, gv)
        assert got > 0.0
        assert abs(got - want) <= 1e-12 * (f.value(u) + f.value(v))


def test_wide_part_applies_f_once_per_point(monkeypatch):
    # a 7x12 F has no normal form: its line searches take f values, and
    # each point costs one F apply; without the residual hook every value
    # and gradient applies F
    f = quad_smooth(7, 12, seed=9)
    assert f.normal is None
    # delta0 at the Lipschitz constant, so most steps accept their first
    # trial
    ls = inner.LineSearchParams(delta_min=f.lipschitz)
    applies, points = [], []
    apply = linops.DenseOp.apply

    def counting_apply(op, v):
        if op is f.F:
            applies.append(1)
        return apply(op, v)

    def recording(orig):
        def record(f, x, *r):
            points.append(x)    # kept alive, so ids stay distinct
            return orig(f, x, *r)
        return record

    monkeypatch.setattr(linops.DenseOp, 'apply', counting_apply)
    for method in ('value', 'gradient'):
        monkeypatch.setattr(prox.QuadraticLS, method,
                            recording(getattr(prox.QuadraticLS, method)))

    def run():
        applies.clear()
        points.clear()
        ctx, bst = one_block(linops.IdentityOp(12), f, prox.ZeroProx(),
                             relaxed=True, ls=ls, seed=10)
        res = inner.multistep_loop(ctx, bst, -1.0, inner_cap=200,
                                   cap_error=False)
        assert res.inner_iters == 200

    run()
    distinct = len({id(x) for x in points})
    assert len(applies) == distinct > 200
    monkeypatch.setattr(prox.QuadraticLS, 'residual', None)
    run()
    assert len(applies) == len(points) > 1.9 * distinct


def test_accelerated_adaptive_identities():
    for ls, seed in [(inner.LineSearchParams(), 170),
                     (inner.LineSearchParams(delta_max=50.0), 180)]:
        record, zeta, ctx = accel_record(ls, 160, seed)
        assert len(record) == 160
        gammas = np.array([rec['gamma'] for rec in record])
        theta = (1.0 - ls.sigma) / (ls.eta * zeta
                                    + (1.0 - ls.sigma) * ls.delta_max)
        for rec in record:
            xi = rec['delta'] * rec['alpha'] * rec['gamma']
            assert abs(xi - 1.0) <= 1e-12
            assert rec['gamma'] * rec['alpha'] ** 2 >= theta * (1.0 - 1e-12)
        ls_l = np.arange(1, len(record) + 1)
        assert np.all(gammas >= theta * ls_l ** 2 / 4.0 * (1.0 - 1e-12))
        assert np.all(np.diff(gammas) > 0)
        # the delta/alpha ratio obeys the generalized stepsize bounds
        ratios = np.array([rec['delta'] / rec['alpha'] for rec in record])
        upper = max(ls.eta * zeta / (1.0 - ls.sigma), ls.delta_max)
        assert np.all(ratios >= ls.delta_min * (1.0 - 1e-12))
        assert np.all(ratios <= upper * (1.0 + 1e-12))
        # the average is a convex combination of the inner iterates
        weights = np.array([rec['alpha'] * rec['gamma'] for rec in record])
        weights /= gammas[-1]
        assert abs(weights.sum() - 1.0) <= 1e-12
        us = np.array([rec['u'] for rec in record])
        recon = (weights[:, None] * us).sum(axis=0)
        assert np.max(np.abs(recon - record[-1]['z'])) <= 1e-10


def test_accelerated_constant_schedule():
    zeta_probe = quad_smooth(10, 7, seed=190).lipschitz
    ls = inner.LineSearchParams()
    record, zeta, ctx = accel_record(ls, 60, 190, schedule='constant',
                                     lipschitz=zeta_probe)
    delta1 = record[0]['delta']
    assert delta1 == pytest.approx(2.0 * zeta_probe / (1.0 - ls.sigma),
                                   rel=1e-15)
    assert record[0]['alpha'] == 1.0
    for l, rec in enumerate(record, start=1):
        assert abs(rec['gamma'] - l * (l + 1.0) / (2.0 * delta1)) <= \
            1e-12 * rec['gamma']
        assert abs(rec['delta'] * rec['alpha'] * rec['gamma'] - 1.0) <= 1e-12
        assert rec['gamma'] * rec['alpha'] ** 2 >= \
            (1.0 - 1e-12) / delta1


def test_accelerated_first_step_is_prox_linear_for_zero_smooth():
    ctx, bst, p, b_ik, lam = block_and_inputs(
        linops.IdentityOp(5), prox.ZeroSmooth(), prox.ZeroProx(), seed=200)
    x0 = bst.x.copy()
    res = inner.accelerated_loop(ctx, bst, np.inf)
    assert res.inner_iters == 1
    direct = prox_linear_step(p, 0, x0, ctx.ls.delta_min, b_ik, lam,
                              ctx.rho)
    assert np.allclose(res.x_next, direct, rtol=0, atol=1e-14)


def test_accelerated_missing_lipschitz():
    rng = np.random.default_rng(210)
    B = rng.standard_normal((6, 6))
    f = PlainSmooth(B.T @ B)
    A = linops.DenseOp(rng.standard_normal((9, 6)))
    p = problem.Problem([problem.Block(A, f, prox.ZeroProx())],
                        rng.standard_normal(9))
    ls = inner.LineSearchParams()
    ctx = inner.InnerContext(p, 0, rng.standard_normal(9),
                             rng.standard_normal(9), 1.0, ls,
                             inner.RelaxationParams(enabled=False), 1)
    bst = inner.BlockState(rng.standard_normal(6), ls.delta_min)
    with pytest.raises(MissingLipschitz):
        inner.accelerated_loop(ctx, bst, np.inf, schedule='constant')
    res = inner.accelerated_loop(ctx, bst, np.inf, schedule='adaptive')
    assert res.inner_iters >= 1
    with pytest.raises(ValueError):
        inner.accelerated_loop(ctx, bst, np.inf, schedule='fastest')


def blur5_smooth(size, seed):
    """Least squares through a 5x5 blur: F^T F has no structured Gram
    value, so the exact scheme reaches CG."""
    rng = np.random.default_rng(seed)
    return prox.QuadraticLS(linops.BlurOperator.uniform(size, size, 5),
                            rng.standard_normal(size * size))


def test_exact_cg_matches_dense_solve():
    rng = np.random.default_rng(220)
    n = 36
    A = linops.DenseOp(rng.standard_normal((40, n)))
    f = blur5_smooth(6, seed=221)
    ctx, bst, _, b_ik, lam = block_and_inputs(A, f, prox.ZeroProx(), rho=0.8,
                                              seed=222)
    assert ctx.workspace.system(f, 0.8)[0] is None
    res = inner.exact_block_solve(ctx, bst, cg_tol=1e-12)
    G = A.to_dense().T @ A.to_dense()
    Hf = f.F.to_dense().T @ f.F.to_dense()
    c = b_ik - lam / 0.8
    rhs = 0.8 * A.to_dense().T @ c + f.F.to_dense().T @ f.data
    ue = np.linalg.solve(Hf + 0.8 * G, rhs)
    assert np.linalg.norm(res.x_next - ue) <= 1e-8 * np.linalg.norm(ue)
    assert res.r == 0.0
    assert np.isinf(res.Gamma)
    assert np.isnan(res.delta_final)
    assert res.inner_iters > 1
    assert np.array_equal(res.z, res.x_next)


def test_context_defaults_run_every_scheme():
    # ls and relax default as in OuterParams
    p = bench.make_lasso(bench.LassoConfig(n=20, d=30, seed=0))
    rng = np.random.default_rng(5)
    b_ik, lam = rng.standard_normal(p.rows), rng.standard_normal(p.rows)
    ctx = inner.InnerContext(p, 0, b_ik, lam, 1.0)
    assert ctx.ls.delta_min == inner.LineSearchParams().delta_min
    assert ctx.relax.enabled == inner.RelaxationParams().enabled
    runs = [lambda bst: inner.generalized_step(ctx, bst),
            lambda bst: inner.multistep_loop(ctx, bst, 1e-3),
            lambda bst: inner.accelerated_loop(ctx, bst, 1e-3),
            lambda bst: inner.exact_block_solve(ctx, bst)]
    for run in runs:
        res = run(inner.BlockState(np.zeros(p.dims[0]), ctx.ls.delta_min))
        assert res.inner_iters >= 1 and np.all(np.isfinite(res.z))


def dense_exact_system(p, i, rho, c):
    """(H_f + rho A^T A, rho A^T c + F^T data) of block i, materialized."""
    blk = p.blocks[i]
    A, F = blk.A.to_dense(), blk.f.F.to_dense()
    return F.T @ F + rho * A.T @ A, rho * A.T @ c + F.T @ blk.f.data


@pytest.mark.parametrize('make, rho', [
    (lambda: bench.make_lasso(bench.LassoConfig(n=300, d=400, seed=0)), 1.0),
    (lambda: bench.make_deblur(bench.DeblurConfig(size=8)), 5e-4)],
    ids=['lasso', 'deblur8'])
def test_exact_direct_solve_matches_dense_solve(make, rho):
    p = make()
    rng = np.random.default_rng(260)
    b_ik = rng.standard_normal(p.rows)
    lam = rng.standard_normal(p.rows)
    ctx = inner.InnerContext(p, 0, b_ik, lam, rho)
    bst = inner.BlockState(np.zeros(p.dims[0]), 1e-10)
    res = inner.exact_block_solve(ctx, bst)
    K, rhs = dense_exact_system(p, 0, rho, b_ik - lam / rho)
    ue = np.linalg.solve(K, rhs)
    assert np.linalg.norm(res.x_next - ue) <= 1e-10 * np.linalg.norm(ue)
    assert res.inner_iters == 1 and res.z is res.x_next


def test_exact_lasso_solve_takes_f_from_the_optimality_condition(
        monkeypatch):
    # after the first iteration builds the system, the direct branch gives
    # the memo grad f(u) = rho A^T (c - A u), so no iteration evaluates the
    # gradient or applies H = F^T F; the trace objective still equals Phi(z)
    p = bench.make_lasso(bench.LassoConfig(n=50, d=75, seed=1))
    f = p.blocks[0].f
    H = f.normal[0]
    calls = {'gradient': 0, 'H': 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(prox.QuadraticLS, 'gradient',
                        counted('gradient', prox.QuadraticLS.gradient))
    monkeypatch.setattr(H, 'apply', counted('H', H.apply))
    seen = []

    def cb(s, rec):
        seen.append(dict(calls))
        want = problem.objective(p, s.z)
        assert abs(rec.objective - want) <= 1e-12 * abs(want)

    res = outer.solve(p, outer.OuterParams(rho=1.0, scheme='exact'),
                      callbacks=[cb])
    assert res.converged and res.iterations > 10
    assert seen[0] == {'gradient': 1, 'H': 1}
    assert all(c == seen[0] for c in seen)


def test_exact_cg_fallback_never_materializes_the_blur(monkeypatch):
    p = bench.make_deblur(bench.DeblurConfig(size=8, blur_size=5))

    def refuse(op):
        raise AssertionError("BlurOperator.to_dense called")

    monkeypatch.setattr(linops.BlurOperator, 'to_dense', refuse)
    res = outer.solve(p, outer.OuterParams(rho=5e-4, scheme='exact',
                                           stop_tol=1e-3,
                                           max_outer_iters=3000))
    assert res.converged
    # the blur block runs CG; the prox blocks take one step each
    assert res.trace[0].inner_iters[0] > 1


@pytest.mark.parametrize('make, rho, stop_tol', [
    (lambda: bench.make_lasso(bench.LassoConfig(seed=0)), 1.0, None),
    (lambda: bench.make_deblur(bench.DeblurConfig(size=8)), 5e-4, 1e-3)],
    ids=['lasso', 'deblur8'])
def test_exact_scheme_takes_no_hessian_action(monkeypatch, make, rho,
                                              stop_tol):
    p = make()
    calls = []
    hess_apply = prox.QuadraticLS.hess_apply

    def counting(f, v):
        calls.append(1)
        return hess_apply(f, v)

    monkeypatch.setattr(prox.QuadraticLS, 'hess_apply', counting)
    res = outer.solve(p, outer.OuterParams(rho=rho, scheme='exact',
                                           stop_tol=stop_tol,
                                           max_outer_iters=3000))
    assert res.converged
    assert calls == []
    assert all(rec.inner_iters == [1] * p.m for rec in res.trace)


def test_exact_singular_system_falls_back_to_cg():
    # A and F share a null vector, so H_f + rho A^T A has no factor
    rng = np.random.default_rng(270)
    A = rng.standard_normal((8, 5))
    F = rng.standard_normal((6, 5))
    A[:, 2] = F[:, 2] = 0.0
    f = prox.QuadraticLS(linops.DenseOp(F), rng.standard_normal(6))
    p = problem.Problem([problem.Block(linops.DenseOp(A), f, prox.ZeroProx()),
                         problem.Block(linops.NegIdentityOp(8),
                                       prox.ZeroSmooth(), prox.ScaledL1(0.1))],
                        np.zeros(8))
    res = outer.solve(p, outer.OuterParams(rho=1.0, scheme='exact',
                                           max_outer_iters=2000))
    assert res.converged and res.trace[0].inner_iters[0] > 1


def test_exact_tv_denoising_is_solved_directly():
    # F = I has the Gram value I, and I + rho D^T D is definite although
    # D^T D is singular (constants lie in its null space): one direct solve
    # per block and iteration, and no CG
    d = np.random.default_rng(0).standard_normal(50)
    p = problem.Problem([
        problem.Block(linops.DiffOperator(5, 10),
                      prox.QuadraticLS(linops.IdentityOp(50), d),
                      prox.ZeroProx()),
        problem.Block(linops.NegIdentityOp(100), prox.ZeroSmooth(),
                      prox.ScaledL1(0.1))], np.zeros(100))
    exact, gen = (outer.solve(p, outer.OuterParams(rho=1.0, scheme=scheme))
                  for scheme in ('exact', 'generalized'))
    assert exact.converged and gen.converged
    assert all(rec.inner_iters == [1, 1] for rec in exact.trace)
    assert exact.final_objective == pytest.approx(gen.final_objective,
                                                  rel=1e-8)


def test_exact_prox_path_sign_conditions():
    rng = np.random.default_rng(230)
    n = 30
    w = 0.25
    ctx, bst, _, b_ik, lam = block_and_inputs(
        linops.NegIdentityOp(n), prox.ZeroSmooth(), prox.ScaledL1(w), rho=1.7,
        seed=231)
    res = inner.exact_block_solve(ctx, bst)
    u = res.x_next
    g = 1.7 * (u + b_ik - lam / 1.7)  # rho A^T (A u - c) for A = -I
    on = np.abs(u) > 0
    assert np.max(np.abs(g[on] + w * np.sign(u[on]))) <= 1e-10
    assert np.max(np.abs(g[~on])) <= w + 1e-10
    assert res.r == 0.0 and np.isinf(res.Gamma)


def test_exact_unsupported_blocks():
    rng = np.random.default_rng(240)
    A = linops.DenseOp(rng.standard_normal((8, 5)))
    # nonsmooth part with a general Gram
    ctx, bst = one_block(A, prox.ZeroSmooth(), prox.ScaledL1(0.1), seed=241)
    with pytest.raises(UnsupportedSubproblem):
        inner.exact_block_solve(ctx, bst)
    # f without a Hessian action on the CG path
    B = rng.standard_normal((5, 5))
    ctx2, bst2 = one_block(A, PlainSmooth(B.T @ B), prox.ZeroProx(),
                           seed=242)
    with pytest.raises(UnsupportedSubproblem):
        inner.exact_block_solve(ctx2, bst2)
    # nonzero smooth part on the prox path
    f = quad_smooth(6, 6, seed=243)
    ctx3, bst3 = one_block(linops.IdentityOp(6), f, prox.ScaledL1(0.1),
                           seed=244)
    with pytest.raises(UnsupportedSubproblem):
        inner.exact_block_solve(ctx3, bst3)


def test_exact_cg_iteration_cap(monkeypatch):
    rng = np.random.default_rng(250)
    A = linops.DenseOp(rng.standard_normal((70, 64)))
    f = blur5_smooth(8, seed=251)
    ctx, bst = one_block(A, f, prox.ZeroProx(), seed=252)
    monkeypatch.setattr(inner, 'CG_MAXIT', 2)
    with pytest.raises(CGNotConverged) as info:
        inner.exact_block_solve(ctx, bst, cg_tol=1e-16)
    assert info.value.maxit == 2
