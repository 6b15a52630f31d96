"""Outer loop tests: sweep order, error measure, correction, traces."""

import copy
import csv
import json
import os
import subprocess
import sys
import types

import numpy as np
import pytest

from bosvs import bench, inner, linops, outer, problem, prox
from bosvs.errors import (DimensionMismatch, InnerIterationCap,
                          MaxItersReached,
                          MissingReference, NegativeR)
from reference_forms import b_i_k


def lasso_like(seed, n1=6, rows=5, weight=0.15, m=2):
    """Dense data block coupled to signed-identity regularizer blocks."""
    rng = np.random.default_rng(seed)
    F = linops.DenseOp(rng.standard_normal((rows + 2, n1)))
    data = rng.standard_normal(rows + 2)
    blocks = [problem.Block(linops.DenseOp(rng.standard_normal((rows, n1))),
                            prox.QuadraticLS(F, data), prox.ZeroProx()),
              problem.Block(linops.ScaledIdentityOp(rows, 1.3),
                            prox.ZeroSmooth(), prox.ScaledL1(weight))]
    if m == 3:
        blocks.append(problem.Block(linops.ScaledIdentityOp(rows, -0.7),
                                    prox.ZeroSmooth(), prox.ScaledL1(0.05)))
    return problem.Problem(blocks, rng.standard_normal(rows))


def test_default_thetas_and_psi():
    t1, t2, t3 = outer.default_thetas(rho=4.0, sigma=1e-5, alpha=0.999)
    assert t1 == pytest.approx(2e-6, rel=1e-14)
    assert t2 == pytest.approx(2.0, rel=1e-14)
    assert t3 == pytest.approx(1e-6 * np.sqrt(1e-5 / 0.001), rel=1e-14)
    # the power branch takes over only for very small arguments
    assert outer.psi_multistep(0.5) == pytest.approx(0.05, rel=1e-14)
    assert outer.psi_multistep(1e-12) == pytest.approx(1e-12 ** 1.1,
                                                       rel=1e-12)
    assert outer.psi_accelerated(0.3) == pytest.approx(0.15, rel=1e-14)


def test_default_thetas_keep_the_numpy_square_roots_bitwise():
    for rho in (1e-12, 5e-4, 0.8, 1.0, 3.0, 7.5e6):
        got = outer.default_thetas(rho, 1e-5, outer.ALPHA)
        assert got == (1e-6 * np.sqrt(rho), np.sqrt(rho),
                       1e-6 * np.sqrt(1e-5 / (1.0 - outer.ALPHA)))


def test_outer_params_validation():
    for rho in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError):
            outer.OuterParams(rho=rho)
    for stop_tol in (-1.0, -1e-300, np.nan):
        with pytest.raises(ValueError):
            outer.OuterParams(rho=1.0, stop_tol=stop_tol)
    for stop_tol in (None, 0.0, 1e-8, np.inf):
        assert outer.OuterParams(rho=1.0, stop_tol=stop_tol).stop_tol \
            is stop_tol
    for cg_tol in (0.0, -1e-6, np.nan, np.inf):
        with pytest.raises(ValueError):
            outer.OuterParams(rho=1.0, scheme='exact', cg_tol=cg_tol)
    for cg_tol in (1e-12, 1e-14):      # the values acceptance runs pass
        assert outer.OuterParams(rho=1.0, cg_tol=cg_tol).cg_tol == cg_tol
    with pytest.raises(ValueError):
        outer.OuterParams(rho=1.0, scheme='fastest')
    with pytest.raises(ValueError):
        outer.OuterParams(rho=1.0, scheme=['generalized', 'exact'])
    for scheme in ('accelerated', 'generalized'):
        with pytest.raises(ValueError):
            outer.OuterParams(rho=1.0, scheme=scheme, accel_schedule='bogus')


def test_error_measure_formula():
    rng = np.random.default_rng(7)
    p = lasso_like(8)
    theta = (0.3, 1.7, 0.01)
    z = rng.standard_normal(p.n)
    y = rng.standard_normal(p.n)
    r = [0.2, 0.05]
    off1 = p.slices[0].stop
    expect = 0.3 * np.linalg.norm(z[off1:] - y[off1:]) \
        + 1.7 * np.linalg.norm(p.apply_A(z) - p.b) \
        + 0.01 * np.sqrt(0.25)
    pv = p.apply_A(z) - p.b
    got = outer.error_measure(theta, z, y, r, p, np.linalg.norm(pv))
    assert got == pytest.approx(expect, rel=1e-14)
    # the consensus term ignores block 1
    z2 = z.copy()
    z2[:off1] += 5.0
    pv2 = p.apply_A(z2) - p.b
    e2 = outer.error_measure(theta, z2, y, r, p, np.linalg.norm(pv2))
    expect2 = 0.3 * np.linalg.norm(z2[off1:] - y[off1:]) \
        + 1.7 * np.linalg.norm(pv2) + 0.01 * np.sqrt(0.25)
    assert e2 == pytest.approx(expect2, rel=1e-14)
    with pytest.raises(NegativeR):
        outer.error_measure(theta, z, y, [0.1, -1e-12], p, np.linalg.norm(pv))
    with pytest.raises(DimensionMismatch):
        outer.error_measure(theta, z, y, [0.1], p, np.linalg.norm(pv))


def test_error_measure_checks_each_inexactness_term():
    p = lasso_like(8)
    rng = np.random.default_rng(9)
    z, y = rng.standard_normal(p.n), rng.standard_normal(p.n)
    pv = p.apply_A(z) - p.b
    theta = (0.3, 1.7, 0.01)
    # a NaN beside a negative term does not hide it, in either order
    for r in ([np.nan, -1e-12], [-1e-12, np.nan]):
        with pytest.raises(NegativeR):
            outer.error_measure(theta, z, y, r, p, np.linalg.norm(pv))
    # a negative zero is not negative; the consensus norm is np.linalg.norm's
    off1 = p.slices[0].stop
    expect = 0.3 * np.linalg.norm(z[off1:] - y[off1:]) \
        + 1.7 * np.linalg.norm(pv) + 0.01 * np.sqrt(0.0)
    assert outer.error_measure(theta, z, y, [0.0, -0.0], p,
                               np.linalg.norm(pv)) == expect
    for r in ([], [0.1, 0.2, 0.3]):
        with pytest.raises(DimensionMismatch):
            outer.error_measure(theta, z, y, r, p, np.linalg.norm(pv))


def test_outer_step_matches_hand_sweep():
    p = lasso_like(21, m=3)
    params = outer.OuterParams(rho=0.8, scheme='generalized')
    bs = linops.assemble_back_sub([blk.A for blk in p.blocks[1:]])
    workspaces = [inner.BlockWorkspace(blk.A) for blk in p.blocks]
    s = outer.OuterState(p, params)
    lam0 = s.lam.copy()
    y0 = s.y.copy()
    x0 = s.x.copy()
    s, rec = outer.outer_step(p, s, params, bs, workspaces)

    # replay the sweep by hand with fresh per-block state
    z = np.zeros(p.n)
    results = []
    for i in range(p.m):
        b_ik = b_i_k(p, i, z, y0)
        ctx = inner.InnerContext(p, i, b_ik, lam0, params.rho, params.ls,
                                 params.relax, 1)
        bst = inner.BlockState(x0[p.slices[i]].copy(),
                               params.ls.delta_min)
        res = inner.generalized_step(ctx, bst)
        z[p.slices[i]] = res.z
        results.append(res)
    primal = p.apply_A(z) - p.b
    e = outer.error_measure(
        outer.default_thetas(params.rho, params.ls.sigma, outer.ALPHA), z, y0,
        [r.r for r in results], p, np.linalg.norm(primal))
    off1 = p.slices[0].stop
    y_expect = np.concatenate(
        [z[:off1], linops.back_substitute(bs, y0[off1:], z[off1:],
                                          outer.ALPHA)])
    lam_expect = lam0 + outer.ALPHA * params.rho * primal

    assert np.array_equal(s.z, z)
    assert np.array_equal(s.y, y_expect)
    assert np.array_equal(s.lam, lam_expect)
    assert np.array_equal(s.x, np.concatenate([r.x_next for r in results]))
    assert rec.k == 1 and s.k == 2
    assert rec.e_k == e and s.e_prev == e
    assert rec.objective == problem.objective(p, z)
    assert rec.primal_res == np.linalg.norm(primal)
    assert rec.E_k is None
    assert rec.inner_iters == [1, 1, 1]
    assert rec.deltas == [r.delta_final for r in results]
    assert rec.gammas == [r.Gamma for r in results]
    for i, res in enumerate(results):
        bst = s.bstates[i]
        assert np.array_equal(bst.x_prev, x0[p.slices[i]])
        assert bst.delta_prev == res.delta_final
        assert bst.Gamma_prev == res.Gamma
        assert bst.l_prev == res.inner_iters


def test_outer_step_applies_each_block_operator_once_per_iterate(
        monkeypatch):
    p = bench.make_deblur(bench.DeblurConfig(size=8))
    params = outer.OuterParams(rho=5e-4, scheme='generalized')
    bs = linops.assemble_back_sub([blk.A for blk in p.blocks[1:]])
    s = outer.OuterState(p, params)
    s.y = np.random.default_rng(5).standard_normal(p.n)
    y0 = s.y.copy()
    applies = []

    def counted(i, apply):
        def wrapper(x):
            applies.append(i)
            return apply(x)
        return wrapper

    for i, blk in enumerate(p.blocks):
        blk.A.apply = counted(i, blk.A.apply)
    seen = []
    sweep_b_i_k = outer.b_i_k

    def recording_b_i_k(b, prods, i):
        seen.append((i, sweep_b_i_k(b, prods, i)))
        return seen[-1][1]

    monkeypatch.setattr(outer, 'b_i_k', recording_b_i_k)
    s, _ = outer.outer_step(p, s, params, bs)
    # A_2 y_2, A_3 y_3, then A_i z_i once per block: 2m - 1 applies
    assert sorted(applies) == [0, 1, 1, 2, 2]
    assert [i for i, _ in seen] == [0, 1, 2]
    for i, b_ik in seen:
        assert b_ik.tobytes() == b_i_k(p, i, s.z, y0).tobytes()


def test_solve_builds_each_self_gram_once(monkeypatch):
    p = bench.make_deblur(bench.DeblurConfig(size=8))
    own = [blk.A for blk in p.blocks]
    calls = []
    gram = linops.gram

    def recording_gram(a, b):
        if a is b and any(a is op for op in own):
            calls.append(a)
        return gram(a, b)

    monkeypatch.setattr(linops, 'gram', recording_gram)
    outer.solve(p, outer.OuterParams(rho=5e-4, scheme='generalized',
                                     max_outer_iters=1),
                raise_on_maxiter=False)
    assert len(calls) == 3
    assert all(any(c is op for c in calls) for op in own)


WIDE_LASSO = bench.LassoConfig(n=150, d=100, seed=0)   # F 100x150


def test_bb_seed_reuses_the_previous_gradient(monkeypatch):
    # one gradient per distinct point: the BB seed at x^k reuses the one
    # taken at x^k and x^{k-1}. Without a normal form (wide F) that is one
    # per inner iteration, the BB seed sharing the first inner step's; with
    # one (tall F) every line-search trial takes one at its candidate, the
    # next step starts from the accepted one, and the trace objective takes
    # one at a multistep average that is no trial point
    calls, trials = [], []
    gradient = prox.QuadraticLS.gradient
    argmin = inner._composite_argmin

    def counting_gradient(f, x, *r):
        calls.append(x.tobytes())
        return gradient(f, x, *r)

    def counting_argmin(ctx, *args):
        trials.append(ctx.i)
        return argmin(ctx, *args)

    monkeypatch.setattr(prox.QuadraticLS, 'gradient', counting_gradient)
    monkeypatch.setattr(inner, '_composite_argmin', counting_argmin)
    for cfg in (bench.LassoConfig(seed=0), WIDE_LASSO):
        p = bench.make_lasso(cfg)
        for scheme in ('generalized', 'multistep'):
            calls.clear()
            trials.clear()
            res = outer.solve(p, outer.OuterParams(rho=1.0, scheme=scheme))
            assert res.iterations > 10
            assert len(calls) == len(set(calls))
            if p.blocks[0].f.normal is None:
                assert len(calls) == sum(rec.inner_iters[0]
                                         for rec in res.trace)
            else:   # plus the gradient at x^1
                averages = sum(rec.inner_iters[0] > 1 for rec in res.trace) \
                    if scheme == 'multistep' else 0
                assert len(calls) == trials.count(0) + 1 + averages


def repeated_points(monkeypatch, method, solve):
    """Calls of QuadraticLS.<method> at a point it already saw, outside
    the trace's f_i(z_i), while solve() runs."""
    seen = []
    in_trace = []
    orig = getattr(prox.QuadraticLS, method)
    value = inner.BlockState.value

    def counting(f, x, *r):
        if not in_trace:
            seen.append(x.tobytes())
        return orig(f, x, *r)

    def flagged_value(bst, f, u):
        # outer_step takes the trace's f_i(z_i) through the block state
        if sys._getframe(1).f_code is not outer.outer_step.__code__:
            return value(bst, f, u)
        in_trace.append(True)
        try:
            return value(bst, f, u)
        finally:
            in_trace.pop()

    monkeypatch.setattr(prox.QuadraticLS, method, counting)
    monkeypatch.setattr(inner.BlockState, 'value', flagged_value)
    res = solve()
    assert res.iterations > 10
    return len(seen) - len(set(seen))


def test_accelerated_first_step_reuses_the_gradient_at_x(monkeypatch):
    # with gamma = 0 the first step's abar is x^k, whose gradient the BB
    # seed has just taken
    p = bench.make_lasso(bench.LassoConfig(n=300, d=400, seed=0))
    for schedule in ('adaptive', 'constant'):
        params = outer.OuterParams(rho=1.0, scheme='accelerated',
                                   accel_schedule=schedule)
        assert repeated_points(monkeypatch, 'gradient',
                               lambda: outer.solve(p, params)) == 0


def test_steps_reuse_f_at_the_accepted_point(monkeypatch):
    # the previous line search took f at x^k; the next step starts there.
    # Only a part without a normal form (wide F) takes f in a line search
    for cfg in (bench.LassoConfig(n=300, d=400, seed=0), WIDE_LASSO):
        p = bench.make_lasso(cfg)
        for scheme in ('generalized', 'multistep'):
            params = outer.OuterParams(rho=1.0, scheme=scheme)
            assert repeated_points(monkeypatch, 'value',
                                   lambda: outer.solve(p, params)) == 0, \
                scheme


@pytest.mark.parametrize('scheme', ['generalized', 'accelerated'])
def test_trace_objective_reuses_the_line_search_f(monkeypatch, scheme):
    # without a normal form (wide F) the generalized step and the adaptive
    # accelerated line search took f at their z; taking it again in the
    # trace objective would cost one value call per iteration. With one
    # (tall F) no f value is taken at all: the trace objective comes from
    # the memoized gradient, within 1e-13 of the value it replaces
    params = outer.OuterParams(rho=1.0, scheme=scheme)
    calls = []
    value = prox.QuadraticLS.value
    objective = outer.objective

    def counting(f, x, *r):
        calls.append(1)
        return value(f, x, *r)

    monkeypatch.setattr(prox.QuadraticLS, 'value', counting)
    for cfg in (bench.LassoConfig(seed=0), WIDE_LASSO):
        p = bench.make_lasso(cfg)
        runs = []
        with monkeypatch.context() as m:
            for known in (True, False):
                if not known:
                    m.setattr(outer, 'objective',
                              lambda p, z, *_: objective(p, z))
                calls.clear()
                res = outer.solve(p, params)
                runs.append((len(calls),
                             [(r.objective, r.e_k) for r in res.trace]))
        (reused, trace), (taken, trace_taken) = runs
        assert taken - reused == len(trace) > 10
        if p.blocks[0].f.normal is None:
            assert trace == trace_taken
        else:
            assert reused == 0
            assert [e for _, e in trace] == [e for _, e in trace_taken]
            for (obj, _), (want, _) in zip(trace, trace_taken):
                assert abs(obj - want) <= 1e-13 * abs(want)


def test_exact_lasso_reaches_the_default_tolerance():
    # an absolute CG tolerance used to freeze the iterate short of stop_tol
    p = bench.make_lasso(bench.LassoConfig(n=300, d=400, seed=0))
    res = outer.solve(p, outer.OuterParams(rho=1.0, scheme='exact',
                                           max_outer_iters=1000),
                      raise_on_maxiter=False)
    assert res.reason == 'converged'


def run_to_the_inner_cap():
    """Multistep on lasso 300x400 seed 11 with stop_tol 0: e_k reaches
    rounding level and block 1's inner loop then hits its cap."""
    p = bench.make_lasso(bench.LassoConfig(n=300, d=400, seed=11))
    params = outer.OuterParams(rho=1.0, scheme='multistep', stop_tol=0.0,
                               max_outer_iters=150)
    caps = []
    multistep_loop = outer.multistep_loop

    def recording_loop(ctx, *args):
        try:
            return multistep_loop(ctx, *args)
        except InnerIterationCap as exc:
            caps.append((ctx.k, exc.block, exc.cap))
            raise

    outer.multistep_loop = recording_loop
    last = []
    res = outer.solve(p, params,
                      callbacks=[lambda s, rec: last.append(
                          (s.x.copy(), s.y.copy(), s.z.copy(),
                           s.lam.copy()))])
    assert res.reason == 'stagnated' and not res.converged
    # the iteration after the last completed one hit the cap, once
    assert caps == [(len(last) + 1, 1, 10000)]
    assert res.iterations == len(last) == 116
    assert res.trace[-1].e_k < 1e-12
    for got, want in zip((res.x, res.y, res.z, res.lam), last[-1]):
        assert np.array_equal(got, want)


def test_inner_iteration_cap_ends_the_run_as_stagnated():
    # which iteration hits the cap follows the rounding, and BLAS symv and
    # syrk split their sums by thread count; so the run takes one BLAS
    # thread, as tools/trace_digest.py and perfbench do
    env = dict(os.environ, OPENBLAS_NUM_THREADS='1', OMP_NUM_THREADS='1',
               MKL_NUM_THREADS='1')
    paths = [os.path.dirname(os.path.dirname(os.path.abspath(
        bench.__file__))), os.path.dirname(os.path.abspath(__file__))]
    proc = subprocess.run(
        [sys.executable, '-c',
         f'import sys; sys.path[:0] = {paths!r}; import test_outer; '
         'test_outer.run_to_the_inner_cap()'],
        env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize('scheme', ['generalized', 'multistep',
                                    'accelerated', 'exact'])
def test_line_search_failure_ends_the_run_as_diverged(scheme):
    # with one NaN in the data every trial compares against a NaN f
    p = bench.make_lasso(bench.LassoConfig(n=20, d=30, seed=0))
    p.blocks[0].f.data[3] = np.nan
    res = outer.solve(p, outer.OuterParams(rho=1.0, scheme=scheme))
    assert res.reason == 'diverged' and not res.converged
    assert res.iterations == 0 and res.final_objective is None


def test_diverged_run_keeps_the_last_completed_iterates():
    p = bench.make_lasso(bench.LassoConfig(n=20, d=30, seed=0))
    last = []

    def poison_after_three(s, rec):
        last.append((s.x.copy(), s.y.copy(), s.z.copy(), s.lam.copy()))
        if rec.k == 3:
            # through b: the part's normal form keeps the data it was
            # built from
            p.b[3] = np.nan

    res = outer.solve(p, outer.OuterParams(rho=1.0, scheme='generalized',
                                           stop_tol=0.0),
                      callbacks=[poison_after_three])
    assert res.reason == 'diverged' and res.iterations == len(last) == 3
    for got, want in zip((res.x, res.y, res.z, res.lam), last[-1]):
        assert np.array_equal(got, want)


def test_non_finite_e_k_ends_an_exact_run_as_diverged():
    # the exact scheme never line-searches: a NaN first shows in e^k
    p = bench.make_lasso(bench.LassoConfig(n=20, d=30, seed=0))
    last = []

    def poison_after_three(s, rec):
        last.append((s.x.copy(), s.y.copy(), s.z.copy(), s.lam.copy()))
        if rec.k == 3:
            p.b[0] = np.nan

    res = outer.solve(p, outer.OuterParams(rho=1.0, scheme='exact',
                                           stop_tol=0.0),
                      callbacks=[poison_after_three])
    assert res.reason == 'diverged' and res.iterations == len(last) == 3
    for got, want in zip((res.x, res.y, res.z, res.lam), last[-1]):
        assert np.array_equal(got, want)


def test_exact_cg_fallback_is_skipped_on_non_finite_data(monkeypatch):
    # a 5x5 blur takes the CG fallback, which ran to CG_MAXIT on NaN
    # and ended the run stagnated
    def no_cg(*args, **kwargs):
        raise AssertionError('CG ran on a non-finite right-hand side')

    monkeypatch.setattr(inner, 'cg', no_cg)
    p = bench.make_deblur(bench.DeblurConfig(size=8, blur_size=5))
    p.blocks[0].f.data[3] = np.nan
    res = outer.solve(p, outer.OuterParams(rho=5e-4, scheme='exact',
                                           max_outer_iters=50),
                      raise_on_maxiter=False)
    assert res.reason == 'diverged' and res.iterations == 0


def test_outer_step_commits_only_a_finite_iteration():
    p = bench.make_lasso(bench.LassoConfig(n=20, d=30, seed=0))
    params = outer.OuterParams(rho=1.0, scheme='exact')
    bs = linops.assemble_back_sub([blk.A for blk in p.blocks[1:]])
    s, rec = outer.outer_step(p, outer.OuterState(p, params), params, bs)
    kept = (s.x, s.y, s.z, s.lam, s.e_prev, s.k)
    p.b[0] = np.nan
    s, rec = outer.outer_step(p, s, params, bs)
    assert rec.k == s.k == 2 and np.isnan(rec.e_k)
    assert all(a is b for a, b in zip((s.x, s.y, s.z, s.lam), kept))
    assert s.e_prev == kept[4]


@pytest.mark.parametrize('scheme', ['generalized', 'accelerated', 'exact'])
def test_block_with_neither_f_nor_h_takes_the_least_squares_answer(scheme):
    # min 0.5 ||F u - data||^2 over u = v, with v free: the exact scheme
    # solves block 2 through ZeroSmooth's zero Hessian Gram. Multistep
    # stagnates here, as on the small lasso, so it is left out.
    rng = np.random.default_rng(4)
    F = linops.DenseOp(rng.standard_normal((6, 3)))
    data = rng.standard_normal(6)
    p = problem.Problem(
        [problem.Block(linops.IdentityOp(3), prox.QuadraticLS(F, data),
                       prox.ZeroProx()),
         problem.Block(linops.NegIdentityOp(3), prox.ZeroSmooth(),
                       prox.ZeroProx())], np.zeros(3))
    res = outer.solve(p, outer.OuterParams(rho=2.0, scheme=scheme,
                                           stop_tol=1e-12,
                                           max_outer_iters=3000))
    want = np.linalg.lstsq(F.to_dense(), data, rcond=None)[0]
    assert res.reason == 'converged'
    assert np.abs(res.z - np.concatenate([want, want])).max() <= 1e-5


def test_cg_cap_ends_an_exact_run_as_stagnated(monkeypatch):
    # a 5x5 blur has no structured Gram, so the exact image block runs CG
    p = bench.make_deblur(bench.DeblurConfig(size=8, blur_size=5))
    exact = outer.exact_block_solve

    def capped_after_three(ctx, bst, cg_tol):
        if ctx.k > 3:
            monkeypatch.setattr(inner, 'CG_MAXIT', 2)
        return exact(ctx, bst, cg_tol)

    monkeypatch.setattr(outer, 'exact_block_solve', capped_after_three)
    last = []
    res = outer.solve(p, outer.OuterParams(rho=5e-4, scheme='exact'),
                      callbacks=[lambda s, rec: last.append(
                          (s.x.copy(), s.y.copy(), s.z.copy(),
                           s.lam.copy()))])
    assert res.reason == 'stagnated' and not res.converged
    assert res.iterations == len(last) == 3
    for got, want in zip((res.x, res.y, res.z, res.lam), last[-1]):
        assert np.array_equal(got, want)


def test_exact_workspaces_follow_a_new_rho():
    # one set of workspaces stepped at rho = 1 and then at rho = 5 must
    # give the step at rho = 5 that fresh workspaces give
    p = bench.make_lasso(bench.LassoConfig(n=20, d=30, seed=0))
    bs = linops.assemble_back_sub([blk.A for blk in p.blocks[1:]])
    runs = []
    for shared in (outer._workspaces(p, bs), None):     # None: fresh ones
        s = outer.OuterState(p, outer.OuterParams(rho=1.0))
        for rho in (1.0, 5.0):
            s, rec = outer.outer_step(
                p, s, outer.OuterParams(rho=rho, scheme='exact'), bs, shared)
        runs.append((rec.objective, s.z))
    assert runs[0][0] == runs[1][0]
    assert np.array_equal(runs[0][1], runs[1][1])


class StackedBlur(linops.VStackOp):
    """[F] for a blur F: F's values and F^T F, but no ``diagonalized``
    form, so a block with it keeps the problem's coordinates."""

    def self_gram(self):
        return self.parts[0].self_gram()


def deblur8(stacked=False, blur=3):
    p = bench.make_deblur(bench.DeblurConfig(size=8, blur_size=blur))
    if stacked:
        f = p.blocks[0].f
        p.blocks[0].f = prox.QuadraticLS(StackedBlur([f.F]), f.data)
    return p


def test_working_basis_only_for_h_zero_blocks_with_a_diagonal_f():
    cases = [(deblur8(), [True, False, False]),
             (deblur8(stacked=True), [False] * 3),
             (deblur8(blur=5), [False] * 3),
             (bench.make_lasso(bench.LassoConfig(seed=0)), [False] * 2),
             (lasso_like(3, m=3), [False] * 3)]
    for p, want in cases:
        got = [inner.BlockWorkspace(blk.A, block=blk) for blk in p.blocks]
        assert [ws.block is not None for ws in got] == want


@pytest.mark.parametrize('scheme', outer.SCHEMES)
def test_working_basis_takes_the_problem_coordinates_steps(scheme):
    # Q is orthonormal, so the steps agree up to rounding. The line-searched
    # schemes amplify rounding about 30x per outer iteration on this
    # problem, so each step starts from the reference run's state.
    p, ref = deblur8(), deblur8(stacked=True)
    params = outer.OuterParams(rho=5e-4, scheme=scheme)
    bs = linops.assemble_back_sub([blk.A for blk in p.blocks[1:]])
    ws_p, ws_ref = outer._workspaces(p, bs), outer._workspaces(ref, bs)
    s = outer.OuterState(ref, params)
    for _ in range(30):
        t = copy.deepcopy(s)
        s, want = outer.outer_step(ref, s, params, bs, ws_ref)
        t, got = outer.outer_step(p, t, params, bs, ws_p)
        assert got.inner_iters == want.inner_iters
        assert got.objective == pytest.approx(want.objective, rel=1e-9)
        assert got.e_k == pytest.approx(want.e_k, rel=1e-9)
        for a, b in ((t.x, s.x), (t.z, s.z), (t.y, s.y), (t.lam, s.lam)):
            assert np.abs(a - b).max() <= 1e-9 * np.abs(b).max()


def test_basis_block_costs_at_most_three_dcts_and_one_blur(monkeypatch):
    counts = {'dct': 0, 'blur': 0}

    def counting(fn, key):
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return counted

    for name in ('dctn', 'idctn'):
        monkeypatch.setattr(linops, name,
                            counting(getattr(linops, name), 'dct'))
    for name in ('apply', 'apply_adjoint'):
        monkeypatch.setattr(linops.BlurOperator, name,
                            counting(getattr(linops.BlurOperator, name),
                                     'blur'))
    for scheme in outer.SCHEMES:
        seen = []
        res = outer.solve(deblur8(), outer.OuterParams(
            rho=5e-4, scheme=scheme, max_outer_iters=30),
            callbacks=[lambda s, rec: seen.append(dict(counts))],
            raise_on_maxiter=False)
        assert res.iterations == 30
        # iterations 2..30; the first also moves x and data into the basis
        assert seen[-1]['dct'] - seen[0]['dct'] <= 3 * 29, scheme
        assert seen[-1]['blur'] - seen[0]['blur'] <= 29, scheme


@pytest.mark.parametrize('family', ['lasso', 'deblur'])
def test_residual_reuse_keeps_traces_bitwise(monkeypatch, family):
    # value and gradient at one point share F u - data through the block
    # memo; without the hook each recomputes it, with the same bits. A wide
    # lasso F has no normal form, so its line searches take f values too
    if family == 'lasso':
        problems = [bench.make_lasso(cfg) for cfg in
                    (bench.LassoConfig(seed=0), WIDE_LASSO)]
        rho, tol = 1.0, None
    else:
        problems = [bench.make_deblur(bench.DeblurConfig(size=8))]
        rho, tol = 5e-4, 1e-3

    def run(p, scheme):
        res = outer.solve(p, outer.OuterParams(rho=rho, scheme=scheme,
                                               stop_tol=tol))
        assert res.iterations > 10
        return ([(r.objective, r.e_k, r.primal_res, r.deltas, r.inner_iters)
                 for r in res.trace], res.solution.tobytes())

    for p in problems:
        for scheme in ('generalized', 'multistep', 'accelerated'):
            reused = run(p, scheme)
            with monkeypatch.context() as m:
                m.setattr(prox.QuadraticLS, 'residual', None)
                assert run(p, scheme) == reused, scheme


def test_multistep_applies_f_once_per_point(monkeypatch):
    # with a normal form each distinct gradient point costs one H product,
    # and F is never applied: not inside a line search and not for the
    # trace objective's f(z_1) (a wide F keeps one F apply per point:
    # test_inner)
    p = bench.make_lasso(bench.LassoConfig(seed=0))
    f = p.blocks[0].f
    applies, points = [], []
    apply = linops.DenseOp.apply
    gradient = prox.QuadraticLS.gradient

    def counting_apply(op, v):
        applies.append(op)
        return apply(op, v)

    def recording(f, x, *r):
        points.append(x.tobytes())
        return gradient(f, x, *r)

    monkeypatch.setattr(linops.DenseOp, 'apply', counting_apply)
    monkeypatch.setattr(prox.QuadraticLS, 'gradient', recording)
    res = outer.solve(p, outer.OuterParams(rho=1.0, scheme='multistep'))
    assert len(points) == len(set(points)) > 1000
    assert res.converged
    assert [op is f.normal[0] for op in applies] == [True] * len(points)


def test_lasso_multistep_takes_no_adjoint_product(monkeypatch):
    # the only F^T product is the normal form's F^T data
    p = bench.make_lasso(bench.LassoConfig(seed=0))
    calls = []
    adjoint = linops.DenseOp.apply_adjoint

    def recording(op, w):
        calls.append(w)
        return adjoint(op, w)

    monkeypatch.setattr(linops.DenseOp, 'apply_adjoint', recording)
    res = outer.solve(p, outer.OuterParams(rho=1.0, scheme='multistep'))
    assert res.converged
    assert [w is p.blocks[0].f.data for w in calls] == [True]


def test_solve_converges_on_easy_problem():
    p = lasso_like(31)
    params = outer.OuterParams(rho=1.0, scheme='generalized', stop_tol=1e-9,
                               max_outer_iters=20000)
    res = outer.solve(p, params)
    assert res.converged and res.reason == 'converged'
    assert res.trace[-1].e_k <= 1e-9
    assert np.array_equal(res.solution, res.z)
    assert res.final_objective == res.trace[-1].objective
    ks = [rec.k for rec in res.trace]
    assert ks == list(range(1, len(ks) + 1))


def test_solve_default_stop_tol_resolution():
    p = lasso_like(32)
    first = []
    params = outer.OuterParams(rho=1.0, scheme='generalized',
                               max_outer_iters=5)
    res = outer.solve(p, params,
                      callbacks=[lambda s, rec: first.append(rec.objective)],
                      raise_on_maxiter=False)
    assert res.stop_tol == 1e-8 * (1.0 + abs(first[0]))


def test_solve_callback_stop_and_solution_iterate():
    p = lasso_like(33)
    params = outer.OuterParams(rho=1.0, scheme='generalized', stop_tol=1e-14,
                               max_outer_iters=1000)
    res = outer.solve(p, params, callbacks=[lambda s, rec: rec.k == 3],
                      raise_on_maxiter=False)
    assert res.reason == 'callback'
    assert res.iterations == 3
    assert res.solution is res.z


def test_solve_maxiter_behavior():
    p = lasso_like(34)
    params = outer.OuterParams(rho=1.0, scheme='generalized', stop_tol=0.0,
                               max_outer_iters=2)
    with pytest.raises(MaxItersReached) as info:
        outer.solve(p, params)
    carried = info.value.result
    assert carried.iterations == 2
    assert carried.reason == 'max_iters' and not carried.converged
    res = outer.solve(p, params, raise_on_maxiter=False)
    assert res.iterations == 2 and res.reason == 'max_iters'


def test_outer_state_validation():
    p = lasso_like(35)
    params = outer.OuterParams(rho=1.0)
    with pytest.raises(DimensionMismatch):
        outer.OuterState(p, params, x0=np.zeros(p.n + 1))
    with pytest.raises(DimensionMismatch):
        outer.OuterState(p, params, lam0=np.zeros(p.rows + 2))


def test_energy_formula_and_modes():
    rng = np.random.default_rng(41)
    p = lasso_like(42, m=3)
    bs = linops.assemble_back_sub([blk.A for blk in p.blocks[1:]])
    off1 = p.slices[0].stop
    x_star = rng.standard_normal(p.n)
    lam_star = rng.standard_normal(p.rows)
    state = types.SimpleNamespace(
        x=rng.standard_normal(p.n), y=rng.standard_normal(p.n),
        lam=rng.standard_normal(p.rows), Gammas=[2.0, 0.5, 0.8])
    deltas = [0.5, 2.0, 1.25]
    rho, alpha = 0.8, 0.99
    dl = state.lam - lam_star
    base = rho * bs.p_quadratic(state.y[off1:] - x_star[off1:]) \
        + float(dl @ dl) / rho
    gen = base
    ms = base
    for i in range(p.m):
        d = state.x[p.slices[i]] - x_star[p.slices[i]]
        gen += alpha * deltas[i] * float(d @ d)
        ms += alpha * float(d @ d) / state.Gammas[i]
    got_ms = outer.energy_E(p, state, rho, alpha, (x_star, lam_star), bs)
    assert got_ms == pytest.approx(ms, rel=1e-12)
    # the generalized step's weight Gamma = 1/delta gives the delta-weighted
    # form
    state.Gammas = [1.0 / d for d in deltas]
    got_gen = outer.energy_E(p, state, rho, alpha, (x_star, lam_star), bs)
    assert got_gen == pytest.approx(gen, rel=1e-12)
    # infinite weight (exact baseline) drops the block from the sum
    state.Gammas = [np.inf, 0.5, 0.8]
    drop = outer.energy_E(p, state, rho, alpha, (x_star, lam_star), bs)
    d0 = state.x[p.slices[0]] - x_star[p.slices[0]]
    assert drop == pytest.approx(ms - alpha * float(d0 @ d0) / 2.0,
                                 rel=1e-12)
    with pytest.raises(MissingReference):
        outer.energy_E(p, state, rho, alpha, None, bs)
    # no inner step taken yet
    state.Gammas = [0.0, 0.5, 0.8]
    with pytest.raises(MissingReference):
        outer.energy_E(p, state, rho, alpha, (x_star, lam_star), bs)


def test_trace_reports_energy_from_entering_state():
    rng = np.random.default_rng(51)
    p = lasso_like(52)
    x_star = rng.standard_normal(p.n)
    lam_star = rng.standard_normal(p.rows)
    params = outer.OuterParams(rho=0.9, scheme='generalized',
                               reference=(x_star, lam_star))
    bs = linops.assemble_back_sub([blk.A for blk in p.blocks[1:]])
    s = outer.OuterState(p, params)
    x0, y0, lam0 = s.x.copy(), s.y.copy(), s.lam.copy()
    s, rec = outer.outer_step(p, s, params, bs)
    # the generalized step's weight is 1/delta
    assert rec.gammas == [1.0 / d for d in rec.deltas]
    snap = types.SimpleNamespace(x=x0, y=y0, lam=lam0, Gammas=rec.gammas)
    expect = outer.energy_E(p, snap, params.rho, outer.ALPHA,
                            (x_star, lam_star), bs)
    assert rec.E_k == pytest.approx(expect, rel=1e-13)


def run_and_trace(tmpdir, tag, stop_k=6):
    p = lasso_like(61)
    params = outer.OuterParams(rho=1.0, scheme='generalized', stop_tol=1e-14,
                               max_outer_iters=stop_k)
    res = outer.solve(p, params, raise_on_maxiter=False)
    path = str(tmpdir / f"trace_{tag}.csv")
    outer.write_trace_csv(res.trace, path, p.m)
    with open(path) as fh:
        rows = list(csv.reader(fh))
    return res, rows, path


def test_trace_csv_format_and_determinism(tmp_path):
    res, rows, _ = run_and_trace(tmp_path, 'a')
    res2, rows2, _ = run_and_trace(tmp_path, 'b')
    assert rows[0] == outer.CSV_BASE_FIELDS + ['delta_1', 'delta_2']
    assert len(rows) == res.iterations + 1
    t_col = rows[0].index('time_s')
    e_col = rows[0].index('E_k')
    for row, rec in zip(rows[1:], res.trace):
        assert int(row[0]) == rec.k
        assert float(row[2]) == rec.objective  # repr round-trips exactly
        assert float(row[3]) == rec.e_k
        assert row[e_col] == ''
    # identical seeds and parameters: identical traces modulo timing
    for row, row2 in zip(rows, rows2):
        masked = row[:t_col] + row[t_col + 1:]
        masked2 = row2[:t_col] + row2[t_col + 1:]
        assert masked == masked2
    # and identical final iterates, bitwise
    assert np.array_equal(res.z, res2.z)
    assert np.array_equal(res.lam, res2.lam)


def test_trace_fields_are_python_numbers(tmp_path):
    p = lasso_like(71)
    for scheme in outer.SCHEMES:
        res = outer.solve(p, outer.OuterParams(
            rho=1.0, scheme=scheme, max_outer_iters=5),
            raise_on_maxiter=False)
        assert res.trace, scheme
        for rec in res.trace:
            assert type(rec.k) is int and rec.E_k is None
            for v in (rec.time_s, rec.objective, rec.e_k, rec.primal_res):
                assert type(v) is float, scheme
            assert all(type(v) is int for v in rec.inner_iters)
            assert all(type(v) is float for v in rec.deltas + rec.gammas)
        path = str(tmp_path / f'{scheme}.json')
        doc = outer.write_summary(res, path)
        with open(path) as fh:
            assert json.load(fh) == doc


def test_write_summary(tmp_path):
    p = lasso_like(71)
    params = outer.OuterParams(rho=1.0, scheme='generalized', stop_tol=1e-9)
    res = outer.solve(p, params)
    path = str(tmp_path / 'summary.json')
    doc = outer.write_summary(res, path, extra={'instance': 'unit'})
    import json
    with open(path) as fh:
        loaded = json.load(fh)
    assert loaded == doc
    assert loaded['converged'] is True
    assert loaded['termination'] == 'converged'
    assert loaded['final_objective'] == res.final_objective
    assert loaded['iterations'] == res.iterations
    assert loaded['instance'] == 'unit'


def consensus_lasso(seed, n=30, d=45, weight=0.1):
    """Two-block consensus u - z = 0 with a planted sparse signal."""
    rng = np.random.default_rng(seed)
    F = rng.standard_normal((d, n)) / np.sqrt(d)
    u_true = np.zeros(n)
    u_true[rng.choice(n, size=4, replace=False)] = rng.uniform(0.5, 2.0, 4)
    data = F @ u_true + 0.01 * rng.standard_normal(d)
    blocks = [problem.Block(linops.IdentityOp(n),
                            prox.QuadraticLS(linops.DenseOp(F), data),
                            prox.ZeroProx()),
              problem.Block(linops.NegIdentityOp(n),
                            prox.ZeroSmooth(), prox.ScaledL1(weight))]
    return problem.Problem(blocks, np.zeros(n))


def test_solve_all_schemes_reach_same_objective():
    p = consensus_lasso(81)
    finals = {}
    for scheme in outer.SCHEMES:
        params = outer.OuterParams(rho=1.0, scheme=scheme, stop_tol=1e-8,
                                   max_outer_iters=60000, cg_tol=1e-12)
        res = outer.solve(p, params)
        assert res.converged, scheme
        finals[scheme] = res.final_objective
    vals = list(finals.values())
    for v in vals[1:]:
        assert abs(v - vals[0]) <= 1e-8 * max(1.0, abs(vals[0]))
