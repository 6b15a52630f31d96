"""Benchmark instance builders, oracles, and the runner."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from bosvs import bench, linops, outer, problem, prox
from bosvs.errors import BadDims, MaxItersReached, SolverError
from bosvs.prox import soft_threshold


def test_phantom_deterministic_and_bounded():
    img = bench.phantom(32, 32, seed=3)
    img2 = bench.phantom(32, 32, seed=3)
    assert np.array_equal(img, img2)
    assert img.shape == (32, 32)
    assert img.min() >= 0.0 and img.max() <= 1.0
    # the centered disk pins the center at full intensity
    assert img[16, 16] == 1.0
    assert not np.array_equal(img, bench.phantom(32, 32, seed=4))


def test_config_validation():
    with pytest.raises(BadDims):
        bench.DeblurConfig(size=24)
    with pytest.raises(BadDims):
        bench.DeblurConfig(size=4)
    with pytest.raises(BadDims):
        bench.DeblurConfig(blur_size=4)
    with pytest.raises(BadDims):
        bench.LassoConfig(n=10, nnz=11)
    assert bench.DeblurConfig(size=128).haar_levels == 4
    assert bench.DeblurConfig(size=64).haar_levels == 2


def test_bad_instance_settings_are_rejected_up_front():
    # a NaN or negative noise_std, or a beta that is not finite, used to
    # run ista_oracle through its whole budget; a NaN snr_db to diverge;
    # a negative beta was caught only by ScaledL1, whose message names no
    # setting
    for kw in (dict(noise_std=math.nan), dict(noise_std=-0.1),
               dict(beta=math.nan), dict(beta=math.inf), dict(beta=-1)):
        name, = kw
        with pytest.raises(BadDims, match=name):
            bench.LassoConfig(n=4, d=6, nnz=2, **kw)
    # below about -6165 dB the noise scale 10^(-snr_db/20) overflows; a
    # term weight that is NaN or inf is named before any solve
    for snr in (math.nan, -math.inf, -7000.0, -6165.1):
        with pytest.raises(BadDims, match='snr_db'):
            bench.DeblurConfig(size=8, snr_db=snr)
    # for haar_levels, HaarTransform's own messages name no setting
    for kw in (dict(alpha_tv=math.nan), dict(alpha_tv=-1e-3),
               dict(beta_wav=math.inf), dict(beta_wav=math.nan),
               dict(haar_levels=0), dict(haar_levels=4)):
        name, = kw
        with pytest.raises(BadDims, match=name):
            bench.DeblurConfig(size=8, **kw)
    # numpy's generators reject a negative seed without naming it
    for seed in (-1, -2 ** 40):
        with pytest.raises(BadDims, match='seed'):
            bench.LassoConfig(n=4, d=6, nnz=2, seed=seed)
        with pytest.raises(BadDims, match='seed'):
            bench.DeblurConfig(size=8, seed=seed)
    # an integer setting given a float, NaN or string is named, not
    # truncated: blur_size=2.5 used to pass the odd-size check and be
    # stored as 2, and refsolve's cap=2.5 ran 2 iterations
    for kw in (dict(size=32.5), dict(size=np.nan), dict(blur_size=2.5),
               dict(blur_size=3.0), dict(seed=0.5), dict(haar_levels=1.5),
               dict(seed='1')):
        name, = kw
        with pytest.raises(BadDims, match=name):
            bench.DeblurConfig(**kw)
    for kw in (dict(n=4.5), dict(d=np.inf), dict(nnz=1.5), dict(seed=1.5),
               dict(nnz='2'), dict(seed=True), dict(beta='0.1')):
        name, = kw
        with pytest.raises(BadDims, match=name):
            bench.LassoConfig(**dict(dict(n=4, d=6, nnz=2), **kw))
    for cap in (2.5, 0, True):
        with pytest.raises(BadDims, match='cap'):
            bench.refsolve(
                bench.make_lasso(bench.LassoConfig(n=4, d=6, nnz=2)), 1.0,
                cap=cap)
    cfg = bench.DeblurConfig(size=np.int64(8), blur_size=np.int32(3),
                             seed=np.uint8(2), haar_levels=np.int64(1))
    assert [type(v) for v in (cfg.size, cfg.blur_size, cfg.seed,
                              cfg.haar_levels)] == [int] * 4
    assert bench.LassoConfig(n=4, d=6, nnz=np.int64(2), seed=0).seed == 0
    assert bench.DeblurConfig(size=8, snr_db=-6165.0).snr_db == -6165.0
    # inf means noiseless; zero noise and a zero beta stay valid too
    assert bench.DeblurConfig(size=8, snr_db=math.inf).snr_db == math.inf
    assert bench.LassoConfig(noise_std=0.0, beta=0.0).beta == 0.0


def test_make_lasso_structure():
    cfg = bench.LassoConfig(n=15, d=20, nnz=4, noise_std=0.05, beta=0.2,
                            seed=9)
    p = bench.make_lasso(cfg)
    assert p.m == 2 and p.dims == [15, 15] and p.rows == 15
    assert np.array_equal(p.b, np.zeros(15))
    assert np.array_equal(p.blocks[0].A.to_dense(), np.eye(15))
    assert np.array_equal(p.blocks[1].A.to_dense(), -np.eye(15))
    F, data = p.meta['design'], p.meta['data']
    assert np.count_nonzero(p.meta['truth']) == 4
    rng = np.random.default_rng(2)
    u = rng.standard_normal(15)
    z = rng.standard_normal(15)
    hand = 0.5 * np.sum((F @ u - data) ** 2) + 0.2 * np.sum(np.abs(z))
    assert problem.objective(p, np.concatenate([u, z])) \
        == pytest.approx(hand, rel=1e-15)
    # deterministic rebuild
    q = bench.make_lasso(bench.LassoConfig(n=15, d=20, nnz=4,
                                           noise_std=0.05, beta=0.2, seed=9))
    assert np.array_equal(q.meta['design'], F)
    assert np.array_equal(q.meta['data'], data)


def test_make_deblur_structure_and_noise():
    cfg = bench.DeblurConfig(size=8, snr_db=40.0, seed=2)
    p = bench.make_deblur(cfg)
    n = 64
    assert p.m == 3 and p.dims == [n, 2 * n, n] and p.rows == 3 * n
    assert np.array_equal(p.b, np.zeros(3 * n))
    # auxiliary couplings are stacked signed identities: unit Gram
    for i in (1, 2):
        g = linops.gram(p.blocks[i].A, p.blocks[i].A)
        assert np.array_equal(g.to_dense(), np.eye(p.dims[i]))
    # noise realization follows the stated snr recipe exactly
    F = linops.BlurOperator.uniform(8, 8, 3)
    clean = F.apply(bench.phantom(8, 8, seed=2).ravel())
    rng = np.random.default_rng(3)
    std = np.linalg.norm(clean) * 10.0 ** (-2.0) / np.sqrt(clean.size)
    assert np.array_equal(p.meta['data'], clean + std * rng.standard_normal(n))
    clean_p = bench.make_deblur(bench.DeblurConfig(size=8, snr_db=math.inf,
                                                   seed=2))
    assert np.array_equal(clean_p.meta['data'], clean)


# The 4 GiB address-space cap holds the solver's own arrays; one BLAS
# thread keeps OpenBLAS's per-thread buffers, which scale with the core
# count, out of it.
DEBLUR_UNDER_4GIB = """
import resource
resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30))
from bosvs import bench, outer
for size in (128, 256):
    p = bench.make_deblur(bench.DeblurConfig(size=size))
    params = outer.OuterParams(rho=5e-4, scheme='generalized',
                               max_outer_iters=3)
    res = outer.solve(p, params, raise_on_maxiter=False)
    assert res.iterations == 3
"""


def test_large_deblur_runs_under_4gib_address_space():
    env = dict(os.environ, OPENBLAS_NUM_THREADS='1', OMP_NUM_THREADS='1')
    proc = subprocess.run([sys.executable, '-c', DEBLUR_UNDER_4GIB],
                          capture_output=True, text=True, env=env,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_deblur_noiseless_identity_blur_recovers_truth():
    cfg = bench.DeblurConfig(size=8, blur_size=1, snr_db=math.inf,
                             alpha_tv=0.0, beta_wav=0.0, seed=1)
    p = bench.make_deblur(cfg)
    params = outer.OuterParams(rho=1.0, scheme='generalized', stop_tol=1e-10,
                               max_outer_iters=20000)
    res = outer.solve(p, params)
    u = res.solution[:64]
    assert np.max(np.abs(u - p.meta['truth'])) <= 1e-6


def cd_lasso(F, data, beta, sweeps=20000, tol=1e-13):
    """Cyclic coordinate descent reference for the lasso."""
    n = F.shape[1]
    u = np.zeros(n)
    resid = data.copy()
    colsq = np.sum(F * F, axis=0)
    for _ in range(sweeps):
        biggest = 0.0
        for j in range(n):
            old = u[j]
            rho_j = F[:, j] @ resid + colsq[j] * old
            new = soft_threshold(np.array([rho_j]), beta)[0] / colsq[j]
            if new != old:
                resid += F[:, j] * (old - new)
                u[j] = new
                biggest = max(biggest, abs(new - old))
        if biggest <= tol:
            return u
    raise AssertionError("coordinate descent did not settle")


def test_ista_oracle_against_coordinate_descent():
    rng = np.random.default_rng(11)
    F = rng.standard_normal((45, 30)) / np.sqrt(45.0)
    u_true = np.zeros(30)
    u_true[rng.choice(30, 5, replace=False)] = rng.uniform(0.5, 1.5, 5)
    data = F @ u_true + 0.01 * rng.standard_normal(45)
    beta = 0.05
    u_ista = bench.ista_oracle(F, data, beta)
    u_cd = cd_lasso(F, data, beta)
    assert np.max(np.abs(u_ista - u_cd)) <= 1e-8
    phi = lambda u: 0.5 * np.sum((F @ u - data) ** 2) + beta * np.sum(np.abs(u))
    assert abs(phi(u_ista) - phi(u_cd)) <= 1e-10 * max(1.0, phi(u_cd))


def test_ista_oracle_beta_zero_and_budget(monkeypatch):
    rng = np.random.default_rng(12)
    F = rng.standard_normal((40, 25))
    data = rng.standard_normal(40)
    u = bench.ista_oracle(F, data, 0.0)
    lstsq = np.linalg.lstsq(F, data, rcond=None)[0]
    assert np.max(np.abs(u - lstsq)) <= 1e-8
    # an all-zero design has the zero minimizer
    assert np.array_equal(bench.ista_oracle(np.zeros((40, 25)), data, 0.01),
                          np.zeros(25))
    monkeypatch.setattr(bench, 'ISTA_MAXIT', 3)
    with pytest.raises(MaxItersReached):
        bench.ista_oracle(F, data, 0.01)


def test_ista_oracle_stops_at_a_non_finite_iterate():
    # overflowing data used to spin through all ISTA_MAXIT iterations on
    # NaN and then report an exhausted budget
    F = np.random.default_rng(13).standard_normal((6, 4))
    with np.errstate(over='ignore', invalid='ignore'):
        with pytest.raises(SolverError, match='residual') as info:
            bench.ista_oracle(F, 1e308 * np.ones(6), 0.1)
    assert not isinstance(info.value, MaxItersReached)


def test_refsolve_protocol_on_lasso():
    cfg = bench.LassoConfig(n=40, d=60, seed=7)
    p = bench.make_lasso(cfg)
    u = bench.ista_oracle(p.meta['design'], p.meta['data'], cfg.beta)
    phi_ista = problem.objective(p, np.concatenate([u, u]))
    result = bench.refsolve(p, rho=1.0)
    phi_star = result.final_objective
    assert abs(phi_star - phi_ista) <= 1e-7 * abs(phi_ista)
    assert result.reason == 'callback'
    # the protocol stops once four consecutive iterations print the same
    # eight significant digits
    tail = [f"{rec.objective:.7e}" for rec in result.trace[-4:]]
    assert len(set(tail)) == 1
    prev = [f"{rec.objective:.7e}" for rec in result.trace[-5:-1]]
    assert len(set(prev)) > 1


def test_run_benchmark_artifacts(tmp_path):
    cfg = bench.LassoConfig(n=20, d=30, seed=3)
    p = bench.make_lasso(cfg)
    params = outer.OuterParams(rho=1.0, scheme='accelerated', stop_tol=1e-8,
                               max_outer_iters=10000)
    phi_star = bench.refsolve(p, 1.0).final_objective
    code = bench.run_benchmark(p, params, str(tmp_path), phi_star)
    assert code == 0
    with open(tmp_path / 'accelerated_summary.json') as fh:
        summary = json.load(fh)
    assert summary['scheme'] == 'accelerated'
    assert summary['phi_star'] == phi_star
    assert summary['converged'] is True
    with open(tmp_path / 'accelerated_plotdata.csv') as fh:
        lines = fh.read().strip().splitlines()
    assert lines[0] == 'time_s,log10_rel_err'
    assert len(lines) == summary['iterations'] + 1
    for ln in lines[1:]:
        t, e = ln.split(',')
        assert float(t) >= 0.0
        assert float(e) < 2.0 or e == '-inf'
    assert os.path.exists(tmp_path / 'accelerated_trace.csv')
    # exhausted budget reports exit code 2
    tight = outer.OuterParams(rho=1.0, scheme='generalized', stop_tol=1e-12,
                              max_outer_iters=3)
    code2 = bench.run_benchmark(p, tight, str(tmp_path), phi_star)
    assert code2 == 2
    with open(tmp_path / 'generalized_summary.json') as fh:
        short = json.load(fh)
    assert short['termination'] == 'max_iters'
