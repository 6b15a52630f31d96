"""
One lasso, four subproblem schemes
==================================

Splits min 0.5||Fu - f||^2 + beta||w||_1 subject to u - w = 0 into two
blocks and solves it with each per-block scheme: the single-step
linearized update, the averaging multistep loop, the accelerated loop,
and the exact subproblem baseline. All four must land on the objective
an independent proximal-gradient reference reaches.
"""

import time

import numpy as np

from bosvs import bench, outer, problem

cfg = bench.LassoConfig(seed=7)
p = bench.make_lasso(cfg)
print('lasso: %d unknowns, %d rows, %d-sparse truth, beta = %g'
      % (cfg.n, cfg.d, cfg.nnz, cfg.beta))

# Independent reference: plain proximal gradient on the unsplit problem.
u_ref = bench.ista_oracle(p.meta['design'], p.meta['data'], cfg.beta)
phi_ref = problem.objective(p, np.concatenate([u_ref, u_ref]))
print('proximal-gradient reference objective: %.10f' % phi_ref)
print()
print('%-12s %8s %8s %10s %12s' % ('scheme', 'outer k', 'time', 'rel err',
                                   'consensus'))
for scheme in ('generalized', 'multistep', 'accelerated', 'exact'):
    params = outer.OuterParams(rho=1.0, scheme=scheme, stop_tol=1e-8,
                               max_outer_iters=60000)
    t0 = time.perf_counter()
    res = outer.solve(p, params)
    dt = time.perf_counter() - t0
    rel = abs(res.final_objective - phi_ref) / phi_ref
    # z stacks the two block iterates; their gap is the consensus error
    n = cfg.n
    gap = np.max(np.abs(res.z[:n] - res.z[n:]))
    print('%-12s %8d %7.2fs %10.1e %12.1e' % (scheme, res.iterations, dt,
                                              rel, gap))

# The error measure e^k the stopping rule watches combines the sweep
# displacement, the constraint residual, and the subproblem inexactness;
# its trace is what the CSV files export.
res = outer.solve(p, outer.OuterParams(rho=1.0, scheme='generalized',
                                       stop_tol=1e-8, max_outer_iters=60000))
ks = [1, 2, 5, 10, 20, 50, res.iterations]
print()
print('generalized scheme error trace:')
for k in ks:
    rec = res.trace[k - 1]
    print('  k=%4d  e=%.3e  objective=%.10f' % (rec.k, rec.e_k, rec.objective))
