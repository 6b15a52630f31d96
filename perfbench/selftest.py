"""Self-test of the benchmark's correctness checks.

    python3 perfbench/selftest.py

Shows that every check in ``checks.py`` accepts a converged solve and
rejects a wrong answer (a perturbed u, a wrong beta, the observed image,
disagreeing schemes), and that the independent objectives agree with
the library's own on the same points. Exits 1 if any expectation fails.
"""

import os
import sys

for _var in ('OPENBLAS_NUM_THREADS', 'OMP_NUM_THREADS', 'MKL_NUM_THREADS'):
    os.environ[_var] = '1'

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), 'src'))

import numpy as np  # noqa: E402

import checks  # noqa: E402
from bosvs import bench, linops, outer, problem  # noqa: E402

def expect(failures, label, results, name, passed):
    value, limit, ok = results[name]
    good = ok == passed
    print(f"{'ok  ' if good else 'FAIL'} {label}: {name} value={value:.4g} "
          f"limit={limit:.4g} {'accepted' if ok else 'rejected'}")
    if not good:
        failures.append(label)


def lasso_cases(failures):
    p = bench.make_lasso(bench.LassoConfig(n=300, d=400, seed=5))
    F, data = p.meta['design'], p.meta['data']
    beta = p.meta['config']['beta']
    u_ref, phi = checks.lasso_reference(F, data, beta)
    oracle = bench.ista_oracle(F, data, beta, tol=1e-11)
    print(f"lasso reference vs library ISTA oracle: "
          f"{np.linalg.norm(u_ref - oracle):.2e}")
    if np.linalg.norm(u_ref - oracle) > 1e-8:
        failures.append('lasso reference disagrees with ista_oracle')
    res = outer.solve(p, outer.OuterParams(rho=1.0, scheme='generalized'))
    n = F.shape[1]
    u, z = res.solution[:n], res.solution[n:]
    good = checks.check_lasso(F, data, beta, phi, u, z, res.final_objective)
    for name in good:
        expect(failures, 'lasso converged solve', good, name, True)
    rng = np.random.default_rng(0)
    bad_u = u + 1e-3 * rng.standard_normal(n)
    r = checks.check_lasso(F, data, beta, phi, bad_u, bad_u,
                           checks.lasso_objective(F, data, beta, bad_u, bad_u))
    expect(failures, 'lasso u perturbed by 1e-3', r, 'kkt_residual', False)
    expect(failures, 'lasso u perturbed by 1e-3', r, 'obj_gap', False)
    r = checks.check_lasso(F, data, 1.5 * beta, phi, u, z,
                           res.final_objective)
    expect(failures, 'lasso graded with beta x 1.5', r, 'kkt_residual', False)
    expect(failures, 'lasso graded with beta x 1.5', r, 'obj_gap', False)
    r = checks.check_lasso(F, data, beta, phi, u, z + 1e-5,
                           res.final_objective)
    expect(failures, 'lasso z shifted by 1e-5', r, 'consensus', False)


def deblur_cases(failures):
    cfg = bench.DeblurConfig(size=32, seed=0)
    p = bench.make_deblur(cfg)
    phi = checks.DeblurObjective(cfg.as_dict(), p.meta['data'])
    truth, observed = p.meta['truth'], p.meta['data']
    # the independent objective equals the library's at a feasible point
    rng = np.random.default_rng(1)
    u = rng.uniform(0.0, 1.0, truth.size)
    A1 = p.blocks[0].A
    feasible = np.concatenate([u, A1.apply(u)])
    lib = problem.objective(p, feasible)
    print(f"Phi~ vs library objective at a feasible point: "
          f"{abs(phi(u) - lib) / lib:.2e} relative")
    if abs(phi(u) - lib) > 1e-12 * lib:
        failures.append('deblur objective disagrees with the library')
    haar = linops.HaarTransform(32, 32, cfg.haar_levels)
    own = checks.haar2(u.reshape(32, 32), cfg.haar_levels).ravel()
    if not np.allclose(np.sort(np.abs(own)), np.sort(np.abs(haar.apply(u))),
                       rtol=0, atol=1e-13):
        failures.append('Haar coefficients differ from the library')
    res = outer.solve(p, outer.OuterParams(rho=5e-4, scheme='generalized',
                                           stop_tol=1e-3))
    u = res.solution[:truth.size]
    good = checks.check_deblur(phi, u, truth, observed, beat_truth=True)
    for name in good:
        expect(failures, 'deblur32 converged solve', good, name, True)
    r = checks.check_deblur(phi, np.zeros_like(u), truth, observed, True)
    expect(failures, 'deblur32 zero image', r, 'phi_below_observed', False)
    expect(failures, 'deblur32 zero image', r, 'closer_than_observed', False)
    r = checks.check_deblur(phi, observed, truth, observed, True)
    expect(failures, 'deblur32 returns the observed image', r,
           'phi_below_observed', False)
    r = checks.check_deblur(phi, truth, truth, observed, True)
    expect(failures, 'deblur32 returns the truth', r, 'phi_below_truth', False)
    # a solver that used the wrong wavelet weight lands on another optimum
    q = bench.make_deblur(bench.DeblurConfig(size=32, seed=0, beta_wav=0.1))
    res = outer.solve(q, outer.OuterParams(rho=5e-4, scheme='generalized',
                                           stop_tol=1e-3))
    r = checks.check_deblur(phi, res.solution[:truth.size], truth, observed,
                            True)
    expect(failures, 'deblur32 solved with beta_wav x 100', r,
           'phi_below_truth', False)
    for size, limit in checks.DEBLUR_AGREE.items():
        v = phi(u)
        expect(failures, f'deblur{size} schemes within the limit',
               checks.check_agreement([v, v * (1 + 0.5 * limit)], limit),
               'scheme_agreement', True)
        expect(failures, f'deblur{size} one scheme off by twice the limit',
               checks.check_agreement([v, v, v * (1 + 2 * limit)], limit),
               'scheme_agreement', False)


if __name__ == '__main__':
    failures = []
    lasso_cases(failures)
    deblur_cases(failures)
    if failures:
        print(f"{len(failures)} expectation(s) failed", file=sys.stderr)
        sys.exit(1)
    print("all checks accept converged solves and reject wrong answers")
