"""
Small image deblurring with the three-block split
=================================================

Recovers a 32x32 piecewise-constant phantom from a blurred, noisy
observation by minimizing

    0.5||Ku - f||^2 + alpha * TV(u) + beta * ||Wu||_1

split into three blocks: the image u with the data term, the stacked
difference field w with the isotropic group norm, and the wavelet
coefficient vector v with the l1 norm, coupled through Du - w = 0 and
Wu - v = 0.
"""

import time

import numpy as np

from bosvs import bench, outer

cfg = bench.DeblurConfig()
p = bench.make_deblur(cfg)
truth = p.meta['truth']
print('%dx%d phantom, %dx%d uniform blur, %.0f dB noise, alpha=%g beta=%g'
      % (cfg.size, cfg.size, cfg.blur_size, cfg.blur_size, cfg.snr_db,
         cfg.alpha_tv, cfg.beta_wav))


def psnr(u):
    err = np.mean((u - truth) ** 2)
    return 10.0 * np.log10(truth.max() ** 2 / err)


# The observation is the data of block 1's fit term (the constraint's
# right-hand side is zero): the blurred phantom plus noise.
blurred = p.meta['data']
print('observation PSNR: %.2f dB' % psnr(blurred))

# The benchmark penalty is small, so single iterations are cheap but
# many are needed; a few hundred already restore most of the image.
budget = 800
print()
print('%-12s %8s %8s %12s %10s' % ('scheme', 'outer k', 'time',
                                   'objective', 'PSNR'))
for scheme in ('generalized', 'exact'):
    params = outer.OuterParams(rho=5e-4, scheme=scheme, stop_tol=1e-8,
                               max_outer_iters=budget)
    t0 = time.perf_counter()
    res = outer.solve(p, params, raise_on_maxiter=False)
    dt = time.perf_counter() - t0
    u = res.z[:cfg.size * cfg.size]
    print('%-12s %8d %7.1fs %12.7f %9.2f' % (scheme, res.iterations, dt,
                                             res.final_objective, psnr(u)))

print()
print('at this short budget the two objectives already agree to a few')
print('parts in 1e5; the acceptance suite runs all four schemes to a')
print('7000-iteration budget where they match to 1e-6 relative')
