"""Digest the traces of the benchmark solves, to check that a refactor
keeps every iterate bit for bit.

    python3 tools/trace_digest.py [--quick] [--src DIR]

Runs each scheme of the imported ``outer.SCHEMES`` on the benchmark
instances: lasso 300x400 seeds 0-4 (rho=1, default stop_tol, budget 1000)
and deblur32 (rho=5e-4, stop_tol=1e-3, budget 3000); ``--quick`` runs
lasso 20x30 seed 0 and deblur8 with the same settings instead. Prints one
line per solve: instance, scheme, stop reason, outer iterations, total
inner iterations and a SHA-256 over every trace record's k, objective,
e_k, primal residual, inner counts, deltas and gammas, and the bytes of
the final x, z and lam; a change that moves only rounding changes the
digest, but can still be checked for equal counts. ``--src`` imports
the library from another checkout's ``src`` (default: this one's), so two
versions can be compared by diffing their output. BLAS is pinned to one
thread.
"""

import argparse
import hashlib
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def instances(quick):
    """(label, build function, rho, stop_tol, budget) per instance."""
    from bosvs import bench
    lasso = dict(n=20, d=30) if quick else dict(n=300, d=400)
    seeds = (0,) if quick else range(5)
    size = 8 if quick else 32
    out = [(f"lasso{lasso['n']}x{lasso['d']}-{s}",
            lambda s=s: bench.make_lasso(bench.LassoConfig(**lasso, seed=s)),
            1.0, None, 1000) for s in seeds]
    out.append((f'deblur{size}',
                lambda: bench.make_deblur(bench.DeblurConfig(size=size)),
                5e-4, 1e-3, 3000))
    return out


def digest(res):
    h = hashlib.sha256()
    for r in res.trace:
        h.update(repr((r.k, r.objective, r.e_k, r.primal_res, r.inner_iters,
                       r.deltas, r.gammas)).encode())
    for v in (res.x, res.z, res.lam):
        h.update(b'-' if v is None else v.tobytes())
    return h.hexdigest()


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split('\n')[0])
    ap.add_argument('--quick', action='store_true',
                    help='lasso 20x30 and deblur8 only')
    ap.add_argument('--src', default=os.path.join(ROOT, 'src'),
                    help='directory holding the bosvs package')
    args = ap.parse_args(argv)
    for var in ('OPENBLAS_NUM_THREADS', 'OMP_NUM_THREADS', 'MKL_NUM_THREADS'):
        os.environ[var] = '1'
    sys.path.insert(0, os.path.abspath(args.src))
    from bosvs import outer
    for label, build, rho, stop_tol, budget in instances(args.quick):
        p = build()
        for scheme in outer.SCHEMES:
            res = outer.solve(p, outer.OuterParams(
                rho=rho, scheme=scheme, stop_tol=stop_tol,
                max_outer_iters=budget), raise_on_maxiter=False)
            inner = sum(r.inner_iters_total for r in res.trace)
            print(label, scheme, res.reason, res.iterations, inner,
                  digest(res), flush=True)


if __name__ == '__main__':
    main()
