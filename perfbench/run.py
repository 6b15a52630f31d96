"""Time-to-tolerance benchmark for the four bosvs schemes.

    python3 perfbench/run.py --workload lasso --seed 0 --seconds 25 --trace 0

Runs from the root of a source checkout and imports the library from
``src/``. Every solve goes through the library API (``bench.make_*``,
``outer.solve``), one at a time, in this one process with BLAS pinned
to one thread. A run repeats whole rounds (every instance of the
workload, every scheme) until ``--seconds`` of measured time have
passed, checks each round's outputs against independent computations
(``checks.py``), and prints its metrics; the last line of standard
output is one JSON object. ``--trace 1`` first runs untraced rounds,
then traced ones (``spans.py``), and reports per-layer figures and the
tracing overhead instead. Each run also writes a JSON record with its
machine context to ``perfbench/out/``.
"""

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, 'src')
OUT = os.path.join(HERE, 'out')

THREAD_VARS = ('OPENBLAS_NUM_THREADS', 'OMP_NUM_THREADS', 'MKL_NUM_THREADS')
SCHEMES = ('generalized', 'multistep', 'accelerated', 'exact')
INEXACT = SCHEMES[:3]

# lasso: the seed draws the instances the inexact schemes solve. Their
# cost varies between instances (multistep's by a factor of 2), so a
# round sums over many of them to hold its time within the bound.
LASSO_INSTANCES = 64
LASSO_SHAPE = dict(n=300, d=400)
# The exact scheme solves fixed instances. On seed 1 it converges; on
# the others its absolute cg_tol=1e-6 freezes the iterate short of the
# default stop_tol and the solve spends the whole budget, a known fault
# counted as failed. Seed 3 is left out: its e_k comes within 1.4x of
# the tolerance. On seed-drawn instances the exact scheme stalls on some
# seeds and not others, which would make the failed share depend on the
# seed. Eight short stalls spread through the round sample the machine's
# speed at more points than three long ones.
LASSO_EXACT_SEEDS = (0, 1, 2, 4, 5, 6, 7, 8)
# deblur: iterations to the tolerance vary up to 3x between phantoms
# (deblur32, multistep: 763 on phantom seed 1, 2495 on seed 4), and a
# round costs 20 s per phantom, so the image is fixed at phantom seed 0.
# On deblur32 each scheme is solved several times per round, the cheap
# ones more often, so that each gets 9-17 s of samples; the seed
# shuffles the order of the solves.
DEBLUR_PHANTOM = 0

WORKLOADS = {
    # family, instance size, rho, stop_tol (None: library default),
    # outer budget, solves of each scheme per round (deblur)
    'lasso': dict(family='lasso', rho=1.0, stop_tol=None, budget=1000),
    'deblur32': dict(family='deblur', size=32, rho=5e-4, stop_tol=1e-3,
                     budget=3000, repeats=dict(generalized=6, multistep=2,
                                               accelerated=3, exact=2)),
    # not in BENCHMARK.json: one round takes about 45 s and its figures
    # spread too far between runs; kept for measuring Gram setup by hand
    'deblur64': dict(family='deblur', size=64, rho=5e-4, stop_tol=1e-2,
                     budget=1000, repeats=dict.fromkeys(SCHEMES, 1)),
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split('\n')[0])
    ap.add_argument('--workload', required=True, choices=sorted(WORKLOADS))
    ap.add_argument('--seed', required=True, type=int)
    ap.add_argument('--seconds', required=True, type=float)
    ap.add_argument('--trace', required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error('--seed must be >= 0 and --seconds > 0')
    return args


def import_library():
    """Import bosvs from this checkout's src/; returns import seconds.

    BLAS threads are pinned to one here, before numpy is first imported.
    """
    if not os.path.isfile(os.path.join(SRC, 'bosvs', '__init__.py')):
        sys.exit(f"run.py: no library source under {SRC}")
    for var in THREAD_VARS:
        os.environ[var] = '1'
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import bosvs  # noqa: F401  (pulls in numpy and scipy)
    return time.perf_counter() - t0


def instances(name, seed):
    """(label, build function, schemes) for one round of the workload."""
    from bosvs import bench
    import numpy as np
    wl = WORKLOADS[name]
    rng = np.random.default_rng(seed)
    if wl['family'] == 'deblur':
        cfg = dict(size=wl['size'], seed=DEBLUR_PHANTOM)
        solves = [s for s in SCHEMES for _ in range(wl['repeats'][s])]
        order = tuple(solves[i] for i in rng.permutation(len(solves)))
        return [(f"deblur{wl['size']}-{DEBLUR_PHANTOM}",
                 lambda: bench.make_deblur(bench.DeblurConfig(**cfg)), order)]
    drawn = [(int(s), INEXACT) for s in
             rng.choice(2 ** 31, size=LASSO_INSTANCES, replace=False)]
    # spread the exact solves through the round, so that a slow spell of
    # the machine does not fall on them alone
    step = LASSO_INSTANCES // len(LASSO_EXACT_SEEDS)
    for j, s in enumerate(LASSO_EXACT_SEEDS):
        drawn.insert((j + 1) * step + j, (s, ('exact',)))
    return [(f'lasso-{s}',
             lambda s=s: bench.make_lasso(bench.LassoConfig(**LASSO_SHAPE,
                                                            seed=s)),
             schemes) for s, schemes in drawn]


def run_round(wl, insts, tracer=None):
    """Build each instance once and run its solves.

    Returns (records, problems): one record per solve, problems by label.
    """
    from bosvs import outer
    from bosvs.errors import SolverError
    clock = time.perf_counter
    recs, problems = [], {}
    for label, build, schemes in insts:
        t = clock()
        p = build()
        make_s = clock() - t
        problems[label] = p
        for j, scheme in enumerate(schemes):
            params = outer.OuterParams(rho=wl['rho'], scheme=scheme,
                                       stop_tol=wl['stop_tol'],
                                       max_outer_iters=wl['budget'])
            if tracer is not None:
                tracer.set_scheme(scheme)
            t = clock()
            try:
                res = outer.solve(p, params, raise_on_maxiter=False)
                error = None
            except SolverError as exc:
                res, error = None, f'{type(exc).__name__}: {exc}'
            wall = clock() - t
            if tracer is not None:
                tracer.set_scheme(None)
            rec = {'instance': label, 'scheme': scheme, 'wall_s': wall,
                   'make_s': make_s if j == 0 else 0.0, 'error': error,
                   'converged': False, 'reason': 'error', 'iterations': 0,
                   'inner_iters': 0, 'steady_s': 0.0, 'solution': None}
            if res is not None:
                tr = res.trace
                rec.update(converged=res.converged, reason=res.reason,
                           iterations=len(tr),
                           inner_iters=sum(r.inner_iters_total for r in tr),
                           steady_s=tr[-1].time_s - tr[0].time_s,
                           objective=res.final_objective,
                           solution=res.solution)
            recs.append(rec)
    return recs, problems


class Checker:
    """Runs the independent checks and keeps the worst figure of each."""

    def __init__(self, wl):
        self.wl = wl
        self.refs = {}      # lasso instance label -> phi_star
        self.worst = {}     # check -> [worst value/limit, passed, total]

    def _note(self, results):
        for name, (value, limit, ok) in results.items():
            w = self.worst.setdefault(name, [0.0, 0, 0])
            w[0] = max(w[0], value / limit)
            w[1] += bool(ok)
            w[2] += 1

    def round(self, recs, problems):
        import checks
        done = [r for r in recs if r['converged']]
        if self.wl['family'] == 'lasso':
            for r in done:
                p = problems[r['instance']]
                F, data = p.meta['design'], p.meta['data']
                beta = p.meta['config']['beta']
                if r['instance'] not in self.refs:
                    _, phi = checks.lasso_reference(F, data, beta)
                    self.refs[r['instance']] = phi
                n = F.shape[1]
                self._note(checks.check_lasso(
                    F, data, beta, self.refs[r['instance']],
                    r['solution'][:n], r['solution'][n:], r['objective']))
            return
        size = self.wl['size']
        for label, p in problems.items():
            phi = checks.DeblurObjective(p.meta['config'], p.meta['data'])
            truth, observed = p.meta['truth'], p.meta['data']
            mine = [r for r in done if r['instance'] == label]
            values = []
            for r in mine:
                u = r['solution'][:size * size]
                self._note(checks.check_deblur(phi, u, truth, observed,
                                               beat_truth=size == 32))
                values.append(phi(u))
            if {r['scheme'] for r in mine} == set(SCHEMES):
                self._note(checks.check_agreement(
                    values, checks.DEBLUR_AGREE[size]))

    @property
    def correct(self):
        return bool(self.worst) and all(w[1] == w[2]
                                        for w in self.worst.values())


def per_solve(rnd):
    """One record per (instance, scheme): the median of its repeats.

    The instance's build time sits on its first solve only, so it is
    summed rather than taken as a median.
    """
    groups = {}
    for r in rnd:
        groups.setdefault((r['instance'], r['scheme']), []).append(r)
    return [{k: statistics.median(r[k] for r in reps)
             for k in ('wall_s', 'steady_s', 'iterations')}
            | {'scheme': scheme, 'make_s': sum(r['make_s'] for r in reps)}
            for (_, scheme), reps in groups.items()]


def e2e_metrics(rounds, import_s):
    """End-to-end figures: medians over rounds of per-round sums."""
    m = {}
    rounds = [per_solve(rnd) for rnd in rounds]
    setups = [sum(r['make_s'] + r['wall_s'] - r['steady_s'] for r in rnd)
              for rnd in rounds]
    m['setup_s'] = (import_s + statistics.median(setups), 's')
    for scheme in SCHEMES:
        walls, per_iter = [], []
        for rnd in rounds:
            mine = [r for r in rnd if r['scheme'] == scheme]
            walls.append(sum(r['wall_s'] for r in mine))
            steps = sum(max(r['iterations'] - 1, 0) for r in mine)
            if steps:
                per_iter.append(1e3 * sum(r['steady_s'] for r in mine) / steps)
        m[f'solve_s.{scheme}'] = (statistics.median(walls), 's')
        if per_iter:
            m[f'iter_ms.{scheme}'] = (statistics.median(per_iter), 'ms')
    m['peak_rss_mb'] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, 'MB')
    return m


def blas_threads():
    """Thread count each loaded OpenBLAS reports, keyed by library file."""
    out = {}
    try:
        with open('/proc/self/maps') as fh:
            libs = {line.split()[-1] for line in fh
                    if 'openblas' in line.lower() and '.so' in line}
    except OSError:
        return out
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ('scipy_openblas_get_num_threads64_',
                    'scipy_openblas_get_num_threads',
                    'openblas_get_num_threads64_', 'openblas_get_num_threads'):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[os.path.basename(path)] = fn()
                break
    return out


def machine_context():
    import numpy as np
    import scipy
    blas = np.show_config(mode='dicts')['Build Dependencies']['blas']
    cpu = None
    try:
        with open('/proc/cpuinfo') as fh:
            cpu = next((ln.split(':', 1)[1].strip() for ln in fh
                        if ln.startswith('model name')), None)
    except OSError:
        pass
    return {'nproc': os.cpu_count(),
            'affinity': len(os.sched_getaffinity(0)),
            'cpu': cpu, 'platform': platform.platform(),
            'python': platform.python_version(), 'numpy': np.__version__,
            'scipy': scipy.__version__,
            'blas': f"{blas.get('name')} {blas.get('version')}",
            'blas_threads': blas_threads(),
            'thread_env': {v: os.environ.get(v) for v in THREAD_VARS}}


def run_rounds(wl, insts, seconds, checker, tracer=None):
    """Whole rounds until `seconds` of round time; returns (rounds, walls)."""
    rounds, walls = [], []
    while sum(walls) < seconds:
        t = time.perf_counter()
        recs, problems = run_round(wl, insts, tracer)
        walls.append(time.perf_counter() - t)
        checker.round(recs, problems)
        rounds.append(recs)
        # free this round's problems before the next round builds its own,
        # so that peak memory does not grow with the number of rounds
        del problems
    return rounds, walls


def main(argv=None):
    args = parse_args(argv)
    import_s = import_library()
    wl = WORKLOADS[args.workload]
    insts = instances(args.workload, args.seed)
    checker = Checker(wl)
    rounds, walls = run_rounds(wl, insts, args.seconds, checker)
    record = {'workload': args.workload, 'seed': args.seed,
              'seconds': args.seconds, 'trace': args.trace,
              'config': wl, 'import_s': import_s, 'round_walls_s': walls}
    if args.trace:
        import spans
        tracer = spans.Tracer()
        tracer.install()
        try:
            traced, traced_walls = run_rounds(wl, insts, args.seconds,
                                              checker, tracer)
        finally:
            tracer.uninstall()
        metrics = tracer.layer_metrics([r for rnd in traced for r in rnd],
                                       len(traced))
        metrics['trace.overhead_pct'] = (
            100.0 * (statistics.median(traced_walls)
                     / statistics.median(walls) - 1.0), '%')
        record['traced_round_walls_s'] = traced_walls
        rounds = rounds + traced
    else:
        metrics = e2e_metrics(rounds, import_s)
    solves = [r for rnd in rounds for r in rnd]
    failed = [r for r in solves if not r['converged']]
    context = machine_context()
    record.update(context=context, metrics=metrics,
                  checks={k: {'worst_ratio_to_limit': w[0], 'passed': w[1],
                              'total': w[2]}
                          for k, w in checker.worst.items()},
                  solves=[{k: v for k, v in r.items() if k != 'solution'}
                          for r in solves])
    os.makedirs(OUT, exist_ok=True)
    name = f'{args.workload}-seed{args.seed}-trace{args.trace}.json'
    with open(os.path.join(OUT, name), 'w') as fh:
        json.dump(record, fh, indent=1)
        fh.write('\n')
    if args.trace:
        tracer.save(os.path.join(OUT, f'{args.workload}-spans.npz'), context)

    print(f'# {args.workload} seed={args.seed} rounds={len(rounds)} '
          f'import_s={import_s:.3f} nproc={context["nproc"]} '
          f'blas={context["blas"]} threads={context["blas_threads"]}')
    for name, (value, unit) in metrics.items():
        print(f'{name:40s} {value:14.6g} {unit}')
    for name, w in checker.worst.items():
        print(f'check {name:26s} {w[1]}/{w[2]} pass, '
              f'worst value/limit {w[0]:.3g}')
    for r in failed:
        print(f'failed {r["instance"]} {r["scheme"]}: {r["reason"]} '
              f'after {r["iterations"]} iterations {r["error"] or ""}',
              file=sys.stderr)
    print(json.dumps({
        'correct': checker.correct, 'attempted': len(solves),
        'failed': len(failed),
        'metrics': {k: {'value': v, 'unit': u}
                    for k, (v, u) in metrics.items()},
    }))


if __name__ == '__main__':
    main()
