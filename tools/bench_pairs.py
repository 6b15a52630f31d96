"""Compare a parent revision with this checkout by alternating perfbench
pairs, give each end-to-end metric its verdict, and write the change's
committed record BENCH_<workload>.json.

    python3 tools/bench_pairs.py --parent HEAD~1 --workload lasso \
        --seed 100 [--json runs.json]

Exports the parent's ``src/`` with ``git archive`` and copies this
checkout's ``src/`` (as it is in the working tree) into a temporary
directory each. Both get a copy of this checkout's ``perfbench/``, so the
benchmark code is the same on both sides and the checkout's own files are
only read. Pair j of ten runs ``perfbench/run.py --workload W --seed S+j
--seconds T --trace 0`` on each side, where T is ``BENCHMARK.json``'s
``run_seconds``; the parent runs first in the even pairs and the change
in the odd ones. The change side then runs once more with ``--trace 1``
at seed S+10.

For every end-to-end metric of ``BENCHMARK.json`` it prints each side's
median and quartiles (inclusive method), the relative change of the
median, the pairs the change won (ties count for neither), the median
and quartiles of the per-pair ratio change/parent, and a verdict:

* ``n/a``: fewer than ten pairs, or the change failed more solves than
  the parent; no verdict holds, however the numbers read;
* ``gain``: the change won at least 9/10 of the pairs and its median is
  better by more than the parent's quartile spread;
* ``worse``: the median moved the wrong way by more than the metric's
  bound;
* ``unresolved``: neither, and the parent's quartile spread is wider than
  the bound, unless every change run is better than every parent run;
* ``held``: otherwise.

The ratio shows a shift that holds pair by pair while both sides drift
together; it does not enter the verdict. Each side's correct runs and
attempted and failed solves follow, then each side's median ``import_s``:
the one timing of ``import bosvs`` per run, which ``setup_s`` includes,
so a ``setup_s`` change can be told apart from a change in the import.
The change side's ten runs and its traced run are written to
``BENCH_<workload>.json`` at the repository root (see ``bench_record``).
``--json`` writes every pair's printed result and full perfbench record.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ('parent', 'change')
PAIRS = 10      # the fewest pairs a verdict may rest on
COUNTS = ('correct', 'attempted', 'failed')   # of a run's printed result
COPY_IGNORE = shutil.ignore_patterns('__pycache__', 'out', '*.pyc')


def quartiles(values):
    """(q1, median, q3) by the inclusive method; one value gives itself."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method='inclusive')
    return q1, med, q3


def verdict(parent, change, better='lower', bound=0.25, failed=(0, 0)):
    """Judge one metric from paired runs: parent[j] and change[j] share a
    seed, and ``failed`` holds each side's failed solves over all runs.
    Returns a dict with each side's quartiles, the relative change of the
    median, the pairs won, the quartiles of change/parent over the pairs
    whose parent value is not 0 (None if there are none) and the verdict
    (see the module doc)."""
    if len(parent) != len(change) or not parent:
        raise ValueError('need the same number of runs on each side, >= 1')
    sign = 1.0 if better == 'lower' else -1.0   # sign * value: lower wins
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    rel = (cm - pm) / pm if pm else 0.0
    wins = sum(sign * c < sign * p for p, c in zip(parent, change))
    ratios = [c / p for p, c in zip(parent, change) if p]
    spread = p3 - p1
    all_better = max(sign * c for c in change) < min(sign * p for p in parent)
    if len(parent) < PAIRS or failed[1] > failed[0]:
        out = 'n/a'
    elif wins >= 0.9 * len(parent) and sign * (pm - cm) > spread:
        out = 'gain'
    elif sign * rel > bound:
        out = 'worse'
    elif spread > bound * abs(pm) and not all_better:
        out = 'unresolved'
    else:
        out = 'held'
    return {'parent': [p1, pm, p3], 'change': [c1, cm, c3], 'rel': rel,
            'wins': wins, 'pairs': len(parent),
            'ratio': list(quartiles(ratios)) if ratios else None,
            'verdict': out}


def export(parent, dest):
    """Parent's src/ by git archive and this checkout's src/, each beside
    a copy of this checkout's perfbench/; returns {side: directory}."""
    dirs = {side: os.path.join(dest, side) for side in SIDES}
    os.makedirs(dirs['parent'])
    tar = subprocess.run(['git', 'archive', '--format=tar', parent, 'src'],
                         cwd=ROOT, capture_output=True, check=True).stdout
    subprocess.run(['tar', '-x', '-C', dirs['parent']], input=tar, check=True)
    shutil.copytree(os.path.join(ROOT, 'src'),
                    os.path.join(dirs['change'], 'src'), ignore=COPY_IGNORE)
    for d in dirs.values():
        shutil.copytree(os.path.join(ROOT, 'perfbench'),
                        os.path.join(d, 'perfbench'), ignore=COPY_IGNORE)
    return dirs


def run_side(directory, workload, seed, seconds, trace=0):
    """One perfbench run; returns (printed result, full record)."""
    proc = subprocess.run(
        [sys.executable, 'perfbench/run.py', '--workload', workload,
         '--seed', str(seed), '--seconds', str(seconds),
         '--trace', str(trace)],
        cwd=directory, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f'perfbench failed in {directory}:\n{proc.stderr}')
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    path = os.path.join(directory, 'perfbench', 'out',
                        f'{workload}-seed{seed}-trace{trace}.json')
    with open(path) as fh:
        return result, json.load(fh)


def bench_record(workload, runs, traced):
    """The committed record from (printed result, full record) pairs:
    ``runs`` of ``--trace 0`` give each end-to-end metric's median,
    quartiles and per-run values in seed order, and each run's seed,
    counts and machine context; the ``--trace 1`` pair ``traced`` is kept
    whole but for its per-solve list, with its counts."""
    def summary(result, rec):
        return ({k: v for k, v in rec.items() if k != 'solves'}
                | {k: result[k] for k in COUNTS})

    runs = sorted((summary(*r) for r in runs), key=lambda r: r['seed'])
    end_to_end = {}
    for name, (_, unit) in runs[0]['metrics'].items():
        values = [r['metrics'][name][0] for r in runs]
        q1, median, q3 = quartiles(values)
        end_to_end[name] = {'unit': unit, 'median': median, 'q1': q1,
                            'q3': q3, 'runs': values}
    return {'workload': workload, 'end_to_end': end_to_end,
            'runs': [{k: r[k] for k in ('seed', 'seconds', *COUNTS,
                                        'context')} for r in runs],
            'traced': [summary(*traced)]}


def report(runs, metrics, import_s):
    """The table: one line per metric, then each side's run health and
    its median ``import_s`` from ``import_s[side]``, one value per run."""
    failed = [sum(r[side]['failed'] for r in runs) for side in SIDES]
    lines = [f"{'metric':22s} {'parent median [q1, q3]':34s} "
             f"{'change median [q1, q3]':34s} {'rel':>8s} {'won':>6s} "
             f"{'change/parent [q1, q3]':24s} verdict"]
    for m in metrics:
        pairs = [(r['parent']['metrics'][m['name']]['value'],
                  r['change']['metrics'][m['name']]['value'])
                 for r in runs if m['name'] in r['parent']['metrics']
                 and m['name'] in r['change']['metrics']]
        if not pairs:
            continue
        v = verdict(*map(list, zip(*pairs)), better=m['better'],
                    bound=m['bound'], failed=failed)
        cols = [f'{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}] {m["unit"]}'
                for q in (v['parent'], v['change'])]
        won = f"{v['wins']}/{v['pairs']}"
        q = v['ratio']
        ratio = f'{q[1]:.3f} [{q[0]:.3f}, {q[2]:.3f}]' if q else 'n/a'
        lines.append(f"{m['name']:22s} {cols[0]:34s} {cols[1]:34s} "
                     f"{100 * v['rel']:+7.1f}% {won:>6s} {ratio:24s} "
                     f"{v['verdict']}")
    for side, fails in zip(SIDES, failed):
        res = [r[side] for r in runs]
        lines.append(f"{side}: correct {sum(r['correct'] for r in res)}/"
                     f"{len(res)} runs, attempted "
                     f"{sum(r['attempted'] for r in res)}, failed {fails}")
    lines.append('import_s (import bosvs, in setup_s): ' + ', '.join(
        f'{side} median {statistics.median(import_s[side]):.3f} s'
        for side in SIDES))
    return '\n'.join(lines)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split('\n')[0])
    ap.add_argument('--parent', required=True, help='git revision to compare')
    ap.add_argument('--workload', required=True)
    ap.add_argument('--seed', type=int, default=1,
                    help='seed of the first pair; pair j uses seed + j')
    ap.add_argument('--json', help='write every pair run to this file')
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error('need --seed >= 0')
    with open(os.path.join(ROOT, 'BENCHMARK.json')) as fh:
        bench = json.load(fh)
    metrics, seconds = bench['end_to_end'], bench['run_seconds']
    runs, records = [], []
    with tempfile.TemporaryDirectory(prefix='bench_pairs-') as tmp:
        dirs = export(args.parent, tmp)
        for j in range(PAIRS):
            seed = args.seed + j
            order = SIDES if j % 2 == 0 else SIDES[::-1]
            pair = {}
            for side in order:
                pair[side], rec = run_side(dirs[side], args.workload, seed,
                                           seconds)
                records.append({'pair': j, 'seed': seed, 'side': side,
                                'first': side == order[0],
                                'result': pair[side], 'record': rec})
                print(f'# pair {j + 1}/{PAIRS} seed {seed} {side} done',
                      file=sys.stderr, flush=True)
            runs.append(pair)
        traced = run_side(dirs['change'], args.workload, args.seed + PAIRS,
                          seconds, trace=1)
    print(f'# {args.workload}: {PAIRS} pairs of --seconds {seconds:g} '
          f'from seed {args.seed}, parent {args.parent}')
    print(report(runs, metrics, {
        side: [r['record']['import_s'] for r in records if r['side'] == side]
        for side in SIDES}))
    doc = bench_record(args.workload, [(r['result'], r['record'])
                                       for r in records
                                       if r['side'] == 'change'], traced)
    path = os.path.join(ROOT, f'BENCH_{args.workload}.json')
    with open(path, 'w') as fh:
        json.dump(doc, fh, indent=1)
        fh.write('\n')
    print(f'# wrote {path}', file=sys.stderr)
    if args.json:
        with open(args.json, 'w') as fh:
            json.dump(records, fh)
            fh.write('\n')


if __name__ == '__main__':
    main()
