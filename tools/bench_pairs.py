"""Compare a parent revision with this checkout by alternating perfbench
pairs, and give each end-to-end metric its verdict.

    python3 tools/bench_pairs.py --parent HEAD~1 --workload lasso \
        --seed 100 [--json runs.json]

Exports the parent's ``src/`` with ``git archive`` and copies this
checkout's ``src/`` (as it is in the working tree) into a temporary
directory each. Both get a copy of this checkout's ``perfbench/``, so the
benchmark code is the same on both sides and the checkout's own files are
only read. Pair j of ten runs ``perfbench/run.py --workload W --seed S+j
--seconds T --trace 0`` on each side, where T is ``BENCHMARK.json``'s
``run_seconds``; the parent runs first in the even pairs and the change
in the odd ones.

For every end-to-end metric of ``BENCHMARK.json`` it prints each side's
median and quartiles (inclusive method), the relative change of the
median, the pairs the change won (ties count for neither) and a verdict:

* ``n/a``: fewer than ten pairs, or the change failed more solves than
  the parent; no verdict holds, however the numbers read;
* ``gain``: the change won at least 9/10 of the pairs and its median is
  better by more than the parent's quartile spread;
* ``worse``: the median moved the wrong way by more than the metric's
  bound;
* ``unresolved``: neither, and the parent's quartile spread is wider than
  the bound, unless every change run is better than every parent run;
* ``held``: otherwise.

Each side's correct runs and attempted and failed solves follow. ``--json``
writes every run's printed result and its full perfbench record.
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
    median, the pairs won and the verdict (see the module doc)."""
    if len(parent) != len(change) or not parent:
        raise ValueError('need the same number of runs on each side, >= 1')
    sign = 1.0 if better == 'lower' else -1.0   # sign * value: lower wins
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    rel = (cm - pm) / pm if pm else 0.0
    wins = sum(sign * c < sign * p for p, c in zip(parent, change))
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
            'wins': wins, 'pairs': len(parent), 'verdict': out}


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


def run_side(directory, workload, seed, seconds):
    """One perfbench run; returns (printed result, full record)."""
    proc = subprocess.run(
        [sys.executable, 'perfbench/run.py', '--workload', workload,
         '--seed', str(seed), '--seconds', str(seconds), '--trace', '0'],
        cwd=directory, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f'perfbench failed in {directory}:\n{proc.stderr}')
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    path = os.path.join(directory, 'perfbench', 'out',
                        f'{workload}-seed{seed}-trace0.json')
    with open(path) as fh:
        return result, json.load(fh)


def report(runs, metrics):
    """The table: one line per metric, then each side's run health."""
    failed = [sum(r[side]['failed'] for r in runs) for side in SIDES]
    lines = [f"{'metric':22s} {'parent median [q1, q3]':34s} "
             f"{'change median [q1, q3]':34s} {'rel':>8s} {'won':>6s} verdict"]
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
        lines.append(f"{m['name']:22s} {cols[0]:34s} {cols[1]:34s} "
                     f"{100 * v['rel']:+7.1f}% {won:>6s} {v['verdict']}")
    for side, fails in zip(SIDES, failed):
        res = [r[side] for r in runs]
        lines.append(f"{side}: correct {sum(r['correct'] for r in res)}/"
                     f"{len(res)} runs, attempted "
                     f"{sum(r['attempted'] for r in res)}, failed {fails}")
    return '\n'.join(lines)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split('\n')[0])
    ap.add_argument('--parent', required=True, help='git revision to compare')
    ap.add_argument('--workload', required=True)
    ap.add_argument('--seed', type=int, default=1,
                    help='seed of the first pair; pair j uses seed + j')
    ap.add_argument('--json', help='write every run to this file')
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
    print(f'# {args.workload}: {PAIRS} pairs of --seconds {seconds:g} '
          f'from seed {args.seed}, parent {args.parent}')
    print(report(runs, metrics))
    if args.json:
        with open(args.json, 'w') as fh:
            json.dump(records, fh)
            fh.write('\n')


if __name__ == '__main__':
    main()
