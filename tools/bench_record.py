"""Write the committed benchmark record BENCH_<workload>.json from
perfbench run records.

    python3 tools/bench_record.py perfbench/out/lasso-seed1*-trace0.json \
        perfbench/out/lasso-seed1*-trace1.json

Takes the JSON records that ``perfbench/run.py`` writes to
``perfbench/out/``, all of one workload. The ``--trace 0`` records give
each end-to-end metric's median, quartiles (inclusive method) and
per-run values, with each run's seed, correctness and failed solves;
each ``--trace 1`` record is kept for its per-layer figures and tracing
overhead. Every record keeps its machine context; the per-solve lists
are left out. Writes ``BENCH_<workload>.json`` at the repository root.
"""

import argparse
import json
import os
import statistics

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def summary(rec):
    """A record without its per-solve list, with its correctness (every
    check passed) and failed share as perfbench prints them."""
    out = {k: v for k, v in rec.items() if k != 'solves'}
    out.update(correct=bool(rec['checks']) and all(
                   c['passed'] == c['total'] for c in rec['checks'].values()),
               attempted=len(rec['solves']),
               failed=sum(not s['converged'] for s in rec['solves']))
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split('\n')[0])
    ap.add_argument('records', nargs='+', help='perfbench/out JSON records')
    args = ap.parse_args(argv)
    recs = []
    for path in args.records:
        with open(path) as fh:
            recs.append(summary(json.load(fh)))
    workloads = {r['workload'] for r in recs}
    if len(workloads) != 1:
        raise SystemExit(f'records of several workloads: {sorted(workloads)}')
    runs = sorted((r for r in recs if not r['trace']), key=lambda r: r['seed'])
    if len(runs) < 2:
        raise SystemExit('need at least two --trace 0 records')
    end_to_end = {}
    for name, (_, unit) in runs[0]['metrics'].items():
        values = [r['metrics'][name][0] for r in runs]
        q1, _, q3 = statistics.quantiles(values, n=4, method='inclusive')
        end_to_end[name] = {'unit': unit, 'median': statistics.median(values),
                            'q1': q1, 'q3': q3, 'runs': values}
    out = {'workload': workloads.pop(),
           'end_to_end': end_to_end,
           'runs': [{k: r[k] for k in ('seed', 'seconds', 'correct',
                                       'attempted', 'failed', 'context')}
                    for r in runs],
           'traced': [r for r in recs if r['trace']]}
    path = os.path.join(ROOT, f"BENCH_{out['workload']}.json")
    with open(path, 'w') as fh:
        json.dump(out, fh, indent=1)
        fh.write('\n')
    print(path)


if __name__ == '__main__':
    main()
