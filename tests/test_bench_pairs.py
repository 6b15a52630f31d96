"""The pair tool's verdict and benchmark record on synthetic paired runs."""

import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), 'tools'))

from bench_pairs import bench_record, quartiles, verdict  # noqa: E402

PARENT = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]


def test_quartiles_inclusive():
    assert quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)
    assert quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_a_clear_gain_needs_nine_of_ten_pairs_and_the_spread():
    change = [0.8 * v for v in PARENT]
    v = verdict(PARENT, change, 'lower', 0.25)
    assert v['verdict'] == 'gain' and v['wins'] == 10 and v['pairs'] == 10
    assert v['rel'] == pytest.approx(-0.2)
    # eight wins of ten is not enough, however large the median gap
    lost = change[:8] + [2.0, 2.0]
    assert verdict(PARENT, lost, 'lower', 0.25)['wins'] == 8
    assert verdict(PARENT, lost, 'lower', 0.25)['verdict'] == 'held'
    # ten wins by less than the parent's quartile spread are no gain
    tiny = [v - 0.001 for v in PARENT]
    assert verdict(PARENT, tiny, 'lower', 0.25)['verdict'] == 'held'


def test_no_verdict_from_short_runs_or_extra_failures():
    change = [0.8 * v for v in PARENT]
    # three pairs all won by 20% still print their numbers, but no verdict
    v = verdict(PARENT[:3], change[:3], 'lower', 0.25)
    assert v['wins'] == 3 and v['pairs'] == 3 and v['verdict'] == 'n/a'
    slower = [1.3 * v for v in PARENT[:9]]
    assert verdict(PARENT[:9], slower, 'lower', 0.25)['verdict'] == 'n/a'
    # a change that fails more solves than the parent gets no gain
    more = verdict(PARENT, change, 'lower', 0.25, failed=(0, 1))
    assert more['wins'] == 10 and more['verdict'] == 'n/a'
    same = verdict(PARENT, change, 'lower', 0.25, failed=(2, 2))
    assert same['verdict'] == 'gain'


def test_ties_count_for_neither_side():
    v = verdict(PARENT, list(PARENT), 'lower', 0.25)
    assert v['wins'] == 0 and v['rel'] == 0.0 and v['verdict'] == 'held'


def test_worse_past_the_bound_and_the_direction_of_better():
    slower = [1.3 * v for v in PARENT]
    assert verdict(PARENT, slower, 'lower', 0.25)['verdict'] == 'worse'
    assert verdict(PARENT, slower, 'lower', 0.5)['verdict'] == 'held'
    # for a higher-is-better metric the same runs are a gain
    assert verdict(PARENT, slower, 'higher', 0.25)['verdict'] == 'gain'
    assert verdict(slower, PARENT, 'higher', 0.1)['verdict'] == 'worse'


def test_a_spread_wider_than_the_bound_is_unresolved():
    noisy = [1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0]
    shuffled = noisy[1:] + noisy[:1]
    assert verdict(noisy, shuffled, 'lower', 0.1)['verdict'] == 'unresolved'
    # unless every change run beats every parent run; that is still no
    # gain while the median gap stays inside the parent's spread
    v = verdict(noisy, [0.9] * 10, 'lower', 0.1)
    assert v['wins'] == 10 and v['verdict'] == 'held'


def test_unpaired_runs_are_rejected():
    with pytest.raises(ValueError):
        verdict([1.0, 2.0], [1.0], 'lower', 0.25)
    with pytest.raises(ValueError):
        verdict([], [], 'lower', 0.25)


def perfbench_run(seed, trace, setup_s, iter_ms, failed):
    """A synthetic (printed result, record) pair of one perfbench run."""
    metrics = {'setup_s': (setup_s, 's'), 'iter_ms.exact': (iter_ms, 'ms')}
    result = {'correct': failed == 0, 'attempted': 4, 'failed': failed,
              'metrics': {k: {'value': v, 'unit': u}
                          for k, (v, u) in metrics.items()}}
    record = {'workload': 'lasso', 'seed': seed, 'seconds': 25,
              'trace': trace, 'config': {'n': 3}, 'import_s': 0.1,
              'round_walls_s': [1.0], 'context': {'nproc': 2},
              'metrics': {k: list(m) for k, m in metrics.items()},
              'checks': {}, 'solves': [{'converged': True}] * 4}
    return result, record


def test_bench_record_from_printed_results_and_records():
    runs = [perfbench_run(12, 0, 4.0, 0.3, 0),
            perfbench_run(10, 0, 1.0, 0.2, 1),
            perfbench_run(11, 0, 2.0, 0.1, 0)]
    traced = perfbench_run(20, 1, 9.0, 0.9, 2)
    doc = bench_record('lasso', runs, traced)
    assert list(doc) == ['workload', 'end_to_end', 'runs', 'traced']
    assert doc['workload'] == 'lasso'
    # inclusive quartiles of the runs in seed order 10, 11, 12
    assert doc['end_to_end']['setup_s'] == {
        'unit': 's', 'median': 2.0, 'q1': 1.5, 'q3': 3.0,
        'runs': [1.0, 2.0, 4.0]}
    iter_ms = doc['end_to_end']['iter_ms.exact']
    assert iter_ms['runs'] == [0.2, 0.1, 0.3] and iter_ms['unit'] == 'ms'
    assert (iter_ms['q1'], iter_ms['median'], iter_ms['q3']) == \
        quartiles([0.2, 0.1, 0.3])
    assert [r['seed'] for r in doc['runs']] == [10, 11, 12]
    for r in doc['runs']:
        assert list(r) == ['seed', 'seconds', 'correct', 'attempted',
                           'failed', 'context']
    # the counts are the printed ones, not recounted from the solves
    assert [(r['correct'], r['failed']) for r in doc['runs']] == \
        [(False, 1), (True, 0), (True, 0)]
    entry, = doc['traced']
    assert 'solves' not in entry
    assert list(entry)[-3:] == ['correct', 'attempted', 'failed']
    assert (entry['correct'], entry['attempted'], entry['failed']) == \
        (False, 4, 2)
    assert entry['seed'] == 20 and entry['metrics'] == traced[1]['metrics']
