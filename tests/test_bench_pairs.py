"""The pair tool's verdict on synthetic paired runs."""

import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), 'tools'))

from bench_pairs import quartiles, verdict  # noqa: E402

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
