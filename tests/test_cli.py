"""Command line interface, exercised through subprocesses."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from bosvs import bench, cli, outer, problem_io

BOSVS = [sys.executable, '-m', 'bosvs.cli']


def run_cli(args, **kw):
    return subprocess.run(BOSVS + args, capture_output=True, text=True, **kw)


@pytest.fixture(scope='module')
def lasso_file(tmp_path_factory):
    path = tmp_path_factory.mktemp('cli') / 'lasso.json'
    p = bench.make_lasso(bench.LassoConfig(n=20, d=30, seed=4))
    problem_io.save_problem(p, str(path))
    return str(path)


def test_solve_runs_and_writes_artifacts(tmp_path, lasso_file):
    trace = str(tmp_path / 'trace.csv')
    summary = str(tmp_path / 'summary.json')
    proc = run_cli(['solve', '--problem', lasso_file, '--scheme',
                    'generalized', '--rho', '1.0', '--tol', '1e-8',
                    '--trace', trace, '--summary', summary])
    assert proc.returncode == 0, proc.stderr
    assert 'generalized:' in proc.stdout and '(converged)' in proc.stdout
    with open(summary) as fh:
        doc = json.load(fh)
    assert doc['converged'] is True and doc['scheme'] == 'generalized'
    header = open(trace).readline().strip().split(',')
    assert header[:4] == ['k', 'time_s', 'objective', 'e_k']
    assert header[-2:] == ['delta_1', 'delta_2']


def test_solve_budget_exhaustion_exit_code(lasso_file):
    proc = run_cli(['solve', '--problem', lasso_file, '--scheme', 'exact',
                    '--rho', '1.0', '--tol', '1e-12', '--max-iters', '3'])
    assert proc.returncode == 2
    assert '(max_iters)' in proc.stdout


def test_solve_zero_budget_is_a_usage_error(lasso_file):
    proc = run_cli(['solve', '--problem', lasso_file, '--scheme',
                    'generalized', '--rho', '1.0', '--max-iters', '0'])
    assert proc.returncode == 1
    assert 'max_outer_iters' in proc.stderr
    assert 'Traceback' not in proc.stderr


def test_rho_that_is_not_finite_is_a_usage_error(lasso_file):
    for rho in ('nan', 'inf'):
        proc = run_cli(['solve', '--problem', lasso_file, '--scheme',
                        'generalized', '--rho', rho])
        assert proc.returncode == 1, rho
        assert proc.stderr.startswith('error:') and 'rho' in proc.stderr
        assert 'Traceback' not in proc.stderr


def test_tol_that_is_nan_or_negative_is_a_usage_error(lasso_file):
    for tol in ('nan', '-1'):
        proc = run_cli(['solve', '--problem', lasso_file, '--scheme',
                        'generalized', '--rho', '1', '--tol', tol])
        assert proc.returncode == 1, tol
        assert proc.stderr.startswith('error:') and 'stop_tol' in proc.stderr
        assert 'Traceback' not in proc.stderr


def test_solve_missing_file_is_an_error():
    proc = run_cli(['solve', '--problem', '/nonexistent/p.json',
                    '--scheme', 'exact', '--rho', '1.0'])
    assert proc.returncode == 1
    assert 'error:' in proc.stderr


def test_malformed_problem_file_is_an_error(tmp_path, capsys):
    docs = [{'schema': problem_io.SCHEMA, 'b': {'zeros': 3},
             'blocks': [{'A': {'kind': 'dense'}, 'f': {'kind': 'zero'},
                         'h': {'kind': 'zero'}}]},
            {'schema': problem_io.SCHEMA, 'b': [0.0]},
            {'schema': problem_io.SCHEMA, 'b': [0.0], 'blocks': 3},
            [1, 2]]
    # parts and operators that cannot be built: a group size below 1, a
    # zero map with no columns, a blur kernel with no nonzero tap, a blur
    # of an image with no rows
    zero, ident = {'kind': 'zero'}, {'kind': 'identity', 'n': 4}
    blur = {'kind': 'quadratic_ls', 'data': [1.0] * 4,
            'F': {'kind': 'blur', 'shape': [2, 2], 'kernel': [[0.0] * 3] * 3}}
    flat = {'kind': 'quadratic_ls', 'data': [1.0] * 4,
            'F': {'kind': 'blur', 'shape': [0, 4], 'kernel': [[1.0]]}}
    for rows, A, f, h in (
            (4, ident, zero, {'kind': 'group_l2', 'weight': 0.1,
                              'group_size': 0}),
            (4, ident, zero, {'kind': 'group_l2', 'weight': 0.1,
                              'group_size': -2}),
            (12, {'kind': 'zero', 'rows': 12, 'cols': -1}, zero, zero),
            (4, ident, blur, zero),
            (4, ident, flat, zero)):
        docs.append({'schema': problem_io.SCHEMA, 'b': {'zeros': rows},
                     'blocks': [{'A': A, 'f': f, 'h': h}]})
    # a given Lipschitz constant that is NaN, negative or infinite
    for bad in (float('nan'), -1.0, float('inf')):
        doc = problem_io.problem_to_dict(
            bench.make_lasso(bench.LassoConfig(n=20, d=30, seed=0)))
        doc['blocks'][0]['f']['lipschitz'] = bad
        docs.append(doc)
    for n, doc in enumerate(docs):
        path = str(tmp_path / f'bad{n}.json')
        with open(path, 'w') as fh:
            json.dump(doc, fh)
        for argv in (['solve', '--problem', path, '--scheme', 'generalized',
                      '--rho', '1'],
                     ['refsolve', '--problem', path, '--rho', '1']):
            assert cli.main(argv) == 1, argv
            err = capsys.readouterr().err
            assert err.startswith('error: '), err


def test_smooth_part_of_another_length_is_an_error(tmp_path):
    doc = {'schema': problem_io.SCHEMA, 'b': {'zeros': 2},
           'blocks': [{'A': {'kind': 'identity', 'n': 2},
                       'f': {'kind': 'quadratic_ls',
                             'F': {'kind': 'dense',
                                   'matrix': np.eye(3).tolist()},
                             'data': [1.0, 2.0, 3.0]},
                       'h': {'kind': 'zero'}}]}
    path = str(tmp_path / 'mismatch.json')
    with open(path, 'w') as fh:
        json.dump(doc, fh)
    proc = run_cli(['solve', '--problem', path, '--scheme', 'exact',
                    '--rho', '1.0'])
    assert proc.returncode == 1
    assert 'error: block 1: smooth part QuadraticLS' in proc.stderr
    assert 'Traceback' not in proc.stderr


def test_bad_usage_reports_usage():
    proc = run_cli(['solve', '--problem', 'x.json', '--scheme', 'sneaky',
                    '--rho', '1.0'])
    assert proc.returncode == 1
    assert 'usage' in proc.stderr.lower()


def test_help_exits_0(capsys):
    assert cli.main(['solve', '--help']) == 0
    assert 'usage' in capsys.readouterr().out.lower()


def test_refsolve_subcommand(tmp_path, lasso_file):
    summary = str(tmp_path / 'ref.json')
    proc = run_cli(['refsolve', '--problem', lasso_file, '--rho', '1.0',
                    '--summary', summary])
    assert proc.returncode == 0, proc.stderr
    assert 'phi_star=' in proc.stdout
    with open(summary) as fh:
        doc = json.load(fh)
    assert doc['termination'] == 'callback'
    assert doc['phi_star'] == pytest.approx(
        float(proc.stdout.split('phi_star=')[1].split()[0]), rel=1e-9)
    # a reference run cut short by its cap is not a reference
    proc = run_cli(['refsolve', '--problem', lasso_file, '--rho', '1.0',
                    '--cap', '3'])
    assert proc.returncode == 2, proc.stderr
    assert '(max_iters)' in proc.stdout
    proc = run_cli(['refsolve', '--problem', lasso_file, '--rho', '1.0',
                    '--cap', '0'])
    assert proc.returncode == 1
    assert proc.stderr.startswith('error: cap must be'), proc.stderr


def test_bench_lasso_end_to_end(tmp_path):
    out = str(tmp_path / 'out')
    proc = run_cli(['bench', 'lasso', '--n', '20', '--d', '30', '--seed',
                    '5', '--scheme', 'accelerated', '--tol', '1e-8',
                    '--out', out])
    assert proc.returncode == 0, proc.stderr
    assert 'ista reference objective:' in proc.stdout
    for name in ('problem.json', 'index.json', 'ista.json',
                 'accelerated_trace.csv', 'accelerated_summary.json',
                 'accelerated_plotdata.csv'):
        assert os.path.exists(os.path.join(out, name)), name
    with open(os.path.join(out, 'index.json')) as fh:
        index = json.load(fh)
    assert index['schemes'] == {'accelerated': 0}
    with open(os.path.join(out, 'ista.json')) as fh:
        ista = json.load(fh)
    assert abs(index['phi_star'] - ista['objective']) \
        <= 1e-6 * abs(ista['objective'])
    # the saved problem file reproduces the generated instance
    p = problem_io.load_problem(os.path.join(out, 'problem.json'))
    q = bench.make_lasso(bench.LassoConfig(n=20, d=30, seed=5))
    assert np.array_equal(p.blocks[0].f.data, q.blocks[0].f.data)


def test_bench_lasso_grades_against_the_ista_oracle(tmp_path, monkeypatch):
    def no_refsolve(*args, **kwargs):
        raise AssertionError("bench lasso ran refsolve")

    monkeypatch.setattr(cli, 'refsolve', no_refsolve)
    out = str(tmp_path / 'out')
    code = cli.main(['bench', 'lasso', '--seed', '0', '--scheme',
                     'generalized', '--out', out])
    assert code == 0
    with open(os.path.join(out, 'index.json')) as fh:
        index = json.load(fh)
    with open(os.path.join(out, 'ista.json')) as fh:
        ista = json.load(fh)
    assert index['phi_star'] == ista['objective']
    with open(os.path.join(out, 'generalized_summary.json')) as fh:
        summary = json.load(fh)
    assert summary['phi_star'] == ista['objective']
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args(['bench', 'lasso', '--out', out,
                                       '--ref-rho', '1'])


class Built(Exception):
    """Stops a command once it has built what the test inspects."""


def stop_with(got, position):
    """A stand-in that records its argument at ``position`` and stops."""
    def stand_in(*args, **kwargs):
        got.append(args[position])
        raise Built
    return stand_in


def public(obj):
    return {k: vars(v) if k in ('ls', 'relax') else v
            for k, v in vars(obj).items()}


def test_parser_defaults_match_the_library(monkeypatch):
    # the 17 flags that have a library default stay None when left out,
    # so cli.py holds none of their values
    ap = cli.build_parser()
    bare = {('bench', 'lasso', '--out', 'o'): ('n', 'd', 'nnz', 'noise_std',
                                               'beta', 'seed'),
            ('bench', 'deblur', '--out', 'o'): (
                'size', 'blur_size', 'snr_db', 'alpha_tv', 'beta_wav',
                'seed', 'haar_levels'),
            ('solve', '--problem', 'p', '--scheme', 'exact', '--rho', '1'): (
                'max_outer_iters', 'accel_schedule', 'enabled'),
            ('refsolve', '--problem', 'p', '--rho', '1'): ('cap',)}
    assert sum(len(names) for names in bare.values()) == 17
    for argv, names in bare.items():
        args = ap.parse_args(list(argv))
        assert [getattr(args, k) for k in names] == [None] * len(names)
    # ... and the bare commands build what the library builds by default
    got = []
    monkeypatch.setattr(cli, 'make_lasso', stop_with(got, 0))
    monkeypatch.setattr(cli, 'make_deblur', stop_with(got, 0))
    monkeypatch.setattr(cli, 'load_problem', lambda path: None)
    monkeypatch.setattr(cli, 'solve', stop_with(got, 1))
    monkeypatch.setattr(bench, 'solve', stop_with(got, 1))
    for argv in bare:
        with pytest.raises(Built):
            cli.main(list(argv))
    with pytest.raises(Built):
        bench.refsolve(None, 1.0)
    lasso, deblur, params, ref, want_ref = got
    assert vars(lasso) == vars(bench.LassoConfig())
    assert vars(deblur) == vars(bench.DeblurConfig())
    assert public(params) == public(outer.OuterParams(rho=1.0,
                                                      scheme='exact'))
    assert public(ref) == public(want_ref)
    assert ref.max_outer_iters == bench.REFERENCE_CAP


def test_solve_stagnation_exit_code(tmp_path):
    path = str(tmp_path / 'lasso.json')
    p = bench.make_lasso(bench.LassoConfig(n=300, d=400, seed=11))
    problem_io.save_problem(p, path)
    proc = run_cli(['solve', '--problem', path, '--scheme', 'multistep',
                    '--rho', '1.0', '--tol', '0', '--max-iters', '150'])
    assert proc.returncode == 2, proc.stderr
    assert '(stagnated)' in proc.stdout
    assert 'Traceback' not in proc.stderr


def test_runs_ending_before_their_first_iteration(tmp_path):
    # one NaN in the data: every line search gives up in iteration 1
    p = bench.make_lasso(bench.LassoConfig(n=20, d=30, seed=0))
    p.blocks[0].f.data[3] = np.nan
    path = str(tmp_path / 'nan.json')
    problem_io.save_problem(p, path)
    for args in (['solve', '--problem', path, '--scheme', 'generalized',
                  '--rho', '1.0'],
                 ['refsolve', '--problem', path, '--rho', '1.0'],
                 ['bench', 'deblur', '--size', '8', '--snr', '-6000',
                  '--out', str(tmp_path / 'out')]):
        proc = run_cli(args)
        assert proc.returncode in (1, 2), args
        assert 'Traceback' not in proc.stderr, args
        assert 'diverged' in proc.stderr, args


def test_bad_instance_settings_are_usage_errors(tmp_path):
    out = str(tmp_path / 'out')
    for args, name in (
            (['lasso', '--n', '4', '--d', '6', '--nnz', '2', '--noise-std',
              'nan'], 'noise_std'),
            (['lasso', '--n', '4', '--d', '6', '--nnz', '2', '--beta', 'nan'],
             'beta'),
            (['lasso', '--n', '4', '--d', '6', '--nnz', '2', '--beta', '-1'],
             'beta'),
            (['deblur', '--size', '8', '--snr', 'nan'], 'snr_db'),
            (['deblur', '--size', '8', '--snr', '-7000'], 'snr_db'),
            (['deblur', '--size', '8', '--alpha-tv', 'nan'], 'alpha_tv'),
            (['deblur', '--size', '8', '--beta-wav', 'inf'], 'beta_wav'),
            (['lasso', '--n', '4', '--d', '6', '--nnz', '2', '--seed', '-1'],
             'seed'),
            (['deblur', '--size', '8', '--seed', '-1'], 'seed'),
            (['deblur', '--size', '8', '--haar-levels', '0'], 'haar_levels'),
            (['deblur', '--size', '8', '--haar-levels', '4'], 'haar_levels')):
        proc = run_cli(['bench', *args, '--out', out], timeout=60)
        assert proc.returncode == 1, args
        assert proc.stderr.startswith('error: ') and name in proc.stderr, \
            proc.stderr
        assert 'Traceback' not in proc.stderr, args
    assert not os.path.exists(out)


def test_bench_lasso_oracle_on_overflowing_data_is_an_error(tmp_path):
    # the oracle used to run its whole budget on NaN and exit 2, and then
    # printed numpy's overflow warnings before its error
    out = str(tmp_path / 'out')
    for shape, message in (
            (['--n', '4', '--d', '6', '--nnz', '2'], 'error: ista_oracle'),
            ([], 'noise_std')):
        proc = run_cli(['bench', 'lasso', *shape, '--noise-std', '1e308',
                        '--out', out], timeout=60)
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr.startswith('error: ') and message in proc.stderr, \
            proc.stderr
        assert 'RuntimeWarning' not in proc.stderr
        assert 'Traceback' not in proc.stderr
        assert not os.path.exists(out)


def test_bench_deblur_default_tol_is_reachable(tmp_path):
    out = str(tmp_path / 'out')
    proc = run_cli(['bench', 'deblur', '--size', '8', '--scheme',
                    'generalized', '--max-iters', '3000', '--out', out])
    assert proc.returncode == 0, proc.stdout + proc.stderr
    with open(os.path.join(out, 'generalized_summary.json')) as fh:
        summary = json.load(fh)
    assert summary['converged'] and summary['stop_tol'] == 1e-3


def test_bench_all_schemes(tmp_path):
    out = str(tmp_path / 'out')
    proc = run_cli(['bench', 'lasso', '--n', '30', '--d', '60', '--nnz',
                    '4', '--seed', '6', '--tol', '1e-7', '--out', out])
    assert proc.returncode == 0, proc.stderr
    with open(os.path.join(out, 'index.json')) as fh:
        index = json.load(fh)
    assert sorted(index['schemes']) == ['accelerated', 'exact',
                                        'generalized', 'multistep']
    assert set(index['schemes'].values()) == {0}
