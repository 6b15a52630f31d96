"""Problem file round-trips."""

import functools
import json
import operator

import numpy as np
import pytest

from bosvs import bench, cli, linops, problem, problem_io, prox
from bosvs.errors import BadDims, DimensionMismatch


def test_lasso_roundtrip(tmp_path):
    p = bench.make_lasso(bench.LassoConfig(n=12, d=18, nnz=3, seed=5))
    path = str(tmp_path / 'lasso.json')
    problem_io.save_problem(p, path)
    q = problem_io.load_problem(path)
    assert q.m == p.m and q.dims == p.dims and q.rows == p.rows
    assert np.array_equal(q.b, p.b)
    rng = np.random.default_rng(0)
    v = rng.standard_normal(p.n)
    assert problem.objective(q, v) == problem.objective(p, v)
    assert np.array_equal(q.blocks[0].A.to_dense(), np.eye(12))
    assert np.array_equal(q.blocks[1].A.to_dense(), -np.eye(12))
    assert np.array_equal(q.blocks[0].f.F.to_dense(),
                          p.blocks[0].f.F.to_dense())


def test_deblur_roundtrip(tmp_path):
    p = bench.make_deblur(bench.DeblurConfig(size=8))
    path = str(tmp_path / 'deblur.json')
    problem_io.save_problem(p, path)
    q = problem_io.load_problem(path)
    assert q.dims == p.dims
    rng = np.random.default_rng(1)
    v = rng.standard_normal(p.n)
    assert problem.objective(q, v) == pytest.approx(
        problem.objective(p, v), rel=1e-15)
    for i in range(3):
        assert np.array_equal(q.blocks[i].A.to_dense(),
                              p.blocks[i].A.to_dense())
    # b is all zeros and should be stored in the compact form
    with open(path) as fh:
        doc = json.load(fh)
    assert doc['b'] == {'zeros': p.rows}
    assert doc['schema'] == problem_io.SCHEMA


def test_identity_scale_variants():
    for scale in (1.0, -1.0, 2.5):
        op = linops.ScaledIdentityOp(5, scale)
        spec = problem_io._op_to_spec(op)
        back = problem_io._op_from_spec(spec)
        assert np.array_equal(back.to_dense(), op.to_dense())
    assert problem_io._op_to_spec(linops.IdentityOp(4))['kind'] == 'identity'
    assert problem_io._op_to_spec(linops.NegIdentityOp(4))['kind'] \
        == 'negidentity'


def test_nonsmooth_roundtrip():
    lo = np.array([-1.0, 0.0])
    hi = np.array([1.0, 2.0])
    spec = problem_io._nonsmooth_to_spec(prox.BoxIndicator(lo, hi))
    back = problem_io._nonsmooth_from_spec(spec)
    assert np.array_equal(back.lo, lo) and np.array_equal(back.hi, hi)
    g = problem_io._nonsmooth_from_spec({'kind': 'group_l2', 'weight': 0.3})
    assert g.weight == 0.3 and g.group_size == 2


def test_left_out_keys_take_the_constructors_defaults():
    doc = {'schema': problem_io.SCHEMA, 'b': {'zeros': 16},
           'blocks': [{'A': {'kind': 'haar', 'shape': [4, 4]},
                       'f': {'kind': 'zero'},
                       'h': {'kind': 'group_l2', 'weight': 0.3}},
                      {'A': {'kind': 'identity', 'n': 16},
                       'f': {'kind': 'zero'}, 'h': {'kind': 'zero'}},
                      {'A': {'kind': 'negidentity', 'n': 16},
                       'f': {'kind': 'zero'}, 'h': {'kind': 'zero'}}]}
    blocks = problem_io.problem_from_dict(doc).blocks
    haar, ident, neg = (blk.A for blk in blocks)
    group = blocks[0].h
    assert haar.levels == linops.HaarTransform(4, 4).levels
    assert group.group_size == prox.GroupL2(0.3).group_size
    assert ident.scalar == linops.ScaledIdentityOp(16).scalar
    assert neg.scalar == -linops.ScaledIdentityOp(16).scalar


def test_smooth_roundtrip_keeps_a_given_lipschitz():
    rng = np.random.default_rng(2)
    F = linops.DenseOp(rng.standard_normal((6, 3)))
    for lipschitz in (None, 7.25):
        f = prox.QuadraticLS(F, rng.standard_normal(6), lipschitz=lipschitz)
        spec = json.loads(json.dumps(problem_io._smooth_to_spec(f)))
        back = problem_io._smooth_from_spec(spec)
        assert ('lipschitz' in spec) == (lipschitz is not None)
        assert back.lipschitz == f.lipschitz
        assert np.array_equal(back.data, f.data)


def test_rejects_a_lipschitz_that_is_not_finite_and_nonnegative(tmp_path):
    doc = problem_io.problem_to_dict(
        bench.make_lasso(bench.LassoConfig(n=20, d=30, seed=0)))
    for bad in (float('nan'), -1.0, float('inf')):
        doc['blocks'][0]['f']['lipschitz'] = bad
        path = str(tmp_path / 'bad.json')
        with open(path, 'w') as fh:
            json.dump(doc, fh)
        with pytest.raises(ValueError, match='lipschitz'):
            problem_io.load_problem(path)


def test_rejects_a_blur_kernel_that_is_not_finite(tmp_path):
    # the exact scheme's CG spun to its cap on such a file
    doc = problem_io.problem_to_dict(
        bench.make_deblur(bench.DeblurConfig(size=8)))
    doc['blocks'][0]['f']['F']['kernel'][1][1] = float('nan')
    path = str(tmp_path / 'bad.json')
    with open(path, 'w') as fh:
        json.dump(doc, fh)
    with pytest.raises(ValueError, match='kernel'):
        problem_io.load_problem(path)


def test_rejects_integer_fields_that_are_not_integers(tmp_path, capsys):
    # these loaded truncated (3.7 as 3) or converted ("64" as 64) before
    base = problem_io.problem_to_dict(
        bench.make_deblur(bench.DeblurConfig(size=8)))
    u, aux = ('blocks', 0, 'A', 'parts'), ('blocks', 1)
    edits = [(('b',), 'zeros', 191.9),
             (u + (0,), 'shape', [8.5, 8]),             # diff2d
             (u + (1,), 'shape', [8, 8.0]),             # haar
             (u + (1,), 'levels', 1.9),
             (('blocks', 0, 'f', 'F'), 'shape', ['8', 8]),  # blur
             (aux + ('A', 'parts', 0), 'n', 128.7),     # negidentity
             (aux + ('A', 'parts', 1), 'rows', '64'),   # zero
             (aux + ('A', 'parts', 1), 'cols', 128.5),
             (aux + ('h',), 'group_size', 2.5)]
    for n, (where, field, value) in enumerate(edits):
        doc = json.loads(json.dumps(base))
        spec = functools.reduce(operator.getitem, where, doc)
        assert field in spec
        spec[field] = value
        path = str(tmp_path / f'bad{n}.json')
        with open(path, 'w') as fh:
            json.dump(doc, fh)
        with pytest.raises(BadDims, match=f'^{field} must be an integer'):
            problem_io.load_problem(path)
        assert cli.main(['solve', '--problem', path, '--scheme',
                         'generalized', '--rho', '1']) == 1
        err = capsys.readouterr().err
        assert err.startswith(f'error: {field} must be an integer'), err


def test_rejects_unknown_schema_and_kinds():
    with pytest.raises(ValueError):
        problem_io.problem_from_dict({'schema': 'bosvs-problem/99',
                                      'b': [0.0], 'blocks': []})
    with pytest.raises(ValueError):
        problem_io._op_from_spec({'kind': 'toeplitz'})
    with pytest.raises(ValueError):
        problem_io._smooth_from_spec({'kind': 'huber'})
    with pytest.raises(ValueError):
        problem_io._nonsmooth_from_spec({'kind': 'nuclear'})
    # the embedded-identity keys are not read: the block keeps n rows
    embedded = {'kind': 'identity', 'n': 3, 'rows': 7, 'row_offset': 2}
    with pytest.raises(DimensionMismatch):
        problem_io.problem_from_dict({
            'schema': problem_io.SCHEMA, 'b': {'zeros': 7},
            'blocks': [{'A': embedded, 'f': {'kind': 'zero'},
                        'h': {'kind': 'zero'}}]})

    class Weird:
        pass

    with pytest.raises(ValueError):
        problem_io._op_to_spec(Weird())
    with pytest.raises(ValueError):
        problem_io._smooth_to_spec(Weird())
    with pytest.raises(ValueError):
        problem_io._nonsmooth_to_spec(Weird())
