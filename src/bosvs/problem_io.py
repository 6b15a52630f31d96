"""Schema-versioned problem files.

JSON documents with a ``schema`` tag. Coupling operators are either
dense matrices (nested arrays) or named structured operators: "haar",
"diff2d", "blur", "identity", "negidentity", "zero", plus a "vstack"
combinator so stacked blocks like [-I; 0] round-trip structurally.
Smooth parts come from the registry "quadratic_ls" / "zero", nonsmooth
parts from "l1" / "group_l2" / "box" / "zero". The right-hand side is a
plain list or {"zeros": n}.
"""

import json
import numbers

import numpy as np

from .errors import as_int
from .linops import (BlurOperator, DenseOp, DiffOperator, HaarTransform,
                     ScaledIdentityOp, VStackOp, ZeroOp)
from .problem import Block, Problem
from .prox import (BoxIndicator, GroupL2, QuadraticLS, ScaledL1, ZeroProx,
                   ZeroSmooth)

__all__ = ['SCHEMA', 'save_problem', 'load_problem', 'problem_to_dict',
           'problem_from_dict']

SCHEMA = 'bosvs-problem/1'


def _given(spec, key):
    """The key's entry, if any: a part's constructor supplies the default."""
    return {key: spec[key]} if key in spec else {}


def _reals(spec, key):
    """The key's entry as a float array, refusing a string, bool, null or
    ragged entry by the field's name (``np.asarray([1, True])`` is ints)."""
    a = np.array(spec[key], dtype=object)
    if not all(issubclass(t, numbers.Real) and t is not bool
               for t in set(map(type, a.flat))):
        raise ValueError(f"{key} must be an array of real numbers")
    return a.astype(float)


def _op_to_spec(op):
    if isinstance(op, DenseOp):
        return {'kind': 'dense', 'matrix': op.to_dense().tolist()}
    if isinstance(op, ScaledIdentityOp):
        if op.scalar == 1.0:
            return {'kind': 'identity', 'n': op.cols}
        if op.scalar == -1.0:
            return {'kind': 'negidentity', 'n': op.cols}
        return {'kind': 'identity', 'n': op.cols, 'scale': op.scalar}
    if isinstance(op, ZeroOp):
        return {'kind': 'zero', 'rows': op.rows, 'cols': op.cols}
    if isinstance(op, HaarTransform):
        return {'kind': 'haar', 'shape': [op.imrows, op.imcols],
                'levels': op.levels}
    if isinstance(op, DiffOperator):
        return {'kind': 'diff2d', 'shape': [op.imrows, op.imcols]}
    if isinstance(op, BlurOperator):
        return {'kind': 'blur', 'shape': [op.imrows, op.imcols],
                'kernel': op.kernel.tolist()}
    if isinstance(op, VStackOp):
        return {'kind': 'vstack', 'parts': [_op_to_spec(q) for q in op.parts]}
    raise ValueError(f"cannot serialize operator {type(op).__name__}")


def _op_from_spec(spec):
    kind = spec['kind']
    if kind == 'dense':
        return DenseOp(_reals(spec, 'matrix'))
    if kind in ('identity', 'negidentity'):
        op = ScaledIdentityOp(spec['n'], **_given(spec, 'scale'))
        if kind == 'negidentity':
            op.scalar = -op.scalar
        return op
    if kind == 'zero':
        return ZeroOp(spec['rows'], spec['cols'])
    if kind == 'haar':
        r, c = spec['shape']
        return HaarTransform(r, c, **_given(spec, 'levels'))
    if kind == 'diff2d':
        r, c = spec['shape']
        return DiffOperator(r, c)
    if kind == 'blur':
        r, c = spec['shape']
        return BlurOperator(r, c, _reals(spec, 'kernel'))
    if kind == 'vstack':
        return VStackOp([_op_from_spec(q) for q in spec['parts']])
    raise ValueError(f"unknown operator kind {kind!r}")


def _smooth_to_spec(f):
    if isinstance(f, ZeroSmooth):
        return {'kind': 'zero'}
    if isinstance(f, QuadraticLS):
        spec = {'kind': 'quadratic_ls', 'F': _op_to_spec(f.F),
                'data': f.data.tolist()}
        if f._lipschitz is not None:
            spec['lipschitz'] = f._lipschitz
        return spec
    raise ValueError(f"cannot serialize smooth part {type(f).__name__}")


def _smooth_from_spec(spec):
    kind = spec['kind']
    if kind == 'zero':
        return ZeroSmooth()
    if kind == 'quadratic_ls':
        return QuadraticLS(_op_from_spec(spec['F']), _reals(spec, 'data'),
                           lipschitz=spec.get('lipschitz'))
    raise ValueError(f"unknown smooth kind {kind!r}")


def _nonsmooth_to_spec(h):
    if isinstance(h, ZeroProx):
        return {'kind': 'zero'}
    if isinstance(h, ScaledL1):
        return {'kind': 'l1', 'weight': h.weight}
    if isinstance(h, GroupL2):
        return {'kind': 'group_l2', 'weight': h.weight,
                'group_size': h.group_size}
    if isinstance(h, BoxIndicator):
        return {'kind': 'box', 'lo': h.lo.tolist(), 'hi': h.hi.tolist()}
    raise ValueError(f"cannot serialize nonsmooth part {type(h).__name__}")


def _nonsmooth_from_spec(spec):
    kind = spec['kind']
    if kind == 'zero':
        return ZeroProx()
    if kind == 'l1':
        return ScaledL1(spec['weight'])
    if kind == 'group_l2':
        return GroupL2(spec['weight'], **_given(spec, 'group_size'))
    if kind == 'box':
        return BoxIndicator(_reals(spec, 'lo'), _reals(spec, 'hi'))
    raise ValueError(f"unknown nonsmooth kind {kind!r}")


def problem_to_dict(p):
    b = p.b
    bspec = {'zeros': int(b.size)} if not b.any() else b.tolist()
    return {
        'schema': SCHEMA,
        'b': bspec,
        'blocks': [{'A': _op_to_spec(blk.A),
                    'f': _smooth_to_spec(blk.f),
                    'h': _nonsmooth_to_spec(blk.h)} for blk in p.blocks],
    }


def problem_from_dict(doc):
    """Build a Problem from a parsed document; a malformed one raises
    ValueError saying what is wrong with it."""
    if not isinstance(doc, dict):
        raise ValueError("a problem document is a JSON object, not "
                         f"{type(doc).__name__}")
    if doc.get('schema') != SCHEMA:
        raise ValueError(f"unsupported schema {doc.get('schema')!r}, "
                         f"expected {SCHEMA!r}")
    try:
        b = np.zeros(as_int('zeros', doc['b']['zeros'], 1)) \
            if isinstance(doc['b'], dict) else _reals(doc, 'b')
        blocks = [Block(_op_from_spec(e['A']), _smooth_from_spec(e['f']),
                        _nonsmooth_from_spec(e['h'])) for e in doc['blocks']]
    except KeyError as exc:
        raise ValueError(f"problem document lacks the key {exc}") from None
    except TypeError as exc:
        raise ValueError(f"malformed problem document: {exc}") from None
    return Problem(blocks, b)


def save_problem(p, path):
    with open(path, 'w') as fh:
        json.dump(problem_to_dict(p), fh, sort_keys=True)
        fh.write('\n')


def load_problem(path):
    with open(path) as fh:
        return problem_from_dict(json.load(fh))
