"""Every name a bosvs module imports is used or listed in its ``__all__``;
a ``noqa`` comment exempts nothing. scipy.linalg and scipy.sparse.linalg
load only in processes that call them."""

import ast
import glob
import json
import os
import subprocess
import sys

import bosvs


def unused_imports(source):
    tree = ast.parse(source)
    imported = set()
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported |= {a.asname or a.name.split('.')[0] for a in node.names}
        elif isinstance(node, ast.Assign) and any(
                getattr(t, 'id', None) == '__all__' for t in node.targets):
            exported |= set(ast.literal_eval(node.value))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used - exported)


def test_checker_finds_an_unused_import():
    source = ("import os\nimport os.path as osp\nimport sys  # noqa\n"
              "from json import dumps, loads\n__all__ = ['dumps']\n"
              "osp.join('a')\n")
    assert unused_imports(source) == ['loads', 'os', 'sys']


def test_no_module_imports_an_unused_name():
    paths = sorted(glob.glob(os.path.join(os.path.dirname(bosvs.__file__),
                                          '*.py')))
    assert len(paths) > 5
    for path in paths:
        with open(path) as fh:
            unused = unused_imports(fh.read())
        assert not unused, f"{os.path.basename(path)} imports {unused}"


FOOTPRINT = '''
import json, sys
import numpy, scipy.fft, scipy.sparse
base = {m for m in sys.modules if m.startswith('scipy')}
from bosvs import bench, outer


def solve(cfg, scheme):
    lasso = isinstance(cfg, bench.LassoConfig)
    p = (bench.make_lasso if lasso else bench.make_deblur)(cfg)
    res = outer.solve(p, outer.OuterParams(
        rho=1.0 if lasso else 5e-4, scheme=scheme,
        stop_tol=None if lasso else 1e-3, max_outer_iters=3000),
        raise_on_maxiter=False)
    return [res.reason, res.iterations,
            sum(sum(r.inner_iters) for r in res.trace), res.x.tolist()]


case = sys.argv[1]
out = {'imported': sorted({m for m in sys.modules
                           if m.startswith('scipy')} - base)}
if case == 'deblur8':
    cfg = bench.DeblurConfig(size=8)
    out['runs'] = [solve(cfg, s)[:3] for s in outer.SCHEMES]
elif case == 'lasso':
    out['runs'] = [solve(bench.LassoConfig(n=20, d=30), 'exact')[:3]]
else:   # a 5x5 blur has no structured Gram: the exact scheme takes CG
    cfg = bench.DeblurConfig(size=8, blur_size=5)
    out['runs'] = [solve(cfg, 'exact'), solve(cfg, 'exact')]
out['loaded'] = sorted({m for m in sys.modules if m.startswith('scipy')}
                       - base)
print(json.dumps(out))
'''


def footprint(case):
    """The scipy modules a fresh process loads beyond numpy, scipy.fft and
    scipy.sparse: after ``import bosvs`` and after the case's solves."""
    proc = subprocess.run([sys.executable, '-c', FOOTPRINT, case],
                          capture_output=True, text=True, timeout=300,
                          env=dict(os.environ, OPENBLAS_NUM_THREADS='1'))
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_scipy_linalg_modules_load_only_where_they_are_called():
    # scipy.linalg serves only dense Grams and the dense direct solve, and
    # scipy.sparse.linalg only the exact scheme's CG fallback; a deblur
    # process with structured Grams loads neither, at any scipy version
    out = footprint('deblur8')
    assert out['imported'] == [] and out['loaded'] == []
    assert [r[0] for r in out['runs']] == ['converged'] * 4
    out = footprint('lasso')
    assert out['imported'] == []
    assert 'scipy.linalg' in out['loaded']
    assert 'scipy.sparse.linalg' not in out['loaded']
    assert out['runs'][0][0] == 'converged'
    # the second CG solve runs with the module already loaded; loading it
    # in the middle of the first changes no count and no bit
    out = footprint('cg')
    assert out['imported'] == []
    assert 'scipy.sparse.linalg' in out['loaded']
    first, again = out['runs']
    assert first == again and first[0] == 'converged'
    assert first[2] > first[1]      # CG iterations, not one per solve
