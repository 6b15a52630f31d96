"""The trace-digest tool runs its quick set: one well-formed line per
solve; and a lasso solve's digest repeats at a fixed BLAS thread count."""

import os
import re
import subprocess
import sys

import pytest

TOOL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), 'tools', 'trace_digest.py')
LINE = re.compile(r'(lasso20x30-0|deblur8) '
                  r'(generalized|multistep|accelerated|exact) '
                  r'(converged|max_iters|stagnated|diverged|callback) '
                  r'\d+ \d+ [0-9a-f]{64}')


def test_quick_digest_prints_one_line_per_solve():
    proc = subprocess.run([sys.executable, TOOL, '--quick'],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 8
    assert all(LINE.fullmatch(line) for line in lines), lines
    assert len({line.split()[1] for line in lines}) == 4


TWO_THREAD_RUN = '''
import sys
sys.path[:0] = {paths!r}
from bosvs import bench, outer
from trace_digest import digest
p = bench.make_lasso(bench.LassoConfig(n=300, d=400, seed=0))
res = outer.solve(p, outer.OuterParams(rho=1.0, scheme={scheme!r},
                                       max_outer_iters=1000),
                  raise_on_maxiter=False)
print(res.reason, res.iterations, digest(res))
'''


@pytest.mark.parametrize('scheme', ['multistep', 'exact'])
def test_two_thread_runs_repeat_their_bits(scheme):
    # lasso bits depend on the BLAS thread count (the cached F^T F, its
    # products and the exact scheme's symv over (F^T F + rho I)^{-1} split
    # their sums by thread), so they are checked to repeat at a fixed
    # count, not to agree between counts
    root = os.path.dirname(os.path.dirname(TOOL))
    code = TWO_THREAD_RUN.format(paths=[os.path.join(root, 'src'),
                                        os.path.dirname(TOOL)],
                                 scheme=scheme)
    env = dict(os.environ, OPENBLAS_NUM_THREADS='2', OMP_NUM_THREADS='2',
               MKL_NUM_THREADS='2')
    outs = []
    for _ in range(2):
        proc = subprocess.run([sys.executable, '-c', code], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0].startswith('converged ')
    assert outs[0] == outs[1]
