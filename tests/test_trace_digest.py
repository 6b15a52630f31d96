"""The trace-digest tool runs its quick set: one well-formed line per
solve."""

import os
import re
import subprocess
import sys

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
