"""Every demo script runs to completion against the current library."""

import glob
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = sorted(glob.glob(os.path.join(ROOT, 'demos', '*.py')))


@pytest.mark.parametrize('path', DEMOS, ids=os.path.basename)
def test_demo_runs(path, tmp_path):
    src = os.path.join(ROOT, 'src')
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get('PYTHONPATH')])))
    proc = subprocess.run([sys.executable, path], capture_output=True,
                          text=True, env=env, cwd=tmp_path, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
