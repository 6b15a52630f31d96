"""The perfbench span tracer finds every library name it wraps, and the
benchmark's independent checks accept the library's answers."""

import os
import subprocess
import sys

from bosvs import inner, outer

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), 'perfbench')


def test_tracer_installs_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    import spans

    originals = (outer.solve, outer.generalized_step, inner._composite_argmin)
    tracer = spans.Tracer()
    try:
        tracer.install()
        assert outer.solve is not originals[0]
    finally:
        tracer.uninstall()
    assert (outer.solve, outer.generalized_step,
            inner._composite_argmin) == originals


def test_perfbench_selftest_passes():
    proc = subprocess.run([sys.executable,
                           os.path.join(PERFBENCH, 'selftest.py')],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
