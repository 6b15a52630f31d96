"""The perfbench span tracer finds every library name it wraps."""

import os

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
