"""The benchmark under perfbench/ wraps package functions by module attribute.

Installing its tracers looks every wrapped name up, so a rename or deletion
in kernels, autodiff, blocks, model or trainer that would break
perfbench/run.py fails here first.
"""

import pathlib

from effmod import autodiff, model

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def test_benchmark_tracers_install_and_restore(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    forward, backward = model.model_forward, autodiff.backward
    with spans.Tracer().installed():
        assert model.model_forward is not forward
    with spans.TapeProbe().installed():
        assert autodiff.backward is not backward
    assert model.model_forward is forward and autodiff.backward is backward
