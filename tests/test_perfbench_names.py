"""The benchmark under perfbench/ wraps package functions by module attribute.

Installing its tracers looks every wrapped name up, so a rename or deletion
in kernels, autodiff, blocks, model or trainer that would break
perfbench/run.py fails here first. The benchmark's traced runs also fail
unless the forward MACs its span counters see equal analyzer.count_macs and
the span self times add up; the second test runs both checks on small inputs.
The last two tests pin the traced peak allocation of the infer-xxs and
train-micro workloads.
"""

import pathlib

import numpy as np
import pytest

from effmod import analyzer, autodiff, model

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


@pytest.mark.parametrize(
    "preset, res, batch, dtype, backward",
    [("xxs", 64, 1, np.float32, False), ("micro", 32, 2, np.float64, True)],
)
def test_traced_macs_match_the_analyzer(monkeypatch, preset, res, batch, dtype, backward):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    m = model.build_model(model.build_preset(preset), seed=1, dtype=dtype)
    x = np.random.default_rng(1).standard_normal((batch, 3, res, res)).astype(dtype)
    tracer = spans.Tracer()
    with tracer.installed(), tracer.root():
        if backward:
            autodiff.backward(autodiff.sum_all(model.model_forward(m, x)))
        else:
            with autodiff.no_grad():
                model.model_forward(m, x)
    assert tracer.images == batch
    assert tracer.fwd_macs == analyzer.count_macs(m, (res, res)) * batch
    assert tracer.analyze()["errors"] == []


def test_infer_xxs_peak_alloc_stays_under_2_5_mb(monkeypatch):
    """The benchmark's own probe of one f32 224x224 no_grad forward.

    The r*c value map and the stem's im2col run in row bands, attention's
    softmax overwrites its scores, the depthwise convs run in tiles, f32 gelu
    in chunks, and a no_grad modulate writes into the ctx it consumes; the
    peak then sits in stage 0's modulate, at its value-map band (1.82 MB).
    """
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    w = workloads.InferXXS(1)
    w.setup()
    assert workloads.peak_alloc_bytes(w) <= 2.5e6


def test_train_micro_peak_alloc_stays_under_4_95_mb(monkeypatch):
    """The benchmark's own probe: one f64 batch-32 step and one eval pass on 40 images.

    train gathers each batch by index instead of copying its split (0.49 MB of
    images), each residual keeps its branch and scale, not their product, and
    autodiff.modulate keeps v but not the modulation product, which its VJP
    remakes. The peak then sits in stage 1's value-map VJP inside modulate
    (stage1.block0, 4.81 MB): v's cotangent and tensordot's transposed copy of it.
    """
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    w = workloads.TrainMicro(1)
    w.setup()
    assert workloads.peak_alloc_bytes(w) <= 4.95e6
