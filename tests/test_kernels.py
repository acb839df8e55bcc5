"""Kernel-level tests against independent naive-loop oracles.

The oracles here are written from the mathematical definitions with plain
Python loops and scalar accumulation, on purpose sharing no code with the
package kernels. Frozen constants were computed once from those oracles (or
closed forms) and are asserted directly.
"""

import ast
import math
import pathlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from effmod import autodiff as ad
from effmod import kernels
from effmod.errors import ConfigError, PreconditionError
from effmod.kernels import (
    ConvSpec,
    batched_matmul,
    conv2d,
    conv2d_vjp,
    fuse_modulate,
    gelu,
    gelu_grad,
    global_avg_pool,
    layer_norm,
    layer_norm_vjp,
    pointwise,
    sigmoid,
    softmax,
)

RNG = np.random.default_rng(20240817)


# ------------------------------------------------------------- oracles


def conv2d_oracle(x, w, b, stride=1, dilation=1, groups=1, pad=0):
    """Direct per-output-pixel accumulation; the definition, slowly."""
    n, c_in, h, wd = x.shape
    c_out, cig, k, _ = w.shape
    xp = np.zeros((n, c_in, h + 2 * pad, wd + 2 * pad), dtype=np.float64)
    xp[:, :, pad : pad + h, pad : pad + wd] = x
    span = dilation * (k - 1) + 1
    oh = (h + 2 * pad - span) // stride + 1
    ow = (wd + 2 * pad - span) // stride + 1
    cog = c_out // groups
    out = np.zeros((n, c_out, oh, ow), dtype=np.float64)
    for ni in range(n):
        for co in range(c_out):
            g = co // cog
            for oi in range(oh):
                for oj in range(ow):
                    acc = 0.0
                    for ci in range(cig):
                        for ki in range(k):
                            for kj in range(k):
                                acc += (
                                    xp[ni, g * cig + ci, oi * stride + ki * dilation,
                                       oj * stride + kj * dilation]
                                    * w[co, ci, ki, kj]
                                )
                    acc += b[co]
                    out[ni, co, oi, oj] = acc
    return out


def matmul_oracle(a, b):
    """Triple loop over the last two axes, python-float accumulation."""
    batch = a.shape[:-2]
    m, kk = a.shape[-2:]
    nn = b.shape[-1]
    out = np.zeros(batch + (m, nn), dtype=np.float64)
    for idx in np.ndindex(*batch):
        for i in range(m):
            for j in range(nn):
                acc = 0.0
                for t in range(kk):
                    acc += float(a[idx + (i, t)]) * float(b[idx + (t, j)])
                out[idx + (i, j)] = acc
    return out


def layer_norm_oracle(x, gamma, beta):
    """Per-position mean/variance over the channels of a map, in python floats, then affine."""
    c = x.shape[1]
    moved = np.moveaxis(x, 1, -1)
    out = np.empty_like(moved, dtype=np.float64)
    for idx in np.ndindex(*moved.shape[:-1]):
        row = [float(v) for v in moved[idx]]
        mu = sum(row) / c
        var = sum((v - mu) ** 2 for v in row) / c
        inv = 1.0 / math.sqrt(var + kernels.LN_EPS)
        out[idx] = [gamma[i] * (row[i] - mu) * inv + beta[i] for i in range(c)]
    return np.moveaxis(out, -1, 1)


def softmax_oracle(x, axis):
    moved = np.moveaxis(np.asarray(x, dtype=np.float64), axis, -1)
    out = np.empty_like(moved)
    for idx in np.ndindex(*moved.shape[:-1]):
        row = moved[idx]
        m = float(row.max())
        e = [math.exp(float(v) - m) for v in row]
        s = sum(e)
        out[idx] = [v / s for v in e]
    return np.moveaxis(out, -1, axis)


def rel_err(a, b):
    denom = max(np.abs(a).max(), np.abs(b).max(), 1e-12)
    return np.abs(a - b).max() / denom


# --------------------------------------------------------------- conv2d


def test_conv_ones_same_padding():
    x = np.ones((1, 1, 3, 3))
    w = np.ones((1, 1, 3, 3))
    out = conv2d(x, w, np.zeros(1), ConvSpec(3))
    expected = np.array([[4.0, 6.0, 4.0], [6.0, 9.0, 6.0], [4.0, 6.0, 4.0]])
    np.testing.assert_array_equal(out[0, 0], expected)


def test_conv_identity_1x1():
    x = RNG.normal(size=(2, 3, 5, 5))
    w = np.eye(3).reshape(3, 3, 1, 1)
    out = conv2d(x, w, np.zeros(3), ConvSpec(1))
    np.testing.assert_allclose(out, x, rtol=0, atol=1e-15)


def test_conv_zero_input():
    w = RNG.normal(size=(4, 2, 3, 3))
    out = conv2d(np.zeros((1, 2, 6, 6)), w, np.zeros(4), ConvSpec(3))
    assert not out.any()


CONV_ORACLE_CASES = [
    dict(n=2, c_in=3, c_out=4, h=7, w=6, k=3, stride=1, dilation=1, groups=1, bias=True),
    dict(n=1, c_in=4, c_out=4, h=8, w=8, k=5, stride=1, dilation=1, groups=4, bias=True),
    dict(n=2, c_in=6, c_out=6, h=9, w=9, k=3, stride=1, dilation=3, groups=6, bias=False),
    dict(n=1, c_in=3, c_out=5, h=9, w=8, k=7, stride=4, dilation=1, groups=1, bias=True),
    dict(n=1, c_in=2, c_out=2, h=9, w=9, k=7, stride=1, dilation=3, groups=2, bias=True),
    dict(n=2, c_in=3, c_out=3, h=9, w=8, k=3, stride=2, dilation=1, groups=3, bias=True),
    dict(n=1, c_in=4, c_out=4, h=11, w=10, k=5, stride=4, dilation=1, groups=4, bias=False),
    dict(n=2, c_in=3, c_out=3, h=7, w=6, k=3, stride=1, dilation=1, groups=3, bias=True,
         padding=0),
    dict(n=1, c_in=3, c_out=3, h=5, w=4, k=3, stride=2, dilation=1, groups=3, bias=True,
         padding=4),
    dict(n=2, c_in=4, c_out=4, h=8, w=9, k=3, stride=1, dilation=2, groups=4, bias=False),
    dict(n=2, c_in=5, c_out=5, h=1, w=1, k=7, stride=1, dilation=1, groups=5, bias=True),
    dict(n=2, c_in=5, c_out=5, h=2, w=2, k=7, stride=1, dilation=1, groups=5, bias=True),
    dict(n=3, c_in=4, c_out=4, h=5, w=9, k=7, stride=1, dilation=1, groups=4, bias=True),
    dict(n=1, c_in=6, c_out=6, h=10, w=7, k=7, stride=1, dilation=1, groups=6, bias=True,
         dtype=np.float32),
    dict(n=1, c_in=2, c_out=2, h=1, w=1, k=1, stride=4, dilation=1, groups=2, bias=True,
         padding=2),
    # the micro training step's first depthwise shape: the whole-map route
    dict(n=32, c_in=8, c_out=8, h=8, w=8, k=7, stride=1, dilation=1, groups=8, bias=True),
    dict(n=8, c_in=3, c_out=3, h=4, w=6, k=7, stride=1, dilation=1, groups=3, bias=True,
         dtype=np.float32),
    # batch 1 at a map wide enough for the band route
    dict(n=1, c_in=4, c_out=4, h=14, w=16, k=7, stride=1, dilation=1, groups=4, bias=True),
    # dense im2col in bands of output rows under a small BAND_BYTES (bands: the row counts)
    dict(n=2, c_in=3, c_out=5, h=21, w=15, k=7, stride=4, dilation=1, groups=1, bias=True,
         band_bytes=2 * 2 * 3 * 49 * 4 * 8, bands=[2, 2, 2]),
    dict(n=1, c_in=2, c_out=3, h=7, w=5, k=3, stride=1, dilation=1, groups=1, bias=True,
         band_bytes=3 * 2 * 9 * 5 * 4, bands=[3, 3, 1], dtype=np.float32),
    dict(n=2, c_in=2, c_out=3, h=1, w=1, k=1, stride=4, dilation=1, groups=1, bias=True,
         padding=2, band_bytes=1, bands=[2]),
    # batch 1 with more than 2 * TILE_COLS output columns: tiles of TILE_COLS columns
    dict(n=1, c_in=2, c_out=2, h=5, w=61, k=7, stride=1, dilation=1, groups=2, bias=True),
    dict(n=1, c_in=2, c_out=2, h=6, w=64, k=7, stride=2, dilation=1, groups=2, bias=True),
    dict(n=1, c_in=2, c_out=2, h=9, w=120, k=5, stride=4, dilation=1, groups=2, bias=False),
    dict(n=1, c_in=2, c_out=2, h=6, w=40, k=7, stride=1, dilation=2, groups=2, bias=True),
    dict(n=1, c_in=2, c_out=2, h=5, w=50, k=7, stride=1, dilation=3, groups=2, bias=True),
    dict(n=1, c_in=2, c_out=2, h=8, w=40, k=7, stride=1, dilation=1, groups=2, bias=True,
         padding=0),
    dict(n=1, c_in=2, c_out=2, h=3, w=30, k=3, stride=1, dilation=1, groups=2, bias=True,
         padding=30),
    # ... with the product in channel blocks of 2 and 1 under a small TILE_BYTES
    dict(n=1, c_in=3, c_out=3, h=4, w=58, k=7, stride=1, dilation=1, groups=3, bias=True,
         dtype=np.float32, tile_bytes=2000),
]
CONV_ORACLE_IDS = [
    "dense", "depthwise5", "depthwise-dil3", "stride4", "dw7-dil3",
    "dw-stride2", "dw-stride4", "dw-pad0", "dw-pad-wide", "dw-dil2",
    "dw7-side1", "dw7-side2", "dw7-n3-rect", "dw7-f32", "dw-all-padding",
    "dw7-micro-n32", "dw7-n8-f32", "dw7-n1-wide",
    "dense7-s4-bands", "dense3-ragged-bands", "dense-no-live-tap",
    "dw7-tiles-ragged", "dw7-tiles-s2", "dw5-tiles-s4", "dw7-tiles-dil2", "dw7-tiles-dil3",
    "dw7-tiles-pad0", "dw3-tiles-all-padding-edges", "dw7-tiles-f32",
]


def _conv_case(case, rng=RNG):
    """(x, w, b, spec) for one CONV_ORACLE_CASES entry."""
    spec = ConvSpec(
        case["k"], stride=case["stride"], dilation=case["dilation"], groups=case["groups"],
        padding=case.get("padding"),
    )
    dtype = case.get("dtype", np.float64)
    x = rng.normal(size=(case["n"], case["c_in"], case["h"], case["w"])).astype(dtype)
    w = rng.normal(
        size=(case["c_out"], case["c_in"] // case["groups"], case["k"], case["k"])
    ).astype(dtype)
    b = rng.normal(size=case["c_out"]).astype(dtype) if case["bias"] else np.zeros(case["c_out"], dtype)
    return x, w, b, spec


def _record_routes(monkeypatch) -> list:
    """Record each depthwise route taken: "whole map", "band" (one full-width tile) or "tiles"."""
    routes, pick, plan = [], kernels._whole_map, kernels._tile_plan

    def whole_map(*args):
        routes.append("whole map" if pick(*args) else None)
        return routes[-1] is not None

    def tile_plan(spec, wd, ow, dtype):
        taps, pieces = plan(spec, wd, ow, dtype)
        routes[-1] = "tiles" if taps.shape[2] < ow else "band"
        return taps, pieces

    monkeypatch.setattr(kernels, "_whole_map", whole_map)
    monkeypatch.setattr(kernels, "_tile_plan", tile_plan)
    return routes


def _record_bands(monkeypatch) -> list:
    """Record the band heights of each row_bands answer."""
    bands, split = [], kernels.row_bands

    def spy(*args):
        bands.append([r.stop - r.start for r in split(*args)])
        return split(*args)

    monkeypatch.setattr(kernels, "row_bands", spy)
    return bands


@pytest.mark.parametrize("case", CONV_ORACLE_CASES, ids=CONV_ORACLE_IDS)
def test_conv_matches_loop_oracle(monkeypatch, case):
    if "band_bytes" in case:
        monkeypatch.setattr(kernels, "BAND_BYTES", case["band_bytes"])
        bands = _record_bands(monkeypatch)
    if "tile_bytes" in case:
        monkeypatch.setattr(kernels, "TILE_BYTES", case["tile_bytes"])
    x, w, b, spec = _conv_case(case)
    dtype = x.dtype
    got = conv2d(x, w, b, spec)
    want = conv2d_oracle(
        x, w, b, stride=case["stride"], dilation=case["dilation"],
        groups=case["groups"], pad=spec.pad,
    )
    assert got.dtype == dtype
    # f32 rounds each of the k*k products and their sum at ~6e-8 relative
    assert rel_err(got, want) <= (1e-10 if dtype == np.float64 else 1e-5)
    if "band_bytes" in case:
        assert bands == [case["bands"]]


def test_conv_oracle_cases_run_both_depthwise_routes(monkeypatch):
    """Whatever the thresholds, the oracle cases reach the whole map, one full-width band and
    tiles narrower than the map."""
    routes = _record_routes(monkeypatch)
    for case in CONV_ORACLE_CASES:
        conv2d(*_conv_case(case, np.random.default_rng(0)))
    assert set(routes) == {"whole map", "band", "tiles"}


def test_depthwise_tiles_allocate_little_beyond_the_output():
    """The xxs stage-0 depthwise conv (c32 56x56 f32, batch 1): no full-width band (0.40 MB)
    or per-row product (0.36 MB), only a 36 KB band and a product block of TILE_BYTES."""
    rng = np.random.default_rng(5)
    x = rng.standard_normal((1, 32, 56, 56), dtype=np.float32)
    w = rng.standard_normal((32, 1, 7, 7), dtype=np.float32)
    b, spec = np.zeros(32, np.float32), ConvSpec(7, groups=32)
    conv2d(x, w, b, spec)  # fills the tile plan's cache
    tracemalloc.start()
    try:
        out = conv2d(x, w, b, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= out.nbytes + 0.25e6


def test_dense_stem_keeps_one_im2col_band():
    """The xxs stem (k7 s4 pad 3, c32, batch-1 f32 224x224) fills one band buffer for every
    row band: the padded input, the output and one band, not two bands at once (2.03 MB)."""
    rng = np.random.default_rng(8)
    x = rng.standard_normal((1, 3, 224, 224), dtype=np.float32)
    w = rng.standard_normal((32, 3, 7, 7), dtype=np.float32)
    b = np.zeros(32, np.float32)
    tracemalloc.start()
    try:
        out = conv2d(x, w, b, ConvSpec(7, stride=4, padding=3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * 230 * 230 * 4 + out.nbytes + kernels.BAND_BYTES + 0.02e6


def test_conv_same_padding_preserves_shape():
    for k, d in [(3, 1), (5, 1), (7, 1), (7, 3), (5, 2)]:
        x = RNG.normal(size=(1, 2, 16, 16))
        w = RNG.normal(size=(2, 2, k, k))
        out = conv2d(x, w, np.zeros(2), ConvSpec(k, dilation=d))
        assert out.shape == x.shape, (k, d)


def test_conv_even_kernel_same_padding_rejected():
    with pytest.raises(ConfigError):
        ConvSpec(4)


def test_conv_explicit_even_kernel_ok():
    x = RNG.normal(size=(1, 1, 8, 8))
    w = RNG.normal(size=(1, 1, 2, 2))
    out = conv2d(x, w, np.zeros(1), ConvSpec(2, stride=2, padding=0))
    want = conv2d_oracle(x, w, np.zeros(1), stride=2, pad=0)
    assert rel_err(out, want) <= 1e-10


def test_conv_shape_errors_name_dimension():
    x = RNG.normal(size=(1, 3, 6, 6))
    w = RNG.normal(size=(4, 2, 3, 3))
    with pytest.raises(PreconditionError, match="channel"):
        conv2d(x, w, np.zeros(4), ConvSpec(3))
    with pytest.raises(PreconditionError, match="kernel"):
        conv2d(x, RNG.normal(size=(4, 3, 5, 5)), np.zeros(4), ConvSpec(3))
    with pytest.raises(PreconditionError, match="4-D"):
        conv2d(x[0], w, np.zeros(4), ConvSpec(3))


@pytest.mark.parametrize(
    "c_in, groups, c_out", [(4, 2, 4), (3, 3, 6)], ids=["grouped", "dw-multiplier"]
)
def test_conv_refuses_groups_other_than_dense_and_depthwise(c_in, groups, c_out):
    x = RNG.normal(size=(1, c_in, 6, 6))
    w = RNG.normal(size=(c_out, c_in // groups, 3, 3))
    spec = ConvSpec(3, groups=groups)
    with pytest.raises(PreconditionError, match=f"groups={groups}"):
        conv2d(x, w, np.zeros(c_out), spec)
    with pytest.raises(PreconditionError, match=f"groups={groups}"):
        conv2d_vjp(x, w, spec, np.ones((1, c_out, 6, 6)))
    with pytest.raises(PreconditionError, match=f"groups={groups}"):
        ad.conv2d(ad.Var(x), ad.Var(w), ad.Var(np.zeros(c_out)), spec)


def test_conv_input_too_small_rejected():
    x = RNG.normal(size=(1, 1, 3, 3))
    with pytest.raises(PreconditionError):
        conv2d(x, np.ones((1, 1, 5, 5)), np.zeros(1), ConvSpec(5, padding=0))


def test_conv_vjp_matches_finite_differences():
    x = RNG.normal(size=(1, 2, 5, 5))
    w = RNG.normal(size=(3, 2, 3, 3))
    spec = ConvSpec(3)
    go = RNG.normal(size=(1, 3, 5, 5))
    dx, dw, db = conv2d_vjp(x, w, spec, go)
    eps = 1e-6

    def loss(xx, ww, bb):
        return float((conv2d(xx, ww, bb, spec) * go).sum())

    b0 = np.zeros(3)
    for arr, grad in ((x, dx), (w, dw), (b0, db)):
        flat = arr.reshape(-1)
        gflat = grad.reshape(-1)
        for i in RNG.choice(flat.size, size=min(10, flat.size), replace=False):
            orig = flat[i]
            flat[i] = orig + eps
            fp = loss(x, w, b0)
            flat[i] = orig - eps
            fm = loss(x, w, b0)
            flat[i] = orig
            num = (fp - fm) / (2 * eps)
            assert abs(num - gflat[i]) <= 1e-5 * max(1.0, abs(num))


def _conv_vjp_sweep_cases(count):
    """Valid (x, w, b, spec) draws over the dense and depthwise routes.

    Sides 1-6 against kernels up to 7 with dilation up to 3, stride up to 4
    and explicit pads, so many kernel offsets read only padding. Depthwise
    batches go up to 8, so those cases fall on both sides of the route choice.
    """
    rng = np.random.default_rng(31)
    cases = []
    while len(cases) < count:
        route = ("dense", "depthwise")[len(cases) % 2]
        k = int(rng.choice([1, 3, 5, 7]))
        padding = None if rng.integers(0, 3) == 0 else int(rng.integers(0, 5))
        groups, c_in, c_out = {
            "dense": (1, int(rng.integers(1, 4)), int(rng.integers(1, 4))),
            "depthwise": (3, 3, 3),
        }[route]
        spec = ConvSpec(
            k,
            stride=int(rng.integers(1, 5)),
            dilation=int(rng.integers(1, 4)),
            groups=groups,
            padding=padding,
        )
        h, w = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        if spec.out_size(h) < 1 or spec.out_size(w) < 1:
            continue
        n = int(rng.integers(1, 9 if route == "depthwise" else 3))
        cases.append((
            rng.normal(size=(n, c_in, h, w)),
            rng.normal(size=(c_out, c_in // groups, k, k)),
            rng.normal(size=(c_out,)),
            spec,
        ))
    return cases


def _tiled_vjp_sweep_cases(count):
    """Valid batch-1 depthwise (x, w, b, spec) draws 30-64 wide and 2-6 tall: the VJP, which
    tiles the input width, always runs tiles, and the forward does when its output is wide."""
    rng = np.random.default_rng(33)
    cases = []
    while len(cases) < count:
        k = int(rng.choice([3, 5, 7]))
        padding = None if rng.integers(0, 3) == 0 else int(rng.integers(0, 5))
        spec = ConvSpec(k, stride=int(rng.integers(1, 5)), dilation=int(rng.integers(1, 4)),
                        groups=3, padding=padding)
        h, w = int(rng.integers(2, 7)), int(rng.integers(30, 65))
        if spec.out_size(h) < 1 or spec.out_size(w) < 1:
            continue
        cases.append((rng.normal(size=(1, 3, h, w)), rng.normal(size=(3, 1, k, k)),
                      rng.normal(size=(3,)), spec))
    return cases


def _has_dead_tap(spec, size):
    """Whether some kernel offset reads only padding along an axis of this size."""
    s, d, p = spec.stride, spec.dilation, spec.pad
    outs = range(spec.out_size(size))
    return any(all(not 0 <= o * s + i * d - p < size for o in outs) for i in range(spec.kernel))


def test_conv_vjp_sweep_matches_central_differences(monkeypatch):
    """conv2d_vjp against central differences of conv2d, along random directions.

    The loss <conv2d(x, w, b), go> is linear in each argument, so the central
    difference along a direction equals the exact directional derivative up
    to rounding.
    """
    rng = np.random.default_rng(32)
    eps = 1e-3
    seen = set()
    routes = _record_routes(monkeypatch)
    depthwise = {"whole map": set(), "band": set(), "tiles": set()}  # features seen per route
    for x, w, b, spec in _conv_vjp_sweep_cases(150) + _tiled_vjp_sweep_cases(40):
        seen.add((spec.kernel, spec.stride, spec.dilation, spec.groups > 1, spec.padding is None))
        go = rng.normal(size=conv2d(x, w, b, spec).shape)
        grads = conv2d_vjp(x, w, spec, go)
        if spec.groups == x.shape[1] == w.shape[0]:
            h, wd = x.shape[2:]
            depthwise[routes[-1]] |= {
                f"stride{spec.stride}", f"dilation{spec.dilation}", "h!=w" if h != wd else "",
                "dead tap" if _has_dead_tap(spec, h) or _has_dead_tap(spec, wd) else "",
            }
        dx, dw, db = conv2d_vjp(x, w, spec, go, need_input=False)
        assert dx is None
        assert dw.tobytes() == grads[1].tobytes() and db.tobytes() == grads[2].tobytes()
        args = [x, w, b]
        for a, grad in enumerate(grads):
            for _ in range(2):
                v = rng.normal(size=args[a].shape)
                plus, minus = list(args), list(args)
                plus[a], minus[a] = args[a] + eps * v, args[a] - eps * v
                num = float(((conv2d(*plus, spec) - conv2d(*minus, spec)) * go).sum()) / (2 * eps)
                got = float((grad * v).sum())
                assert abs(num - got) <= 1e-8 * max(1.0, abs(num)), (spec, x.shape, a)
    assert {k for k, *_ in seen} == {1, 3, 5, 7}
    assert {s for _, s, *_ in seen} == {1, 2, 3, 4}
    assert {d for _, _, d, *_ in seen} == {1, 2, 3}
    for route, features in depthwise.items():
        want = {"stride2", "stride4", "dilation2", "dilation3", "h!=w", "dead tap"}
        assert want <= features, (route, want - features)


# ------------------------------------------------------------ pointwise


def test_pointwise_equals_1x1_conv():
    w = RNG.normal(size=(7, 5))
    b = RNG.normal(size=7)
    wide = RNG.normal(size=(3, 10, 6, 9))
    cases = [
        (RNG.normal(size=(2, 5, 4, 4)), b),
        (RNG.normal(size=(3, 5, 3, 6)), np.zeros(7)),  # n > 1, h != w, zero bias
        (wide[:, ::2, :, 1::2], b),  # a non-contiguous view
    ]
    for x, bias in cases:
        got = pointwise(x, w, bias)
        want = conv2d(x, w.reshape(7, 5, 1, 1), bias, ConvSpec(1))
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
    x32, w32, b32 = (a.astype(np.float32) for a in (cases[0][0], w, b))
    got = pointwise(x32, w32, b32)
    assert got.dtype == np.float32
    want = conv2d(x32, w32.reshape(7, 5, 1, 1), b32, ConvSpec(1))
    np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-5)


def test_pointwise_rejects_bad_weight():
    with pytest.raises(PreconditionError):
        pointwise(RNG.normal(size=(1, 3, 2, 2)), RNG.normal(size=(4, 5)), np.zeros(4))


def test_a_weight_or_bias_of_another_dtype_raises():
    """No silent cast: conv2d, its VJP and pointwise refuse a w or b whose dtype is not x's,
    and fuse_modulate a ctx whose dtype is not v's."""
    x = RNG.normal(size=(1, 4, 5, 5)).astype(np.float32)
    w32, b32 = RNG.normal(size=(4, 4, 3, 3)).astype(np.float32), np.zeros(4, np.float32)
    for w, b in ((w32.astype(np.float64), b32), (w32, b32.astype(np.float64))):
        with pytest.raises(PreconditionError, match="dtype"):
            conv2d(x, w, b, ConvSpec(3))
        with pytest.raises(PreconditionError, match="dtype"):
            pointwise(x, w[:, :, 0, 0], b)
    with pytest.raises(PreconditionError, match="dtype"):
        conv2d(x, w32[:, :1].astype(np.float64), b32, ConvSpec(3, groups=4))
    with pytest.raises(PreconditionError, match="dtype"):
        conv2d_vjp(x, w32.astype(np.float64), ConvSpec(3), np.zeros_like(x))
    with pytest.raises(PreconditionError, match="dtype"):
        fuse_modulate(x, x.astype(np.float64))


def test_every_bias_parameter_is_required():
    """Every layer has its bias: no function in the package takes a b with a default or
    a None in its annotation."""
    optional = []
    for path in sorted(pathlib.Path(kernels.__file__).parent.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            a = fn.args
            positional = a.posonlyargs + a.args
            defaulted = {p.arg for p in positional[len(positional) - len(a.defaults):]}
            defaulted |= {p.arg for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None}
            for p in positional + a.kwonlyargs:
                hint = ast.unparse(p.annotation) if p.annotation else ""
                if p.arg == "b" and (p.arg in defaulted or "None" in hint or "Optional" in hint):
                    optional.append(f"{path.name}:{fn.lineno}")
    assert optional == []


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_pointwise_writes_a_band_of_rows_into_out(dtype):
    x = RNG.normal(size=(2, 5, 6, 4)).astype(dtype)
    w, b = RNG.normal(size=(3, 5)).astype(dtype), RNG.normal(size=3).astype(dtype)
    want = pointwise(x, w, b)
    big = np.zeros((2, 3, 6, 4), dtype)
    for rows in (slice(0, 1), slice(1, 4), slice(4, 6)):
        got = pointwise(x[:, :, rows], w, b, out=big[:, :, rows])
        assert np.shares_memory(got, big)
    np.testing.assert_allclose(big, want, rtol=1e-5 if dtype == np.float32 else 1e-13)


def test_pointwise_rejects_a_bad_out():
    x, w = RNG.normal(size=(1, 3, 2, 4)), RNG.normal(size=(2, 3))
    bad = {
        "shape": np.empty((1, 3, 2, 4)),
        "dtype": np.empty((1, 2, 2, 4), np.float32),
        "rows of two strides": np.empty((1, 2, 2, 8))[:, :, :, :4],
    }
    for what, out in bad.items():
        with pytest.raises(PreconditionError, match="out:"):
            pointwise(x, w, np.zeros(2), out=out)


# ------------------------------------------------- gelu, sigmoid, norms


def test_gelu_frozen_values():
    assert gelu(np.array([0.0]))[0] == 0.0
    # 0.5 * (1 + erf(1/sqrt(2))) closed form at double precision
    assert abs(gelu(np.array([1.0]))[0] - 0.8413447460685429) < 1e-12
    assert abs(gelu(np.array([-10.0]))[0]) < 1e-8


def test_gelu_monotone_on_positive_axis():
    xs = np.linspace(0, 6, 200)
    ys = gelu(xs)
    assert (np.diff(ys) > 0).all()


def test_gelu_matches_scalar_oracle():
    x = RNG.normal(size=257) * 3
    want = np.array([0.5 * v * (1 + math.erf(v / math.sqrt(2))) for v in x])
    np.testing.assert_allclose(gelu(x), want, rtol=1e-13, atol=1e-15)


def _f32_gelu_inputs():
    grid = np.linspace(-12.0, 12.0, 24001)
    return np.concatenate([RNG.normal(size=20000) * 3, grid]).astype(np.float32)


def test_gelu_f32_matches_f64_oracle():
    # |err| <= 5e-7 * max(1, |x|) against math.erf in f64; the scipy f32 erf meets it too
    x = _f32_gelu_inputs()
    x64 = x.astype(np.float64)
    cdf = 0.5 * (1.0 + np.vectorize(math.erf)(x64 / math.sqrt(2)))
    want = x64 * cdf
    want_grad = cdf + x64 * np.exp(-0.5 * x64 * x64) / math.sqrt(2 * math.pi)
    bound = 5e-7 * np.maximum(1.0, np.abs(x64))
    for got, ref in ((gelu(x), want), (gelu_grad(x), want_grad)):
        assert got.dtype == np.float32
        assert (np.abs(got - ref) <= bound).all(), np.abs(got - ref).max()


def _gelu_f32_whole(x):
    """The float32 Abramowitz & Stegun 7.1.26 gelu as whole-array expressions; 0-d: scipy's erf."""
    from scipy.special import erf

    if x.ndim == 0:
        return (1.0 + erf(x * 0.7071067811865476)) * (np.maximum(x, -40.0) * 0.5)
    t = np.reciprocal(np.abs(x) * (0.3275911 * 0.7071067811865476) + 1.0)
    s = t * 1.061405429
    for a in (-1.453152027, 1.421413741, -0.284496736, 0.254829592):
        s = (s + a) * t
    s = np.copysign(1.0 - s * np.exp(np.square(x) * -0.5), x) + 1.0
    return s * (np.maximum(x, -40.0) * 0.5)


@pytest.mark.parametrize(
    "shape", [(1, 32, 56, 56), (3, 12_347), (1,), ()], ids=["stage0", "ragged", "one", "0-d"]
)
def test_gelu_f32_chunks_equal_the_whole_array_formula(shape):
    """f32 gelu runs in flat chunks of TILE_BYTES; every element keeps its whole-array bits."""
    x = (np.random.default_rng(9).standard_normal(shape) * 4).astype(np.float32)
    if x.size > 3:
        x.reshape(-1)[:3] = [np.inf, -np.inf, np.nan]
    got, want = gelu(x), _gelu_f32_whole(x)
    assert np.shape(got) == shape and got.dtype == np.float32
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def test_gelu_f32_keeps_one_chunk_of_scratch():
    """A stage-0 map (0.40 MB) holds its output and one TILE_BYTES chunk, not a second map."""
    x = np.random.default_rng(10).standard_normal((1, 32, 56, 56), dtype=np.float32)
    tracemalloc.start()
    try:
        out = gelu(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= out.nbytes + kernels.TILE_BYTES + 0.01e6


def test_gelu_f32_keeps_inf_and_nan():
    # both dtypes: gelu is inf at +inf and 0 at -inf, gelu_grad 1 and 0; nan stays nan
    for dtype in (np.float32, np.float64):
        x = np.array([np.inf, -np.inf, np.nan, 0.0, -50.0, 50.0], dtype=dtype)
        out = gelu(x)
        assert out.dtype == dtype
        assert out[0] == np.inf and out[1] == 0.0 and np.isnan(out[2]), out
        assert out[3] == 0.0 and out[4] == 0.0 and out[5] == 50.0, out
        grad = gelu_grad(x)
        assert grad.dtype == dtype
        assert grad[0] == 1.0 and grad[1] == 0.0 and np.isnan(grad[2]), grad
        assert grad[3] == 0.5 and grad[4] == 0.0 and grad[5] == 1.0, grad


def test_f64_elementwise_kernels_equal_the_plain_expressions_bit_for_bit():
    from scipy.special import erf

    x = RNG.normal(size=(2, 6, 5, 4)) * 3
    gamma, beta, go = RNG.normal(size=6), RNG.normal(size=6), RNG.normal(size=x.shape)
    c = gamma.reshape(1, 6, 1, 1)
    cdf = 0.5 * (1.0 + erf(x * 0.7071067811865476))
    mu = x.mean(axis=1, keepdims=True)
    xc = x - mu
    inv = 1.0 / np.sqrt(np.mean(xc * xc, axis=1, keepdims=True) + kernels.LN_EPS)
    xhat = xc * inv
    gx = go * c
    m, mx = gx.mean(axis=1, keepdims=True), (gx * xhat).mean(axis=1, keepdims=True)
    shifted = x - x.max(axis=1, keepdims=True)
    pairs = [
        (gelu(x), 0.5 * x * (1.0 + erf(x * 0.7071067811865476))),
        (gelu_grad(x), cdf + x * (0.3989422804014327 * np.exp(-0.5 * x * x))),
        (layer_norm(x, gamma, beta), c * xhat + beta.reshape(1, 6, 1, 1)),
        (softmax(x, axis=1), np.exp(shifted) / np.exp(shifted).sum(axis=1, keepdims=True)),
    ]
    dx, dgamma, dbeta = layer_norm_vjp(x, gamma, go)
    pairs += [
        (dx, inv * (gx - m - xhat * mx)),
        (dgamma, (go * xhat).sum(axis=(0, 2, 3))),
        (dbeta, go.sum(axis=(0, 2, 3))),
    ]
    for got, want in pairs:
        assert got.dtype == np.float64
        np.testing.assert_array_equal(got, want)


def test_gelu_grad_matches_central_difference():
    x = RNG.normal(size=64)
    eps = 1e-6
    num = (gelu(x + eps) - gelu(x - eps)) / (2 * eps)
    np.testing.assert_allclose(gelu_grad(x), num, rtol=1e-7, atol=1e-9)


def test_sigmoid_range_and_symmetry():
    x = np.array([-800.0, -5.0, 0.0, 5.0, 800.0])
    s = sigmoid(x)
    assert np.isfinite(s).all()
    assert s[2] == 0.5
    np.testing.assert_allclose(s + s[::-1], np.ones_like(s), rtol=0, atol=1e-15)


def test_layer_norm_frozen_example():
    x = np.array([1.0, 2.0, 3.0]).reshape(1, 3, 1, 1)
    out = layer_norm(x, np.ones(3), np.zeros(3))
    want = np.array([-1.224744, 0.0, 1.224744])  # +-1/sqrt(2/3 + LN_EPS)
    np.testing.assert_allclose(out[0, :, 0, 0], want, rtol=0, atol=1e-6)


def test_layer_norm_constant_channel_gives_beta():
    x = np.full((1, 4, 2, 2), 7.0)
    beta = np.array([1.0, 2.0, 3.0, 4.0])
    out = layer_norm(x, np.ones(4), beta)
    np.testing.assert_allclose(out, beta.reshape(1, 4, 1, 1) * np.ones((1, 4, 2, 2)), atol=1e-12)


def test_layer_norm_zero_gamma_gives_beta():
    x = RNG.normal(size=(2, 3, 2, 2))
    beta = RNG.normal(size=3)
    out = layer_norm(x, np.zeros(3), beta)
    np.testing.assert_allclose(out, np.broadcast_to(beta.reshape(1, 3, 1, 1), out.shape))


def test_layer_norm_statistics():
    x = RNG.normal(size=(2, 16, 3, 3)).astype(np.float64) * 3 + 1
    out = layer_norm(x, np.ones(16), np.zeros(16))
    assert np.abs(out.mean(axis=1)).max() < 1e-9
    assert np.abs(out.var(axis=1) - 1.0).max() < 1e-6


def test_layer_norm_matches_loop_oracle():
    for shape in [(2, 5, 3, 3), (2, 4, 6, 1), (3, 7, 1, 1)]:
        x = RNG.normal(size=shape) * 2
        c = shape[1]
        gamma = RNG.normal(size=c)
        beta = RNG.normal(size=c)
        got = layer_norm(x, gamma, beta)
        want = layer_norm_oracle(x, gamma, beta)
        assert rel_err(got, want) <= 1e-10


def test_layer_norm_vjp_matches_central_differences():
    # grad_out is the cotangent of <layer_norm(x, gamma, beta), grad_out>, so each
    # returned gradient is the central difference of that scalar through the oracle.
    def diff(f, a, eps=1e-6):
        g = np.zeros_like(a)
        for i in np.ndindex(a.shape):
            orig = a[i]
            a[i] = orig + eps
            fp = f()
            a[i] = orig - eps
            fm = f()
            a[i] = orig
            g[i] = (fp - fm) / (2 * eps)
        return g

    for shape in [(2, 3, 2, 2), (3, 4, 1, 1)]:
        x = RNG.normal(size=shape) * 2
        c = shape[1]
        gamma, beta = RNG.normal(size=c), RNG.normal(size=c)
        go = RNG.normal(size=shape)
        dx, dgamma, dbeta = layer_norm_vjp(x, gamma, go)
        f = lambda: float((layer_norm_oracle(x, gamma, beta) * go).sum())
        for got, a in ((dx, x), (dgamma, gamma), (dbeta, beta)):
            assert got.shape == a.shape
            np.testing.assert_allclose(got, diff(f, a), rtol=1e-6, atol=1e-8)


def test_layer_norm_validates():
    with pytest.raises(PreconditionError):
        layer_norm(RNG.normal(size=(1, 3, 2, 2)), np.ones(4), np.zeros(4))
    x32 = RNG.normal(size=(1, 3, 2, 2)).astype(np.float32)
    with pytest.raises(PreconditionError, match="dtype"):
        layer_norm(x32, np.ones(3), np.zeros(3, dtype=np.float32))
    with pytest.raises(PreconditionError, match="dtype"):
        layer_norm(x32, np.ones(3, dtype=np.float32), np.zeros(3))


@pytest.mark.parametrize("shape", [(2, 3), (2, 3, 4)])
def test_layer_norm_refuses_a_map_that_is_not_nchw(shape):
    """An [n, c] or [n, c, t] input would broadcast against gamma[:, None, None] into nonsense."""
    with pytest.raises(PreconditionError, match="4-D"):
        layer_norm(RNG.normal(size=shape), np.ones(3), np.zeros(3))


# -------------------------------------------------------------- softmax


def test_softmax_frozen_values():
    np.testing.assert_allclose(softmax(np.array([0.0, 0.0])), [0.5, 0.5], atol=1e-15)
    np.testing.assert_allclose(softmax(np.array([1000.0, 1000.0])), [0.5, 0.5], atol=1e-15)
    np.testing.assert_allclose(
        softmax(np.array([0.0, math.log(3)])), [0.25, 0.75], rtol=0, atol=1e-12
    )


def test_softmax_rows_sum_to_one():
    x = RNG.normal(size=(3, 4, 6)) * 5
    s = softmax(x, axis=-1)
    np.testing.assert_allclose(s.sum(axis=-1), np.ones((3, 4)), rtol=0, atol=1e-12)
    assert (s >= 0).all()


@given(st.lists(st.floats(-50, 50), min_size=2, max_size=8), st.floats(-100, 100))
@settings(max_examples=60, deadline=None)
def test_softmax_shift_invariance(row, shift):
    x = np.array(row)
    np.testing.assert_allclose(softmax(x), softmax(x + shift), rtol=0, atol=1e-12)


def test_softmax_matches_loop_oracle():
    for axis, shape in [(-1, (2, 3, 5)), (1, (4, 6)), (0, (5, 2))]:
        x = RNG.normal(size=shape) * 4
        assert rel_err(softmax(x, axis=axis), softmax_oracle(x, axis)) <= 1e-10


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_softmax_out_x_overwrites_x_bit_identically(dtype):
    x = (RNG.normal(size=(2, 3, 4, 4)) * 4).astype(dtype)
    for axis in (-1, -2):
        want = softmax(x, axis=axis)
        got = x.copy()
        assert softmax(got, axis=axis, out=got) is got
        assert got.tobytes() == want.tobytes()
    for out in (np.empty((2, 3, 4)), np.empty(x.shape, np.float16)):
        with pytest.raises(PreconditionError, match="out:"):
            softmax(x, out=out)


# --------------------------------------------------------------- matmul


def test_matmul_identity_and_zero():
    b = RNG.normal(size=(2, 3))
    np.testing.assert_array_equal(batched_matmul(np.eye(2), b), b)
    assert not batched_matmul(np.zeros((3, 4)), RNG.normal(size=(4, 2))).any()


def test_matmul_matches_loop_oracle():
    a = RNG.normal(size=(3, 4))
    b = RNG.normal(size=(4, 2))
    assert np.abs(batched_matmul(a, b) - matmul_oracle(a, b)).max() < 1e-12
    a = RNG.normal(size=(2, 3, 4, 5))
    b = RNG.normal(size=(2, 3, 5, 2))
    assert rel_err(batched_matmul(a, b), matmul_oracle(a, b)) <= 1e-10


def test_matmul_strict_batch_and_inner_dims():
    with pytest.raises(PreconditionError):
        batched_matmul(RNG.normal(size=(2, 3, 4)), RNG.normal(size=(3, 4, 5)))
    with pytest.raises(PreconditionError):
        batched_matmul(RNG.normal(size=(3, 4)), RNG.normal(size=(3, 4)))
    with pytest.raises(PreconditionError):
        batched_matmul(RNG.normal(size=4), RNG.normal(size=(4, 2)))


# -------------------------------------------------------- fuse_modulate


def test_fuse_modulate_frozen_example():
    ctx = np.zeros((1, 2, 1, 1))
    ctx[0, 0] = 2.0
    ctx[0, 1] = 3.0
    v = np.ones((1, 4, 1, 1))
    out = fuse_modulate(ctx, v)
    np.testing.assert_array_equal(out[0, :, 0, 0], [2.0, 3.0, 2.0, 3.0])


def test_fuse_modulate_r1_is_elementwise():
    ctx = RNG.normal(size=(2, 3, 4, 4))
    v = RNG.normal(size=(2, 3, 4, 4))
    np.testing.assert_array_equal(fuse_modulate(ctx, v), ctx * v)


def test_fuse_modulate_index_mapping_oracle():
    ctx = RNG.normal(size=(2, 3, 4, 5))
    v = RNG.normal(size=(2, 12, 4, 5))
    out = fuse_modulate(ctx, v)
    for i in range(12):
        np.testing.assert_array_equal(out[:, i], v[:, i] * ctx[:, i % 3])


@given(
    st.integers(1, 3), st.integers(1, 4), st.integers(1, 4),
    st.integers(1, 5), st.integers(1, 5),
    st.sampled_from(["mul", "sum"]),
)
@settings(max_examples=40, deadline=None)
def test_fuse_modulate_modes_bit_identical(n, c, r, h, w, combine):
    rng = np.random.default_rng((n, c, r, h, w))
    ctx = rng.normal(size=(n, c, h, w))
    v = rng.normal(size=(n, r * c, h, w))
    a = fuse_modulate(ctx, v, mode="repeat", combine=combine)
    b = fuse_modulate(ctx, v, mode="reshape", combine=combine)
    assert a.tobytes() == b.tobytes()


def test_fuse_modulate_rejects_bad_shapes():
    with pytest.raises(PreconditionError):
        fuse_modulate(RNG.normal(size=(1, 3, 2, 2)), RNG.normal(size=(1, 4, 2, 2)))
    with pytest.raises(PreconditionError):
        fuse_modulate(RNG.normal(size=(1, 2, 2, 2)), RNG.normal(size=(1, 4, 3, 3)))
    with pytest.raises(ConfigError):
        fuse_modulate(
            RNG.normal(size=(1, 2, 2, 2)), RNG.normal(size=(1, 4, 2, 2)), mode="inplace"
        )


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("mode", ["repeat", "reshape"])
@pytest.mark.parametrize("combine", ["mul", "sum"])
def test_fuse_modulate_out_v_overwrites_v_bit_identically(mode, combine, dtype):
    ctx = RNG.normal(size=(2, 3, 4, 5)).astype(dtype)
    v = RNG.normal(size=(2, 12, 4, 5)).astype(dtype)
    want = fuse_modulate(ctx, v, mode=mode, combine=combine)
    got = fuse_modulate(ctx, v, mode=mode, combine=combine, out=v)
    assert got is v
    assert got.tobytes() == want.tobytes()


def test_fuse_modulate_rejects_a_bad_out():
    ctx = RNG.normal(size=(1, 2, 3, 3))
    v = RNG.normal(size=(1, 4, 3, 3))
    bad = {
        "shape": np.empty((1, 2, 3, 3)),
        "f32 out for an f64 product": np.empty((1, 4, 3, 3), np.float32),
        "f64 out for an f32 product": np.empty((1, 4, 3, 3)),
        "not C-contiguous": np.empty((1, 4, 3, 3), order="F"),
        "strided view": np.empty((1, 8, 3, 3))[:, ::2],
    }
    for what, out in bad.items():
        args = (ctx.astype(np.float32), v.astype(np.float32)) if "f32 product" in what else (ctx, v)
        with pytest.raises(PreconditionError, match="out:"):
            fuse_modulate(*args, out=out)


@pytest.mark.parametrize("mode", ["repeat", "reshape"])
def test_fuse_modulate_of_a_non_c_ordered_v_is_a_fresh_c_array(mode):
    ctx = RNG.normal(size=(2, 3, 4, 5))
    v = np.asfortranarray(RNG.normal(size=(2, 6, 4, 5)))
    out = fuse_modulate(ctx, v, mode=mode)
    assert out.flags.c_contiguous and not np.shares_memory(out, v)
    assert out.tobytes() == fuse_modulate(ctx, np.ascontiguousarray(v), mode=mode).tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("combine", ["mul", "sum"])
def test_fuse_modulate_vjp_equals_the_tiled_context_products_bitwise(combine, dtype):
    """One VJP serves both fusion modes: its cotangents are bit for bit the products
    and sums of the repeat route, which tiles ctx r times along the channels."""
    for n, c, r, h, w in [(1, 3, 4, 5, 7), (2, 2, 3, 4, 4), (3, 1, 1, 2, 3), (1, 8, 6, 14, 14)]:
        ctx, v, g = (RNG.normal(size=s).astype(dtype) for s in
                     [(n, c, h, w), (n, r * c, h, w), (n, r * c, h, w)])
        dctx, dv = kernels.fuse_modulate_vjp(ctx, v, combine, g)
        if combine == "mul":
            want_dv, prod = g * np.tile(ctx, (1, r, 1, 1)), g * v
        else:
            want_dv, prod = g, g
        want_dctx = prod.reshape(n, r, c, h, w).sum(axis=1)
        assert dv.dtype == dctx.dtype == dtype
        assert dv.shape == v.shape and dctx.shape == ctx.shape
        assert dv.tobytes() == want_dv.tobytes(), (n, c, r, h, w)
        assert dctx.tobytes() == want_dctx.tobytes(), (n, c, r, h, w)


# ---------------------------------------------------------------- pool


def test_global_avg_pool_frozen_values():
    out = global_avg_pool(np.full((1, 2, 3, 3), 5.0))
    np.testing.assert_array_equal(out, np.full((1, 2, 1, 1), 5.0))
    x = np.array([[1.0, 3.0], [5.0, 7.0]]).reshape(1, 1, 2, 2)
    assert global_avg_pool(x)[0, 0, 0, 0] == 4.0
    assert not global_avg_pool(np.zeros((2, 3, 4, 4))).any()
