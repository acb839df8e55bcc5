"""Block-level behavior: composition oracles, frozen identities, invariances.

Composition oracles rebuild each block output directly from the raw kernels
in the documented order; block implementations must match them bit for bit
since they are the same arithmetic on the same arrays.
"""

import sys

import numpy as np
import pytest

from effmod import autodiff as ad
from effmod import blocks as B
from effmod import kernels as K
from effmod.errors import ConfigError, PreconditionError
from effmod.kernels import ConvSpec

RNG = np.random.default_rng(99)


def _run(block_fn, x, *args, **kw):
    with ad.no_grad():
        return block_fn(ad.Var(x), *args, **kw).data


def _d(v):
    return None if v is None else v.data


# -------------------------------------------------------- efficient mod


def test_efficient_mod_zero_input_gives_zeros():
    p = B.init_efficient_mod(RNG, 4, expansion=2, kernel=3, dtype=np.float64)
    out = _run(B.efficient_mod, np.zeros((1, 4, 6, 6)), p)
    assert not out.any()


def test_efficient_mod_shape_contract():
    p = B.init_efficient_mod(RNG, 64, expansion=6, kernel=7, dtype=np.float32)
    out = _run(B.efficient_mod, RNG.normal(size=(1, 64, 14, 14)).astype(np.float32), p)
    assert out.shape == (1, 64, 14, 14)


def test_efficient_mod_composition_oracle():
    p = B.init_efficient_mod(RNG, 5, expansion=3, kernel=3, dtype=np.float64)
    x = RNG.normal(size=(2, 5, 6, 6))
    got = _run(B.efficient_mod, x, p)
    h = K.pointwise(x, p.f.w.data, _d(p.f.b))
    h = K.conv2d(h, p.dw.w.data, _d(p.dw.b), ConvSpec(3, groups=5))
    ctx = K.pointwise(K.gelu(h), p.g.w.data, _d(p.g.b))
    v = K.pointwise(x, p.v.w.data, _d(p.v.b))
    want = K.pointwise(K.fuse_modulate(ctx, v), p.p.w.data, _d(p.p.b))
    np.testing.assert_array_equal(got, want)


def test_efficient_mod_identity_params_degenerate_to_gated_gelu():
    """r=1, identity projections, unit 1x1 depthwise -> y = gelu(x) * x."""
    c = 3
    zero = lambda: ad.Var(np.zeros(c))
    eye = lambda: B.Layer(ad.Var(np.eye(c)), zero())
    p = B.EfficientModParams(
        f=eye(),
        dw=B.Layer(ad.Var(np.ones((c, 1, 1, 1))), zero()),
        g=eye(),
        v=eye(),
        p=eye(),
        kernel=1, expansion=1,
    )
    x = RNG.normal(size=(1, c, 4, 4))
    out = _run(B.efficient_mod, x, p)
    np.testing.assert_allclose(out, K.gelu(x) * x, rtol=1e-13, atol=1e-14)


def test_efficient_mod_fusion_modes_agree_bitwise():
    p = B.init_efficient_mod(RNG, 4, expansion=4, kernel=5, dtype=np.float64)
    x = RNG.normal(size=(2, 4, 7, 7))
    a = _run(B.efficient_mod, x, p, mode="repeat")
    b = _run(B.efficient_mod, x, p, mode="reshape")
    assert a.tobytes() == b.tobytes()


def test_efficient_mod_sum_variant_differs_but_same_params():
    p = B.init_efficient_mod(RNG, 4, expansion=2, kernel=3, dtype=np.float64)
    x = RNG.normal(size=(1, 4, 5, 5))
    mul_out = _run(B.efficient_mod, x, p, combine="mul")
    sum_out = _run(B.efficient_mod, x, p, combine="sum")
    assert mul_out.shape == sum_out.shape
    assert not np.array_equal(mul_out, sum_out)


@pytest.mark.parametrize("case", range(B.GC_CASES))
def test_efficient_mod_gradcheck_over_row_bands(monkeypatch, case):
    """A 1-byte budget makes every row of v its own band in the no_grad forwards the
    finite differences take; the taped forward and its VJP stay one band. The spy
    records only the bands ad.modulate asks for: other callers may cut their own."""
    bands = []
    row_bands = K.row_bands

    def spy(*a):
        out = row_bands(*a)
        if sys._getframe(1).f_code is ad.modulate.__code__:
            bands.append(out)
        return out

    monkeypatch.setattr(K, "BAND_BYTES", 1)
    monkeypatch.setattr(K, "row_bands", spy)
    rep = B.block_grad_check("efficient_mod", case=case, tol=1e-5)
    assert rep.passed, rep.to_text()
    assert bands and min(len(b) for b in bands) >= 4


def test_efficient_mod_rejects_bad_config():
    with pytest.raises(ConfigError):
        B.init_efficient_mod(RNG, 4, expansion=0)
    with pytest.raises(ConfigError):
        B.init_efficient_mod(RNG, 4, kernel=4)
    p = B.init_efficient_mod(RNG, 4, dtype=np.float64)
    with pytest.raises(PreconditionError):
        _run(B.efficient_mod, RNG.normal(size=(1, 5, 8, 8)), p)


# ------------------------------------------------------------------ VAN


def test_van_zero_input_gives_zeros():
    p = B.init_van(RNG, 3, dtype=np.float64)
    assert not _run(B.van_block, np.zeros((1, 3, 12, 12)), p).any()


def test_van_shape_preserved():
    p = B.init_van(RNG, 8, dtype=np.float64)
    assert _run(B.van_block, RNG.normal(size=(1, 8, 9, 9)), p).shape == (1, 8, 9, 9)


def test_van_context_impulse_support_radius_11():
    """5x5 then dilated-7 depthwise: support radius (5-1)/2 + 3*(7-1)/2 = 11."""
    c, size, mid = 2, 25, 12
    p = B.init_van(RNG, c, dtype=np.float64)
    h = np.zeros((1, c, size, size))
    h[:, :, mid, mid] = 1.0
    with ad.no_grad():
        ctx = B.van_ctx(ad.Var(h), p).data
    support = np.abs(ctx).sum(axis=(0, 1)) > 0
    yy, xx = np.mgrid[0:size, 0:size]
    radius = np.maximum(np.abs(yy - mid), np.abs(xx - mid))
    assert not support[radius > 11].any()
    assert support[mid, mid]
    for dy, dx in ((-11, -11), (-11, 11), (11, -11), (11, 11)):
        assert support[mid + dy, mid + dx]


def test_van_composition_oracle():
    p = B.init_van(RNG, 4, dtype=np.float64)
    x = RNG.normal(size=(1, 4, 10, 10))
    got = _run(B.van_block, x, p)
    h = K.gelu(K.pointwise(x, p.f.w.data, _d(p.f.b)))
    u = K.conv2d(h, p.dw5.w.data, _d(p.dw5.b), ConvSpec(5, groups=4))
    u = K.conv2d(u, p.dw7.w.data, _d(p.dw7.b), ConvSpec(7, dilation=3, groups=4))
    ctx = K.pointwise(u, p.g.w.data, _d(p.g.b))
    want = K.pointwise(ctx * h, p.p.w.data, _d(p.p.b))
    np.testing.assert_array_equal(got, want)


# ---------------------------------------------------------------- focal


def test_focal_zero_input_gives_zeros():
    p = B.init_focal(RNG, 3, kernels=(3, 5), dtype=np.float64)
    with ad.no_grad():
        out = B.focal_ctx(ad.Var(np.zeros((1, 3, 8, 8))), p).data
    assert not out.any()


def test_focal_level_one_is_single_term():
    p = B.init_focal(RNG, 4, kernels=(3,), dtype=np.float64)
    x = RNG.normal(size=(1, 4, 6, 6))
    with ad.no_grad():
        got = B.focal_ctx(ad.Var(x), p).data
    h = K.pointwise(x, p.f.w.data, _d(p.f.b))
    dw, z = p.levels[0], p.gates[0]
    u = K.gelu(K.conv2d(h, dw.w.data, _d(dw.b), ConvSpec(3, groups=4)))
    gate = K.pointwise(h, z.w.data, _d(z.b))
    want = K.pointwise(u * gate, p.g.w.data, _d(p.g.b))
    np.testing.assert_array_equal(got, want)


def test_focal_two_levels_equal_explicit_sum():
    p = B.init_focal(RNG, 3, kernels=(3, 5), dtype=np.float64)
    x = RNG.normal(size=(2, 3, 7, 7))
    with ad.no_grad():
        got = B.focal_ctx(ad.Var(x), p).data
    h = K.pointwise(x, p.f.w.data, _d(p.f.b))
    acc = None
    for dw, z, k in zip(p.levels, p.gates, p.kernels):
        u = K.gelu(K.conv2d(h, dw.w.data, _d(dw.b), ConvSpec(k, groups=3)))
        term = u * K.pointwise(h, z.w.data, _d(z.b))
        acc = term if acc is None else acc + term
    want = K.pointwise(acc, p.g.w.data, _d(p.g.b))
    np.testing.assert_array_equal(got, want)


def test_focal_gate_broadcasts_one_channel():
    p = B.init_focal(RNG, 5, kernels=(3,), dtype=np.float64)
    assert p.gates[0][0].data.shape == (1, 5)


def test_focal_kernel_validation():
    with pytest.raises(ConfigError):
        B.init_focal(RNG, 4, kernels=())
    with pytest.raises(ConfigError):
        B.init_focal(RNG, 4, kernels=(5, 3))
    with pytest.raises(ConfigError):
        B.init_focal(RNG, 4, kernels=(3, 3))
    with pytest.raises(ConfigError):
        B.init_focal(RNG, 4, kernels=(3, 4))


# --------------------------------------------------------------- mbconv


def test_mbconv_zero_input_gives_zeros():
    p = B.init_mbconv(RNG, 4, dtype=np.float64)
    assert not _run(B.mbconv_block, np.zeros((1, 4, 6, 6)), p).any()


def test_mbconv_param_count_64_6_3():
    """2*6*64^2 + 9*6*64 weight elements, biases (1-D) not counted."""
    p = B.init_mbconv(RNG, 64, expansion=6, kernel=3)
    total = sum(v.data.size for v in B.named_params(p).values() if v.data.ndim >= 2)
    assert total == 52_608
    assert total == 2 * 6 * 64**2 + 3**2 * 6 * 64


def test_mbconv_composition_oracle():
    p = B.init_mbconv(RNG, 3, expansion=2, kernel=3, dtype=np.float64)
    x = RNG.normal(size=(2, 3, 5, 5))
    got = _run(B.mbconv_block, x, p)
    h = K.pointwise(x, p.expand.w.data, _d(p.expand.b))
    h = K.conv2d(h, p.dw.w.data, _d(p.dw.b), ConvSpec(3, groups=6))
    want = K.pointwise(K.gelu(h), p.squeeze.w.data, _d(p.squeeze.b))
    np.testing.assert_array_equal(got, want)


def test_mbconv_depthwise_runs_at_expanded_width():
    p = B.init_mbconv(RNG, 4, expansion=6, kernel=5)
    assert p.dw.w.data.shape == (24, 1, 5, 5)


# ------------------------------------------------------------------- SE


def test_se_zero_w2_halves_input():
    p = B.init_se(RNG, 4, reduction=2, dtype=np.float64)
    p.fc2.w.data = np.zeros_like(p.fc2.w.data)
    x = RNG.normal(size=(2, 4, 3, 3))
    np.testing.assert_allclose(_run(B.se_block, x, p), 0.5 * x, rtol=1e-15)


def test_se_saturated_gate_passes_input_through():
    p = B.init_se(RNG, 4, reduction=2, dtype=np.float64)
    p.fc2.b.data = np.full_like(p.fc2.b.data, 50.0)
    x = RNG.normal(size=(1, 4, 3, 3))
    np.testing.assert_allclose(_run(B.se_block, x, p), x, rtol=1e-9, atol=1e-12)


def test_se_composition_oracle():
    p = B.init_se(RNG, 8, reduction=4, dtype=np.float64)
    x = RNG.normal(size=(2, 8, 4, 4))
    got = _run(B.se_block, x, p)
    g = K.global_avg_pool(x)
    g = K.gelu(K.pointwise(g, p.fc1.w.data, _d(p.fc1.b)))
    g = K.sigmoid(K.pointwise(g, p.fc2.w.data, _d(p.fc2.b)))
    np.testing.assert_array_equal(got, x * g)


def test_se_reduction_must_divide():
    with pytest.raises(ConfigError):
        B.init_se(RNG, 6, reduction=4)


# ------------------------------------------------------------ attention


def _token_layer_norm(z, g, b):
    """Layer norm over the last axis of [n, t, c] tokens, at the kernels' eps."""
    mu = z.mean(axis=-1, keepdims=True)
    var = ((z - mu) ** 2).mean(axis=-1, keepdims=True)
    return (z - mu) / np.sqrt(var + K.LN_EPS) * g + b


def _attention_oracle(x, p):
    """The block in token layout [n, t, c]: h @ w.T, softmax over keys last; nothing in it
    shares the block's NCHW layout or its attention node."""
    n, c, hh, ww = x.shape
    H, d, t = p.heads, c // p.heads, hh * ww
    tok = x.reshape(n, c, t).transpose(0, 2, 1)
    h = _token_layer_norm(tok, p.ln1.w.data, p.ln1.b.data)
    qkv = h @ p.qkv.w.data.T + p.qkv.b.data
    heads = lambda z: z.reshape(n, t, H, d).transpose(0, 2, 1, 3)
    q, k, v = heads(qkv[..., :c]), heads(qkv[..., c : 2 * c]), heads(qkv[..., 2 * c :])
    att = K.softmax(q @ k.transpose(0, 1, 3, 2) / np.sqrt(d), axis=-1)
    y = (att @ v).transpose(0, 2, 1, 3).reshape(n, t, c)
    x1 = tok + y @ p.proj.w.data.T + p.proj.b.data
    h2 = _token_layer_norm(x1, p.ln2.w.data, p.ln2.b.data)
    m = K.gelu(h2 @ p.mlp1.w.data.T + p.mlp1.b.data) @ p.mlp2.w.data.T + p.mlp2.b.data
    return (x1 + m).transpose(0, 2, 1).reshape(n, c, hh, ww)


def _randomize(p):
    """Nonzero biases and norm affines, so the oracle sees every parameter at work.

    Each draw takes its parameter's dtype, so a float32 block stays float32.
    """
    for v in B.named_params(p).values():
        v.data = v.data + RNG.normal(0, 0.1, v.data.shape).astype(v.data.dtype)
    return p


def test_attention_matches_token_layout_oracle():
    for c, heads, n, hh, ww in [(8, 2, 2, 3, 4), (16, 4, 1, 1, 5), (12, 3, 1, 2, 2)]:
        p = _randomize(B.init_attention(RNG, c, heads=heads, mlp_ratio=2.0, dtype=np.float64))
        x = RNG.normal(size=(n, c, hh, ww))
        np.testing.assert_allclose(
            _run(B.attention_block, x, p), _attention_oracle(x, p), rtol=1e-12, atol=1e-13
        )


def test_attention_single_token_weights_are_one():
    """t=1: softmax over one score is exactly 1, so att@v == v."""
    c = 8
    p = B.init_attention(RNG, c, heads=2, dtype=np.float64)
    x = RNG.normal(size=(2, c, 1, 1))
    got = _run(B.attention_block, x, p)
    h = K.layer_norm(x, p.ln1.w.data, p.ln1.b.data)
    qkv = K.pointwise(h, p.qkv.w.data, p.qkv.b.data)
    x1 = x + K.pointwise(qkv[:, 2 * c :], p.proj.w.data, p.proj.b.data)
    h2 = K.layer_norm(x1, p.ln2.w.data, p.ln2.b.data)
    m = K.pointwise(K.gelu(K.pointwise(h2, p.mlp1.w.data, p.mlp1.b.data)),
                    p.mlp2.w.data, p.mlp2.b.data)
    np.testing.assert_allclose(got, x1 + m, rtol=1e-12, atol=1e-13)


def test_attention_permutation_equivariance():
    """Permuting the h*w positions permutes the output the same way."""
    p = B.init_attention(RNG, 16, heads=4, dtype=np.float64)
    x = RNG.normal(size=(2, 16, 3, 5))
    perm = RNG.permutation(15)
    permute = lambda z: z.reshape(2, 16, 15)[:, :, perm].reshape(2, 16, 3, 5)
    out = _run(B.attention_block, x, p)
    out_perm = _run(B.attention_block, permute(x), p)
    np.testing.assert_allclose(out_perm, permute(out), rtol=1e-12, atol=1e-12)


def test_attention_zero_input_zero_gamma_gives_zeros():
    p = B.init_attention(RNG, 8, heads=2, dtype=np.float64)
    p.ln1.w.data = np.zeros_like(p.ln1.w.data)
    p.ln2.w.data = np.zeros_like(p.ln2.w.data)
    out = _run(B.attention_block, np.zeros((1, 8, 2, 2)), p)
    assert not out.any()


def test_attention_head_divisibility():
    with pytest.raises(ConfigError):
        B.init_attention(RNG, 10, heads=4)
    p = B.init_attention(RNG, 8, heads=2, dtype=np.float64)
    with pytest.raises(PreconditionError):
        _run(B.attention_block, RNG.normal(size=(1, 12, 2, 2)), p)
    with pytest.raises(PreconditionError):
        _run(B.attention_block, RNG.normal(size=(1, 4, 8)), p)


def _tape_ops(out):
    """Op name of every node on the tape that made out, leaves included."""
    ops, seen, stack = [], set(), [out]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            ops.append(node.op)
            stack.extend(node.parents)
    return ops


def test_attention_block_tape_holds_one_attention_node():
    p = B.init_attention(RNG, 16, heads=4, dtype=np.float64)
    ops = _tape_ops(B.attention_block(ad.Var(RNG.normal(size=(2, 16, 3, 3))), p))
    assert ops.count("attention") == 1
    assert not {"narrow", "transpose", "scale", "matmul", "softmax"} & set(ops)


def test_attention_shape_preserved():
    p = B.init_attention(RNG, 24, heads=8, mlp_ratio=2.0, dtype=np.float64)
    x = RNG.normal(size=(2, 24, 3, 3))
    assert _run(B.attention_block, x, p).shape == (2, 24, 3, 3)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_no_grad_forward_equals_the_taped_forward_and_keeps_the_input(dtype):
    """The inference path frees and overwrites activations; values must not move."""
    cases = [
        (B.efficient_mod, _randomize(B.init_efficient_mod(RNG, 8, kernel=5, dtype=dtype))),
        (B.attention_block, _randomize(B.init_attention(RNG, 16, heads=4, dtype=dtype))),
    ]
    for block, p in cases:
        assert all(v.data.dtype == dtype for v in B.named_params(p).values())
        x = RNG.normal(size=(2, p.channels, 5, 6)).astype(dtype)
        keep = x.copy()
        inferred = _run(block, x, p)
        taped = block(ad.Var(x), p).data
        assert inferred.tobytes() == taped.tobytes()
        assert x.tobytes() == keep.tobytes()


# ------------------------------------------------------------- residual


def _effmod_inner(p):
    return lambda z: B.efficient_mod(z, p)


def test_residual_zero_layer_scale_is_identity():
    c = 4
    p = B.init_efficient_mod(RNG, c, expansion=2, kernel=3, dtype=np.float64)
    wrap = B.init_residual_wrap(c, layer_scale_init=0.0, dtype=np.float64)
    x = RNG.normal(size=(2, c, 5, 5))
    out = _run(B.residual_apply, x, _effmod_inner(p), wrap)
    np.testing.assert_array_equal(out, x)


def test_residual_forced_drop_is_identity():
    c = 4
    p = B.init_efficient_mod(RNG, c, expansion=2, kernel=3, dtype=np.float64)
    wrap = B.init_residual_wrap(c, drop_path_prob=1 - 1e-9, dtype=np.float64)

    class AlwaysDrop:
        def random(self, n):
            return np.zeros(n)  # draw < p -> every sample dropped

    x = RNG.normal(size=(3, c, 5, 5))
    with ad.no_grad():
        out = B.residual_apply(
            ad.Var(x), _effmod_inner(p), wrap, training=True, rng=AlwaysDrop()
        ).data
    np.testing.assert_array_equal(out, x)


def test_residual_branch_magnitude_bounded_by_layer_scale():
    c = 4
    p = B.init_efficient_mod(RNG, c, expansion=2, kernel=3, dtype=np.float64)
    wrap = B.init_residual_wrap(c, layer_scale_init=1e-4, dtype=np.float64)
    x = RNG.normal(size=(2, c, 6, 6))
    out = _run(B.residual_apply, x, _effmod_inner(p), wrap)
    with ad.no_grad():
        normed = ad.layer_norm(ad.Var(x), *wrap.norm)
        inner = B.efficient_mod(normed, p).data
    # small atol: recovering a ~1e-11 branch from an O(1) sum costs one ulp
    assert np.abs(out - x).max() <= 1e-4 * np.abs(inner).max() + 1e-15


def test_residual_survivor_scaling():
    """Train mode: each sample is either untouched or branch/(1-p)."""
    c = 3
    prob = 0.5
    p = B.init_efficient_mod(RNG, c, expansion=2, kernel=3, dtype=np.float64)
    wrap = B.init_residual_wrap(c, layer_scale_init=0.1, drop_path_prob=prob, dtype=np.float64)
    x = RNG.normal(size=(6, c, 4, 4))
    eval_out = _run(B.residual_apply, x, _effmod_inner(p), wrap)
    branch = eval_out - x
    with ad.no_grad():
        train_out = B.residual_apply(
            ad.Var(x), _effmod_inner(p), wrap, training=True,
            rng=np.random.default_rng(3),
        ).data
    delta = train_out - x
    dropped = surviving = 0
    for i in range(x.shape[0]):
        if not delta[i].any():
            dropped += 1
        else:
            np.testing.assert_allclose(
                delta[i], branch[i] / (1 - prob), rtol=1e-12, atol=1e-15
            )
            surviving += 1
    assert dropped + surviving == x.shape[0]


def test_drop_path_mask_is_a_constant_with_the_same_parameter_grads():
    c, prob = 3, 0.5
    p = B.init_efficient_mod(RNG, c, expansion=2, kernel=3, dtype=np.float64)
    wrap = B.init_residual_wrap(c, layer_scale_init=0.1, drop_path_prob=prob, dtype=np.float64)
    params = [*B.named_params(p).values(), *B.named_params(wrap).values()]
    x = ad.Var(RNG.normal(size=(6, c, 4, 4)))

    def grads(out):
        for v in [x] + params:
            v.grad = None
        ad.backward(ad.sum_all(out))
        return [v.grad.tobytes() for v in [x] + params]

    out = B.residual_apply(x, _effmod_inner(p), wrap, training=True, rng=np.random.default_rng(3))
    leaves, stack, seen = [], [out], set()
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(node.parents)
            if node._vjp is None:
                leaves.append(node)
    assert {id(v) for v in leaves} == {id(v) for v in [x] + params}

    # The same step with the mask as a leaf on the tape.
    keep = (np.random.default_rng(3).random(6) >= prob).astype(np.float64) / (1.0 - prob)
    h = ad.layer_norm(x, *wrap.norm)
    scaled = ad.mul(B.efficient_mod(h, p), ad.reshape(wrap.layer_scale, (1, c, 1, 1)))
    ref = ad.add(x, ad.mul(scaled, ad.Var(keep.reshape(-1, 1, 1, 1))))
    assert out.data.tobytes() == ref.data.tobytes()
    assert grads(out) == grads(ref)


def test_drop_path_gradients_match_central_differences():
    """At p = 0.3 survivors scale by 1/0.7, not by an exact 2 as at p = 0.5, through the
    mask folded into the [n, c, 1, 1] scale; a fixed rng draws the same mask each call."""
    c, n, prob = 3, 5, 0.3
    keep = np.random.default_rng(3).random(n) >= prob
    assert keep.any() and not keep.all()
    inner = B.init_efficient_mod(RNG, c, expansion=2, kernel=3, std=B.GC_STD, dtype=np.float64)
    wrap = B.init_residual_wrap(c, layer_scale_init=0.5, drop_path_prob=prob, dtype=np.float64)
    x = ad.Var(RNG.normal(size=(n, c, 4, 4)))
    leaves = {"x": x, **B.named_params(inner, "inner."), **B.named_params(wrap, "wrap.")}

    def f():
        return B.residual_apply(
            x, _effmod_inner(inner), wrap, training=True, rng=np.random.default_rng(3)
        )

    rep = ad.grad_check(f, leaves, tol=1e-5)
    assert rep.passed, rep.to_text()


def test_residual_train_mode_needs_rng():
    wrap = B.init_residual_wrap(3, drop_path_prob=0.5, dtype=np.float64)
    p = B.init_efficient_mod(RNG, 3, expansion=1, kernel=3, dtype=np.float64)
    with pytest.raises(PreconditionError):
        with ad.no_grad():
            B.residual_apply(
                ad.Var(RNG.normal(size=(1, 3, 4, 4))), _effmod_inner(p), wrap, training=True
            )


def test_residual_drop_prob_validated():
    with pytest.raises(ConfigError):
        B.init_residual_wrap(4, drop_path_prob=1.0)
    with pytest.raises(ConfigError):
        B.init_residual_wrap(4, drop_path_prob=-0.1)


# ----------------------------------------------------------- patch embed
# The strided conv of a stem, a downsample or a patchify layer (gradcheck kind patch_embed).


def test_patch_embed_shapes():
    assert ConvSpec(7, stride=4, padding=3).out_size(224) == 56
    assert ConvSpec(3, stride=2, padding=1).out_size(56) == 28
    w = ad.Var(RNG.normal(size=(4, 3, 7, 7)))
    b = ad.Var(np.zeros(4))
    spec = ConvSpec(7, stride=4, padding=3)
    with ad.no_grad():
        out = ad.conv2d(ad.Var(RNG.normal(size=(1, 3, 64, 64))), w, b, spec).data
    assert out.shape == (1, 4, 16, 16)


def test_patch_embed_zero_input():
    w = ad.Var(RNG.normal(size=(2, 3, 4, 4)))
    spec = ConvSpec(4, stride=4, padding=0)
    with ad.no_grad():
        out = ad.conv2d(ad.Var(np.zeros((1, 3, 16, 16))), w, ad.Var(np.zeros(2)), spec).data
    assert not out.any()


# --------------------------------------------------------------- params


def test_trunc_normal_respects_bounds():
    vals = B.trunc_normal(np.random.default_rng(0), (20000,), 0.02, np.float32)
    assert np.abs(vals).max() <= 2 * 0.02
    assert abs(float(vals.mean())) < 0.001
    assert 0.014 < float(vals.std()) < 0.02


def _trunc_normal_full_rescan(rng, shape, std, dtype):
    """The earlier trunc_normal: every pass rescans the whole array for values to redraw."""
    out = rng.normal(0.0, std, size=shape)
    bad = np.abs(out) > 2.0 * std
    while bad.any():
        out[bad] = rng.normal(0.0, std, size=int(bad.sum()))
        bad = np.abs(out) > 2.0 * std
    return out.astype(dtype)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_trunc_normal_draws_what_a_full_rescan_draws(dtype):
    for seed in range(5):
        for shape in [(1,), (9,), (4, 5), (32, 1, 7, 7), (10, 3, 3, 3)]:
            got = B.trunc_normal(np.random.default_rng(seed), shape, 0.02, dtype)
            want = _trunc_normal_full_rescan(np.random.default_rng(seed), shape, 0.02, dtype)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes(), (seed, shape)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_init_layer_draws_the_weight_and_zeros_its_bias(dtype):
    w, b = B.init_layer(np.random.default_rng(3), (5, 2, 3, 3), 0.1, dtype)
    want = B.trunc_normal(np.random.default_rng(3), (5, 2, 3, 3), 0.1, dtype)
    assert w.data.dtype == dtype and w.data.tobytes() == want.tobytes()
    assert b.data.dtype == dtype and b.data.shape == (5,) and not b.data.any()


def test_block_grad_check_restores_every_leaf(monkeypatch):
    """grad_check perturbs the block's own parameters in place: after it, every leaf of
    every kind holds the bytes it held before, under the names named_params gives."""
    seen, real = [], ad.grad_check

    def spy(f, leaves, tol):
        seen.append((leaves, {k: v.data.copy() for k, v in leaves.items()}))
        return real(f, leaves, tol=tol)

    monkeypatch.setattr(ad, "grad_check", spy)
    for kind in B.BLOCK_KINDS:
        assert B.block_grad_check(kind).passed, kind
    assert len(seen) == len(B.BLOCK_KINDS)
    for kind, (leaves, before) in zip(B.BLOCK_KINDS, seen):
        assert list(leaves)[0] == "x", kind
        for name, v in leaves.items():
            assert v.data.tobytes() == before[name].tobytes(), (kind, name)
    assert {"f.w", "dw.w", "p.w"} <= set(seen[0][0])  # efficient_mod, the first kind


@pytest.mark.parametrize("case", range(B.GC_CASES))
def test_attention_grad_check_certifies_its_biases_but_the_key_bias(case):
    """Attention is certified with its projection and MLP biases; only qkv.b, whose key part
    is a flat direction of the softmax, is left out."""
    rep = B.block_grad_check("attention", case)
    names = {r.name for r in rep.rows}
    assert {"proj.b", "mlp1.b", "mlp2.b"} <= names and "qkv.b" not in names
    assert rep.passed, rep.to_text()


def test_block_kinds_catalog():
    # exact order: block_grad_check seeds each kind from its index here
    assert B.BLOCK_KINDS == (
        "efficient_mod", "van", "focal", "mbconv", "se",
        "attention", "patch_embed", "residual",
    )


def test_readme_block_example_refuses_a_float64_input():
    """The README's library example: an f64 input to an f32 block raises rather than coming
    back f64 with mixed-dtype gradients, and the f32 input it uses keeps everything f32."""
    p = B.init_efficient_mod(np.random.default_rng(0), 64, expansion=6, kernel=7)
    with pytest.raises(PreconditionError, match="dtype"):
        B.efficient_mod(ad.Var(np.random.default_rng(1).standard_normal((1, 64, 14, 14))), p)
    x = np.random.default_rng(1).standard_normal((1, 64, 14, 14), np.float32)
    y = B.efficient_mod(ad.Var(x), p)
    ad.backward(ad.sum_all(y))
    assert y.data.dtype == np.float32
    assert {v.grad.dtype for v in B.named_params(p).values()} == {np.dtype(np.float32)}
