"""Tape mechanics and per-op gradient rules against central differences."""

import tracemalloc
import weakref

import numpy as np
import pytest

from effmod import autodiff as ad
from effmod import kernels as K
from effmod import model as M
from effmod.errors import PreconditionError
from effmod.kernels import ConvSpec

RNG = np.random.default_rng(7)


def rel_err(a, b):
    return np.abs(a - b).max() / max(np.abs(b).max(), 1e-12)


def test_sum_gradient_is_ones():
    x = ad.Var(RNG.normal(size=(3, 4)))
    ad.backward(ad.sum_all(x))
    np.testing.assert_array_equal(x.grad, np.ones((3, 4)))


def test_quadratic_gradient():
    data = RNG.normal(size=(2, 5))
    x = ad.Var(data.copy())
    ad.backward(ad.sum_all(ad.mul(x, x)))
    np.testing.assert_allclose(x.grad, 2 * data, rtol=1e-14)


def test_disconnected_leaf_has_no_gradient():
    x = ad.Var(RNG.normal(size=3))
    y = ad.Var(RNG.normal(size=3))
    ad.backward(ad.sum_all(ad.mul(x, x)))
    assert y.grad is None


def test_fanout_accumulates():
    data = RNG.normal(size=4)
    x = ad.Var(data.copy())
    ad.backward(ad.sum_all(ad.add(x, x)))
    np.testing.assert_array_equal(x.grad, 2 * np.ones(4))


def test_backward_linearity_in_seed():
    data = RNG.normal(size=(3, 3))
    g1 = RNG.normal(size=(3, 3))
    g2 = RNG.normal(size=(3, 3))

    def run(seed):
        x = ad.Var(data.copy())
        ad.backward(ad.sum_all(ad.mul(ad.gelu(x), seed)))
        return x.grad

    np.testing.assert_allclose(
        run(g1 + g2), run(g1) + run(g2), rtol=1e-12, atol=1e-12
    )


def test_only_leaves_keep_gradients():
    x = ad.Var(RNG.normal(size=(2, 3)))
    w = ad.Var(RNG.normal(size=(1, 3)))
    m = ad.mul(x, w)
    h = ad.gelu(m)
    a = ad.add(h, h)
    y = ad.sum_all(a)
    ad.backward(y)
    assert x.grad is not None and w.grad is not None
    assert all(n.grad is None for n in (m, h, a, y))


def test_conv2d_ndarray_input_is_a_constant():
    x = RNG.normal(size=(2, 2, 5, 5))
    w = ad.Var(RNG.normal(size=(3, 2, 3, 3)))
    b = ad.Var(RNG.normal(size=3))
    out = ad.conv2d(x, w, b, ConvSpec(3, stride=2))
    assert out.parents == (w, b)
    ad.backward(ad.sum_all(out))
    xv, wv, bv = ad.Var(x), ad.Var(w.data), ad.Var(b.data)
    ad.backward(ad.sum_all(ad.conv2d(xv, wv, bv, ConvSpec(3, stride=2))))
    assert xv.grad is not None
    assert w.grad.tobytes() == wv.grad.tobytes() and b.grad.tobytes() == bv.grad.tobytes()


def test_grads_add_across_backward_calls():
    """Each backward consumes its own graph; .grad adds across separate forwards."""
    x = ad.Var(RNG.normal(size=3))
    ad.backward(ad.sum_all(x))
    ad.backward(ad.sum_all(x))
    np.testing.assert_array_equal(x.grad, 2 * np.ones(3))


def test_second_backward_through_freed_graph_raises():
    x = ad.Var(RNG.normal(size=3))
    y = ad.sum_all(ad.mul(x, x))
    ad.backward(y)
    before = x.grad.tobytes()
    with pytest.raises(PreconditionError, match="forward"):
        ad.backward(y)
    assert x.grad.tobytes() == before
    assert y.data.shape == ()  # the output's value stays readable


def test_backward_releases_saved_activations():
    x = ad.Var(RNG.normal(size=(4, 5)))
    h = ad.mul(x, x)
    ref = weakref.ref(h.data)
    y = ad.sum_all(ad.mul(h, h))  # mul's vjp saves h.data
    del h
    assert ref() is not None
    ad.backward(y)
    assert ref() is None
    np.testing.assert_allclose(x.grad, 4 * x.data**3, rtol=1e-14)


def test_backward_peak_stays_near_the_tape():
    """A micro f64 batch-8 step: the peak inside backward is within 1.4x what
    the forward left traced (a backward that kept every vjp closure to the end
    reaches 1.75x)."""
    model = M.build_model(M.build_preset("micro"), seed=1, dtype=np.float64)
    x = np.random.default_rng(0).normal(size=(8, 3, 32, 32))
    tracemalloc.start()
    try:
        logits = M.model_forward(model, x, training=True, seed=1, step=0)
        loss = ad.cross_entropy(logits, np.arange(8) % logits.shape[1])
        entry = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        ad.backward(loss)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.4 * entry, (entry, peak)


def test_no_grad_suppresses_tape():
    x = ad.Var(RNG.normal(size=3))
    with ad.no_grad():
        y = ad.mul(x, x)
    assert y.parents == ()
    ad.backward(ad.sum_all(ad.mul(x, x)))
    assert x.grad is not None


def test_deep_chain_does_not_recurse():
    x = ad.Var(np.ones(1) * 0.5)
    y = x
    for _ in range(5000):
        y = ad.scale(y, 1.0)
    ad.backward(ad.sum_all(y))
    np.testing.assert_array_equal(x.grad, np.ones(1))


def test_broadcast_add_unbroadcasts():
    a = ad.Var(RNG.normal(size=(2, 3, 4)))
    b = ad.Var(RNG.normal(size=(3, 1)))
    ad.backward(ad.sum_all(ad.add(a, b)))
    np.testing.assert_array_equal(a.grad, np.ones((2, 3, 4)))
    np.testing.assert_array_equal(b.grad, np.full((3, 1), 8.0))


# -------------------------------------------------- finite differences


def test_finite_diff_sum_is_ones():
    x = RNG.normal(size=(2, 3))
    g = ad.finite_diff_grad(lambda a: float(a.sum()), x)
    np.testing.assert_allclose(g, np.ones((2, 3)), atol=1e-10)


def test_finite_diff_half_norm_squared():
    x = RNG.normal(size=5)
    g = ad.finite_diff_grad(lambda a: 0.5 * float((a * a).sum()), x)
    np.testing.assert_allclose(g, x, atol=1e-9)


def test_finite_diff_gelu_slope_at_one():
    # Phi(1) + phi(1) evaluated at double precision
    g = ad.finite_diff_grad(lambda a: float(ad.gelu(ad.Var(a)).data.sum()), np.array([1.0]))
    assert abs(g[0] - 1.0833154705876864) < 1e-7


def test_tape_gelu_slope_at_one():
    x = ad.Var(np.array([1.0]))
    ad.backward(ad.sum_all(ad.gelu(x)))
    assert abs(x.grad[0] - 1.0833154705876864) < 1e-12


# ------------------------------------------------------- per-op checks


def _weighted(out_shape):
    w = ad.Var(np.random.default_rng(hash(out_shape) % (2**32)).normal(size=out_shape))
    return lambda y: ad.sum_all(ad.mul(y, w))


def check_op(arrays: dict, f, tol=1e-5):
    leaves = {k: ad.Var(np.array(v, dtype=np.float64)) for k, v in arrays.items()}
    rep = ad.grad_check(lambda: f(leaves), leaves, tol=tol)
    assert rep.passed, rep.to_text()


def test_op_add_sub_mul_broadcast():
    s = _weighted((2, 3, 4))
    check_op(
        {"a": RNG.normal(size=(2, 3, 4)), "b": RNG.normal(size=(3, 1))},
        lambda lv: s(ad.add(lv["a"], lv["b"])),
    )
    check_op(
        {"a": RNG.normal(size=(2, 3, 4)), "b": RNG.normal(size=(1, 3, 1))},
        lambda lv: s(ad.sub(lv["a"], lv["b"])),
    )
    check_op(
        {"a": RNG.normal(size=(2, 3, 4)), "b": RNG.normal(size=(4,))},
        lambda lv: s(ad.mul(lv["a"], lv["b"])),
    )


def test_op_add_scaled():
    """x + y * s with a per-channel [1, c, 1, 1] scale and a per-sample [n, c, 1, 1] one."""
    s = _weighted((2, 3, 4, 5))
    for s_shape in ((1, 3, 1, 1), (2, 3, 1, 1)):
        arrays = {"x": RNG.normal(size=(2, 3, 4, 5)), "y": RNG.normal(size=(2, 3, 4, 5)),
                  "s": RNG.normal(size=s_shape)}
        check_op(arrays, lambda lv: s(ad.add_scaled(lv["x"], lv["y"], lv["s"])))
        x, y, sc = arrays["x"], arrays["y"], arrays["s"]
        assert ad.add_scaled(*map(ad.Var, (x, y, sc))).data.tobytes() == (x + y * sc).tobytes()


def test_mixed_dtypes_raise_instead_of_promoting():
    f32, f64 = np.ones((2, 3, 1, 1), np.float32), np.ones((2, 3, 1, 1))
    a, w, b = ad.Var(f32), ad.Var(np.ones((3, 3))), ad.Var(np.zeros(3))
    rows = ad.Var(np.ones((2, 3), np.float32))
    for op, args in [
        (ad.mul, (a, f64)),
        (ad.mul, (a, ad.Var(f64))),
        (ad.add, (a, ad.Var(f64))),
        (ad.add_scaled, (a, ad.Var(f64), ad.Var(f64))),
        (ad.add_scaled, (a, a, ad.Var(f64))),
        (ad.modulate, (a, ad.Var(f64), w, b, w, b)),  # an f32 ctx into f64 v
        (ad.linear, (rows, w, b)),
        (ad.linear, (rows, ad.Var(w.data.astype(np.float32)), b)),
        (ad.matmul, (rows, w)),
    ]:
        with pytest.raises(PreconditionError, match="mix dtypes float32 and float64"):
            op(*args)
    assert a.grad is None


def test_op_shape_moves():
    s = _weighted((3, 8))
    check_op(
        {"x": RNG.normal(size=(3, 2, 4))},
        lambda lv: s(ad.reshape(lv["x"], (3, 8))),
    )
    s2 = _weighted((4, 3, 2))
    check_op(
        {"x": RNG.normal(size=(2, 3, 4))},
        lambda lv: s2(ad.transpose(lv["x"], (2, 1, 0))),
    )
    s3 = _weighted((2, 3))
    check_op(
        {"x": RNG.normal(size=(2, 9))},
        lambda lv: s3(ad.narrow(lv["x"], 1, 4, 3)),
    )


def test_op_conv_pointwise_linear():
    s = _weighted((2, 3, 5, 5))
    spec = ConvSpec(3)
    check_op(
        {"x": RNG.normal(size=(2, 2, 5, 5)), "w": RNG.normal(size=(3, 2, 3, 3)),
         "b": RNG.normal(size=3)},
        lambda lv: s(ad.conv2d(lv["x"], lv["w"], lv["b"], spec)),
    )
    check_op(
        {"x": RNG.normal(size=(1, 4, 3, 3)), "w": RNG.normal(size=(2, 4)),
         "b": RNG.normal(size=2)},
        lambda lv: s2_pw(ad.pointwise(lv["x"], lv["w"], lv["b"])),
    )
    check_op(
        {"x": RNG.normal(size=(2, 5, 4)), "w": RNG.normal(size=(6, 4)),
         "b": RNG.normal(size=6)},
        lambda lv: s3_lin(ad.linear(lv["x"], lv["w"], lv["b"])),
    )


s2_pw = _weighted((1, 2, 3, 3))
s3_lin = _weighted((2, 5, 6))


def test_op_activations_and_norms():
    wg = ad.Var(RNG.normal(size=(2, 4, 3, 3)))
    check_op(
        {"x": RNG.normal(size=(2, 4, 3, 3))},
        lambda lv: ad.sum_all(ad.mul(ad.gelu(lv["x"]), wg)),
    )
    ws = ad.Var(RNG.normal(size=(2, 6)))
    check_op(
        {"x": RNG.normal(size=(2, 6))},
        lambda lv: ad.sum_all(ad.mul(ad.sigmoid(lv["x"]), ws)),
    )
    wsm = ad.Var(RNG.normal(size=(2, 3, 5)))
    check_op(
        {"x": RNG.normal(size=(2, 3, 5)) * 2},
        lambda lv: ad.sum_all(ad.mul(ad.softmax(lv["x"], axis=-1), wsm)),
    )
    for shape in [(2, 5, 3, 3), (2, 4, 5, 1), (3, 6, 1, 1)]:  # normalized over axis 1
        wn = ad.Var(RNG.normal(size=shape))
        c = shape[1]
        check_op(
            {"x": RNG.normal(size=shape) * 2, "g": RNG.normal(size=c),
             "b": RNG.normal(size=c)},
            lambda lv, wn=wn: ad.sum_all(ad.mul(ad.layer_norm(lv["x"], lv["g"], lv["b"]), wn)),
        )


def test_op_matmul_fuse_pool():
    wm = ad.Var(RNG.normal(size=(2, 3, 5)))
    check_op(
        {"a": RNG.normal(size=(2, 3, 4)), "b": RNG.normal(size=(2, 4, 5))},
        lambda lv: ad.sum_all(ad.mul(ad.matmul(lv["a"], lv["b"]), wm)),
    )
    for mode in ("repeat", "reshape"):
        for combine in ("mul", "sum"):
            wf = ad.Var(RNG.normal(size=(1, 6, 3, 3)))
            check_op(
                {"ctx": RNG.normal(size=(1, 2, 3, 3)), "v": RNG.normal(size=(1, 6, 3, 3))},
                lambda lv, m=mode, c=combine, wf=wf: ad.sum_all(
                    ad.mul(ad.fuse_modulate(lv["ctx"], lv["v"], mode=m, combine=c), wf)
                ),
            )
    wp = ad.Var(RNG.normal(size=(2, 3, 1, 1)))
    check_op(
        {"x": RNG.normal(size=(2, 3, 4, 4))},
        lambda lv: ad.sum_all(ad.mul(ad.global_avg_pool(lv["x"]), wp)),
    )


def test_op_cross_entropy():
    labels = np.array([0, 2, 1])
    check_op(
        {"z": RNG.normal(size=(3, 4))},
        lambda lv: ad.cross_entropy(lv["z"], labels),
    )
    z = ad.Var(RNG.normal(size=(3, 4)))
    loss = ad.cross_entropy(z, labels)
    assert loss.data.shape == ()
    assert np.isfinite(loss.data)


@pytest.mark.parametrize(
    "labels", [[0, 2, -1], [0, 2, 4], [0, 2], [0.0, 2.0, 1.0]],
    ids=["negative", "past-the-classes", "wrong-length", "float"],
)
def test_cross_entropy_refuses_labels_that_are_not_n_ints_in_range(labels):
    """A label of -1 would score the last class; the others would end in an IndexError."""
    z = ad.Var(RNG.normal(size=(3, 4)))
    with pytest.raises(PreconditionError, match=r"labels: expected 3 ints in \[0, 4\)"):
        ad.cross_entropy(z, np.array(labels))


def test_fuse_modulate_gradients_mode_invariant():
    """Both fusion routes must agree in the backward pass bit for bit."""
    ctx_data = RNG.normal(size=(2, 3, 4, 4))
    v_data = RNG.normal(size=(2, 12, 4, 4))
    seed = RNG.normal(size=(2, 12, 4, 4))
    grads = {}
    for mode in ("repeat", "reshape"):
        ctx = ad.Var(ctx_data.copy())
        v = ad.Var(v_data.copy())
        ad.backward(ad.sum_all(ad.mul(ad.fuse_modulate(ctx, v, mode=mode), seed)))
        grads[mode] = (ctx.grad, v.grad)
    assert grads["repeat"][0].tobytes() == grads["reshape"][0].tobytes()
    assert grads["repeat"][1].tobytes() == grads["reshape"][1].tobytes()


def test_op_attention():
    """Heads 1 and 2, one position (t = 1) and more positions than head dims (t > d)."""
    for heads in (1, 2):
        for h, w in ((1, 1), (2, 3)):
            shape = (2, 6 * heads, h, w)  # d = 2
            s = _weighted((2, 2 * heads, h, w))
            check_op(
                {"qkv": RNG.normal(size=shape)},
                lambda lv, heads=heads, s=s: s(ad.attention(lv["qkv"], heads)),
            )
    with pytest.raises(PreconditionError):
        ad.attention(ad.Var(RNG.normal(size=(1, 9, 2, 2))), 2)


def _composed_attention(qkv, heads):
    """Attention composed from reshape, narrow, transpose, scale, matmul and softmax nodes."""
    n, c3, hh, ww = qkv.data.shape
    d, t = c3 // (3 * heads), hh * ww
    r = ad.reshape(qkv, (n, 3, heads, d, t))
    q, k, v = (ad.reshape(ad.narrow(r, 1, i, 1), (n, heads, d, t)) for i in range(3))
    scores = ad.matmul(ad.transpose(k, (0, 1, 3, 2)), ad.scale(q, 1.0 / np.sqrt(d)))
    return ad.reshape(ad.matmul(v, ad.softmax(scores, axis=-2)), (n, c3 // 3, hh, ww))


def test_attention_node_matches_the_composed_ops():
    for heads, shape in ((1, (2, 6, 1, 1)), (2, (2, 24, 3, 4)), (4, (1, 48, 2, 5))):
        qkv_data = RNG.normal(size=shape)
        seed = RNG.normal(size=(shape[0], shape[1] // 3) + shape[2:])
        got = {}
        for name, f in (("node", ad.attention), ("composed", _composed_attention)):
            qkv = ad.Var(qkv_data.copy())
            y = f(qkv, heads)
            ad.backward(ad.sum_all(ad.mul(y, seed)))
            got[name] = (y.data, qkv.grad)
        for a, b in zip(got["node"], got["composed"]):
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-13)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_attention_keeps_qkv_and_gives_the_taped_bytes_under_no_grad(dtype):
    """Softmax overwrites the node's own scores, never the qkv map it reads."""
    qkv_data = RNG.normal(size=(2, 24, 3, 5)).astype(dtype)
    qkv = ad.Var(qkv_data.copy())
    taped = ad.attention(qkv, 4).data
    assert qkv.data.tobytes() == qkv_data.tobytes()
    with ad.no_grad():
        inferred = ad.attention(qkv, 4).data
    assert qkv.data.tobytes() == qkv_data.tobytes()
    assert inferred.dtype == dtype and inferred.tobytes() == taped.tobytes()


def _modulate_args(rng, n, c, r, c_out, h, w, dtype):
    """(ctx, x, v_w, v_b, p_w, p_b) arrays for one modulate call."""
    shapes = [(n, c, h, w), (n, c, h, w), (r * c, c), (r * c,), (c_out, r * c), (c_out,)]
    return [rng.normal(size=s).astype(dtype) for s in shapes]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("combine", ["mul", "sum"])
def test_modulate_bands_match_the_unbanded_composition(monkeypatch, combine, dtype):
    """Under no_grad each band of rows of v runs on its own: 1-row bands, a ragged
    last band and one band must all give the three kernels' result."""
    rng = np.random.default_rng(3)
    tol = 1e-12 if dtype == np.float64 else 1e-5
    for n, c, r, c_out, h, w in [(1, 3, 4, 5, 7, 5), (3, 2, 3, 2, 5, 6)]:
        ctx, x, v_w, v_b, p_w, p_b = _modulate_args(rng, n, c, r, c_out, h, w, dtype)
        v = K.pointwise(x, v_w, v_b)
        want = K.pointwise(K.fuse_modulate(ctx, v, combine=combine), p_w, p_b)
        row = n * r * c * w * np.dtype(dtype).itemsize  # bytes of one row of v
        for budget, sizes in [(row, [1] * h), (2 * row, [2] * (h // 2) + [1]), (h * row, [h])]:
            monkeypatch.setattr(K, "BAND_BYTES", budget)
            assert [b.stop - b.start for b in K.row_bands(h, row)] == sizes
            got = {}
            for mode in ("repeat", "reshape"):
                with ad.no_grad():  # modulate writes into the ctx it is handed: a fresh one each
                    args = map(ad.Var, (ctx.copy(), x, v_w, v_b, p_w, p_b))
                    y = ad.modulate(*args, mode, combine)
                got[mode] = y.data
            assert got["repeat"].tobytes() == got["reshape"].tobytes()
            assert got["reshape"].dtype == dtype
            assert rel_err(got["reshape"], want) <= tol, (n, budget)


@pytest.mark.parametrize("combine", ["mul", "sum"])
def test_modulate_under_no_grad_writes_into_the_ctx_it_consumes(combine):
    """With c_out == c the projection lands in ctx's own buffer, band after band, and equals
    the three kernels' result bit for bit. A taped call, a read-only ctx and c_out != c leave
    ctx's bytes alone and get a fresh output."""
    rng = np.random.default_rng(7)
    ctx, x, v_w, v_b, p_w, p_b = _modulate_args(rng, 2, 3, 4, 3, 5, 6, np.float32)
    prod = K.fuse_modulate(ctx, K.pointwise(x, v_w, v_b), combine=combine)
    wide_w, wide_b = np.tile(p_w, (2, 1)), np.tile(p_b, 2)  # c_out = 2c

    def run(c, p_w=p_w, p_b=p_b):
        got = ad.modulate(*map(ad.Var, (c, x, v_w, v_b, p_w, p_b)), combine=combine).data
        assert got.tobytes() == K.pointwise(prod, p_w, p_b).tobytes()
        return got

    consumed, read_only = ctx.copy(), ctx.copy()
    read_only.flags.writeable = False
    with ad.no_grad():
        assert np.shares_memory(run(consumed), consumed)
        fresh = [(read_only, run(read_only)), (c := ctx.copy(), run(c, wide_w, wide_b))]
    fresh.append((c := ctx.copy(), run(c)))  # taped
    for c, y in fresh:
        assert not np.shares_memory(y, c)
        assert c.tobytes() == ctx.tobytes()


@pytest.mark.parametrize("combine", ["mul", "sum"])
@pytest.mark.parametrize("mode", ["reshape", "repeat"])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("n", [2, 1])
def test_modulate_on_the_tape_is_one_band_and_equals_its_three_ops(
    monkeypatch, n, dtype, mode, combine
):
    """With the tape on the node is one band whatever the budget, and its value and
    gradients equal those of its three ops as separate nodes. The VJP remakes the
    product in the layout np.tensordot hands np.dot, which at n == 1 is a view of the
    product rather than a copy."""
    monkeypatch.setattr(K, "BAND_BYTES", 1)
    arrays = _modulate_args(np.random.default_rng(4), n, 3, 2, 4, 5, 4, dtype)
    seed = np.random.default_rng(5).normal(size=(n, 4, 5, 4)).astype(dtype)
    one, three = [ad.Var(a.copy()) for a in arrays], [ad.Var(a.copy()) for a in arrays]
    y = ad.modulate(*one, mode, combine)
    ctx, x, v_w, v_b, p_w, p_b = three
    y3 = ad.pointwise(ad.fuse_modulate(ctx, ad.pointwise(x, v_w, v_b), mode, combine), p_w, p_b)
    assert y.data.tobytes() == y3.data.tobytes()
    ad.backward(ad.sum_all(ad.mul(y, seed)))
    ad.backward(ad.sum_all(ad.mul(y3, seed)))
    for a, b in zip(one, three):
        assert a.grad.tobytes() == b.grad.tobytes()


def test_modulate_tape_keeps_v_not_the_product():
    """A taped modulate retains its output and v; the VJP remakes the r*c product,
    so the node holds less than one more r*c map on top of those two."""
    n, c, r, c_out, h, w = 2, 8, 4, 8, 8, 8
    rng = np.random.default_rng(6)
    arrays = [ad.Var(a) for a in _modulate_args(rng, n, c, r, c_out, h, w, np.float64)]
    rc_map = n * r * c * h * w * 8
    tracemalloc.start()
    try:
        y = ad.modulate(*arrays)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert retained - y.data.nbytes - rc_map < rc_map, retained


def test_grad_check_report_fields():
    x = ad.Var(RNG.normal(size=(2, 2)))
    rep = ad.grad_check(lambda: ad.sum_all(ad.mul(x, x)), {"x": x})
    assert rep.passed
    assert rep.rows[0].name == "x"
    assert rep.rows[0].size == 4
    assert "PASS" in rep.to_text()


@pytest.mark.parametrize(
    "bad, match",
    [
        (lambda v: ad.Var(v.data.astype(np.float32)), "C-contiguous float64"),
        (lambda v: ad.Var(v.data.reshape(3, 2).T), "C-contiguous float64"),
        (lambda v: ad.reshape(v, (2, 3)), "tape parents"),
    ],
    ids=["float32", "transposed", "non-leaf"],
)
def test_grad_check_refuses_a_leaf_it_cannot_perturb_in_place(bad, match):
    """A float32 or transposed leaf would be perturbed through a copy f never reads, and f
    remakes a non-leaf's data; grad_check raises before f runs or any leaf changes."""
    ok, odd = ad.Var(RNG.normal(size=(2, 3))), bad(ad.Var(RNG.normal(size=(2, 3))))
    leaves, calls = {"ok": ok, "odd": odd}, []
    for v in leaves.values():
        v.grad = np.ones(v.shape, v.dtype)

    def state():
        return [(v.data.tobytes(), v.grad.tobytes()) for v in leaves.values()]

    before = state()
    with pytest.raises(PreconditionError, match=match):
        ad.grad_check(lambda: calls.append(1) or ad.add(ok, odd), leaves)
    assert not calls and state() == before
