"""Model assembly: presets, JSON round trips, forward contracts."""

import dataclasses
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from effmod import autodiff as ad
from effmod import bench as bn
from effmod import blocks as B
from effmod import ctxmap
from effmod import kernels as K
from effmod import model as M
from effmod.analyzer import complexity_report
from effmod.ctxmap import context_map
from effmod.errors import ConfigError, NumericalError, PreconditionError

RNG = np.random.default_rng(11)


# -------------------------------------------------------------- presets


def test_preset_catalog():
    assert set(M.PRESETS) == {"xxs", "xs", "s", "s_conv", "micro"}


@pytest.mark.parametrize(
    "name, dims, mods, attns, pattern, head, drop, mlp",
    [
        ("xxs", (32, 64, 128, 256), (2, 2, 6, 2), (0, 0, 1, 2), (1, 6), 1000, 0.0, 4.0),
        ("xs", (32, 64, 144, 288), (3, 3, 4, 2), (0, 0, 3, 3), (1, 4), 1000, 0.0, 4.5),
        ("s", (32, 64, 144, 312), (4, 4, 8, 8), (0, 0, 4, 4), (1, 6), 1000, 0.02, 1.375),
        ("s_conv", (40, 80, 160, 344), (4, 4, 12, 8), (0, 0, 0, 0), (1, 6), 1000, 0.02, 4.0),
        ("micro", (8, 16, 24, 32), (1, 1, 1, 1), (0, 0, 0, 0), (4,), 4, 0.0, 4.0),
    ],
)
def test_preset_structure(name, dims, mods, attns, pattern, head, drop, mlp):
    spec = M.build_preset(name)
    spec.validate()
    assert spec.stem.kernel == 7 and spec.stem.stride == 4
    assert tuple(st.dim for st in spec.stages) == dims
    assert tuple(st.mod_blocks for st in spec.stages) == mods
    assert tuple(st.attn_blocks for st in spec.stages) == attns
    for st in spec.stages:
        assert st.expansion_pattern == pattern
        assert st.dw_kernel == 7
    assert spec.head == head
    assert spec.drop_path_rate == drop
    assert spec.attn_mlp_ratio == mlp


def test_unknown_preset_rejected():
    with pytest.raises(ConfigError):
        M.build_preset("nosuchthing")


def test_validate_rejects_bad_specs():
    ok = M.build_preset("micro")
    three = M.ModelSpec(stem=ok.stem, stages=ok.stages[:3], head=4)
    with pytest.raises(ConfigError):
        three.validate()
    early_attn = M.ModelSpec(
        stem=ok.stem,
        stages=(M.StageSpec(8, 1, attn_blocks=1),) + ok.stages[1:],
        head=4,
    )
    with pytest.raises(ConfigError):
        early_attn.validate()
    bad_heads = M.ModelSpec(
        stem=ok.stem,
        stages=ok.stages[:3] + (M.StageSpec(30, 1, attn_blocks=1),),
        head=4,
    )
    with pytest.raises(ConfigError):
        bad_heads.validate()
    even_dw = M.ModelSpec(
        stem=ok.stem,
        stages=(M.StageSpec(8, 1, dw_kernel=4),) + ok.stages[1:],
        head=4,
    )
    with pytest.raises(ConfigError):
        even_dw.validate()
    with pytest.raises(ConfigError):
        M.ModelSpec(stem=ok.stem, stages=ok.stages, head=4, drop_path_rate=1.0).validate()
    with pytest.raises(ConfigError):
        M.ModelSpec(stem=ok.stem, stages=ok.stages, head=0).validate()
    for stem in (M.StemSpec(4, 4), M.StemSpec(0, 4), M.StemSpec(7, 0)):
        with pytest.raises(ConfigError, match="stem"):
            M.ModelSpec(stem=stem, stages=ok.stages, head=4).validate()
    with pytest.raises(ConfigError):
        M.ModelSpec(
            stem=ok.stem,
            stages=(M.StageSpec(8, 1, expansion_pattern=(0,)),) + ok.stages[1:],
            head=4,
        ).validate()


# ----------------------------------------------------------------- JSON


def spec_json(spec) -> str:
    """A spec as the JSON document spec_from_json reads."""
    return json.dumps(dataclasses.asdict(spec), indent=2)


def test_json_round_trip_all_presets():
    for name in M.PRESETS:
        spec = M.build_preset(name)
        again = M.spec_from_json(spec_json(spec))
        assert again == spec


def test_json_unknown_keys_rejected_each_level():
    doc = json.loads(spec_json(M.build_preset("micro")))
    top = dict(doc, flavor="spicy")
    with pytest.raises(ConfigError, match="flavor"):
        M.spec_from_json(json.dumps(top))
    bad_stem = json.loads(json.dumps(doc))
    bad_stem["stem"]["depth"] = 3
    with pytest.raises(ConfigError, match="depth"):
        M.spec_from_json(json.dumps(bad_stem))
    bad_stage = json.loads(json.dumps(doc))
    bad_stage["stages"][1]["width"] = 12
    with pytest.raises(ConfigError, match="width"):
        M.spec_from_json(json.dumps(bad_stage))
    # wrong types at each level, and a stem kernel the derived padding cannot center
    for path, value in (
        (("stem",), [7, 4]),
        (("stem", "kernel"), 4),
        (("stem", "stride"), "4"),
        (("stages", 1), 16),
        (("stages", 0, "dim"), "a"),
        (("stages", 0, "expansion_pattern"), 4),
        (("stages", 0, "expansion_pattern"), [1, 2.5]),
        (("head",), True),
        (("drop_path_rate",), "0.1"),
        (("layer_scale_init",), float("nan")),
        (("attn_mlp_ratio",), float("inf")),
    ):
        bad = json.loads(json.dumps(doc))
        target = bad
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        with pytest.raises(ConfigError):
            M.spec_from_json(json.dumps(bad))


def test_json_missing_required_keys():
    doc = json.loads(spec_json(M.build_preset("micro")))
    for key in ("stem", "stages", "head"):
        trimmed = {k: v for k, v in doc.items() if k != key}
        with pytest.raises(ConfigError, match=key):
            M.spec_from_json(json.dumps(trimmed))
    no_dim = json.loads(json.dumps(doc))
    del no_dim["stages"][0]["dim"]
    with pytest.raises(ConfigError):
        M.spec_from_json(json.dumps(no_dim))


def test_json_malformed_reports_position():
    with pytest.raises(ConfigError) as e:
        M.spec_from_json('{"stem": {,}')
    assert "line" in str(e.value) and "column" in str(e.value)


def test_json_wrong_stage_count():
    doc = json.loads(spec_json(M.build_preset("micro")))
    doc["stages"] = doc["stages"][:2]
    with pytest.raises(ConfigError, match="4"):
        M.spec_from_json(json.dumps(doc))
    with pytest.raises(ConfigError):
        M.spec_from_json("[1, 2]")


@pytest.mark.parametrize(
    "text",
    [
        "[" * 100_000,  # nested past the recursion limit
        '{"head": ' + "1" * 5000 + "}",  # an integer past Python's 4300-digit string limit
        # an integer past the float range in a float field
        spec_json(dataclasses.replace(M.build_preset("micro"), drop_path_rate=10**400)),
    ],
    ids=["deep_nesting", "long_integer", "integer_float_field"],
)
def test_json_beyond_python_limits_is_config_error(text):
    with pytest.raises(ConfigError):
        M.spec_from_json(text)


def _parses_or_config_error(text: str) -> None:
    try:
        spec = M.spec_from_json(text)
    except ConfigError:
        return
    assert isinstance(spec, M.ModelSpec)
    assert spec.validate() is spec


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
    | st.sampled_from([10**400, -(10**400), 2**63, 0.5, 7]),
    lambda kids: st.lists(kids, max_size=5)
    | st.dictionaries(st.text(max_size=6), kids, max_size=5),
    max_leaves=12,
)


@settings(max_examples=60, deadline=None)
@given(doc=_JSON)
def test_json_any_value_parses_or_raises_config_error(doc):
    _parses_or_config_error(json.dumps(doc))


def _json_paths(doc, prefix=()):
    if isinstance(doc, dict):
        items = doc.items()
    else:
        items = enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from _json_paths(value, prefix + (key,))


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(M.PRESETS)), data=st.data())
def test_json_mutated_spec_parses_or_raises_config_error(name, data):
    doc = json.loads(spec_json(M.build_preset(name)))
    for _ in range(data.draw(st.integers(1, 3))):
        path = data.draw(st.sampled_from(list(_json_paths(doc))))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if data.draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = data.draw(_JSON)
    _parses_or_config_error(json.dumps(doc))


def test_json_absent_keys_take_the_dataclass_defaults():
    doc = {"stem": {}, "stages": [{"dim": 8, "mod_blocks": 1}] * 4, "head": 4}
    spec = M.spec_from_json(json.dumps(doc))
    assert spec == M.ModelSpec(M.StemSpec(), (M.StageSpec(8, 1),) * 4, head=4)
    assert set(json.loads(spec_json(spec))) == {f.name for f in dataclasses.fields(spec)}


def test_json_errors_name_the_path():
    doc = json.loads(spec_json(M.build_preset("micro")))
    doc["stages"][1]["expansion_pattern"] = [4, "x"]
    with pytest.raises(ConfigError, match=r"stages\[1\]\.expansion_pattern\[1\]"):
        M.spec_from_json(json.dumps(doc))


# ------------------------------------------------------------- size cap


@pytest.mark.parametrize(
    "path, value",
    [(("stages", 0, "dim"), 10**400), (("stages", 0, "dw_kernel"), 100_001),
     (("attn_mlp_ratio",), 1e307)],
    ids=["dim", "dw_kernel", "attn_mlp_ratio"],
)
def test_spec_above_the_weight_cap_is_config_error_without_allocating(path, value):
    doc = json.loads(spec_json(M.build_preset("micro")))
    doc["stages"][3]["attn_blocks"] = 1  # so the MLP ratio sizes a block
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    text = json.dumps(doc)
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError, match="cap"):
            M.spec_from_json(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("name", sorted(M.PRESETS) + ["odd-pattern-attn"])
def test_weight_count_is_the_analyzers_count(name):
    if name in M.PRESETS:
        spec = M.build_preset(name)
    else:  # a pattern that does not divide the block count, and a rounded MLP width
        micro = M.build_preset("micro")
        stage = M.StageSpec(32, 5, attn_blocks=2, expansion_pattern=(1, 2, 3), dw_kernel=5)
        spec = dataclasses.replace(micro, stages=micro.stages[:3] + (stage,), attn_mlp_ratio=1.3)
    model = M.build_model(spec)
    side = M.total_stride(model)
    assert spec.weight_count() == complexity_report(model, (side, side)).total_params_no_bias


# ---------------------------------------------------------------- build


def test_build_deterministic_per_seed():
    a = M.build_model(M.build_preset("micro"), seed=7)
    b = M.build_model(M.build_preset("micro"), seed=7)
    names_a = list(a.named_parameters())
    names_b = list(b.named_parameters())
    assert [n for n, _ in names_a] == [n for n, _ in names_b]
    for (_, va), (_, vb) in zip(names_a, names_b):
        assert va.data.tobytes() == vb.data.tobytes()
    c = M.build_model(M.build_preset("micro"), seed=8)
    assert any(
        va.data.tobytes() != vc.data.tobytes()
        for (_, va), (_, vc) in zip(names_a, c.named_parameters())
    )


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("seed", [1, 7])
@pytest.mark.parametrize("name", ["micro", "xxs"])
def test_parameters_are_drawn_in_parameter_order(name, seed, dtype):
    """An oracle for the draw order: one trunc_normal per weight (2 or more dims) from
    one generator, in named_parameters() order. Every other parameter is a constant:
    norm gains 1, layer scales layer_scale_init, biases and norm shifts 0."""
    spec = M.build_preset(name)
    model = M.build_model(spec, seed=seed, dtype=dtype)
    rng = np.random.default_rng(seed)
    for pname, v in model.named_parameters():
        shape = v.data.shape
        if len(shape) >= 2:
            want = B.trunc_normal(rng, shape, 0.02, dtype)
        elif pname.endswith(".w"):  # a 1-D weight is a norm gain
            want = np.ones(shape, dtype)
        elif pname.endswith(".layer_scale"):
            want = np.full(shape, spec.layer_scale_init, dtype)
        else:
            want = np.zeros(shape, dtype)
        assert v.data.dtype == dtype and v.data.tobytes() == want.tobytes(), pname


@pytest.mark.parametrize("name", sorted(M.PRESETS))
def test_stage_plan_is_the_built_model(name):
    spec = M.build_preset(name)
    model = M.build_model(spec, seed=0)
    plan = M.stage_plan(spec)
    assert [dim for dim, _ in plan] == [stage.dim for stage in spec.stages]
    planned = [[kind for kind, _ in blocks] for _, blocks in plan]
    assert planned == [[entry.kind for entry in stage] for stage in model.stages]
    for kinds, st in zip(planned, spec.stages):
        assert kinds == ["efficient_mod"] * st.mod_blocks + ["attention"] * st.attn_blocks


def test_parameter_naming_layout():
    m = M.build_model(M.build_preset("micro"), seed=0)
    names = [n for n, _ in m.named_parameters()]
    assert names[0] == "stem.w" and names[1] == "stem.b"
    assert any(n.startswith("stage0.block0.wrap.") for n in names)
    assert "down0.w" in names and "down2.w" in names
    assert names[-4:] == ["head.norm.w", "head.norm.b", "head.w", "head.b"]
    assert len(names) == len(set(names))


@pytest.mark.parametrize("name", [*M.PRESETS, *M.ISO_SPECS])
def test_block_entry_kinds_are_block_kinds(name):
    """Models name their blocks in the block zoo's vocabulary."""
    if name in M.PRESETS:
        m = M.build_model(M.build_preset(name), seed=0)
    else:
        m = M.build_isotropic(M.ISO_SPECS[name], seed=0)
    kinds = {entry.kind for stage in m.stages for entry in stage}
    assert kinds and kinds <= set(B.BLOCK_KINDS), kinds


def test_build_rejects_bad_combine():
    with pytest.raises(ConfigError):
        M.build_model(M.build_preset("micro"), combine="xor")


# -------------------------------------------------------------- forward


def test_micro_forward_shapes_and_finiteness():
    m = M.build_model(M.build_preset("micro"), seed=0, dtype=np.float64)
    x = RNG.normal(size=(2, 3, 32, 32))
    with ad.no_grad():
        logits = M.model_forward(m, x).data
    assert logits.shape == (2, 4)
    assert np.isfinite(logits).all()


def test_forward_dtype_follows_build():
    m = M.build_model(M.build_preset("micro"), seed=0, dtype=np.float32)
    x = RNG.normal(size=(1, 3, 32, 32)).astype(np.float32)
    with ad.no_grad():
        out = M.model_forward(m, x).data
    assert out.dtype == np.float32


def test_f32_models_stay_f32_through_forward_and_backward():
    """No op may promote an f32 model to f64: logits and leaf grads stay f32 for every spec."""
    models = {n: M.build_model(M.build_preset(n), seed=0, dtype=np.float32) for n in M.PRESETS}
    models.update(
        (n, M.build_isotropic(spec, seed=0, dtype=np.float32)) for n, spec in M.ISO_SPECS.items()
    )
    for name, m in models.items():
        side = M.total_stride(m)  # the smallest valid input
        out = M.model_forward(m, RNG.normal(size=(1, 3, side, side)).astype(np.float32))
        assert out.data.dtype == np.float32, name
        ad.backward(ad.sum_all(out))
        for pname, v in m.named_parameters():
            assert v.grad.dtype == np.float32, (name, pname)


def test_ndarray_image_is_a_constant_with_the_same_parameter_grads(monkeypatch):
    """Only the stem's VJP skips its input gradient, and skipping it leaves every
    parameter gradient as it is when the input gradient is computed."""
    x = RNG.normal(size=(2, 3, 32, 32))

    def grads():
        m = M.build_model(M.build_preset("micro"), seed=0, dtype=np.float64)
        ad.backward(ad.sum_all(M.model_forward(m, x)))
        return [v.grad.tobytes() for _, v in m.named_parameters()]

    skipped = grads()
    asked, vjp = [], K.conv2d_vjp

    def forced(x, w, spec, g, need_input=True):
        asked.append(need_input)
        dx, dw, db = vjp(x, w, spec, g, need_input=True)
        assert dx.shape == x.shape
        return dx if need_input else None, dw, db

    monkeypatch.setattr(K, "conv2d_vjp", forced)
    assert grads() == skipped
    assert asked == [True] * (len(asked) - 1) + [False]  # the stem's VJP runs last


def test_model_forward_refuses_a_var_image():
    m = M.build_model(M.build_preset("micro"), seed=0, dtype=np.float64)
    with pytest.raises(PreconditionError, match="model input: expected ndarray, got Var"):
        M.model_forward(m, ad.Var(RNG.normal(size=(1, 3, 32, 32))))


def test_forward_input_validation():
    m = M.build_model(M.build_preset("micro"), seed=0)
    with pytest.raises(PreconditionError):
        M.model_forward(m, RNG.normal(size=(3, 32, 32)))
    with pytest.raises(PreconditionError):
        M.model_forward(m, RNG.normal(size=(1, 4, 32, 32)))
    with pytest.raises(PreconditionError):
        M.model_forward(m, RNG.normal(size=(1, 3, 48, 48)))


def test_stage_resolutions_s_at_224():
    m = M.build_model(M.build_preset("s"), seed=0)
    assert M.stage_resolutions(m, (224, 224)) == [(56, 56), (28, 28), (14, 14), (7, 7)]
    assert M.stage_resolutions(m, (64, 96)) == [(16, 24), (8, 12), (4, 6), (2, 3)]


def test_xxs_forward_exercises_attention_path():
    m = M.build_model(M.build_preset("xxs"), seed=0, dtype=np.float32)
    x = RNG.normal(size=(1, 3, 64, 64)).astype(np.float32)
    with ad.no_grad():
        logits = M.model_forward(m, x).data
    assert logits.shape == (1, 1000)
    assert np.isfinite(logits).all()


def test_xxs_inference_keeps_only_live_activations():
    """f32 224x224 no_grad forward: the r*c value map lives one row band at a time.

    Holding the value map and the product at once, plus ctx and the attention
    scores past their last use, peaked at 6.45 MB; a whole value map overwritten
    by the product, at 3.64 MB; stage 0's full-width depthwise band, at 2.41 MB;
    a fresh modulate output beside ctx, gelu's full-size scratch or two stem
    im2col bands, at 2.22 MB. Now modulate writes into the ctx it consumes, gelu
    keeps one TILE_BYTES chunk and the stem one band: the peak, 1.82 MB, sits in
    stage 0's modulate (stream, LN output, ctx, one value-map band and the bias
    add's buffers); tests/test_perfbench_names.py pins the benchmark's probe.
    """
    m = M.build_model(M.build_preset("xxs"), seed=1, dtype=np.float32)
    x = np.random.default_rng(1).standard_normal((1, 3, 224, 224), dtype=np.float32)
    tracemalloc.start()
    try:
        with ad.no_grad():
            inferred = M.model_forward(m, x).data
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.9e6
    assert inferred.tobytes() == M.model_forward(m, x).data.tobytes()


def test_training_forward_with_drop_path_is_step_keyed():
    spec = M.ModelSpec(
        stem=M.StemSpec(7, 4),
        stages=M.build_preset("micro").stages,
        head=4,
        drop_path_rate=0.5,
    )
    m = M.build_model(spec, seed=0, dtype=np.float64)
    x = RNG.normal(size=(4, 3, 32, 32))
    with ad.no_grad():
        a = M.model_forward(m, x, training=True, seed=5, step=0).data
        b = M.model_forward(m, x, training=True, seed=5, step=0).data
        c = M.model_forward(m, x, training=True, seed=5, step=1).data
    assert a.tobytes() == b.tobytes()
    assert a.tobytes() != c.tobytes()


def test_context_map_micro_stage2_grid():
    m = M.build_model(M.build_preset("micro"), seed=0, dtype=np.float64)
    cm = context_map(m, RNG.normal(size=(1, 3, 64, 64)), stage=2, block=0)
    assert cm.grid.shape == (4, 4)  # stage 2 runs at 64/16
    assert cm.grid.dtype == np.uint8


def test_model_rejects_an_image_of_another_dtype():
    """No silent promotion: an f32 model given an f64 image raises, and the reverse too."""
    x = RNG.normal(size=(1, 3, 32, 32))
    for dtype, other in ((np.float32, np.float64), (np.float64, np.float32)):
        m = M.build_model(M.build_preset("micro"), seed=0, dtype=dtype)
        assert m.dtype == dtype
        with pytest.raises(PreconditionError, match=np.dtype(other).name):
            M.model_forward(m, x.astype(other))
        assert M.model_forward(m, x.astype(dtype)).data.dtype == dtype


def test_context_map_casts_the_image_to_the_model_dtype():
    img = RNG.random(size=(3, 64, 64)).astype(np.float32)
    maps = [
        context_map(M.build_model(M.build_preset("micro"), seed=0, dtype=dt), img, 2, 0)
        for dt in (np.float32, np.float64)
    ]
    assert maps[0].grid.shape == maps[1].grid.shape == (4, 4)
    for lo_hi in ("raw_min", "raw_max"):
        f32, f64 = getattr(maps[0], lo_hi), getattr(maps[1], lo_hi)
        assert abs(f32 - f64) <= 1e-4 * max(abs(maps[1].raw_min), abs(maps[1].raw_max))


def test_context_map_must_point_at_modulation():
    xxs = M.build_model(M.build_preset("xxs"), seed=0)
    img = RNG.normal(size=(1, 3, 32, 32)).astype(np.float32)
    with pytest.raises(ConfigError):
        context_map(xxs, img, stage=3, block=2)  # index 2 in stage 3 is an attention block
    with pytest.raises(ConfigError):
        context_map(xxs, img, stage=4, block=0)


class _Ran(Exception):
    pass


# stage 3 block 0 runs all of stage 2, whose attention block, over t = (h/16)(w/16) tokens,
# makes [1, 3c, t] qkv, [1, HEADS, t, t] scores and a [1, c * attn_mlp_ratio, t] MLP map
TINY_ATTN = M.ModelSpec(
    stem=M.StemSpec(), head=4, attn_mlp_ratio=256.0,
    stages=tuple(M.StageSpec(8, 1, attn_blocks=int(i == 2)) for i in range(4)),
)


@pytest.mark.parametrize("spec, side, largest", [
    (M.build_preset("xxs"), 256, M.HEADS * (16 * 16) ** 2),  # scores (8.6 GB at 2048x2048)
    (TINY_ATTN, 64, 8 * 256 * 4 * 4),  # the MLP map
], ids=["xxs-scores", "mlp-map"])
def test_context_map_checks_its_prefix_against_the_activation_budget(
    monkeypatch, spec, side, largest
):
    model, img = M.build_model(spec, seed=0), np.zeros((3, side, side), np.float32)

    def forward(*args):
        raise _Ran

    monkeypatch.setattr(ctxmap, "forward_features", forward)
    monkeypatch.setattr(M, "MAX_ACTIVATIONS", largest)
    with pytest.raises(_Ran):
        context_map(model, img, stage=3, block=0)
    monkeypatch.setattr(M, "MAX_ACTIVATIONS", largest - 1)
    with pytest.raises(ConfigError, match=f"stage 2: {largest:,} elements"):
        context_map(model, img, stage=3, block=0)


# stage 1 block 0 runs stage 0, whose modulation block fills [1, rc, rows, w] value-map bands
WIDE_MOD = M.ModelSpec(
    stem=M.StemSpec(), head=4,
    stages=(M.StageSpec(2, 1, expansion_pattern=(500,)), *[M.StageSpec(8, 1)] * 3),
)


def test_context_map_counts_each_modulation_band_against_the_activation_budget(monkeypatch):
    """At 64x64, stage 0 is 16x16 and its rc = 1000 value map runs in bands of
    BAND_BYTES // (rc * 16 * 4) rows under no_grad: the band, not the whole map, is counted."""
    model, img = M.build_model(WIDE_MOD, seed=0), np.zeros((3, 64, 64), np.float32)
    rows = K.BAND_BYTES // (1000 * 16 * 4)
    assert 1 < rows < 16
    largest = 1000 * 16 * rows

    def forward(*args):
        raise _Ran

    monkeypatch.setattr(ctxmap, "forward_features", forward)
    monkeypatch.setattr(M, "MAX_ACTIVATIONS", largest)
    with pytest.raises(_Ran):
        context_map(model, img, stage=1, block=0)
    monkeypatch.setattr(M, "MAX_ACTIVATIONS", largest - 1)
    with pytest.raises(ConfigError, match=f"stage 0: {largest:,} elements"):
        context_map(model, img, stage=1, block=0)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_a_layer_scale_the_dtype_cannot_hold_is_refused_before_any_draw(monkeypatch, dtype):
    """1e39 is past float32's 3.4e38, where np.full would store inf; float64 holds it, 1e309
    it cannot. Neither build draws a parameter first."""
    big = 1e39 if dtype == np.float32 else float("inf")
    micro = dataclasses.replace(M.build_preset("micro"), layer_scale_init=big)
    iso = dataclasses.replace(M.ISO_SPECS["iso-effmod-196-11"], layer_scale_init=-big)

    def draw(*args):
        raise _Ran

    monkeypatch.setattr(B, "trunc_normal", draw)
    with pytest.raises(ConfigError, match=f"layer_scale_init .* {np.dtype(dtype).name}"):
        M.build_model(micro, seed=0, dtype=dtype)
    with pytest.raises(ConfigError, match="layer_scale_init"):
        M.build_isotropic(iso, seed=0, dtype=dtype)
    with pytest.raises(_Ran):  # the largest finite scale builds
        M.build_model(dataclasses.replace(micro, layer_scale_init=float(np.finfo(dtype).max)),
                      seed=0, dtype=dtype)


def test_context_map_refuses_a_non_finite_context():
    """An inf layer scale upstream makes the tapped context NaN: NumericalError, not a
    [nan, nan] range over an all-zero grid."""
    m = M.build_model(M.build_preset("micro"), seed=0)
    m.stages[0][0].wrap.layer_scale.data[:] = np.inf
    img = RNG.random((3, 64, 64)).astype(np.float32)
    with pytest.raises(NumericalError, match="stage 1 block 0"):
        context_map(m, img, stage=1, block=0)
    assert np.isfinite(context_map(m, img, stage=0, block=0).raw_max)  # upstream of the inf


def test_forward_features_is_the_pre_head_map():
    m = M.build_model(M.build_preset("micro"), seed=0, dtype=np.float64)
    x = RNG.normal(size=(2, 3, 64, 64))
    with ad.no_grad():
        feats = M.forward_features(m, x).data
        logits = M.model_forward(m, x).data
    assert feats.shape == (2, 32, 2, 2)  # last stage dim at 64/32
    h = feats.mean(axis=(2, 3))
    h = (h - h.mean(axis=1, keepdims=True)) / np.sqrt(h.var(axis=1, keepdims=True) + 1e-6)
    want = (h * m.head_norm.w.data + m.head_norm.b.data) @ m.head.w.data.T + m.head.b.data
    np.testing.assert_allclose(logits, want, rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize("preset", ["micro", "xxs"])
def test_pointwise_head_equals_the_pooled_linear_map(preset):
    """GAP, layer norm and x @ w.T + b on [n, c] give the logits the [n, c, 1, 1] head does."""
    m = M.build_model(M.build_preset(preset), seed=0, dtype=np.float64)
    x = RNG.normal(size=(2, 3, 64, 64))
    with ad.no_grad():
        feats = M.forward_features(m, x).data
        logits = M.model_forward(m, x).data
    h = K.layer_norm(feats.mean(axis=(2, 3), keepdims=True), m.head_norm.w.data, m.head_norm.b.data)
    want = h[:, :, 0, 0] @ m.head.w.data.T + m.head.b.data
    np.testing.assert_allclose(logits, want, rtol=1e-12, atol=1e-12)


def test_input_divisibility_follows_stem_and_downsample_strides():
    spec = M.ModelSpec(stem=M.StemSpec(7, 2), stages=M.build_preset("micro").stages, head=4)
    m = M.build_model(spec, seed=0, dtype=np.float64)
    assert M.total_stride(m) == 16
    with ad.no_grad():
        assert M.model_forward(m, RNG.normal(size=(1, 3, 48, 48))).data.shape == (1, 4)
    with pytest.raises(PreconditionError):
        M.model_forward(m, RNG.normal(size=(1, 3, 40, 40)))
    k5 = M.build_model(dataclasses.replace(spec, stem=M.StemSpec(5, 4)), seed=0)
    assert M.stage_resolutions(k5, (32, 32))[0] == (8, 8)  # the stem pads kernel // 2


def test_combine_sum_changes_forward_not_params():
    x = RNG.normal(size=(1, 3, 32, 32))
    mul_m = M.build_model(M.build_preset("micro"), seed=0, dtype=np.float64, combine="mul")
    sum_m = M.build_model(M.build_preset("micro"), seed=0, dtype=np.float64, combine="sum")
    for (na, va), (nb, vb) in zip(mul_m.named_parameters(), sum_m.named_parameters()):
        assert na == nb and va.data.tobytes() == vb.data.tobytes()
    with ad.no_grad():
        a = M.model_forward(mul_m, x).data
        b = M.model_forward(sum_m, x).data
    assert not np.array_equal(a, b)


# ------------------------------------------------------------ isotropic


def test_isotropic_build_and_forward():
    spec = M.IsotropicSpec("efficient_mod", 16, 2, 2, dw_kernel=3, patch=14, head=10)
    m = M.build_isotropic(spec, seed=0, dtype=np.float64)
    x = RNG.normal(size=(1, 3, 28, 28))
    with ad.no_grad():
        logits = M.model_forward(m, x).data
    assert logits.shape == (1, 10)


def test_iso_catalog_and_pair_build():
    assert set(M.ISO_PAIRS) == {"iso-256-13", "iso-196-11"}
    for a, b in M.ISO_PAIRS.values():
        assert a in M.ISO_SPECS and b in M.ISO_SPECS
    with pytest.raises(ConfigError):
        bn.bench_pair_mbconv("iso-1-1")


def test_iso_spec_validation():
    with pytest.raises(ConfigError):
        M.IsotropicSpec("dense", 16, 2, 2).validate()
    with pytest.raises(ConfigError):
        M.IsotropicSpec("mbconv", 16, 0, 2).validate()


def test_isotropic_patch_too_large_for_input():
    spec = M.IsotropicSpec("efficient_mod", 8, 1, 1, dw_kernel=3, patch=14, head=4)
    m = M.build_isotropic(spec, seed=0)
    with pytest.raises(PreconditionError):
        M.model_forward(m, RNG.normal(size=(1, 3, 8, 8)).astype(np.float32))
    with pytest.raises(PreconditionError):  # larger than a patch, but not a whole number of them
        M.model_forward(m, RNG.normal(size=(1, 3, 21, 21)).astype(np.float32))

