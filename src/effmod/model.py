"""Model assembly: 4-stage hierarchical backbones and isotropic stacks.

Hierarchy: stem conv (k7 s4, padded kernel // 2 per side) -> 4 stages at 1/4,
1/8, 1/16, 1/32 of the input, joined by k3 s2 pad1 downsampling convs -> GAP
-> LayerNorm -> pointwise classifier. Within a stage every modulation block
precedes every attention block, and attention only appears in stages 3 and 4
where the token count is small.

Isotropic: patchify conv (k14 s14) -> depth identical blocks at one width ->
same head. Used for the parameter-matched modulation-vs-MBConv pairs.

ModelSpec round-trips through JSON whose keys, required or defaulted, are the
spec dataclasses' fields. The MLP ratio is a field because it is the one knob
that calibrates preset budgets. Attention has HEADS = 8 heads everywhere, and
`validate` rejects a spec above MAX_WEIGHTS = 10^8 weights before any build.
"""

from __future__ import annotations

import dataclasses
import json
import math
import reprlib
import sys
import typing
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import blocks as B
from .autodiff import Var
from .errors import ConfigError, PreconditionError
from .kernels import ConvSpec, check_nchw

DOWN_KERNEL, DOWN_STRIDE, DOWN_PAD = 3, 2, 1
HEADS = 8  # attention heads in every hierarchical model
MAX_WEIGHTS = 10**8  # 400 MB of f32 weights; the largest preset, s, has 12.9 M
MAX_ACTIVATIONS = 2**28  # elements in one dataset or activation array: 1 GiB of f32


@dataclass(frozen=True)
class StemSpec:
    kernel: int = 7
    stride: int = 4


@dataclass(frozen=True)
class StageSpec:
    dim: int
    mod_blocks: int
    attn_blocks: int = 0
    expansion_pattern: tuple[int, ...] = (1, 6)
    dw_kernel: int = 7


@dataclass(frozen=True)
class ModelSpec:
    stem: StemSpec
    stages: tuple[StageSpec, ...]  # exactly 4
    head: int
    drop_path_rate: float = 0.0
    layer_scale_init: float = 1e-4
    attn_mlp_ratio: float = 4.0

    def validate(self) -> "ModelSpec":
        # The stem pads kernel // 2 per side, which maps h to h / stride only for odd kernels.
        if self.stem.kernel < 1 or self.stem.kernel % 2 == 0:
            raise ConfigError(f"stem kernel must be a positive odd int, got {self.stem.kernel}")
        if self.stem.stride < 1:
            raise ConfigError(f"stem stride must be positive, got {self.stem.stride}")
        if len(self.stages) != 4:
            raise ConfigError(f"expected exactly 4 stages, got {len(self.stages)}")
        for i, st in enumerate(self.stages):
            if st.dim < 1:
                raise ConfigError(f"stage {i}: dim must be positive, got {st.dim}")
            if st.mod_blocks < 0 or st.attn_blocks < 0:
                raise ConfigError(f"stage {i}: block counts must be >= 0")
            if st.attn_blocks > 0 and i < 2:
                raise ConfigError(
                    f"stage {i}: attention blocks only allowed in stages 3 and 4"
                )
            if st.attn_blocks > 0 and st.dim % HEADS != 0:
                raise ConfigError(f"stage {i}: dim {st.dim} not divisible by heads={HEADS}")
            if not st.expansion_pattern or any(
                (not isinstance(r, int)) or r < 1 for r in st.expansion_pattern
            ):
                raise ConfigError(
                    f"stage {i}: expansion_pattern must be positive ints, got {st.expansion_pattern}"
                )
            if st.dw_kernel < 1 or st.dw_kernel % 2 == 0:
                raise ConfigError(f"stage {i}: dw_kernel must be odd, got {st.dw_kernel}")
        if not 0.0 <= self.drop_path_rate < 1.0:
            raise ConfigError(f"drop_path_rate must be in [0, 1), got {self.drop_path_rate}")
        if self.head < 1:
            raise ConfigError(f"head class count must be positive, got {self.head}")
        if self.attn_mlp_ratio <= 0:
            raise ConfigError(f"attn_mlp_ratio must be positive, got {self.attn_mlp_ratio}")
        weights = self.weight_count()
        if weights > MAX_WEIGHTS:
            raise ConfigError(
                f"spec builds at least 10^{math.log10(weights):.1f} weights, "
                f"above the cap of {MAX_WEIGHTS:,}"
            )
        return self

    def weight_count(self) -> int:
        """Weights the spec builds (no biases, norms or layer scales), summed from the
        closed forms in Python ints so nothing overflows or allocates. Exact up to
        MAX_WEIGHTS; above it, a lower bound."""
        dims = [st.dim for st in self.stages]
        n = 3 * self.stem.kernel**2 * dims[0] + dims[-1] * self.head
        n += sum(DOWN_KERNEL**2 * a * b for a, b in zip(dims, dims[1:]))
        for c, st in zip(dims, self.stages):
            cycles, rest = divmod(st.mod_blocks, len(st.expansion_pattern))
            expansions = cycles * sum(st.expansion_pattern) + sum(st.expansion_pattern[:rest])
            n += 2 * (expansions + st.mod_blocks) * c * c + st.mod_blocks * st.dw_kernel**2 * c
            if st.attn_blocks:
                # bound c * ratio before round(), which overflows on inf
                hidden = c * self.attn_mlp_ratio if c <= MAX_WEIGHTS else math.inf
                n += st.attn_blocks * (4 * c * c + 2 * round(min(hidden, MAX_WEIGHTS + 1)) * c)
        return n


@dataclass(frozen=True)
class IsotropicSpec:
    block: str  # "efficient_mod" | "mbconv"
    dim: int
    depth: int
    expansion: int
    dw_kernel: int = 7
    patch: int = 14
    head: int = 1000
    drop_path_rate: float = 0.0
    layer_scale_init: float = 1e-4

    def validate(self) -> "IsotropicSpec":
        if self.block not in ("efficient_mod", "mbconv"):
            raise ConfigError(f"isotropic block must be efficient_mod or mbconv, got {self.block}")
        if min(self.dim, self.depth, self.expansion, self.patch, self.head) < 1:
            raise ConfigError("isotropic dims/depth/expansion/patch/head must be positive")
        return self


# --------------------------------------------------------------- presets

# Attention MLP ratios are calibration values: the published block layout pins
# everything else, and these land the analyzer totals inside the budget
# tolerances (see README). They are reported by `analyze` output.
PRESETS: dict = {}


def _preset(name, dims, mods, attns, pattern, head, drop, mlp):
    PRESETS[name] = ModelSpec(
        stem=StemSpec(7, 4),
        stages=tuple(
            StageSpec(dim=d, mod_blocks=m, attn_blocks=a, expansion_pattern=pattern)
            for d, m, a in zip(dims, mods, attns)
        ),
        head=head,
        drop_path_rate=drop,
        attn_mlp_ratio=mlp,
    )


_preset("xxs", (32, 64, 128, 256), (2, 2, 6, 2), (0, 0, 1, 2), (1, 6), 1000, 0.0, 4.0)
_preset("xs", (32, 64, 144, 288), (3, 3, 4, 2), (0, 0, 3, 3), (1, 4), 1000, 0.0, 4.5)
_preset("s", (32, 64, 144, 312), (4, 4, 8, 8), (0, 0, 4, 4), (1, 6), 1000, 0.02, 1.375)
_preset("s_conv", (40, 80, 160, 344), (4, 4, 12, 8), (0, 0, 0, 0), (1, 6), 1000, 0.02, 4.0)
_preset("micro", (8, 16, 24, 32), (1, 1, 1, 1), (0, 0, 0, 0), (4,), 4, 0.0, 4.0)

ISO_SPECS: dict = {
    "iso-effmod-256-13": IsotropicSpec("efficient_mod", 256, 13, 6, dw_kernel=7),
    "iso-mbconv-256-13": IsotropicSpec("mbconv", 256, 13, 7, dw_kernel=3),
    "iso-effmod-196-11": IsotropicSpec("efficient_mod", 196, 11, 6, dw_kernel=7),
    "iso-mbconv-196-11": IsotropicSpec("mbconv", 196, 11, 7, dw_kernel=3),
}

ISO_PAIRS: dict = {
    "iso-256-13": ("iso-effmod-256-13", "iso-mbconv-256-13"),
    "iso-196-11": ("iso-effmod-196-11", "iso-mbconv-196-11"),
}


def build_preset(name: str) -> ModelSpec:
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}")
    return PRESETS[name]


# ------------------------------------------------------------------ JSON


def _as_int(v, what: str) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"{what} must be an integer, got {v!r}")
    return v


def _as_float(v, what: str) -> float:
    # json.loads accepts NaN, Infinity and integers past the float range; a NaN
    # layer scale would run to NaN logits.
    if not isinstance(v, bool) and isinstance(v, (int, float)) and abs(v) <= sys.float_info.max:
        return float(v)
    raise ConfigError(f"{what} must be a finite number, got {reprlib.repr(v)}")


def _parse(hint, v, what: str):
    """One JSON value by its spec field's annotation: int, float, a spec, or tuple[item, ...]."""
    if hint is int:
        return _as_int(v, what)
    if hint is float:
        return _as_float(v, what)
    if dataclasses.is_dataclass(hint):
        return _build(hint, v, what, what + ".")
    if not isinstance(v, list):
        raise ConfigError(f"{what} must be an array, got {reprlib.repr(v)}")
    item = typing.get_args(hint)[0]
    return tuple(_parse(item, x, f"{what}[{i}]") for i, x in enumerate(v))


def _build(cls, doc, where: str, prefix: str):
    """A spec dataclass from a JSON object of its fields; absent fields take their
    defaults, and a field without one is required. Errors name the JSON path."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{where} must be a JSON object, got {type(doc).__name__}")
    fields = {f.name: f for f in dataclasses.fields(cls)}
    unknown = set(doc) - set(fields)
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {sorted(unknown)}")
    hints = typing.get_type_hints(cls)
    kwargs = {}
    for name, f in fields.items():
        if name in doc:
            kwargs[name] = _parse(hints[name], doc[name], prefix + name)
        elif f.default is dataclasses.MISSING:
            raise ConfigError(f"{where} missing required key {name!r}")
    return cls(**kwargs)


def spec_from_json(text: str) -> ModelSpec:
    """Parse and validate a model spec; every malformed document raises ConfigError."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(f"malformed model spec JSON at line {e.lineno} column {e.colno}: {e.msg}")
    except (RecursionError, ValueError) as e:
        # nesting past the recursion limit, or an integer past Python's 4300-digit limit
        raise ConfigError(f"model spec JSON rejected: {e}")
    return _build(ModelSpec, doc, "model spec", "").validate()


# ---------------------------------------------------------------- model


@dataclass
class ConvLayer:
    w: Var
    b: Var
    spec: ConvSpec


@dataclass
class BlockEntry:
    kind: str  # a blocks.BLOCK_KINDS name: "efficient_mod", "mbconv" or "attention"
    params: object
    wrap: B.ResidualWrap | None = None


@dataclass
class Model:
    """A built network: parameter Vars plus the structure to run/analyze it."""

    spec: object
    stem: ConvLayer
    stages: list  # list[list[BlockEntry]]
    downs: list  # list[ConvLayer], one between consecutive stages
    head_norm_g: Var
    head_norm_b: Var
    head_w: Var
    head_b: Var
    combine: str = "mul"  # modulation fuse op; "sum" is the ablation variant

    @property
    def dtype(self) -> np.dtype:
        return self.stem.w.data.dtype

    def named_parameters(self):
        """Stable (name, Var) walk: the names the analyzer groups into layers, in the
        order AdamW packs its flat buffer."""
        yield "stem.w", self.stem.w
        yield "stem.b", self.stem.b
        for si, stage in enumerate(self.stages):
            for bi, entry in enumerate(stage):
                prefix = f"stage{si}.block{bi}."
                if entry.wrap is not None:
                    yield from B.named_params(entry.wrap, prefix + "wrap.").items()
                yield from B.named_params(entry.params, prefix).items()
            if si < len(self.downs):
                yield f"down{si}.w", self.downs[si].w
                yield f"down{si}.b", self.downs[si].b
        yield "head.norm_g", self.head_norm_g
        yield "head.norm_b", self.head_norm_b
        yield "head.w", self.head_w
        yield "head.b", self.head_b


def _conv_layer(rng, c_in, c_out, kernel, stride, padding, std, dtype) -> ConvLayer:
    w, b = B.init_layer(rng, (c_out, c_in, kernel, kernel), std, dtype)
    return ConvLayer(w=w, b=b, spec=ConvSpec(kernel, stride=stride, padding=padding))


_BLOCK_INITS = {
    "efficient_mod": B.init_efficient_mod, "mbconv": B.init_mbconv, "attention": B.init_attention
}


def _assemble(spec, stem: tuple, plan: list, seed, dtype, combine) -> Model:
    """Draw stem, stages (each but the last followed by its downsample) and
    head from one RNG, in that order; a seed gives bit-identical parameters.

    stem is (kernel, stride, padding); plan holds one (dim, blocks) pair per
    stage, where each block is (kind, init kwargs). Attention blocks carry
    their own norms; the others get a pre-norm residual wrap.
    """
    if combine not in ("mul", "sum"):
        raise ConfigError(f"combine must be 'mul' or 'sum', got {combine!r}")
    rng = np.random.default_rng(seed)
    std = 0.02
    dims = [dim for dim, _ in plan]
    stem_layer = _conv_layer(rng, 3, dims[0], *stem, std, dtype)
    stages: list[list[BlockEntry]] = []
    downs: list[ConvLayer] = []
    for si, (dim, blocks) in enumerate(plan):
        entries = []
        for kind, kwargs in blocks:
            params = _BLOCK_INITS[kind](rng, dim, std=std, dtype=dtype, **kwargs)
            wrap = None if kind == "attention" else B.init_residual_wrap(
                dim, spec.layer_scale_init, spec.drop_path_rate, dtype=dtype
            )
            entries.append(BlockEntry(kind, params, wrap))
        stages.append(entries)
        if si + 1 < len(plan):
            downs.append(_conv_layer(
                rng, dim, dims[si + 1], DOWN_KERNEL, DOWN_STRIDE, DOWN_PAD, std, dtype
            ))
    head_w, head_b = B.init_layer(rng, (spec.head, dims[-1]), std, dtype)
    return Model(
        spec=spec,
        stem=stem_layer,
        stages=stages,
        downs=downs,
        head_norm_g=Var(np.ones((dims[-1],), dtype=dtype)),
        head_norm_b=Var(np.zeros((dims[-1],), dtype=dtype)),
        head_w=head_w,
        head_b=head_b,
        combine=combine,
    )


def stage_plan(spec: ModelSpec) -> list:
    """One (dim, blocks) pair per stage, each block (kind, init kwargs): the stage's
    modulation blocks, then its attention blocks."""
    plan = []
    for st in spec.stages:
        pattern = st.expansion_pattern
        blocks = [
            ("efficient_mod", {"expansion": pattern[bi % len(pattern)], "kernel": st.dw_kernel})
            for bi in range(st.mod_blocks)
        ]
        attn = ("attention", {"heads": HEADS, "mlp_ratio": spec.attn_mlp_ratio})
        blocks += [attn] * st.attn_blocks
        plan.append((st.dim, blocks))
    return plan


def build_model(spec: ModelSpec, seed: int = 0, dtype=np.float32, combine: str = "mul") -> Model:
    """Materialize a hierarchical model, every layer with its bias; same seed gives
    bit-identical params. combine picks the modulation's fuse op ("sum": the ablation)."""
    spec.validate()
    stem = (spec.stem.kernel, spec.stem.stride, spec.stem.kernel // 2)
    return _assemble(spec, stem, stage_plan(spec), seed, dtype, combine)


def build_isotropic(spec: IsotropicSpec, seed: int = 0, dtype=np.float32) -> Model:
    """Single-width stack behind a patchify conv; blocks are all one kind, with biases
    and the multiplicative fuse."""
    spec.validate()
    block = (spec.block, {"expansion": spec.expansion, "kernel": spec.dw_kernel})
    plan = [(spec.dim, [block] * spec.depth)]
    return _assemble(spec, (spec.patch, spec.patch, 0), plan, seed, dtype, "mul")


# -------------------------------------------------------------- forward


def total_stride(model: Model) -> int:
    """Stem stride times the downsample strides: the smallest input side the model takes."""
    return model.stem.spec.stride * math.prod(d.spec.stride for d in model.downs)


def check_resolution(stride: int, h: int, w: int) -> None:
    """Reject input sizes that are not positive multiples of a model's total_stride."""
    if h < 1 or w < 1 or h % stride or w % stride:
        raise PreconditionError(
            f"input spatial dims must be positive and divisible by the model's total stride "
            f"{stride}, got {h}x{w}"
        )


def _check_input(model: Model, x: np.ndarray):
    check_nchw(x, "model input")
    if x.shape[1] != 3:
        raise PreconditionError(f"model input must be [n, 3, h, w], got {x.shape}")
    if x.dtype != model.dtype:
        raise PreconditionError(f"model input is {x.dtype}, the model's parameters {model.dtype}")
    check_resolution(total_stride(model), x.shape[2], x.shape[3])


def forward_features(model: Model, x, training: bool = False, seed: int = 0, step: int = 0) -> Var:
    """Stem, stages and downsamples: the feature map the head pools.

    The image x is an ndarray of the model's dtype, a constant: backward
    computes no gradient for it. Stochastic-depth draws are keyed by (seed,
    wrapped-block index, step), so a fixed key reproduces the same drop
    pattern regardless of batch order.
    """
    _check_input(model, x)
    stem = model.stem
    h = ad.conv2d(x, stem.w, stem.b, stem.spec)
    layer_idx = 0
    for si, stage in enumerate(model.stages):
        for entry in stage:
            if entry.kind == "attention":
                h = B.attention_block(h, entry.params)
            else:
                rng = (
                    np.random.default_rng((seed, layer_idx, step))
                    if training and entry.wrap.drop_path_prob > 0
                    else None
                )
                if entry.kind == "efficient_mod":
                    inner = lambda z, p=entry.params: B.efficient_mod(z, p, combine=model.combine)
                else:
                    inner = lambda z, p=entry.params: B.mbconv_block(z, p)
                h = B.residual_apply(h, inner, entry.wrap, training=training, rng=rng)
            layer_idx += 1
        if si < len(model.downs):
            d = model.downs[si]
            h = ad.conv2d(h, d.w, d.b, d.spec)
    return h


def model_forward(model: Model, x, training: bool = False, seed: int = 0, step: int = 0) -> Var:
    """Run the network: forward_features, then GAP -> LayerNorm -> pointwise classifier on
    the [n, c, 1, 1] map; returns logits [n, classes]."""
    h = ad.global_avg_pool(forward_features(model, x, training, seed, step))
    h = ad.layer_norm(h, model.head_norm_g, model.head_norm_b)
    h = ad.pointwise(h, model.head_w, model.head_b)
    return ad.reshape(h, h.data.shape[:2])


def stage_resolutions(model: Model, input_res: tuple) -> list:
    """Spatial size (h, w) after the stem and after each downsample of an (h, w) input."""
    h, w = input_res
    h, w = model.stem.spec.out_size(h), model.stem.spec.out_size(w)
    out = [(h, w)]
    for d in model.downs:
        h, w = d.spec.out_size(h), d.spec.out_size(w)
        out.append((h, w))
    return out

