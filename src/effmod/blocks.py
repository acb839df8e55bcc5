"""Block zoo built on the autodiff ops.

The central block multiplies a cheap large-kernel context branch into an
expanded value projection (context then modulation); the others are the
designs it descends from or is compared against: VAN-style gated convolution,
focal-style multi-level gated context, the inverted bottleneck (MBConv),
squeeze-and-excitation, and a vanilla pre-norm attention block.

Parameters live in small dataclasses whose layers are Layer(w, b) pairs of Var
leaves, so one forward pass threads the tape through both the block and its
wrapper. named_params gives a stable flat view of them, used by gradcheck and
Model.named_parameters.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from .autodiff import Var
from .errors import ConfigError, PreconditionError
from .kernels import ConvSpec

def trunc_normal(rng: np.random.Generator, shape, std: float, dtype):
    """Normal(0, std) with redraws outside +-2 std (the usual conv/linear init)."""
    out = rng.normal(0.0, std, size=shape)
    flat = out.reshape(-1)
    redraw = np.flatnonzero(np.abs(flat) > 2.0 * std)
    while redraw.size:  # only the entries still out of range, in index order
        flat[redraw] = rng.normal(0.0, std, size=redraw.size)
        redraw = redraw[np.abs(flat[redraw]) > 2.0 * std]
    return out.astype(dtype)


class Layer(NamedTuple):
    """One layer: its weight and its bias (a norm's gain and shift). Ops take *layer."""

    w: Var
    b: Var


def init_layer(rng, shape, std: float, dtype) -> Layer:
    """w drawn by trunc_normal, b zeros of w's leading dim (every bias here has it).
    Every layer has its bias; zeros draw nothing from rng."""
    return Layer(Var(trunc_normal(rng, shape, std, dtype)), Var(np.zeros(shape[:1], dtype=dtype)))


def init_norm(c: int, dtype) -> Layer:
    """A channel norm's affine: gain ones, shift zeros; draws nothing."""
    return Layer(Var(np.ones((c,), dtype=dtype)), Var(np.zeros((c,), dtype=dtype)))


def _init_layers(rng, layers: dict, std: float, dtype) -> dict:
    """{layer: shape} -> {layer: Layer}, drawn in table order."""
    return {name: init_layer(rng, shape, std, dtype) for name, shape in layers.items()}


# ------------------------------------------------- parameter introspection


def named_params(obj, prefix: str = "") -> dict:
    """Flatten a params dataclass into {path: Var}: a Layer's leaves are path.w and
    path.b, other tuples recurse by index."""
    out: dict[str, Var] = {}
    for f in dataclasses.fields(obj):
        _collect(getattr(obj, f.name), f"{prefix}{f.name}", out)
    return out


def _collect(v, name, out):
    if isinstance(v, Var):
        out[name] = v
    elif isinstance(v, tuple):
        for i, item in zip(getattr(v, "_fields", range(len(v))), v):
            _collect(item, f"{name}.{i}", out)


# --------------------------------------------------------- efficient mod


@dataclass
class EfficientModParams:
    """Context-and-modulate block: p( ctx(x) fused with v(x) ).

    ctx = g(gelu(DW_k(f(x)))) stays at c channels; v expands to expansion*c;
    p projects back to c, so the block keeps its width. The only nonlinearity
    sits after the depthwise conv; f itself is linear.
    """

    f: Layer
    dw: Layer
    g: Layer
    v: Layer
    p: Layer
    kernel: int = 7
    expansion: int = 6

    @property
    def channels(self) -> int:
        return self.f.w.data.shape[0]


def init_efficient_mod(
    rng, c: int, expansion: int = 6, kernel: int = 7, std: float = 0.02, dtype=np.float32
) -> EfficientModParams:
    if expansion < 1:
        raise ConfigError(f"expansion must be >= 1, got {expansion}")
    if kernel % 2 == 0 or kernel < 1:
        raise ConfigError(f"depthwise kernel must be odd and positive, got {kernel}")
    rc = expansion * c
    layers = {"f": (c, c), "dw": (c, 1, kernel, kernel), "g": (c, c), "v": (rc, c), "p": (c, rc)}
    return EfficientModParams(
        **_init_layers(rng, layers, std, dtype), kernel=kernel, expansion=expansion
    )


def efficient_mod_ctx(x: Var, p: EfficientModParams) -> Var:
    """Context branch only: g(gelu(DW_k(f(x)))), channel-preserving."""
    c = p.channels
    h = ad.pointwise(x, *p.f)
    h = ad.conv2d(h, *p.dw, ConvSpec(p.kernel, groups=c))
    h = ad.gelu(h)
    return ad.pointwise(h, *p.g)


def efficient_mod(
    x: Var, p: EfficientModParams, mode: str = "reshape", combine: str = "mul"
) -> Var:
    return ad.modulate(efficient_mod_ctx(x, p), x, *p.v, *p.p, mode, combine)


# ------------------------------------------------------------------- VAN


@dataclass
class VANParams:
    """Gated large-kernel attention: p( ctx(f(x)) * f(x) ).

    The embedding f (with activation) is computed once and shared by both the
    context branch and the gate. ctx = g(DW_7,dil3(DW_5(x))): effective
    receptive radius 2 + 9 = 11.
    """

    f: Layer
    dw5: Layer
    dw7: Layer
    g: Layer
    p: Layer

    @property
    def channels(self) -> int:
        return self.f.w.data.shape[0]


def init_van(rng, c: int, std: float = 0.02, dtype=np.float32) -> VANParams:
    layers = {"f": (c, c), "dw5": (c, 1, 5, 5), "dw7": (c, 1, 7, 7), "g": (c, c), "p": (c, c)}
    return VANParams(**_init_layers(rng, layers, std, dtype))


def van_ctx(h: Var, p: VANParams) -> Var:
    """Context over an already-embedded feature: g(DW_7,dil3(DW_5(h)))."""
    c = p.channels
    u = ad.conv2d(h, *p.dw5, ConvSpec(5, groups=c))
    u = ad.conv2d(u, *p.dw7, ConvSpec(7, dilation=3, groups=c))
    return ad.pointwise(u, *p.g)


def van_block(x: Var, p: VANParams) -> Var:
    h = ad.gelu(ad.pointwise(x, *p.f))
    return ad.pointwise(ad.mul(van_ctx(h, p), h), *p.p)


# ----------------------------------------------------------------- focal


@dataclass
class FocalParams:
    """Multi-level gated context: g( sum_l gelu(DW_kl(f(x))) * z_l(f(x)) ).

    Each level l runs its own depthwise conv over the shared embedding and is
    gated by a scalar-per-position map z_l (c channels -> 1, broadcast back).
    Kernels must be strictly increasing so levels see growing context.
    """

    f: Layer
    levels: tuple  # one depthwise Layer per level
    gates: tuple  # one Layer per level: w [1, c], b [1]
    g: Layer
    kernels: tuple = (3, 5)

    @property
    def channels(self) -> int:
        return self.f.w.data.shape[0]


def init_focal(
    rng, c: int, kernels: tuple = (3, 5), std: float = 0.02, dtype=np.float32
) -> FocalParams:
    if len(kernels) < 1:
        raise ConfigError("focal needs at least one level")
    if any(k % 2 == 0 or k < 1 for k in kernels):
        raise ConfigError(f"focal kernels must be odd and positive, got {kernels}")
    if any(b >= a for a, b in zip(kernels[1:], kernels)):
        raise ConfigError(f"focal kernels must be strictly increasing, got {kernels}")
    levels = tuple(init_layer(rng, (c, 1, k, k), std, dtype) for k in kernels)
    gates = tuple(init_layer(rng, (1, c), std, dtype) for _ in kernels)
    layers = _init_layers(rng, {"f": (c, c), "g": (c, c)}, std, dtype)
    return FocalParams(levels=levels, gates=gates, kernels=tuple(kernels), **layers)


def focal_ctx(x: Var, p: FocalParams) -> Var:
    c = p.channels
    h = ad.pointwise(x, *p.f)
    acc = None
    for dw, z, k in zip(p.levels, p.gates, p.kernels):
        u = ad.gelu(ad.conv2d(h, *dw, ConvSpec(k, groups=c)))
        gate = ad.pointwise(h, *z)  # [n,1,h,w], broadcast over channels
        term = ad.mul(u, gate)
        acc = term if acc is None else ad.add(acc, term)
    return ad.pointwise(acc, *p.g)


# ---------------------------------------------------------------- mbconv


@dataclass
class MBConvParams:
    """Inverted bottleneck: squeeze(gelu(DW_k(expand(x)))), channel-preserving.

    expand is c -> expansion*c, the depthwise conv runs at the expanded width,
    squeeze maps back to c. Weights: 2*r*c^2 + k^2*r*c, plus 2*r*c + c biases.
    """

    expand: Layer
    dw: Layer
    squeeze: Layer
    kernel: int = 3
    expansion: int = 6


def init_mbconv(
    rng, c: int, expansion: int = 6, kernel: int = 3, std: float = 0.02, dtype=np.float32
) -> MBConvParams:
    if expansion < 1:
        raise ConfigError(f"expansion must be >= 1, got {expansion}")
    if kernel % 2 == 0 or kernel < 1:
        raise ConfigError(f"depthwise kernel must be odd and positive, got {kernel}")
    rc = expansion * c
    layers = {"expand": (rc, c), "dw": (rc, 1, kernel, kernel), "squeeze": (c, rc)}
    return MBConvParams(
        **_init_layers(rng, layers, std, dtype), kernel=kernel, expansion=expansion
    )


def mbconv_block(x: Var, p: MBConvParams) -> Var:
    rc = p.expand.w.data.shape[0]
    h = ad.pointwise(x, *p.expand)
    h = ad.conv2d(h, *p.dw, ConvSpec(p.kernel, groups=rc))
    h = ad.gelu(h)
    return ad.pointwise(h, *p.squeeze)


# -------------------------------------------------------------------- SE


@dataclass
class SEParams:
    """Squeeze-and-excitation gate: x * sigmoid(fc2(gelu(fc1(GAP(x)))))."""

    fc1: Layer
    fc2: Layer


def init_se(rng, c: int, reduction: int = 4, std: float = 0.02, dtype=np.float32) -> SEParams:
    if reduction < 1 or c % reduction != 0:
        raise ConfigError(f"reduction {reduction} must divide channel count {c}")
    cr = c // reduction
    return SEParams(**_init_layers(rng, {"fc1": (cr, c), "fc2": (c, cr)}, std, dtype))


def se_block(x: Var, p: SEParams) -> Var:
    g = ad.global_avg_pool(x)
    g = ad.gelu(ad.pointwise(g, *p.fc1))
    g = ad.sigmoid(ad.pointwise(g, *p.fc2))
    return ad.mul(x, g)  # [n,c,h,w] * [n,c,1,1]


# ------------------------------------------------------------- attention


@dataclass
class AttentionParams:
    """Pre-norm transformer block on [n, c, h, w]; each of the h*w positions is a token.

    x + proj(MHSA(LN(x))) followed by x + MLP(LN(x)), with channel LN and
    pointwise qkv/proj/MLP maps; scores scaled by 1/sqrt(c/heads). No
    positional term anywhere, so the block is permutation-equivariant over positions.
    """

    ln1: Layer
    qkv: Layer
    proj: Layer
    ln2: Layer
    mlp1: Layer
    mlp2: Layer
    heads: int = 8

    @property
    def channels(self) -> int:
        return self.qkv.w.data.shape[1]


def init_attention(
    rng, c: int, heads: int = 8, mlp_ratio: float = 4.0, std: float = 0.02, dtype=np.float32
) -> AttentionParams:
    if heads < 1 or c % heads != 0:
        raise ConfigError(f"channel count {c} must be divisible by heads={heads}")
    hidden = int(round(c * mlp_ratio))
    if hidden < 1:
        raise ConfigError(f"mlp_ratio {mlp_ratio} gives empty hidden layer at c={c}")
    layers = {"qkv": (3 * c, c), "proj": (c, c), "mlp1": (hidden, c), "mlp2": (c, hidden)}
    return AttentionParams(
        ln1=init_norm(c, dtype), ln2=init_norm(c, dtype),
        **_init_layers(rng, layers, std, dtype), heads=heads,
    )


def attention_block(x: Var, p: AttentionParams) -> Var:
    if x.data.ndim != 4:
        raise PreconditionError(f"attention input must be [n, c, h, w], got {x.data.shape}")
    c = x.data.shape[1]
    if c != p.channels:
        raise PreconditionError(f"attention input channels {c} != params channels {p.channels}")
    qkv = ad.pointwise(ad.layer_norm(x, *p.ln1), *p.qkv)
    x = ad.add(x, ad.pointwise(ad.attention(qkv, p.heads), *p.proj))

    h2 = ad.layer_norm(x, *p.ln2)
    m = ad.pointwise(ad.gelu(ad.pointwise(h2, *p.mlp1)), *p.mlp2)
    return ad.add(x, m)


# -------------------------------------------------------- residual wrap


@dataclass
class ResidualWrap:
    """Pre-norm residual with per-channel layer scale and stochastic depth.

    eval: x + layer_scale * inner(LN(x)). train: the whole branch is dropped
    per sample with prob drop_path_prob, survivors scaled by 1/(1-p).
    """

    norm: Layer
    layer_scale: Var
    drop_path_prob: float = 0.0


def init_residual_wrap(
    c: int, layer_scale_init: float = 1e-4, drop_path_prob: float = 0.0, dtype=np.float32
) -> ResidualWrap:
    if not 0.0 <= drop_path_prob < 1.0:
        raise ConfigError(f"drop_path_prob must be in [0, 1), got {drop_path_prob}")
    return ResidualWrap(
        norm=init_norm(c, dtype),
        layer_scale=Var(np.full((c,), layer_scale_init, dtype=dtype)),
        drop_path_prob=drop_path_prob,
    )


def residual_apply(
    x: Var,
    inner,
    wrap: ResidualWrap,
    training: bool = False,
    rng: np.random.Generator | None = None,
) -> Var:
    h = ad.layer_norm(x, *wrap.norm)
    branch = inner(h)
    if branch.data.shape != x.data.shape:
        raise PreconditionError(
            f"residual branch shape {branch.data.shape} != input shape {x.data.shape}"
        )
    s = ad.reshape(wrap.layer_scale, (1, branch.data.shape[1], 1, 1))
    if training and wrap.drop_path_prob > 0.0:
        if rng is None:
            raise PreconditionError("stochastic depth in training mode needs an rng")
        p = wrap.drop_path_prob
        keep = (rng.random(x.data.shape[0]) >= p).astype(x.data.dtype) / (1.0 - p)
        s = ad.mul(s, keep.reshape(-1, 1, 1, 1))  # the mask scales [n, c, 1, 1], not the map
    return ad.add_scaled(x, branch, s)


# ------------------------------------------------------------ gradcheck


GC_STD = 0.5  # gradcheck inits at O(1) scale so FD noise stays far below tol


# kind: (init, block, cases, leaves left out), each case (c, n, h, w, init kwargs).
_GC_TABLE = {
    "efficient_mod": (init_efficient_mod, efficient_mod, [
        (4, 1, 6, 6, {"expansion": 2, "kernel": 3}),
        (3, 2, 5, 5, {"expansion": 3, "kernel": 5}),
        (5, 1, 4, 7, {"expansion": 1, "kernel": 3}),
    ], ()),
    "van": (init_van, van_block, [(3, 1, 6, 6, {}), (4, 2, 5, 5, {}), (2, 1, 8, 4, {})], ()),
    # two levels, kernels (3, 5), everywhere; channel/spatial shapes vary
    "focal": (init_focal, focal_ctx, [(4, 1, 6, 6, {}), (3, 2, 5, 5, {}), (2, 1, 7, 4, {})], ()),
    "mbconv": (init_mbconv, mbconv_block, [
        (4, 1, 6, 6, {"expansion": 2, "kernel": 3}),
        (3, 2, 5, 5, {"expansion": 4, "kernel": 3}),
        (2, 1, 7, 4, {"expansion": 6, "kernel": 5}),
    ], ()),
    "se": (init_se, se_block, [
        (4, 1, 5, 5, {"reduction": 2}),
        (8, 2, 4, 4, {"reduction": 4}),
        (6, 1, 3, 7, {"reduction": 3}),
    ], ()),
    # qkv.b holds the key-projection bias, a flat direction of softmax attention (scores
    # shift uniformly per query): its true gradient there is identically zero, so central
    # differences see only round-off. The op-level bias rule is certified in the test suite.
    "attention": (init_attention, attention_block, [
        (8, 1, 1, 5, {"heads": 1, "mlp_ratio": 2.0}),
        (8, 2, 2, 3, {"heads": 2, "mlp_ratio": 2.0}),
        (12, 1, 3, 1, {"heads": 4, "mlp_ratio": 1.0}),
    ], ("qkv.b",)),
}


def _gc_table(kind: str, case: int, rng):
    """Gradcheck leaves (x, then the parameters by path) and the block over them; the
    parameters are drawn from rng before x."""
    init, block, cases, left_out = _GC_TABLE[kind]
    c, n, h, w, kwargs = cases[case]
    p = init(rng, c, std=GC_STD, dtype=np.float64, **kwargs)
    x = Var(rng.normal(0, 1, (n, c, h, w)))
    params = {k: v for k, v in named_params(p).items() if k not in left_out}
    return {"x": x, **params}, lambda: block(x, p)


def _gc_patch_embed(case: int, rng):
    # the strided conv of a stem, a downsample or a patchify layer
    c_in, c_out, k, s, pad, res = [
        (3, 6, 4, 4, 0, 8),
        (3, 5, 7, 4, 3, 11),
        (1, 4, 2, 2, 0, 6),
    ][case]
    x = Var(rng.normal(0, 1, (1, c_in, res, res)))
    w = Var(rng.normal(0, 0.1, (c_out, c_in, k, k)))
    b = Var(rng.normal(0, 0.1, (c_out,)))
    return {"x": x, "w": w, "b": b}, lambda: ad.conv2d(x, w, b, ConvSpec(k, s, padding=pad))


def _gc_residual(case: int, rng):
    # eval-mode wrap around a small modulation block
    c, r, k, n, h, w = [(3, 2, 3, 1, 5, 5), (4, 1, 3, 2, 4, 4), (2, 3, 5, 1, 6, 3)][case]
    inner = init_efficient_mod(rng, c, expansion=r, kernel=k, std=GC_STD, dtype=np.float64)
    wrap = init_residual_wrap(c, layer_scale_init=0.5, dtype=np.float64)
    x = Var(rng.normal(0, 1, (n, c, h, w)))
    leaves = {"x": x, **named_params(inner, "inner."), **named_params(wrap, "wrap.")}
    return leaves, lambda: residual_apply(x, lambda h_: efficient_mod(h_, inner), wrap)


_GC_BUILDERS = {
    **{kind: functools.partial(_gc_table, kind) for kind in _GC_TABLE},
    "patch_embed": _gc_patch_embed,
    "residual": _gc_residual,
}
BLOCK_KINDS = tuple(_GC_BUILDERS)  # in order: block_grad_check seeds from a kind's index

GC_CASES = 3  # shape variants per block kind


def block_grad_check(
    kind: str, case: int = 0, tol: float = 1e-5, seed: int = 0
) -> ad.GradCheckReport:
    """Finite-difference certification of one block kind at one shape case."""
    if kind not in _GC_BUILDERS:
        raise ConfigError(f"unknown block kind {kind!r}; choose from {BLOCK_KINDS}")
    if not 0 <= case < GC_CASES:
        raise ConfigError(f"case must be in 0..{GC_CASES - 1}, got {case}")
    if not 0 < tol < np.inf:  # a NaN or negative tolerance fails every case
        raise ConfigError(f"tol must be positive and finite, got {tol}")
    rng = np.random.default_rng((seed, BLOCK_KINDS.index(kind), case))
    leaves, f = _GC_BUILDERS[kind](case, rng)
    return ad.grad_check(f, leaves, tol=tol)
