"""NCHW tensor kernels.

Pure functions over numpy arrays in [batch, channel, height, width] layout,
float32 or float64. Everything else in the package (autodiff, blocks, models)
is built from these. Each kernel has an independent naive-loop oracle in the
test suite; keep the implementations boring and the contracts explicit.

Convolution is a tap loop: one slice + contraction per kernel position, so a
k x k kernel costs k^2 vectorized passes instead of a Python loop per output
pixel. Dense channel mixing goes through np.tensordot (BLAS); depthwise taps
are plain broadcast multiply-accumulate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import erf

from .errors import ConfigError, NumericalError, PreconditionError

FLOAT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))

_validate = False


def set_validation(enabled: bool) -> None:
    """Toggle post-kernel finite checks. Off by default; costs one pass per call."""
    global _validate
    _validate = bool(enabled)


def _checked(out: np.ndarray, op: str) -> np.ndarray:
    if _validate and not np.isfinite(out).all():
        raise NumericalError(f"{op}: non-finite values in output")
    return out


def check_nchw(x: np.ndarray, name: str = "x") -> None:
    """Validate the 4-D feature-map contract; names the offending dimension."""
    if not isinstance(x, np.ndarray):
        raise PreconditionError(f"{name}: expected ndarray, got {type(x).__name__}")
    if x.ndim != 4:
        raise PreconditionError(f"{name}: expected 4-D [n,c,h,w], got {x.ndim}-D {x.shape}")
    if x.dtype not in FLOAT_DTYPES:
        raise PreconditionError(f"{name}: dtype must be float32/float64, got {x.dtype}")
    n, c, h, w = x.shape
    if min(n, c, h, w) < 1:
        raise PreconditionError(f"{name}: all dims must be positive, got {x.shape}")


@dataclass(frozen=True)
class ConvSpec:
    """Geometry of a 2-D convolution.

    padding is a per-side zero-pad count; None selects "same" padding,
    dilation*(kernel-1)//2, which only preserves shape for odd kernels
    (even kernel + same is a config error).
    """

    kernel: int
    stride: int = 1
    dilation: int = 1
    groups: int = 1
    padding: int | None = None

    def __post_init__(self):
        for field in ("kernel", "stride", "dilation", "groups"):
            v = getattr(self, field)
            if not isinstance(v, int) or v < 1:
                raise ConfigError(f"ConvSpec.{field} must be a positive int, got {v!r}")
        if self.padding is None:
            if self.kernel % 2 == 0:
                raise ConfigError(
                    f"'same' padding needs an odd kernel, got kernel={self.kernel}"
                )
        elif not isinstance(self.padding, int) or self.padding < 0:
            raise ConfigError(f"ConvSpec.padding must be a non-negative int, got {self.padding!r}")

    @property
    def pad(self) -> int:
        if self.padding is not None:
            return self.padding
        return self.dilation * (self.kernel - 1) // 2

    def out_size(self, size: int) -> int:
        span = self.dilation * (self.kernel - 1) + 1
        return (size + 2 * self.pad - span) // self.stride + 1


def _conv_check(x: np.ndarray, w: np.ndarray, b, spec: ConvSpec):
    check_nchw(x, "x")
    if w.ndim != 4:
        raise PreconditionError(f"w: expected 4-D [c_out, c_in/g, k, k], got {w.shape}")
    n, c_in, h, wd = x.shape
    c_out, c_in_g, kh, kw = w.shape
    if (kh, kw) != (spec.kernel, spec.kernel):
        raise PreconditionError(
            f"w: kernel dims {kh}x{kw} do not match spec.kernel={spec.kernel}"
        )
    g = spec.groups
    if c_in % g != 0:
        raise PreconditionError(f"x: channel dim {c_in} not divisible by groups={g}")
    if c_out % g != 0:
        raise PreconditionError(f"w: output-channel dim {c_out} not divisible by groups={g}")
    if c_in_g != c_in // g:
        raise PreconditionError(
            f"w: input-channel dim {c_in_g} does not match x channels/groups = {c_in // g}"
        )
    if b is not None:
        if b.ndim != 1 or b.shape[0] != c_out:
            raise PreconditionError(f"b: expected shape ({c_out},), got {b.shape}")
    oh, ow = spec.out_size(h), spec.out_size(wd)
    if oh < 1:
        raise PreconditionError(f"x: height {h} too small for {spec} (output height {oh})")
    if ow < 1:
        raise PreconditionError(f"x: width {wd} too small for {spec} (output width {ow})")
    return oh, ow


def _tap_slice(xp: np.ndarray, i: int, j: int, spec: ConvSpec, oh: int, ow: int) -> np.ndarray:
    # Strided view of the padded input aligned with kernel position (i, j).
    s, d = spec.stride, spec.dilation
    return xp[:, :, i * d : i * d + s * (oh - 1) + 1 : s, j * d : j * d + s * (ow - 1) + 1 : s]


def conv2d(x: np.ndarray, w: np.ndarray, b: np.ndarray | None, spec: ConvSpec) -> np.ndarray:
    """2-D cross-correlation with zero padding.

    x [n, c_in, h, w], w [c_out, c_in/groups, k, k], optional b [c_out].
    groups=1 is a dense conv, groups=c_in=c_out is depthwise; other group
    counts take a per-group path.
    """
    oh, ow = _conv_check(x, w, b, spec)
    n, c_in, _, _ = x.shape
    c_out = w.shape[0]
    k, g, p = spec.kernel, spec.groups, spec.pad
    xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p))) if p else x

    if g == c_in and g == c_out:
        # depthwise: each channel convolved with its own k x k filter
        out = np.zeros((n, c_out, oh, ow), dtype=x.dtype)
        for i in range(k):
            for j in range(k):
                out += _tap_slice(xp, i, j, spec, oh, ow) * w[:, 0, i, j][None, :, None, None]
    elif g == 1:
        acc = np.zeros((n, oh, ow, c_out), dtype=x.dtype)
        for i in range(k):
            for j in range(k):
                xs = _tap_slice(xp, i, j, spec, oh, ow)
                # (n,c_in,oh,ow) x (c_out,c_in) -> (n,oh,ow,c_out)
                acc += np.tensordot(xs, w[:, :, i, j], axes=([1], [1]))
        out = np.ascontiguousarray(np.moveaxis(acc, -1, 1))
    else:
        cig, cog = c_in // g, c_out // g
        out = np.empty((n, c_out, oh, ow), dtype=x.dtype)
        for gi in range(g):
            xg = xp[:, gi * cig : (gi + 1) * cig]
            wg = w[gi * cog : (gi + 1) * cog]
            acc = np.zeros((n, oh, ow, cog), dtype=x.dtype)
            for i in range(k):
                for j in range(k):
                    xs = _tap_slice(xg, i, j, spec, oh, ow)
                    acc += np.tensordot(xs, wg[:, :, i, j], axes=([1], [1]))
            out[:, gi * cog : (gi + 1) * cog] = np.moveaxis(acc, -1, 1)
        out = np.ascontiguousarray(out)

    if b is not None:
        out = out + b[None, :, None, None]
    return _checked(out, "conv2d")


def conv2d_vjp(
    x: np.ndarray,
    w: np.ndarray,
    spec: ConvSpec,
    grad_out: np.ndarray,
    need_bias: bool = True,
):
    """Gradients of conv2d w.r.t. (x, w, b) given the output cotangent."""
    oh, ow = _conv_check(x, w, None, spec)
    if grad_out.shape != (x.shape[0], w.shape[0], oh, ow):
        raise PreconditionError(
            f"grad_out: expected {(x.shape[0], w.shape[0], oh, ow)}, got {grad_out.shape}"
        )
    n, c_in, h, wd = x.shape
    c_out = w.shape[0]
    k, g, p = spec.kernel, spec.groups, spec.pad
    xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p))) if p else x
    dxp = np.zeros_like(xp)
    dw = np.zeros_like(w)
    go = grad_out

    if g == c_in and g == c_out:
        for i in range(k):
            for j in range(k):
                xs = _tap_slice(xp, i, j, spec, oh, ow)
                dxs = _tap_slice(dxp, i, j, spec, oh, ow)
                dxs += go * w[:, 0, i, j][None, :, None, None]
                dw[:, 0, i, j] = (go * xs).sum(axis=(0, 2, 3))
    elif g == 1:
        for i in range(k):
            for j in range(k):
                xs = _tap_slice(xp, i, j, spec, oh, ow)
                dxs = _tap_slice(dxp, i, j, spec, oh, ow)
                # (n,c_out,oh,ow) x (c_out,c_in) -> (n,oh,ow,c_in)
                dxs += np.moveaxis(np.tensordot(go, w[:, :, i, j], axes=([1], [0])), -1, 1)
                dw[:, :, i, j] = np.tensordot(go, xs, axes=([0, 2, 3], [0, 2, 3]))
    else:
        cig, cog = c_in // g, c_out // g
        for gi in range(g):
            sl_in = slice(gi * cig, (gi + 1) * cig)
            sl_out = slice(gi * cog, (gi + 1) * cog)
            gog = go[:, sl_out]
            for i in range(k):
                for j in range(k):
                    xs = _tap_slice(xp[:, sl_in], i, j, spec, oh, ow)
                    dxs = _tap_slice(dxp[:, sl_in], i, j, spec, oh, ow)
                    dxs += np.moveaxis(
                        np.tensordot(gog, w[sl_out, :, i, j], axes=([1], [0])), -1, 1
                    )
                    dw[sl_out, :, i, j] = np.tensordot(gog, xs, axes=([0, 2, 3], [0, 2, 3]))

    dx = dxp[:, :, p : p + h, p : p + wd] if p else dxp
    db = go.sum(axis=(0, 2, 3)) if need_bias else None
    return np.ascontiguousarray(dx), dw, db


def pointwise(x: np.ndarray, w: np.ndarray, b: np.ndarray | None = None) -> np.ndarray:
    """Channel-mixing linear map, w [c_out, c_in]; equals conv2d with a 1x1 kernel."""
    check_nchw(x, "x")
    if w.ndim != 2 or w.shape[1] != x.shape[1]:
        raise PreconditionError(
            f"w: expected [c_out, {x.shape[1]}], got {w.shape}"
        )
    out = np.tensordot(x, w, axes=([1], [1]))  # (n,h,w,c_out)
    out = np.ascontiguousarray(np.moveaxis(out, -1, 1))
    if b is not None:
        if b.shape != (w.shape[0],):
            raise PreconditionError(f"b: expected shape ({w.shape[0]},), got {b.shape}")
        out = out + b[None, :, None, None]
    return _checked(out, "pointwise")


def pointwise_vjp(x: np.ndarray, w: np.ndarray, grad_out: np.ndarray):
    dx = np.ascontiguousarray(np.moveaxis(np.tensordot(grad_out, w, axes=([1], [0])), -1, 1))
    dw = np.tensordot(grad_out, x, axes=([0, 2, 3], [0, 2, 3]))
    db = grad_out.sum(axis=(0, 2, 3))
    return dx, dw, db


_INV_SQRT2 = 0.7071067811865476
_INV_SQRT2PI = 0.3989422804014327


def gelu(x: np.ndarray) -> np.ndarray:
    """Exact-erf GELU: 0.5 * x * (1 + erf(x / sqrt(2))). Odd-symmetric up to the linear term."""
    return _checked(0.5 * x * (1.0 + erf(x * _INV_SQRT2)), "gelu")


def gelu_grad(x: np.ndarray) -> np.ndarray:
    """d/dx gelu(x) = Phi(x) + x * phi(x) with Phi/phi the normal cdf/pdf."""
    cdf = 0.5 * (1.0 + erf(x * _INV_SQRT2))
    pdf = _INV_SQRT2PI * np.exp(-0.5 * x * x)
    return cdf + x * pdf


def sigmoid(x: np.ndarray) -> np.ndarray:
    # Split by sign to avoid overflow in exp for large |x|.
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return _checked(out, "sigmoid")


def _layer_norm_stats(x: np.ndarray, eps: float, axis: int):
    """(xhat, inv): x standardized over one axis, and the inverse std (keepdims)."""
    if eps <= 0:
        raise PreconditionError(f"eps must be > 0, got {eps}")
    mu = x.mean(axis=axis, keepdims=True)
    xc = x - mu
    var = np.mean(xc * xc, axis=axis, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    return xc * inv, inv


def _channel_shape(x: np.ndarray, axis: int) -> list:
    shape = [1] * x.ndim
    shape[axis] = x.shape[axis]
    return shape


def layer_norm(
    x: np.ndarray,
    gamma: np.ndarray,
    beta: np.ndarray,
    eps: float = 1e-6,
    axis: int = 1,
) -> np.ndarray:
    """Normalize over one axis (default: NCHW channel axis) with affine gamma/beta.

    Uses the biased variance. With gamma=1, beta=0 the output has per-position
    mean 0 and variance sigma^2/(sigma^2+eps), i.e. 1 up to the eps regularizer.
    """
    c = x.shape[axis]
    if gamma.shape != (c,) or beta.shape != (c,):
        raise PreconditionError(
            f"gamma/beta: expected shape ({c},) for axis {axis}, got {gamma.shape}/{beta.shape}"
        )
    xhat, _ = _layer_norm_stats(x, eps, axis)
    shape = _channel_shape(x, axis)
    out = gamma.reshape(shape) * xhat + beta.reshape(shape)
    return _checked(out, "layer_norm")


def layer_norm_vjp(
    x: np.ndarray, gamma: np.ndarray, grad_out: np.ndarray, eps: float = 1e-6, axis: int = 1
):
    """Gradients of layer_norm w.r.t. (x, gamma, beta) given the output cotangent."""
    axis = axis % x.ndim  # the parameter reductions exclude it by index
    xhat, inv = _layer_norm_stats(x, eps, axis)
    red = tuple(i for i in range(x.ndim) if i != axis)
    dgamma = (grad_out * xhat).sum(axis=red)
    dbeta = grad_out.sum(axis=red)
    gx = grad_out * gamma.reshape(_channel_shape(x, axis))
    m = gx.mean(axis=axis, keepdims=True)
    mx = (gx * xhat).mean(axis=axis, keepdims=True)
    dx = inv * (gx - m - xhat * mx)
    return dx, dgamma, dbeta


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Shift-stable softmax along one axis; rows sum to 1."""
    shifted = x - x.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)
    return _checked(out, "softmax")


def batched_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product over the last two axes; leading batch axes must match exactly."""
    if a.ndim < 2 or b.ndim < 2:
        raise PreconditionError(f"batched_matmul: need >=2-D operands, got {a.shape} x {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise PreconditionError(
            f"batched_matmul: inner dims disagree, {a.shape[-1]} vs {b.shape[-2]}"
        )
    if a.shape[:-2] != b.shape[:-2]:
        raise PreconditionError(
            f"batched_matmul: batch dims disagree, {a.shape[:-2]} vs {b.shape[:-2]}"
        )
    return _checked(np.matmul(a, b), "batched_matmul")


def fuse_modulate(
    ctx: np.ndarray, v: np.ndarray, mode: str = "repeat", combine: str = "mul"
) -> np.ndarray:
    """Fuse a c-channel context map into an r*c-channel value map.

    Output channel i is v[i] <op> ctx[i mod c]. mode picks the execution route:
    "repeat" materializes the tiled context, "reshape" multiplies through an
    [n, r, c, h, w] view without materializing. Both routes are bit-identical;
    the ablation test depends on that. combine="sum" is the additive-variant
    hook used by the fusion ablation (default "mul" is the modulation product).
    """
    check_nchw(ctx, "ctx")
    check_nchw(v, "v")
    n, c, h, w = ctx.shape
    if v.shape[0] != n:
        raise PreconditionError(f"v: batch dim {v.shape[0]} != ctx batch {n}")
    if v.shape[2:] != (h, w):
        raise PreconditionError(f"v: spatial dims {v.shape[2:]} != ctx spatial {(h, w)}")
    if v.shape[1] % c != 0:
        raise PreconditionError(f"v: channel dim {v.shape[1]} not a multiple of ctx channels {c}")
    if mode not in ("repeat", "reshape"):
        raise ConfigError(f"mode must be 'repeat' or 'reshape', got {mode!r}")
    if combine not in ("mul", "sum"):
        raise ConfigError(f"combine must be 'mul' or 'sum', got {combine!r}")
    r = v.shape[1] // c

    if mode == "repeat":
        tiled = np.tile(ctx, (1, r, 1, 1))
        out = v * tiled if combine == "mul" else v + tiled
    else:
        v5 = v.reshape(n, r, c, h, w)
        out = v5 * ctx[:, None] if combine == "mul" else v5 + ctx[:, None]
        out = out.reshape(v.shape)
    return _checked(np.ascontiguousarray(out), "fuse_modulate")


def fuse_modulate_vjp(
    ctx: np.ndarray,
    v: np.ndarray,
    mode: str,
    combine: str,
    grad_out: np.ndarray,
):
    """Cotangents for fuse_modulate; reduces the context grad over the r repeats."""
    n, c, h, w = ctx.shape
    r = v.shape[1] // c
    go5 = grad_out.reshape(n, r, c, h, w)
    if combine == "mul":
        dv = grad_out * np.tile(ctx, (1, r, 1, 1)) if mode == "repeat" else (
            (grad_out.reshape(n, r, c, h, w) * ctx[:, None]).reshape(v.shape)
        )
        dctx = (go5 * v.reshape(n, r, c, h, w)).sum(axis=1)
    else:
        dv = grad_out.copy()
        dctx = go5.sum(axis=1)
    return np.ascontiguousarray(dctx), np.ascontiguousarray(dv)


def global_avg_pool(x: np.ndarray) -> np.ndarray:
    """Spatial mean, keepdims: [n,c,h,w] -> [n,c,1,1]."""
    check_nchw(x, "x")
    return _checked(x.mean(axis=(2, 3), keepdims=True), "global_avg_pool")

