"""NCHW tensor kernels.

Pure functions over numpy arrays in [batch, channel, height, width] layout,
float32 or float64. Everything else in the package (autodiff, blocks, models)
is built from these. Each kernel has an independent naive-loop oracle in the
test suite; keep the implementations boring and the contracts explicit.

Convolution has one route per kind, and every route visits only live taps:
kernel offsets whose reads all fall in the zero padding are skipped (a 7x7
kernel with pad 3 has 9 live taps at a 2x2 input, 1 at 1x1).
- Depthwise (groups = channels): each channel is a doubly-block-Toeplitz
  matrix T [h*w, oh*ow] whose entry (src, dst) holds the weight of the one tap
  that takes input pixel src to output pixel dst (Sedghi, Gupta & Long, ICLR
  2019). Two GEMM routes read it, each for forward and VJP:
  - whole map: _toeplitz_index lists T's entries (tap, src, dst), sorted by
    tap; out = x[c, n, hw] @ T, dx = g @ T^T, and dw sums x^T @ g at each
    tap's entries with one np.add.reduceat;
  - tiles: per live kernel row, a band of T cut to b output columns and the
    (b-1)*s + (k-1)*d + 1 input columns they read holds the row's taps. The
    interior tiles run as one batched GEMM on a read-only strided view of the
    unpadded input, each edge tile on a clipped slice of the band; a tile that
    reads only padding is skipped. The product fills channel blocks of at most
    TILE_BYTES, each added to the output in whole rows. The VJP pads instead:
    the cotangent spread to o*s + e - p on a zero map padded by e = (k-1)*d
    gives dx as its stride-1 tile forward with the flipped kernel, and dw from
    the same tiles' x^T @ g products.
    A map up to 2*TILE_COLS wide is one full-width band (b = its width), which
    spends w/k times the conv's MACs; wider maps take b = TILE_COLS = 14. At
    batch 1, f32, k7 on 2 cores, c32 56x56 went 1.9 -> 1.1 ms forward and
    4.6 -> 2.6 ms VJP against the band; b = 10 and 20 were no faster there, and
    tiling 28x28 (b = 10) made its VJP slower than the band.
  The whole map spends h*w MACs per output where the conv needs k*k, and
  filling T costs about 8 images of its GEMM, so _whole_map picks it when
  h*w*(n + 8) <= 2*n*k*k. Smallest batch at which it beat the band, forward
  plus VJP, k7 on 2 cores (the predicate's choice last):
      map          2x2  4x4  7x7  8x8  10x10  14x14
      c16 f64        1    1    2   16  32-64     64
      c128 f32       1    1    8   16  16-32     64
      _whole_map     1    2    8   16  never  never
  The micro training step (batch 32, maps 8x8 and below) runs whole-map; batch
  1 at 7x7 and up runs the tiles (whole-map: c256 7x7 f32 forward 1.6 vs 0.4 ms).
- Dense (groups = 1: stems, downsamples, patchify): the forward multiplies the
  im2col of a sliding_window_view of the padded input into the result one band
  of output rows at a time (row_bands), so the xxs stem's 147 x 3136 patch
  matrix (1.84 MB in f32; whole, it put the f32 224x224 inference peak at
  2.88 MB) never exists whole. Every band is copied into one band buffer, so
  two bands never live at once. A map that fits is one band. The VJP stays a tap
  loop of small GEMMs on an [h, w, n, c] copy: a one-GEMM VJP holds the whole
  patch matrix and its cotangent during backward, and took the micro training
  step (batch 32, f64) from 13.0 to 17.7 MB peak.
No other group count has a route: _conv_check refuses it.

Elementwise kernels work in place on the arrays they allocate. scipy's erf costs
~14 ns an element in f32 as in f64, so float32 gelu and gelu_grad use Abramowitz
& Stegun 7.1.26 on numpy ufuncs, 3x faster; against f64 math.erf their max
|error| is 4.7e-7 and 3.4e-7 (scipy f32: 4.5e-7, 1.4e-7). gelu runs the pipeline
over flat chunks of TILE_BYTES into its output with one chunk of scratch, so it
holds no second x-sized array and each pass stays in cache; every element keeps
the bits of the whole-array pipeline. gelu_grad holds two x-sized arrays (and x
clamped at +-40). float64 stays on scipy, at f64 rounding, as the 1e-13 oracles
need. Both clamp x at +-40 where a product would meet inf * 0, so
gelu(-inf) = 0 and gelu_grad(+-inf) = 1, 0; every finite result is unchanged.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided, sliding_window_view
from scipy.special import erf

from .errors import ConfigError, PreconditionError

FLOAT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))

# Largest band of _dense's im2col and autodiff.modulate's value map.
BAND_BYTES = 512 << 10
# Output columns per tile of the depthwise tile route (module docstring), and the largest
# scratch block a kernel keeps beside its output: the tile route's product block, which keeps
# the xxs stage-0 conv (c32 56x56 f32) within 0.17 MB of its output, and f32 gelu's chunk.
TILE_COLS = 14
TILE_BYTES = 128 << 10
LN_EPS = 1e-6  # layer_norm's variance regularizer


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
    if g != 1 and not g == c_in == c_out:
        raise PreconditionError(
            f"groups={g} with {c_in} input and {c_out} output channels: only dense "
            f"(groups=1) and depthwise (groups = input = output channels) convs run"
        )
    if c_in_g != c_in // g:
        raise PreconditionError(
            f"w: input-channel dim {c_in_g} does not match x channels/groups = {c_in // g}"
        )
    if b is not None:
        if b.ndim != 1 or b.shape[0] != c_out:
            raise PreconditionError(f"b: expected shape ({c_out},), got {b.shape}")
    if w.dtype != x.dtype or b is not None and b.dtype != x.dtype:  # numpy would cast silently
        raise PreconditionError(f"w/b dtype {w.dtype}/{getattr(b, 'dtype', None)} != x's {x.dtype}")
    oh, ow = spec.out_size(h), spec.out_size(wd)
    if oh < 1:
        raise PreconditionError(f"x: height {h} too small for {spec} (output height {oh})")
    if ow < 1:
        raise PreconditionError(f"x: width {wd} too small for {spec} (output width {ow})")
    return oh, ow


def _live_taps(spec: ConvSpec, size: int, out: int) -> list:
    """(i, lo, hi) for each kernel offset i along one axis that reads the input.

    Outputs lo..hi-1 are the ones whose offset-i read lands inside the input
    rather than in the zero padding. An offset with no such output is dead and
    left out.
    """
    s, d, p = spec.stride, spec.dilation, spec.pad
    taps = []
    for i in range(spec.kernel):
        lo = max(0, -((i * d - p) // s))
        hi = min(out, (p + size - 1 - i * d) // s + 1)
        if lo < hi:
            taps.append((i, lo, hi))
    return taps


@functools.lru_cache(maxsize=128)
def _toeplitz_index(spec: ConvSpec, *sizes: int) -> tuple:
    """(tap, src, dst, starts) of the whole-map route's T: see the module docstring.

    Positions are flat row-major over the axes given. The arrays are shared, so read-only.
    """
    s, d, p = spec.stride, spec.dilation, spec.pad
    tap = src = dst = np.zeros(1, dtype=np.intp)
    for size in sizes:
        out = spec.out_size(size)
        i, lo, hi = np.array(_live_taps(spec, size, out), dtype=np.intp).reshape(-1, 3).T
        t = np.repeat(i, hi - lo)
        o = np.arange(t.size) - np.repeat(np.cumsum(hi - lo) - hi, hi - lo)
        tap = (tap[:, None] * spec.kernel + t).ravel()
        src = (src[:, None] * size + o * s + t * d - p).ravel()
        dst = (dst[:, None] * out + o).ravel()
    order = np.argsort(tap, kind="stable")
    index = tap[order], src[order], dst[order], np.flatnonzero(np.diff(tap[order], prepend=-1))
    for a in index:
        a.flags.writeable = False
    return index


def _whole_map(n: int, h: int, w: int, k: int) -> bool:
    """The depthwise route: whole-map Toeplitz (True) or tiles; see the module docstring."""
    return h * w * (n + 8) <= 2 * n * k * k


def _toeplitz(w: np.ndarray, spec: ConvSpec, h: int, wd: int, dtype) -> np.ndarray:
    """Per-channel [c, h*w, oh*ow] matrix T: the conv is x[c, n, h*w] @ T."""
    tap, src, dst, _ = _toeplitz_index(spec, h, wd)
    t = np.zeros((w.shape[0], h * wd, spec.out_size(h) * spec.out_size(wd)), dtype=dtype)
    t[:, src, dst] = w.reshape(w.shape[0], -1)[:, tap]
    return t


def _cnm(a: np.ndarray) -> np.ndarray:
    """[c, n, h*w] view of a C-ordered NCHW array."""
    return a.reshape(a.shape[0], a.shape[1], -1).transpose(1, 0, 2)


def _tile_view(a, col, count, step, width, writeable=False):
    """a as [n, c, count, rows, width]: tile t starts at column col + t*step (one tile: a slice)."""
    if count == 1:
        return a[:, :, None, :, col : col + width]
    sn, sc, sr, sw = a.strides
    shape, strides = (*a.shape[:2], count, a.shape[2], width), (sn, sc, step * sw, sr, sw)
    return as_strided(a[..., col:], shape, strides, writeable=writeable)


@functools.lru_cache(maxsize=128)
def _tile_plan(spec: ConvSpec, wd: int, ow: int, dtype) -> tuple:
    """(taps, pieces) of the tile route along the width; taps is shared, so read-only.

    taps [k, span, b] is 1 where kernel column j sits in the band. A piece (t, count, cols, q)
    is count tiles of cols output columns from column t, reading band rows q.
    """
    k, s, d, p = spec.kernel, spec.stride, spec.dilation, spec.pad
    b = TILE_COLS if ow > 2 * TILE_COLS else ow
    span = (b - 1) * s + (k - 1) * d + 1
    taps = (np.arange(span)[:, None] == np.arange(b) * s + np.arange(k)[:, None, None] * d).astype(dtype)
    taps.flags.writeable = False
    inner = [t for t in range(0, ow, b) if 0 <= t * s - p <= wd - span and t + b <= ow]
    runs = [(t, 1) for t in range(0, ow, b) if t not in inner] + [(t, len(inner)) for t in inner[:1]]
    return taps, tuple((t, m, min(b, ow - t), q) for t, m in runs  # skipping tiles that read only padding
                       if (q := slice(max(0, p - t * s), min(span, wd + p - t * s))).start < q.stop)


def _tiled(x: np.ndarray, w: np.ndarray, spec: ConvSpec, oh: int, ow: int) -> np.ndarray:
    """The forward of the depthwise tile route: see the module docstring."""
    (n, c, h, wd), (s, d, p) = x.shape, (spec.stride, spec.dilation, spec.pad)
    taps, pieces = _tile_plan(spec, wd, ow, x.dtype)
    k, span, b = taps.shape
    # y, the product of one block of cb channels: the fewest even blocks within TILE_BYTES; the
    # columns of skipped tiles stay 0
    cb = -(-c // -(-n * c * oh * ow * x.itemsize // TILE_BYTES))
    band, y = np.empty((c, 1, span, b), dtype=x.dtype), np.zeros((n, min(c, cb), oh, ow), dtype=x.dtype)
    views = [(band[..., q, :cols], _tile_view(x, t * s - p + q.start, m, b * s, q.stop - q.start),
              _tile_view(y, t, m, b, cols, writeable=True)) for t, m, cols, q in pieces]
    out = np.zeros((n, c, oh, ow), dtype=x.dtype)
    for i, lo, hi in _live_taps(spec, h, oh):
        np.matmul(w[:, 0, i], taps.reshape(k, -1), out=band.reshape(c, -1))
        rows = slice(lo * s + i * d - p, (hi - 1) * s + i * d - p + 1, s)
        for c0 in range(0, c, cb):
            ch, cn = slice(c0, c0 + cb), min(cb, c - c0)
            for bq, xt, yt in views:
                np.matmul(xt[:, ch, :, rows], bq[ch], out=yt[:, :cn, :, : hi - lo])
            out[:, ch, lo:hi] += y[:, :cn, : hi - lo]
    return out


def _depthwise(x: np.ndarray, w: np.ndarray, spec: ConvSpec, oh: int, ow: int) -> np.ndarray:
    n, c, h, wd = x.shape
    if not _whole_map(n, h, wd, spec.kernel):
        return _tiled(x, w, spec, oh, ow)
    out = np.empty((n, c, oh, ow), dtype=x.dtype)
    np.matmul(_cnm(x), _toeplitz(w, spec, h, wd, x.dtype), out=_cnm(out))
    return out


def row_bands(rows: int, row_bytes: int) -> list:
    """Slices of rows in bands of at most BAND_BYTES (one row at least); one band if all fit."""
    step = rows if rows * row_bytes <= BAND_BYTES else max(1, BAND_BYTES // row_bytes)
    return [slice(r, min(r + step, rows)) for r in range(0, rows, step)]


def _dense(x: np.ndarray, w: np.ndarray, spec: ConvSpec, oh: int, ow: int) -> np.ndarray:
    n, c_in, h, wd = x.shape
    s, d, p = spec.stride, spec.dilation, spec.pad
    rows, cols = _live_taps(spec, h, oh), _live_taps(spec, wd, ow)
    # Kernel offsets from the first live tap to the last; empty when none is live.
    i0, i1 = (rows[0][0], rows[-1][0] + 1) if rows else (0, 0)
    j0, j1 = (cols[0][0], cols[-1][0] + 1) if cols else (0, 0)
    xp = x
    if p:  # zeros plus an interior copy: np.pad costs ~50 us a call even on 2x2 maps
        xp = np.zeros((n, c_in, h + 2 * p, wd + 2 * p), dtype=x.dtype)
        xp[:, :, p : p + h, p : p + wd] = x
    span = d * (spec.kernel - 1) + 1
    win = sliding_window_view(xp, (span, span), axis=(2, 3))[
        :, :, ::s, ::s, i0 * d : i1 * d : d, j0 * d : j1 * d : d
    ]
    wm = w[:, :, i0:i1, j0:j1].reshape(w.shape[0], -1)
    out = np.empty((n, w.shape[0], oh, ow), dtype=x.dtype)
    bands = row_bands(oh, n * wm.shape[1] * ow * x.itemsize)
    buf = np.empty(n * wm.shape[1] * bands[0].stop * ow, dtype=x.dtype)  # every band's im2col
    for rs in bands:
        # im2col of these output rows over the live kernel rows/columns: [n, c_in*kh*kw, rows*ow]
        band = win[:, :, rs].transpose(0, 1, 4, 5, 2, 3)
        patches = buf[: band.size].reshape(band.shape)
        np.copyto(patches, band)
        cols = (rs.stop - rs.start) * ow
        np.matmul(wm, patches.reshape(n, -1, cols), out=out[:, :, rs].reshape(n, -1, cols))
    return out


def conv2d(x: np.ndarray, w: np.ndarray, b: np.ndarray | None, spec: ConvSpec) -> np.ndarray:
    """2-D cross-correlation with zero padding.

    x [n, c_in, h, w], w [c_out, c_in/groups, k, k], optional b [c_out], one dtype.
    groups=1 is a dense conv and groups=c_in=c_out is depthwise; no other
    group count runs.
    """
    oh, ow = _conv_check(x, w, b, spec)
    route = _dense if spec.groups == 1 else _depthwise
    out = route(x, w, spec, oh, ow)
    if b is not None:
        out += b[None, :, None, None]
    return out


def _depthwise_vjp(x: np.ndarray, w: np.ndarray, spec: ConvSpec, go: np.ndarray, need_input: bool):
    n, c, h, wd = x.shape
    dw = np.zeros(w.shape, dtype=w.dtype)
    if _whole_map(n, h, wd, spec.kernel):
        # C-ordered, so the reshaped views below write through
        dx = np.zeros(x.shape, dtype=x.dtype) if need_input else None
        tap, src, dst, starts = _toeplitz_index(spec, h, wd)
        if need_input:
            np.matmul(_cnm(go), _toeplitz(w, spec, h, wd, x.dtype).transpose(0, 2, 1), out=_cnm(dx))
        xg = _cnm(x).transpose(0, 2, 1) @ _cnm(go)
        dw.reshape(c, -1)[:, tap[starts]] = np.add.reduceat(xg[:, src, dst], starts, axis=1)
        return dx, dw
    # The cotangent of output o sits at o*s + e - p on a zero map g padded by e = (k-1)*d;
    # outputs before lo, and past the map, read only padding.
    k, d, s, p = spec.kernel, spec.dilation, spec.stride, spec.pad
    e = (k - 1) * d
    lo = max(0, -((e - p) // s))
    g = np.zeros((n, c, h + e, wd + e), dtype=x.dtype)
    gv, src = g[:, :, lo * s + e - p :: s, lo * s + e - p :: s], go[:, :, lo:, lo:]
    rows, cols = min(gv.shape[2], src.shape[2]), min(gv.shape[3], src.shape[3])
    gv[:, :, :rows, :cols] = src[:, :, :rows, :cols]
    flip = ConvSpec(k, dilation=d, groups=c, padding=0)
    dx = _tiled(g, w[:, :, ::-1, ::-1], flip, h, wd) if need_input else None
    taps, pieces = _tile_plan(flip, wd + e, wd, x.dtype)
    views = [(taps[:, q, :cols], _tile_view(g, t + q.start, m, taps.shape[2], q.stop - q.start),
              _tile_view(x, t, m, taps.shape[2], cols)) for t, m, cols, q in pieces]
    for i in range(k):  # g's kernel row i is dw's row k-1-i, its columns reversed
        for tq, gt, xt in views:
            xg = gt[:, :, :, i * d : i * d + h].swapaxes(3, 4) @ xt
            dw[:, 0, -1 - i, ::-1] += np.tensordot(xg, tq, axes=([3, 4], [1, 2])).sum(axis=(0, 2))
    return dx, dw


def _dense_vjp(x: np.ndarray, w: np.ndarray, spec: ConvSpec, go: np.ndarray, need_input: bool):
    # A tap loop, not one GEMM: see the module docstring.
    n, c_in, h, wd = x.shape
    c_out = w.shape[0]
    oh, ow = go.shape[2:]
    s, d, p = spec.stride, spec.dilation, spec.pad
    xp = np.zeros((h + 2 * p, wd + 2 * p, n, c_in), dtype=x.dtype)  # padded, channels-last
    xp[p : p + h, p : p + wd] = x.transpose(2, 3, 0, 1)
    dxp = np.zeros_like(xp) if need_input else None
    g2 = np.ascontiguousarray(go.transpose(2, 3, 0, 1)).reshape(-1, c_out)
    dw = np.zeros_like(w)
    cols = _live_taps(spec, wd, ow)
    for i, _, _ in _live_taps(spec, h, oh):
        for j, _, _ in cols:
            win = np.s_[i * d : i * d + s * (oh - 1) + 1 : s, j * d : j * d + s * (ow - 1) + 1 : s]
            if need_input:
                dxp[win] += (g2 @ w[:, :, i, j]).reshape(oh, ow, n, c_in)
            dw[:, :, i, j] = g2.T @ xp[win].reshape(-1, c_in)
    dx = dxp[p : p + h, p : p + wd].transpose(2, 3, 0, 1) if need_input else None
    return dx, dw


def conv2d_vjp(
    x: np.ndarray,
    w: np.ndarray,
    spec: ConvSpec,
    grad_out: np.ndarray,
    need_input: bool = True,
):
    """Gradients (dx, dw, db) of conv2d given the output cotangent.

    dx is None when need_input is False (x is a constant, such as the input
    image); every route then skips that work. dw and db do not depend on the
    flag, bit for bit.
    """
    oh, ow = _conv_check(x, w, None, spec)
    if grad_out.shape != (x.shape[0], w.shape[0], oh, ow):
        raise PreconditionError(
            f"grad_out: expected {(x.shape[0], w.shape[0], oh, ow)}, got {grad_out.shape}"
        )
    route = _dense_vjp if spec.groups == 1 else _depthwise_vjp
    dx, dw = route(x, w, spec, grad_out, need_input)
    db = grad_out.sum(axis=(0, 2, 3))
    return None if dx is None else np.ascontiguousarray(dx), dw, db


def pointwise(x: np.ndarray, w: np.ndarray, b: np.ndarray | None = None, out=None) -> np.ndarray:
    """Channel-mixing linear map, w [c_out, c_in] and b in x's dtype; equals a 1x1 conv2d.

    One GEMM per image on the NCHW data in place: w @ x viewed as [n, c_in, h*w], into out if given.
    """
    check_nchw(x, "x")
    if w.ndim != 2 or w.shape[1] != x.shape[1]:
        raise PreconditionError(
            f"w: expected [c_out, {x.shape[1]}], got {w.shape}"
        )
    if b is not None and b.shape != (w.shape[0],):
        raise PreconditionError(f"b: expected shape ({w.shape[0]},), got {b.shape}")
    if w.dtype != x.dtype or b is not None and b.dtype != x.dtype:  # numpy would cast silently
        raise PreconditionError(f"w/b dtype {w.dtype}/{getattr(b, 'dtype', None)} != x's {x.dtype}")
    n, c, h, wd = x.shape
    shape, dtype = (n, w.shape[0], h, wd), x.dtype
    if out is None:
        out = np.empty(shape, dtype)
    elif out.shape != shape or out.dtype != dtype or out.strides[2] != wd * out.strides[3]:
        raise PreconditionError(f"out: want {dtype} {shape}, got {out.dtype} {out.shape}{out.strides}")
    np.matmul(w, x.reshape(n, c, h * wd), out=out.reshape(n, -1, h * wd))
    if b is not None:
        out += b[:, None, None]
    return out


def pointwise_vjp(x: np.ndarray, w: np.ndarray, grad_out: np.ndarray):
    n, c_out, h, wd = grad_out.shape
    dw = np.tensordot(grad_out, x, axes=([0, 2, 3], [0, 2, 3]))  # first: its copies go before dx
    dx = np.matmul(w.T, grad_out.reshape(n, c_out, h * wd)).reshape(x.shape)
    db = grad_out.sum(axis=(0, 2, 3))
    return dx, dw, db


_INV_SQRT2 = 0.7071067811865476
_INV_SQRT2PI = 0.3989422804014327
_GELU_CLAMP = 40.0
# Abramowitz & Stegun 7.1.26: erf(a) = 1 - (a1 t + ... + a5 t^5) exp(-a^2), t = 1 / (1 + p a)
_AS_P, _AS_A = 0.3275911, (1.061405429, -1.453152027, 1.421413741, -0.284496736, 0.254829592)


def _one_plus_erf(x: np.ndarray, s=None, t=None):
    """(1 + erf(x / sqrt(2)), exp(-x*x/2) if float32 else None): see the module docstring.

    A float32 result is written into s and the exp into t when they are given."""
    if x.dtype != np.float32 or x.ndim == 0:  # 0-d results are scalars, with no out=
        return 1.0 + erf(x * _INV_SQRT2), None
    t = np.abs(x, out=t)
    t *= _AS_P * _INV_SQRT2
    t += 1.0
    np.reciprocal(t, out=t)
    s = np.multiply(t, _AS_A[0], out=s)
    for a in _AS_A[1:]:  # Horner from a5: s = a1 t + ... + a5 t^5
        s += a
        s *= t
    np.exp(np.multiply(np.square(x, out=t), -0.5, out=t), out=t)
    s *= t  # erfc(|x| / sqrt(2))
    np.copysign(np.subtract(1.0, s, out=s), x, out=s)
    s += 1.0
    return s, t


def gelu(x: np.ndarray) -> np.ndarray:
    """Exact-erf GELU: 0.5 * x * (1 + erf(x / sqrt(2))). Odd-symmetric up to the linear term.

    float32 runs in flat chunks of TILE_BYTES into one output, with one chunk of scratch."""
    if x.dtype != np.float32 or x.ndim == 0:
        return _gelu(x, *_one_plus_erf(x))
    out, xf = np.empty(x.shape, x.dtype), x.reshape(-1)
    step = TILE_BYTES // x.itemsize
    t = np.empty(min(step, x.size), x.dtype)
    for i in range(0, x.size, step):
        xc = xf[i : i + step]
        _gelu(xc, *_one_plus_erf(xc, out.reshape(-1)[i : i + step], t[: xc.size]))
    return out


def _gelu(x: np.ndarray, s, e) -> np.ndarray:
    """gelu(x) from s = 1 + erf(x / sqrt(2)), in place in s; e is scratch or None."""
    # 1 + erf is exactly 0 below -40 in both dtypes: the clamp changes only -inf (0, not 0 * -inf)
    e = np.maximum(x, -_GELU_CLAMP, out=e)
    e *= 0.5
    s *= e
    return s


def gelu_grad(x: np.ndarray) -> np.ndarray:
    """d/dx gelu(x) = Phi(x) + x * phi(x) with Phi/phi the normal cdf/pdf."""
    cdf, e = _one_plus_erf(x)
    cdf *= 0.5
    # phi is exactly 0 beyond +-40 in both dtypes: the clamp changes only x * phi at +-inf
    # out= keeps xc and e arrays when x is 0-d
    xc = np.maximum(x, -_GELU_CLAMP, out=np.empty_like(x))
    np.minimum(xc, _GELU_CLAMP, out=xc)
    if e is None:
        e = np.multiply(xc, -0.5, out=np.empty_like(x))
        e *= xc
        np.exp(e, out=e)
    e *= _INV_SQRT2PI
    e *= xc
    cdf += e
    return cdf


def sigmoid(x: np.ndarray) -> np.ndarray:
    # Split by sign to avoid overflow in exp for large |x|.
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _layer_norm_stats(x: np.ndarray):
    """(xhat, inv): x standardized over the channel axis, and the inverse std (keepdims)."""
    mu = x.mean(axis=1, keepdims=True)
    xc = x - mu
    var = np.mean(xc * xc, axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LN_EPS)
    return np.multiply(xc, inv, out=xc), inv


def layer_norm(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Normalize an NCHW map over its channels with affine gamma/beta; eps is LN_EPS.

    Uses the biased variance. With gamma=1, beta=0 the output has per-position
    mean 0 and variance sigma^2/(sigma^2+eps), i.e. 1 up to the eps regularizer.
    """
    check_nchw(x, "x")
    c = x.shape[1]
    if gamma.shape != (c,) or beta.shape != (c,) or not gamma.dtype == beta.dtype == x.dtype:
        raise PreconditionError(
            f"gamma/beta: expected shape ({c},) and dtype {x.dtype}, got "
            f"{gamma.shape}/{beta.shape} and {gamma.dtype}/{beta.dtype}"
        )
    out, _ = _layer_norm_stats(x)
    out *= gamma[:, None, None]
    out += beta[:, None, None]
    return out


def layer_norm_vjp(x: np.ndarray, gamma: np.ndarray, grad_out: np.ndarray):
    """Gradients of layer_norm w.r.t. (x, gamma, beta) given the output cotangent."""
    xhat, inv = _layer_norm_stats(x)
    dgamma = (t := grad_out * xhat).sum(axis=(0, 2, 3))  # t: scratch, reused below
    dbeta = grad_out.sum(axis=(0, 2, 3))
    dx = grad_out * gamma[:, None, None]
    m = dx.mean(axis=1, keepdims=True)
    mx = np.multiply(dx, xhat, out=t).mean(axis=1, keepdims=True)
    dx -= m
    dx -= np.multiply(xhat, mx, out=t)
    dx *= inv
    return dx, dgamma, dbeta


def softmax(x: np.ndarray, axis: int = -1, out: np.ndarray | None = None) -> np.ndarray:
    """Shift-stable softmax along one axis; rows sum to 1. out (x's shape and dtype) may be x."""
    if out is not None and (out.shape != x.shape or out.dtype != x.dtype):
        raise PreconditionError(f"out: want {x.dtype} {x.shape}, got {out.dtype} {out.shape}")
    e = np.subtract(x, x.max(axis=axis, keepdims=True), out=out)
    np.exp(e, out=e)
    e /= e.sum(axis=axis, keepdims=True)
    return e


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
    return np.matmul(a, b)


def fuse_modulate(
    ctx: np.ndarray, v: np.ndarray, mode: str = "reshape", combine: str = "mul", out=None
) -> np.ndarray:
    """Fuse a c-channel context map into an r*c-channel value map.

    Output channel i is v[i] <op> ctx[i mod c]. mode picks the execution route:
    "reshape" (the default) multiplies through an [n, r, c, h, w] view without
    materializing, "repeat" materializes the tiled context and is kept only for
    `effmod bench fusion`. Both routes are bit-identical; the ablation test
    depends on that. combine="sum" is the additive-variant
    hook used by the fusion ablation (default "mul" is the modulation product).
    ctx and v share one dtype. The result is written into out when one is given:
    a C-contiguous array of v's shape and dtype, which may be v itself (each element of v
    is read only by the write to the same element).
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
    if ctx.dtype != v.dtype:  # numpy would promote silently
        raise PreconditionError(f"fuse_modulate: ctx and v mix dtypes {ctx.dtype} and {v.dtype}")
    r, dtype = v.shape[1] // c, v.dtype
    if out is None:
        out = np.empty(v.shape, dtype)  # not empty_like: a non-C v would give a non-C out
    elif out.shape != v.shape or out.dtype != dtype or not out.flags.c_contiguous:
        raise PreconditionError(
            f"out: want a C-contiguous {dtype} {v.shape} array, got {out.dtype} {out.shape}"
        )

    op = np.multiply if combine == "mul" else np.add
    if mode == "repeat":
        op(v, np.tile(ctx, (1, r, 1, 1)), out=out)
    else:
        op(v.reshape(n, r, c, h, w), ctx[:, None], out=out.reshape(n, r, c, h, w))
    return out


def fuse_modulate_vjp(ctx: np.ndarray, v: np.ndarray, combine: str, grad_out: np.ndarray):
    """Cotangents (dctx, dv) of fuse_modulate in either mode; dctx sums over the r repeats.
    dv multiplies the pairs grad_out * np.tile(ctx, (1, r, 1, 1)) does, so its bits match."""
    n, c, h, w = ctx.shape
    r = v.shape[1] // c
    go5 = grad_out.reshape(n, r, c, h, w)
    if combine == "mul":
        dv = (go5 * ctx[:, None]).reshape(v.shape)
        dctx = (go5 * v.reshape(n, r, c, h, w)).sum(axis=1)
    else:
        dv = grad_out.copy()
        dctx = go5.sum(axis=1)
    return np.ascontiguousarray(dctx), np.ascontiguousarray(dv)


def global_avg_pool(x: np.ndarray) -> np.ndarray:
    """Spatial mean, keepdims: [n,c,h,w] -> [n,c,1,1]."""
    check_nchw(x, "x")
    return x.mean(axis=(2, 3), keepdims=True)

