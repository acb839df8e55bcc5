"""Complexity accounting: parameters, multiply-accumulates, closed forms.

Conventions (also in README):
- params_no_bias counts multiplicative kernels only (conv/pointwise/linear/
  gate weights). params_with_bias adds biases, norm affines and layer scales.
  Budget comparisons against published totals use the with-bias number;
  closed-form identities use the no-bias number.
- 1 MAC = 1 multiply-accumulate; a conv layer at output h x w costs
  h*w * c_out * (c_in/groups) * k^2. Attention adds the two score/value
  matmuls (2 * t^2 * c per block). Norms, softmax, GELU and biases are not
  counted. Reported GMACs = MACs / 1e9.

The modulation block has the closed form params = 2(r+1)c^2 + k^2 c and
macs = h*w*params when channel-preserving; the analyzer checks every counted
block against it exactly, and for conv-only networks total MACs factor as
sum(out_area * layer_params) per layer (the resolution-times-params rule).
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field

import numpy as np

from . import blocks as B
from .errors import ConfigError
from .model import Model, ModelSpec, check_resolution

# --------------------------------------------------------------- report


@dataclass
class LayerRow:
    name: str
    kind: str
    params_with_bias: int
    params_no_bias: int
    macs: int
    stage: int | None = None  # stage index; None for the stem, downsamples and head


@dataclass
class ClosedFormRow:
    name: str
    counted: int
    formula: int

    @property
    def delta(self) -> int:
        return self.counted - self.formula


@dataclass
class ComplexityReport:
    rows: list = field(default_factory=list)
    closed_form: list = field(default_factory=list)
    input_res: tuple | None = None
    notes: dict = field(default_factory=dict)

    @property
    def total_params_with_bias(self) -> int:
        return sum(r.params_with_bias for r in self.rows)

    @property
    def total_params_no_bias(self) -> int:
        return sum(r.params_no_bias for r in self.rows)

    @property
    def total_macs(self) -> int:
        return sum(r.macs for r in self.rows)

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("name,kind,params_with_bias,params_no_bias,macs\n")
        for r in self.rows:
            buf.write(f"{r.name},{r.kind},{r.params_with_bias},{r.params_no_bias},{r.macs}\n")
        buf.write(
            f"TOTAL,,{self.total_params_with_bias},{self.total_params_no_bias},{self.total_macs}\n"
        )
        return buf.getvalue()

    def to_text(self) -> str:
        width = max([len(r.name) for r in self.rows] + [5])
        lines = []
        for key, val in self.notes.items():
            lines.append(f"# {key}: {val}")
        lines.append(
            f"{'layer':<{width}}  {'kind':<10}  {'params':>12}  {'params(nb)':>12}  {'macs':>14}"
        )
        for r in self.rows:
            lines.append(
                f"{r.name:<{width}}  {r.kind:<10}  {r.params_with_bias:>12,}  "
                f"{r.params_no_bias:>12,}  {r.macs:>14,}"
            )
        lines.append(
            f"{'TOTAL':<{width}}  {'':<10}  {self.total_params_with_bias:>12,}  "
            f"{self.total_params_no_bias:>12,}  {self.total_macs:>14,}"
        )
        if self.input_res is not None:
            h, w = self.input_res
            lines.append(
                f"input {h}x{w}: {self.total_macs / 1e9:.4f} GMACs, "
                f"{self.total_params_with_bias / 1e6:.4f} M params "
                f"({self.total_params_no_bias / 1e6:.4f} M without biases/norms)"
            )
        if self.closed_form:
            worst = max(abs(c.delta) for c in self.closed_form)
            lines.append(
                f"modulation closed form 2(r+1)c^2 + k^2 c over "
                f"{len(self.closed_form)} blocks: max |counted - formula| = {worst}"
            )
        return "\n".join(lines)


# ---------------------------------------------------------- row builders


def _wb(w_elems: int, b_elems: int) -> tuple:
    return w_elems + b_elems, w_elems


def _add(rows, name, kind, w_elems, b_elems, macs):
    wb, nb = _wb(w_elems, b_elems)
    rows.append(LayerRow(name, kind, wb, nb, int(macs)))


def _conv_rows(rows, name, layer, out_hw):
    c_out, cig, k, _ = layer.w.data.shape
    b = 0 if layer.b is None else c_out
    area = out_hw[0] * out_hw[1]
    _add(rows, name, "conv", c_out * cig * k * k, b, area * c_out * cig * k * k)


def _mod_rows(rows, closed, prefix, entry, hw):
    p = entry.params
    c, c_out, k, r = p.channels, p.out_channels, p.kernel, p.expansion
    rc = p.v_w.data.shape[0]
    area = hw[0] * hw[1]
    nb = lambda v: 0 if v is None else v.data.size
    if entry.wrap is not None:
        _add(rows, prefix + "wrap.norm", "norm", 0, 2 * c, 0)
    _add(rows, prefix + "f", "pointwise", c * c, nb(p.f_b), area * c * c)
    _add(rows, prefix + "dw", "dwconv", k * k * c, nb(p.dw_b), area * k * k * c)
    _add(rows, prefix + "g", "pointwise", c * c, nb(p.g_b), area * c * c)
    _add(rows, prefix + "v", "pointwise", rc * c, nb(p.v_b), area * rc * c)
    _add(rows, prefix + "p", "pointwise", c_out * rc, nb(p.p_b), area * c_out * rc)
    if entry.wrap is not None:
        _add(rows, prefix + "wrap.scale", "scale", 0, c, 0)
    counted = c * c + k * k * c + c * c + rc * c + c_out * rc
    if c_out == c:
        formula, _ = closed_form_block_complexity(c, r, k, 1, 1)
        closed.append(ClosedFormRow(prefix.rstrip("."), counted, formula))


def _mbconv_rows(rows, prefix, entry, hw):
    p = entry.params
    c = p.channels
    rc = p.expand_w.data.shape[0]
    k = p.kernel
    area = hw[0] * hw[1]
    nb = lambda v: 0 if v is None else v.data.size
    if entry.wrap is not None:
        _add(rows, prefix + "wrap.norm", "norm", 0, 2 * c, 0)
    _add(rows, prefix + "expand", "pointwise", rc * c, nb(p.expand_b), area * rc * c)
    _add(rows, prefix + "dw", "dwconv", k * k * rc, nb(p.dw_b), area * k * k * rc)
    _add(rows, prefix + "squeeze", "pointwise", c * rc, nb(p.squeeze_b), area * c * rc)
    if entry.wrap is not None:
        _add(rows, prefix + "wrap.scale", "scale", 0, c, 0)


def _attn_rows(rows, prefix, entry, hw):
    p = entry.params
    c = p.channels
    hidden = p.mlp1_w.data.shape[0]
    t = hw[0] * hw[1]
    nb = lambda v: 0 if v is None else v.data.size
    _add(rows, prefix + "ln1", "norm", 0, 2 * c, 0)
    _add(rows, prefix + "qkv", "linear", 3 * c * c, nb(p.qkv_b), t * 3 * c * c)
    _add(rows, prefix + "scores", "matmul", 0, 0, 2 * t * t * c)
    _add(rows, prefix + "proj", "linear", c * c, nb(p.proj_b), t * c * c)
    _add(rows, prefix + "ln2", "norm", 0, 2 * c, 0)
    _add(rows, prefix + "mlp1", "linear", hidden * c, nb(p.mlp1_b), t * hidden * c)
    _add(rows, prefix + "mlp2", "linear", c * hidden, nb(p.mlp2_b), t * c * hidden)


# ---------------------------------------------------------------- walks


def _walk(model: Model, input_res: tuple | None) -> tuple:
    """(rows, closed-form rows): the one walk over the model's layers, in order.

    With input_res None it counts parameters only, and every MAC count is 0.
    """
    rows: list[LayerRow] = []
    closed: list[ClosedFormRow] = []
    sized = input_res is not None

    def out_hw(spec, hw):
        return (spec.out_size(hw[0]), spec.out_size(hw[1])) if sized else (0, 0)

    hw = out_hw(model.stem.spec, input_res)
    _conv_rows(rows, "stem", model.stem, hw)
    for si, stage in enumerate(model.stages):
        start = len(rows)
        for bi, entry in enumerate(stage):
            prefix = f"stage{si}.block{bi}."
            if entry.kind == "mod":
                _mod_rows(rows, closed, prefix, entry, hw)
            elif entry.kind == "mbconv":
                _mbconv_rows(rows, prefix, entry, hw)
            else:
                _attn_rows(rows, prefix, entry, hw)
        for r in rows[start:]:
            r.stage = si
        if si < len(model.downs):
            d = model.downs[si]
            hw = out_hw(d.spec, hw)
            _conv_rows(rows, f"down{si}", d, hw)
    c_last = model.head_norm_g.data.size
    classes = model.head_w.data.shape[0]
    _add(rows, "head.norm", "norm", 0, 2 * c_last, 0)
    _add(
        rows, "head.fc", "linear",
        classes * c_last, 0 if model.head_b is None else classes,
        classes * c_last if sized else 0,
    )
    return rows, closed


def _notes(model: Model) -> dict:
    notes = {}
    spec = model.spec
    if isinstance(spec, ModelSpec):
        if any(st.attn_blocks for st in spec.stages):
            notes["attn_mlp_ratio (calibrated)"] = spec.attn_mlp_ratio
        notes["heads"] = spec.heads
    return notes


def complexity_report(model: Model, input_res=(224, 224)) -> ComplexityReport:
    """Per-layer params and MACs for a built model at a given input size."""
    if isinstance(input_res, int):
        input_res = (input_res, input_res)
    check_resolution(model, *input_res)
    rows, closed = _walk(model, input_res)
    return ComplexityReport(rows, closed, input_res, _notes(model))


def count_params(model: Model) -> ComplexityReport:
    """Parameter-only report: every MAC count is 0 and no input size applies."""
    rows, closed = _walk(model, None)
    return ComplexityReport(rows, closed, None, _notes(model))


def count_macs(model: Model, input_res=(224, 224)) -> int:
    return complexity_report(model, input_res=input_res).total_macs


def stage_param_totals(model: Model) -> list:
    """With-bias parameter total per stage (stem/downsample/head excluded)."""
    totals = [0] * len(model.stages)
    for r in _walk(model, None)[0]:
        if r.stage is not None:
            totals[r.stage] += r.params_with_bias
    return totals


def closed_form_block_complexity(c: int, r: int, k: int, h: int, w: int) -> tuple:
    """(params, macs) of one channel-preserving modulation block, no biases.

    params = 2(r+1)c^2 + k^2 c: f and g are c x c, v is rc x c, p is c x rc,
    the depthwise adds k^2 c. macs = h*w*params because every weight is used
    once per spatial position.
    """
    if min(c, r, k, h, w) < 1:
        raise ConfigError(f"closed form needs positive c,r,k,h,w, got {(c, r, k, h, w)}")
    params = 2 * (r + 1) * c * c + k * k * c
    return params, h * w * params


def verify_closed_form(params: B.EfficientModParams) -> tuple:
    """Counted no-bias params of a built block vs the closed form; exact match."""
    c, k, r = params.channels, params.kernel, params.expansion
    if params.out_channels != c:
        raise ConfigError("closed form applies to channel-preserving blocks only")
    counted = (
        params.f_w.data.size
        + params.dw_w.data.size
        + params.g_w.data.size
        + params.v_w.data.size
        + params.p_w.data.size
    )
    formula, _ = closed_form_block_complexity(c, r, k, 1, 1)
    return counted, formula


# ---------------------------------------------------------- degree probe

MAX_PROBE_LAYERS = 12


def _poly_mul(a: list, b: list) -> list:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def _poly_degree(p: list) -> int:
    for i in range(len(p) - 1, -1, -1):
        if p[i] != 0:
            return i
    return 0


def degree_trajectory(layers: int, seed: int = 0) -> list:
    """Degree of the input polynomial after each residual-square level.

    Models x_{i+1} = x_i + a_i * x_i^2 with exact integer coefficients; the
    leading coefficient of level i+1 is a_i * lead_i^2, which never cancels
    for a_i != 0, so the degree doubles each level: 2^l after l levels.
    """
    if not isinstance(layers, int) or layers < 0:
        raise ConfigError(f"layers must be a non-negative int, got {layers!r}")
    if layers > MAX_PROBE_LAYERS:
        raise ConfigError(
            f"layers={layers} above cap {MAX_PROBE_LAYERS} (coefficients explode as 2^l)"
        )
    rng = np.random.default_rng(seed)
    p = [0, 1]  # x_0
    degrees = [_poly_degree(p)]
    for _ in range(layers):
        a = int(rng.integers(1, 10))
        sq = _poly_mul(p, p)
        nxt = [a * c for c in sq]
        for i, c in enumerate(p):
            nxt[i] += c
        p = nxt
        degrees.append(_poly_degree(p))
    return degrees


def degree_probe(layers: int, seed: int = 0) -> int:
    """Exact degree of x_layers as a polynomial in x_0; equals 2**layers."""
    return degree_trajectory(layers, seed=seed)[-1]
