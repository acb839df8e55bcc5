"""Complexity accounting: parameters, multiply-accumulates, closed forms.

Conventions (also in README):
- One row per layer of model.named_parameters(): a layer is a parameter name
  without its trailing .w or .b (every blocks.Layer names its leaves so).
- params_no_bias counts the parameters with 2 or more dims (conv, depthwise
  and pointwise weights). params_with_bias adds the 1-D ones: biases, norm
  affines and layer scales. Budget comparisons against published totals use
  the with-bias number; closed-form identities use the no-bias number.
- 1 MAC = 1 multiply-accumulate. Every weight is used once per output
  position of its layer, so a layer costs out_area * weight count: the stem
  and stage S run at stage 0's and stage S's resolution, downN at stage N+1's,
  the head at 1x1. The one exception is attention's parameter-free `scores`
  row, 2 * t^2 * c for the score and value matmuls over t positions. Norms,
  softmax, GELU and biases are not counted. Reported GMACs = MACs / 1e9.
- Row kinds: conv, dwconv and pointwise from the weight's shape, affine for
  rows of 1-D parameters only, matmul for attention's scores.

The modulation block has the closed form params = 2(r+1)c^2 + k^2 c and
macs = h*w*params; the report checks every modulation block against it
exactly (verify_closed_form).
"""

from __future__ import annotations

import io
import itertools
import re
from dataclasses import dataclass

import numpy as np

from . import blocks as B
from .errors import ConfigError
from .model import HEADS, Model, ModelSpec, check_resolution, stage_resolutions, total_stride

# --------------------------------------------------------------- report


@dataclass
class LayerRow:
    name: str
    kind: str
    params_with_bias: int
    params_no_bias: int
    macs: int


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
    rows: list
    closed_form: list
    input_res: tuple  # (h, w)
    notes: dict

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


# ----------------------------------------------------------------- walk

# A parameter's layer is its name without the trailing weight/bias (or gain/shift) tag.
_LAYER_TAG = re.compile(r"\.(w|b)$")
# A walk group: one block ("stage2.block0") or one top-level layer ("stem", "down1", "head").
_GROUP = re.compile(r"stage\d+\.block\d+|[^.]+")
_SCOPE = re.compile(r"([a-z]+)(\d*)")


def _kind(shape: tuple) -> str:
    if len(shape) == 2:
        return "pointwise"
    return "dwconv" if shape[1] == 1 else "conv"


def _walk(model: Model, input_res: tuple) -> tuple:
    """(rows, closed-form rows): one row per layer of model.named_parameters().

    Every weight with 2 or more dims is used once per output position, so it
    costs out_area * size MACs; 1-D parameters add to the with-bias column only.
    """
    areas = [h * w for h, w in stage_resolutions(model, input_res)]
    entries = {
        f"stage{si}.block{bi}": entry
        for si, stage in enumerate(model.stages)
        for bi, entry in enumerate(stage)
    }
    rows: list[LayerRow] = []
    closed: list[ClosedFormRow] = []
    walk = itertools.groupby(model.named_parameters(), lambda item: _GROUP.match(item[0])[0])
    for group, params in walk:
        scope, index = _SCOPE.match(group).groups()
        # stem and stage S run at stage 0's and S's resolution, downN at stage N+1's
        if scope == "head":
            area = 1
        else:
            area = areas[0 if scope == "stem" else int(index) + (scope == "down")]
        layers: dict[str, LayerRow] = {}
        for name, v in params:
            layer = _LAYER_TAG.sub("", name)
            row = layers.setdefault(layer, LayerRow(layer, "affine", 0, 0, 0))
            row.params_with_bias += v.data.size
            if v.data.ndim >= 2:
                row.kind = _kind(v.data.shape)
                row.params_no_bias += v.data.size
                row.macs += area * v.data.size
        rows += layers.values()
        entry = entries.get(group)
        if entry is None:
            continue
        if entry.kind == "attention":
            c = entry.params.channels
            rows.append(LayerRow(f"{group}.scores", "matmul", 0, 0, 2 * area * area * c))
        elif entry.kind == "efficient_mod":
            closed.append(ClosedFormRow(group, *verify_closed_form(entry.params)))
    return rows, closed


def _notes(model: Model) -> dict:
    notes = {}
    spec = model.spec
    if isinstance(spec, ModelSpec):
        if any(st.attn_blocks for st in spec.stages):
            notes["attn_mlp_ratio (calibrated)"] = spec.attn_mlp_ratio
        notes["heads"] = HEADS
    return notes


def complexity_report(model: Model, input_res: tuple) -> ComplexityReport:
    """Per-layer params and MACs for a built model at an (h, w) input size."""
    check_resolution(total_stride(model), *input_res)
    rows, closed = _walk(model, input_res)
    return ComplexityReport(rows, closed, input_res, _notes(model))


def count_macs(model: Model, input_res: tuple) -> int:
    return complexity_report(model, input_res=input_res).total_macs


def closed_form_block_complexity(c: int, r: int, k: int, h: int, w: int) -> tuple:
    """(params, macs) of one modulation block, weights only (biases are 1-D and not counted).

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
    counted = sum(v.data.size for v in B.named_params(params).values() if v.data.ndim >= 2)
    formula, _ = closed_form_block_complexity(c, r, k, 1, 1)
    return counted, formula


# ---------------------------------------------------------- degree probe

MAX_PROBE_LAYERS = 12


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
    p = np.array([0, 1], dtype=object)  # x_0; object arrays keep exact Python-int coefficients
    degrees = [1]
    for _ in range(layers):
        nxt = np.convolve(p, p) * int(rng.integers(1, 10))
        nxt[: p.size] += p
        p = nxt
        degrees.append(int(np.flatnonzero(p)[-1]))
    return degrees

