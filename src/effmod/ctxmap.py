"""Context-branch visualization.

Runs an image through the model up to one modulation block and captures that
block's context output (computed on its post-norm input), reduced to a
grayscale grid: channel mean, then min-max normalized to 0..255. A constant
map (e.g. zero input through a freshly built model, whose biases are all
zero) normalizes to all zeros.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import autodiff as ad
from . import model as M
from .blocks import efficient_mod_ctx
from .errors import ConfigError, PreconditionError
from .model import Model, _check_input, forward_features


@dataclass
class ContextMap:
    grid: np.ndarray  # [h, w] uint8
    raw_min: float
    raw_max: float


def check_image_size(h: int, w: int) -> None:
    """Refuse an h x w RGB image above MAX_ACTIVATIONS, from its size, before any copy."""
    if 3 * h * w > M.MAX_ACTIVATIONS:
        raise ConfigError(
            f"a {h}x{w} image exceeds MAX_ACTIVATIONS = {M.MAX_ACTIVATIONS:,} elements"
        )


def check_block(kinds: list, stage: int, block: int) -> None:
    """Refuse a stage and block that name no modulation block; kinds[s] lists stage s's kinds."""
    if not 0 <= stage < len(kinds):
        raise ConfigError(f"stage {stage} out of range (model has {len(kinds)})")
    mods = [i for i, kind in enumerate(kinds[stage]) if kind == "efficient_mod"]
    if block not in mods:
        raise ConfigError(
            f"stage {stage} block {block} is not a modulation block (candidates: {mods})"
        )


def context_map(model: Model, image: np.ndarray, stage: int, block: int) -> ContextMap:
    """Capture one block's context output for a single [3, h, w] or [1, 3, h, w] image."""
    got = np.shape(image)
    shape = (1, *got) if len(got) == 3 else got
    if len(shape) != 4 or shape[0] != 1 or shape[1] != 3:
        raise PreconditionError(f"context_map wants one RGB image, got shape {got}")
    check_image_size(*shape[2:])
    img = np.asarray(image, dtype=model.dtype).reshape(shape)
    check_block([[e.kind for e in entries] for entries in model.stages], stage, block)
    entries = model.stages[stage]
    _check_input(model, img)  # the whole model's stride, not the prefix's
    prefix = replace(
        model,
        stages=model.stages[:stage] + [entries[:block]],
        downs=model.downs[:stage],
    )
    convs, res = [model.stem, *prefix.downs], M.stage_resolutions(prefix, shape[2:])
    for s, (conv, blocks, (sh, sw)) in enumerate(zip(convs, prefix.stages, res)):
        dim, t = conv.w.data.shape[0], sh * sw  # the map; each attention's qkv, scores and MLP
        attn = [e.params for e in blocks if e.kind == "attention"]
        most = t * max([dim] + [max(3 * dim, p.heads * t, p.mlp1_w.data.shape[0]) for p in attn])
        if most > M.MAX_ACTIVATIONS:  # an xxs stage 2 at 2048x2048 would score 8.6 GB of f32
            raise ConfigError(f"stage {s}: {most:,} elements > MAX_ACTIVATIONS = {M.MAX_ACTIVATIONS:,}")
    wrap = entries[block].wrap
    with ad.no_grad():
        h = forward_features(prefix, img)
        normed = ad.layer_norm(h, wrap.norm_gamma, wrap.norm_beta)
        ctx = efficient_mod_ctx(normed, entries[block].params).data
    raw = ctx[0].mean(axis=0)  # channel mean -> [h, w]
    lo, hi = float(raw.min()), float(raw.max())
    if hi > lo:
        grid = np.round((raw - lo) / (hi - lo) * 255.0).astype(np.uint8)
    else:
        grid = np.zeros_like(raw, dtype=np.uint8)
    return ContextMap(grid=grid, raw_min=lo, raw_max=hi)
