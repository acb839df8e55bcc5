"""Typed refusals that no other test reaches: each bad input raises its own error type, with a
message that names what is wrong."""

import dataclasses
import os
import re

import numpy as np
import pytest

from effmod import autodiff as ad
from effmod import blocks as B
from effmod import kernels as K
from effmod import model as M
from effmod.ctxmap import context_map
from effmod.errors import ConfigError, PreconditionError
from effmod.pnm import write_pgm

RNG = np.random.default_rng(0)
X, W, BIAS = np.zeros((1, 2, 4, 4)), np.zeros((2, 2, 3, 3)), np.zeros(2)
NARROW = np.zeros((1, 2, 8, 4))
MICRO = M.build_preset("micro")


def _stage0(**fields) -> M.ModelSpec:
    """micro with its first stage's fields replaced."""
    first = dataclasses.replace(MICRO.stages[0], **fields)
    return dataclasses.replace(MICRO, stages=(first, *MICRO.stages[1:]))


REFUSALS = {
    "check_nchw-int-dtype": (
        PreconditionError, "dtype must be float32/float64",
        lambda: K.check_nchw(np.zeros((1, 1, 2, 2), np.int64)),
    ),
    "check_nchw-zero-dim": (
        PreconditionError, "all dims must be positive",
        lambda: K.check_nchw(np.zeros((1, 0, 2, 2))),
    ),
    "ConvSpec-kernel-0": (
        ConfigError, "ConvSpec.kernel must be a positive int",
        lambda: K.ConvSpec(0),
    ),
    "ConvSpec-padding--1": (
        ConfigError, "ConvSpec.padding must be a non-negative int",
        lambda: K.ConvSpec(3, padding=-1),
    ),
    "conv2d-3d-weight": (
        PreconditionError, "w: expected 4-D",
        lambda: K.conv2d(X, W[0], BIAS, K.ConvSpec(3)),
    ),
    "conv2d-input-too-narrow": (
        PreconditionError, "x: width 4 too small",
        lambda: K.conv2d(NARROW, np.zeros((2, 2, 5, 5)), BIAS, K.ConvSpec(5, padding=0)),
    ),
    "conv2d-bias-shape": (
        PreconditionError, "b: want shape (2,) dtype float64, got (3,)",
        lambda: K.conv2d(X, W, np.zeros(3), K.ConvSpec(3)),
    ),
    "conv2d_vjp-grad_out-shape": (
        PreconditionError, "grad_out: expected (1, 2, 4, 4)",
        lambda: K.conv2d_vjp(X, W, K.ConvSpec(3), np.zeros((1, 2, 3, 3))),
    ),
    "pointwise-bias-shape": (
        PreconditionError, "b: want shape (2,) dtype float64, got (3,)",
        lambda: K.pointwise(X, W[:, :, 0, 0], np.zeros(3)),
    ),
    "fuse_modulate-batch": (
        PreconditionError, "v: batch dim 2 != ctx batch 1",
        lambda: K.fuse_modulate(X, np.zeros((2, 2, 4, 4))),
    ),
    "fuse_modulate-combine-max": (
        ConfigError, "combine must be 'mul' or 'sum', got 'max'",
        lambda: K.fuse_modulate(X, X, combine="max"),
    ),
    "init_mbconv-expansion-0": (
        ConfigError, "expansion must be >= 1, got 0",
        lambda: B.init_mbconv(RNG, 4, expansion=0),
    ),
    "init_mbconv-kernel-2": (
        ConfigError, "kernel must be odd and positive, got 2",
        lambda: B.init_mbconv(RNG, 4, kernel=2),
    ),
    "init_attention-empty-hidden": (
        ConfigError, "gives empty hidden layer",
        lambda: B.init_attention(RNG, 8, mlp_ratio=0.01),
    ),
    "residual_apply-branch-shape": (
        PreconditionError, "residual branch shape (1, 2, 2, 2) != input shape (1, 2, 4, 4)",
        lambda: B.residual_apply(
            ad.Var(X), lambda h: ad.Var(X[:, :, :2, :2]), B.init_residual_wrap(2, dtype=X.dtype)
        ),
    ),
    "block_grad_check-unknown-kind": (
        ConfigError, "unknown block kind 'conv'",
        lambda: B.block_grad_check("conv"),
    ),
    "block_grad_check-case-5": (
        ConfigError, f"case must be in 0..{B.GC_CASES - 1}, got 5",
        lambda: B.block_grad_check("efficient_mod", case=5),
    ),
    "ModelSpec-stage-dim-0": (
        ConfigError, "stage 0: dim must be positive, got 0",
        lambda: _stage0(dim=0).validate(),
    ),
    "ModelSpec-negative-block-count": (
        ConfigError, "stage 0: block counts must be >= 0",
        lambda: _stage0(mod_blocks=-1).validate(),
    ),
    "ModelSpec-attn_mlp_ratio-0": (
        ConfigError, "attn_mlp_ratio must be positive, got 0",
        lambda: dataclasses.replace(MICRO, attn_mlp_ratio=0).validate(),
    ),
    "cross_entropy-1d-logits": (
        PreconditionError, "logits: expected [n, classes], got (4,)",
        lambda: ad.cross_entropy(ad.Var(np.zeros(4)), np.zeros(4, np.int64)),
    ),
    "context_map-batch-2": (
        PreconditionError, "context_map wants one RGB image, got shape (2, 3, 32, 32)",
        lambda: context_map(M.build_model(MICRO), np.zeros((2, 3, 32, 32)), 0, 0),
    ),
    "write_pgm-3d-grid": (
        ConfigError, "PGM output must be 2-D, got (2, 2, 3)",
        lambda: write_pgm(os.devnull, np.zeros((2, 2, 3), np.uint8)),
    ),
}


@pytest.mark.parametrize("error, fragment, call", REFUSALS.values(), ids=REFUSALS.keys())
def test_a_bad_input_raises_its_typed_error(error, fragment, call):
    with pytest.raises(error, match=re.escape(fragment)):
        call()
