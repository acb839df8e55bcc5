"""Numpy workbench for efficient modulation vision blocks.

Implements the context-and-modulate block and its relatives (gated large
kernels, focal-style context, inverted bottleneck, squeeze-excitation, plain
attention) with reverse-mode autodiff, complexity accounting against closed
forms, a deterministic latency harness, and a desk-scale trainer.
"""

from . import analyzer, autodiff, bench, blocks, kernels, model, trainer
from .analyzer import (
    ComplexityReport,
    closed_form_block_complexity,
    complexity_report,
    count_macs,
    count_params,
    degree_probe,
)
from .autodiff import GradCheckReport, Var, backward, finite_diff_grad, grad_check, no_grad
from .bench import BenchResult, PairBenchResult, bench_fusion_modes, bench_pair_mbconv
from .blocks import (
    AttentionParams,
    EfficientModParams,
    FocalParams,
    MBConvParams,
    ResidualWrap,
    SEParams,
    VANParams,
    attention_block,
    block_grad_check,
    efficient_mod,
    efficient_mod_ctx,
    focal_ctx,
    mbconv_block,
    patch_embed,
    residual_apply,
    se_block,
    van_block,
    van_ctx,
)
from .ctxmap import ContextMap, context_map
from .errors import ConfigError, NumericalError, PreconditionError
from .kernels import (
    ConvSpec,
    batched_matmul,
    conv2d,
    fuse_modulate,
    gelu,
    global_avg_pool,
    layer_norm,
    softmax,
)
from .model import (
    ISO_PAIRS,
    PRESETS,
    IsotropicSpec,
    Model,
    ModelSpec,
    StageSpec,
    build_iso_pair,
    build_isotropic,
    build_model,
    build_preset,
    forward_features,
    load_params,
    model_forward,
    save_params,
    spec_from_json,
    spec_to_json,
    stage_resolutions,
)
from .trainer import SyntheticDataset, TrainHistory, ablate_fusion, gen_dataset, train

__version__ = "0.1.0"
