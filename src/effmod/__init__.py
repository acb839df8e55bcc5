"""Numpy workbench for efficient modulation vision blocks.

Implements the context-and-modulate block and its relatives (gated large
kernels, focal-style context, inverted bottleneck, squeeze-excitation, plain
attention) with reverse-mode autodiff, complexity accounting against closed
forms, a deterministic latency harness, and a desk-scale trainer.
"""

from . import analyzer, autodiff, bench, blocks, ctxmap, kernels, model, trainer

__version__ = "0.1.0"
