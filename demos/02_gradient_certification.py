"""Finite-difference certification: single ops, then whole blocks.

Every VJP on the tape is checked against central differences; the block-level
driver sweeps three shapes per block kind at double precision.

Run: python3 demos/02_gradient_certification.py
"""

import numpy as np

from effmod import autodiff as ad
from effmod import blocks as B

rng = np.random.default_rng(0)

print("== op-level: conv2d with bias, 3x3 depthwise on (2, 3, 6, 6) ==")
from effmod.kernels import ConvSpec

x = ad.Var(rng.normal(size=(2, 3, 6, 6)))
w = ad.Var(rng.normal(size=(3, 1, 3, 3)))
b = ad.Var(rng.normal(size=(3,)))
rep = ad.grad_check(lambda: ad.conv2d(x, w, b, ConvSpec(3, groups=3)), {"x": x, "w": w, "b": b})
print(rep.to_text())

print()
print("== op-level: layer_norm over the channels of (2, 6, 2, 2) ==")
x = ad.Var(rng.normal(size=(2, 6, 2, 2)))
g = ad.Var(rng.normal(size=(6,)))
b = ad.Var(rng.normal(size=(6,)))
rep = ad.grad_check(lambda: ad.layer_norm(x, g, b), {"x": x, "g": g, "b": b})
print(rep.to_text())

print()
print("== block-level: every kind, three shapes each, tol 1e-5 ==")
for kind in B.BLOCK_KINDS:
    for case in range(B.GC_CASES):
        rep = B.block_grad_check(kind, case=case, tol=1e-5, seed=0)
        status = "PASS" if rep.passed else "FAIL"
        print(f"  {status} {kind:<14} case {case}: max rel err {rep.max_rel_err:.3e}")
