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

arrays = {
    "x": rng.normal(size=(2, 3, 6, 6)),
    "w": rng.normal(size=(3, 1, 3, 3)),
    "b": rng.normal(size=(3,)),
}
rep = ad.grad_check(
    lambda v: ad.conv2d(v["x"], v["w"], v["b"], ConvSpec(3, groups=3)), arrays
)
print(rep.to_text())

print()
print("== op-level: layer_norm over the channels of (2, 6, 2, 2) ==")
arrays = {
    "x": rng.normal(size=(2, 6, 2, 2)),
    "g": rng.normal(size=(6,)),
    "b": rng.normal(size=(6,)),
}
rep = ad.grad_check(lambda v: ad.layer_norm(v["x"], v["g"], v["b"]), arrays)
print(rep.to_text())

print()
print("== block-level: every kind, three shapes each, tol 1e-5 ==")
for kind in B.BLOCK_KINDS:
    for case in range(B.GC_CASES):
        rep = B.block_grad_check(kind, case=case, tol=1e-5, seed=0)
        status = "PASS" if rep.passed else "FAIL"
        print(f"  {status} {kind:<14} case {case}: max rel err {rep.max_rel_err:.3e}")
