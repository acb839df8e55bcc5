"""Tour of the block zoo: one forward pass each, plus two structural identities.

Run: python3 demos/01_blocks_tour.py
"""

import numpy as np

from effmod import autodiff as ad
from effmod import blocks as B
from effmod import kernels as K

rng = np.random.default_rng(0)
x = ad.Var(rng.normal(size=(1, 16, 14, 14)))

print("== forward shapes on a (1, 16, 14, 14) input ==")
with ad.no_grad():
    mod = B.efficient_mod(x, B.init_efficient_mod(rng, 16, expansion=6, kernel=7, dtype=np.float64))
    van = B.van_block(x, B.init_van(rng, 16, dtype=np.float64))
    focal = B.focal_ctx(x, B.init_focal(rng, 16, kernels=(3, 5), dtype=np.float64))
    mb = B.mbconv_block(x, B.init_mbconv(rng, 16, expansion=6, kernel=3, dtype=np.float64))
    se = B.se_block(x, B.init_se(rng, 16, reduction=4, dtype=np.float64))
    att = B.attention_block(x, B.init_attention(rng, 16, heads=4, dtype=np.float64))
for name, out in [("efficient_mod", mod), ("van", van), ("focal ctx", focal),
                  ("mbconv", mb), ("squeeze-excite", se), ("attention", att)]:
    print(f"  {name:<14} -> {out.data.shape}")

print()
print("== degenerate modulation: r=1, identity projections, unit 1x1 depthwise ==")
c = 4
eye = lambda: ad.Var(np.eye(c))
ident = B.EfficientModParams(
    f_w=eye(), f_b=None, dw_w=ad.Var(np.ones((c, 1, 1, 1))), dw_b=None,
    g_w=eye(), g_b=None, v_w=eye(), v_b=None, p_w=eye(), p_b=None,
    kernel=1, expansion=1,
)
z = rng.normal(size=(1, c, 5, 5))
with ad.no_grad():
    got = B.efficient_mod(ad.Var(z), ident).data
print(f"  max |block(x) - gelu(x)*x| = {np.abs(got - K.gelu(z) * z).max():.2e}")

print()
print("== VAN context receptive field: 5x5 then 7x7 dilated by 3 ==")
p = B.init_van(rng, 2, bias=False, dtype=np.float64)
impulse = np.zeros((1, 2, 25, 25))
impulse[:, :, 12, 12] = 1.0
with ad.no_grad():
    ctx = B.van_ctx(ad.Var(impulse), p).data
support = np.abs(ctx).sum(axis=(0, 1)) > 0
ys, xs = np.nonzero(support)
radius = max(np.abs(ys - 12).max(), np.abs(xs - 12).max())
print(f"  impulse response support radius = {radius}  (expected (5-1)/2 + 3*(7-1)/2 = 11)")
