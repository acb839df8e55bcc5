"""Parameter/MAC accounting: closed form, per-layer reports, degree probe.

Run: python3 demos/03_complexity_accounting.py
"""

import numpy as np

from effmod import analyzer as A
from effmod import blocks as B
from effmod import model as M

print("== closed form: params = 2(r+1)C^2 + k^2 C, MACs = H*W*params ==")
rng = np.random.default_rng(0)
for c, r, k in [(1, 1, 1), (64, 6, 7), (144, 6, 7)]:
    params, macs = A.closed_form_block_complexity(c, r, k, 14, 14)
    built = B.init_efficient_mod(rng, c, expansion=r, kernel=k)
    counted, formula = A.verify_closed_form(built)
    print(
        f"  C={c:<4} r={r} k={k}: formula {formula:>9,}  counted {counted:>9,}  "
        f"macs@14x14 {macs:>12,}  exact={counted == formula}"
    )

print()
print("== per-layer report: micro preset at 64x64 ==")
model = M.build_model(M.build_preset("micro"), seed=0)
print(A.complexity_report(model, input_res=(64, 64)).to_text())

print()
print("== preset budgets at 224x224 ==")
for name in ("xxs", "xs", "s", "s_conv"):
    m = M.build_model(M.build_preset(name), seed=0)
    rep = A.complexity_report(m, input_res=(224, 224))
    print(
        f"  {name:<7} {rep.total_params_with_bias / 1e6:7.3f}M params  "
        f"{rep.total_macs / 1e9:7.4f} GMACs"
    )

print()
print("== residual-square degree probe: x <- x + a*x^2 doubles the degree ==")
for l, deg in enumerate(A.degree_trajectory(10)):
    print(f"  level {l:2d}: degree {deg:>5} (2^{l} = {2**l})")
