"""Acceptance gate: one test per shipped guarantee, at its stated tolerance.

Run with `pytest -v tests/test_acceptance.py` to get one pass/fail line per
criterion; each test also prints a PASS summary with the measured numbers.
"""

import copy
import pathlib
import time

import numpy as np
import pytest

from effmod import analyzer as A
from effmod import autodiff as ad
from effmod import blocks as B
from effmod import kernels as K
from effmod import model as M
from effmod import trainer as T
from effmod.kernels import ConvSpec

from test_kernels import (
    conv2d_oracle,
    layer_norm_oracle,
    matmul_oracle,
    rel_err,
    softmax_oracle,
)

_MODELS: dict = {}


def _model(name):
    if name not in _MODELS:
        _MODELS[name] = M.build_model(M.build_preset(name), seed=0)
    return _MODELS[name]


def test_criterion_01_closed_form_parameter_identity():
    rng = np.random.default_rng(0)
    checked = 0
    for c in (8, 16, 64):
        for r in (1, 4, 6):
            for k in (3, 5, 7):
                p = B.init_efficient_mod(rng, c, expansion=r, kernel=k)
                counted, formula = A.verify_closed_form(p)
                assert counted == formula == 2 * (r + 1) * c * c + k * k * c, (c, r, k)
                checked += 1
    assert checked == 27
    print(f"PASS: criterion 1 - closed-form params exact on {checked} (C,r,k) blocks")


def test_criterion_02_preset_parameter_budgets():
    budgets = {"xxs": (4.7e6, 0.08), "xs": (6.6e6, 0.08), "s": (12.9e6, 0.08),
               "s_conv": (12.9e6, 0.03)}
    lines = []
    for name, (target, tol) in budgets.items():
        model = _model(name)
        rep = A.complexity_report(model, (224, 224))
        total = rep.total_params_with_bias
        gap = (total - target) / target
        assert abs(gap) <= tol, f"{name}: {total:,} vs {target:,.0f} ({gap:+.2%})"
        mlp = model.spec.attn_mlp_ratio
        calibrated = any(st.attn_blocks for st in model.spec.stages)
        if calibrated:
            assert "attn_mlp_ratio (calibrated)" in rep.notes
        lines.append(
            f"{name} {total:,} ({gap:+.2%} of {target / 1e6:.1f}M"
            + (f", mlp ratio {mlp}" if calibrated else "") + ")"
        )
    print("PASS: criterion 2 - preset params in budget: " + "; ".join(lines))


def test_criterion_03_preset_mac_budgets():
    budgets = {"xxs": 0.6e9, "xs": 0.8e9, "s": 1.4e9}
    lines = []
    for name, target in budgets.items():
        macs = A.count_macs(_model(name), input_res=(224, 224))
        gap = (macs - target) / target
        assert abs(gap) <= 0.10, f"{name}: {macs / 1e9:.4f}G vs {target / 1e9:.1f}G"
        lines.append(f"{name} {macs / 1e9:.4f}G ({gap:+.2%})")
    print("PASS: criterion 3 - 224^2 MACs within 10%: " + "; ".join(lines))


def test_criterion_04_fusion_bit_equivalence():
    rng = np.random.default_rng(12345)
    for trial in range(100):
        c = int(rng.integers(1, 5))
        r = int(rng.integers(1, 5))
        k = int(rng.choice([1, 3, 5]))
        n = int(rng.integers(1, 3))
        h, w = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        combine = str(rng.choice(["mul", "sum"]))
        params = B.init_efficient_mod(rng, c, expansion=r, kernel=k, std=0.5, dtype=np.float64)
        x = rng.normal(size=(n, c, h, w))
        weight = rng.normal(size=(n, c, h, w))
        grabs = {}
        for mode in ("repeat", "reshape"):
            p = copy.deepcopy(params)
            leaves = B.named_params(p)
            xv = ad.Var(x.copy())
            out = B.efficient_mod(xv, p, mode=mode, combine=combine)
            ad.backward(ad.sum_all(ad.mul(out, ad.Var(weight))))
            grabs[mode] = (
                out.data.tobytes(),
                xv.grad.tobytes(),
                {name: v.grad.tobytes() for name, v in leaves.items()},
            )
        assert grabs["repeat"] == grabs["reshape"], f"trial {trial} diverged"
    print("PASS: criterion 4 - repeat/reshape outputs and grads bit-identical, 100 configs")


def test_criterion_05_gradient_certification():
    worst = 0.0
    t0 = time.perf_counter()
    for kind in B.BLOCK_KINDS:
        for case in range(B.GC_CASES):
            rep = B.block_grad_check(kind, case=case, tol=1e-5, seed=0)
            assert rep.passed, f"{kind} case {case}:\n{rep.to_text()}"
            worst = max(worst, rep.max_rel_err)
    dt = time.perf_counter() - t0
    print(
        f"PASS: criterion 5 - {len(B.BLOCK_KINDS)} kinds x {B.GC_CASES} shapes "
        f"finite-difference certified, worst rel err {worst:.2e} (tol 1e-5, {dt:.1f}s)"
    )


def test_criterion_06_kernel_oracles_200_cases_each():
    rng = np.random.default_rng(777)
    t0 = time.perf_counter()

    worst_conv = 0.0
    for i in range(200):
        n = int(rng.integers(1, 3))
        c_in = int(rng.integers(1, 4))
        k = int(rng.choice([1, 3, 5]))
        dilation = (i % 3) + 1 if k > 1 else 1
        stride = int(rng.integers(1, 3))
        if i % 4 == 0:
            groups, c_out = c_in, c_in  # depthwise
        else:
            groups, c_out = 1, int(rng.integers(1, 4))
        h, w = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        x = rng.normal(size=(n, c_in, h, w))
        wt = rng.normal(size=(c_out, c_in // groups, k, k))
        b = rng.normal(size=(c_out,)) if rng.integers(0, 2) else np.zeros(c_out)
        spec = ConvSpec(k, stride=stride, dilation=dilation, groups=groups)
        got = K.conv2d(x, wt, b, spec)
        want = conv2d_oracle(x, wt, b, stride=stride, dilation=dilation,
                             groups=groups, pad=spec.pad)
        worst_conv = max(worst_conv, rel_err(got, want))
    assert worst_conv <= 1e-10

    worst_mm = 0.0
    for _ in range(200):
        batch = [(), (2,), (2, 3)][int(rng.integers(0, 3))]
        m, kk, n2 = (int(rng.integers(1, 5)) for _ in range(3))
        a = rng.normal(size=batch + (m, kk))
        b2 = rng.normal(size=batch + (kk, n2))
        worst_mm = max(worst_mm, rel_err(K.batched_matmul(a, b2), matmul_oracle(a, b2)))
    assert worst_mm <= 1e-10

    worst_sm = 0.0
    for _ in range(200):
        nd = int(rng.integers(1, 4))
        shape = tuple(int(rng.integers(1, 7)) for _ in range(nd))
        axis = int(rng.integers(-nd, nd))
        x = rng.normal(size=shape) * float(rng.choice([1.0, 10.0, 100.0]))
        worst_sm = max(worst_sm, rel_err(K.softmax(x, axis=axis), softmax_oracle(x, axis)))
    assert worst_sm <= 1e-10

    worst_ln = 0.0
    for _ in range(200):
        shape = tuple(int(rng.integers(1, 6)) for _ in range(4))  # NCHW, normalized over C
        c = shape[1]
        x = rng.normal(size=shape)
        gamma, beta = rng.normal(size=(c,)), rng.normal(size=(c,))
        got = K.layer_norm(x, gamma, beta)
        worst_ln = max(worst_ln, rel_err(got, layer_norm_oracle(x, gamma, beta)))
    assert worst_ln <= 1e-10

    dt = time.perf_counter() - t0
    print(
        f"PASS: criterion 6 - 200-case oracle sweeps: conv {worst_conv:.1e}, "
        f"matmul {worst_mm:.1e}, softmax {worst_sm:.1e}, layer_norm {worst_ln:.1e} "
        f"(tol 1e-10, {dt:.1f}s)"
    )


def test_criterion_07_degree_doubling():
    for l in range(11):
        assert A.degree_trajectory(l)[-1] == 2**l
    print("PASS: criterion 7 - exact polynomial degree equals 2^l for l = 0..10")


def test_criterion_08_architecture_ladder():
    model = _model("s")
    res = M.stage_resolutions(model, (224, 224))
    assert res == [(56, 56), (28, 28), (14, 14), (7, 7)]
    x = np.random.default_rng(0).normal(size=(1, 3, 224, 224)).astype(np.float32)
    with ad.no_grad():
        logits = M.model_forward(model, x).data
    assert logits.shape == (1, 1000)
    assert np.isfinite(logits).all()
    print(
        "PASS: criterion 8 - preset s at 224^2: stages 56/28/14/7, finite logits (1, 1000)"
    )


def test_criterion_09_isotropic_pairing():
    totals = {}
    for name, spec in M.ISO_SPECS.items():
        iso = M.build_isotropic(spec, seed=0)
        totals[name] = A.complexity_report(iso, (224, 224)).total_params_with_bias
    lines = []
    for pair, (a, b) in sorted(M.ISO_PAIRS.items()):
        ta, tb = totals[a], totals[b]
        gap = abs(ta - tb) / ((ta + tb) / 2)
        assert gap <= 0.02, f"{pair}: {ta:,} vs {tb:,} ({gap:.2%})"
        lines.append(f"{pair} {ta:,} vs {tb:,} ({gap:.2%})")
    eff196 = totals["iso-effmod-196-11"]
    gap196 = (eff196 - 6.4e6) / 6.4e6
    assert abs(gap196) <= 0.08
    print(
        "PASS: criterion 9 - iso pairs within 2%: " + "; ".join(lines)
        + f"; effmod(196,11) {eff196:,} ({gap196:+.2%} of 6.4M)"
    )


def test_criterion_10_desk_scale_training():
    t0 = time.perf_counter()
    _, hist = T.train_micro(seed=0, epochs=30)
    assert hist.best_eval_acc >= 0.90, f"best eval acc {hist.best_eval_acc:.3f}"
    reached = next(e.epoch for e in hist.epochs if e.eval_acc >= 0.90)

    _, h1 = T.train_micro(seed=0, epochs=5)
    _, h2 = T.train_micro(seed=0, epochs=5)
    assert h1.to_csv() == h2.to_csv(), "training is not bit-deterministic per seed"

    pair = T.ablate_fusion(seed=0, epochs=2, n=128)
    csv = T.paired_csv(pair)
    lines = csv.strip().split("\n")
    assert lines[0].startswith("epoch,mul_loss") and "sum_eval_acc" in lines[0]
    assert len(lines) == 3
    dt = time.perf_counter() - t0
    print(
        f"PASS: criterion 10 - micro reaches >= 90% eval by epoch {reached} "
        f"(best {hist.best_eval_acc:.3f}), bit-deterministic per seed, "
        f"mul/sum ablation paired csv complete ({dt:.1f}s)"
    )


def test_criterion_11_non_reproducibility_statement():
    readme = pathlib.Path(__file__).resolve().parent.parent / "README.md"
    assert readme.exists(), "README.md missing"
    text = readme.read_text()
    for needle in ("ImageNet", "distillation", "COCO", "ADE20K", "latency"):
        assert needle in text, f"README must address {needle}"
    assert "out of desk-scale reach" in text
    assert "ratios" in text
    print(
        "PASS: criterion 11 - README declares full-benchmark results out of reach; "
        "bench covers protocol and intra-machine ratios only"
    )
