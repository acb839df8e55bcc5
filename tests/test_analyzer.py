"""Complexity accounting: closed forms, MAC identities, degree probe."""

import numpy as np
import pytest

from effmod import analyzer as A
from effmod import blocks as B
from effmod import model as M
from effmod.errors import ConfigError

RNG = np.random.default_rng(21)


# ---------------------------------------------------------- closed form


def test_closed_form_minimal_block():
    params, macs = A.closed_form_block_complexity(1, 1, 1, 1, 1)
    assert params == 5
    assert macs == 5


def test_closed_form_64_6_7():
    params, macs = A.closed_form_block_complexity(64, 6, 7, 14, 14)
    assert params == 60_480
    assert macs == 11_854_080


def test_closed_form_rejects_nonpositive():
    with pytest.raises(ConfigError):
        A.closed_form_block_complexity(0, 1, 1, 1, 1)
    with pytest.raises(ConfigError):
        A.closed_form_block_complexity(4, 1, 3, 0, 5)


@pytest.mark.parametrize("c", [8, 16, 64])
@pytest.mark.parametrize("r", [1, 4, 6])
@pytest.mark.parametrize("k", [3, 5, 7])
def test_verify_closed_form_matches_built_blocks(c, r, k):
    p = B.init_efficient_mod(RNG, c, expansion=r, kernel=k)
    counted, formula = A.verify_closed_form(p)
    assert counted == formula == 2 * (r + 1) * c * c + k * k * c


# -------------------------------------------------------------- reports


def _report(name, res=(32, 32)):
    return A.complexity_report(M.build_model(M.build_preset(name), seed=0), input_res=res)


def test_report_totals_are_row_sums():
    rep = _report("micro")
    assert rep.total_params_with_bias == sum(r.params_with_bias for r in rep.rows)
    assert rep.total_params_no_bias == sum(r.params_no_bias for r in rep.rows)
    assert rep.total_macs == sum(r.macs for r in rep.rows)
    assert rep.total_params_no_bias <= rep.total_params_with_bias


def test_report_param_total_matches_model_minus_norm_scale():
    """Every parameter the model walks is accounted in the with-bias column."""
    m = M.build_model(M.build_preset("micro"), seed=0)
    rep = A.complexity_report(m, (32, 32))
    walked = sum(v.data.size for _, v in m.named_parameters())
    assert rep.total_params_with_bias == walked


def test_pointwise_macs_identity():
    """1x1 conv at h x w costs h*w*c_in*c_out multiplies."""
    spec = M.IsotropicSpec("efficient_mod", 8, 1, 1, dw_kernel=3, patch=4, head=4)
    m = M.build_isotropic(spec, seed=0)
    rep = A.complexity_report(m, input_res=(8, 8))  # 2x2 tokens after patchify
    pw = [r for r in rep.rows if r.kind == "pointwise" and r.name.startswith("stage")]
    assert [r.name.split(".")[-1] for r in pw] == ["f", "g", "v", "p"]
    for row in pw:
        assert row.macs == 2 * 2 * row.params_no_bias


def test_conv_guideline_macs_equal_area_times_params():
    """For conv-only models every row obeys macs == out_area * weight count."""
    for name in ("micro", "s_conv"):
        m = M.build_model(M.build_preset(name), seed=0)
        rep = A.complexity_report(m, input_res=(64, 64))
        res = M.stage_resolutions(m, (64, 64))
        areas = {"stem": res[0][0] * res[0][1], "head": 1}
        for si in range(4):
            areas[f"stage{si}"] = res[si][0] * res[si][1]
        for si in range(3):
            areas[f"down{si}"] = res[si + 1][0] * res[si + 1][1]
        weighted = [r for r in rep.rows if r.kind in ("conv", "pointwise", "dwconv")]
        assert {r.kind for r in weighted} == {"conv", "pointwise", "dwconv"}
        for row in weighted:
            scope = row.name.split(".")[0]
            assert row.macs == areas[scope] * row.params_no_bias, row.name
        for row in rep.rows:
            if row not in weighted:
                assert row.kind == "affine" and row.macs == row.params_no_bias == 0, row.name


def test_attention_rows_include_score_macs():
    """Each attention block carries a parameter-free 2*t^2*c score/value row."""
    m = M.build_model(M.build_preset("xxs"), seed=0)
    rep = A.complexity_report(m, input_res=(224, 224))
    res = M.stage_resolutions(m, (224, 224))
    score_rows = [r for r in rep.rows if r.name.endswith(".scores")]
    assert len(score_rows) == 3  # xxs: one in stage 2, two in stage 3
    for r in score_rows:
        si = int(r.name[5])
        t = res[si][0] * res[si][1]
        c = m.spec.stages[si].dim
        assert r.params_with_bias == 0
        assert r.macs == 2 * t * t * c
    # the block's four maps are pointwise rows that obey tokens * weight-count
    for s in score_rows:
        block = s.name.rsplit(".", 1)[0] + "."
        maps = [r for r in rep.rows if r.name.startswith(block) and r.kind == "pointwise"]
        assert [r.name[len(block):] for r in maps] == ["qkv", "proj", "mlp1", "mlp2"]
        for r in maps:
            si = int(r.name[5])
            t = res[si][0] * res[si][1]
            assert r.macs == t * r.params_no_bias, r.name


def test_stage_totals_nondecreasing_all_presets():
    for name in M.PRESETS:
        m = M.build_model(M.build_preset(name), seed=0)
        totals = [0] * 4
        for r in A.complexity_report(m, (224, 224)).rows:
            if r.name.startswith("stage"):
                totals[int(r.name[5])] += r.params_with_bias
        assert all(b >= a for a, b in zip(totals, totals[1:])), (name, totals)


def test_report_csv_shape():
    rep = _report("micro")
    lines = rep.to_csv().strip().split("\n")
    assert lines[0] == "name,kind,params_with_bias,params_no_bias,macs"
    assert lines[-1].startswith("TOTAL,")
    total = int(lines[-1].split(",")[2])
    assert total == rep.total_params_with_bias
    assert len(lines) == len(rep.rows) + 2
    for line in lines[1:]:
        assert len(line.split(",")) == 5


def test_report_text_mentions_budget_line():
    rep = _report("micro", res=(64, 64))
    text = rep.to_text()
    assert "GMACs" in text
    assert "TOTAL" in text
    assert "closed form" in text  # micro has modulation blocks to verify


def test_count_macs_scales_with_resolution():
    m = M.build_model(M.build_preset("micro"), seed=0)
    head = m.head.w.data.size  # classifier cost is resolution-independent
    m32 = A.count_macs(m, input_res=(32, 32))
    m64 = A.count_macs(m, input_res=(64, 64))
    assert m64 - head == 4 * (m32 - head)  # conv area quadruples


@pytest.mark.parametrize("name", [*M.PRESETS, *M.ISO_SPECS])
def test_a_layer_is_a_parameter_name_without_its_trailing_w_or_b(name):
    """Every parameter is a layer's .w or .b or a wrap's .layer_scale, and the analyzer's
    layers are exactly those names with a trailing .w or .b removed, in walk order."""
    if name in M.PRESETS:
        m = M.build_model(M.build_preset(name), seed=0)
    else:
        m = M.build_isotropic(M.ISO_SPECS[name], seed=0)
    names = [n for n, _ in m.named_parameters()]
    assert all(n.endswith((".w", ".b", ".layer_scale")) for n in names)
    side = M.total_stride(m)
    rows = A.complexity_report(m, (side, side)).rows
    layers = [r.name for r in rows if not r.name.endswith(".scores")]
    assert layers == list(dict.fromkeys(n[:-2] if n[-2:] in (".w", ".b") else n for n in names))


def test_closed_form_rows_exact_in_report():
    rep = _report("micro")
    assert rep.closed_form
    for row in rep.closed_form:
        assert row.counted == row.formula
        assert row.delta == 0


# --------------------------------------------------------- degree probe


def test_degree_trajectory_doubles():
    assert A.degree_trajectory(4) == [1, 2, 4, 8, 16]


@pytest.mark.parametrize("layers", range(11))
def test_degree_probe_power_of_two(layers):
    assert A.degree_trajectory(layers)[-1] == 2**layers


def test_degree_probe_seed_invariant():
    assert A.degree_trajectory(6, seed=0)[-1] == A.degree_trajectory(6, seed=123)[-1]


def test_degree_probe_bounds():
    with pytest.raises(ConfigError):
        A.degree_trajectory(-1)
    with pytest.raises(ConfigError):
        A.degree_trajectory(A.MAX_PROBE_LAYERS + 1)
    assert A.MAX_PROBE_LAYERS == 12  # running at the cap takes ~30s, skip it
