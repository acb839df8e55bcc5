"""Command-line surface: exit codes, stderr categories, file outputs."""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from effmod import cli
from effmod.errors import ConfigError
from effmod import model as M
from effmod.blocks import BLOCK_KINDS, GC_CASES
from effmod.ctxmap import context_map
from effmod.pnm import read_pnm, write_pgm
from test_model import spec_json


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ----------------------------------------------------------- exit codes


def test_no_args_is_usage_error(capsys):
    code, _, err = run([], capsys)
    assert code == 2


def test_unknown_flag_is_usage_error(capsys):
    code, _, _ = run(["presets", "--frobnicate"], capsys)
    assert code == 2


def test_unknown_model_is_config_error(capsys):
    code, _, err = run(["analyze", "nosuchpreset"], capsys)
    assert code == 3
    assert err.startswith("error: config:")


def test_malformed_spec_file_is_config_error(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text('{"stem": {')
    code, _, err = run(["analyze", str(bad)], capsys)
    assert code == 3
    assert err.startswith("error: config:")
    assert "line" in err


def test_spec_files_past_python_limits_are_config_errors(tmp_path, capsys):
    doc = json.loads(spec_json(M.build_preset("micro")))
    for name, data in (
        ("deep", b"[" * 100_000),
        ("long_int", b'{"head": ' + b"1" * 5000 + b"}"),
        ("big_float", json.dumps(dict(doc, drop_path_rate=10**400)).encode()),
        ("not_utf8", b'{"head": "\xff"}'),
    ):
        path = tmp_path / f"{name}.json"
        path.write_bytes(data)
        code, out, err = run(["analyze", str(path)], capsys)
        assert code == 3, name
        assert out == ""
        assert err.startswith("error: config:") and err.count("\n") == 1, err


def test_missing_image_is_config_error(tmp_path, capsys):
    code, _, err = run(
        ["ctxmap", "micro", str(tmp_path / "nope.ppm"), "--stage", "0"], capsys
    )
    assert code == 3
    assert err.startswith("error:")


def test_impossible_tolerance_is_numerical_error(capsys):
    code, _, err = run(
        ["gradcheck", "efficient_mod", "--cases", "1", "--tol", "1e-300"], capsys
    )
    assert code == 4
    assert err.startswith("error: numerical:")


def test_analyze_rejects_sizes_the_model_rejects(capsys):
    for res in ("0", "33", "48"):
        code, out, err = run(["analyze", "micro", "--res", res], capsys)
        assert code == 3
        assert out == ""
        assert err.startswith("error: config:") and err.count("\n") == 1
        assert "total stride 32" in err


def test_gradcheck_cases_out_of_range_runs_nothing(capsys):
    for cases in ("0", str(GC_CASES + 1), "9", "-1"):
        code, out, err = run(["gradcheck", "efficient_mod", "--cases", cases], capsys)
        assert code == 3
        assert "PASS" not in out and "FAIL" not in out
        assert err.startswith("error: config:") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [["analyze", "micro"], ["gradcheck", "efficient_mod"], ["bench", "fusion"]]
    + [["bench", f"pair-{pair}"] for pair in M.ISO_PAIRS]
    + [["train"], ["ablate-fusion"], ["ctxmap", "micro", "in.ppm"], ["degree-probe"]],
    ids=lambda argv: "-".join(argv[:2]),
)
def test_negative_seed_is_usage_error(argv, capsys):
    code, out, err = run(argv + ["--seed", "-1"], capsys)
    assert code == 2 and out == ""
    assert "seed must be >= 0" in err


@pytest.mark.parametrize(
    "flag, value",
    [("--lr", "nan"), ("--lr", "inf"), ("--lr", "-1"), ("--wd", "nan"), ("--wd", "-0.1"),
     ("--noise", "nan"), ("--noise", "-1")],
)
def test_train_rejects_non_finite_or_negative_rates(flag, value, capsys):
    code, out, err = run(["train", "--epochs", "1", "--n", "8", flag, value], capsys)
    assert code == 3
    assert "loss" not in out
    assert err.startswith("error: config:") and err.count("\n") == 1
    assert {"--lr": "lr", "--wd": "weight_decay", "--noise": "noise"}[flag] in err


def test_train_with_a_finite_but_huge_lr_is_numerical_error(capsys):
    """The last step breaks the parameters; the loss check runs before it, the eval check after."""
    code, out, err = run(["train", "--epochs", "1", "--n", "8", "--lr", "1e308"], capsys)
    assert code == 4
    assert "final eval acc" not in out
    assert err.startswith("error: numerical:") and err.count("\n") == 1
    assert "epoch 0" in err and "lr 1.000e+308" in err


def test_train_n_above_the_activation_budget_is_config_error_without_allocating(capsys):
    tracemalloc.start()
    try:
        code, out, err = run(["train", "--n", "1000000000000", "--epochs", "1"], capsys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert code == 3
    assert "loss" not in out
    assert err.startswith("error: config:") and err.count("\n") == 1
    assert "n=1000000000000" in err and f"{M.MAX_ACTIVATIONS:,}" in err


@pytest.mark.parametrize("tol", ["nan", "-1", "0", "inf"])
def test_gradcheck_rejects_a_tolerance_that_is_not_positive_and_finite(tol, capsys):
    code, out, err = run(["gradcheck", "efficient_mod", "--cases", "1", "--tol", tol], capsys)
    assert code == 3
    assert "PASS" not in out and "FAIL" not in out
    assert err.startswith("error: config: tol") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [["fusion", "--res", "-1"], ["fusion", "--channels", "-8"], ["pair-iso-196-11", "--res", "-14"]],
)
def test_bench_rejects_sizes_below_one(argv, capsys):
    code, _, err = run(["bench"] + argv + ["--iters", "1", "--warmup", "0"], capsys)
    assert code == 3
    assert err.startswith("error: config:") and err.count("\n") == 1


@pytest.mark.parametrize(
    "flags",
    [["--iters", "0"], ["--warmup", "-1"], ["--threads", "0"], ["--res", "13"], ["--res", "0"],
     ["--res", "1400000"]],
)
def test_bench_pair_checks_its_flags_before_building(flags, monkeypatch, capsys):
    built = []
    monkeypatch.setattr(cli.bench, "build_isotropic", lambda *a, **k: built.append(a))
    code, out, err = run(["bench", "pair-iso-196-11", "--iters", "1"] + flags, capsys)
    assert code == 3 and built == []
    assert err.startswith("error: config:") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, named",
    [
        (["fusion", "--channels", "1000000000", "--res", "4"], "channels 1000000000"),
        (["fusion", "--channels", "8", "--res", "10000000"], "res 10000000"),
        (["fusion", "--expansion", "1000000000"], "expansion 1000000000"),
        (["pair-iso-196-11", "--res", "1400000"], "res 1400000"),
    ],
)
def test_bench_sizes_above_the_budgets_are_config_errors_without_allocating(argv, named, capsys):
    tracemalloc.start()
    try:
        code, out, err = run(["bench"] + argv + ["--iters", "1", "--warmup", "0"], capsys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert code == 3
    assert "mean" not in out
    assert err.startswith("error: config:") and err.count("\n") == 1
    assert named in err and ("MAX_WEIGHTS" in err or "MAX_ACTIVATIONS" in err)


# -------------------------------------------------------------- reports


def test_presets_lists_all(capsys):
    code, out, _ = run(["presets"], capsys)
    assert code == 0
    for name in ("xxs", "xs", "s", "s_conv", "micro"):
        assert name in out
    assert "attn_mlp_ratio" in out
    assert "iso-256-13" in out and "iso-196-11" in out


def test_analyze_micro_stdout_and_csv(tmp_path, capsys):
    csv_path = tmp_path / "rep.csv"
    code, out, _ = run(
        ["analyze", "micro", "--res", "64", "--seed", "5", "--csv", str(csv_path)], capsys
    )
    assert code == 0
    assert "seed 5" in out
    assert "TOTAL" in out
    lines = csv_path.read_text().strip().split("\n")
    assert lines[0].startswith("name,kind,")
    assert lines[-1].startswith("TOTAL,")


def test_analyze_accepts_json_spec(tmp_path, capsys):
    spec_path = tmp_path / "m.json"
    spec_path.write_text(spec_json(M.build_preset("micro")))
    code, out, _ = run(["analyze", str(spec_path), "--res", "32"], capsys)
    assert code == 0
    assert "TOTAL" in out


def test_gradcheck_single_kind(capsys):
    code, out, _ = run(["gradcheck", "efficient_mod", "--cases", "1"], capsys)
    assert code == 0
    assert "PASS efficient_mod case 0" in out
    assert "seed" in out


def test_degree_probe_output(capsys):
    code, out, _ = run(["degree-probe", "--layers", "5"], capsys)
    assert code == 0
    for l in range(6):
        assert f"expected {2**l:>6}" in out
    assert "MISMATCH" not in out


def test_bench_fusion_small(tmp_path, capsys):
    csv_path = tmp_path / "bench.csv"
    code, out, _ = run(
        [
            "bench", "fusion", "--channels", "8", "--expansion", "2", "--res", "4",
            "--warmup", "1", "--iters", "3", "--threads", "1", "--csv", str(csv_path),
        ],
        capsys,
    )
    assert code == 0
    assert "fusion-repeat" in out and "fusion-reshape" in out
    assert "ratio" in out
    lines = csv_path.read_text().strip().split("\n")
    assert lines[0].startswith("label,mean_ms")
    assert len(lines) == 3


def test_bench_pair_keeps_requested_res(tmp_path, capsys):
    csv_path = tmp_path / "pair.csv"
    code, _, _ = run(
        [
            "bench", "pair-iso-196-11", "--res", "14", "--iters", "1", "--warmup", "0",
            "--threads", "1", "--csv", str(csv_path),
        ],
        capsys,
    )
    assert code == 0
    rows = csv_path.read_text().strip().split("\n")[1:]
    assert len(rows) == 2
    assert all(r.endswith(",1x3x14x14") for r in rows)


# ------------------------------------------------------------- training


def test_train_writes_history(tmp_path, capsys):
    csv_path = tmp_path / "hist.csv"
    code, out, _ = run(
        ["train", "--epochs", "1", "--n", "64", "--seed", "0", "--csv", str(csv_path)], capsys
    )
    assert code == 0
    assert "seed 0" in out
    assert "final eval acc" in out
    assert "epoch,train_loss,train_acc,eval_acc" in csv_path.read_text()
    code, _, err = run(["train", "--save", str(tmp_path / "m.efmod")], capsys)
    assert code == 2 and "--save" in err  # no parameter file is written


def test_ablate_fusion_writes_paired_csv(tmp_path, capsys):
    csv_path = tmp_path / "pair.csv"
    code, out, _ = run(
        ["ablate-fusion", "--epochs", "1", "--csv", str(csv_path)], capsys
    )
    assert code == 0
    assert "mul" in out and "sum" in out
    lines = csv_path.read_text().strip().split("\n")
    assert lines[0].startswith("epoch,mul_loss")
    assert len(lines) == 2


# --------------------------------------------------------------- ctxmap


def _write_ppm(path, h, w, seed=0):
    rng = np.random.default_rng(seed)
    pixels = rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8)
    with open(path, "wb") as f:
        f.write(f"P6\n{w} {h}\n255\n".encode())
        f.write(pixels.tobytes())
    return pixels


def test_ctxmap_end_to_end(tmp_path, capsys):
    img_path = tmp_path / "in.ppm"
    out_path = tmp_path / "ctx.pgm"
    _write_ppm(img_path, 64, 64)
    code, out, _ = run(
        [
            "ctxmap", "micro", str(img_path), "--stage", "1", "--block", "0",
            "--out", str(out_path),
        ],
        capsys,
    )
    assert code == 0
    assert "stage 1 block 0" in out
    grid = read_pnm(str(out_path))
    # micro stem /4 then one downsample /2: 64 -> 8 at stage 1
    assert grid.shape == (8, 8)
    assert grid.dtype == np.uint8


def test_ctxmap_rejects_an_image_without_pixels(tmp_path, capsys):
    img_path = tmp_path / "neg.pgm"
    img_path.write_bytes(b"P5 -1 -1 255\n" + bytes(4))
    code, _, err = run(["ctxmap", "micro", str(img_path), "--stage", "0"], capsys)
    assert code == 3
    assert err.startswith("error: config:")
    assert err.count("\n") == 1


def test_ctxmap_checks_the_image_against_the_activation_budget(tmp_path, monkeypatch, capsys):
    img_path = tmp_path / "in.ppm"
    _write_ppm(img_path, 32, 32)
    argv = ["ctxmap", "micro", str(img_path), "--stage", "0", "--out", str(tmp_path / "c.pgm")]
    monkeypatch.setattr(M, "MAX_ACTIVATIONS", 3 * 32 * 32)
    assert run(argv, capsys)[0] == 0
    monkeypatch.setattr(M, "MAX_ACTIVATIONS", 3 * 32 * 32 - 1)
    code, out, err = run(argv, capsys)
    assert code == 3 and out == ""
    assert err == "error: config: a 32x32 image exceeds MAX_ACTIVATIONS = 3,071 elements\n"


def test_ctxmap_refuses_a_large_grey_image_before_converting_it(tmp_path, monkeypatch, capsys):
    img_path = tmp_path / "big.pgm"
    write_pgm(str(img_path), np.zeros((512, 512), dtype=np.uint8))
    monkeypatch.setattr(M, "MAX_ACTIVATIONS", 3 * 512 * 512 - 1)
    tracemalloc.start()
    try:
        argv = ["ctxmap", "micro", str(img_path), "--out", str(tmp_path / "c.pgm")]
        code, out, err = run(argv, capsys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3 and out == ""
    assert err.startswith("error: config: a 512x512 image exceeds MAX_ACTIVATIONS")
    assert peak < 1 << 20  # the 0.26 MB file, but no three-channel float copy of it


def test_ctxmap_rejects_non_mod_block(tmp_path, capsys):
    img_path = tmp_path / "in.ppm"
    _write_ppm(img_path, 32, 32)
    code, _, err = run(
        ["ctxmap", "micro", str(img_path), "--stage", "0", "--block", "7"], capsys
    )
    assert code == 3
    assert "error: config:" in err


@pytest.mark.parametrize("flag, value, message", [
    ("--stage", "9", "stage 9 out of range (model has 4)"),
    ("--block", "99",
     "stage 2 block 99 is not a modulation block (candidates: [0, 1, 2, 3, 4, 5, 6, 7])"),
], ids=["stage", "block"])
def test_ctxmap_refuses_a_bad_stage_or_block_before_building_the_model(
    tmp_path, monkeypatch, capsys, flag, value, message
):
    img_path = tmp_path / "in.ppm"
    _write_ppm(img_path, 64, 64)
    built = []
    monkeypatch.setattr(M, "build_model", lambda *a, **kw: built.append(a))
    tracemalloc.start()
    try:
        code, out, err = run(["ctxmap", "s", str(img_path), flag, value], capsys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3 and out == "" and not built
    assert err == f"error: config: {message}\n"
    assert peak < 1 << 20  # the 12.9 M-weight s preset is never built


@pytest.mark.parametrize("stage, block", [(4, 0), (-1, 0), (3, 1), (0, -1)])
def test_ctxmap_and_context_map_refuse_a_stage_and_block_alike(tmp_path, capsys, stage, block):
    img_path = tmp_path / "in.ppm"
    pixels = _write_ppm(img_path, 32, 32)
    argv = ["ctxmap", "micro", str(img_path), "--stage", str(stage), "--block", str(block)]
    code, _, err = run(argv, capsys)
    assert code == 3
    model = M.build_model(M.build_preset("micro"), seed=0)
    img = (pixels.astype(np.float32) / 255.0).transpose(2, 0, 1)
    with pytest.raises(ConfigError) as refused:
        context_map(model, img, stage, block)
    assert err == f"error: config: {refused.value}\n"


# ------------------------------------------------------------------ pnm


def test_pnm_round_trip(tmp_path):
    grid = np.arange(12, dtype=np.uint8).reshape(3, 4) * 20
    path = tmp_path / "g.pgm"
    write_pgm(str(path), grid)
    back = read_pnm(str(path))
    assert np.array_equal(back, grid)


def test_pnm_reads_comments_and_scaling(tmp_path):
    path = tmp_path / "c.pgm"
    path.write_bytes(b"P5\n# a comment\n2 2\n63\n" + bytes([0, 21, 42, 63]))
    back = read_pnm(str(path))
    assert back.shape == (2, 2)
    assert back[1, 1] == 255  # maxval 63 rescaled to full range


@pytest.mark.parametrize("header", [b"P5 -1 -1 255\n", b"P5 0 4 255\n", b"P6 4 0 255\n"])
def test_pnm_rejects_a_width_or_height_below_one(tmp_path, header):
    path = tmp_path / "empty.pnm"
    path.write_bytes(header + bytes(12))
    with pytest.raises(ConfigError, match="width and height"):
        read_pnm(str(path))


@pytest.mark.parametrize("magic", ["P5", "P6"])
def test_read_pnm_decodes_the_raster_in_place(tmp_path, magic):
    path = tmp_path / "big.pnm"
    if magic == "P5":
        write_pgm(str(path), np.full((512, 512), 7, dtype=np.uint8))
    else:
        _write_ppm(path, 256, 256)
    size = path.stat().st_size
    tracemalloc.start()
    try:
        arr = read_pnm(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert arr.shape == ((512, 512) if magic == "P5" else (256, 256, 3))
    assert peak <= 1.1 * size  # the file's bytes once, no copy of its raster


@pytest.mark.parametrize("data, got", [
    (b"P5 2 2 255\n\x01\x02\x03", 3),
    (b"P5 2 2 255\n", 0),
    (b"P5 2 2 255", 0),  # the header ends at the last byte, without its separator
])
def test_read_pnm_reports_a_truncated_raster(tmp_path, data, got):
    path = tmp_path / "short.pgm"
    path.write_bytes(data)
    with pytest.raises(ConfigError, match=f"raster truncated, expected 4 bytes got {got}$"):
        read_pnm(str(path))


# any bytes, well-formed headers with small (also negative) numbers, and header-ish text
_PNM_BYTES = st.one_of(
    st.binary(max_size=64),
    st.builds(
        lambda magic, w, h, maxval, raster: b"%s %d %d %d\n" % (magic, w, h, maxval) + raster,
        st.sampled_from([b"P5", b"P6"]),
        st.integers(-2, 4),
        st.integers(-2, 4),
        st.integers(-1, 256),
        st.binary(max_size=64),
    ),
    st.tuples(
        st.sampled_from([b"P5", b"P6", b"P5\n", b"P6 "]),
        st.text("0123456789 -+_#\nx", max_size=24),
        st.binary(max_size=64),
    ).map(lambda t: t[0] + t[1].encode() + t[2]),
)


@given(_PNM_BYTES)
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_read_pnm_reads_or_raises_config_error(tmp_path, data):
    path = tmp_path / "fuzz.pnm"
    path.write_bytes(data)
    try:
        arr = read_pnm(str(path))
    except ConfigError:
        return
    assert arr.dtype == np.uint8
    assert arr.ndim in (2, 3) and min(arr.shape) >= 1


# ------------------------------------------------------------ CLI fuzz


def _flag(*ok):
    """A flag's value: half the time a cheap in-range one, else -1, 0, nan, inf or text."""
    return st.sampled_from([str(v) for v in ok]) | st.sampled_from(["-1", "0", "nan", "inf", "x"])


_SEED = st.sampled_from(["-1", "0", "7", str(2**64), "x"])
_OUT = st.sampled_from(["out.txt", "absent/out.txt"])
_SPEC = st.sampled_from(
    ["micro", "nosuch", "spec.json", "broken.json", "dim.json", "dw_kernel.json", "mlp.json",
     "absent.json"]
)

# (leading words, flags always given, optional flags). Every subcommand drawn takes --seed;
# the always-given flags bound the work, and presets is left out: it builds every preset.
# The huge sizes are safe to draw: the size budgets refuse them before anything is allocated.
_GRAMMAR = [
    ([st.just("analyze"), _SPEC], {"--res": _flag(32, 33, 64)}, {"--csv": _OUT}),
    (
        [st.just("gradcheck"), st.sampled_from(BLOCK_KINDS)],
        {"--cases": _flag(1, 4)},
        {"--tol": _flag(1e-5, 1e-300, "-inf")},
    ),
    (
        [st.just("bench"), st.just("fusion")],
        {"--channels": _flag(8, 10**9), "--res": _flag(4, 10**7), "--iters": _flag(1, 3),
         "--warmup": _flag(1)},
        {"--expansion": _flag(2, 10**9), "--threads": _flag(1, 2), "--csv": _OUT},
    ),
    (
        [st.just("bench"), st.sampled_from([f"pair-{pair}" for pair in M.ISO_PAIRS])],
        {"--res": _flag(14, 13, 1_400_000), "--iters": _flag(1), "--warmup": _flag(1)},
        {"--threads": _flag(1)},
    ),
    (
        [st.just("train")],
        {"--epochs": _flag(1), "--n": _flag(3, 8, 16, 10**12)},
        {"--lr": _flag(3e-3, "-inf"), "--wd": _flag(0.05), "--noise": _flag(0.05),
         "--csv": _OUT},
    ),
    ([st.just("ablate-fusion")], {"--epochs": _flag(1)}, {}),
    (
        [st.just("ctxmap"), _SPEC, st.sampled_from(["img.ppm", "odd.ppm", "absent.ppm"])],
        {},
        {"--stage": _flag(1, 3, 4), "--block": _flag(1), "--out": _OUT},
    ),
    ([st.just("degree-probe")], {"--layers": _flag(5, 10**9)}, {}),
]


@st.composite
def _argv(draw):
    words, always, optional = draw(st.sampled_from(_GRAMMAR))
    flags = {"--seed": _SEED, **always, **optional}
    extra = draw(st.permutations(sorted(optional)))[: draw(st.integers(0, len(optional)))]
    argv = [draw(w) for w in words]
    for flag in draw(st.permutations(["--seed", *always, *extra])):
        argv += [flag, draw(flags[flag])]
    return argv


def _write_cli_inputs():
    """Spec files and images in the working directory, for the names _GRAMMAR draws."""
    micro = json.loads(spec_json(M.build_preset("micro")))
    micro["stages"][3]["attn_blocks"] = 1  # so the MLP ratio sizes a block
    docs = {"spec.json": micro, "mlp.json": dict(micro, attn_mlp_ratio=1e307)}
    for key, value in (("dim", 10**400), ("dw_kernel", 100_001)):
        stages = [dict(micro["stages"][0], **{key: value})] + micro["stages"][1:]
        docs[f"{key}.json"] = dict(micro, stages=stages)
    for name, doc in docs.items():
        with open(name, "w") as f:
            json.dump(doc, f)
    with open("broken.json", "w") as f:
        f.write('{"stem": {')
    _write_ppm("img.ppm", 32, 32)
    _write_ppm("odd.ppm", 33, 32)


@given(argv=_argv())
@settings(
    max_examples=30, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
def test_cli_ends_in_an_exit_code_and_one_error_line(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    if not (tmp_path / "spec.json").exists():
        _write_cli_inputs()
    code, _, err = run(argv, capsys)
    assert code in (0, 2, 3, 4), argv
    if code in (3, 4):
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
