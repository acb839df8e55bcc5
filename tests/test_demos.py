"""Demo scripts and the README's code run end to end."""

import os
import re
import subprocess
import sys
from pathlib import Path

from effmod import model as M
from effmod.pnm import read_pnm

ROOT = Path(__file__).resolve().parent.parent


def _run_demo(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done


def test_blocks_tour_demo_runs():
    done = _run_demo("01_blocks_tour.py")
    assert "impulse response support radius = 11 " in done.stdout


def test_gradient_certification_demo_runs():
    done = _run_demo("02_gradient_certification.py")
    blocks = [line for line in done.stdout.splitlines() if " case " in line]
    assert len(blocks) == 8 * 3 and all(line.startswith("  PASS ") for line in blocks)


def test_desk_training_demo_runs():
    done = _run_demo("05_desk_training.py", "1")
    assert "csv bytes equal: True" in done.stdout


def test_complexity_accounting_demo_runs():
    done = _run_demo("03_complexity_accounting.py")
    closed = [line for line in done.stdout.splitlines() if "formula" in line and "exact=" in line]
    assert len(closed) == 3
    assert all(line.rstrip().endswith("exact=True") for line in closed), closed
    assert "max |counted - formula| = 0" in done.stdout


def test_fusion_bench_demo_runs():
    done = _run_demo("04_fusion_bench.py", "3")
    assert "fusion: routes bit-identical" in done.stdout
    assert "repeat/reshape peak-alloc ratio: " in done.stdout
    assert "output hashes match: True" in done.stdout


def test_context_maps_demo_runs(tmp_path):
    done = _run_demo("06_context_maps.py", str(tmp_path))
    trained = r"^trained micro: 2 epochs on 128 bars, eval acc (\d\.\d{3})$"
    acc = re.search(trained, done.stdout, re.M)
    assert acc and float(acc[1]) >= 0.9
    assert "  stage 2 block 0: context 4x4" in done.stdout
    for stage, side in enumerate((16, 8, 4)):  # a 64x64 input at strides 4, 8 and 16
        assert read_pnm(str(tmp_path / f"ctxmap_stage{stage}.pgm")).shape == (side, side)


def _readme_block(lang):
    """The README's one fenced block of this language, so a rename cannot leave it stale."""
    blocks = re.findall(rf"^```{lang}\n(.*?)^```$", (ROOT / "README.md").read_text(), re.M | re.S)
    assert len(blocks) == 1, lang
    return blocks[0]


def test_readme_library_example_runs():
    exec(compile(_readme_block("python"), "README.md", "exec"), {})


def test_readme_spec_file_builds():
    model = M.build_model(M.spec_from_json(_readme_block("json")), seed=0)
    assert [len(stage) for stage in model.stages] == [2, 2, 7, 4]
