"""Timing harness mechanics, kept fast: tiny iteration counts throughout."""

import contextlib
import dataclasses
import re
import time
import types

import numpy as np
import pytest

from effmod import bench as bn
from effmod import model as M
from effmod.autodiff import Var
from effmod.errors import ConfigError, NumericalError


def test_sleep_callable_measured_in_range():
    """A wall-clock ceiling would depend on the machine's load; only the floor holds."""
    res = bn.bench(lambda: time.sleep(0.002), label="sleep", warmup=1, iters=5, threads=1)
    assert 1.8 <= res.mean_ms
    assert res.iters == 5
    assert res.warmup == 1


def test_only_the_callable_sits_in_the_timed_window(monkeypatch):
    """A clock that only the callable advances, 2 ms per call: each sample is exactly one call."""
    clock = [0]

    def fn():
        clock[0] += 2_000_000

    monkeypatch.setattr(bn, "time", types.SimpleNamespace(perf_counter_ns=lambda: clock[0]))
    res = bn.bench(fn, warmup=3, iters=5, threads=1)
    assert res.samples_ms == [2.0] * 5


def test_single_iteration_result():
    res = bn.bench(lambda: None, warmup=10, iters=1, threads=1)
    assert res.iters == 1
    assert len(res.samples_ms) == 1
    assert res.std_ms == 0.0


def test_threads_recorded():
    res = bn.bench(lambda: None, warmup=0, iters=2, threads=3)
    assert res.threads == 3


def test_bench_rejects_bad_counts():
    with pytest.raises(ConfigError):
        bn.bench(lambda: None, warmup=-1, iters=5)
    with pytest.raises(ConfigError):
        bn.bench(lambda: None, warmup=0, iters=0)


def test_stats_order_independent():
    samples = [3.0, 1.0, 2.0, 5.0, 4.0]
    a = bn.BenchResult("a", samples)
    b = bn.BenchResult("b", sorted(samples))
    assert a.mean_ms == b.mean_ms
    assert a.p50_ms == b.p50_ms == 3.0
    assert a.p90_ms == b.p90_ms


def test_stats_empty_rejected():
    with pytest.raises(ConfigError):
        bn.BenchResult("empty", [])


def test_cv_and_instability_flag():
    steady = bn.BenchResult("steady", [1.0, 1.0, 1.0])
    assert steady.cv == 0.0 and not steady.unstable
    jumpy = bn.BenchResult("jumpy", [1.0, 10.0, 1.0, 10.0])
    assert jumpy.cv > 0.20 and jumpy.unstable
    assert "UNSTABLE" in jumpy.summary()


def test_nondeterministic_output_aborts():
    state = {"n": 0}

    def drifting():
        state["n"] += 1
        return np.full((3,), float(state["n"]))

    with pytest.raises(NumericalError, match="nondeterministic"):
        bn.bench(drifting, label="drift", warmup=0, iters=5, threads=1)


def test_deterministic_array_output_hashes_once():
    out = np.arange(6, dtype=np.float64)
    res = bn.bench(lambda: out, warmup=0, iters=3, threads=1)
    assert res.output_hash != ""


def test_non_array_output_skips_hashing():
    res = bn.bench(lambda: 42, warmup=0, iters=2, threads=1)
    assert res.output_hash == ""


def test_bench_records_the_peak_allocation_of_one_untimed_call():
    calls = []

    def alloc():
        calls.append(1)
        return np.ones(1 << 20)  # 8 MiB

    res = bn.bench(alloc, warmup=2, iters=3, threads=1)
    assert len(calls) == 2 + 1 + 3  # warmup, the untimed probe, the timed loop
    assert 8.3 <= res.peak_alloc_mb <= 8.5
    assert f"peak alloc {res.peak_alloc_mb:.3f} MB" in res.summary()
    assert bn.bench(lambda: None, warmup=0, iters=1, threads=1).peak_alloc_mb < 0.01


def test_bench_counts_the_minor_page_faults_of_the_timed_loop():
    """A fresh 64 MiB array is mapped, so faulted in, on every call; a no-op faults in nothing."""
    filled = bn.bench(lambda: np.ones(8 << 20), warmup=1, iters=2, threads=1)
    idle = bn.bench(lambda: None, warmup=1, iters=2, threads=1)
    assert filled.minor_faults > idle.minor_faults
    assert f", {filled.minor_faults:.1f} minor faults/iter" in filled.summary()
    assert bn.bench_csv([filled]).split("\n")[1].split(",")[8] == f"{filled.minor_faults:.2f}"


def test_pair_summary_reports_the_peak_ratio():
    results = {
        name: bn.BenchResult(name, [ms], peak_alloc_mb=mb)
        for name, ms, mb in (("efficient_mod", 2.0, 1.5), ("mbconv", 4.0, 6.0))
    }
    text = bn.PairBenchResult("p", results).summary()
    assert "efficient_mod/mbconv mean-time ratio: 0.500" in text
    assert "efficient_mod/mbconv peak-alloc ratio: 0.250" in text


# -------------------------------------------------------- thread budget


def test_thread_budget_explicit_wins(monkeypatch):
    monkeypatch.setattr(bn.os, "sched_getaffinity", lambda pid: set(range(9)))
    assert bn.thread_budget(2) == 2


def test_thread_budget_env(monkeypatch):
    """Unset, the budget is the CPUs the process may run on: a 3-CPU mask gives 3.
    No environment variable overrides it."""
    monkeypatch.setattr(bn.os, "sched_getaffinity", lambda pid: {0, 2, 5})
    assert bn.thread_budget() == 3
    assert bn.bench(lambda: 42, warmup=0, iters=2).threads == 3
    monkeypatch.setenv("EFFMOD_THREADS", "7")
    assert bn.thread_budget() == 3


def test_thread_budget_env_validation(monkeypatch):
    """Only an explicit budget is validated; the environment is not read."""
    monkeypatch.setenv("EFFMOD_THREADS", "lots")
    assert bn.thread_budget() >= 1
    for bad in (0, -2):
        with pytest.raises(ConfigError):
            bn.thread_budget(bad)


# ------------------------------------------------------------------ CSV


def test_bench_csv_layout():
    a = bn.BenchResult("a", [1.0, 2.0], warmup=1, threads=2, shape=(1, 2))
    b = bn.BenchResult("b", [3.0], warmup=0, threads=1)
    text = bn.bench_csv([a, b])
    lines = text.strip().split("\n")
    assert lines[0] == (
        "label,mean_ms,std_ms,p50_ms,p90_ms,cv,unstable,peak_alloc_mb,minor_faults,warmup,iters,"
        "threads,threads_enforced,shape"
    )
    assert lines[1].startswith("a,1.5")
    assert len(lines) == 3


@pytest.mark.parametrize("have_tpc", [False, True])
def test_thread_budget_enforcement_is_reported(monkeypatch, have_tpc):
    seen = []

    def threadpool_limits(limits):
        seen.append(limits)
        return contextlib.nullcontext()

    monkeypatch.setattr(bn, "_HAVE_TPC", have_tpc)
    fake = types.SimpleNamespace(threadpool_limits=threadpool_limits)
    monkeypatch.setattr(bn, "threadpoolctl", fake)
    res = bn.bench(lambda: None, warmup=0, iters=2, threads=3)
    assert res.threads_enforced is have_tpc
    assert seen == ([3] if have_tpc else [])
    assert ("3 threads enforced" in res.summary()) is have_tpc
    assert ("3 threads requested, not enforced" in res.summary()) is not have_tpc
    row = bn.bench_csv([res]).strip().split("\n")[1].split(",")
    assert row[-3:-1] == ["3", str(int(have_tpc))]


# -------------------------------------------------------------- fusion


def test_fusion_bench_small_block():
    res = bn.bench_fusion_modes(c=8, expansion=2, res=4, warmup=1, iters=3, threads=1)
    repeat, reshape = res.results["repeat"], res.results["reshape"]
    assert repeat.iters == 3 and reshape.iters == 3
    ratio = repeat.mean_ms / reshape.mean_ms
    assert np.isfinite(ratio) and ratio > 0
    assert repeat.output_hash == reshape.output_hash  # bit-equal routes
    lines = res.summary().split("\n")
    assert lines[0] == "fusion: routes bit-identical"
    assert lines[1].startswith("fusion-repeat: ") and lines[2].startswith("fusion-reshape: ")
    assert lines[3].startswith("repeat/reshape mean-time ratio: ")
    assert lines[4].startswith("repeat/reshape peak-alloc ratio: ")


def test_fusion_bench_refuses_routes_that_disagree(monkeypatch):
    real, timed = bn.efficient_mod, []
    off_by_mode = lambda x, p, mode: Var(real(x, p, mode=mode).data + (mode == "repeat"))
    monkeypatch.setattr(bn, "efficient_mod", off_by_mode)
    monkeypatch.setattr(bn, "bench", lambda *a, **k: timed.append(a))
    with pytest.raises(NumericalError, match="disagree bitwise"):
        bn.bench_fusion_modes(c=8, expansion=2, res=4, warmup=0, iters=1, threads=1)
    assert timed == []


def test_bench_result_stores_no_statistic_of_its_samples():
    stored = {f.name for f in dataclasses.fields(bn.BenchResult)}
    assert stored == {
        "label", "samples_ms", "warmup", "threads", "threads_enforced", "shape", "output_hash",
        "peak_alloc_mb", "minor_faults",
    }
    res = bn.BenchResult("r", [4.0, 1.0, 3.0, 2.0])
    assert (res.iters, res.mean_ms, res.p50_ms) == (4, 2.5, 2.5)
    assert res.p90_ms == pytest.approx(3.7) and res.std_ms == pytest.approx(1.25**0.5)


def test_pair_bench_keeps_its_summary_lines():
    res = bn.bench_pair_mbconv("iso-196-11", input_res=14, warmup=0, iters=1, threads=1)
    lines = res.summary().split("\n")
    assert list(res.results) == ["efficient_mod", "mbconv"]
    assert re.fullmatch(
        r"pair iso-196-11: params efficient_mod [\d,]+, mbconv [\d,]+ \(gap \d+\.\d\d%\)",
        lines[0],
    )
    assert lines[1].startswith("iso-196-11-efficient_mod: mean ")
    assert lines[2].startswith("iso-196-11-mbconv: mean ")
    assert lines[3].startswith("efficient_mod/mbconv mean-time ratio: ")
    assert lines[4].startswith("efficient_mod/mbconv peak-alloc ratio: ")
    assert len(lines) == 5


# -------------------------------------------------------- size budgets


class _Built(Exception):
    """Raised by a stand-in builder: the size checks let the run through."""


def _refuse_building(*args, **kwargs):
    raise _Built


@pytest.mark.parametrize(
    "budget, bound, kwargs",
    [
        ("MAX_WEIGHTS", 2 * 3 * 8 * 8 + 49 * 8, dict(c=8, expansion=2, res=4)),
        ("MAX_ACTIVATIONS", 2 * 8 * 4 * 4, dict(c=8, expansion=2, res=4)),
        ("MAX_ACTIVATIONS", 3 * 5 * 25 * 25, dict(c=5, expansion=3, res=25)),
    ],
)
def test_fusion_bench_budget_boundary(monkeypatch, budget, bound, kwargs):
    monkeypatch.setattr(bn, "init_efficient_mod", _refuse_building)
    monkeypatch.setattr(M, budget, bound)
    with pytest.raises(_Built):
        bn.bench_fusion_modes(**kwargs, warmup=0, iters=1, threads=1)
    monkeypatch.setattr(M, budget, bound - 1)
    with pytest.raises(ConfigError, match=f"above {budget} = {bound - 1:,}"):
        bn.bench_fusion_modes(**kwargs, warmup=0, iters=1, threads=1)


@pytest.mark.parametrize("flags", [dict(iters=0), dict(warmup=-1), dict(threads=0)])
def test_fusion_bench_checks_its_flags_before_building(monkeypatch, flags):
    monkeypatch.setattr(bn, "init_efficient_mod", _refuse_building)
    with pytest.raises(ConfigError):
        bn.bench_fusion_modes(**{"c": 8, "expansion": 2, "res": 4, "iters": 1, **flags})


@pytest.mark.parametrize("res, widest", [(14, 7 * 196 * 1), (28, 7 * 196 * 4)])
def test_pair_bench_budget_boundary(monkeypatch, res, widest):
    """iso-196-11's widest map is MBConv's 196*7 channels at (res/14)^2 tokens."""
    monkeypatch.setattr(bn, "build_isotropic", _refuse_building)
    monkeypatch.setattr(M, "MAX_ACTIVATIONS", widest)
    with pytest.raises(_Built):
        bn.bench_pair_mbconv("iso-196-11", input_res=res, warmup=0, iters=1, threads=1)
    monkeypatch.setattr(M, "MAX_ACTIVATIONS", widest - 1)
    with pytest.raises(ConfigError, match=f"{widest:,} elements"):
        bn.bench_pair_mbconv("iso-196-11", input_res=res, warmup=0, iters=1, threads=1)
