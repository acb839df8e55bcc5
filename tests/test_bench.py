"""Timing harness mechanics, kept fast: tiny iteration counts throughout."""

import contextlib
import dataclasses
import time
import types

import numpy as np
import pytest

from effmod import bench as bn
from effmod.errors import ConfigError, NumericalError


def test_sleep_callable_measured_in_range():
    res = bn.bench(lambda: time.sleep(0.002), label="sleep", warmup=1, iters=5, threads=1)
    assert 1.8 <= res.mean_ms <= 4.0
    assert res.iters == 5
    assert res.warmup == 1


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
    a = bn.stats_from_samples(samples)
    b = bn.stats_from_samples(sorted(samples))
    assert a.mean_ms == b.mean_ms
    assert a.p50_ms == b.p50_ms == 3.0
    assert a.p90_ms == b.p90_ms


def test_stats_empty_rejected():
    with pytest.raises(ConfigError):
        bn.stats_from_samples([])


def test_cv_and_instability_flag():
    steady = bn.stats_from_samples([1.0, 1.0, 1.0])
    assert steady.cv == 0.0 and not steady.unstable
    jumpy = bn.stats_from_samples([1.0, 10.0, 1.0, 10.0])
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


def test_pair_summary_reports_the_peak_ratio():
    results = {
        name: dataclasses.replace(bn.stats_from_samples([ms]), peak_alloc_mb=mb)
        for name, ms, mb in (("efficient_mod", 2.0, 1.5), ("mbconv", 4.0, 6.0))
    }
    text = bn.PairBenchResult("p", results, {}, 0.0).summary()
    assert "efficient_mod/mbconv mean-time ratio: 0.500" in text
    assert "efficient_mod/mbconv peak-alloc ratio: 0.250" in text


# -------------------------------------------------------- thread budget


def test_thread_budget_explicit_wins(monkeypatch):
    monkeypatch.setenv("EFFMOD_THREADS", "9")
    assert bn.thread_budget(2) == 2


def test_thread_budget_env(monkeypatch):
    """Unset, the budget is the CPUs the process may run on: a 3-CPU mask gives 3."""
    monkeypatch.delenv("EFFMOD_THREADS", raising=False)
    monkeypatch.setattr(bn.os, "sched_getaffinity", lambda pid: {0, 2, 5})
    assert bn.thread_budget() == 3
    assert bn.bench(lambda: 42, warmup=0, iters=2).threads == 3
    monkeypatch.setenv("EFFMOD_THREADS", "7")
    assert bn.thread_budget() == 7


def test_thread_budget_env_validation(monkeypatch):
    monkeypatch.setenv("EFFMOD_THREADS", "lots")
    with pytest.raises(ConfigError):
        bn.thread_budget()
    monkeypatch.setenv("EFFMOD_THREADS", "0")
    with pytest.raises(ConfigError):
        bn.thread_budget()
    with pytest.raises(ConfigError):
        bn.thread_budget(-2)


# ------------------------------------------------------------------ CSV


def test_bench_csv_layout():
    a = bn.stats_from_samples([1.0, 2.0], label="a", warmup=1, threads=2, shape=(1, 2))
    b = bn.stats_from_samples([3.0], label="b", warmup=0, threads=1)
    text = bn.bench_csv([a, b])
    lines = text.strip().split("\n")
    assert lines[0] == (
        "label,mean_ms,std_ms,p50_ms,p90_ms,cv,unstable,peak_alloc_mb,warmup,iters,threads,"
        "threads_enforced,shape"
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
    assert res.repeat.iters == 3 and res.reshape.iters == 3
    ratio = res.repeat_over_reshape
    assert np.isfinite(ratio) and ratio > 0
    assert res.repeat.output_hash == res.reshape.output_hash  # bit-equal routes
    assert "ratio" in res.summary()
