"""Latency measurement with a fixed protocol.

Protocol: batch 1, a warmup run whose samples are discarded, then per-iteration
wall times from a monotonic clock. Reported stats are computed from the stored
sample vector, so they are independent of arrival order. A coefficient of
variation above 20% flags the result as unstable. Benchmarked callables must
be bit-deterministic: every iteration's output is hashed and compared against
the first, and a mismatch aborts the run.

Thread budget: the explicit value, else the CPUs the process may run on. When
threadpoolctl is importable the budget is enforced for real by limiting the
BLAS pools around the timed region; otherwise it is recorded in the result
only. Each result says which (threads_enforced), in its summary and its CSV row.
"""

from __future__ import annotations

import hashlib
import os
import time
import tracemalloc
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from . import analyzer, model
from .autodiff import Var, no_grad
from .blocks import efficient_mod, init_efficient_mod
from .errors import ConfigError, NumericalError
from .model import ISO_PAIRS, ISO_SPECS, build_iso_pair, check_resolution, model_forward

DEFAULT_WARMUP = 50
DEFAULT_ITERS = 4000

try:
    import threadpoolctl

    _HAVE_TPC = True
except ImportError:  # recorded-only fallback
    threadpoolctl = None
    _HAVE_TPC = False


def thread_budget(threads: int | None = None) -> int:
    if threads is not None:
        if threads < 1:
            raise ConfigError(f"thread budget must be positive, got {threads}")
        return threads
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def _checked_budget(warmup: int, iters: int, threads: int | None) -> int:
    if warmup < 0 or iters < 1:
        raise ConfigError(f"need warmup >= 0 and iters >= 1, got {warmup}/{iters}")
    return thread_budget(threads)


@dataclass
class BenchResult:
    """One timed callable: its samples and the conditions they were taken under."""

    label: str
    samples_ms: list = field(repr=False)
    warmup: int = 0
    threads: int = 0
    threads_enforced: bool = False  # True only when threadpoolctl limited the BLAS pools
    shape: tuple | None = None
    output_hash: str = ""
    peak_alloc_mb: float = 0.0  # tracemalloc peak of one untimed call, after the warmup

    def __post_init__(self):
        if len(self.samples_ms) == 0:
            raise ConfigError("need at least one timed iteration")

    # every statistic is a view of the samples, so none can disagree with them
    iters = property(lambda self: len(self.samples_ms))
    mean_ms = property(lambda self: float(np.mean(self.samples_ms)))
    std_ms = property(lambda self: float(np.std(self.samples_ms)))
    p50_ms = property(lambda self: float(np.percentile(self.samples_ms, 50)))
    p90_ms = property(lambda self: float(np.percentile(self.samples_ms, 90)))
    cv = property(lambda self: self.std_ms / self.mean_ms if self.mean_ms > 0 else 0.0)
    unstable = property(lambda self: self.cv > 0.20)

    def summary(self) -> str:
        flag = "  UNSTABLE(cv>20%)" if self.unstable else ""
        return (
            f"{self.label}: mean {self.mean_ms:.4f} ms, std {self.std_ms:.4f}, "
            f"p50 {self.p50_ms:.4f}, p90 {self.p90_ms:.4f} "
            f"({self.iters} iters, {self.warmup} warmup, {self.threads} threads "
            f"{'enforced' if self.threads_enforced else 'requested, not enforced'}), "
            f"peak alloc {self.peak_alloc_mb:.3f} MB{flag}"
        )


@dataclass
class PairBenchResult:
    """One experiment: two members timed under one protocol, compared first over second."""

    label: str
    results: dict  # member name -> BenchResult, in ratio order
    note: str = ""  # the precondition the experiment checked before timing

    def summary(self) -> str:
        (na, a), (nb, b) = self.results.items()
        return "\n".join(
            [f"{self.label}: {self.note}" if self.note else self.label]
            + [r.summary() for r in self.results.values()]
            + [
                f"{na}/{nb} mean-time ratio: {a.mean_ms / b.mean_ms:.3f}",
                f"{na}/{nb} peak-alloc ratio: {a.peak_alloc_mb / b.peak_alloc_mb:.3f}",
            ]
        )


def _hash_output(out) -> str:
    if isinstance(out, np.ndarray):
        h = hashlib.blake2b(digest_size=16)
        h.update(str(out.dtype).encode())
        h.update(str(out.shape).encode())
        h.update(np.ascontiguousarray(out).tobytes())
        return h.hexdigest()
    return ""


def bench(
    fn,
    label: str = "",
    warmup: int = DEFAULT_WARMUP,
    iters: int = DEFAULT_ITERS,
    threads: int | None = None,
    shape: tuple | None = None,
) -> BenchResult:
    """Time fn() per iteration; hashes ndarray outputs to catch nondeterminism."""
    n_threads = _checked_budget(warmup, iters, threads)
    samples = np.empty(iters, dtype=np.float64)
    limit = threadpoolctl.threadpool_limits(limits=n_threads) if _HAVE_TPC else nullcontext()
    with limit:
        for _ in range(warmup):
            fn()
        tracemalloc.start()  # one untimed call: the hash reference and the memory peak
        try:
            out = fn()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        ref_hash = _hash_output(out)
        for i in range(iters):
            t0 = time.perf_counter_ns()
            out = fn()
            t1 = time.perf_counter_ns()
            samples[i] = (t1 - t0) / 1e6
            if ref_hash:
                h = _hash_output(out)
                if h != ref_hash:
                    raise NumericalError(
                        f"{label or 'bench'}: nondeterministic output at iteration {i} "
                        f"(hash {h[:12]} != {ref_hash[:12]})"
                    )
    return BenchResult(
        label, samples.tolist(), warmup, n_threads, threads_enforced=_HAVE_TPC, shape=shape,
        output_hash=ref_hash, peak_alloc_mb=peak / 1e6,
    )


# ----------------------------------------------------- fusion experiment


def bench_fusion_modes(
    c: int = 144,
    expansion: int = 6,
    res: int = 14,
    warmup: int = DEFAULT_WARMUP,
    iters: int = DEFAULT_ITERS,
    threads: int | None = None,
    seed: int = 0,
) -> PairBenchResult:
    """Time the materializing vs view-based fusion route on one block.

    Hard-fails unless the two routes produce bit-identical outputs first; the
    experiment is meaningless if they diverge. Sizes past the model's weight
    or activation budget are refused before anything is allocated.
    """
    if min(c, expansion, res) < 1:
        raise ConfigError(f"need channels, expansion and res >= 1, got {c}, {expansion} and {res}")
    _checked_budget(warmup, iters, threads)
    weights, _ = analyzer.closed_form_block_complexity(c, expansion, 7, 1, 1)
    if weights > model.MAX_WEIGHTS:
        raise ConfigError(
            f"channels {c} at expansion {expansion} give {weights:,} weights, "
            f"above MAX_WEIGHTS = {model.MAX_WEIGHTS:,}"
        )
    value_map = expansion * c * res * res
    if value_map > model.MAX_ACTIVATIONS:
        raise ConfigError(
            f"channels {c} at expansion {expansion} and res {res} give a {value_map:,}-element "
            f"value map, above MAX_ACTIVATIONS = {model.MAX_ACTIVATIONS:,}"
        )
    rng = np.random.default_rng(seed)
    params = init_efficient_mod(rng, c, expansion=expansion, kernel=7, dtype=np.float32)
    x = rng.standard_normal((1, c, res, res), dtype=np.float32)

    def run(mode):
        with no_grad():
            return efficient_mod(Var(x), params, mode=mode).data

    if not np.array_equal(run("repeat"), run("reshape")):
        raise NumericalError("fusion modes disagree bitwise; refusing to benchmark")
    results = {
        mode: bench(lambda: run(mode), f"fusion-{mode}", warmup, iters, threads, x.shape)
        for mode in ("repeat", "reshape")
    }
    return PairBenchResult("fusion", results, "routes bit-identical")


# ------------------------------------------------------ iso pair experiment

PAIR_WARMUP = 5
PAIR_ITERS = 30  # one iteration is a full 224^2 forward; keep the default sane


def bench_pair_mbconv(
    pair: str = "iso-256-13",
    input_res: int = 224,
    warmup: int = PAIR_WARMUP,
    iters: int = PAIR_ITERS,
    threads: int | None = None,
    seed: int = 0,
) -> PairBenchResult:
    """Benchmark a parameter-matched modulation vs MBConv isotropic pair.

    Preconditions: the two members must sit within 2% of each other in
    parameters, and both must produce finite logits on a probe input, before
    any timing starts.
    """
    if pair not in ISO_PAIRS:
        raise ConfigError(f"unknown pair {pair!r}; choose from {sorted(ISO_PAIRS)}")
    _checked_budget(warmup, iters, threads)  # every flag before the 0.3-0.6 s build
    specs = [ISO_SPECS[name] for name in ISO_PAIRS[pair]]
    patch = specs[0].patch
    check_resolution(patch, input_res, input_res)
    tokens = (input_res // patch) ** 2
    widest = max(3 * input_res**2, *(spec.dim * spec.expansion * tokens for spec in specs))
    if widest > model.MAX_ACTIVATIONS:
        raise ConfigError(
            f"pair {pair} at res {input_res}: the widest activation has {widest:,} elements, "
            f"above MAX_ACTIVATIONS = {model.MAX_ACTIVATIONS:,}"
        )
    em, mb = build_iso_pair(pair, seed=seed, dtype=np.float32)
    p_em = analyzer.complexity_report(em, (input_res, input_res)).total_params_with_bias
    p_mb = analyzer.complexity_report(mb, (input_res, input_res)).total_params_with_bias
    gap = abs(p_em - p_mb) / max(p_em, p_mb)
    if gap > 0.02:
        raise ConfigError(
            f"pair {pair}: parameter totals differ by {gap * 100:.2f}% (> 2%): "
            f"{p_em:,} vs {p_mb:,}"
        )
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((1, 3, input_res, input_res), dtype=np.float32)

    def forward(m):
        with no_grad():
            return model_forward(m, x).data

    results = {}
    for name, m in (("efficient_mod", em), ("mbconv", mb)):
        if not np.isfinite(forward(m)).all():
            raise NumericalError(f"pair {pair}: {name} probe produced non-finite logits")
        results[name] = bench(lambda: forward(m), f"{pair}-{name}", warmup, iters, threads, x.shape)
    note = f"params efficient_mod {p_em:,}, mbconv {p_mb:,} (gap {gap * 100:.2f}%)"
    return PairBenchResult(f"pair {pair}", results, note)


def bench_csv(results) -> str:
    """CSV rows for a list of BenchResult."""
    lines = [
        "label,mean_ms,std_ms,p50_ms,p90_ms,cv,unstable,peak_alloc_mb,warmup,iters,threads,"
        "threads_enforced,shape"
    ]
    for r in results:
        shape = "x".join(str(s) for s in r.shape) if r.shape else ""
        lines.append(
            f"{r.label},{r.mean_ms:.6f},{r.std_ms:.6f},{r.p50_ms:.6f},{r.p90_ms:.6f},"
            f"{r.cv:.4f},{int(r.unstable)},{r.peak_alloc_mb:.6f},{r.warmup},{r.iters},{r.threads},"
            f"{int(r.threads_enforced)},{shape}"
        )
    return "\n".join(lines) + "\n"
