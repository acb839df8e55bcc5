"""effmod benchmark: one workload, one closed loop, one JSON line.

    python3 perfbench/run.py --workload infer-xxs --seed 1 --seconds 55 --trace 0

Run it from the repository root; it imports effmod from ./src and nothing
else. With --trace 0 it times the workload untraced and reports the
end-to-end metrics. With --trace 1 it alternates untraced and traced
operations, reports the per-layer metrics and the tracing overhead, cross-
checks the traced MAC count against analyzer.count_macs, and checks that
the span self times account for the traced iteration time. The last line of
standard output is {"correct", "attempted", "failed", "metrics"}; the lines
before it are the same numbers for people, with the environment block. A
fuller result, and with --trace 1 every span, goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time

import envinfo

SETUP_REPEATS = 5  # setup_s is the median of this many set-ups
OUT_DIR = os.path.join("perfbench", "out")
# the keys of workloads.WORKLOADS, which cannot be imported before numpy's threads are pinned;
# BENCHMARK.json lists infer-xxs and train-micro, and fwdbwd-xxs is run by hand
WORKLOAD_NAMES = ("infer-xxs", "fwdbwd-xxs", "train-micro")


def _int_at_least(lo: int):
    def parse(text: str) -> int:
        value = int(text)
        if value < lo:
            raise argparse.ArgumentTypeError(f"must be >= {lo}, got {value}")
        return value

    return parse


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=_int_at_least(0), required=True)
    ap.add_argument("--seconds", type=_int_at_least(1), required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_program():
    """Import effmod from ./src of the current directory, and only from there."""
    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "effmod", "__init__.py")):
        raise SystemExit(f"perfbench: no effmod sources at {src}; run from the repository root")
    sys.path.insert(0, src)
    import effmod

    if os.path.dirname(os.path.abspath(effmod.__file__)) != os.path.join(src, "effmod"):
        raise SystemExit(f"perfbench: imported effmod from {effmod.__file__}, not {src}")


def measure(workload, seconds: float, tracer=None) -> tuple:
    """Closed loop for `seconds`: (untraced ops, traced ops).

    With a tracer, operations alternate untraced and traced, so both see the
    same machine conditions and their medians give the tracing overhead.
    """
    untraced, traced = [], []
    deadline = time.perf_counter() + seconds
    while True:
        if tracer is not None and len(traced) < len(untraced):
            with tracer.installed():
                traced.append(workload.op(tracer))
        else:
            untraced.append(workload.op())
        if time.perf_counter() >= deadline and (tracer is None or traced):
            return untraced, traced


def tally(ops: list, ref_failures: list) -> tuple:
    """(attempted, failed, failure messages): the operations plus the reference check."""
    attempted = sum(op.attempted for op in ops) + 1
    failed = sum(op.failed for op in ops) + (1 if ref_failures else 0)
    return attempted, failed, ref_failures + [f for op in ops for f in op.failures]


def _median(xs: list) -> float:
    """Median, or 0 when every operation failed before its first iteration."""
    return statistics.median(xs) if xs else 0.0


def end_to_end(workload, seconds: int) -> tuple:
    import numpy as np
    from workloads import peak_alloc_bytes

    setup_s, ref_failures = set_up(workload, SETUP_REPEATS)
    peak = peak_alloc_bytes(workload)
    ops, _ = measure(workload, seconds)
    attempted, failed, failures = tally(ops, ref_failures)
    samples = [s for op in ops for s in op.samples_ms]
    wall_s = sum(op.wall_ns for op in ops) / 1e9
    tail = float(np.percentile(samples, workload.tail_pct)) if samples else 0.0
    metrics = {
        "iter_tail_ms": (tail, "ms"),
        "img_per_s": (sum(op.images for op in ops) / wall_s, "1/s"),
        "peak_alloc_mb": (peak / 1e6, "MB"),
        "setup_s": (setup_s, "s"),
        "ok_rate": (1.0 - failed / attempted, "ratio"),
    }
    detail = {
        # reported, not gated: on a machine that switches between speed states
        # the median follows whichever state held for most of the run
        "iter_p50_ms": _median(samples),
        "samples": len(samples),
        "iter_tail_percentile": workload.tail_pct,
        "samples_beyond_tail": sum(1 for s in samples if s > tail),
        "timed_wall_s": wall_s,
        "error_rate": failed / attempted,
        "samples_ms": samples,
    }
    return metrics, detail, attempted, failed, failures


def set_up(workload, repeats: int) -> tuple:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        workload.setup()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), workload.reference_failures()


def per_layer(workload, seconds: int, spans_path: str) -> tuple:
    from spans import TapeProbe, Tracer

    _, ref_failures = set_up(workload, 1)
    probe = TapeProbe()
    with probe.installed():
        workload.probe()
    tape = probe.release()

    tracer = Tracer()
    untraced, traced = measure(workload, seconds, tracer)
    tracer.write(spans_path)
    a = tracer.analyze()
    names = a["names"]
    # iterations inside traced roots; at least 1 so a run whose training failed still reports
    iters = max(1, sum(len(op.samples_ms) for op in traced))
    attempted, failed, failures = tally(untraced + traced, ref_failures)
    # a failed trace accounting or MAC cross-check fails the run, not an operation
    failures += [f"trace accounting: {e}" for e in a["errors"][:20]]

    want = workload.macs_per_image() * tracer.images
    if tracer.fwd_macs != want:
        failures.append(
            f"MAC cross-check: traced forward MACs {tracer.fwd_macs} != analyzer.count_macs "
            f"{workload.macs_per_image()} x {tracer.images} images = {want}"
        )

    def ms(name, col=1):
        return names.get(name, [0, 0, 0])[col] / 1e6 / iters

    def calls(name):
        return names.get(name, [0, 0, 0])[0] / iters

    def gmac_s(name):
        t = names.get(name, [0, 0, 0])[1]
        return tracer.macs.get(name, 0) / t if t else 0.0  # MAC/ns == GMAC/s

    kernel_ms = sum(ms(n) for n in names if n.startswith("kernels."))
    iter_ms = a["root_ns"] / 1e6 / iters
    traced_p50 = _median([s for op in traced for s in op.samples_ms])
    untraced_p50 = _median([s for op in untraced for s in op.samples_ms])

    m = {}
    for k in ("conv2d_dw", "pointwise"):
        m[f"kernels.{k}.ms"] = (ms(f"kernels.{k}"), "ms")
        m[f"kernels.{k}.calls"] = (calls(f"kernels.{k}"), "count")
        m[f"kernels.{k}.gmac_s"] = (gmac_s(f"kernels.{k}"), "GMAC/s")
    for k in ("conv2d_vjp_dw", "conv2d_dense", "conv2d_vjp_dense", "pointwise_vjp"):
        m[f"kernels.{k}.ms"] = (ms(f"kernels.{k}"), "ms")
        m[f"kernels.{k}.gmac_s"] = (gmac_s(f"kernels.{k}"), "GMAC/s")
    for k in ("gelu", "gelu_grad", "layer_norm", "softmax", "batched_matmul",
              "fuse_modulate", "fuse_modulate_vjp"):
        m[f"kernels.{k}.ms"] = (ms(f"kernels.{k}"), "ms")
    m["kernels.fuse_modulate.mb"] = (tracer.bytes.get("kernels.fuse_modulate", 0) / 1e6 / iters, "MB")
    m["kernels.macs"] = (sum(v for n, v in tracer.macs.items() if n.startswith("kernels.")) / iters, "count")
    m["kernels.ms"] = (kernel_ms, "ms")
    m["kernels.share"] = (kernel_ms / iter_ms, "ratio")
    ops_self = sum(v[2] for n, v in names.items()
                   if n.startswith("autodiff.") and n != "autodiff.backward")
    m["autodiff.ops.self_ms"] = (ops_self / 1e6 / iters, "ms")
    m["autodiff.backward.ms"] = (ms("autodiff.backward"), "ms")
    m["autodiff.backward.self_ms"] = (ms("autodiff.backward", 2), "ms")
    m["autodiff.tape_nodes"] = (tape["tape_nodes"], "count")
    m["autodiff.tape_saved_mb"] = (tape["tape_saved_bytes"] / 1e6, "MB")
    m["autodiff.nonleaf_grad_mb"] = (tape["nonleaf_grad_bytes"] / 1e6, "MB")
    for k in ("efficient_mod", "attention_block"):
        m[f"blocks.{k}.ms"] = (ms(f"blocks.{k}"), "ms")
        m[f"blocks.{k}.self_ms"] = (ms(f"blocks.{k}", 2), "ms")
    m["blocks.residual_apply.self_ms"] = (ms("blocks.residual_apply", 2), "ms")
    m["model.model_forward.ms"] = (ms("model.model_forward"), "ms")
    m["model.model_forward.self_ms"] = (ms("model.model_forward", 2), "ms")
    m["trainer.adamw_step.ms"] = (ms("trainer.adamw_step"), "ms")
    m["trainer.eval_ms"] = (ms("model.model_forward.eval"), "ms")
    m["trace.unattributed_ms"] = (a["unattributed_ns"] / 1e6 / iters, "ms")
    m["trace.overhead_pct"] = (100.0 * (traced_p50 - untraced_p50) / (untraced_p50 or 1.0), "%")

    detail = {
        "traced_iterations": iters,
        "traced_iter_ms": iter_ms,
        "traced_p50_ms": traced_p50,
        "untraced_p50_ms": untraced_p50,
        "trace_overhead_ms": traced_p50 - untraced_p50,
        "spans": len(tracer.spans),
        "self_plus_unattributed_ms": (a["self_ns"] + a["unattributed_ns"]) / 1e6,
        "traced_root_ms": a["root_ns"] / 1e6,
        "forward_macs_traced": tracer.fwd_macs,
        "forward_macs_expected": want,
        "images_forwarded": tracer.images,
        "macs_per_image": workload.macs_per_image(),
        "spans_by_name": {n: {"calls": v[0], "ms": v[1] / 1e6, "self_ms": v[2] / 1e6}
                          for n, v in sorted(names.items())},
    }
    return m, detail, attempted, failed, failures


def main(argv=None) -> int:
    args = parse_args(argv)
    threads = envinfo.pin_blas_threads()
    import_program()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    started = time.time()
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    if args.trace:
        metrics, detail, attempted, failed, failures = per_layer(
            workload, args.seconds, stem + ".spans.csv")
    else:
        metrics, detail, attempted, failed, failures = end_to_end(workload, args.seconds)
    env = envinfo.environment(threads)
    correct = not failures
    result = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "started_unix": started, "environment": env,
        "correct": correct, "attempted": attempted, "failed": failed,
        "failures": failures[:50], "detail": detail,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(stem + ".json", "w") as f:
        json.dump(result, f, indent=1)

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    for k, v in env.items():
        print(f"env {k}: {v}")
    for k, v in detail.items():
        if k not in ("spans_by_name", "samples_ms"):
            print(f"detail {k}: {v}")
    for f in failures[:20]:
        print(f"FAILED {f}")
    for k, (v, u) in metrics.items():
        print(f"{k:32s} {v:16.6f} {u}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
