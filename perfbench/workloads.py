"""The three workloads, each a closed loop from one process.

Every workload reaches the program only through its public API
(`model.build_model`, `model.model_forward`, `autodiff.backward`,
`trainer.train`), called through the module attribute so that the span
wrappers in `spans.py` see the call. Inputs come from the benchmark seed;
the program receives only the generated arrays and the seeds it takes as
arguments (parameter init, train/eval split and batch order).

- infer-xxs: xxs preset, f32, batch 1, 224x224, no_grad forward.
- fwdbwd-xxs: the same forward plus backward of the summed logits (run by
  hand; BENCHMARK.json does not list it).
- train-micro: `trainer.train` on the micro preset, f64, batch 32, 32x32 bars.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import math
import time
import tracemalloc
from dataclasses import dataclass, field

import numpy as np

from effmod import analyzer, autodiff, model, trainer

# Per-tensor tolerance of the float32 run against a float64 evaluation of the
# same parameters and input: max|f32 - f64| <= REF_RTOL * max|f64|. Measured
# disagreement on the xxs forward and its gradients is about 1e-6.
REF_RTOL = 1e-4
MIN_EVAL_ACC = 0.9

# Each workload reports its tail at a fixed percentile that leaves at least
# 10 samples beyond it in a 55 s run on a 2-core machine (360-520 infer-xxs
# and 720-990 train-micro samples). A percentile picked per run from the
# sample count would jump when a change, or the machine's load, moves the
# count across a threshold. train-micro takes the highest such of p75, p90,
# p95 and p99. infer-xxs takes p90, not p95, because its p95 spread up to
# 0.21 of the median over ten runs against 0.13 for p90. fwdbwd-xxs takes
# p75, which leaves 10 samples beyond it even in a 40 s run (80-120
# samples); it is not in BENCHMARK.json, so its tail gates nothing.


@dataclass
class OpResult:
    """One timed operation: a forward, a forward+backward, or a train() call."""

    samples_ms: list  # per-iteration times; per optimizer step for train-micro
    wall_ns: int  # timed wall time of the whole operation
    images: int
    attempted: int
    failed: int
    failures: list = field(default_factory=list)


def _digest(arrays) -> str:
    h = hashlib.blake2b(digest_size=16)
    for a in arrays:
        h.update(np.ascontiguousarray(a).data)
    return h.hexdigest()


def _ref_mismatch(name: str, got: np.ndarray, want: np.ndarray) -> str | None:
    scale = float(np.abs(want).max())
    err = float(np.abs(got.astype(np.float64) - want).max())
    if err <= REF_RTOL * max(scale, 1e-12):  # also false for NaN
        return None
    return f"{name}: max |f32 - f64| = {err:.3e} exceeds {REF_RTOL:g} x {scale:.3e}"


@contextlib.contextmanager
def _span(tracer):
    """Time one operation: the tracer's root span, or a bare clock when untraced."""
    if tracer is not None:
        with tracer.root() as rec:
            yield rec
        return
    rec = ["untraced", 0, 0]
    rec[1] = time.perf_counter_ns()
    try:
        yield rec
    finally:
        rec[2] = time.perf_counter_ns()


class _XXS:
    """xxs preset at 224x224, batch 1, float32; subclasses define one iteration."""

    name = ""
    res = 224
    tail_pct = 90.0

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self) -> None:
        spec = model.build_preset("xxs")
        self.model = model.build_model(spec, seed=self.seed, dtype=np.float32)
        rng = np.random.default_rng([self.seed, self.res])
        self.x = rng.standard_normal((1, 3, self.res, self.res), dtype=np.float32)
        self.first = self._run(self.model, self.x)

    def _run(self, m, x) -> list:
        raise NotImplementedError

    def macs_per_image(self) -> int:
        return analyzer.count_macs(self.model, (self.res, self.res))

    def reference_failures(self) -> list:
        """Compare the first (set-up) iteration with float64 on the same parameters.

        Also fixes the digest every timed iteration must reproduce bit for bit.
        """
        self.reference_digest = _digest(self.first)
        m64 = model.build_model(model.build_preset("xxs"), seed=self.seed, dtype=np.float64)
        for (name, v32), (name64, v64) in zip(
            self.model.named_parameters(), m64.named_parameters()
        ):
            if name != name64:
                return [f"parameter walk differs between dtypes at {name} / {name64}"]
            v64.data = v32.data.astype(np.float64)
        want = self._run(m64, self.x.astype(np.float64))
        names = self._output_names()
        return [f for f in map(_ref_mismatch, names, self.first, want) if f is not None]

    def _output_names(self) -> list:
        raise NotImplementedError

    def probe(self) -> None:
        """One untimed iteration on the timed path (peak-memory and tape probes)."""
        self._run(self.model, self.x)

    def op(self, tracer=None) -> OpResult:
        with _span(tracer) as span:
            outs = self._run(self.model, self.x)
        if tracer is not None:
            tracer.iteration += 1
        t0, t1 = span[1], span[2]
        failures = []
        if not all(np.isfinite(a).all() for a in outs):
            failures.append(f"{self.name}: non-finite values in the outputs")
        digest = _digest(outs)
        if digest != self.reference_digest:
            failures.append(f"{self.name}: outputs differ from the first iteration ({digest})")
        return OpResult([(t1 - t0) / 1e6], t1 - t0, 1, 1, 1 if failures else 0, failures)


class InferXXS(_XXS):
    name = "infer-xxs"

    def _run(self, m, x) -> list:
        with autodiff.no_grad():
            return [model.model_forward(m, x).data]

    def _output_names(self) -> list:
        return ["logits"]


class FwdBwdXXS(_XXS):
    name = "fwdbwd-xxs"
    tail_pct = 75.0

    def _run(self, m, x) -> list:
        params = [v for _, v in m.named_parameters()]
        for p in params:
            p.grad = None
        logits = model.model_forward(m, x)
        autodiff.backward(autodiff.sum_all(logits))
        return [p.grad for p in params]

    def _output_names(self) -> list:
        return [f"grad {name}" for name, _ in self.model.named_parameters()]


# ------------------------------------------------------------ train-micro


def bars_dataset(seed: int, n: int, classes: int, size: int = 32) -> trainer.SyntheticDataset:
    """Balanced oriented-bar images: class k is a bar at k*180/classes degrees.

    Each bar passes within 2 px of the centre, is 2.5 px thick, and carries
    white noise of std 0.05 on every channel.
    """
    rng = np.random.default_rng([seed, size])
    labels = rng.permutation(np.repeat(np.arange(classes), n // classes))
    theta = (np.pi * labels / classes)[:, None, None]
    offset = rng.uniform(-2.0, 2.0, n)[:, None, None]
    yy, xx = np.mgrid[0:size, 0:size].astype(np.float64) - (size - 1) / 2.0
    dist = np.abs(-np.sin(theta) * xx + np.cos(theta) * yy - offset)
    bars = np.clip(2.5 - dist, 0.0, 1.0)[:, None]
    images = bars + 0.05 * rng.standard_normal((n, 3, size, size))
    return trainer.SyntheticDataset(
        seed=seed, images=images.astype(np.float32), labels=labels.astype(np.int64)
    )


class _StepClock:
    """Times optimizer steps inside trainer.train and records every loss.

    A step runs from the training-mode model_forward call to the return of
    AdamW.step, so the eval passes between epochs fall outside every step
    (they still count in the operation's wall time).
    """

    def __init__(self):
        self.samples_ms: list = []
        self.losses: list = []
        self._start = 0

    @contextlib.contextmanager
    def installed(self):
        forward, step, xent = model.model_forward, trainer.AdamW.step, autodiff.cross_entropy

        @functools.wraps(forward)
        def timed_forward(*args, **kwargs):
            if (args[2] if len(args) > 2 else kwargs.get("training", False)):
                self._start = time.perf_counter_ns()
            return forward(*args, **kwargs)

        @functools.wraps(step)
        def timed_step(*args, **kwargs):
            out = step(*args, **kwargs)
            self.samples_ms.append((time.perf_counter_ns() - self._start) / 1e6)
            return out

        @functools.wraps(xent)
        def recorded_xent(*args, **kwargs):
            loss = xent(*args, **kwargs)
            self.losses.append(float(loss.data))
            return loss

        model.model_forward = timed_forward
        trainer.AdamW.step = timed_step
        autodiff.cross_entropy = recorded_xent
        try:
            yield self
        finally:
            model.model_forward = forward
            trainer.AdamW.step = step
            autodiff.cross_entropy = xent


class TrainMicro:
    """trainer.train on a fresh micro model per operation: 2 epochs of 410 images."""

    name = "train-micro"
    tail_pct = 95.0
    n_images = 512
    epochs = 2
    batch = 32
    warm_images = 40  # 32 train + 8 eval: exactly one optimizer step

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self) -> None:
        self.spec = model.build_preset("micro")
        self.ds = bars_dataset(self.seed, self.n_images, self.spec.head)
        self.model = self._fresh_model()
        self.reference_digest = None
        self.probe()  # the first, untimed iteration

    def _fresh_model(self):
        return model.build_model(self.spec, seed=self.seed, dtype=np.float64)

    def _warm_subset(self) -> trainer.SyntheticDataset:
        k = self.warm_images
        return trainer.SyntheticDataset(self.seed, self.ds.images[:k], self.ds.labels[:k])

    def probe(self) -> None:
        trainer.train(self._fresh_model(), self._warm_subset(), epochs=1,
                      seed=self.seed, batch_size=self.batch)

    def macs_per_image(self) -> int:
        return analyzer.count_macs(self.model, (32, 32))

    def reference_failures(self) -> list:
        return []

    def op(self, tracer=None) -> OpResult:
        m = self._fresh_model()
        clock = _StepClock()
        hist, result_failures = None, []
        with clock.installed():
            try:
                with _span(tracer) as span:
                    hist = trainer.train(m, self.ds, epochs=self.epochs, seed=self.seed,
                                         batch_size=self.batch)
            except Exception as e:  # a failed train() is a failed operation
                result_failures.append(f"trainer.train raised {type(e).__name__}: {e}")
        if hist is not None:
            result_failures += self._result_failures(m, hist)
        bad_losses = [v for v in clock.losses if not math.isfinite(v)]
        failures = [f"{self.name}: non-finite loss {v}" for v in bad_losses]
        failures += [f"{self.name}: {f}" for f in result_failures]
        images = int(hist.hyperparams["n_train"]) * self.epochs if hist else 0
        # operations: every optimizer step (its loss) plus the train() result
        return OpResult(clock.samples_ms, span[2] - span[1], images, len(clock.samples_ms) + 1,
                        len(bad_losses) + (1 if result_failures else 0), failures)

    def _result_failures(self, m, hist) -> list:
        failures = []
        if not all(math.isfinite(e.train_loss) for e in hist.epochs):
            failures.append("non-finite epoch loss")
        if not hist.final_eval_acc >= MIN_EVAL_ACC:
            failures.append(f"final eval accuracy {hist.final_eval_acc:.3f} < {MIN_EVAL_ACC}")
        digest = _digest(v.data for _, v in m.named_parameters())
        if self.reference_digest is None:
            self.reference_digest = digest
        elif digest != self.reference_digest:
            failures.append("trained parameters differ between identical train() calls")
        return failures


WORKLOADS = {w.name: w for w in (InferXXS, FwdBwdXXS, TrainMicro)}


def peak_alloc_bytes(workload) -> int:
    """Peak traced allocation over one probe iteration (tracemalloc, untimed)."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        workload.probe()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
