"""Span tracing from outside the program, by rebinding module attributes.

The package's callers look its functions up at call time (`K.conv2d` inside
autodiff, `ad.pointwise` inside blocks, `B.efficient_mod` inside model,
`M.model_forward` and `ad.backward` inside trainer), so replacing a module
attribute with a timing wrapper puts a span around every call without
editing the package. `Tracer.installed()` swaps the wrappers in and restores
the originals on exit, which lets a run alternate traced and untraced
iterations and report the tracing overhead as their difference.

Each span is one list: [name, start_ns, end_ns, parent index, iteration id].
Spans stay in memory and are written out when the run ends. A span's self
time is its duration minus the durations of its direct children; the
benchmark opens one root span per iteration, so the self times of a root's
whole subtree sum exactly to the root's duration.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import time

import numpy as np

from effmod import autodiff, blocks, kernels, model, trainer

ROOT = "bench.iteration"

# (module, attribute) pairs wrapped under "<module>.<attribute>" spans. These
# are the public functions each workload reaches; anything else the program
# runs inside a root span shows up as self time of the nearest wrapped caller.
KERNEL_FNS = (
    "conv2d", "conv2d_vjp", "pointwise", "pointwise_vjp", "gelu", "gelu_grad",
    "sigmoid", "layer_norm", "softmax", "batched_matmul", "fuse_modulate",
    "fuse_modulate_vjp", "global_avg_pool",
)
AUTODIFF_OPS = (
    "add", "sub", "mul", "scale", "reshape", "transpose", "narrow", "sum_all",
    "conv2d", "pointwise", "linear", "gelu", "sigmoid", "layer_norm", "softmax",
    "matmul", "fuse_modulate", "global_avg_pool", "cross_entropy",
)
BLOCK_FNS = ("efficient_mod", "efficient_mod_ctx", "attention_block", "residual_apply")
TRAINER_FNS = ("train", "split_dataset", "cosine_lr")


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _conv_kind(x, w, spec) -> str:
    if spec.groups == x.shape[1] == w.shape[0]:
        return "dw"
    return "dense" if spec.groups == 1 else "group"


def _conv_label(args, kwargs) -> str:  # conv2d(x, w, b, spec)
    return "kernels.conv2d_" + _conv_kind(args[0], args[1], _arg(args, kwargs, 3, "spec"))


def _conv_vjp_label(args, kwargs) -> str:  # conv2d_vjp(x, w, spec, grad_out)
    return "kernels.conv2d_vjp_" + _conv_kind(args[0], args[1], _arg(args, kwargs, 2, "spec"))


class Tracer:
    """In-memory span recorder plus per-name work counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.iteration = 0
        self.macs: dict[str, int] = {}  # span name -> multiply-accumulates
        self.bytes: dict[str, int] = {}  # span name -> computed bytes touched
        self.fwd_macs = 0  # forward MACs of conv2d, pointwise, batched_matmul, linear
        self.images = 0  # images passed to model_forward inside root spans

    # ------------------------------------------------------------- spans

    def _open(self, name: str) -> list:
        stack = self.stack
        rec = [name, 0, 0, stack[-1] if stack else -1, self.iteration]
        stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter_ns()
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = time.perf_counter_ns()
        self.stack.pop()

    @contextlib.contextmanager
    def root(self):
        """One benchmark iteration; everything traced inside it is its subtree."""
        rec = self._open(ROOT)
        try:
            yield rec
        finally:
            self._close(rec)

    def _wrap(self, fn, name, label=None, count=None):
        opened, closed = self._open, self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.stack:  # outside every iteration: set-up and checks
                return fn(*args, **kwargs)
            rec = opened(label(args, kwargs) if label else name)
            try:
                out = fn(*args, **kwargs)
            finally:
                closed(rec)
            if count is not None:
                count(rec[0], args, kwargs, out)
            return out

        return traced

    # ---------------------------------------------------------- counters

    def _add_macs(self, name, n, forward):
        self.macs[name] = self.macs.get(name, 0) + n
        if forward:
            self.fwd_macs += n

    def _count_conv(self, name, args, kwargs, out):
        w = args[1]
        self._add_macs(name, out.size * w.shape[1] * w.shape[2] * w.shape[3], True)

    def _count_conv_vjp(self, name, args, kwargs, out):
        # dx and dw each cost one forward's MACs
        w, go = args[1], _arg(args, kwargs, 3, "grad_out")
        self._add_macs(name, 2 * go.size * w.shape[1] * w.shape[2] * w.shape[3], False)

    def _count_pointwise(self, name, args, kwargs, out):
        self._add_macs(name, out.size * args[1].shape[1], True)

    def _count_pointwise_vjp(self, name, args, kwargs, out):
        go = _arg(args, kwargs, 2, "grad_out")
        self._add_macs(name, 2 * go.size * args[1].shape[1], False)

    def _count_bmm(self, name, args, kwargs, out):
        self._add_macs(name, out.size * args[0].shape[-1], True)

    def _count_linear(self, name, args, kwargs, out):
        self._add_macs(name, out.data.size * args[1].data.shape[1], True)

    def _count_fuse(self, name, args, kwargs, out):
        ctx, v = args[0], args[1]
        self.bytes[name] = self.bytes.get(name, 0) + ctx.nbytes + v.nbytes + out.nbytes

    def _count_images(self, name, args, kwargs, out):
        x = args[1]
        self.images += (x.data if isinstance(x, autodiff.Var) else np.asarray(x)).shape[0]

    def _forward_label(self, args, kwargs):
        # Inside trainer.train, a forward without training=True is an eval pass.
        training = args[2] if len(args) > 2 else kwargs.get("training", False)
        if not training and len(self.stack) > 1 and self.spans[self.stack[1]][0] == "trainer.train":
            return "model.model_forward.eval"
        return "model.model_forward"

    def _adamw_step(self, fn):
        traced = self._wrap(fn, "trainer.adamw_step")

        @functools.wraps(fn)
        def step(*args, **kwargs):
            out = traced(*args, **kwargs)
            self.iteration += 1  # an optimizer step closes one train-micro iteration
            return out

        return step

    # ------------------------------------------------------ installation

    def _targets(self):
        """(owner, attribute, wrapper) for every traced function."""
        count = {
            "conv2d": self._count_conv,
            "conv2d_vjp": self._count_conv_vjp,
            "pointwise": self._count_pointwise,
            "pointwise_vjp": self._count_pointwise_vjp,
            "batched_matmul": self._count_bmm,
            "fuse_modulate": self._count_fuse,
        }
        out = []
        for attr in KERNEL_FNS:
            fn = getattr(kernels, attr)
            label = {"conv2d": _conv_label, "conv2d_vjp": _conv_vjp_label}.get(attr)
            out.append((kernels, attr, self._wrap(fn, f"kernels.{attr}", label, count.get(attr))))
        for attr in AUTODIFF_OPS:
            cnt = self._count_linear if attr == "linear" else None
            out.append((autodiff, attr, self._wrap(getattr(autodiff, attr), f"autodiff.{attr}", count=cnt)))
        out.append((autodiff, "backward", self._wrap(autodiff.backward, "autodiff.backward")))
        for attr in BLOCK_FNS:
            out.append((blocks, attr, self._wrap(getattr(blocks, attr), f"blocks.{attr}")))
        out.append((model, "model_forward", self._wrap(
            model.model_forward, "model.model_forward", self._forward_label, self._count_images)))
        for attr in TRAINER_FNS:
            out.append((trainer, attr, self._wrap(getattr(trainer, attr), f"trainer.{attr}")))
        out.append((trainer.AdamW, "step", self._adamw_step(trainer.AdamW.step)))
        out.append((trainer.AdamW, "zero_grad", self._wrap(trainer.AdamW.zero_grad, "trainer.zero_grad")))
        return out

    @contextlib.contextmanager
    def installed(self):
        targets = self._targets()
        saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in targets]
        try:
            for owner, attr, wrapper in targets:
                setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)

    # ---------------------------------------------------------- analysis

    def analyze(self) -> dict:
        """Per-name totals and the accounting check over all root spans.

        Returns {"names": {name: [calls, total_ns, self_ns]}, "root_ns": total
        root duration, "unattributed_ns": root self time, "self_ns": the other
        spans' self time, "errors": [...]}. The errors list every span that
        escapes its parent or has negative self time, and a sum of self times
        that misses the root duration.
        """
        spans = self.spans
        child_ns = [0] * len(spans)
        errors = []
        for i, (name, start, end, parent, _) in enumerate(spans):
            if end < start:
                errors.append(f"span {i} {name} ends before it starts")
            if parent >= 0:
                p = spans[parent]
                if start < p[1] or end > p[2]:
                    errors.append(f"span {i} {name} escapes its parent {p[0]}")
                child_ns[parent] += end - start
        names: dict[str, list] = {}
        root_ns = unattributed = self_sum = 0
        for i, (name, start, end, parent, _) in enumerate(spans):
            dur = end - start
            self_ns = dur - child_ns[i]
            if self_ns < 0:
                errors.append(f"span {i} {name} has negative self time")
            if name == ROOT:
                root_ns += dur
                unattributed += self_ns
                continue
            self_sum += self_ns
            row = names.setdefault(name, [0, 0, 0])
            row[0] += 1
            row[1] += dur
            row[2] += self_ns
        if self_sum + unattributed != root_ns:
            errors.append(
                f"self times {self_sum} ns + unattributed {unattributed} ns "
                f"!= traced iteration time {root_ns} ns"
            )
        return {"names": names, "root_ns": root_ns,
                "unattributed_ns": unattributed, "self_ns": self_sum, "errors": errors}

    def write(self, path: str) -> None:
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["span", "name", "start_ns", "end_ns", "parent", "iteration"])
            for i, rec in enumerate(self.spans):
                w.writerow([i, *rec])


# ------------------------------------------------------------ tape probe


class TapeProbe:
    """Walks the tape at autodiff.backward entry, before backward can touch it.

    Counts non-leaf nodes and the bytes they keep alive (node values plus the
    arrays captured by their vjp closures, deduplicated by underlying buffer),
    then, after backward, the bytes of `.grad` left on those non-leaf nodes.
    """

    def __init__(self):
        self.nodes: list = []

    @contextlib.contextmanager
    def installed(self):
        original = autodiff.backward

        @functools.wraps(original)
        def probing(out, *args, **kwargs):
            if not self.nodes:
                self.nodes = _nonleaf_nodes(out)
            return original(out, *args, **kwargs)

        autodiff.backward = probing
        try:
            yield self
        finally:
            autodiff.backward = original

    def release(self) -> dict:
        """The tape's statistics; drops the probe's references to the tape."""
        buffers: dict[int, int] = {}
        for node in self.nodes:
            _add_buffer(buffers, node.data)
            vjp = getattr(node, "_vjp", None)
            for cell in getattr(vjp, "__closure__", None) or ():
                try:
                    value = cell.cell_contents
                except ValueError:  # empty cell
                    continue
                if isinstance(value, np.ndarray):
                    _add_buffer(buffers, value)
        grad = sum(n.grad.nbytes for n in self.nodes if getattr(n, "grad", None) is not None)
        count, self.nodes = len(self.nodes), []
        return {"tape_nodes": count, "tape_saved_bytes": sum(buffers.values()),
                "nonleaf_grad_bytes": grad}


def _nonleaf_nodes(out) -> list:
    seen, stack, nodes = set(), [out], []
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if node.parents:
            nodes.append(node)
            stack.extend(node.parents)
    return nodes


def _add_buffer(buffers: dict, a: np.ndarray) -> None:
    while isinstance(a.base, np.ndarray):
        a = a.base
    buffers[id(a)] = a.nbytes
