"""Reverse-mode autodiff over the NCHW kernels.

A Var wraps an ndarray and remembers how it was produced; backward() walks the
tape in reverse topological order and accumulates cotangents, so fan-out adds
gradients as it must. Only leaves (Vars without a vjp: parameters and inputs
the caller wrapped) keep a .grad; an intermediate node passes its cotangent on
and keeps nothing. A plain ndarray passed where an op accepts one (conv2d's
input, mul's second operand) is a constant: it is not on the tape and no
gradient is computed for it. backward() frees the graph as it consumes it, as
PyTorch does by default: each node drops its parents and vjp closure, and the
activations that closure saved, once its cotangent has reached its parents.
Grads add across separate forward passes; a second backward through a freed
graph raises. modulate (v -> product -> p of the EfficientMod block) keeps v
but not the product, which its VJP remakes for dp_w alone (Chen et al. 2016).
The VJP never holds the remade product and its cotangent at once, and v goes
once it has been scaled into dctx's summands, so the micro batch-8 step's
backward peaks at 1.02 MB on a 0.74 MB tape, within the 1.4x the suite pins.
Under no_grad, modulate consumes ctx: when the output fits ctx's buffer it is
written there, so the caller must not read ctx afterwards.
add_scaled (x + y * s, the layer-scaled residual) keeps y and s but never
y * s. add, sub, mul, add_scaled, linear and matmul refuse mixed dtypes rather
than promote, as the kernels under the block ops do: a cotangent has its node's dtype.

Eight ops have no caller in the package: narrow, transpose, scale, matmul,
softmax, linear, sub and fuse_modulate. They stay only because perfbench's
tracer wraps every op by name; ROADMAP item 2(b) deletes them with it.

Gradient certification is two-sided: every analytic rule here is checked
against central finite differences (grad_check), and the test suite runs that
check over every block kind in float64.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from . import kernels as K
from .errors import PreconditionError

_grad_enabled = True


@contextmanager
def no_grad():
    """Disable tape recording inside the context (forward values only)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class Var:
    """Tape node: value, accumulated gradient, and the vjp closure that fills parents."""

    __slots__ = ("data", "grad", "op", "parents", "_vjp")

    def __init__(self, data, op: str = "leaf", parents=(), vjp=None):
        self.data = np.asarray(data)
        self.grad = None
        self.op = op
        self.parents = parents
        self._vjp = vjp

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self):
        return f"Var(op={self.op}, shape={self.data.shape}, dtype={self.data.dtype})"


def _node(data, op, parents, vjp):
    if not _grad_enabled:
        return Var(data)
    return Var(data, op=op, parents=parents, vjp=vjp)


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcasted cotangent back down to the parent's shape."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def backward(out: Var) -> None:
    """Accumulate d(out)/d(leaf) into the .grad of every leaf on the tape, seeding with ones.

    Leaves are the Vars without a vjp; intermediate nodes keep no .grad. Every vjp
    returns one cotangent per parent, so every node on the tape gets one. Constants
    (ndarrays an op took in place of a Var) are not on the tape and get no gradient.
    Grads add onto whatever is already in .grad, so zero them between steps. The
    graph is freed as it is consumed (a node's .data stays readable); a second
    backward through it raises PreconditionError before any .grad changes.
    """
    # Iterative topo sort; tapes for deep models overflow the recursion limit.
    order: list[Var] = []
    seen: set[int] = set()
    stack: list[tuple[Var, bool]] = [(out, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        if node._vjp is None and node.op != "leaf":
            raise PreconditionError(f"{node.op} node freed by an earlier backward; rerun the forward")
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            if id(p) not in seen:
                stack.append((p, False))

    grads: dict[int, np.ndarray] = {id(out): np.ones_like(out.data)}
    while order:
        node = order.pop()
        g = grads.pop(id(node))
        # Free the node before its vjp runs: the closure and what it saved go at the next pop.
        parents, vjp = node.parents, node._vjp
        node.parents, node._vjp = (), None
        if vjp is None:
            node.grad = g.copy() if node.grad is None else node.grad + g
            continue
        for parent, pg in zip(parents, vjp(g)):
            if id(parent) in grads:
                grads[id(parent)] = grads[id(parent)] + pg
            else:
                grads[id(parent)] = pg


# ---------------------------------------------------------------- basic ops


def _one_dtype(op: str, a: np.ndarray, b: np.ndarray) -> None:
    if a.dtype != b.dtype:  # numpy would promote silently, and leave the leaf a grad of b's dtype
        raise PreconditionError(f"{op}: operands mix dtypes {a.dtype} and {b.dtype}")


def add(a: Var, b: Var) -> Var:
    _one_dtype("add", a.data, b.data)
    out = a.data + b.data
    return _node(
        out,
        "add",
        (a, b),
        lambda g: (_unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)),
    )


def sub(a: Var, b: Var) -> Var:
    _one_dtype("sub", a.data, b.data)
    out = a.data - b.data
    return _node(
        out,
        "sub",
        (a, b),
        lambda g: (_unbroadcast(g, a.data.shape), _unbroadcast(-g, b.data.shape)),
    )


def mul(a: Var, b: Var | np.ndarray) -> Var:
    """Elementwise product; an ndarray b is a constant, so only a gets a gradient."""
    if not isinstance(b, Var):
        b = np.asarray(b)
        _one_dtype("mul", a.data, b)
        return _node(a.data * b, "mul", (a,), lambda g: (_unbroadcast(g * b, a.data.shape),))
    _one_dtype("mul", a.data, b.data)
    out = a.data * b.data
    return _node(
        out,
        "mul",
        (a, b),
        lambda g: (
            _unbroadcast(g * b.data, a.data.shape),
            _unbroadcast(g * a.data, b.data.shape),
        ),
    )


def add_scaled(x: Var, y: Var, s: Var) -> Var:
    """x + y * s for x and y of one shape and a scale s that broadcasts to it. The node
    keeps y and s, never y * s, which is the output's own buffer."""
    _one_dtype("add_scaled", x.data, y.data)
    _one_dtype("add_scaled", y.data, s.data)
    out = y.data * s.data
    out += x.data
    return _node(
        out,
        "add_scaled",
        (x, y, s),
        lambda g: (g, g * s.data, _unbroadcast(g * y.data, s.data.shape)),
    )


def scale(a: Var, s: float) -> Var:
    """Multiply by a python float constant (no gradient for s).

    s is converted with float(): a numpy float64 scalar would promote f32 data to f64.
    """
    s = float(s)
    return _node(a.data * s, "scale", (a,), lambda g: (g * s,))


def reshape(a: Var, shape: tuple) -> Var:
    orig = a.data.shape
    return _node(a.data.reshape(shape), "reshape", (a,), lambda g: (g.reshape(orig),))


def transpose(a: Var, axes: tuple) -> Var:
    inv = tuple(np.argsort(axes))
    return _node(
        np.ascontiguousarray(a.data.transpose(axes)),
        "transpose",
        (a,),
        lambda g: (np.ascontiguousarray(g.transpose(inv)),),
    )


def narrow(a: Var, axis: int, start: int, length: int) -> Var:
    """Contiguous slice along one axis; vjp zero-pads the complement."""
    idx = [slice(None)] * a.data.ndim
    idx[axis] = slice(start, start + length)
    idx = tuple(idx)

    def vjp(g):
        full = np.zeros_like(a.data)
        full[idx] = g
        return (full,)

    return _node(np.ascontiguousarray(a.data[idx]), "narrow", (a,), vjp)


def sum_all(a: Var) -> Var:
    shape = a.data.shape
    return _node(
        np.asarray(a.data.sum()), "sum_all", (a,), lambda g: (np.broadcast_to(g, shape).copy(),)
    )


# ----------------------------------------------------------- neural-net ops


def conv2d(x: Var | np.ndarray, w: Var, b: Var, spec: K.ConvSpec) -> Var:
    """Convolution node; an ndarray x is a constant, so the VJP skips its gradient."""
    need_input = isinstance(x, Var)
    xd = x.data if need_input else x
    out = K.conv2d(xd, w.data, b.data, spec)

    def vjp(g):
        dx, dw, db = K.conv2d_vjp(xd, w.data, spec, g, need_input=need_input)
        return (dx, dw, db) if need_input else (dw, db)

    return _node(out, "conv2d", (x, w, b) if need_input else (w, b), vjp)


def pointwise(x: Var, w: Var, b: Var) -> Var:
    out = K.pointwise(x.data, w.data, b.data)
    # each closure holds only x and w: the tape keeps every one
    return _node(out, "pointwise", (x, w, b), lambda g: K.pointwise_vjp(x.data, w.data, g))


def linear(x: Var, w: Var, b: Var) -> Var:
    """Last-axis linear map, w [out, in], plus b [out]."""
    if x.data.shape[-1] != w.data.shape[1]:
        raise PreconditionError(
            f"linear: input feature dim {x.data.shape[-1]} != weight in-dim {w.data.shape[1]}"
        )
    _one_dtype("linear", x.data, w.data)
    _one_dtype("linear", x.data, b.data)
    out = x.data @ w.data.T + b.data

    def vjp(g):
        lead = tuple(range(g.ndim - 1))
        return g @ w.data, np.tensordot(g, x.data, axes=(lead, lead)), g.sum(axis=lead)

    return _node(out, "linear", (x, w, b), vjp)


def gelu(x: Var) -> Var:
    out = K.gelu(x.data)

    def vjp(g):  # g * gelu'(x), in place: g has x's dtype
        d = K.gelu_grad(x.data)
        d *= g
        return (d,)

    return _node(out, "gelu", (x,), vjp)


def sigmoid(x: Var) -> Var:
    s = K.sigmoid(x.data)
    return _node(s, "sigmoid", (x,), lambda g: (g * s * (1.0 - s),))


def layer_norm(x: Var, gamma: Var, beta: Var) -> Var:
    """Normalize an NCHW map over its channels; eps is K.LN_EPS."""
    out = K.layer_norm(x.data, gamma.data, beta.data)

    def vjp(g):
        return K.layer_norm_vjp(x.data, gamma.data, g)

    return _node(out, "layer_norm", (x, gamma, beta), vjp)


def softmax(x: Var, axis: int = -1) -> Var:
    s = K.softmax(x.data, axis=axis)

    def vjp(g):
        dot = (g * s).sum(axis=axis, keepdims=True)
        return (s * (g - dot),)

    return _node(s, "softmax", (x,), vjp)


def matmul(a: Var, b: Var) -> Var:
    _one_dtype("matmul", a.data, b.data)
    out = K.batched_matmul(a.data, b.data)

    def vjp(g):
        da = np.matmul(g, np.swapaxes(b.data, -1, -2))
        db = np.matmul(np.swapaxes(a.data, -1, -2), g)
        return (da, db)

    return _node(out, "matmul", (a, b), vjp)


def attention(qkv: Var, heads: int) -> Var:
    """Multi-head self-attention over the h*w positions of a [n, 3c, h, w] map whose
    channels are [q | k | v], each head-major; returns [n, c, h, w]. Scores are
    [key, query] from a scaled q, and softmax overwrites them: they are the node's own."""
    n, c3, h, w = qkv.data.shape
    if c3 % (3 * heads):
        raise PreconditionError(f"attention: {c3} qkv channels do not split into 3 x {heads} heads")
    d = c3 // (3 * heads)
    s = 1.0 / float(np.sqrt(d))
    q, k, v = qkv.data.reshape(n, 3, heads, d, h * w).swapaxes(0, 1)  # views, no copies
    att = K.batched_matmul(k.swapaxes(-1, -2), q * s)
    K.softmax(att, axis=-2, out=att)
    out = K.batched_matmul(v, att).reshape(n, c3 // 3, h, w)

    def vjp(g):
        g = g.reshape(v.shape)
        dqkv = np.empty((n, 3) + v.shape[1:], qkv.data.dtype)
        dq, dk, dv = dqkv.swapaxes(0, 1)
        np.matmul(g, att.swapaxes(-1, -2), out=dv)
        da = np.matmul(v.swapaxes(-1, -2), g)  # softmax backward in place, times s
        da -= (da * att).sum(axis=-2, keepdims=True)
        da *= att
        da *= s
        np.matmul(q, da.swapaxes(-1, -2), out=dk)
        np.matmul(k, da, out=dq)
        return (dqkv.reshape(qkv.data.shape),)

    return _node(out, "attention", (qkv,), vjp)


def fuse_modulate(ctx: Var, v: Var, mode: str = "reshape", combine: str = "mul") -> Var:
    out = K.fuse_modulate(ctx.data, v.data, mode=mode, combine=combine)

    def vjp(g):
        return K.fuse_modulate_vjp(ctx.data, v.data, combine, g)

    return _node(out, "fuse_modulate", (ctx, v), vjp)


def modulate(ctx: Var, x: Var, v_w, v_b, p_w, p_b, mode="reshape", combine="mul") -> Var:
    """p(fuse_modulate(ctx, v(x))) for pointwise maps v, p. Under no_grad each row band
    (K.row_bands) of v is made, overwritten by its product and projected; the projection is
    written into ctx.data when that is a writeable C-contiguous array of the output's shape and
    dtype (band rs of ctx is overwritten after its product has read it), so ctx is consumed.
    Taped, it is one band into a fresh output, and the node keeps v, not the product: the VJP
    remakes that for dp_w alone."""
    xd, cd, rc, taped = x.data, ctx.data, v_w.data.shape[0], _grad_enabled
    n, _, h, w = xd.shape
    bands = [slice(0, h)] if taped else K.row_bands(h, n * rc * w * xd.itemsize)
    buf = np.empty(n * rc * bands[0].stop * w, xd.dtype)
    shape, f = (n, p_w.data.shape[0], h, w), cd.flags
    fits = cd.shape == shape and cd.dtype == xd.dtype and f.writeable and f.c_contiguous
    out = cd if fits and not taped else np.empty(shape, xd.dtype)
    for rs in bands:
        band = buf[: n * rc * (rs.stop - rs.start) * w].reshape(n, rc, -1, w)
        v = K.pointwise(xd[:, :, rs], v_w.data, v_b.data, out=band)
        prod = K.fuse_modulate(cd[:, :, rs], v, mode, combine, out=None if taped else v)
        K.pointwise(prod, p_w.data, p_b.data, out=out[:, :, rs])

    def vjp(g):  # runs once: v and the remade product each go after their last read
        nonlocal v
        c, op = ctx.data.shape[1], np.multiply if combine == "mul" else np.add
        # Remake the product as the operand np.tensordot hands np.dot, so dp_w keeps its
        # bits: a view of the product itself at n == 1, else a [n, h, w, rc] copy.
        prod = np.empty_like(v) if n == 1 else np.empty((n, h, w, rc), v.dtype).transpose(0, 3, 1, 2)
        for i in range(0, rc, c):  # one r-slice at a time
            prod[:, i : i + c] = op(v[:, i : i + c], ctx.data)
        dpw = np.tensordot(g, prod, axes=([0, 2, 3], [0, 2, 3]))
        prod = None
        dprod = np.matmul(p_w.data.T, g.reshape(n, -1, h * w)).reshape(v.shape)
        d5 = dprod.reshape(n, -1, c, h, w)
        if combine == "sum":
            v, dctx = None, d5.sum(axis=1)
        else:
            v *= dprod  # v's last read: dctx sums v * dprod over the r-slices
            v, dctx = None, v.reshape(d5.shape).sum(axis=1)
            for i in range(d5.shape[1]):  # per r-slice: a broadcast over r buffers a whole map
                d5[:, i] *= ctx.data
        dx, dvw, dvb = K.pointwise_vjp(xd, v_w.data, dprod)
        return dctx, dx, dvw, dvb, dpw, g.sum(axis=(0, 2, 3))

    return _node(out, "modulate", (ctx, x, v_w, v_b, p_w, p_b), vjp)


def global_avg_pool(x: Var) -> Var:
    out = K.global_avg_pool(x.data)
    n, c, h, w = x.data.shape

    def vjp(g):
        return (np.broadcast_to(g / (h * w), x.data.shape).copy(),)

    return _node(out, "global_avg_pool", (x,), vjp)


def cross_entropy(logits: Var, labels: np.ndarray) -> Var:
    """Mean softmax cross-entropy from raw logits [n, k] and int labels [n] in [0, k)."""
    z, labels = logits.data, np.asarray(labels)
    if z.ndim != 2:
        raise PreconditionError(f"logits: expected [n, classes], got {z.shape}")
    n, k = z.shape
    # numpy would score a label of -1 as the last class and end a label >= k in an IndexError
    bad = labels.shape != (n,) or labels.dtype.kind not in "iu"
    if bad or n and not 0 <= labels.min() <= labels.max() < k:
        raise PreconditionError(
            f"labels: expected {n} ints in [0, {k}), got {labels.dtype} {labels.shape}"
        )
    zmax = z.max(axis=1, keepdims=True)
    lse = zmax[:, 0] + np.log(np.exp(z - zmax).sum(axis=1))
    loss = np.asarray((lse - z[np.arange(n), labels]).mean())

    def vjp(g):
        p = K.softmax(z, axis=1)
        p[np.arange(n), labels] -= 1.0
        return (g * p / n,)

    return _node(loss, "cross_entropy", (logits,), vjp)


# ------------------------------------------------------ finite differences


FD_EPS = 1e-5  # central-difference step
REL_ERR_FLOOR = 1e-8  # the smallest denominator of grad_check's relative error


def finite_diff_grad(f, x: np.ndarray) -> np.ndarray:
    """Central-difference gradient of scalar f at x, one entry at a time; O(2*size) evals."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + FD_EPS
        fp = float(f(x))
        flat[i] = orig - FD_EPS
        fm = float(f(x))
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * FD_EPS)
    return g


@dataclass
class GradCheckRow:
    name: str
    max_rel_err: float
    size: int
    ok: bool


@dataclass
class GradCheckReport:
    """Per-leaf comparison of tape gradients against central differences."""

    rows: list[GradCheckRow] = field(default_factory=list)
    tol: float = 1e-5

    @property
    def passed(self) -> bool:
        return all(r.ok for r in self.rows)

    @property
    def max_rel_err(self) -> float:
        return max((r.max_rel_err for r in self.rows), default=0.0)

    def to_text(self) -> str:
        width = max([len(r.name) for r in self.rows] + [9])
        lines = [f"{'parameter':<{width}}  {'elems':>6}  {'max rel err':>12}  status"]
        for r in self.rows:
            status = "ok" if r.ok else "FAIL"
            lines.append(f"{r.name:<{width}}  {r.size:>6}  {r.max_rel_err:>12.3e}  {status}")
        verdict = "PASS" if self.passed else "FAIL"
        lines.append(f"{verdict}: max rel err {self.max_rel_err:.3e} (tol {self.tol:.0e})")
        return "\n".join(lines)


def _rel_err(a: np.ndarray, n: np.ndarray) -> float:
    denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), REL_ERR_FLOOR)
    return float((np.abs(a - n) / denom).max())


def grad_check(f, leaves: dict, tol: float = 1e-5) -> GradCheckReport:
    """Certify tape gradients of f against central differences, leaf by leaf.

    f takes no arguments and builds a Var (summed if non-scalar) from the leaf Vars in
    leaves, whose .grad it overwrites. Each leaf's .data is perturbed in place and restored:
    it must be a writeable C-contiguous float64 array, so that no copy takes the perturbation.
    """
    for name, v in leaves.items():
        if v.op != "leaf":
            raise PreconditionError(f"{name}: a {v.op} node has tape parents; pass a leaf")
        a = v.data
        if a.dtype != np.float64 or not (a.flags.c_contiguous and a.flags.writeable):
            raise PreconditionError(
                f"{name}: want a writeable C-contiguous float64 array, got {a.dtype} {a.shape}"
            )
    for v in leaves.values():
        v.grad = None
    out = f()
    backward(out if out.data.ndim == 0 else sum_all(out))

    def scalar_eval(_):  # finite_diff_grad perturbs a leaf's own data, which f reads
        with no_grad():
            return float(f().data.sum())

    report = GradCheckReport(tol=tol)
    for name, v in leaves.items():
        analytic = np.zeros_like(v.data) if v.grad is None else v.grad
        err = _rel_err(analytic, finite_diff_grad(scalar_eval, v.data))
        report.rows.append(GradCheckRow(name=name, max_rel_err=err, size=v.data.size, ok=err < tol))
    return report
