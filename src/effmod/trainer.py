"""Desk-scale training on a synthetic shape task.

The dataset is 4-way oriented-bar classification at 32x32: each image is a
full-length bar through a jittered center point at angle k*45deg, plus white
noise. It is deliberately easy (a least-squares pixel classifier clears 70%
on the noiseless variant) so the micro model can certify the training loop,
not fight the task.

Recipe: AdamW (betas 0.9, 0.999, eps 1e-8) with decoupled weight decay, stepping all
parameters in place as one flat buffer; cosine learning-rate decay to zero over all
steps, a fixed 20% eval split and batch order per seed, float64 parameters.
Bit-for-bit reproducible per seed within a process. A non-finite loss aborts
with step/lr diagnostics rather than training through NaNs.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import model as M
from .autodiff import Var, no_grad
from .errors import ConfigError, NumericalError, PreconditionError

IMG_SIZE = 32
BAR_JITTER = 2.0  # the bar's offset from the center is uniform in +-BAR_JITTER pixels
BAR_THICKNESS = 2.5  # a pixel d from the line has intensity clip(BAR_THICKNESS - d, 0, 1)
EVAL_FRAC = 0.2  # share of a dataset held out for eval
EVAL_BATCH = 64  # images per eval forward


@dataclass
class SyntheticDataset:
    seed: int
    images: np.ndarray  # [n, 3, 32, 32] float32
    labels: np.ndarray  # [n] int64

    @property
    def n(self) -> int:
        return self.images.shape[0]

    @property
    def classes(self) -> int:
        return int(self.labels.max()) + 1


def _check_counts(**counts) -> None:
    """Each named count must be a positive int; a bool or a float is refused too."""
    for name, v in counts.items():
        if isinstance(v, bool) or not isinstance(v, int) or v < 1:
            raise ConfigError(f"{name} must be a positive int, got {v!r}")


def gen_dataset(seed: int, n: int = 512, classes: int = 4, noise: float = 0.05) -> SyntheticDataset:
    """Balanced oriented-bar images; class k is a bar at angle k*180/classes deg, offset
    by up to BAR_JITTER and BAR_THICKNESS wide, plus white noise of std noise."""
    _check_counts(n=n, classes=classes)
    if n < classes or n % classes != 0:
        raise ConfigError(f"n={n} must be a positive multiple of classes={classes}")
    if n * 3 * IMG_SIZE**2 > M.MAX_ACTIVATIONS:  # before anything is allocated
        raise ConfigError(f"n={n} images exceed MAX_ACTIVATIONS = {M.MAX_ACTIVATIONS:,} elements")
    if not 0 <= noise < np.inf:  # a NaN noise would skip the noise silently
        raise ConfigError(f"noise must be finite and >= 0, got {noise}")
    rng = np.random.default_rng(seed)
    yy, xx = np.mgrid[0:IMG_SIZE, 0:IMG_SIZE].astype(np.float64)
    cx = cy = (IMG_SIZE - 1) / 2.0
    labels = np.repeat(np.arange(classes), n // classes)
    labels = labels[rng.permutation(n)]
    images = np.empty((n, 3, IMG_SIZE, IMG_SIZE), dtype=np.float32)
    for i, k in enumerate(labels):
        theta = np.pi * k / classes
        offset = rng.uniform(-BAR_JITTER, BAR_JITTER)
        # signed distance to the line through (cx,cy)+offset*normal at angle theta
        dist = np.abs(-np.sin(theta) * (xx - cx) + np.cos(theta) * (yy - cy) - offset)
        bar = np.clip(BAR_THICKNESS - dist, 0.0, 1.0)
        img = np.broadcast_to(bar, (3, IMG_SIZE, IMG_SIZE)).copy()
        if noise > 0:
            img += noise * rng.standard_normal((3, IMG_SIZE, IMG_SIZE))
        images[i] = img.astype(np.float32)
    return SyntheticDataset(seed=seed, images=images, labels=labels.astype(np.int64))


def split_dataset(ds: SyntheticDataset, seed: int):
    """Deterministic train/eval split of one dataset, EVAL_FRAC of it for eval, as
    (train_idx, eval_idx) into ds: callers gather each batch, so no split copy is made."""
    idx = np.random.default_rng((seed, ds.seed)).permutation(ds.n)
    n_eval = max(1, int(round(ds.n * EVAL_FRAC)))
    return idx[n_eval:], idx[:n_eval]


# ---------------------------------------------------------------- history


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    train_acc: float
    eval_acc: float


@dataclass
class TrainHistory:
    hyperparams: dict
    epochs: list = field(default_factory=list)

    @property
    def final_eval_acc(self) -> float:
        return self.epochs[-1].eval_acc if self.epochs else 0.0

    @property
    def best_eval_acc(self) -> float:
        return max((e.eval_acc for e in self.epochs), default=0.0)

    def to_csv(self) -> str:
        buf = io.StringIO()
        for k in sorted(self.hyperparams):
            buf.write(f"# {k}: {self.hyperparams[k]}\n")
        buf.write("epoch,train_loss,train_acc,eval_acc\n")
        for e in self.epochs:
            buf.write(f"{e.epoch},{e.train_loss:.6f},{e.train_acc:.6f},{e.eval_acc:.6f}\n")
        return buf.getvalue()


# ----------------------------------------------------------------- AdamW


class AdamW:
    """Decoupled-weight-decay Adam over the model's named parameters, with fixed betas
    and eps; step(lr_t) takes each step's learning rate from the schedule.

    The parameters become views of one flat buffer, `flat`, kept for the optimizer's
    life; step updates it in place in the per-array formula's order, so bit for bit.
    Write .data in place (v.data[...] =). Mixed dtypes, and at step a missing .grad
    or a .data off `flat`, raise PreconditionError naming the parameter.
    """

    b1, b2, eps = 0.9, 0.999, 1e-8

    def __init__(self, params, weight_decay=0.05):
        self.params = list(params)  # [(name, Var)]
        self.wd = weight_decay
        self.t = 0
        for name, q in self.params:
            if q.dtype != self.params[0][1].dtype:
                raise PreconditionError(f"AdamW: parameters mix dtypes; {name} is {q.dtype}")
        self.flat = np.concatenate([q.data.ravel() for _, q in self.params])
        for (_, q), end in zip(self.params, np.cumsum([q.data.size for _, q in self.params])):
            q.data = self.flat[end - q.data.size : end].reshape(q.shape)
        self.m, self.v = np.zeros_like(self.flat), np.zeros_like(self.flat)

    def step(self, lr_t: float):
        for name, q in self.params:
            if q.grad is None or q.data.base is not self.flat:
                what = "has no gradient" if q.grad is None else "no longer views AdamW.flat"
                raise PreconditionError(f"AdamW.step: parameter {name} {what}")
        self.t += 1
        bc1 = 1.0 - self.b1**self.t
        bc2 = 1.0 - self.b2**self.t
        g = np.concatenate([q.grad.ravel() for _, q in self.params])
        s = np.multiply(g, g)  # g and s are the step's only parameter-sized temporaries
        self.m *= self.b1
        self.m += np.multiply(g, 1.0 - self.b1, out=g)
        self.v *= self.b2
        self.v += np.multiply(s, 1.0 - self.b2, out=s)
        np.divide(self.m, bc1, out=g)  # mhat / (sqrt(vhat) + eps) + wd * p
        g /= np.add(np.sqrt(np.divide(self.v, bc2, out=s), out=s), self.eps, out=s)
        g += np.multiply(self.flat, self.wd, out=s)
        g *= lr_t
        self.flat -= g

    def zero_grad(self):
        for _, p in self.params:
            p.grad = None


def cosine_lr(base_lr: float, step: int, total_steps: int) -> float:
    frac = min(step / total_steps, 1.0)
    return float(base_lr * 0.5 * (1.0 + np.cos(np.pi * frac)))  # a numpy scalar would promote f32


# ----------------------------------------------------------------- train


def _accuracy(model, ds: SyntheticDataset, idx: np.ndarray, where: str) -> float:
    correct = 0
    for i in range(0, len(idx), EVAL_BATCH):
        sel = idx[i : i + EVAL_BATCH]
        xb = ds.images[sel].astype(model.dtype, copy=False)
        with no_grad(), np.errstate(all="ignore"):  # non-finite logits raise below
            logits = M.model_forward(model, xb).data
        if not np.isfinite(logits).all():
            raise NumericalError(f"logits became non-finite ({where})")
        correct += int((logits.argmax(axis=1) == ds.labels[sel]).sum())
    return correct / len(idx)


def train(
    model: M.Model,
    dataset: SyntheticDataset,
    epochs: int = 30,
    lr: float = 3e-3,
    weight_decay: float = 0.05,
    seed: int = 0,
    batch_size: int = 32,
    log=None,
) -> TrainHistory:
    """Train in place; returns the per-epoch history.

    The dataset is split 80/20 train/eval deterministically from (seed,
    dataset seed). Raises NumericalError with step and lr context if the loss
    or the eval logits go non-finite.
    """
    _check_counts(epochs=epochs, batch_size=batch_size)
    for name, v in (("lr", lr), ("weight_decay", weight_decay)):
        if not 0 <= v < np.inf:
            raise ConfigError(f"{name} must be finite and >= 0, got {v}")
    tr_idx, ev_idx = split_dataset(dataset, seed)
    n_train = len(tr_idx)
    if not n_train:
        raise ConfigError(f"a {dataset.n}-image dataset leaves no training image after the eval split")
    opt = AdamW(model.named_parameters(), weight_decay=weight_decay)
    steps_per_epoch = (n_train + batch_size - 1) // batch_size
    total_steps = epochs * steps_per_epoch
    order_rng = np.random.default_rng((seed, 1))
    history = TrainHistory(
        hyperparams={
            "epochs": epochs, "lr": lr, "weight_decay": weight_decay, "seed": seed,
            "batch_size": batch_size, "n_train": n_train, "n_eval": len(ev_idx),
            "optimizer": f"adamw({AdamW.b1},{AdamW.b2})", "schedule": "cosine",
            "combine": model.combine,
        },
    )
    step = 0
    for epoch in range(epochs):
        order = order_rng.permutation(n_train)
        loss_sum = 0.0
        correct = 0
        for bi in range(steps_per_epoch):
            sel = tr_idx[order[bi * batch_size : (bi + 1) * batch_size]]
            xb = dataset.images[sel].astype(model.dtype, copy=False)
            yb = dataset.labels[sel]
            logits = M.model_forward(model, xb, training=True, seed=seed, step=step)
            loss = ad.cross_entropy(logits, yb)
            loss_val = float(loss.data)
            lr_t = cosine_lr(lr, step, total_steps)
            if not np.isfinite(loss_val):
                raise NumericalError(
                    f"loss became non-finite at step {step} (epoch {epoch}, lr {lr_t:.3e})"
                )
            opt.zero_grad()
            ad.backward(loss)
            opt.step(lr_t)
            loss_sum += loss_val * len(sel)
            correct += int((logits.data.argmax(axis=1) == yb).sum())
            step += 1
        stats = EpochStats(
            epoch=epoch,
            train_loss=loss_sum / n_train,
            train_acc=correct / n_train,
            eval_acc=_accuracy(model, dataset, ev_idx, f"eval after epoch {epoch}, lr {lr:.3e}"),
        )
        history.epochs.append(stats)
        if log is not None:
            log(
                f"epoch {epoch:3d}  loss {stats.train_loss:.4f}  "
                f"train acc {stats.train_acc:.3f}  eval acc {stats.eval_acc:.3f}"
            )
    return history


def train_micro(
    seed: int = 0,
    epochs: int = 30,
    lr: float = 3e-3,
    weight_decay: float = 0.05,
    n: int = 512,
    noise: float = 0.05,
    combine: str = "mul",
    log=None,
):
    """Build the micro preset and train it on a fresh bars dataset; returns (model, history)."""
    spec = M.build_preset("micro")
    model = M.build_model(spec, seed=seed, dtype=np.float64, combine=combine)
    ds = gen_dataset(seed, n=n, classes=spec.head, noise=noise)
    history = train(
        model, ds, epochs=epochs, lr=lr, weight_decay=weight_decay, seed=seed, log=log
    )
    return model, history


def ablate_fusion(seed: int = 0, epochs: int = 30, n: int = 512, log=None) -> dict:
    """Train the same micro init with multiplicative vs additive fusion, at train_micro's
    default lr, weight decay and noise.

    Both runs share the seed, so they start from bit-identical parameters and
    see identical batches; the only difference is the fuse op. Returns
    {"mul": TrainHistory, "sum": TrainHistory}.
    """
    out = {}
    for combine in ("mul", "sum"):
        if log is not None:
            log(f"--- fusion variant: {combine} ---")
        _, hist = train_micro(seed=seed, epochs=epochs, n=n, combine=combine, log=log)
        out[combine] = hist
    return out


def paired_csv(histories: dict) -> str:
    """Side-by-side CSV of the mul/sum ablation histories."""
    mul, add = histories["mul"], histories["sum"]
    if len(mul.epochs) != len(add.epochs):
        raise ConfigError("paired histories must have the same epoch count")
    buf = io.StringIO()
    buf.write("epoch,mul_loss,mul_train_acc,mul_eval_acc,sum_loss,sum_train_acc,sum_eval_acc\n")
    for a, b in zip(mul.epochs, add.epochs):
        buf.write(
            f"{a.epoch},{a.train_loss:.6f},{a.train_acc:.6f},{a.eval_acc:.6f},"
            f"{b.train_loss:.6f},{b.train_acc:.6f},{b.eval_acc:.6f}\n"
        )
    return buf.getvalue()


def linear_baseline(ds: SyntheticDataset) -> float:
    """Least-squares pixel classifier accuracy (seed-0 split); certifies the task is learnable."""
    tr, ev = split_dataset(ds, 0)
    X = ds.images[tr].reshape(len(tr), -1).astype(np.float64)
    X = np.hstack([X, np.ones((len(X), 1))])
    Y = np.eye(ds.classes)[ds.labels[tr]]
    W, *_ = np.linalg.lstsq(X, Y, rcond=None)
    Xe = ds.images[ev].reshape(len(ev), -1).astype(np.float64)
    Xe = np.hstack([Xe, np.ones((len(Xe), 1))])
    pred = (Xe @ W).argmax(axis=1)
    return float((pred == ds.labels[ev]).mean())
