"""Training loop: data generation, optimizer semantics, reproducibility."""

import tracemalloc

import numpy as np
import pytest

from effmod import autodiff as ad
from effmod import model as M
from effmod import trainer as T
from effmod.errors import ConfigError, NumericalError, PreconditionError


# ----------------------------------------------------------------- data


def test_dataset_deterministic_per_seed():
    a = T.gen_dataset(5, n=64)
    b = T.gen_dataset(5, n=64)
    assert a.images.tobytes() == b.images.tobytes()
    assert np.array_equal(a.labels, b.labels)
    c = T.gen_dataset(6, n=64)
    assert a.images.tobytes() != c.images.tobytes()


def test_dataset_balanced_and_shaped():
    ds = T.gen_dataset(0, n=128, classes=4)
    assert ds.images.shape == (128, 3, 32, 32)
    assert ds.images.dtype == np.float32
    assert ds.labels.shape == (128,)
    assert np.bincount(ds.labels, minlength=4).tolist() == [32, 32, 32, 32]
    assert ds.classes == 4
    assert ds.n == 128


def test_dataset_rejects_unbalanced_n():
    with pytest.raises(ConfigError):
        T.gen_dataset(0, n=63, classes=4)
    with pytest.raises(ConfigError):
        T.gen_dataset(0, n=2, classes=4)


def test_dataset_size_is_checked_against_the_activation_budget(monkeypatch):
    monkeypatch.setattr(M, "MAX_ACTIVATIONS", 8 * 3 * T.IMG_SIZE**2)
    assert T.gen_dataset(0, n=8).images.size == M.MAX_ACTIVATIONS
    with pytest.raises(ConfigError, match="n=12 images exceed MAX_ACTIVATIONS"):
        T.gen_dataset(0, n=12)


def test_split_deterministic_and_disjoint():
    ds = T.gen_dataset(1, n=80)
    tr, ev = T.split_dataset(ds, 2)
    tr2, ev2 = T.split_dataset(ds, 2)
    assert tr.tobytes() == tr2.tobytes()
    assert ev.tobytes() == ev2.tobytes()
    assert len(tr) == 64 and len(ev) == 16  # EVAL_FRAC = 0.2
    # train and eval must not overlap
    tr_idx, ev_idx = set(tr.tolist()), set(ev.tolist())
    assert not (tr_idx & ev_idx)
    assert len(tr_idx | ev_idx) == 80


def test_training_and_eval_cast_images_to_the_model_dtype():
    """The f32 dataset is cast to the model's dtype, so an f32 model trains and evaluates in f32."""
    ds = T.gen_dataset(0, n=64)
    m = M.build_model(M.build_preset("micro"), seed=0, dtype=np.float32)
    hist = T.train(m, ds, epochs=1, seed=0)
    assert np.isfinite(hist.epochs[0].train_loss)
    assert all(v.data.dtype == np.float32 for _, v in m.named_parameters())
    _, ev = T.split_dataset(ds, 0)
    assert T._accuracy(m, ds, ev, "eval") == hist.final_eval_acc


def test_train_peak_does_not_grow_with_the_dataset():
    """train gathers each batch from the dataset by index: 4x the images, at the same
    batch and eval-batch shapes, adds index arrays to the traced peak, not a copy of
    the images."""

    def peak(n):
        ds = T.gen_dataset(0, n=n)
        m = M.build_model(M.build_preset("micro"), seed=0, dtype=np.float64)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            T.train(m, ds, epochs=1, seed=0)
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    # 256 train + 64 eval images against 1,024 + 256: full batches of 32 and 64 in both
    added = (1280 - 320) * 3 * T.IMG_SIZE**2 * 4
    assert peak(1280) - peak(320) < 0.1 * added


def test_linear_baseline_clears_noiseless_task():
    ds = T.gen_dataset(3, n=256, noise=0.0)
    assert T.linear_baseline(ds) > 0.70


# ------------------------------------------------------------ optimizer


def test_adamw_zero_lr_is_noop():
    model = M.build_model(M.build_preset("micro"), seed=0, dtype=np.float64)
    before = {n: v.data.tobytes() for n, v in model.named_parameters()}
    ds = T.gen_dataset(0, n=64)
    hist = T.train(model, ds, epochs=2, lr=0.0, weight_decay=0.05, seed=0)
    after = {n: v.data.tobytes() for n, v in model.named_parameters()}
    assert before == after
    # per-sample losses are also frozen, so both epoch averages agree exactly
    assert abs(hist.epochs[0].train_loss - hist.epochs[1].train_loss) < 1e-12


def test_adamw_first_step_is_signlike():
    v = ad.Var(np.array([1.0, -2.0, 3.0]))
    v.grad = np.array([0.5, -4.0, 1e-12])
    opt = T.AdamW([("p", v)], weight_decay=0.0)
    opt.step(lr_t=0.1)
    # t=1: mhat == g, vhat == g*g, so the update is ~sign(g) scaled by lr
    delta = v.data - np.array([1.0, -2.0, 3.0])
    np.testing.assert_allclose(delta[:2], [-0.1, 0.1], rtol=1e-6)
    assert abs(delta[2]) < 0.1  # eps dominates a vanishing gradient


class PerArrayAdamW:
    """The per-array AdamW update, one array at a time with fresh temporaries: the
    reference that AdamW's flat in-place update must match bit for bit."""

    def __init__(self, arrays, weight_decay):
        self.params = [a.copy() for a in arrays]
        self.wd = weight_decay
        self.t = 0
        self.m = [np.zeros_like(a) for a in self.params]
        self.v = [np.zeros_like(a) for a in self.params]

    def step(self, grads, lr_t):
        b1, b2, eps = T.AdamW.b1, T.AdamW.b2, T.AdamW.eps
        self.t += 1
        bc1 = 1.0 - b1**self.t
        bc2 = 1.0 - b2**self.t
        for i, (p, g) in enumerate(zip(self.params, grads)):
            self.m[i] = b1 * self.m[i] + (1.0 - b1) * g
            self.v[i] = b2 * self.v[i] + (1.0 - b2) * (g * g)
            mhat = self.m[i] / bc1
            vhat = self.v[i] / bc2
            self.params[i] = p - lr_t * (mhat / (np.sqrt(vhat) + eps) + self.wd * p)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_flat_adamw_matches_the_per_array_formula_bit_for_bit(dtype):
    model = M.build_model(M.build_preset("micro"), seed=2, dtype=dtype)
    ds = T.gen_dataset(2, n=16)
    x = ds.images.astype(dtype)
    oracle = PerArrayAdamW([v.data for _, v in model.named_parameters()], weight_decay=0.05)
    opt = T.AdamW(model.named_parameters(), weight_decay=0.05)
    for step in range(5):
        logits = M.model_forward(model, x, training=True, seed=2, step=step)
        opt.zero_grad()
        ad.backward(ad.cross_entropy(logits, ds.labels))
        lr_t = T.cosine_lr(3e-3, step, 5)
        oracle.step([v.grad for _, v in model.named_parameters()], lr_t)
        opt.step(lr_t)
        for (name, v), want in zip(model.named_parameters(), oracle.params):
            assert v.data.dtype == dtype, (step, name)
            assert v.data.tobytes() == want.tobytes(), (step, name)


def test_adamw_keeps_each_parameter_array_across_steps():
    model = M.build_model(M.build_preset("micro"), seed=0, dtype=np.float64)
    opt = T.AdamW(model.named_parameters(), weight_decay=0.05)
    arrays = {name: v.data for name, v in model.named_parameters()}
    before = opt.flat.copy()
    for _ in range(2):
        for _, v in model.named_parameters():
            v.grad = np.ones_like(v.data)
        opt.step(1e-3)
    assert not np.array_equal(opt.flat, before)
    for name, v in model.named_parameters():
        assert v.data is arrays[name] and v.data.base is opt.flat, name


def _two_param_adamw():
    a, b = ad.Var(np.ones(3)), ad.Var(np.full((2, 2), 2.0))
    opt = T.AdamW([("a", a), ("b", b)], weight_decay=0.05)
    a.grad, b.grad = np.ones(3), np.ones((2, 2))
    return opt, a, b


def test_adamw_step_without_a_gradient_raises_and_changes_nothing():
    opt, _, b = _two_param_adamw()
    b.grad = None
    before = opt.flat.copy()
    with pytest.raises(PreconditionError, match="parameter b has no gradient"):
        opt.step(1e-3)
    assert np.array_equal(opt.flat, before) and opt.t == 0


def test_adamw_step_on_a_rebound_parameter_raises():
    opt, _, b = _two_param_adamw()
    b.data = np.zeros((2, 2))  # rebinding, not writing in place, leaves the flat buffer
    with pytest.raises(PreconditionError, match="parameter b no longer views AdamW.flat"):
        opt.step(1e-3)


def test_adamw_rejects_parameters_of_mixed_dtypes():
    a, b = ad.Var(np.ones(3)), ad.Var(np.ones(2, dtype=np.float32))
    with pytest.raises(PreconditionError, match="b is float32"):
        T.AdamW([("a", a), ("b", b)])


def test_single_step_reduces_single_sample_loss():
    model = M.build_model(M.build_preset("micro"), seed=1, dtype=np.float64)
    ds = T.gen_dataset(1, n=4)
    x = ds.images[:1].astype(np.float64)
    y = ds.labels[:1]
    opt = T.AdamW(model.named_parameters(), weight_decay=0.0)

    def loss_val():
        with ad.no_grad():
            return float(ad.cross_entropy(M.model_forward(model, x), y).data)

    before = loss_val()
    loss = ad.cross_entropy(M.model_forward(model, x), y)
    opt.zero_grad()
    ad.backward(loss)
    opt.step(lr_t=1e-3)
    assert loss_val() < before


def test_backward_reaches_every_parameter():
    model = M.build_model(M.build_preset("micro"), seed=0, dtype=np.float64)
    ds = T.gen_dataset(0, n=8)
    loss = ad.cross_entropy(
        M.model_forward(model, ds.images.astype(np.float64)), ds.labels
    )
    ad.backward(loss)
    for name, v in model.named_parameters():
        assert v.grad is not None, name
        assert np.abs(v.grad).max() > 0, name


def test_cosine_schedule_endpoints():
    assert T.cosine_lr(0.1, 0, 100) == pytest.approx(0.1)
    assert T.cosine_lr(0.1, 50, 100) == pytest.approx(0.05)
    assert T.cosine_lr(0.1, 100, 100) == pytest.approx(0.0, abs=1e-17)
    vals = [T.cosine_lr(0.1, s, 100) for s in range(101)]
    assert all(b <= a for a, b in zip(vals, vals[1:]))


# ------------------------------------------------------------- training


def test_histories_bit_identical_across_runs():
    _, h1 = T.train_micro(seed=3, epochs=2, n=128)
    _, h2 = T.train_micro(seed=3, epochs=2, n=128)
    assert h1.to_csv() == h2.to_csv()


def test_history_csv_format():
    _, hist = T.train_micro(seed=0, epochs=1, n=64)
    text = hist.to_csv()
    lines = text.strip().split("\n")
    header = [ln for ln in lines if ln.startswith("#")]
    assert any("lr" in ln for ln in header)
    assert any("combine" in ln for ln in header)
    assert "epoch,train_loss,train_acc,eval_acc" in lines
    assert lines[-1].startswith("0,")
    assert hist.final_eval_acc == hist.best_eval_acc
    assert hist.final_eval_acc == pytest.approx(float(lines[-1].split(",")[3]), abs=1e-6)


def test_eval_accuracy_is_pure():
    model = M.build_model(M.build_preset("micro"), seed=0, dtype=np.float64)
    ds = T.gen_dataset(0, n=32)
    a = T._accuracy(model, ds, np.arange(ds.n), "eval")
    b = T._accuracy(model, ds, np.arange(ds.n), "eval")
    assert a == b


def test_divergence_aborts_with_context():
    with np.errstate(all="ignore"):
        with pytest.raises(NumericalError, match="non-finite at step"):
            T.train_micro(seed=0, epochs=1, lr=1e30, n=64)


def test_train_rejects_zero_epochs():
    model = M.build_model(M.build_preset("micro"), seed=0, dtype=np.float64)
    with pytest.raises(ConfigError):
        T.train(model, T.gen_dataset(0, n=16), epochs=0)


def test_train_refuses_a_dataset_with_no_training_image(monkeypatch):
    """One image splits into no train and one eval image: the epoch's mean loss divided by zero."""
    model = M.build_model(M.build_preset("micro"), seed=0, dtype=np.float64)
    monkeypatch.setattr(T, "AdamW", None)  # refused before the optimizer is built
    with pytest.raises(ConfigError, match="1-image dataset leaves no training image"):
        T.train(model, T.gen_dataset(0, n=1, classes=1), epochs=1)


@pytest.mark.parametrize("kw", [
    {"batch_size": 0}, {"batch_size": -4}, {"batch_size": 2.5}, {"batch_size": True},
    {"epochs": -1}, {"epochs": 1.5},
])
def test_train_refuses_sizes_that_are_not_positive_ints(kw):
    """A zero batch divided by zero, a negative one trained zero steps silently and a float one
    raised TypeError; each is now a ConfigError naming the argument, before any step."""
    model = M.build_model(M.build_preset("micro"), seed=0, dtype=np.float64)
    before = [v.data.tobytes() for _, v in model.named_parameters()]
    name = next(iter(kw))
    with pytest.raises(ConfigError, match=f"{name} must be a positive int"):
        T.train(model, T.gen_dataset(0, n=8), **{"epochs": 1, **kw})
    assert [v.data.tobytes() for _, v in model.named_parameters()] == before


@pytest.mark.parametrize("kw", [{"classes": 0}, {"classes": -2}, {"classes": 2.0}, {"n": 8.0},
                                {"n": 0, "classes": 1}])
def test_dataset_refuses_counts_that_are_not_positive_ints(kw):
    name = "n" if "n" in kw else "classes"
    with pytest.raises(ConfigError, match=f"{name} must be a positive int"):
        T.gen_dataset(0, **{"n": 8, **kw})


# ------------------------------------------------------------- ablation


def test_ablate_fusion_pairs_up():
    out = T.ablate_fusion(seed=0, epochs=2, n=64)
    assert set(out) == {"mul", "sum"}
    assert out["mul"].hyperparams["combine"] == "mul"
    assert out["sum"].hyperparams["combine"] == "sum"
    assert len(out["mul"].epochs) == len(out["sum"].epochs) == 2
    text = T.paired_csv(out)
    lines = text.strip().split("\n")
    assert lines[0] == (
        "epoch,mul_loss,mul_train_acc,mul_eval_acc,sum_loss,sum_train_acc,sum_eval_acc"
    )
    assert len(lines) == 3
    for ln in lines[1:]:
        vals = [float(v) for v in ln.split(",")]
        assert all(np.isfinite(vals))


def test_paired_csv_rejects_length_mismatch():
    _, short = T.train_micro(seed=0, epochs=1, n=64)
    _, long = T.train_micro(seed=0, epochs=2, n=64)
    with pytest.raises(ConfigError):
        T.paired_csv({"mul": short, "sum": long})
