"""Training loop: data generation, optimizer semantics, reproducibility."""

import numpy as np
import pytest

from effmod import autodiff as ad
from effmod import model as M
from effmod import trainer as T
from effmod.errors import ConfigError, NumericalError


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


def test_split_deterministic_and_disjoint():
    ds = T.gen_dataset(1, n=80)
    (tr_x, tr_y), (ev_x, ev_y) = T.split_dataset(ds, eval_frac=0.25, seed=2)
    (tr_x2, _), (ev_x2, _) = T.split_dataset(ds, eval_frac=0.25, seed=2)
    assert tr_x.tobytes() == tr_x2.tobytes()
    assert ev_x.tobytes() == ev_x2.tobytes()
    assert len(tr_y) == 60 and len(ev_y) == 20
    # recover indices by matching rows; train and eval must not overlap
    flat = {ds.images[i].tobytes(): i for i in range(ds.n)}
    tr_idx = {flat[row.tobytes()] for row in tr_x}
    ev_idx = {flat[row.tobytes()] for row in ev_x}
    assert not (tr_idx & ev_idx)
    assert len(tr_idx | ev_idx) == 80


def test_training_and_eval_cast_images_to_the_model_dtype():
    """The f32 dataset is cast to the model's dtype, so an f32 model trains and evaluates in f32."""
    ds = T.gen_dataset(0, n=64)
    m = M.build_model(M.build_preset("micro"), seed=0, dtype=np.float32)
    hist = T.train(m, ds, epochs=1, seed=0)
    assert np.isfinite(hist.epochs[0].train_loss)
    assert all(v.data.dtype == np.float32 for _, v in m.named_parameters())
    (_, _), (ev_x, ev_y) = T.split_dataset(ds, eval_frac=0.2, seed=0)
    assert T._accuracy(m, ev_x, ev_y) == hist.final_eval_acc


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
    a = T._accuracy(model, ds.images, ds.labels)
    b = T._accuracy(model, ds.images, ds.labels)
    assert a == b


def test_divergence_aborts_with_context():
    with np.errstate(all="ignore"):
        with pytest.raises(NumericalError, match="non-finite at step"):
            T.train_micro(seed=0, epochs=1, lr=1e30, n=64)


def test_train_rejects_zero_epochs():
    model = M.build_model(M.build_preset("micro"), seed=0, dtype=np.float64)
    with pytest.raises(ConfigError):
        T.train(model, T.gen_dataset(0, n=16), epochs=0)


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
