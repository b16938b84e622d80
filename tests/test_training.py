"""Optimization loop tests on a miniature world."""

import csv
import dataclasses

import numpy as np
import pytest

from cfswarm.data import generate_dataset
from cfswarm.errors import ConfigError, NumericError
from cfswarm.losses import LossWeights
from cfswarm.model import CrnModel, ModelVariant
from cfswarm.optim import load_checkpoint
from cfswarm import training
from cfswarm.training import TrainConfig, train, validation_loss

from test_model import SMALL, small_cfg


@pytest.fixture(scope="module")
def mini_ds():
    return generate_dataset(small_cfg(), n_train=8, n_val=3, n_test=2, seed=0)


def make_cfg(**kw):
    base = dict(epochs=2, batch_size=8, micro_batch=4, lr=1e-3, seed=0)
    base.update(kw)
    return TrainConfig(**base)


def test_train_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(epochs=-1).validate()
    with pytest.raises(ConfigError):
        TrainConfig(batch_size=0).validate()
    with pytest.raises(ConfigError):
        TrainConfig(lr=0.0).validate()
    with pytest.raises(ConfigError):
        TrainConfig(weights=LossWeights(alpha=-1.0)).validate()


def test_zero_epochs_returns_initial_params(mini_ds):
    model = CrnModel(ModelVariant.TGV_CRN, mini_ds.cfg, SMALL)
    best, summary = train(model, mini_ds, make_cfg(epochs=0))
    init = model.init_store(0)
    assert best.params.keys() == init.params.keys()
    for name in init.params:
        assert np.array_equal(best.params[name].array,
                              init.params[name].array)
    assert summary["best_epoch"] == 0
    assert summary["rows"] == []
    assert summary["clip_events"] == 0
    assert summary["variant"] == "tgv_crn"


def test_training_is_deterministic(mini_ds):
    def run():
        model = CrnModel(ModelVariant.TGV_CRN, mini_ds.cfg, SMALL)
        return train(model, mini_ds, make_cfg(epochs=2))

    best1, sum1 = run()
    best2, sum2 = run()
    assert sum1["rows"] == sum2["rows"]
    assert sum1["best_val"] == sum2["best_val"]
    for name in best1.params:
        assert np.array_equal(best1.params[name].array,
                              best2.params[name].array)


def test_training_reduces_validation_loss(mini_ds):
    model = CrnModel(ModelVariant.TG_CRN, mini_ds.cfg, SMALL)
    _, summary = train(model, mini_ds, make_cfg(epochs=4, lr=1e-2))
    assert len(summary["rows"]) == 4
    assert summary["best_val"] < summary["initial_val"]["total"]
    assert summary["best_epoch"] >= 1
    firsts = summary["rows"][0]
    assert set(firsts) == {"epoch"} \
        | {f"train_{k}" for k in ("l_y", "l_x", "l_a", "l_elbo", "total")} \
        | {f"val_{k}" for k in ("l_y", "l_x", "l_a", "l_elbo", "total")}


def test_micro_batch_split_does_not_change_gradients(mini_ds):
    # deterministic variant, so accumulation order is the only difference
    def run(micro):
        model = CrnModel(ModelVariant.TG_CRN, mini_ds.cfg, SMALL)
        _, summary = train(model, mini_ds,
                           make_cfg(epochs=2, micro_batch=micro, lr=1e-3))
        return summary

    a = run(4)
    b = run(8)
    for ra, rb in zip(a["rows"], b["rows"]):
        for key in ra:
            assert abs(ra[key] - rb[key]) < 1e-9, key


def test_partial_final_batch_handled(mini_ds):
    model = CrnModel(ModelVariant.TG_CRN, mini_ds.cfg, SMALL)
    _, summary = train(model, mini_ds,
                       make_cfg(epochs=1, batch_size=5, micro_batch=3))
    assert len(summary["rows"]) == 1
    assert np.isfinite(summary["rows"][0]["train_total"])


def test_out_dir_artifacts(mini_ds, tmp_path):
    model = CrnModel(ModelVariant.TGV_CRN, mini_ds.cfg, SMALL)
    out = tmp_path / "run"
    best, summary = train(model, mini_ds, make_cfg(epochs=3), str(out))
    with open(out / "loss_log.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 3
    assert [int(r["epoch"]) for r in rows] == [1, 2, 3]
    for logged, kept in zip(rows, summary["rows"]):
        assert abs(float(logged["val_total"]) - kept["val_total"]) < 1e-15

    reloaded = load_checkpoint(str(out / "best"))
    assert reloaded.params.keys() == best.params.keys()
    for name in best.params:
        assert np.array_equal(reloaded.params[name].array,
                              best.params[name].array)
    assert reloaded.meta["variant"] == "tgv_crn"
    last = load_checkpoint(str(out / "last"))
    assert last.params.keys() == best.params.keys()


def test_steps_csv_logs_every_optimizer_step(mini_ds, tmp_path,
                                             monkeypatch):
    model = CrnModel(ModelVariant.TG_CRN, mini_ds.cfg, SMALL)
    runs = []
    for name, clip in (("a", 0.15), ("b", 0.15), ("loose", 1e9)):
        monkeypatch.setattr(training, "CLIP_NORM", clip)
        _, summary = train(model, mini_ds, make_cfg(epochs=3, batch_size=3),
                           str(tmp_path / name))
        runs.append(summary)
    with open(tmp_path / "a" / "steps.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0]) == ["epoch", "step", "grad_norm", "clipped"]
    # 8 episodes in batches of 3: three optimizer steps per epoch
    assert [int(r["epoch"]) for r in rows] == [1, 1, 1, 2, 2, 2, 3, 3, 3]
    assert [int(r["step"]) for r in rows] == list(range(1, 10))
    norms = [float(r["grad_norm"]) for r in rows]
    assert all(np.isfinite(v) and v > 0 for v in norms)
    clipped = [int(r["clipped"]) for r in rows]
    assert clipped == [int(v > 0.15) for v in norms]
    assert sum(clipped) == runs[0]["clip_events"]
    assert 0 < runs[0]["clip_events"] < len(rows)
    assert (tmp_path / "a" / "steps.csv").read_bytes() == \
        (tmp_path / "b" / "steps.csv").read_bytes()
    # the norm is taken before clipping, so it does not depend on CLIP_NORM
    with open(tmp_path / "loose" / "steps.csv", newline="") as fh:
        loose = list(csv.DictReader(fh))
    assert float(loose[0]["grad_norm"]) == norms[0]
    assert sum(int(r["clipped"]) for r in loose) == runs[2]["clip_events"] == 0


def test_clip_events_counted(mini_ds, monkeypatch):
    model = CrnModel(ModelVariant.TG_CRN, mini_ds.cfg, SMALL)
    monkeypatch.setattr(training, "CLIP_NORM", 1e-6)
    _, tight = train(model, mini_ds, make_cfg(epochs=2))
    assert tight["clip_events"] == 2  # one batch per epoch, always clipped
    model = CrnModel(ModelVariant.TG_CRN, mini_ds.cfg, SMALL)
    monkeypatch.setattr(training, "CLIP_NORM", 1e9)
    _, loose = train(model, mini_ds, make_cfg(epochs=2))
    assert loose["clip_events"] == 0


def test_divergent_loss_raises_numeric_error(mini_ds):
    model = CrnModel(ModelVariant.TGV_CRN, mini_ds.cfg, SMALL)
    cfg = make_cfg(epochs=1, weights=LossWeights(alpha=float("inf")))
    with pytest.raises(NumericError):
        train(model, mini_ds, cfg)


def test_non_finite_validation_loss_raises_numeric_error(mini_ds,
                                                        monkeypatch):
    model = CrnModel(ModelVariant.TG_CRN, mini_ds.cfg, SMALL)
    # before training: a NaN in the validation targets only
    outcome = mini_ds.val.outcome.astype(np.float64)
    outcome[0] = np.nan
    poisoned = dataclasses.replace(
        mini_ds, val=dataclasses.replace(mini_ds.val, outcome=outcome))
    with pytest.raises(NumericError, match="before training"):
        train(model, poisoned, make_cfg(epochs=1))

    # after an epoch: the second validation pass reads NaN
    calls = []
    honest = training.validation_loss

    def nan_after_first(*args, **kwargs):
        val = honest(*args, **kwargs)
        calls.append(val)
        return val if len(calls) == 1 else {**val, "total": float("nan")}

    monkeypatch.setattr(training, "validation_loss", nan_after_first)
    with pytest.raises(NumericError, match="at epoch 1"):
        train(model, mini_ds, make_cfg(epochs=2))


def test_validation_loss_deterministic(mini_ds):
    model = CrnModel(ModelVariant.TGV_CRN, mini_ds.cfg, SMALL)
    store = model.init_store(1)
    a = validation_loss(model, store, mini_ds.val, LossWeights())
    b = validation_loss(model, store, mini_ds.val, LossWeights())
    assert a == b
    assert set(a) == {"l_y", "l_x", "l_a", "l_elbo", "total"}
    assert all(np.isfinite(v) for v in a.values())
    # micro-batch size only regroups episodes, totals must agree
    c = validation_loss(model, store, mini_ds.val, LossWeights(),
                        micro_batch=1)
    for key in a:
        assert abs(a[key] - c[key]) < 1e-12
