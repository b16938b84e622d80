"""Metric definitions, the ground-truth self-check, and dump round trips."""

import dataclasses
import json

import numpy as np
import pytest

from cfswarm.data import final_effects, generate_dataset, ground_truth_ite
from cfswarm.errors import ContractError, DimensionError
from cfswarm.metrics import (MetricsReport, compute_metrics, covariate_window,
                             effect_errors, evaluate, outcome_window,
                             read_eval_dump)
from cfswarm.model import CrnModel, ModelVariant

from test_model import SMALL, small_cfg


@pytest.fixture(scope="module")
def ds():
    return generate_dataset(small_cfg(), n_train=4, n_val=2, n_test=3, seed=1)


def test_effect_errors_hand_case():
    pehe, ate = effect_errors(np.array([[2.0], [2.0]]),
                              np.array([[1.0], [3.0]]))
    assert pehe.shape == (1,) and ate.shape == (1,)
    assert pehe[0] == 1.0
    assert ate[0] == 0.0


def test_effect_errors_per_arm_axis():
    tau_hat = np.array([[1.0, 0.0], [1.0, 0.0]])
    tau_true = np.array([[0.0, 0.0], [0.0, 4.0]])
    pehe, ate = effect_errors(tau_hat, tau_true)
    assert np.allclose(pehe, [1.0, np.sqrt(8.0)], atol=1e-15)
    assert np.allclose(ate, [1.0, 2.0], atol=1e-15)


def test_effect_errors_rejects_bad_shapes():
    with pytest.raises(DimensionError):
        effect_errors(np.zeros((2, 1)), np.zeros((1, 2)))
    with pytest.raises(DimensionError):
        effect_errors(np.zeros(3), np.zeros(3))


def test_windows():
    cfg = small_cfg()
    assert outcome_window(cfg).tolist() == [3, 4, 5, 6, 7]
    assert covariate_window(cfg).tolist() == [5, 6, 7]


def perfect_predictions(cf, cfg):
    """Predictions equal to the simulated truth, covariates over the
    covariate window."""
    cw = covariate_window(cfg)
    y_pred = cf.outcome.astype(np.float64)
    x_loc_pred = cf.x_local[:, :, cw].astype(np.float64)
    x_g_pred = cf.x_global[:, :, cw].astype(np.float64)
    return y_pred, x_loc_pred, x_g_pred


def test_ground_truth_self_check_scores_zero(ds):
    cf = ds.cf
    y_pred, x_loc_pred, x_g_pred = perfect_predictions(cf, ds.cfg)
    report, per_episode = compute_metrics(cf, y_pred, x_loc_pred, x_g_pred,
                                          ds.cfg, variant="oracle")
    assert report.l_outcome == 0.0 and report.l_outcome_se == 0.0
    assert report.l_covariates == 0.0 and report.l_covariates_se == 0.0
    assert report.pehe_sqrt == 0.0 and report.pehe_sqrt_se == 0.0
    assert report.ate_abs_err == 0.0 and report.ate_abs_err_se == 0.0
    assert report.timing_err == 0.0 and report.timing_err_se == 0.0
    assert report.n_episodes == cf.n
    assert report.variant == "oracle"
    # the best treated outcome can only improve on the pre-treatment level,
    # which the factual test episode shares with every arm
    assert report.cf_uplift >= 0.0
    base = ds.test.outcome.astype(np.float64)[:, ds.cfg.burn_in - 1]
    ow = outcome_window(ds.cfg)
    manual = y_pred[:, :, ow].max(axis=(1, 2)) - base
    assert np.allclose(per_episode["cf_uplift"], manual, atol=0)
    assert abs(report.cf_uplift - manual.mean()) < 1e-15


def test_timing_error_counts_offsets(ds):
    # every true best start is the window's first (5) and every predicted
    # one its last (7), two steps later
    first, last = ds.cf.arms[0], ds.cf.arms[-2]
    assert last - first == 2
    outcome = ds.cf.outcome.copy()
    outcome[:, 0, -1] = outcome[:, :, -1].max(axis=1) + 1.0
    cf = dataclasses.replace(ds.cf, outcome=outcome)
    y_pred, x_loc_pred, x_g_pred = perfect_predictions(cf, ds.cfg)
    y_pred[:, -2, -1] = y_pred[:, :, -1].max(axis=1) + 1.0
    report, per = compute_metrics(cf, y_pred, x_loc_pred, x_g_pred, ds.cfg)
    assert per["best_true"].tolist() == [first] * cf.n
    assert per["best_pred"].tolist() == [last] * cf.n
    assert report.timing_err == 2.0
    assert report.timing_err_se == 0.0


def test_compute_metrics_matches_manual_recompute(ds):
    cfg, cf = ds.cfg, ds.cf
    rng = np.random.default_rng(3)
    n, n_arms, n_steps = cf.outcome.shape
    k = cf.x_local.shape[3]
    cw = covariate_window(cfg)
    y_pred = rng.uniform(size=(n, n_arms, n_steps))
    x_loc_pred = rng.normal(size=cf.x_local[:, :, cw].shape)
    x_g_pred = rng.uniform(size=cf.x_global[:, :, cw].shape)
    report, per = compute_metrics(cf, y_pred, x_loc_pred, x_g_pred, cfg)
    ow = outcome_window(cfg)
    out_err = np.abs(y_pred[:, :, ow] - cf.outcome[:, :, ow]).mean(axis=(1, 2))
    assert np.allclose(per["l_outcome"], out_err, atol=1e-15)
    assert abs(report.l_outcome - out_err.mean()) < 1e-15
    se = out_err.std(ddof=1) / np.sqrt(n)
    assert abs(report.l_outcome_se - se) < 1e-15

    sq = ((x_loc_pred - cf.x_local[:, :, cw]) ** 2).sum((3, 4)) \
        + ((x_g_pred - cf.x_global[:, :, cw]) ** 2).sum(3)
    cov_err = np.sqrt(sq / (k * 5 + 1)).mean(axis=(1, 2))
    assert np.allclose(per["l_covariates"], cov_err, atol=1e-14)

    tau_true, _ = ground_truth_ite(cf)
    y_final = y_pred[:, :, -1]
    tau_hat = y_final[:, :-1] - y_final[:, -1:]
    pehe_arm = np.sqrt(((tau_hat - tau_true) ** 2).mean(axis=0))
    ate_arm = np.abs((tau_hat - tau_true).mean(axis=0))
    assert abs(report.pehe_sqrt - pehe_arm.mean()) < 1e-15
    assert abs(report.ate_abs_err - ate_arm.mean()) < 1e-15
    assert np.allclose(per["tau_hat"], tau_hat, atol=0)
    best = np.array(cfg.intervention_steps)[y_final[:, :-1].argmax(axis=1)]
    assert np.array_equal(per["best_pred"], best)
    uplift = (y_pred[:, :, ow].max(axis=(1, 2))
              - ds.test.outcome[:, cfg.burn_in - 1])
    assert np.array_equal(per["cf_uplift"], uplift)


def test_compute_metrics_rejects_bad_y_shape(ds):
    cf = ds.cf
    y_pred, x_loc_pred, x_g_pred = perfect_predictions(cf, ds.cfg)
    with pytest.raises(DimensionError):
        compute_metrics(cf, y_pred[:, :, :-1], x_loc_pred, x_g_pred, ds.cfg)


def test_compute_metrics_rejects_covariates_off_the_window(ds):
    # the eval-dump-v2 layout: one covariate prediction per step, not the
    # window's
    cf = ds.cf
    y_pred, _, _ = perfect_predictions(cf, ds.cfg)
    x_loc = cf.x_local.astype(np.float64)
    x_g = cf.x_global.astype(np.float64)
    with pytest.raises(DimensionError):
        compute_metrics(cf, y_pred, x_loc, x_g, ds.cfg)


def test_evaluate_requires_counterfactuals(ds):
    empty = type("Cf", (), {"outcome": np.zeros((0, 2, 2))})()
    stub = type("Ds", (), {"cf": empty})()
    model = CrnModel(ModelVariant.TGV_CRN, ds.cfg, SMALL)
    with pytest.raises(ContractError):
        evaluate(model, model.init_store(0), stub)


def test_evaluate_report_and_dump_round_trip(ds, tmp_path):
    model = CrnModel(ModelVariant.TGV_CRN, ds.cfg, SMALL)
    store = model.init_store(7)
    report, per, pred = evaluate(model, store, ds, dump_dir=str(tmp_path))
    assert report.n_episodes == ds.cf.n
    assert report.variant == "tgv_crn"
    for field in ("l_outcome", "l_covariates", "pehe_sqrt", "ate_abs_err",
                  "timing_err", "cf_uplift"):
        assert np.isfinite(getattr(report, field))
        assert np.isfinite(getattr(report, field + "_se"))

    dump = read_eval_dump(tmp_path)
    assert dump["arms"] == pred["arms"] == ds.cf.arms
    assert np.array_equal(dump["y_pred"], pred["y_all"])
    assert np.array_equal(dump["a_pred"], pred["a_all"])
    assert np.array_equal(dump["x_loc_pred"], pred["x_loc_hat"])
    assert np.array_equal(dump["x_g_pred"], pred["x_g_hat"])
    assert np.array_equal(per["tau_hat"], pred["tau_hat"])
    assert np.array_equal(per["best_pred"], pred["best_timing"])

    saved = json.loads((tmp_path / "report.json").read_text())
    assert saved["l_outcome"] == report.l_outcome
    assert saved["pehe_sqrt"] == report.pehe_sqrt
    assert saved["n_episodes"] == report.n_episodes

    lines = (tmp_path / "per_episode.csv").read_text().strip().splitlines()
    assert len(lines) == 1 + report.n_episodes


def test_dump_supports_offline_recompute(ds, tmp_path):
    model = CrnModel(ModelVariant.TGV_CRN, ds.cfg, SMALL)
    store = model.init_store(8)
    report, per, _ = evaluate(model, store, ds, dump_dir=str(tmp_path))
    dump = read_eval_dump(tmp_path)
    cf, cfg = ds.cf, ds.cfg
    # the dump and the dataset's counterfactual set give back report.json
    # field for field and every per-episode array bitwise
    again, per_again = compute_metrics(cf, dump["y_pred"], dump["x_loc_pred"],
                                       dump["x_g_pred"], cfg, report.variant)
    saved = json.loads((tmp_path / "report.json").read_text())
    assert dataclasses.asdict(again) == saved
    assert list(per_again) == list(per)
    for key in per:
        assert per_again[key].dtype == per[key].dtype
        assert np.array_equal(per_again[key], per[key]), key

    ow = outcome_window(cfg)
    cw = covariate_window(cfg)
    out_err = np.abs(dump["y_pred"][:, :, ow]
                     - cf.outcome[:, :, ow]).mean(axis=(1, 2))
    assert abs(out_err.mean() - report.l_outcome) < 1e-12
    k = cfg.n_agents
    sq = ((dump["x_loc_pred"] - cf.x_local[:, :, cw]) ** 2).sum((3, 4)) \
        + ((dump["x_g_pred"] - cf.x_global[:, :, cw]) ** 2).sum(3)
    cov_err = np.sqrt(sq / (k * 5 + 1)).mean(axis=(1, 2))
    assert abs(cov_err.mean() - report.l_covariates) < 1e-12
    tau_hat, best_pred = final_effects(dump["y_pred"], dump["arms"][:-1])
    tau_true, best_true = ground_truth_ite(cf)
    err = tau_hat - tau_true
    assert abs(np.sqrt((err ** 2).mean(axis=0)).mean()
               - report.pehe_sqrt) < 1e-12
    assert abs(np.abs(err.mean(axis=0)).mean() - report.ate_abs_err) < 1e-12
    assert abs(np.abs(best_pred - best_true).mean()
               - report.timing_err) < 1e-12


def test_report_json_shape():
    report = MetricsReport(*([0.5] * 12), n_episodes=3, variant="x")
    data = json.loads(report.to_json())
    assert len(data) == 14
    assert data["variant"] == "x"
    assert data["n_episodes"] == 3
