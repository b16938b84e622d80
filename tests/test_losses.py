"""Loss assembly tests against hand-computed values."""

import numpy as np
import pytest

import cfswarm.tensor as T
from cfswarm.boids import SimConfig, simulate
from cfswarm.errors import ConfigError, ContractError
from cfswarm.losses import (LossWeights, bce_with_logits, loss_components,
                            loss_total)
from cfswarm.model import CrnModel, ModelVariant, StepOutput, stacked
from cfswarm.rng import Rng, derive_seed

from test_model import SMALL, elbo_steps, small_cfg, term_sum


def lift_list(arrays):
    return [T._lift(np.asarray(a, dtype=np.float64)) for a in arrays]


def test_bce_zero_logits_is_log_two():
    logits = np.zeros((2, 3))
    targets = np.array([[0, 1, 0], [1, 1, 0]], dtype=np.float64)
    val = float(bce_with_logits(logits, targets).array)
    assert abs(val - np.log(2.0)) < 1e-15


def test_bce_matches_direct_formula():
    rng = np.random.default_rng(0)
    logits = rng.normal(scale=2.0, size=(4, 5))
    targets = (rng.uniform(size=(4, 5)) < 0.5).astype(np.float64)
    val = float(bce_with_logits(logits, targets).array)
    direct = np.mean(np.logaddexp(0.0, logits) - logits * targets)
    assert abs(val - direct) < 1e-12


def test_bce_shape_mismatch_raises():
    with pytest.raises(ContractError):
        bce_with_logits(np.zeros((2, 3)), np.zeros((3, 2)))


def test_loss_weights_validate():
    w = LossWeights()
    assert (w.alpha, w.gamma, w.lam) == (0.1, 0.1, 0.1)
    with pytest.raises(ConfigError):
        LossWeights(alpha=-0.1).validate()
    with pytest.raises(ConfigError):
        LossWeights(lam=-1.0).validate()
    LossWeights(0.0, 0.0, 0.0).validate()


def hand_rollout():
    """b=1, T=2, k=1 rollout whose loss terms are exact by construction.

    l_y = 1, l_x = 3, l_a = 2, l_elbo = 4, so the 0.1-weighted total is 1.9.
    """
    x_star = -np.log(np.exp(2.0) - 1.0)  # softplus(x) - x == 2 at t == 1

    def step(x_loc_hat, x_g_hat, **elbo):
        return StepOutput(*lift_list([[[1.0]], [[0.5]], [[x_star]]]),
                          x_loc_hat, x_g_hat, **elbo)

    # kl sums to 3, recon to 5, over two ELBO steps
    roll = [step(*lift_list([np.zeros((1, 1, 5)), [[0.0]]]),
                 kl=T._lift(3.0), recon=T._lift(5.0)),
            step(None, None, recon=T._lift(0.0))]
    x_local = np.zeros((1, 2, 1, 5))
    x_local[0, 1] = [1.0, 2.0, 2.0, 2.0, 2.0]   # squares sum to 17
    x_global = np.array([[[0.0], [1.0]]])       # adds 1, denom 6 -> l_x = 3
    outcome = np.zeros((1, 2))                  # y errors 1, 1 -> l_y = 1
    treatment = np.ones((1, 2))
    return roll, x_local, x_global, outcome, treatment


def test_loss_components_hand_case():
    roll, x_local, x_global, outcome, treatment = hand_rollout()
    parts = loss_components(roll, x_local, x_global, outcome, treatment)
    assert set(parts) == {"l_y", "l_x", "l_a", "l_elbo"}
    assert abs(float(parts["l_y"].array) - 1.0) < 1e-15
    assert abs(float(parts["l_x"].array) - 3.0) < 1e-14
    assert abs(float(parts["l_a"].array) - 2.0) < 1e-14
    assert abs(float(parts["l_elbo"].array) - 4.0) < 1e-15


def test_loss_total_weighted_sum_is_one_point_nine():
    roll, x_local, x_global, outcome, treatment = hand_rollout()
    total, floats = loss_total(roll, x_local, x_global, outcome, treatment,
                               LossWeights(0.1, 0.1, 0.1))
    assert abs(float(total.array) - 1.9) < 1e-13
    assert abs(floats["total"] - 1.9) < 1e-13
    recombined = (floats["l_y"] + 0.1 * floats["l_elbo"]
                  + 0.1 * floats["l_x"] + 0.1 * floats["l_a"])
    assert abs(floats["total"] - recombined) < 1e-15


def test_zero_weights_leave_only_outcome_term():
    roll, x_local, x_global, outcome, treatment = hand_rollout()
    total, floats = loss_total(roll, x_local, x_global, outcome, treatment,
                               LossWeights(0.0, 0.0, 0.0))
    assert float(total.array) == floats["l_y"]


def test_loss_rejects_length_mismatch():
    roll, x_local, x_global, outcome, treatment = hand_rollout()
    roll.pop()
    with pytest.raises(ContractError):
        loss_components(roll, x_local, x_global, outcome, treatment)


def sim_targets(cfg, n, seed, intervention=None):
    eps = [simulate(cfg, seed + i, intervention) for i in range(n)]
    x_local = np.stack([e.x_local for e in eps]).astype(np.float64)
    x_global = np.stack([e.x_global for e in eps]).astype(np.float64)
    outcome = np.stack([e.outcome for e in eps]).astype(np.float64)
    treatment = np.stack([e.treatment for e in eps]).astype(np.float64)
    return x_local, x_global, outcome, treatment


def test_losses_recompute_from_rollout_arrays():
    cfg = small_cfg()
    x_local, x_global, outcome, treatment = sim_targets(cfg, 3, 30,
                                                        intervention=6)
    model = CrnModel(ModelVariant.TGV_CRN, cfg, SMALL)
    store = model.init_store(2)
    leaves = store.bind(T.Tape(record=False))
    roll = model.rollout(leaves, x_local, x_global, treatment, "train",
                         rng=Rng(derive_seed(0, "loss")))
    _, floats = loss_total(roll, x_local, x_global, outcome, treatment,
                           LossWeights())

    y = stacked(roll, "y_hat")[:, :, 0]
    assert abs(floats["l_y"] - np.mean((y - outcome) ** 2)) < 1e-12

    xh = stacked(roll, "x_loc_hat")
    gh = stacked(roll, "x_g_hat")
    sq = ((xh - x_local[:, 1:]) ** 2).sum() \
        + ((gh - x_global[:, 1:]) ** 2).sum()
    n_x = 3 * (cfg.n_steps - 1) * (cfg.n_agents * 5 + 1)
    assert abs(floats["l_x"] - sq / n_x) < 1e-10 * max(1.0, sq / n_x)

    logits = stacked(roll, "a_logits")[:, :, 0]
    bce = np.mean(np.logaddexp(0.0, logits) - logits * treatment)
    assert abs(floats["l_a"] - bce) < 1e-12

    denom = 3 * elbo_steps(roll)
    elbo = (term_sum(roll, "recon") + term_sum(roll, "kl")) / denom
    assert abs(floats["l_elbo"] - elbo) < 1e-12


def test_tg_variant_has_zero_elbo_term():
    cfg = small_cfg()
    x_local, x_global, outcome, treatment = sim_targets(cfg, 2, 40)
    model = CrnModel(ModelVariant.TG_CRN, cfg, SMALL)
    store = model.init_store(3)
    leaves = store.bind(T.Tape(record=False))
    roll = model.rollout(leaves, x_local, x_global, treatment, "train")
    _, floats = loss_total(roll, x_local, x_global, outcome, treatment,
                           LossWeights())
    assert floats["l_elbo"] == 0.0
    assert floats["total"] > 0.0


def test_gv_variant_adds_global_elbo():
    cfg = small_cfg()
    x_local, x_global, outcome, treatment = sim_targets(cfg, 2, 41)
    model = CrnModel(ModelVariant.GV_CRN, cfg, SMALL)
    store = model.init_store(4)
    leaves = store.bind(T.Tape(record=False))
    roll = model.rollout(leaves, x_local, x_global, treatment, "train",
                         rng=Rng(derive_seed(1, "loss")))
    _, floats = loss_total(roll, x_local, x_global, outcome, treatment,
                           LossWeights())
    denom = 2 * elbo_steps(roll)
    manual = (term_sum(roll, "recon") + term_sum(roll, "kl")
              + term_sum(roll, "g_recon") + term_sum(roll, "g_kl")) / denom
    assert abs(floats["l_elbo"] - manual) < 1e-12 * max(1.0, abs(manual))


def test_loss_backward_reaches_parameters():
    cfg = small_cfg()
    x_local, x_global, outcome, treatment = sim_targets(cfg, 2, 42,
                                                        intervention=5)
    model = CrnModel(ModelVariant.TGV_CRN, cfg, SMALL)
    store = model.init_store(5)
    tape = T.Tape()
    leaves = store.bind(tape)
    roll = model.rollout(leaves, x_local, x_global, treatment, "train",
                         rng=Rng(derive_seed(2, "loss")))
    total, _ = loss_total(roll, x_local, x_global, outcome, treatment,
                          LossWeights())
    T.backward(total)
    grads = store.gradients()
    assert grads.keys() == store.params.keys()
    for name, g in grads.items():
        assert g.shape == store.params[name].array.shape
        assert np.all(np.isfinite(g)), name
    nonzero = sum(float(np.abs(g).sum()) > 0.0 for g in grads.values())
    assert nonzero >= 0.9 * len(grads)
