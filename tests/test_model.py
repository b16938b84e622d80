"""Model-layer tests: theory integrator, step pieces, rollouts, ITE."""

import numpy as np
import pytest

import cfswarm.model as model_module
import cfswarm.parallel as parallel
import cfswarm.tensor as T
from cfswarm.blocks import GaussianHead, GnnBlock, treatment_head
from cfswarm.boids import SimConfig, simulate
from cfswarm.data import NEVER_TREATED
from cfswarm.errors import ContractError, DimensionError
from cfswarm.losses import LossWeights, loss_total
from cfswarm.model import (CrnModel, ModelDims, ModelVariant, predict_ite,
                           scale_row, stacked, theory_step)
from cfswarm.rng import Rng, derive_seed
from cfswarm.tensor import Tensor


SMALL = ModelDims(hidden=6, latent=3, feat=6, gnn_hidden=6, gnn_edge=6,
                  mlp_hidden=6, g_hidden=4, g_latent=2, g_feat=4,
                  rnn_hidden=6)


def small_cfg():
    return SimConfig(n_agents=4, n_steps=8, burn_in=5,
                     t_i_start=5, t_i_end=7).validate()


def zero_store(model, seed=0):
    store = model.init_store(seed)
    for name, t in store.params.items():
        store.params[name] = Tensor(np.zeros_like(t.array))
    return store


def batch_from_sim(cfg, n, seed=0, intervention=None):
    eps = [simulate(cfg, seed + i, intervention) for i in range(n)]
    x_local = np.stack([e.x_local for e in eps]).astype(np.float64)
    x_global = np.stack([e.x_global for e in eps]).astype(np.float64)
    treatment = np.stack([e.treatment for e in eps]).astype(np.float64)
    return x_local, x_global, treatment


def absorbing(n, n_steps, arm):
    """(n, T) treatment rows that switch on at step arm (None = never)."""
    a = np.zeros((n, n_steps))
    if arm is not None:
        a[:, arm:] = 1.0
    return a


def term_sum(steps, name):
    """One ELBO term of a rollout summed over the steps that hold it."""
    return sum(float(getattr(so, name).array) for so in steps
               if getattr(so, name) is not None)


def elbo_steps(steps):
    return sum(so.recon is not None for so in steps)


# theory integrator ---------------------------------------------------------


def lone_state(heading, pos=(0.0, 0.0)):
    positions = np.array([[list(pos)]], dtype=np.float64)
    headings = np.array([[list(heading)]], dtype=np.float64)
    return positions, headings


def test_theory_step_zero_angle_goes_straight():
    cfg = SimConfig(n_agents=1).validate()
    positions, headings = lone_state((1.0, 0.0))
    theta = np.zeros((1, 1, 1))
    x_loc, x_g, new_pos, new_head = theory_step(theta, positions, headings,
                                                np.zeros(1), cfg)
    step = cfg.speed * cfg.dt
    assert np.allclose(new_head.array, [[[1.0, 0.0]]], atol=1e-12)
    assert np.allclose(new_pos.array, [[[step, 0.0]]], atol=1e-12)
    assert np.allclose(x_loc.array[0, 0],
                       [step, 0.0, cfg.speed, 0.0, 0.0], atol=1e-12)


def test_theory_step_clamps_quarter_turn_to_limit():
    cfg = SimConfig(n_agents=1).validate()
    positions, headings = lone_state((1.0, 0.0))
    theta = np.full((1, 1, 1), np.pi / 2)
    x_loc, _, _, new_head = theory_step(theta, positions, headings,
                                        np.zeros(1), cfg)
    beta = cfg.max_turn_rad
    assert abs(x_loc.array[0, 0, 4] - beta) < 1e-12
    assert np.allclose(new_head.array[0, 0],
                       [np.cos(beta), np.sin(beta)], atol=1e-12)


def test_theory_step_far_agents_turn_toward_centroid():
    # both agents sit attraction_radius/2 past the centroid on the x axis
    cfg = SimConfig(n_agents=2).validate()
    positions = np.array([[[-5.0, 0.0], [5.0, 0.0]]])
    headings = np.array([[[0.0, 1.0], [0.0, 1.0]]])
    theta = np.zeros((1, 2, 1))
    x_loc, _, _, new_head = theory_step(theta, positions, headings,
                                        np.zeros(1), cfg)
    beta = cfg.max_turn_rad
    # desired dirs are (1,0) and (-1,0); both turns clamp at the limit
    assert abs(x_loc.array[0, 0, 4] + beta) < 1e-12
    assert abs(x_loc.array[0, 1, 4] - beta) < 1e-12
    assert np.allclose(new_head.array[0, 0],
                       [np.sin(beta), np.cos(beta)], atol=1e-12)
    assert np.allclose(new_head.array[0, 1],
                       [-np.sin(beta), np.cos(beta)], atol=1e-12)


def test_theory_step_orientation_blend_gated_by_treatment():
    # spacing 2.0 falls between the untreated radius 1.0 and treated 4.0
    cfg = SimConfig(n_agents=2).validate()
    positions = np.array([[[0.0, 0.0], [2.0, 0.0]]])
    headings = np.array([[[1.0, 0.0], [0.0, 1.0]]])
    theta = np.zeros((1, 2, 1))
    off = theory_step(theta, positions, headings, np.zeros(1), cfg)[0]
    on = theory_step(theta, positions, headings, np.ones(1), cfg)[0]
    # untreated: no zone applies, both keep their headings
    assert abs(off.array[0, 0, 4]) < 1e-12
    assert abs(off.array[0, 1, 4]) < 1e-12
    # treated: blend of own and neighbour heading is 45 deg, clamped to 30
    beta = cfg.max_turn_rad
    assert abs(on.array[0, 0, 4] - beta) < 1e-12
    assert abs(on.array[0, 1, 4] + beta) < 1e-12


def test_theory_step_zone_free_matches_plain_integrator():
    # triangle of radius 2: no repulsion/orientation pairs, nobody far
    cfg = SimConfig(n_agents=3).validate()
    ang = np.array([0.0, 2.1, 4.2])
    positions = 2.0 * np.stack([np.cos(ang), np.sin(ang)], axis=1)[None]
    positions = np.ascontiguousarray(positions)
    rng = np.random.default_rng(7)
    phi = rng.uniform(-np.pi, np.pi, size=3)
    headings = np.stack([np.cos(phi), np.sin(phi)], axis=1)[None]
    theta = rng.uniform(-1.0, 1.0, size=(1, 3, 1))
    x_loc, _, new_pos, new_head = theory_step(theta, positions, headings,
                                              np.zeros(1), cfg)
    turn = np.clip(theta[..., 0], -cfg.max_turn_rad, cfg.max_turn_rad)
    c, s = np.cos(turn), np.sin(turn)
    hx, hy = headings[..., 0], headings[..., 1]
    ex = hx * c - hy * s
    ey = hx * s + hy * c
    assert np.allclose(new_head.array[..., 0], ex, atol=1e-9)
    assert np.allclose(new_head.array[..., 1], ey, atol=1e-9)
    exp_pos = positions + cfg.speed * cfg.dt * np.stack([ex, ey], axis=2)
    assert np.allclose(new_pos.array, exp_pos, atol=1e-9)
    assert np.allclose(x_loc.array[..., 4], turn, atol=1e-9)


def test_theory_step_outputs_consistent():
    cfg = small_cfg()
    x_local, _, _ = batch_from_sim(cfg, 3, seed=11)
    positions = x_local[:, 4, :, 0:2]
    headings = x_local[:, 4, :, 2:4] / cfg.speed
    rng = np.random.default_rng(0)
    theta = rng.uniform(-2.0, 2.0, size=(3, cfg.n_agents, 1))
    a_row = np.array([0.0, 1.0, 0.0])
    x_loc, x_g, new_pos, new_head = theory_step(theta, positions, headings,
                                                a_row, cfg)
    arr = x_loc.array
    # layout: position, velocity, realized turn; heading rows stay unit
    assert np.allclose(arr[..., 0:2], new_pos.array, atol=0)
    assert np.allclose(arr[..., 2:4], cfg.speed * new_head.array, atol=0)
    norms = np.sqrt((new_head.array ** 2).sum(axis=2))
    assert np.max(np.abs(norms - 1.0)) < 1e-12
    assert np.max(np.abs(arr[..., 4])) <= cfg.max_turn_rad + 1e-12
    # realized turn equals the angle between old and new heading
    cross = headings[..., 0] * new_head.array[..., 1] \
        - headings[..., 1] * new_head.array[..., 0]
    dot = (headings * new_head.array).sum(axis=2)
    assert np.allclose(arr[..., 4], np.arctan2(cross, dot), atol=1e-9)
    # group spin of the predicted state, recomputed directly
    cen = new_pos.array.mean(axis=1, keepdims=True)
    rel = new_pos.array - cen
    rel = rel / np.sqrt((rel ** 2).sum(axis=2, keepdims=True) + 1e-24)
    spin = rel[..., 0] * new_head.array[..., 1] \
        - rel[..., 1] * new_head.array[..., 0]
    assert np.allclose(x_g.array[:, 0], np.abs(spin.mean(axis=1)), atol=1e-9)
    assert np.all(x_g.array >= 0.0) and np.all(x_g.array <= 1.0 + 1e-12)


def test_free_run_theory_step_records_at_most_one_reshape():
    # free-run steps integrate from taped positions and headings; per-agent
    # scalars stay (B, K, 1) columns, so only the neighbour broadcast of the
    # headings reshapes
    cfg = small_cfg()
    x_local, _, _ = batch_from_sim(cfg, 3, seed=11)
    tape = T.Tape()
    positions = tape.watch(x_local[:, 4, :, 0:2])
    headings = tape.watch(x_local[:, 4, :, 2:4] / cfg.speed)
    theta = tape.watch(np.random.default_rng(0).uniform(
        -2.0, 2.0, size=(3, cfg.n_agents, 1)))
    n_leaves = len(tape.nodes)
    theory_step(theta, positions, headings, np.array([0.0, 1.0, 0.0]), cfg)
    assert sum(node.kind == "reshape" for node in tape.nodes) <= 1
    # one fused integrator, two slices and a scale, one fused group spin
    assert len(tape.nodes) - n_leaves <= 5


# step pieces ----------------------------------------------------------------


def bound_model(variant, cfg, seed=0):
    model = CrnModel(variant, cfg, SMALL)
    store = model.init_store(seed)
    tape = T.Tape(record=False)
    leaves = store.bind(tape)
    return model, store, leaves


def test_recurrence_with_zero_params_halves_state():
    cfg = small_cfg()
    model = CrnModel(ModelVariant.TGV_CRN, cfg, SMALL)
    store = zero_store(model)
    tape = T.Tape(record=False)
    leaves = store.bind(tape)
    rng = np.random.default_rng(3)
    b, k = 2, cfg.n_agents
    h = rng.normal(size=(b, k, SMALL.hidden))
    x_sc = rng.normal(size=(b, k, 5))
    z = rng.normal(size=(b, k, SMALL.latent))
    h2 = model.rnn(leaves, np.concatenate([x_sc, z], axis=2), h)
    assert np.allclose(h2.array, 0.5 * h, atol=1e-15)


def test_outcome_step_zero_params_is_half():
    cfg = small_cfg()
    model = CrnModel(ModelVariant.TGV_CRN, cfg, SMALL)
    store = zero_store(model)
    leaves = store.bind(T.Tape(record=False))
    rng = np.random.default_rng(4)
    z = rng.normal(size=(3, cfg.n_agents, SMALL.latent))
    y = model.outcome_step(leaves, z, np.full((3, 1), 0.4), np.ones((3, 1)))
    assert np.array_equal(y.array, np.full((3, 1), 0.5))


def test_outcome_step_pools_agents_symmetrically():
    cfg = small_cfg()
    model, _, leaves = bound_model(ModelVariant.TGV_CRN, cfg, seed=5)
    rng = np.random.default_rng(5)
    z = rng.normal(size=(2, cfg.n_agents, SMALL.latent))
    x_g = rng.uniform(size=(2, 1))
    a = np.array([[0.0], [1.0]])
    y = model.outcome_step(leaves, z, x_g, a)
    perm = np.random.default_rng(6).permutation(cfg.n_agents)
    y_p = model.outcome_step(leaves, z[:, perm], x_g, a)
    assert np.allclose(y.array, y_p.array, atol=1e-12)


def test_treatment_head_matches_pooled_mlp():
    cfg = small_cfg()
    model, _, leaves = bound_model(ModelVariant.TGV_CRN, cfg, seed=7)
    rng = np.random.default_rng(7)
    z = rng.normal(size=(2, cfg.n_agents, SMALL.latent))
    pooled = z.mean(axis=1)
    prob, logit = treatment_head(model.mlp_a, leaves, T._lift(pooled))
    direct = model.mlp_a(leaves, T._lift(pooled))
    assert np.allclose(logit.array, direct.array, atol=1e-15)
    assert np.allclose(prob.array, 1.0 / (1.0 + np.exp(-direct.array)),
                       atol=1e-15)


# rollout contracts ----------------------------------------------------------


def test_rollout_rejects_bad_shapes():
    cfg = small_cfg()
    model, _, leaves = bound_model(ModelVariant.TGV_CRN, cfg)
    x_local, x_global, treatment = batch_from_sim(cfg, 2, seed=0)
    with pytest.raises(ContractError):
        model.rollout(leaves, x_local, x_global, treatment, "test")
    with pytest.raises(DimensionError):
        model.rollout(leaves, x_local[:, :, :3], x_global, treatment, "infer")
    with pytest.raises(DimensionError):
        model.rollout(leaves, x_local[:, :6], x_global[:, :6],
                      treatment[:, :6], "infer")
    with pytest.raises(ContractError):
        model.rollout(leaves, x_local, x_global, treatment[:, :6], "infer")
    with pytest.raises(DimensionError):
        model.rollout(leaves, x_local, x_global[:, :, 0], treatment, "infer")


@pytest.mark.parametrize("variant", list(ModelVariant))
def test_rollout_samples_exactly_when_given_an_rng(variant, monkeypatch):
    # without an rng a rollout is the mean-latent rollout; with one, only a
    # variational variant draws, and only it moves
    cfg = small_cfg()
    model, store, _ = bound_model(variant, cfg, seed=1)
    x_local, x_global, treatment = batch_from_sim(cfg, 2, seed=0,
                                                  intervention=6)
    draws = []
    sample = T.gaussian_sample

    def run(mode, rng, draw=True):
        def counted(mu, sigma, rng):
            draws.append(None)
            return sample(mu, sigma, rng) if draw else mu

        monkeypatch.setattr(T, "gaussian_sample", counted)
        roll = model.rollout(store.bind(T.Tape(record=False)), x_local,
                             x_global, treatment, mode, rng=rng)
        return [stacked(roll, name) for name in
                ("y_hat", "a_prob", "x_loc_hat", "x_g_hat")] + [
                    term_sum(roll, "kl"), term_sum(roll, "recon")]

    def same(a, b):
        return all(np.array_equal(x, y) for x, y in zip(a, b))

    for mode in ("train", "infer"):
        draws.clear()
        plain = run(mode, None)
        assert draws == []
        assert same(plain, run(mode, Rng(2), draw=False))
        assert (len(draws) > 0) == variant.uses_encoder
        draws.clear()
        sampled = run(mode, Rng(2))
        assert (len(draws) > 0) == variant.uses_encoder
        assert same(plain, sampled) != variant.uses_encoder, mode


def test_rollout_output_shapes():
    cfg = small_cfg()
    model, _, leaves = bound_model(ModelVariant.TGV_CRN, cfg)
    x_local, x_global, treatment = batch_from_sim(cfg, 3, seed=2,
                                                  intervention=6)
    out = model.rollout(leaves, x_local, x_global, treatment, "train",
                        rng=Rng(0))
    b, t, k = 3, cfg.n_steps, cfg.n_agents
    assert stacked(out, "y_hat").shape == (b, t, 1)
    assert stacked(out, "a_prob").shape == (b, t, 1)
    assert stacked(out, "a_logits").shape == (b, t, 1)
    # train mode decodes every step with a target, t = 0..T-2
    assert stacked(out, "x_loc_hat").shape == (b, t - 1, k, 5)
    assert stacked(out, "x_g_hat").shape == (b, t - 1, 1)
    assert len(out) == t
    assert all(so.y_hat.array.shape == (b, 1) for so in out)
    y = stacked(out, "y_hat")
    assert np.all(y > 0.0) and np.all(y < 1.0)
    prob = stacked(out, "a_prob")
    assert np.all(prob > 0.0) and np.all(prob < 1.0)


def test_variant_gating_tg_skips_elbo():
    cfg = small_cfg()
    model, _, leaves = bound_model(ModelVariant.TG_CRN, cfg)
    x_local, x_global, treatment = batch_from_sim(cfg, 2, seed=3)
    # TG forces mean latents, so no rng is needed even in train mode
    out = model.rollout(leaves, x_local, x_global, treatment, "train")
    assert term_sum(out, "kl") == 0.0
    assert term_sum(out, "recon") == 0.0
    assert elbo_steps(out) == 0
    assert all(so.g_kl is None and so.g_recon is None for so in out)
    assert model.enc_net is None


def test_variant_gating_tgv_accumulates_elbo():
    cfg = small_cfg()
    model, _, leaves = bound_model(ModelVariant.TGV_CRN, cfg)
    x_local, x_global, treatment = batch_from_sim(cfg, 2, seed=3)
    out = model.rollout(leaves, x_local, x_global, treatment, "train",
                        rng=Rng(1))
    assert elbo_steps(out) == cfg.burn_in
    assert term_sum(out, "kl") > 0.0
    assert np.isfinite(term_sum(out, "recon"))
    assert all(so.g_kl is None and so.g_recon is None for so in out)


def test_variant_gating_gv_runs_global_branch():
    cfg = small_cfg()
    model, _, leaves = bound_model(ModelVariant.GV_CRN, cfg)
    x_local, x_global, treatment = batch_from_sim(cfg, 2, seed=3)
    out = model.rollout(leaves, x_local, x_global, treatment, "train",
                        rng=Rng(1))
    assert term_sum(out, "g_kl") > 0.0
    assert np.isfinite(term_sum(out, "g_recon"))
    assert elbo_steps(out) == cfg.burn_in
    # infer mode leaves the ELBO untouched
    quiet = model.rollout(leaves, x_local, x_global, treatment, "infer")
    assert term_sum(quiet, "kl") == 0.0
    assert elbo_steps(quiet) == 0


def test_gv_draws_agents_then_global_latent_each_step(monkeypatch):
    # both branches draw from one rng, the agents' latent first
    cfg = small_cfg()
    model, _, leaves = bound_model(ModelVariant.GV_CRN, cfg)
    x_local, x_global, treatment = batch_from_sim(cfg, 2, seed=3)
    shapes = []
    sample = T.gaussian_sample

    def recorded(mu, sigma, rng):
        shapes.append(mu.array.shape)
        return sample(mu, sigma, rng)

    monkeypatch.setattr(T, "gaussian_sample", recorded)
    for mode in ("train", "infer"):
        shapes.clear()
        model.rollout(leaves, x_local, x_global, treatment, mode, rng=Rng(1))
        assert shapes == [(2, cfg.n_agents, SMALL.latent),
                          (2, SMALL.g_latent)] * cfg.n_steps, mode


def test_rollout_deterministic_given_seed():
    cfg = small_cfg()
    model, store, _ = bound_model(ModelVariant.TGV_CRN, cfg)
    x_local, x_global, treatment = batch_from_sim(cfg, 2, seed=4,
                                                  intervention=5)

    def run():
        leaves = store.bind(T.Tape(record=False))
        out = model.rollout(leaves, x_local, x_global, treatment, "train",
                            rng=Rng(derive_seed(9, "roll")))
        return stacked(out, "y_hat"), stacked(out, "x_loc_hat")

    y1, x1 = run()
    y2, x2 = run()
    assert np.array_equal(y1, y2)
    assert np.array_equal(x1, x2)


def test_identical_episodes_share_weights_in_batch():
    cfg = small_cfg()
    model, _, leaves = bound_model(ModelVariant.TGV_CRN, cfg)
    x_local, x_global, treatment = batch_from_sim(cfg, 1, seed=5,
                                                  intervention=7)
    xb = np.repeat(x_local, 2, axis=0)
    gb = np.repeat(x_global, 2, axis=0)
    ab = np.repeat(treatment, 2, axis=0)
    out = model.rollout(leaves, xb, gb, ab, "infer")
    y = stacked(out, "y_hat")
    xh = stacked(out, "x_loc_hat")
    assert np.array_equal(y[0], y[1])
    assert np.array_equal(xh[0], xh[1])


def recorded_heads(monkeypatch):
    """Record every Gaussian head's (mu, sigma) arrays by head name, in call
    order; sigma is None where the head skipped it."""
    calls = {}
    forward = GaussianHead.forward

    def recorded(head, leaves, x, with_sigma=True):
        mu, sig = forward(head, leaves, x, with_sigma)
        calls.setdefault(head.name, []).append(
            (mu.array.copy(), None if sig is None else sig.array.copy()))
        return mu, sig

    monkeypatch.setattr(GaussianHead, "forward", recorded)
    monkeypatch.setattr(GaussianHead, "__call__", recorded)
    return calls


def test_trace_recon_recomputes_offline(monkeypatch):
    cfg = small_cfg()
    model, _, leaves = bound_model(ModelVariant.TGV_CRN, cfg)
    x_local, x_global, treatment = batch_from_sim(cfg, 2, seed=6)
    heads = recorded_heads(monkeypatch)
    out = model.rollout(leaves, x_local, x_global, treatment, "train",
                        rng=Rng(2))
    assert len(heads["prior.gauss"]) == cfg.n_steps
    assert len(heads["dec.gauss"]) == cfg.n_steps - 1
    assert len(heads["enc.gauss"]) == cfg.burn_in
    nll = 0.0
    for t in range(cfg.burn_in):
        mu_d, sig = heads["dec.gauss"][t]
        mu = np.pi * np.tanh(mu_d)   # the theory decoder's proposal
        target = x_local[:, t + 1, :, 4:5]
        resid = 0.5 * ((target - mu) / sig) ** 2
        nll += float(np.sum(resid + np.log(sig) + 0.5 * np.log(2 * np.pi)))
    assert abs(nll - term_sum(out, "recon")) < 1e-9 * max(1.0, abs(nll))
    kl = 0.0
    for t in range(cfg.burn_in):
        mu_q, sig_q = heads["enc.gauss"][t]
        mu_p, sig_p = heads["prior.gauss"][t]
        kl += float(np.sum(np.log(sig_p / sig_q)
                           + (sig_q ** 2 + (mu_q - mu_p) ** 2)
                           / (2.0 * sig_p ** 2) - 0.5))
    assert abs(kl - term_sum(out, "kl")) < 1e-9 * max(1.0, abs(kl))


def test_theory_proposal_trace_is_squashed(monkeypatch):
    cfg = small_cfg()
    model, _, leaves = bound_model(ModelVariant.TGV_CRN, cfg)
    x_local, x_global, treatment = batch_from_sim(cfg, 2, seed=8)
    proposals = []
    step = model_module.theory_step

    def recorded(theta_prop, *args):
        proposals.append(theta_prop.array.copy())
        return step(theta_prop, *args)

    monkeypatch.setattr(model_module, "theory_step", recorded)
    out = model.rollout(leaves, x_local, x_global, treatment, "infer")
    assert len(proposals) == cfg.n_steps - cfg.burn_in
    for theta in proposals:
        assert np.max(np.abs(theta)) <= np.pi
    # predicted headings stay unit rows and the turn stays inside the limit
    xh = stacked(out, "x_loc_hat")
    norms = np.sqrt((xh[..., 2:4] ** 2).sum(axis=3)) / cfg.speed
    assert np.max(np.abs(norms - 1.0)) < 1e-9
    assert np.max(np.abs(xh[..., 4])) <= cfg.max_turn_rad + 1e-12
    xg = stacked(out, "x_g_hat")
    assert np.all(xg >= 0.0) and np.all(xg <= 1.0 + 1e-12)


def test_equivariance_under_agent_permutation():
    cfg = small_cfg()
    rng = np.random.default_rng(12)
    for variant in (ModelVariant.TGV_CRN, ModelVariant.GV_CRN):
        model, store, _ = bound_model(variant, cfg, seed=13)
        x_local, x_global, treatment = batch_from_sim(cfg, 2, seed=9,
                                                      intervention=6)
        for _ in range(3):
            perm = rng.permutation(cfg.n_agents)
            leaves = store.bind(T.Tape(record=False))
            base = model.rollout(leaves, x_local, x_global, treatment,
                                 "infer")
            leaves = store.bind(T.Tape(record=False))
            swap = model.rollout(leaves, x_local[:, :, perm], x_global,
                                 treatment, "infer")
            assert np.allclose(stacked(base, "y_hat"), stacked(swap, "y_hat"),
                               atol=1e-9)
            assert np.allclose(stacked(base, "a_prob"),
                               stacked(swap, "a_prob"), atol=1e-9)
            assert np.allclose(stacked(base, "x_loc_hat")[:, :, perm],
                               stacked(swap, "x_loc_hat"), atol=1e-9)


def test_baseline_rollout_shapes_and_determinism():
    cfg = small_cfg()
    model, store, leaves = bound_model(ModelVariant.RNN_BASELINE, cfg)
    x_local, x_global, treatment = batch_from_sim(cfg, 2, seed=10,
                                                  intervention=5)
    out = model.rollout(leaves, x_local, x_global, treatment, "train")
    assert stacked(out, "y_hat").shape == (2, cfg.n_steps, 1)
    assert stacked(out, "x_loc_hat").shape == (2, cfg.n_steps - 1,
                                              cfg.n_agents, 5)
    assert stacked(out, "x_g_hat").shape == (2, cfg.n_steps - 1, 1)
    assert term_sum(out, "kl") == 0.0
    assert elbo_steps(out) == 0
    leaves = store.bind(T.Tape(record=False))
    rep = model.rollout(leaves, x_local, x_global, treatment, "train")
    assert np.array_equal(stacked(out, "y_hat"), stacked(rep, "y_hat"))


def test_scale_row_values():
    cfg = small_cfg()
    row = scale_row(cfg)
    assert row.shape == (5,)
    assert np.allclose(row, [1.0 / cfg.box_half, 1.0 / cfg.box_half,
                             1.0 / cfg.speed, 1.0 / cfg.speed,
                             1.0 / cfg.max_turn_rad], atol=0)


def test_init_store_deterministic_and_tagged():
    cfg = small_cfg()
    model = CrnModel(ModelVariant.TGV_CRN, cfg, SMALL)
    s1, s2 = model.init_store(3), model.init_store(3)
    assert s1.params.keys() == s2.params.keys()
    for name in s1.params:
        assert np.array_equal(s1.params[name].array, s2.params[name].array)
    s3 = model.init_store(4)
    assert any(not np.array_equal(s1.params[n].array, s3.params[n].array)
               for n in s1.params)
    assert s1.meta["variant"] == "tgv_crn"
    baseline = CrnModel(ModelVariant.RNN_BASELINE, cfg, SMALL)
    assert baseline.init_store(0).meta["variant"] == "rnn_baseline"


# ITE prediction -------------------------------------------------------------


def test_predict_ite_arm_layout():
    cfg = small_cfg()
    model, store, _ = bound_model(ModelVariant.TGV_CRN, cfg)
    x_local, x_global, _ = batch_from_sim(cfg, 3, seed=20)
    out = predict_ite(model, store, x_local, x_global, chunk=2)
    arms = cfg.intervention_steps
    assert out["arms"] == arms + [NEVER_TREATED]
    n_arms = len(arms) + 1
    assert out["y_all"].shape == (3, n_arms, cfg.n_steps)
    assert out["a_all"].shape == (3, n_arms, cfg.n_steps)
    assert out["y_final"].shape == (3, n_arms)
    assert out["tau_hat"].shape == (3, n_arms - 1)
    assert np.array_equal(out["y_final"], out["y_all"][:, :, -1])
    assert np.allclose(out["tau_hat"],
                       out["y_final"][:, :-1] - out["y_final"][:, -1:],
                       atol=0)
    assert set(out["best_timing"]).issubset(set(arms))
    # covariate predictions of world steps burn..T-1 only
    n_free = cfg.n_steps - cfg.burn_in
    assert out["x_loc_hat"].shape == (3, n_arms, n_free, cfg.n_agents, 5)
    assert out["x_g_hat"].shape == (3, n_arms, n_free, 1)


def test_predict_ite_chunking_invariant():
    cfg = small_cfg()
    model, store, _ = bound_model(ModelVariant.TGV_CRN, cfg, seed=21)
    x_local, x_global, _ = batch_from_sim(cfg, 5, seed=21)
    one = predict_ite(model, store, x_local, x_global, chunk=5)
    two = predict_ite(model, store, x_local, x_global, chunk=2)
    assert np.array_equal(one["y_all"], two["y_all"])
    assert np.array_equal(one["best_timing"], two["best_timing"])


def test_predict_ite_deterministic_and_mc_seeded():
    cfg = small_cfg()
    model, store, _ = bound_model(ModelVariant.TGV_CRN, cfg, seed=22)
    x_local, x_global, _ = batch_from_sim(cfg, 2, seed=22)
    a = predict_ite(model, store, x_local, x_global)
    b = predict_ite(model, store, x_local, x_global)
    assert np.array_equal(a["y_all"], b["y_all"])
    mc1 = predict_ite(model, store, x_local, x_global, mc_samples=3, seed=5)
    mc2 = predict_ite(model, store, x_local, x_global, mc_samples=3, seed=5)
    assert np.array_equal(mc1["y_all"], mc2["y_all"])
    mc3 = predict_ite(model, store, x_local, x_global, mc_samples=3, seed=6)
    assert not np.array_equal(mc1["y_all"], mc3["y_all"])
    assert not np.array_equal(a["y_all"], mc1["y_all"])


def test_predict_ite_zero_params_gives_zero_effect():
    cfg = small_cfg()
    model = CrnModel(ModelVariant.TGV_CRN, cfg, SMALL)
    store = zero_store(model)
    x_local, x_global, _ = batch_from_sim(cfg, 2, seed=23)
    out = predict_ite(model, store, x_local, x_global)
    assert np.array_equal(out["y_final"], np.full_like(out["y_final"], 0.5))
    assert np.array_equal(out["tau_hat"], np.zeros_like(out["tau_hat"]))
    # argmax ties resolve to the earliest intervention step
    assert np.all(out["best_timing"] == cfg.intervention_steps[0])


def test_predict_ite_only_burn_in_prefix_matters():
    cfg = small_cfg()
    model, store, _ = bound_model(ModelVariant.TGV_CRN, cfg, seed=24)
    x_local, x_global, _ = batch_from_sim(cfg, 2, seed=24)
    noisy_l = x_local.copy()
    noisy_g = x_global.copy()
    noisy_l[:, cfg.burn_in:] = 123.0
    noisy_g[:, cfg.burn_in:] = 0.77
    a = predict_ite(model, store, x_local, x_global)
    b = predict_ite(model, store, noisy_l, noisy_g)
    assert np.array_equal(a["y_all"], b["y_all"])
    assert np.array_equal(a["tau_hat"], b["tau_hat"])


def test_predict_ite_rejects_bad_arms_before_any_step():
    cfg = small_cfg()
    model, store, _ = bound_model(ModelVariant.TGV_CRN, cfg, seed=25)
    x_local, x_global, _ = batch_from_sim(cfg, 2, seed=25)

    def no_step(*args, **kwargs):
        raise AssertionError("stepped before the arms were checked")

    model.step = no_step
    for arms in ([], [cfg.n_steps], [-1], [5, cfg.n_steps + 3]):
        with pytest.raises(ContractError):
            predict_ite(model, store, x_local, x_global, arms=arms)


@pytest.mark.parametrize("kwargs", [{"chunk": 0}, {"chunk": -2},
                                    {"mc_samples": -1}])
def test_predict_ite_rejects_bad_counts(kwargs):
    # unchecked, chunk = 0 fails inside range() and mc_samples = -1 runs
    # deterministically
    cfg = small_cfg()
    model, store, _ = bound_model(ModelVariant.TGV_CRN, cfg, seed=25)
    x_local, x_global, _ = batch_from_sim(cfg, 2, seed=25)
    with pytest.raises(ContractError, match="mc_samples >= 0 and chunk >= 1"):
        predict_ite(model, store, x_local, x_global, **kwargs)


def one_process(monkeypatch):
    """Run predict_ite's chunks in this process: a call count belongs to
    one process, and a forked chunk's calls are counted in its child."""
    monkeypatch.setattr(parallel, "process_count", lambda n_items: 1)


@pytest.mark.parametrize("variant", [ModelVariant.TG_CRN,
                                     ModelVariant.RNN_BASELINE])
def test_predict_ite_runs_one_pass_when_nothing_is_drawn(variant,
                                                         monkeypatch):
    one_process(monkeypatch)
    calls = []
    for name in ("latent", "step"):
        method = getattr(CrnModel, name)

        def counted(self, *args, _method=method, **kwargs):
            calls.append(None)
            return _method(self, *args, **kwargs)

        monkeypatch.setattr(CrnModel, name, counted)
    cfg = fork_cfg()
    model, store, _ = bound_model(variant, cfg, seed=33)
    x_local, x_global, _ = batch_from_sim(cfg, 3, seed=33)
    ref = predict_ite(model, store, x_local, x_global, chunk=2)
    n_calls = len(calls)
    # three passes would average x/3 three times, which is not always x
    for mc in (3, 4):
        calls.clear()
        got = predict_ite(model, store, x_local, x_global, chunk=2,
                          mc_samples=mc, seed=7)
        assert len(calls) == n_calls
        assert got.keys() == ref.keys()
        for key in got:
            assert np.array_equal(got[key], ref[key]), (mc, key)


def fork_cfg():
    # desk-length episode with few agents: room for arms 3, 9 and 11
    return SimConfig(n_agents=4, n_steps=14, burn_in=9, t_i_start=9,
                     t_i_end=13).validate()


def per_arm_reference(model, store, x_local, x_global, arms, chunk):
    """One full infer-mode rollout per arm, chunked as predict_ite chunks."""
    n, n_steps = x_local.shape[0], x_local.shape[1]
    n_free = n_steps - model.cfg.burn_in
    all_arms = list(arms) + [None]
    ref = {"y_all": np.zeros((n, len(all_arms), n_steps)),
           "a_all": np.zeros((n, len(all_arms), n_steps)),
           "x_loc_hat": np.zeros((n, len(all_arms), n_free,
                                  model.cfg.n_agents, 5)),
           "x_g_hat": np.zeros((n, len(all_arms), n_free, 1))}
    for start in range(0, n, chunk):
        rows = slice(start, min(start + chunk, n))
        for ai, arm in enumerate(all_arms):
            leaves = store.bind(T.Tape(record=False))
            roll = model.rollout(
                leaves, x_local[rows], x_global[rows],
                absorbing(rows.stop - start, n_steps, arm), "infer")
            ref["y_all"][rows, ai] = stacked(roll, "y_hat")[:, :, 0]
            ref["a_all"][rows, ai] = stacked(roll, "a_prob")[:, :, 0]
            ref["x_loc_hat"][rows, ai] = stacked(roll, "x_loc_hat")
            ref["x_g_hat"][rows, ai] = stacked(roll, "x_g_hat")
    y_final = ref["y_all"][:, :, -1]
    ref["tau_hat"] = y_final[:, :-1] - y_final[:, -1:]
    ref["best_timing"] = np.array(arms)[np.argmax(y_final[:, :-1], axis=1)]
    return ref


@pytest.mark.parametrize("variant", list(ModelVariant))
def test_predict_ite_matches_per_arm_rollouts(variant):
    cfg = fork_cfg()
    model, store, _ = bound_model(variant, cfg, seed=26)
    x_local, x_global, _ = batch_from_sim(cfg, 5, seed=26)
    # the default window, an arm inside burn-in, unsorted duplicate arms
    for arms in (cfg.intervention_steps, [3], [11, 9, 9]):
        got = predict_ite(model, store, x_local, x_global, arms=arms,
                          chunk=2)
        ref = per_arm_reference(model, store, x_local, x_global, arms, 2)
        assert got["arms"] == list(arms) + [NEVER_TREATED]
        for key, val in ref.items():
            assert np.array_equal(got[key], val), (arms, key)


def test_predict_ite_mc_shares_trunk_draws_before_each_start():
    cfg = fork_cfg()
    for variant in (ModelVariant.TGV_CRN, ModelVariant.GV_CRN):
        model, store, _ = bound_model(variant, cfg, seed=27)
        x_local, x_global, _ = batch_from_sim(cfg, 3, seed=27)
        arms, n_pass, seed = [11, 3, 9], 2, 8
        got = predict_ite(model, store, x_local, x_global, arms=arms,
                          mc_samples=n_pass, seed=seed)
        n_arms = len(arms) + 1
        # never-treated column: full sampled rollouts under that arm's keys
        acc = {"y_hat": 0.0, "a_prob": 0.0, "x_loc_hat": 0.0, "x_g_hat": 0.0}
        for p in range(n_pass):
            leaves = store.bind(T.Tape(record=False))
            rng = Rng(derive_seed(seed, "ite-mc", p * n_arms + n_arms - 1))
            roll = model.rollout(
                leaves, x_local, x_global,
                absorbing(3, cfg.n_steps, None), "infer", rng=rng)
            for name in acc:
                acc[name] = acc[name] + stacked(roll, name) / n_pass
        assert np.array_equal(got["y_all"][:, -1], acc["y_hat"][:, :, 0])
        assert np.array_equal(got["a_all"][:, -1], acc["a_prob"][:, :, 0])
        assert np.array_equal(got["x_loc_hat"][:, -1], acc["x_loc_hat"])
        assert np.array_equal(got["x_g_hat"][:, -1], acc["x_g_hat"])
        # each treated arm is the trunk until its start, then its own draws;
        # covariate entry j is step burn-1+j's prediction
        for ai, s in enumerate(arms):
            for key in ("y_all", "a_all", "x_loc_hat", "x_g_hat"):
                cut = s if key in ("y_all", "a_all") else max(
                    0, s + 1 - cfg.burn_in)
                assert np.array_equal(got[key][:, ai, :cut],
                                      got[key][:, -1, :cut]), (s, key)
            assert not np.array_equal(got["a_all"][:, ai, s:],
                                      got["a_all"][:, -1, s:])
            # step s's latent half reads no treatment: it is the trunk's draw
            assert np.array_equal(got["a_all"][:, ai, s],
                                  got["a_all"][:, -1, s]), s


@pytest.mark.parametrize("variant", [ModelVariant.TGV_CRN,
                                     ModelVariant.GV_CRN,
                                     ModelVariant.TV_CRN])
def test_predict_ite_chunks_draw_their_own_noise(variant):
    # episodes 2-3 repeat episodes 0-1; with chunk=2 they fall in the second
    # chunk, which must not replay the first chunk's draws
    cfg = fork_cfg()
    model, store, _ = bound_model(variant, cfg, seed=28)
    x_local, x_global, _ = batch_from_sim(cfg, 2, seed=28)
    x_local = np.concatenate([x_local, x_local])
    x_global = np.concatenate([x_global, x_global])
    mc = predict_ite(model, store, x_local, x_global, mc_samples=2, seed=4,
                     chunk=2)
    for key in ("y_all", "a_all", "x_loc_hat", "x_g_hat"):
        for i in (0, 1):
            assert not np.array_equal(mc[key][i], mc[key][i + 2]), (key, i)
    # the first chunk keeps the keys of a call that fits in one chunk
    head = predict_ite(model, store, x_local[:2], x_global[:2],
                       mc_samples=2, seed=4, chunk=2)
    for key in ("y_all", "a_all", "x_loc_hat", "x_g_hat"):
        assert np.array_equal(mc[key][:2], head[key]), key
    # deterministic calls draw nothing, so chunking cannot move them
    two, four = (predict_ite(model, store, x_local, x_global, chunk=c)
                 for c in (2, 4))
    assert two.keys() == four.keys()
    for key in two:
        assert np.array_equal(two[key], four[key]), key


def head_on_world():
    """Two episodes of a K = 2 pair 0.75 apart in each other's orientation
    zone, heading straight at each other at every step."""
    cfg = SimConfig(n_agents=2, n_steps=8, burn_in=5, t_i_start=5,
                    t_i_end=7).validate()
    x_local = np.zeros((2, cfg.n_steps, 2, 5))
    x_local[:, :, 1, 0] = 0.75
    x_local[:, :, 0, 2] = cfg.speed
    x_local[:, :, 1, 2] = -cfg.speed
    return cfg, x_local, np.zeros((2, cfg.n_steps, 1))


@pytest.mark.parametrize("variant", [ModelVariant.TGV_CRN,
                                     ModelVariant.GV_CRN])
def test_predict_ite_shares_each_start_steps_latent_half(variant,
                                                         monkeypatch):
    # a prior GNN per latent half: the trunk's T steps plus each arm's steps
    # after its start, T + sum(T - s) - A halves per chunk; a decoder GNN
    # per half that decodes, t in burn-1..T-2
    one_process(monkeypatch)
    calls = []
    forward = GnnBlock.__call__

    def counted(block, *args, **kwargs):
        calls.append(block.name)
        return forward(block, *args, **kwargs)

    monkeypatch.setattr(GnnBlock, "__call__", counted)
    cfg = fork_cfg()
    model, store, _ = bound_model(variant, cfg, seed=32)
    x_local, x_global, _ = batch_from_sim(cfg, 3, seed=32)
    n_steps = cfg.n_steps
    for arms in (cfg.intervention_steps, [11, 9, 9], [3]):
        for chunk in (3, 2):
            calls.clear()
            predict_ite(model, store, x_local, x_global, arms=arms,
                        chunk=chunk)
            halves = n_steps + sum(n_steps - s for s in arms) - len(arms)
            decoded = n_steps - cfg.burn_in + sum(
                max(0, n_steps - 1 - max(s + 1, cfg.burn_in - 1))
                for s in arms)
            n_chunks = -(-3 // chunk)
            assert len(calls) == (halves + decoded) * n_chunks, (arms, chunk)
            assert calls.count("prior") == halves * n_chunks
            assert calls.count("dec") == decoded * n_chunks


def test_predict_ite_degenerate_worlds_stay_finite():
    worlds = []
    for k in (1, 2):
        cfg = SimConfig(n_agents=k, n_steps=8, burn_in=5, t_i_start=5,
                        t_i_end=7).validate()
        x_local, x_global, _ = batch_from_sim(cfg, 2, seed=28)
        worlds.append((cfg, x_local, x_global))
    cfg = small_cfg()
    x_local, x_global, _ = batch_from_sim(cfg, 2, seed=29)
    x_local[:, :, :, 0:2] = x_local[:, :, :1, 0:2]   # every agent on one spot
    worlds.append((cfg, x_local, x_global))
    worlds.append(head_on_world())
    T.set_strict_finite(True)
    try:
        for variant in (ModelVariant.TGV_CRN, ModelVariant.GV_CRN,
                        ModelVariant.RNN_BASELINE):
            for cfg, x_local, x_global in worlds:
                model = CrnModel(variant, cfg, SMALL)
                # zero parameters propose no turn, so the head-on pair's
                # alignment targets cancel exactly at every burn-in step
                store = (zero_store(model) if x_local is worlds[-1][1]
                         else model.init_store(30))
                out = predict_ite(model, store, x_local, x_global, chunk=1,
                                  mc_samples=2)
                for key in ("y_all", "a_all", "x_loc_hat", "x_g_hat"):
                    assert np.all(np.isfinite(out[key])), (variant, key)
                assert np.all((out["y_all"] > 0.0) & (out["y_all"] < 1.0))
    finally:
        T.set_strict_finite(False)


def test_training_micro_batch_degenerate_worlds_stay_finite():
    # one rollout + loss_total + backward per variant and world, with every
    # op checked for finite output: a lone agent, a single pair, and a flock
    # on one spot (zero pair distances and centroid offsets)
    worlds = []
    for k in (1, 2):
        cfg = SimConfig(n_agents=k, n_steps=8, burn_in=5, t_i_start=5,
                        t_i_end=7).validate()
        worlds.append((cfg, [simulate(cfg, 31, 6), simulate(cfg, 32, None)]))
    cfg = small_cfg()
    worlds.append((cfg, [simulate(cfg, 33, 5), simulate(cfg, 34, None)]))
    for ep in worlds[-1][1]:
        ep.x_local[:, :, 0:2] = ep.x_local[:, :1, 0:2]   # every agent on one spot
    # a head-on pair under zero parameters: cancelled alignment targets
    cfg, head_on, _ = head_on_world()
    eps = [simulate(cfg, 37, 6), simulate(cfg, 38, None)]
    for ep, x_local in zip(eps, head_on):
        ep.x_local[:] = x_local
    worlds.append((cfg, eps))
    T.set_strict_finite(True)
    try:
        for variant in (ModelVariant.TGV_CRN, ModelVariant.GV_CRN,
                        ModelVariant.RNN_BASELINE):
            for cfg, eps in worlds:
                x_local, x_global, treatment, outcome = (
                    np.stack([getattr(e, key) for e in eps]).astype(np.float64)
                    for key in ("x_local", "x_global", "treatment", "outcome"))
                model = CrnModel(variant, cfg, SMALL)
                store = (zero_store(model) if eps is worlds[-1][1]
                         else model.init_store(35))
                tape = T.Tape()
                leaves = store.bind(tape)
                roll = model.rollout(leaves, x_local, x_global, treatment,
                                     "train", rng=Rng(36))
                total, parts = loss_total(roll, x_local, x_global, outcome,
                                          treatment, LossWeights())
                assert all(np.isfinite(v) for v in parts.values()), \
                    (variant, cfg.n_agents)
                T.backward(total)
                grads = store.gradients()
                assert grads and all(np.all(np.isfinite(g))
                                     for g in grads.values()), variant
    finally:
        T.set_strict_finite(False)


# covariates are decoded only where something reads them --------------------


@pytest.mark.parametrize("variant", list(ModelVariant))
def test_skipped_decodes_change_no_output(variant, monkeypatch):
    cfg = fork_cfg()
    model, store, _ = bound_model(variant, cfg, seed=40)
    x_local, x_global, treatment = batch_from_sim(cfg, 3, seed=40,
                                                  intervention=10)
    outcome = np.stack([simulate(cfg, 40 + i, 10).outcome
                        for i in range(3)]).astype(np.float64)

    def run():
        preds = [predict_ite(model, store, x_local, x_global, chunk=2,
                             mc_samples=mc, seed=3)
                 for mc in (0, 2)]
        losses = []
        for rng in (Rng(derive_seed(4, "decode")), None):
            tape = T.Tape()
            leaves = store.bind(tape)
            roll = model.rollout(leaves, x_local, x_global, treatment,
                                 "train", rng=rng)
            total, parts = loss_total(roll, x_local, x_global, outcome,
                                      treatment, LossWeights())
            T.backward(total)
            losses.append((parts, store.gradients()))
        return preds, losses

    preds, losses = run()
    # the reference decodes every step, burn-in prefix and last step too
    monkeypatch.setattr(CrnModel, "decodes", lambda self, t, mode: True)
    ref_preds, ref_losses = run()
    window = slice(cfg.burn_in - 1, cfg.n_steps - 1)
    for got, ref in zip(preds, ref_preds):
        for key in ("y_all", "a_all", "tau_hat", "best_timing"):
            assert np.array_equal(got[key], ref[key]), key
        for key in ("x_loc_hat", "x_g_hat"):
            assert ref[key].shape[2] == cfg.n_steps
            assert np.array_equal(got[key], ref[key][:, :, window]), key
    for (parts, grads), (ref_parts, ref_grads) in zip(losses, ref_losses):
        assert parts == ref_parts
        assert grads.keys() == ref_grads.keys()
        for name in grads:
            assert np.array_equal(grads[name], ref_grads[name]), name


def test_desk_chunk_decodes_only_read_steps(monkeypatch):
    # one 32-episode desk chunk: 24 prior GNN calls (latent halves) plus 11
    # decoder calls, and 15 theory steps (trunk steps 8..12, forks at
    # 9..12, and the arms' tail steps up to 12)
    gnn_calls, turns = [], []
    forward, turn = GnnBlock.__call__, model_module.theory_turn

    def counted(block, *args, **kwargs):
        gnn_calls.append(block.name)
        return forward(block, *args, **kwargs)

    def counted_turn(*args, **kwargs):
        turns.append(None)
        return turn(*args, **kwargs)

    monkeypatch.setattr(GnnBlock, "__call__", counted)
    monkeypatch.setattr(model_module, "theory_turn", counted_turn)
    cfg = SimConfig().validate()
    model = CrnModel(ModelVariant.TGV_CRN, cfg, SMALL)
    store = model.init_store(41)
    x_local, x_global, treatment = batch_from_sim(cfg, 32, seed=41)
    predict_ite(model, store, x_local, x_global, chunk=32)
    assert len(gnn_calls) == 35
    assert gnn_calls.count("prior") == 24 and gnn_calls.count("dec") == 11
    assert len(turns) == 15

    # a training micro-batch: no decoder and no theory node at t = T-1
    gnn_calls.clear()
    turns.clear()
    tape = T.Tape()
    model.rollout(store.bind(tape), x_local, x_global, treatment, "train",
                  rng=Rng(42))
    kinds = [node.kind for node in tape.nodes]
    assert gnn_calls.count("dec") == cfg.n_steps - 1
    assert gnn_calls.count("prior") == cfg.n_steps
    assert len(turns) == kinds.count("theory_turn") == cfg.n_steps - 1
    assert kinds.count("group_spin") == cfg.n_steps - 1


def full_matmul_rule(g, saved):
    """The matmul backward rule computing both operands' gradients."""
    a, b = saved[0], saved[1]
    g_rows = g.reshape(-1, g.shape[-1])
    return ((g_rows @ b.T).reshape(a.shape),
            a.reshape(-1, a.shape[-1]).T @ g_rows)


@pytest.mark.parametrize("variant", [ModelVariant.TGV_CRN,
                                     ModelVariant.RNN_BASELINE])
def test_matmul_skipping_constants_keeps_gradients_bitwise(variant,
                                                           monkeypatch):
    # the lifted burn-in inputs and the zero state at t = 0 reach matmul as
    # constant operands; skipping their gradients moves no leaf gradient
    cfg = fork_cfg()
    model, store, _ = bound_model(variant, cfg, seed=43)
    x_local, x_global, treatment = batch_from_sim(cfg, 3, seed=43,
                                                  intervention=10)
    outcome = np.stack([simulate(cfg, 43 + i, 10).outcome
                        for i in range(3)]).astype(np.float64)

    def gradients():
        tape = T.Tape()
        roll = model.rollout(store.bind(tape), x_local, x_global, treatment,
                             "train", rng=Rng(44))
        total, _ = loss_total(roll, x_local, x_global, outcome, treatment,
                              LossWeights())
        constant = sum(node.kind == "matmul" and -1 in node.inputs
                       for node in tape.nodes)
        T.backward(total)
        return store.gradients(), constant

    got, constant = gradients()
    assert constant > 0
    monkeypatch.setitem(T.BACKWARD, "matmul", full_matmul_rule)
    ref, _ = gradients()
    assert got.keys() == ref.keys()
    for name in got:
        assert np.array_equal(got[name], ref[name]), name


# a Gaussian head's sigma is computed only where something reads it ---------


def always_sigma(monkeypatch):
    """Make every Gaussian head compute its sigma, as all heads once did."""
    forward = GaussianHead.forward

    def with_sigma(head, leaves, x, with_sigma=True):
        return forward(head, leaves, x, True)

    monkeypatch.setattr(GaussianHead, "forward", with_sigma)
    monkeypatch.setattr(GaussianHead, "__call__", with_sigma)


@pytest.mark.parametrize("variant", list(ModelVariant))
def test_skipped_sigmas_change_no_output(variant, monkeypatch):
    cfg = fork_cfg()
    model, store, _ = bound_model(variant, cfg, seed=45)
    x_local, x_global, treatment = batch_from_sim(cfg, 3, seed=45,
                                                  intervention=10)
    outcome = np.stack([simulate(cfg, 45 + i, 10).outcome
                        for i in range(3)]).astype(np.float64)

    def run():
        preds = [predict_ite(model, store, x_local, x_global, chunk=2,
                             mc_samples=mc, seed=5)
                 for mc in (0, 2)]
        losses = []
        for rng in (Rng(derive_seed(6, "sigma")), None):
            tape = T.Tape()
            leaves = store.bind(tape)
            roll = model.rollout(leaves, x_local, x_global, treatment,
                                 "train", rng=rng)
            total, parts = loss_total(roll, x_local, x_global, outcome,
                                      treatment, LossWeights())
            T.backward(total)
            losses.append((parts, store.gradients()))
        return preds, losses

    preds, losses = run()
    always_sigma(monkeypatch)
    ref_preds, ref_losses = run()
    for got, ref in zip(preds, ref_preds):
        assert got.keys() == ref.keys()
        for key in got:
            assert np.array_equal(got[key], ref[key]), key
    for (parts, grads), (ref_parts, ref_grads) in zip(losses, ref_losses):
        assert parts == ref_parts
        assert grads.keys() == ref_grads.keys()
        for name in grads:
            assert np.array_equal(grads[name], ref_grads[name]), name


def test_deterministic_desk_chunk_runs_no_sigma_head(monkeypatch):
    # one 32-episode desk chunk reads only mu: no softplus at all, where
    # every head computing its sigma made 24 prior and 11 decoder ones
    calls = []
    softplus = T.softplus

    def counted(a):
        calls.append(None)
        return softplus(a)

    monkeypatch.setattr(T, "softplus", counted)
    cfg = SimConfig().validate()
    model = CrnModel(ModelVariant.TGV_CRN, cfg, SMALL)
    store = model.init_store(46)
    x_local, x_global, _ = batch_from_sim(cfg, 32, seed=46)
    predict_ite(model, store, x_local, x_global, chunk=32)
    assert calls == []
    # a sampled call reads the prior's sigma at every latent half
    predict_ite(model, store, x_local, x_global, chunk=32, mc_samples=1)
    assert len(calls) == 24
    calls.clear()
    always_sigma(monkeypatch)
    predict_ite(model, store, x_local, x_global, chunk=32)
    assert len(calls) == 35
