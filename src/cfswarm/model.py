"""Counterfactual recurrent model over agent trajectories.

Per step the model infers per-agent latents (GNN prior, and a GNN encoder
peeking at the next observation during training), decodes them into a
proposed motion, integrates that proposal with the rule-based body
constraints (turn limit, attraction toward the group center, alignment),
updates a shared-parameter GRU per agent, and emits outcome and treatment
probabilities from the pooled latent.

Rollouts teacher-force observed covariates for the burn-in prefix and then
free-run on the model's own predictions, which is what makes counterfactual
treatment sequences answerable: arms differ only in the treatment input.

Variants: the full model (theory + GNN + variational), and ablations that
drop the theory layer (decoder predicts covariates directly, plus a separate
global-signal VRNN), drop stochasticity (latents pinned to the prior mean),
or swap GNNs for flat MLPs; plus a plain GRU baseline with none of the
structure.
"""

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import tensor as T
from .blocks import FlatBlock, GaussianHead, GnnBlock, GruCell, Mlp, treatment_head
from .boids import SimConfig
from .data import final_effects
from .errors import ContractError, DimensionError
from .optim import ParamStore
from .rng import Rng, derive_seed

_EPS = 1e-24


class ModelVariant(str, Enum):
    TGV_CRN = "tgv_crn"
    GV_CRN = "gv_crn"
    TG_CRN = "tg_crn"
    TV_CRN = "tv_crn"
    RNN_BASELINE = "rnn_baseline"

    @property
    def uses_theory(self) -> bool:
        return self in (ModelVariant.TGV_CRN, ModelVariant.TG_CRN,
                        ModelVariant.TV_CRN)

    @property
    def uses_encoder(self) -> bool:
        # the deterministic ablation pins z to the prior mean everywhere
        return self in (ModelVariant.TGV_CRN, ModelVariant.GV_CRN,
                        ModelVariant.TV_CRN)

    @property
    def uses_gnn(self) -> bool:
        return self in (ModelVariant.TGV_CRN, ModelVariant.GV_CRN,
                        ModelVariant.TG_CRN)


@dataclass
class ModelDims:
    hidden: int = 32       # per-agent GRU state
    latent: int = 8        # per-agent latent z
    feat: int = 32         # GNN/flat feature width ahead of Gaussian heads
    gnn_hidden: int = 32
    gnn_edge: int = 32
    mlp_hidden: int = 64   # outcome / treatment heads
    g_hidden: int = 16     # global-branch VRNN (no-theory variant)
    g_latent: int = 4
    g_feat: int = 16
    rnn_hidden: int = 64   # flat GRU baseline


@dataclass
class RolloutOutput:
    """Per-step predictions plus the ELBO pieces of one batched rollout.

    All per-step lists have length T.  x_loc_hat[t] / x_g_hat[t] predict step
    t+1 in raw covariate units; y_hat[t] predicts the outcome at t+1.
    kl_sum and recon_sum are sums over batch, agents and dims, accumulated
    over elbo_steps burn-in steps (divide by batch_size * elbo_steps for the
    per-episode-step loss).  mu_dec traces hold the reconstruction mean in
    target space (turn angle for theory variants, scaled covariates
    otherwise).
    """

    y_hat: list
    a_prob: list
    a_logits: list
    x_loc_hat: list
    x_g_hat: list
    kl_sum: object
    recon_sum: object
    g_kl_sum: object = None
    g_recon_sum: object = None
    batch_size: int = 0
    elbo_steps: int = 0
    traces: dict = field(default_factory=dict)

    def stacked(self, name: str) -> np.ndarray:
        """Detach one per-step list into (B, T, ...) float64."""
        seq = getattr(self, name)
        return np.stack([t.array for t in seq], axis=1)


@dataclass(frozen=True)
class RolloutState:
    """What one rollout step hands the next.  Never mutated, so rollouts
    whose treatments agree up to a step can share the state entering it.

    h is the per-agent GRU state (B, K, hidden), or the baseline's flat GRU
    state (B, rnn_hidden); h_g the gv_crn global-branch state (B, g_hidden).
    After burn-in, step t reads its covariate context from here: ctx_g the
    global signal (B, 1), ctx_loc the baseline's flattened scaled locals,
    and pos / head the raw positions and unit headings (B, K, 2) that theory
    variants integrate from.  During burn-in the observed values replace
    them.
    """

    h: object
    h_g: object = None
    ctx_loc: object = None
    ctx_g: object = None
    pos: object = None
    head: object = None


@dataclass
class StepOutput:
    """One step's predictions, as in RolloutOutput's per-step lists, plus
    its ELBO terms (None where the step adds none) and latent traces."""

    y_hat: object
    a_prob: object
    a_logits: object
    x_loc_hat: object
    x_g_hat: object
    kl: object = None
    recon: object = None
    g_kl: object = None
    g_recon: object = None
    traces: dict = field(default_factory=dict)


_TRACE_KEYS = ("mu_pri", "sigma_pri", "mu_enc", "sigma_enc", "mu_dec",
               "sigma_dec")


def scale_row(cfg: SimConfig) -> np.ndarray:
    """Per-feature factors taking raw local covariates to network units."""
    b = 1.0 / cfg.box_half
    s = 1.0 / cfg.speed
    return np.array([b, b, s, s, 1.0 / cfg.max_turn_rad], dtype=np.float64)


def _pool(z, k):
    return T.mul(T.sum_axis(z, 1), 1.0 / k)


def _split_state(x_loc, cfg):
    """Positions and unit headings from a raw covariate tensor (B, K, 5)."""
    pos = T.slice_axis(x_loc, 2, 0, 2)
    head = T.mul(T.slice_axis(x_loc, 2, 2, 4), 1.0 / cfg.speed)
    return pos, head


def theory_step(theta_prop, positions, headings, a_row, cfg):
    """Integrate proposed turn angles under the rule-based body constraints.

    theta_prop (B, K, 1) holds proposed turn angles in radians; positions and
    headings (B, K, 2) are the current raw state.  a_row (B,) selects the
    orientation radius the alignment rule uses.  Zone memberships are taken
    from current values and treated as constants; gradients flow through the
    angles and positions.  Returns (x_loc_hat, x_g_hat, new_pos, new_head)
    with the realized turn guaranteed inside the turn limit.
    """
    positions, headings = T._lift(positions), T._lift(headings)
    b, k, _ = positions.array.shape
    beta = cfg.max_turn_rad
    # per-agent scalars are (B, K, 1) columns throughout
    theta = T.clip(theta_prop, -beta, beta)

    hx = T.slice_axis(headings, 2, 0, 1)
    hy = T.slice_axis(headings, 2, 1, 2)
    c, s = T.cos(theta), T.sin(theta)
    px = T.sub(T.mul(hx, c), T.mul(hy, s))
    py = T.add(T.mul(hx, s), T.mul(hy, c))

    centroid = T.mul(T.sum_axis(positions, 1, keepdims=True), 1.0 / k)
    rel = T.sub(positions, centroid)
    rel_sq = T.sum_axis(T.square(rel), 2, keepdims=True)
    inv = T.div(1.0, T.sqrt(T.add(rel_sq, _EPS)))
    tx = T.neg(T.mul(T.slice_axis(rel, 2, 0, 1), inv))
    ty = T.neg(T.mul(T.slice_axis(rel, 2, 1, 2), inv))

    # zone bookkeeping on constants, from (B, k, j) planes of x_k - x_j
    # and y_k - y_j
    px_c, py_c = positions.array[..., 0], positions.array[..., 1]
    ddx = px_c[:, :, None] - px_c[:, None, :]
    ddy = py_c[:, :, None] - py_c[:, None, :]
    dist = np.sqrt(ddx * ddx + ddy * ddy)
    off = ~np.eye(k, dtype=bool)[None]
    r_o = np.where(np.asarray(a_row, dtype=np.float64) > 0.5,
                   cfg.orientation_radius_treated,
                   cfg.orientation_radius)[:, None, None]
    orient_pairs = (dist > cfg.repulsion_radius) & (dist <= r_o) & off
    has_rep = ((dist < cfg.repulsion_radius) & off).any(axis=2)
    n_orient = orient_pairs.sum(axis=2)
    far = np.sqrt(rel_sq.array[..., 0]) > cfg.attraction_radius / 2.0
    use_orient = (~far) & (n_orient > 0) & (~has_rep)

    # alignment target: mean heading over orientation-zone neighbours
    mask = orient_pairs.astype(np.float64)[..., None]
    nbr = T.sum_axis(T.mul(T.reshape(headings, (b, 1, k, 2)), mask), 2)
    denom = 1.0 / np.maximum(n_orient, 1)[..., None]
    nbr = T.mul(nbr, denom)
    bx = T.add(T.mul(T.slice_axis(nbr, 2, 0, 1), 0.5), T.mul(px, 0.5))
    by = T.add(T.mul(T.slice_axis(nbr, 2, 1, 2), 0.5), T.mul(py, 0.5))
    bn = T.div(1.0, T.sqrt(T.add(T.add(T.square(bx), T.square(by)), _EPS)))
    bx, by = T.mul(bx, bn), T.mul(by, bn)

    w_far = far.astype(np.float64)[..., None]
    w_or = use_orient.astype(np.float64)[..., None]
    w_keep = 1.0 - w_far - w_or
    dx = T.add(T.add(T.mul(tx, w_far), T.mul(bx, w_or)), T.mul(px, w_keep))
    dy = T.add(T.add(T.mul(ty, w_far), T.mul(by, w_or)), T.mul(py, w_keep))

    # final turn limit against the current heading, then rotate exactly
    cro = T.sub(T.mul(hx, dy), T.mul(hy, dx))
    dot = T.add(T.mul(hx, dx), T.mul(hy, dy))
    turn = T.clip(T.atan2(cro, dot), -beta, beta)
    ct, st = T.cos(turn), T.sin(turn)
    nx = T.sub(T.mul(hx, ct), T.mul(hy, st))
    ny = T.add(T.mul(hx, st), T.mul(hy, ct))

    step_len = cfg.speed * cfg.dt
    new_head = T.concat([nx, ny], 2)
    new_pos = T.add(positions, T.mul(new_head, step_len))
    x_loc_hat = T.concat([new_pos, T.mul(new_head, cfg.speed), turn], 2)

    # group angular momentum of the predicted state
    cen2 = T.mul(T.sum_axis(new_pos, 1, keepdims=True), 1.0 / k)
    rel2 = T.sub(new_pos, cen2)
    inv2 = T.div(1.0, T.sqrt(T.add(
        T.sum_axis(T.square(rel2), 2, keepdims=True), _EPS)))
    rx = T.mul(T.slice_axis(rel2, 2, 0, 1), inv2)
    ry = T.mul(T.slice_axis(rel2, 2, 1, 2), inv2)
    spin = T.sub(T.mul(rx, ny), T.mul(ry, nx))
    x_g_hat = T.absolute(T.mul(T.sum_axis(spin, 1), 1.0 / k))
    return x_loc_hat, x_g_hat, new_pos, new_head


class CrnModel:
    """Variant-parameterized model; parameters live in a ParamStore."""

    def __init__(self, variant: ModelVariant, cfg: SimConfig,
                 dims: ModelDims | None = None):
        self.variant = ModelVariant(variant)
        self.cfg = cfg
        self.dims = dims or ModelDims()
        self._row = scale_row(cfg)
        d, k = self.dims, cfg.n_agents
        v = self.variant

        if v is ModelVariant.RNN_BASELINE:
            n_in = k * 5 + 2  # flattened locals + global + treatment
            self.rnn = GruCell("rnn", n_in, d.rnn_hidden)
            self.mlp_x = Mlp("mlp_x", [d.rnn_hidden, d.mlp_hidden, k * 5 + 1])
            self.mlp_y = Mlp("mlp_y", [d.rnn_hidden + 1, d.mlp_hidden, 1],
                             "sigmoid")
            self.mlp_a = Mlp("mlp_a", [d.rnn_hidden, d.mlp_hidden, 1])
            self._blocks = [self.rnn, self.mlp_x, self.mlp_y, self.mlp_a]
            return

        def make(name, n_in):
            if v.uses_gnn:
                return GnnBlock(name, n_in, d.gnn_hidden, d.gnn_edge, d.feat)
            return FlatBlock(name, k, n_in, d.gnn_hidden * k, d.feat)

        self.prior_net = make("prior", d.hidden)
        self.prior_head = GaussianHead("prior.gauss", d.feat, d.latent)
        if v.uses_encoder:
            self.enc_net = make("enc", 5 + d.hidden)
            self.enc_head = GaussianHead("enc.gauss", d.feat, d.latent)
        else:
            self.enc_net = self.enc_head = None
        dec_out = 1 if v.uses_theory else 5
        self.dec_net = make("dec", d.latent + d.hidden)
        self.dec_head = GaussianHead("dec.gauss", d.feat, dec_out)
        self.rnn = GruCell("rnn", 5 + d.latent, d.hidden)
        self.mlp_y = Mlp("mlp_y", [d.latent + 2, d.mlp_hidden, 1], "sigmoid")
        self.mlp_a = Mlp("mlp_a", [d.latent, d.mlp_hidden, 1])
        self._blocks = [self.prior_net, self.prior_head, self.dec_net,
                        self.dec_head, self.rnn, self.mlp_y, self.mlp_a]
        if self.enc_net is not None:
            self._blocks += [self.enc_net, self.enc_head]

        if v is ModelVariant.GV_CRN:
            self.g_pri = Mlp("gpri", [d.g_hidden, d.g_feat, d.g_feat])
            self.g_pri_head = GaussianHead("gpri.gauss", d.g_feat, d.g_latent)
            self.g_enc = Mlp("genc", [1 + d.g_hidden, d.g_feat, d.g_feat])
            self.g_enc_head = GaussianHead("genc.gauss", d.g_feat, d.g_latent)
            self.g_dec = Mlp("gdec", [d.g_latent + d.g_hidden, d.g_feat,
                                      d.g_feat])
            self.g_dec_head = GaussianHead("gdec.gauss", d.g_feat, 1)
            self.g_rnn = GruCell("grnn", 1 + d.g_latent, d.g_hidden)
            self._blocks += [self.g_pri, self.g_pri_head, self.g_enc,
                             self.g_enc_head, self.g_dec, self.g_dec_head,
                             self.g_rnn]

    def init_store(self, seed: int = 0) -> ParamStore:
        store = ParamStore()
        rng = Rng(derive_seed(seed, "model-init"))
        for block in self._blocks:
            block.register(store, rng)
        store.meta["variant"] = self.variant.value
        return store

    # single-step pieces, exposed for composition oracles ------------------

    def prior_step(self, leaves, h):
        return self.prior_head(leaves, self.prior_net(leaves, h))

    def encode_step(self, leaves, x_next_scaled, h):
        if self.enc_net is None:
            raise ContractError("this variant has no encoder")
        inp = T.concat([T._lift(x_next_scaled), T._lift(h)], 2)
        return self.enc_head(leaves, self.enc_net(leaves, inp))

    def decode_step(self, leaves, z, h):
        inp = T.concat([T._lift(z), T._lift(h)], 2)
        return self.dec_head(leaves, self.dec_net(leaves, inp))

    def recurrence_step(self, leaves, x_next_scaled, z, h):
        inp = T.concat([T._lift(x_next_scaled), T._lift(z)], 2)
        return self.rnn(leaves, inp, h)

    def outcome_step(self, leaves, z, x_g, a_col):
        pooled = _pool(T._lift(z), self.cfg.n_agents)
        inp = T.concat([pooled, T._lift(x_g), T._lift(a_col)], 1)
        return self.mlp_y(leaves, inp)

    # rollout ----------------------------------------------------------------

    def init_state(self, b: int) -> RolloutState:
        """Zero recurrent state entering step 0 for a batch of b episodes."""
        d = self.dims
        if self.variant is ModelVariant.RNN_BASELINE:
            return RolloutState(T._lift(np.zeros((b, d.rnn_hidden))))
        h = T._lift(np.zeros((b, self.cfg.n_agents, d.hidden)))
        h_g = (T._lift(np.zeros((b, d.g_hidden)))
               if self.variant is ModelVariant.GV_CRN else None)
        return RolloutState(h, h_g)

    def _checked_inputs(self, x_local, x_global):
        x_local = np.asarray(x_local, dtype=np.float64)
        x_global = np.asarray(x_global, dtype=np.float64)
        if x_local.ndim != 4 or x_local.shape[2] != self.cfg.n_agents \
                or x_local.shape[3] != 5:
            raise DimensionError("x_local must be (B, T, K, 5)")
        b, n_steps = x_local.shape[0], x_local.shape[1]
        if n_steps != self.cfg.n_steps:
            raise DimensionError("episode length does not match the config")
        if x_global.shape != (b, n_steps, 1):
            raise DimensionError("x_global must be (B, T, 1)")
        return x_local, x_global

    def _sampling(self, mode: str, rng: Rng | None,
                  sample_latents: bool | None) -> bool:
        if sample_latents is None:
            sample_latents = mode == "train"
        if self.variant in (ModelVariant.TG_CRN, ModelVariant.RNN_BASELINE):
            sample_latents = False
        if sample_latents and rng is None:
            raise ContractError("sampling rollouts need an rng")
        return sample_latents

    def rollout(self, leaves, x_local, x_global, treatment, mode: str,
                rng: Rng | None = None, sample_latents: bool | None = None,
                trace: bool = False) -> RolloutOutput:
        """Run one batched episode rollout: `init_state`, then `step` per t.

        x_local (B, T, K, 5) and x_global (B, T, 1) are raw observed
        covariates; only the burn-in prefix is consumed in free-run steps.
        treatment (B, T) is the exogenous treatment sequence.  mode "train"
        teacher-forces posterior latents over the burn-in and accumulates
        KL + reconstruction terms; mode "infer" uses the prior throughout.
        sample_latents defaults to True for train and False for infer.
        """
        if mode not in ("train", "infer"):
            raise ContractError(f"unknown rollout mode {mode!r}")
        x_local, x_global = self._checked_inputs(x_local, x_global)
        treatment = np.asarray(treatment, dtype=np.float64)
        b, n_steps = x_local.shape[0], x_local.shape[1]
        if treatment.shape != (b, n_steps):
            raise ContractError("treatment must be (B, T)")
        sample_latents = self._sampling(mode, rng, sample_latents)

        gv = self.variant is ModelVariant.GV_CRN
        out = RolloutOutput([], [], [], [], [], T._lift(0.0), T._lift(0.0),
                            T._lift(0.0) if gv else None,
                            T._lift(0.0) if gv else None,
                            batch_size=b, elbo_steps=0)
        if trace:
            out.traces = {key: [] for key in _TRACE_KEYS}
        state = self.init_state(b)
        for t in range(n_steps):
            state, so = self.step(leaves, state, t, x_local, x_global,
                                  treatment, mode, rng, sample_latents, trace)
            out.y_hat.append(so.y_hat)
            out.a_prob.append(so.a_prob)
            out.a_logits.append(so.a_logits)
            out.x_loc_hat.append(so.x_loc_hat)
            out.x_g_hat.append(so.x_g_hat)
            if so.kl is not None:
                out.kl_sum = T.add(out.kl_sum, so.kl)
            if so.recon is not None:
                out.recon_sum = T.add(out.recon_sum, so.recon)
                out.elbo_steps += 1
            if so.g_kl is not None:
                out.g_kl_sum = T.add(out.g_kl_sum, so.g_kl)
            if so.g_recon is not None:
                out.g_recon_sum = T.add(out.g_recon_sum, so.g_recon)
            for key, val in so.traces.items():
                out.traces[key].append(val)
        return out

    def step(self, leaves, state: RolloutState, t: int, x_local, x_global,
             treatment, mode: str, rng: Rng | None = None,
             sample_latents: bool = False, trace: bool = False):
        """Advance a rollout through step t; returns (next state, StepOutput).

        Arguments are those of `rollout`, already checked, with mode and
        sample_latents resolved.  Step t reads observed covariates only at
        burn-in steps (and x[t+1] for train-mode posteriors and targets) and
        treatment only at column t, so rollouts whose treatments agree before
        s pass the same state into step s; states are never mutated, so such
        rollouts can share it.  The next state is None after the last step.
        """
        if self.variant is ModelVariant.RNN_BASELINE:
            return self._baseline_step(leaves, state, t, x_local, x_global,
                                       treatment)
        cfg = self.cfg
        n_steps, burn, row = cfg.n_steps, cfg.burn_in, self._row
        gv = self.variant is ModelVariant.GV_CRN
        h, h_g = state.h, state.h_g
        ctx_g, pos, head = state.ctx_g, state.pos, state.head
        if t < burn:
            ctx_g = T._lift(x_global[:, t])
            if self.variant.uses_theory:
                pos, head = _split_state(T._lift(x_local[:, t]), cfg)
        a_col = treatment[:, t:t + 1]
        train_burn = mode == "train" and t < burn
        kl = recon = g_kl = g_recon = None

        mu_p, sig_p = self.prior_step(leaves, h)
        use_post = train_burn and self.enc_net is not None
        if use_post:
            x_next_sc = T._lift(x_local[:, t + 1] * row)
            mu_q, sig_q = self.encode_step(leaves, x_next_sc, h)
            kl = T.kl_diag_gauss(mu_q, sig_q, mu_p, sig_p)
            mu_z, sig_z = mu_q, sig_q
        else:
            mu_z, sig_z = mu_p, sig_p
        if sample_latents:
            z = T.gaussian_sample(mu_z, sig_z, rng)
        else:
            z = mu_z

        mu_d, sig_d = self.decode_step(leaves, z, h)
        if self.variant.uses_theory:
            theta_prop = T.mul(T.tanh(mu_d), np.pi)
            x_loc_hat, x_g_hat, pos, head = theory_step(
                theta_prop, pos, head, treatment[:, t], cfg)
            recon_mu, recon_sig = theta_prop, sig_d
            recon_target = (x_local[:, t + 1, :, 4:5]
                            if t + 1 < n_steps else None)
        else:
            x_loc_hat = T.mul(mu_d, 1.0 / row)
            recon_mu, recon_sig = mu_d, sig_d
            recon_target = (x_local[:, t + 1] * row
                            if t + 1 < n_steps else None)
            x_g_hat = None  # filled by the global branch below

        if train_burn and self.variant is not ModelVariant.TG_CRN:
            if recon_target is None:
                raise ContractError("burn-in reconstruction needs x[t+1]")
            recon = T.gaussian_nll(recon_mu, recon_sig, recon_target)

        if gv:
            g_mu_p, g_sig_p = self.g_pri_head(leaves, self.g_pri(leaves, h_g))
            if use_post:
                g_in = T.concat([T._lift(x_global[:, t + 1]), h_g], 1)
                g_mu_q, g_sig_q = self.g_enc_head(
                    leaves, self.g_enc(leaves, g_in))
                g_kl = T.kl_diag_gauss(g_mu_q, g_sig_q, g_mu_p, g_sig_p)
                g_mu_z, g_sig_z = g_mu_q, g_sig_q
            else:
                g_mu_z, g_sig_z = g_mu_p, g_sig_p
            z_g = (T.gaussian_sample(g_mu_z, g_sig_z, rng)
                   if sample_latents else g_mu_z)
            g_mu_d, g_sig_d = self.g_dec_head(
                leaves, self.g_dec(leaves, T.concat([z_g, h_g], 1)))
            x_g_hat = g_mu_d
            if train_burn:
                g_recon = T.gaussian_nll(g_mu_d, g_sig_d, x_global[:, t + 1])

        y = self.outcome_step(leaves, z, ctx_g, a_col)
        a_prob, a_logit = treatment_head(
            self.mlp_a, leaves, _pool(z, cfg.n_agents))
        traces = {}
        if trace:
            pairs = {"mu_pri": mu_p, "sigma_pri": sig_p,
                     "mu_dec": recon_mu, "sigma_dec": recon_sig}
            if use_post:
                pairs["mu_enc"], pairs["sigma_enc"] = mu_q, sig_q
            traces = {key: val.array.copy() for key, val in pairs.items()}
        so = StepOutput(y, a_prob, a_logit, x_loc_hat, x_g_hat,
                        kl, recon, g_kl, g_recon, traces)

        if t + 1 == n_steps:
            return None, so
        if t + 1 < burn:
            nxt_sc = T._lift(x_local[:, t + 1] * row)
            nxt_g = T._lift(x_global[:, t + 1])
        else:
            nxt_sc = T.mul(x_loc_hat, row)
            nxt_g = x_g_hat
        h = self.recurrence_step(leaves, nxt_sc, z, h)
        if gv:
            h_g = self.g_rnn(leaves, T.concat([nxt_g, z_g], 1), h_g)
        return RolloutState(h, h_g, None, nxt_g, pos, head), so

    def _baseline_step(self, leaves, state, t, x_local, x_global, treatment):
        k = self.cfg.n_agents
        row = self._row
        b = x_local.shape[0]
        ctx_flat, ctx_g = state.ctx_loc, state.ctx_g
        if t < self.cfg.burn_in:
            ctx_flat = T._lift((x_local[:, t] * row).reshape(b, k * 5))
            ctx_g = T._lift(x_global[:, t])
        a_col = treatment[:, t:t + 1]
        inp = T.concat([ctx_flat, ctx_g, T._lift(a_col)], 1)
        h = self.rnn(leaves, inp, state.h)
        pred = self.mlp_x(leaves, h)
        x_loc_sc = T.reshape(T.slice_axis(pred, 1, 0, k * 5), (b, k, 5))
        x_g_hat = T.slice_axis(pred, 1, k * 5, k * 5 + 1)
        x_loc_hat = T.mul(x_loc_sc, 1.0 / row)
        y = self.mlp_y(leaves, T.concat([h, T._lift(a_col)], 1))
        a_logit = self.mlp_a(leaves, h)
        so = StepOutput(y, T.sigmoid(a_logit), a_logit, x_loc_hat, x_g_hat)
        if t + 1 == self.cfg.n_steps:
            return None, so
        if t + 1 < self.cfg.burn_in:  # step t+1 reads its context from x
            return RolloutState(h), so
        return RolloutState(h, None, T.reshape(x_loc_sc, (b, k * 5)),
                            x_g_hat), so


def treatment_matrix(n: int, n_steps: int, arm: int | None) -> np.ndarray:
    """(n, T) absorbing treatment rows for one intervention step (None = never)."""
    a = np.zeros((n, n_steps), dtype=np.float64)
    if arm is not None:
        if not (0 <= arm < n_steps):
            raise ContractError("intervention step outside the episode")
        a[:, arm:] = 1.0
    return a


def predict_ite(model: CrnModel, store: ParamStore, x_local, x_global,
                arms: list[int] | None = None, mc_samples: int = 0,
                seed: int = 0, chunk: int = 32, trace: bool = False):
    """Counterfactual outcome predictions for every intervention timing.

    Predicts one infer-mode rollout per arm in T_i plus a never-treated arm,
    deterministic (latents at the prior mean) unless mc_samples > 0, in which
    case that many sampled rollouts are averaged.  Only the burn-in prefix of
    x_local/x_global is consumed, so any arm's factual trajectory works.

    Treatment is absorbing and step t reads only treatment[:, :t+1], so an
    arm starting at s is the never-treated arm until step s.  Per chunk the
    never-treated trunk is therefore stepped once through all T steps, and
    each treated arm forks from the trunk's state entering step s and steps
    only s..T-1: T + sum(T - s) model steps instead of one T-step rollout
    per arm (29 instead of 84 on the desk world).  Deterministic outputs
    equal the per-arm rollouts bitwise.  With mc_samples > 0 the trunk draws
    from the never-treated arm's key, so the arms share their latent draws
    before they fork (common random numbers); each treated arm draws from
    its own key from its start step on.

    Returns a dict with y_final (n, A), tau_hat (n, A-1), best_timing (n,),
    y_all (n, A, T), a_all, and predicted-state traces when trace=True.
    """
    cfg = model.cfg
    x_local, x_global = model._checked_inputs(x_local, x_global)
    n, n_steps = x_local.shape[0], x_local.shape[1]
    arms = list(cfg.intervention_steps if arms is None else arms)
    if not arms:
        raise ContractError("predict_ite needs at least one treatment arm")
    if not all(0 <= arm < n_steps for arm in arms):
        raise ContractError(f"intervention steps {arms} outside the episode "
                            f"[0, {n_steps})")
    all_arms = arms + [None]
    n_arms = len(all_arms)

    y_all = np.zeros((n, n_arms, n_steps))
    a_all = np.zeros((n, n_arms, n_steps))
    x_loc_all = np.zeros((n, n_arms, n_steps, cfg.n_agents, 5)) if trace else None
    x_g_all = np.zeros((n, n_arms, n_steps, 1)) if trace else None

    def rng_for(key):
        return (Rng(derive_seed(seed, "ite-mc", key)) if mc_samples > 0
                else None)

    leaves = store.bind(T.Tape(record=False))
    n_pass = max(1, mc_samples)
    for start in range(0, n, chunk):
        rows = slice(start, min(start + chunk, n))
        xb, gb = x_local[rows], x_global[rows]
        b = xb.shape[0]

        def tail(state, s, key):
            """Steps s..T-1 of the arm starting at s, from the state at s."""
            rng, a_seq = rng_for(key), treatment_matrix(b, n_steps, s)
            outs = []
            for t in range(s, n_steps):
                state, so = model.step(leaves, state, t, xb, gb, a_seq,
                                       "infer", rng, sample)
                outs.append(so)
            return outs

        def add(ai, outs):
            def stacked(name):
                return np.stack([getattr(so, name).array for so in outs],
                                axis=1) / n_pass
            y_all[rows, ai] += stacked("y_hat")[:, :, 0]
            a_all[rows, ai] += stacked("a_prob")[:, :, 0]
            if trace:
                x_loc_all[rows, ai] += stacked("x_loc_hat")
                x_g_all[rows, ai] += stacked("x_g_hat")

        never = treatment_matrix(b, n_steps, None)
        for p in range(n_pass):
            rng = rng_for(p * n_arms + n_arms - 1)
            sample = model._sampling("infer", rng, mc_samples > 0)
            state, trunk = model.init_state(b), []
            for t in range(n_steps):
                # arms starting at t fork here, so only one state is alive
                for ai in [ai for ai, s in enumerate(arms) if s == t]:
                    add(ai, trunk + tail(state, t, p * n_arms + ai))
                state, so = model.step(leaves, state, t, xb, gb, never,
                                       "infer", rng, sample)
                trunk.append(so)
            add(n_arms - 1, trunk)

    tau_hat, best = final_effects(y_all, arms)
    out = {"arms": all_arms, "y_final": y_all[:, :, -1], "tau_hat": tau_hat,
           "best_timing": best, "y_all": y_all, "a_all": a_all}
    if trace:
        out["x_loc_hat"] = x_loc_all
        out["x_g_hat"] = x_g_all
    return out
