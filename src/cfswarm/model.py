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
A rollout given an rng draws its latents from it (variational variants
only); without one every latent sits at its mean.

Variants: the full model (theory + GNN + variational), and ablations that
drop the theory layer (decoder predicts covariates directly, plus a separate
global-signal VRNN), drop stochasticity (latents pinned to the prior mean),
or swap GNNs for flat MLPs; plus a plain GRU baseline with none of the
structure.
"""

from dataclasses import dataclass, fields, replace
from enum import Enum

import numpy as np

from . import tensor as T
from .blocks import FlatBlock, GaussianHead, GnnBlock, GruCell, Mlp, treatment_head
from .boids import SimConfig
from .data import final_effects
from .errors import ConfigError, ContractError, DimensionError, DomainError
from .optim import ParamStore
from .parallel import fork_map
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

    def validate(self) -> "ModelDims":
        small = [f.name for f in fields(self) if getattr(self, f.name) < 1]
        if small:
            raise ConfigError(f"[model] widths must be at least 1: {small}")
        return self


@dataclass
class RolloutOutput:
    """Per-step predictions plus the ELBO pieces of one batched rollout.

    y_hat, a_prob and a_logits have length T; y_hat[t] predicts the outcome
    at t+1.  x_loc_hat and x_g_hat hold the covariate predictions of the
    steps that decode them (`CrnModel.decodes`), in raw covariate units:
    t = 0..T-2 in train mode (entry t predicts step t+1), t = burn-1..T-2
    in infer mode (entry j predicts step burn+j).  kl_sum and recon_sum are
    sums over batch, agents and dims, accumulated over elbo_steps burn-in
    steps (divide by batch_size * elbo_steps for the per-episode-step loss).
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

    def stacked(self, name: str) -> np.ndarray:
        """Detach one per-step list into (B, len, ...) float64."""
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
    its ELBO terms (None where the step adds none).  x_loc_hat and x_g_hat
    are None on a step that decodes no covariates."""

    y_hat: object
    a_prob: object
    a_logits: object
    x_loc_hat: object
    x_g_hat: object
    kl: object = None
    recon: object = None
    g_kl: object = None
    g_recon: object = None


@dataclass(frozen=True)
class StepLatent:
    """Step t's treatment-free half, which `CrnModel.advance` finishes under
    a treatment.  Never mutated, so every rollout passing the same state into
    step t can finish the same one.

    state is the state entering t with the burn-in context (observed global
    signal, positions and headings) filled in; z (and gv_crn's z_g) the
    step's latents; theta_prop the proposed turn angles (B, K, 1) of theory
    variants, None on a step that decodes no covariates (then `advance`
    runs no theory step).  out holds every StepOutput field the treatment
    cannot reach: all but y_hat, and for theory variants x_loc_hat and
    x_g_hat.
    """

    state: RolloutState
    z: object
    z_g: object
    theta_prop: object
    out: StepOutput


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


def _unit_backward(gx, gy, ux, uy, inv):
    """Gradient through u = rel / sqrt(|rel|^2 + eps) given inv = 1/sqrt(...):
    inv * (g - u (u . g)), as x and y planes."""
    along = ux * gx + uy * gy
    return inv * (gx - ux * along), inv * (gy - uy * along)


def _centroid_backward(gx, gy):
    """Gradient through rel = pos - mean_k(pos), as a (B, K, 2) array."""
    g = np.stack([gx, gy], axis=-1)
    return g - g.sum(axis=1, keepdims=True) * (1.0 / g.shape[1])


def theory_turn(theta_prop, positions, headings, a_row, cfg):
    """theory_step's integrator as one tape op: (B, K, 5) raw covariates.

    Works on (B, K) coordinate planes; zone memberships are constants.  It
    saves the two clip masks, the proposal's cos and sin, the centroid
    offsets' unit vectors and inverse norms, the alignment target and its
    inverse norm, the chosen direction and the branch masks.
    """
    theta_prop, positions, headings = (
        T._lift(theta_prop), T._lift(positions), T._lift(headings))
    pos, head = positions.array, headings.array
    k = pos.shape[1]
    beta = cfg.max_turn_rad
    th = theta_prop.array[..., 0]
    in_prop = (th >= -beta) & (th <= beta)
    th = np.clip(th, -beta, beta)
    c, s = np.cos(th), np.sin(th)
    hx, hy = head[..., 0], head[..., 1]
    px = hx * c - hy * s
    py = hx * s + hy * c

    rel = pos - pos.sum(axis=1, keepdims=True) * (1.0 / k)
    rx, ry = rel[..., 0], rel[..., 1]
    rel_sq = rx * rx + ry * ry
    inv = 1.0 / np.sqrt(rel_sq + _EPS)
    ux, uy = rx * inv, ry * inv

    # zone bookkeeping on (B, k, j) planes of x_k - x_j and y_k - y_j
    x, y = pos[..., 0], pos[..., 1]
    ddx = x[:, :, None] - x[:, None, :]
    ddy = y[:, :, None] - y[:, None, :]
    dist = np.sqrt(ddx * ddx + ddy * ddy)
    off = ~np.eye(k, dtype=bool)[None]
    r_o = np.where(np.asarray(a_row, dtype=np.float64) > 0.5,
                   cfg.orientation_radius_treated,
                   cfg.orientation_radius)[:, None, None]
    pairs = (dist > cfg.repulsion_radius) & (dist <= r_o) & off
    has_rep = ((dist < cfg.repulsion_radius) & off).any(axis=2)
    n_orient = pairs.sum(axis=2)
    far = np.sqrt(rel_sq) > cfg.attraction_radius / 2.0

    # alignment target: own proposal blended with the mean neighbour heading
    pairs = pairs.astype(np.float64)
    denom = 1.0 / np.maximum(n_orient, 1)
    nbr = np.matmul(pairs, head)
    bx = nbr[..., 0] * denom * 0.5 + px * 0.5
    by = nbr[..., 1] * denom * 0.5 + py * 0.5
    # a target cancelled exactly (head-on neighbours) keeps the proposal
    orient = (~far) & (n_orient > 0) & (~has_rep) & ((bx != 0.0) | (by != 0.0))
    bn = 1.0 / np.sqrt(bx * bx + by * by + _EPS)
    bx, by = bx * bn, by * bn
    dx = np.where(far, -ux, np.where(orient, bx, px))
    dy = np.where(far, -uy, np.where(orient, by, py))

    # final turn limit against the current heading, then rotate exactly
    cro = hx * dy - hy * dx
    dot = hx * dx + hy * dy
    if np.any((cro == 0.0) & (dot == 0.0)):
        raise DomainError("theory_step: zero heading has no turn angle")
    turn = np.arctan2(cro, dot)
    in_turn = (turn >= -beta) & (turn <= beta)
    turn = np.clip(turn, -beta, beta)
    ct, st = np.cos(turn), np.sin(turn)
    nx = hx * ct - hy * st
    ny = hx * st + hy * ct

    step_len = cfg.speed * cfg.dt
    out = np.empty(pos.shape[:2] + (5,))
    out[..., 0] = x + nx * step_len
    out[..., 1] = y + ny * step_len
    out[..., 2] = nx * cfg.speed
    out[..., 3] = ny * cfg.speed
    out[..., 4] = turn
    saved = (in_prop, c, s, hx, hy, ux, uy, inv, far, orient, pairs, denom,
             bx, by, bn, dx, dy, cro, dot, in_turn, ct, st, step_len,
             cfg.speed, tuple(t.node_id is not None
                              for t in (theta_prop, positions, headings)))
    return T._emit("theory_turn", (theta_prop, positions, headings), saved,
                   out)


def _bw_theory_turn(g, saved):
    (in_prop, c, s, hx, hy, ux, uy, inv, far, orient, pairs, denom, bx, by,
     bn, dx, dy, cro, dot, in_turn, ct, st, step_len, speed,
     (need_theta, need_pos, need_head)) = saved
    gnx = g[..., 0] * step_len + g[..., 2] * speed
    gny = g[..., 1] * step_len + g[..., 3] * speed
    # n = h rotated by the clipped turn = clip(atan2(cro, dot))
    gt = g[..., 4] + (gny * hx - gnx * hy) * ct - (gnx * hx + gny * hy) * st
    gt = gt * in_turn
    den = cro * cro + dot * dot
    gcro, gdot = gt * dot / den, -gt * cro / den
    gdx = gdot * hx - gcro * hy
    gdy = gcro * hx + gdot * hy
    # the direction is one of three branches; the blend feeds the proposal
    keep = ~(far | orient)
    gbx, gby = _unit_backward(np.where(orient, gdx, 0.0),
                              np.where(orient, gdy, 0.0), bx, by, bn)
    gpx = np.where(keep, gdx, 0.0) + gbx * 0.5
    gpy = np.where(keep, gdy, 0.0) + gby * 0.5
    g_theta = g_pos = g_head = None
    if need_theta:
        g_theta = ((gpy * hx - gpx * hy) * c
                   - (gpx * hx + gpy * hy) * s) * in_prop
        g_theta = g_theta[..., None]
    if need_pos:
        g_pos = _centroid_backward(*_unit_backward(
            np.where(far, -gdx, 0.0), np.where(far, -gdy, 0.0), ux, uy, inv))
        g_pos += g[..., 0:2]
    if need_head:
        g_nbr = np.stack([gbx, gby], axis=-1) * (denom * 0.5)[..., None]
        g_head = np.matmul(pairs.transpose(0, 2, 1), g_nbr)
        g_head[..., 0] += (gnx * ct + gny * st + gcro * dy + gdot * dx
                           + gpx * c + gpy * s)
        g_head[..., 1] += (gny * ct - gnx * st - gcro * dx + gdot * dy
                           + gpy * c - gpx * s)
    return g_theta, g_pos, g_head


def group_spin(new_pos, new_head):
    """Group angular momentum |mean_k u_k x n_k| as one tape op, (B, 1).

    u_k is agent k's unit offset from the centroid of new_pos (B, K, 2) and
    n_k its heading in new_head (B, K, 2).
    """
    new_pos, new_head = T._lift(new_pos), T._lift(new_head)
    pos, head = new_pos.array, new_head.array
    k = pos.shape[1]
    rel = pos - pos.sum(axis=1, keepdims=True) * (1.0 / k)
    rx, ry = rel[..., 0], rel[..., 1]
    inv = 1.0 / np.sqrt(rx * rx + ry * ry + _EPS)
    ux, uy = rx * inv, ry * inv
    nx, ny = head[..., 0], head[..., 1]
    spin = (ux * ny - uy * nx).sum(axis=1, keepdims=True) * (1.0 / k)
    saved = (ux, uy, inv, nx, ny, np.sign(spin) * (1.0 / k),
             (new_pos.node_id is not None, new_head.node_id is not None))
    return T._emit("group_spin", (new_pos, new_head), saved,
                   np.absolute(spin))


def _bw_group_spin(g, saved):
    ux, uy, inv, nx, ny, scale, (need_pos, need_head) = saved
    gs = g * scale
    g_pos = g_head = None
    if need_pos:
        g_pos = _centroid_backward(*_unit_backward(gs * ny, -gs * nx,
                                                   ux, uy, inv))
    if need_head:
        g_head = np.stack([-gs * uy, gs * ux], axis=-1)
    return g_pos, g_head


T.BACKWARD["theory_turn"] = _bw_theory_turn
T.BACKWARD["group_spin"] = _bw_group_spin


def theory_step(theta_prop, positions, headings, a_row, cfg):
    """Integrate proposed turn angles under the rule-based body constraints.

    theta_prop (B, K, 1) holds proposed turn angles in radians; positions and
    headings (B, K, 2) are the current raw state.  a_row (B,) selects the
    orientation radius the alignment rule uses.  Per agent, the proposal is
    clipped to the turn limit, then replaced by the direction toward the
    group centroid (agents farther than half the attraction radius), or by
    its blend with the mean heading of orientation-zone neighbours (no
    repulsion-zone neighbour; a blend that cancels exactly keeps the
    proposal), and the turn toward that direction is clipped again.  Zone
    memberships come from current values and are constants; gradients flow
    through the angles, positions and headings.

    Returns (x_loc_hat, x_g_hat, new_pos, new_head).  The integrator is one
    tape op emitting x_loc_hat (B, K, 5), whose position and velocity slices
    are new_pos and new_head; the group spin x_g_hat (B, 1) is a second op on
    those slices, so a step records five tape nodes.
    """
    x_loc_hat = theory_turn(theta_prop, positions, headings, a_row, cfg)
    new_pos, new_head = _split_state(x_loc_hat, cfg)
    return x_loc_hat, group_spin(new_pos, new_head), new_pos, new_head


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

    def outcome_step(self, leaves, z, x_g, a_col):
        """Outcome probability (B, 1) from the agent-pooled latent, the
        global signal and the treatment column."""
        pooled = _pool(T._lift(z), self.cfg.n_agents)
        inp = T.concat([pooled, T._lift(x_g), T._lift(a_col)], 1)
        return self.mlp_y(leaves, inp)

    # rollout ----------------------------------------------------------------

    def decodes(self, t: int, mode: str) -> bool:
        """Whether step t decodes covariates: only a prediction of step t+1
        that something reads.  Train mode's losses read every step with a
        target (t+1 < T).  An infer-mode rollout replaces steps 1..burn-1
        with the observed covariates, so it reads steps burn..T-1."""
        return t + 1 < self.cfg.n_steps and (
            mode == "train" or t + 1 >= self.cfg.burn_in)

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

    def rollout(self, leaves, x_local, x_global, treatment, mode: str,
                rng: Rng | None = None) -> RolloutOutput:
        """Run one batched episode rollout: `init_state`, then `step` per t.

        x_local (B, T, K, 5) and x_global (B, T, 1) are raw observed
        covariates; only the burn-in prefix is consumed in free-run steps.
        treatment (B, T) is the exogenous treatment sequence.  mode "train"
        teacher-forces posterior latents over the burn-in and accumulates
        KL + reconstruction terms; mode "infer" uses the prior throughout.
        Latents are drawn from rng when one is given and the variant is
        variational (`uses_encoder`); otherwise they sit at their means.
        The covariate predictions cover the steps that `decodes`.
        """
        if mode not in ("train", "infer"):
            raise ContractError(f"unknown rollout mode {mode!r}")
        x_local, x_global = self._checked_inputs(x_local, x_global)
        treatment = np.asarray(treatment, dtype=np.float64)
        b, n_steps = x_local.shape[0], x_local.shape[1]
        if treatment.shape != (b, n_steps):
            raise ContractError("treatment must be (B, T)")

        gv = self.variant is ModelVariant.GV_CRN
        out = RolloutOutput([], [], [], [], [], T._lift(0.0), T._lift(0.0),
                            T._lift(0.0) if gv else None,
                            T._lift(0.0) if gv else None,
                            batch_size=b, elbo_steps=0)
        state = self.init_state(b)
        for t in range(n_steps):
            state, so = self.step(leaves, state, t, x_local, x_global,
                                  treatment, mode, rng)
            out.y_hat.append(so.y_hat)
            out.a_prob.append(so.a_prob)
            out.a_logits.append(so.a_logits)
            if so.x_loc_hat is not None:
                out.x_loc_hat.append(so.x_loc_hat)
                out.x_g_hat.append(so.x_g_hat)
            for name in ("kl", "recon", "g_kl", "g_recon"):
                term = getattr(so, name)
                if term is not None:
                    total = getattr(out, name + "_sum")
                    setattr(out, name + "_sum", T.add(total, term))
            out.elbo_steps += so.recon is not None
        return out

    def step(self, leaves, state: RolloutState, t: int, x_local, x_global,
             treatment, mode: str, rng: Rng | None = None,
             latent: StepLatent | None = None):
        """Advance a rollout through step t; returns (next state, StepOutput).

        Arguments are those of `rollout`, already checked; the step samples
        its latents exactly when `rollout` would.  Step t reads observed
        covariates only at burn-in steps (and x[t+1] for train-mode
        posteriors and targets) and treatment only at column t, so rollouts
        whose treatments agree before s pass the same state into step s;
        states are never mutated, so such rollouts can share it.  The next
        state is None after the last step.

        Except in rnn_baseline, whose GRU reads the treatment, a step is
        `latent` (treatment-free) followed by `advance`.  Rollouts sharing a
        state can share step t's latent half too: pass the one `latent`
        returned for that state and rng.
        """
        if self.variant is ModelVariant.RNN_BASELINE:
            return self._baseline_step(leaves, state, t, x_local, x_global,
                                       treatment, mode)
        if latent is None:
            latent = self.latent(leaves, state, t, x_local, x_global, mode, rng)
        return self.advance(leaves, latent, t, x_local, x_global, treatment)

    def latent(self, leaves, state: RolloutState, t: int, x_local, x_global,
               mode: str, rng: Rng | None = None) -> StepLatent | None:
        """Step t's treatment-free half: each VRNN branch's latent (`_draw`)
        -> decoder -> proposal, the treatment head, and the ELBO terms.  The
        decoders run only where `decodes(t, mode)`.  Train mode's burn-in
        takes the posterior.  z is drawn from rng when one is given and the
        variant `uses_encoder`, else it is the mean.

        A Gaussian head computes its sigma only where something reads it: a
        KL term, a draw or a reconstruction NLL.  So a deterministic infer
        step runs no sigma half, and mu, z and every output are bitwise
        those of a step that computes them all.

        Arguments are those of `step`.  Returns None for rnn_baseline, which
        has no such half.
        """
        v = self.variant
        if v is ModelVariant.RNN_BASELINE:
            return None
        cfg = self.cfg
        burn, row = cfg.burn_in, self._row
        h, h_g = state.h, state.h_g
        if t < burn:
            pos = head = None
            if v.uses_theory:
                pos, head = _split_state(T._lift(x_local[:, t]), cfg)
            state = RolloutState(h, h_g, None, T._lift(x_global[:, t]), pos,
                                 head)
        train_burn = mode == "train" and t < burn
        decode = self.decodes(t, mode)
        if train_burn and not decode:
            raise ContractError("burn-in reconstruction needs x[t+1]")
        rng = rng if v.uses_encoder else None
        post = train_burn and v.uses_encoder
        recon = g_kl = g_recon = z_g = x_g_hat = theta_prop = x_loc_hat = None
        recon_read = train_burn and v is not ModelVariant.TG_CRN

        z, kl = self._draw(
            leaves, (self.prior_net, self.prior_head, self.enc_net,
                     self.enc_head),
            h, x_local[:, t + 1] * row if post else None, 2, rng)
        if decode:
            mu_d, sig_d = self.dec_head(
                leaves, self.dec_net(leaves, T.concat([z, h], 2)), recon_read)
            if v.uses_theory:   # the NLL reads the squashed turn angle
                theta_prop = mu_d = T.mul(T.tanh(mu_d), np.pi)
            else:
                x_loc_hat = T.mul(mu_d, 1.0 / row)
            if recon_read:
                recon = T.gaussian_nll(mu_d, sig_d, x_local[:, t + 1, :, 4:5]
                                       if v.uses_theory
                                       else x_local[:, t + 1] * row)

        if v is ModelVariant.GV_CRN:
            z_g, g_kl = self._draw(
                leaves, (self.g_pri, self.g_pri_head, self.g_enc,
                         self.g_enc_head),
                h_g, x_global[:, t + 1] if post else None, 1, rng)
            if decode:
                x_g_hat, g_sig_d = self.g_dec_head(
                    leaves, self.g_dec(leaves, T.concat([z_g, h_g], 1)),
                    train_burn)
                if train_burn:
                    g_recon = T.gaussian_nll(x_g_hat, g_sig_d,
                                             x_global[:, t + 1])

        a_prob, a_logit = treatment_head(
            self.mlp_a, leaves, _pool(z, cfg.n_agents))
        so = StepOutput(None, a_prob, a_logit, x_loc_hat, x_g_hat,
                        kl, recon, g_kl, g_recon)
        return StepLatent(state, z, z_g, theta_prop, so)

    @staticmethod
    def _draw(leaves, nets, h, x_next, axis, rng):
        """One VRNN branch's latent (z, kl), from nets = (prior net, prior
        head, encoder net, encoder head).  Given the observation x_next at
        t+1, z comes from the posterior on concat([x_next, h], axis) and kl
        is its KL to the prior; with x_next None, from the prior (kl None).
        z is drawn from rng when one is given, else it is the mean."""
        prior_net, prior_head, enc_net, enc_head = nets
        mu, sig = prior_head(leaves, prior_net(leaves, h),
                             x_next is not None or rng is not None)
        kl = None
        if x_next is not None:
            mu_q, sig_q = enc_head(leaves, enc_net(
                leaves, T.concat([T._lift(x_next), h], axis)))
            kl = T.kl_diag_gauss(mu_q, sig_q, mu, sig)
            mu, sig = mu_q, sig_q
        return (T.gaussian_sample(mu, sig, rng) if rng is not None else mu), kl

    def advance(self, leaves, latent: StepLatent, t: int, x_local,
                x_global, treatment):
        """Step t's treatment half: the theory integrator under the
        treatment's orientation radius (on a step that decodes), the outcome
        head and the recurrence.  Returns (next state, StepOutput) as `step`
        does."""
        cfg = self.cfg
        n_steps, burn, row = cfg.n_steps, cfg.burn_in, self._row
        state, z = latent.state, latent.z
        pos, head = state.pos, state.head
        x_loc_hat, x_g_hat = latent.out.x_loc_hat, latent.out.x_g_hat
        if latent.theta_prop is not None:
            x_loc_hat, x_g_hat, pos, head = theory_step(
                latent.theta_prop, pos, head, treatment[:, t], cfg)
        y = self.outcome_step(leaves, z, state.ctx_g, treatment[:, t:t + 1])
        so = replace(latent.out, y_hat=y, x_loc_hat=x_loc_hat,
                     x_g_hat=x_g_hat)

        if t + 1 == n_steps:
            return None, so
        if t + 1 < burn:
            nxt_sc = T._lift(x_local[:, t + 1] * row)
            nxt_g = T._lift(x_global[:, t + 1])
        else:
            nxt_sc = T.mul(x_loc_hat, row)
            nxt_g = x_g_hat
        h = self.rnn(leaves, T.concat([nxt_sc, z], 2), state.h)
        h_g = state.h_g
        if self.variant is ModelVariant.GV_CRN:
            h_g = self.g_rnn(leaves, T.concat([nxt_g, latent.z_g], 1), h_g)
        return RolloutState(h, h_g, None, nxt_g, pos, head), so

    def _baseline_step(self, leaves, state, t, x_local, x_global, treatment,
                       mode):
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
        x_loc_sc = x_loc_hat = x_g_hat = None
        if self.decodes(t, mode):
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
                seed: int = 0, chunk: int = 32):
    """Counterfactual outcome predictions for every intervention timing.

    Predicts one infer-mode rollout per arm in T_i plus a never-treated arm,
    deterministic (latents at the prior mean) unless mc_samples > 0, in which
    case that many sampled rollouts are averaged.  A variant that draws
    nothing (not `uses_encoder`) runs one pass whatever mc_samples says.
    Only the burn-in prefix of x_local/x_global is consumed, so any arm's
    factual trajectory works.  mc_samples < 0 and chunk < 1 are
    ContractError.

    Treatment is absorbing and step t reads only treatment[:, :t+1], so an
    arm starting at s is the never-treated arm until step s.  Per chunk the
    never-treated trunk is therefore stepped once through all T steps, and
    each treated arm forks from the trunk's state entering step s and steps
    only s..T-1: T + sum(T - s) model steps instead of one T-step rollout
    per arm (29 instead of 84 on the desk world).  Step s's treatment-free
    half (`CrnModel.latent`: prior, latent draw, decoder and treatment head)
    reads no treatment either, so the trunk computes it once and every arm
    forking at s finishes it with `CrnModel.advance`: T + sum(T - s) - A
    latent halves for A treated arms (24 instead of 29).  Only the current
    step's latent half is alive.  Deterministic outputs equal the per-arm
    rollouts bitwise.  With mc_samples > 0 the trunk draws from the
    never-treated arm's key, so the arms share their latent draws through
    their start step s, whose latent no treatment reaches (common random
    numbers on everything the treatment cannot touch); each treated arm
    draws from its own key from step s + 1 on.  Keys count on across
    chunks (chunk c's first key is c * passes * A), so no two chunks share
    a draw and equal episodes in different chunks get different noise.
    The chunks run on `fork_map`'s processes; no output depends on how many.

    Only the free-run steps decode covariates (`CrnModel.decodes`): the
    burn-in prefix takes the observed covariates and step T-1 would predict
    a step past the episode.  No output reads a Gaussian head's sigma
    unless mc_samples > 0 draws latents from the prior, so a deterministic
    call runs the mu halves only (see `CrnModel.latent`).

    Returns a dict with arms (the arms plus None for never-treated, which
    the dataset and eval's dump store as -1), y_final (n, A), tau_hat
    (n, A-1), best_timing (n,), y_all (n, A, T), a_all (n, A, T), and the
    covariate predictions of world steps burn..T-1: x_loc_hat
    (n, A, T-burn, K, 5) and x_g_hat (n, A, T-burn, 1).
    """
    cfg = model.cfg
    if mc_samples < 0 or chunk < 1:
        raise ContractError(f"predict_ite needs mc_samples >= 0 and chunk "
                            f">= 1, got {mc_samples} and {chunk}")
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
    n_dec = sum(model.decodes(t, "infer") for t in range(n_steps))
    x_loc_all = np.zeros((n, n_arms, n_dec, cfg.n_agents, 5))
    x_g_all = np.zeros((n, n_arms, n_dec, 1))

    if not model.variant.uses_encoder:
        mc_samples = 0   # nothing to draw: every pass would be the same

    def rng_for(key):
        return (Rng(derive_seed(seed, "ite-mc", key)) if mc_samples > 0
                else None)

    leaves = store.bind(T.Tape(record=False))
    n_pass = max(1, mc_samples)

    def run_chunk(start):
        rows = slice(start, min(start + chunk, n))
        first_key = start // chunk * n_pass * n_arms
        xb, gb = x_local[rows], x_global[rows]
        b = xb.shape[0]
        y, a_prob, x_loc, x_g = (np.zeros((b,) + full.shape[1:]) for full
                                 in (y_all, a_all, x_loc_all, x_g_all))

        def tail(state, s, a_seq, key):
            """Steps s..T-1 of the arm with treatments a_seq, from the state
            at s."""
            rng, outs = rng_for(key), []
            for t in range(s, n_steps):
                state, so = model.step(leaves, state, t, xb, gb, a_seq,
                                       "infer", rng)
                outs.append(so)
            return outs

        def add(ai, outs):
            def stacked(name):
                return np.stack([getattr(so, name).array for so in outs
                                 if getattr(so, name) is not None],
                                axis=1) / n_pass
            y[:, ai] += stacked("y_hat")[:, :, 0]
            a_prob[:, ai] += stacked("a_prob")[:, :, 0]
            x_loc[:, ai] += stacked("x_loc_hat")
            x_g[:, ai] += stacked("x_g_hat")

        never = treatment_matrix(b, n_steps, None)
        for p in range(n_pass):
            rng = rng_for(first_key + p * n_arms + n_arms - 1)
            state, trunk = model.init_state(b), []
            for t in range(n_steps):
                # arms starting at t fork here and finish the trunk's latent
                # half of step t, so only one state and one latent are alive
                latent = model.latent(leaves, state, t, xb, gb, "infer", rng)
                for ai in [ai for ai, s in enumerate(arms) if s == t]:
                    a_seq = treatment_matrix(b, n_steps, t)
                    fork, so = model.step(leaves, state, t, xb, gb, a_seq,
                                          "infer", rng, latent=latent)
                    add(ai, trunk + [so] + tail(fork, t + 1, a_seq,
                                                first_key + p * n_arms + ai))
                state, so = model.step(leaves, state, t, xb, gb, never,
                                       "infer", rng, latent=latent)
                trunk.append(so)
            add(n_arms - 1, trunk)
        return rows, (y, a_prob, x_loc, x_g)

    for rows, parts in fork_map(run_chunk, range(0, n, chunk)):
        y_all[rows], a_all[rows], x_loc_all[rows], x_g_all[rows] = parts

    tau_hat, best = final_effects(y_all, arms)
    return {"arms": all_arms, "y_final": y_all[:, :, -1], "tau_hat": tau_hat,
            "best_timing": best, "y_all": y_all, "a_all": a_all,
            "x_loc_hat": x_loc_all, "x_g_hat": x_g_all}
