"""Two-dimensional zonal flocking simulator with a binary intervention.

Each agent reacts to three concentric zones: repulsion inside r_r (highest
priority), alignment with headings inside (r_r, r_o], and attraction toward
agents inside (r_o, r_a].  The intervention widens the orientation radius,
which changes collective motion; per-step turns are limited to ``max_turn``
degrees and speed is constant.  The outcome signal is the group's mean
angular momentum about its centroid.

Everything here is plain float64 numpy; the same step is re-implemented
naively in the tests as an independent oracle.  The vectorized functions
accept any leading batch shape, so one `step` call advances a batch of rows
(episodes or counterfactual arms) that share nothing but the arithmetic:
each row comes out bitwise as if stepped alone.

Pair terms are laid out (..., j, k) on separate x and y planes, neighbour j
before agent k, so numpy's inner loops run over K agents instead of a
length-2 coordinate axis.
"""

from dataclasses import dataclass, field, fields, replace

import numpy as np

from .errors import ConfigError, ContractError, DimensionError
from .rng import Rng, derive_seed, uniform_rows

_TINY = 1e-12


@dataclass
class SimConfig:
    n_agents: int = 20
    speed: float = 1.0
    repulsion_radius: float = 0.5
    orientation_radius: float = 1.0
    orientation_radius_treated: float = 4.0
    attraction_radius: float = 7.5
    max_turn_deg: float = 30.0
    box_half: float = 20.0
    dt: float = 0.15
    n_steps: int = 14
    burn_in: int = 9
    t_i_start: int = 9
    t_i_end: int = 13

    def validate(self) -> "SimConfig":
        if self.n_agents < 1:
            raise ConfigError("n_agents must be at least 1")
        if not (0.0 < self.repulsion_radius < self.orientation_radius
                < self.attraction_radius):
            raise ConfigError("zone radii must satisfy 0 < r_r < r_o < r_a")
        if not (self.repulsion_radius < self.orientation_radius_treated
                < self.attraction_radius):
            raise ConfigError("treated orientation radius must stay inside (r_r, r_a)")
        if not (0.0 < self.max_turn_deg <= 180.0):
            raise ConfigError("max_turn_deg must lie in (0, 180]")
        if self.speed <= 0.0 or self.dt <= 0.0 or self.box_half <= 0.0:
            raise ConfigError("speed, dt and box_half must be positive")
        if not (0 < self.burn_in < self.n_steps):
            raise ConfigError("burn_in must lie strictly inside the episode")
        if not (self.burn_in <= self.t_i_start <= self.t_i_end < self.n_steps):
            raise ConfigError("intervention window must lie in [burn_in, n_steps)")
        return self

    @property
    def max_turn_rad(self) -> float:
        return float(np.deg2rad(self.max_turn_deg))

    @property
    def intervention_steps(self) -> list[int]:
        return list(range(self.t_i_start, self.t_i_end + 1))

    def echo(self) -> dict[str, str]:
        return {f.name: repr(getattr(self, f.name)) for f in fields(self)}


@dataclass
class BoidState:
    positions: np.ndarray  # (K, 2)
    headings: np.ndarray   # (K, 2), unit rows

    def validate(self, cfg: SimConfig) -> "BoidState":
        k = cfg.n_agents
        if self.positions.shape != (k, 2) or self.headings.shape != (k, 2):
            raise DimensionError("state arrays must be (K, 2)")
        if np.any(np.abs(self.positions) > cfg.box_half + 1e-9):
            raise ContractError("positions outside the boundary box")
        norms = np.sqrt(np.sum(self.headings ** 2, axis=1))
        if np.any(np.abs(norms - 1.0) > 1e-9):
            raise ContractError("headings must be unit vectors")
        return self


def _pairwise(positions: np.ndarray):
    """Coordinate planes dx[..., j, k] = x_j - x_k and dy[..., j, k] =
    y_j - y_k, and the distances |r_j - r_k| (inf on the diagonal)."""
    x, y = positions[..., 0], positions[..., 1]
    dx = x[..., :, None] - x[..., None, :]
    dy = y[..., :, None] - y[..., None, :]
    dist = dx * dx
    dist += dy * dy
    np.sqrt(dist, out=dist)
    idx = np.arange(positions.shape[-2])
    dist[..., idx, idx] = np.inf
    return dx, dy, dist


def zone_neighbors(state: BoidState, k: int, r_o: float, cfg: SimConfig):
    """Counts (n_r, n_o, n_a) of neighbors of agent k in each zone."""
    d = _pairwise(state.positions)[2][:, k]
    n_r = int(np.sum(d < cfg.repulsion_radius))
    n_o = int(np.sum((d > cfg.repulsion_radius) & (d <= r_o)))
    n_a = int(np.sum((d > r_o) & (d <= cfg.attraction_radius)))
    return n_r, n_o, n_a


def _unit_rows(v: np.ndarray, fallback: np.ndarray) -> np.ndarray:
    """Normalize rows; rows with ~zero norm fall back to the given direction."""
    vx, vy = v[..., 0], v[..., 1]
    norms = np.sqrt(vx * vx + vy * vy)
    ok = norms > _TINY
    out = np.where(ok[..., None], v / np.where(ok, norms, 1.0)[..., None],
                   fallback)
    return out


def _desired_directions(positions, headings, r_o, cfg: SimConfig) -> np.ndarray:
    """Zone rule for every agent at once. Rows are unit vectors.

    `r_o` is a scalar or one orientation radius per batch row.  Pair terms
    are (..., j, k) planes of x and y, which equal (..., k, j, 2) stacks
    bit for bit: the distance adds the same two squares, and each
    neighbour sum reduces over j in the same order.  The zones are float
    0/1 planes, and every masked neighbour sum and zone count is one
    `einsum` that keeps j as its outer, strided axis, so each agent's sum
    still adds j = 0, 1, ... in turn.  `optimize` is never passed: it may
    route a contraction through BLAS, which adds in another order.
    """
    ux, uy, dist = _pairwise(positions)
    # in place: the differences become unit vectors (0/0 between
    # coincident agents is zeroed)
    with np.errstate(invalid="ignore"):
        np.divide(ux, dist, out=ux)
        np.divide(uy, dist, out=uy)
    ux[~np.isfinite(ux)] = 0.0
    uy[~np.isfinite(uy)] = 0.0

    r_o = np.asarray(r_o)[..., None, None]
    rep = (dist < cfg.repulsion_radius).astype(np.float64)
    orient = ((dist > cfg.repulsion_radius) & (dist <= r_o)).astype(np.float64)
    attract = ((dist > r_o) & (dist <= cfg.attraction_radius)).astype(np.float64)

    def nbr_sum(vx, vy, mask, spec="...jk,...jk->...k"):
        return np.stack([np.einsum(spec, vx, mask), np.einsum(spec, vy, mask)],
                        axis=-1)

    n_r, n_o, n_a = (np.einsum("...jk->...k", m) for m in (rep, orient, attract))

    rep_dir = _unit_rows(-nbr_sum(ux, uy, rep), headings)

    o_counts = np.where(n_o > 0, n_o, 1.0)[..., None]
    o_term = nbr_sum(headings[..., 0], headings[..., 1], orient,
                     "...j,...jk->...k") / o_counts
    o_hat = _unit_rows(o_term, headings)

    a_counts = np.where(n_a > 0, n_a, 1.0)[..., None]
    a_hat = _unit_rows(nbr_sum(ux, uy, attract) / a_counts, headings)

    both = (n_o > 0) & (n_a > 0)
    blend = _unit_rows(0.5 * (o_hat + a_hat), headings)
    social = np.where(both[..., None], blend,
                      np.where((n_o > 0)[..., None], o_hat,
                               np.where((n_a > 0)[..., None], a_hat, headings)))
    return np.where((n_r > 0)[..., None], rep_dir, social)


def desired_direction(state: BoidState, k: int, r_o: float, cfg: SimConfig) -> np.ndarray:
    """Preferred unit direction for one agent before the turn limit."""
    return _desired_directions(state.positions, state.headings, r_o, cfg)[k]


def clamp_turn(d_old: np.ndarray, d_desired: np.ndarray, max_turn_deg: float) -> np.ndarray:
    """Limit the turn from d_old toward d_desired to max_turn_deg.

    Within the limit the desired direction is returned unchanged; beyond it,
    d_old is rotated by exactly the limit toward the desired side (ties at
    180 degrees rotate positively).
    """
    beta = float(np.deg2rad(max_turn_deg))
    cross = d_old[0] * d_desired[1] - d_old[1] * d_desired[0]
    dot = d_old[0] * d_desired[0] + d_old[1] * d_desired[1]
    theta = np.arctan2(cross, dot)
    if abs(theta) <= beta:
        return d_desired.copy()
    ang = beta if theta > 0 else -beta
    c, s = np.cos(ang), np.sin(ang)
    return np.array([c * d_old[0] - s * d_old[1], s * d_old[0] + c * d_old[1]])


def _clamp_turns(headings: np.ndarray, desired: np.ndarray, beta: float) -> np.ndarray:
    theta = _signed_turns(headings, desired)
    within = np.abs(theta) <= beta
    ang = np.where(theta > 0, beta, -beta)
    c, s = np.cos(ang), np.sin(ang)
    rotated = np.stack([c * headings[..., 0] - s * headings[..., 1],
                        s * headings[..., 0] + c * headings[..., 1]], axis=-1)
    return np.where(within[..., None], desired, rotated)


def mean_angular_momentum(state: BoidState):
    """|sum_k rhat_k x d_k| / K about the group centroid, in [0, 1].

    Agents sitting exactly on the centroid contribute zero.  A (K, 2) state
    gives a float, a batch of states one value per row.
    """
    centroid = state.positions.mean(axis=-2)
    rel = state.positions - centroid[..., None, :]
    norms = np.sqrt(np.sum(rel * rel, axis=-1))
    ok = norms > 0.0
    rhat = np.where(ok[..., None], rel / np.where(ok, norms, 1.0)[..., None], 0.0)
    cross = rhat[..., 0] * state.headings[..., 1] - rhat[..., 1] * state.headings[..., 0]
    out = np.abs(cross.sum(axis=-1)) / state.positions.shape[-2]
    return float(out) if out.ndim == 0 else out


def step(state: BoidState, r_o, cfg: SimConfig) -> BoidState:
    """Advance every agent one time step of length cfg.dt.

    `state` is one (K, 2) world or a batch (..., K, 2) of independent rows;
    `r_o` is a scalar or one orientation radius per row.

    Processing order per agent: zone rule, boundary override, turn limit,
    renormalize, integrate, and finally a hard clip into the box (the
    lookahead override steers agents away from walls but cannot bound the
    position by itself at grazing incidence).
    """
    pos, d_old = state.positions, state.headings
    desired = _desired_directions(pos, d_old, r_o, cfg)

    # an agent whose straight continuation leaves the box within two steps
    # heads for the center instead
    lookahead = pos + (2.0 * cfg.speed * cfg.dt) * d_old
    exiting = np.any(np.abs(lookahead) > cfg.box_half, axis=-1)
    center_dir = _unit_rows(-pos, desired)
    desired = np.where(exiting[..., None], center_dir, desired)

    new_d = _clamp_turns(d_old, desired, cfg.max_turn_rad)
    norms = np.sqrt(np.sum(new_d * new_d, axis=-1))
    new_d = new_d / norms[..., None]
    new_pos = np.clip(pos + (cfg.speed * cfg.dt) * new_d,
                      -cfg.box_half, cfg.box_half)
    return BoidState(new_pos, new_d)


def _state_from_uniforms(cfg: SimConfig, u: np.ndarray) -> BoidState:
    """Positions uniform in the central half-width square, headings uniform,
    from rows of 3K uniforms: 2K for the positions, then K angles."""
    k = cfg.n_agents
    pos = (u[..., :2 * k].reshape(u.shape[:-1] + (k, 2)) - 0.5) * cfg.box_half
    angles = u[..., 2 * k:] * (2.0 * np.pi)
    return BoidState(pos, np.stack([np.cos(angles), np.sin(angles)], axis=-1))


def initial_state(cfg: SimConfig, rng: Rng) -> BoidState:
    """One (K, 2) starting state drawn from `rng`."""
    return _state_from_uniforms(cfg, rng.uniforms(3 * cfg.n_agents))


def initial_states(cfg: SimConfig, seeds) -> BoidState:
    """Episode i's starting state, initial_state(cfg, Rng(derive_seed(
    seeds[i], "boid-init"))), for every seed, drawn in one pass."""
    roots = [derive_seed(s, "boid-init") for s in seeds]
    return _state_from_uniforms(cfg, uniform_rows(roots, 3 * cfg.n_agents))


def _signed_turns(d_prev: np.ndarray, d_new: np.ndarray) -> np.ndarray:
    cross = d_prev[..., 0] * d_new[..., 1] - d_prev[..., 1] * d_new[..., 0]
    dot = d_prev[..., 0] * d_new[..., 0] + d_prev[..., 1] * d_new[..., 1]
    return np.arctan2(cross, dot)


@dataclass
class TrajectorySample:
    """Simulated episodes: one (T, ...) episode from `simulate`, or a stack
    with leading (episode, arm) axes from `simulate_batch`.

    x_local[t] holds per-agent (position xy, velocity xy, signed heading
    change) at step t; x_global[t] is the group's mean angular momentum;
    outcome[t] is that momentum one step later.  treatment[t] flips to 1 at
    the intervention step and stays on.  `intervention_step` and `seed`
    describe a single episode.
    """

    x_local: np.ndarray        # (..., T, K, 5)
    x_global: np.ndarray       # (..., T, 1)
    treatment: np.ndarray      # (..., T) uint8
    outcome: np.ndarray        # (..., T)
    intervention_step: int | None = None
    seed: int = 0

    def validate(self, cfg: SimConfig | None = None) -> "TrajectorySample":
        *lead, t, k, f = self.x_local.shape
        if f != 5:
            raise DimensionError("x_local must have 5 features per agent")
        if self.x_global.shape != (*lead, t, 1) or \
                self.outcome.shape != (*lead, t):
            raise DimensionError("inconsistent trajectory lengths")
        if self.treatment.shape != (*lead, t):
            raise DimensionError("treatment must have one flag per step")
        if np.any(np.diff(self.treatment.astype(np.int64), axis=-1) < 0):
            raise ContractError("treatment must be nondecreasing over time")
        if cfg is not None and (t != cfg.n_steps or k != cfg.n_agents):
            raise DimensionError("trajectory does not match the configuration")
        return self


def simulate_batch(cfg: SimConfig, seeds, starts, forks=()) -> TrajectorySample:
    """Roll a batch of episodes in one loop, plus arms forked from them.

    Episode i (seed `seeds[i]`) runs from t = 0 under absorbing treatment
    from `starts[i]` (None: never).  Each start s in `forks` (ascending, and
    no later than any episode's own start) adds one row per episode that
    joins the batch at step s as a copy of the episode's row: its state, last
    turn and recorded prefix.  Treatment is absorbing, so up to step s that
    row is exactly what start s would have produced, and the fork equals the
    episode re-simulated under start s.  The desk world's six arms (starts
    9..13 plus never) cost T + sum(T - s) = 29 row-steps per episode instead
    of 6 T = 84.

    Returns arrays with leading (episode, arm) axes; the arms are `forks` in
    order, then each episode's own start.  Every row is stepped by the same
    elementwise and per-row arithmetic it would see alone, so it is bitwise
    independent of the batch around it: `simulate` is the one-row case.
    """
    cfg.validate()
    if len(seeds) == 0 or len(starts) != len(seeds):
        raise ContractError("simulate_batch needs one start per seed and at "
                            "least one episode")
    for s in [*starts, *forks]:
        if s is not None and s not in cfg.intervention_steps:
            raise ConfigError(f"intervention step {s} outside the window")
    own_start = np.array([cfg.n_steps if s is None else s for s in starts])
    if None in forks or list(forks) != sorted(set(forks)) \
            or max(forks, default=0) > own_start.min():
        raise ContractError("forks must ascend and start no later than every "
                            "episode's own start")

    b, k, t_total = len(seeds), cfg.n_agents, cfg.n_steps
    # arm-major buffers, each episode's own row first; momentum[..., t] is
    # the momentum entering step t, so outcome[t] = momentum[t + 1]
    arm_start = np.stack([own_start] + [np.full(b, s) for s in forks])
    x_local = np.zeros((len(arm_start), b, t_total, k, 5))
    momentum = np.zeros((len(arm_start), b, t_total + 1))
    init = initial_states(cfg, seeds)
    state = BoidState(init.positions[None], init.headings[None])
    dtheta = np.zeros((1, b, k))
    momentum[0, :, 0] = mean_angular_momentum(state)[0]

    for t in range(t_total):
        live = len(dtheta)
        if live < len(arm_start) and forks[live - 1] == t:
            x_local[live, :, :t] = x_local[0, :, :t]
            momentum[live, :, :t + 1] = momentum[0, :, :t + 1]
            state = BoidState(np.concatenate([state.positions, state.positions[:1]]),
                              np.concatenate([state.headings, state.headings[:1]]))
            dtheta = np.concatenate([dtheta, dtheta[:1]])
            live += 1
        x_local[:live, :, t, :, 0:2] = state.positions
        x_local[:live, :, t, :, 2:4] = cfg.speed * state.headings
        x_local[:live, :, t, :, 4] = dtheta
        r_o = np.where(arm_start[:live] <= t, cfg.orientation_radius_treated,
                       cfg.orientation_radius)
        nxt = step(state, r_o, cfg)
        dtheta = _signed_turns(state.headings, nxt.headings)
        momentum[:live, :, t + 1] = mean_angular_momentum(nxt)
        state = nxt

    treatment = (np.arange(t_total) >= arm_start[..., None]).astype(np.uint8)
    order = [*range(1, len(arm_start)), 0]

    def episode_major(arr):
        return np.moveaxis(arr[order], 0, 1)

    return TrajectorySample(
        episode_major(x_local), episode_major(momentum[..., :-1, None]),
        episode_major(treatment), episode_major(momentum[..., 1:])).validate(cfg)


def simulate(cfg: SimConfig, seed: int, intervention: int | None = None) -> TrajectorySample:
    """Roll one episode; `intervention` is the absorbing treatment step or None.

    This is the one-row case of `simulate_batch`.  Identical (cfg, seed,
    intervention) invocations are bitwise identical, and two runs differing
    only in `intervention` coincide on every step before the earlier
    treatment start.
    """
    rows = simulate_batch(cfg, [seed], [intervention])
    return TrajectorySample(rows.x_local[0, 0], rows.x_global[0, 0],
                            rows.treatment[0, 0], rows.outcome[0, 0],
                            intervention_step=intervention, seed=seed)
