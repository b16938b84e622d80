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

State is carried as four (..., K) coordinate planes (position x and y,
heading x and y) and pair terms as (..., j, k) x and y planes, neighbour j
before agent k, so numpy's inner loops run over K agents instead of a
length-2 coordinate axis.  `step` and `mean_angular_momentum` split a
(..., K, 2) `BoidState` into planes; `simulate_batch` keeps planes
throughout its loop.
"""

from dataclasses import dataclass, fields

import numpy as np

from .errors import ConfigError, ContractError, DimensionError, NumericError
from .rng import derive_seeds, uniform_rows

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


def _pairwise(px: np.ndarray, py: np.ndarray):
    """Coordinate planes dx[..., j, k] = x_j - x_k and dy[..., j, k] =
    y_j - y_k, and the distances |r_j - r_k| (inf on the diagonal)."""
    dx = px[..., :, None] - px[..., None, :]
    dy = py[..., :, None] - py[..., None, :]
    dist = dx * dx
    dist += dy * dy
    np.sqrt(dist, out=dist)
    idx = np.arange(px.shape[-1])
    dist[..., idx, idx] = np.inf
    return dx, dy, dist


def _unit(vx, vy, fx, fy):
    """(vx, vy) scaled to unit length; where its norm is ~zero, (fx, fy)."""
    norms = np.sqrt(vx * vx + vy * vy)
    ok = norms > _TINY
    norms = np.where(ok, norms, 1.0)
    return np.where(ok, vx / norms, fx), np.where(ok, vy / norms, fy)


def _desired_directions(px, py, hx, hy, r_o, cfg: SimConfig):
    """Zone rule for every agent at once: the (x, y) planes of unit vectors.

    `r_o` is a scalar or one orientation radius per batch row.  Pair terms
    are (..., j, k) planes of x and y, which equal (..., k, j, 2) stacks
    bit for bit: the distance adds the same two squares, and each
    neighbour sum reduces over j in the same order.  The zones are float
    0/1 planes, and every masked neighbour sum and zone count is one
    `einsum` that keeps j as its outer, strided axis, so each agent's sum
    still adds j = 0, 1, ... in turn.  `optimize` is never passed: it may
    route a contraction through BLAS, which adds in another order.
    """
    ux, uy, dist = _pairwise(px, py)
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

    def nbr_sum(mask, vx=ux, vy=uy, spec="...jk,...jk->...k"):
        return np.einsum(spec, vx, mask), np.einsum(spec, vy, mask)

    n_r, n_o, n_a = (np.einsum("...jk->...k", m) for m in (rep, orient, attract))

    sx, sy = nbr_sum(rep)
    rep_x, rep_y = _unit(-sx, -sy, hx, hy)

    o_counts = np.where(n_o > 0, n_o, 1.0)
    sx, sy = nbr_sum(orient, hx, hy, "...j,...jk->...k")
    o_x, o_y = _unit(sx / o_counts, sy / o_counts, hx, hy)

    a_counts = np.where(n_a > 0, n_a, 1.0)
    sx, sy = nbr_sum(attract)
    a_x, a_y = _unit(sx / a_counts, sy / a_counts, hx, hy)

    b_x, b_y = _unit(0.5 * (o_x + a_x), 0.5 * (o_y + a_y), hx, hy)
    has_r, has_o, has_a = n_r > 0, n_o > 0, n_a > 0
    both = has_o & has_a

    def pick(rep_v, blend_v, o_v, a_v, h_v):
        return np.where(has_r, rep_v, np.where(both, blend_v, np.where(
            has_o, o_v, np.where(has_a, a_v, h_v))))

    return pick(rep_x, b_x, o_x, a_x, hx), pick(rep_y, b_y, o_y, a_y, hy)


def _signed_turns(ax, ay, bx, by):
    """Signed angle from heading (ax, ay) to heading (bx, by)."""
    return np.arctan2(ax * by - ay * bx, ax * bx + ay * by)


def _clamp_turns(hx, hy, dx, dy, beta: float):
    """Limit the turn from (hx, hy) toward (dx, dy) to beta radians.

    Within the limit the desired direction is returned unchanged; beyond
    it, the heading is rotated by exactly beta toward the desired side
    (ties at 180 degrees rotate positively).
    """
    theta = _signed_turns(hx, hy, dx, dy)
    within = np.abs(theta) <= beta
    ang = np.where(theta > 0, beta, -beta)
    c, s = np.cos(ang), np.sin(ang)
    return (np.where(within, dx, c * hx - s * hy),
            np.where(within, dy, s * hx + c * hy))


def _step(px, py, hx, hy, r_o, cfg: SimConfig):
    """One time step on (..., K) planes of positions and headings.

    Processing order per agent: zone rule, boundary override, turn limit,
    renormalize, integrate, and finally a hard clip into the box (the
    lookahead override steers agents away from walls but cannot bound the
    position by itself at grazing incidence).
    """
    dx, dy = _desired_directions(px, py, hx, hy, r_o, cfg)

    # an agent whose straight continuation leaves the box within two steps
    # heads for the center instead
    reach = 2.0 * cfg.speed * cfg.dt
    exiting = (np.abs(px + reach * hx) > cfg.box_half) \
        | (np.abs(py + reach * hy) > cfg.box_half)
    cx, cy = _unit(-px, -py, dx, dy)
    dx, dy = np.where(exiting, cx, dx), np.where(exiting, cy, dy)

    nx, ny = _clamp_turns(hx, hy, dx, dy, cfg.max_turn_rad)
    norms = np.sqrt(nx * nx + ny * ny)
    nx /= norms
    ny /= norms
    move = cfg.speed * cfg.dt
    return (np.clip(px + move * nx, -cfg.box_half, cfg.box_half),
            np.clip(py + move * ny, -cfg.box_half, cfg.box_half), nx, ny)


def _momentum(px, py, hx, hy):
    """|sum_k rhat_k x d_k| / K about the group centroid, per row of planes.

    The centroid is the mean over the agent axis of the (..., K, 2) stack:
    numpy adds a contiguous (..., K) plane in another order.
    """
    centroid = np.stack([px, py], axis=-1).mean(axis=-2)
    rx = px - centroid[..., 0, None]
    ry = py - centroid[..., 1, None]
    norms = np.sqrt(rx * rx + ry * ry)
    ok = norms > 0.0
    norms = np.where(ok, norms, 1.0)
    cross = (np.where(ok, rx / norms, 0.0) * hy
             - np.where(ok, ry / norms, 0.0) * hx)
    return np.abs(cross.sum(axis=-1)) / px.shape[-1]


def _planes(state: BoidState):
    return (state.positions[..., 0], state.positions[..., 1],
            state.headings[..., 0], state.headings[..., 1])


def mean_angular_momentum(state: BoidState):
    """|sum_k rhat_k x d_k| / K about the group centroid, in [0, 1].

    Agents sitting exactly on the centroid contribute zero.  A (K, 2) state
    gives a float, a batch of states one value per row.
    """
    out = _momentum(*_planes(state))
    return float(out) if out.ndim == 0 else out


def step(state: BoidState, r_o, cfg: SimConfig) -> BoidState:
    """Advance every agent one time step of length cfg.dt (see `_step`).

    `state` is one (K, 2) world or a batch (..., K, 2) of independent rows;
    `r_o` is a scalar or one orientation radius per row.
    """
    px, py, hx, hy = _step(*_planes(state), r_o, cfg)
    return BoidState(np.stack([px, py], axis=-1), np.stack([hx, hy], axis=-1))


def initial_states(cfg: SimConfig, seeds) -> BoidState:
    """Episode i's starting state, drawn from Rng(derive_seed(seeds[i],
    "boid-init")): 2K uniforms for positions in the central half-width
    square, then K for uniform headings.  Every seed is drawn in one pass."""
    k = cfg.n_agents
    u = uniform_rows(derive_seeds(seeds, "boid-init"), 3 * k)
    pos = (u[:, :2 * k].reshape(-1, k, 2) - 0.5) * cfg.box_half
    angles = u[:, 2 * k:] * (2.0 * np.pi)
    return BoidState(pos, np.stack([np.cos(angles), np.sin(angles)], axis=-1))


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
        for name in ("x_local", "x_global", "outcome"):
            if not np.isfinite(getattr(self, name)).all():
                raise NumericError(f"simulated {name} holds a non-finite value")
        return self


def simulate_batch(cfg: SimConfig, seeds, starts, forks=()) -> TrajectorySample:
    """Roll a batch of episodes in one loop, plus arms forked from them.

    Episode i (seed `seeds[i]`, an int or a uint64 word) runs from t = 0
    under absorbing treatment from `starts[i]` (None: never).  Each start s
    in `forks` (ascending, and no later than any episode's own start) adds
    one row per episode that joins the batch at step s as a copy of the
    episode's row: its state, last turn and recorded prefix.  Treatment is absorbing, so up to step s that
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
    # each row's state as (arm, episode, K) planes: x, y, heading x, heading y
    px, py, hx, hy = (a[None] for a in _planes(initial_states(cfg, seeds)))
    dtheta = np.zeros((1, b, k))
    momentum[0, :, 0] = _momentum(px, py, hx, hy)[0]

    for t in range(t_total):
        live = len(dtheta)
        if live < len(arm_start) and forks[live - 1] == t:
            x_local[live, :, :t] = x_local[0, :, :t]
            momentum[live, :, :t + 1] = momentum[0, :, :t + 1]
            px, py, hx, hy, dtheta = (np.concatenate([a, a[:1]])
                                      for a in (px, py, hx, hy, dtheta))
            live += 1
        row = x_local[:live, :, t]
        row[..., 0], row[..., 1] = px, py
        row[..., 2], row[..., 3] = cfg.speed * hx, cfg.speed * hy
        row[..., 4] = dtheta
        r_o = np.where(arm_start[:live] <= t, cfg.orientation_radius_treated,
                       cfg.orientation_radius)
        nxt = _step(px, py, hx, hy, r_o, cfg)
        dtheta = _signed_turns(hx, hy, *nxt[2:])
        px, py, hx, hy = nxt
        momentum[:live, :, t + 1] = _momentum(px, py, hx, hy)

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
