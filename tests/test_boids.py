import math

import numpy as np
import pytest

from cfswarm import boids
from cfswarm.boids import (BoidState, SimConfig, _clamp_turns,
                           _desired_directions, _momentum, _pairwise,
                           _signed_turns, _step, initial_states,
                           mean_angular_momentum, simulate, simulate_batch,
                           step)
from cfswarm.errors import ConfigError, ContractError
from cfswarm.rng import Rng, derive_seed


def make_state(positions, headings):
    return BoidState(np.asarray(positions, dtype=np.float64),
                     np.asarray(headings, dtype=np.float64))


def pair_state(distance):
    return make_state([[0.0, 0.0], [distance, 0.0]],
                      [[1.0, 0.0], [1.0, 0.0]])


def planes(positions, headings=None):
    """(..., K, 2) arrays as (..., K) x and y planes."""
    out = (positions[..., 0], positions[..., 1])
    return out if headings is None else out + (headings[..., 0],
                                               headings[..., 1])


def zone_neighbors(state: BoidState, k: int, r_o: float, cfg: SimConfig):
    """Counts (n_r, n_o, n_a) of neighbors of agent k in each zone."""
    d = _pairwise(*planes(state.positions))[2][:, k]
    n_r = int(np.sum(d < cfg.repulsion_radius))
    n_o = int(np.sum((d > cfg.repulsion_radius) & (d <= r_o)))
    n_a = int(np.sum((d > r_o) & (d <= cfg.attraction_radius)))
    return n_r, n_o, n_a


def desired_direction(state: BoidState, k: int, r_o: float, cfg: SimConfig):
    """Agent k's preferred unit direction before the turn limit."""
    dx, dy = _desired_directions(*planes(state.positions, state.headings),
                                 r_o, cfg)
    return np.array([dx[k], dy[k]])


def clamp_turn(d_old, d_desired, max_turn_deg):
    """The plane turn clamp on one heading and one desired direction."""
    return np.array(_clamp_turns(*d_old, *d_desired,
                                 float(np.deg2rad(max_turn_deg))))


def initial_state(cfg: SimConfig, rng: Rng) -> BoidState:
    """One (K, 2) starting state drawn from `rng`: 2K uniforms for the
    positions, then K heading angles."""
    k = cfg.n_agents
    u = rng.uniforms(3 * k)
    angles = u[2 * k:] * (2.0 * np.pi)
    return BoidState((u[:2 * k].reshape(k, 2) - 0.5) * cfg.box_half,
                     np.stack([np.cos(angles), np.sin(angles)], axis=-1))


# ---------------------------------------------------------------------------
# independent scalar re-implementation of one step, used as the oracle


def oracle_step(positions, headings, r_o, cfg: SimConfig):
    k = len(positions)
    tiny = 1e-12

    def unit(v, fallback):
        n = math.hypot(v[0], v[1])
        if n <= tiny:
            return list(fallback)
        return [v[0] / n, v[1] / n]

    new_pos, new_head = [], []
    for i in range(k):
        rep, orient, attract = [], [], []
        for j in range(k):
            if j == i:
                continue
            dx = positions[j][0] - positions[i][0]
            dy = positions[j][1] - positions[i][1]
            d = math.hypot(dx, dy)
            if d < cfg.repulsion_radius:
                rep.append((dx / d, dy / d) if d > 0 else (0.0, 0.0))
            elif d <= r_o:
                orient.append(headings[j])
            elif d <= cfg.attraction_radius:
                attract.append((dx / d, dy / d))

        if rep:
            s = [-sum(v[0] for v in rep), -sum(v[1] for v in rep)]
            desired = unit(s, headings[i])
        elif orient and attract:
            o = unit([sum(h[0] for h in orient) / len(orient),
                      sum(h[1] for h in orient) / len(orient)], headings[i])
            a = unit([sum(v[0] for v in attract) / len(attract),
                      sum(v[1] for v in attract) / len(attract)], headings[i])
            desired = unit([0.5 * (o[0] + a[0]), 0.5 * (o[1] + a[1])],
                           headings[i])
        elif orient:
            desired = unit([sum(h[0] for h in orient) / len(orient),
                            sum(h[1] for h in orient) / len(orient)],
                           headings[i])
        elif attract:
            desired = unit([sum(v[0] for v in attract) / len(attract),
                            sum(v[1] for v in attract) / len(attract)],
                           headings[i])
        else:
            desired = list(headings[i])

        # wall lookahead: two straight steps would exit -> head for center
        lx = positions[i][0] + 2.0 * cfg.speed * cfg.dt * headings[i][0]
        ly = positions[i][1] + 2.0 * cfg.speed * cfg.dt * headings[i][1]
        if abs(lx) > cfg.box_half or abs(ly) > cfg.box_half:
            desired = unit([-positions[i][0], -positions[i][1]], desired)

        beta = math.radians(cfg.max_turn_deg)
        cross = headings[i][0] * desired[1] - headings[i][1] * desired[0]
        dot = headings[i][0] * desired[0] + headings[i][1] * desired[1]
        theta = math.atan2(cross, dot)
        if abs(theta) <= beta:
            d_new = desired
        else:
            ang = beta if theta > 0 else -beta
            c, s = math.cos(ang), math.sin(ang)
            d_new = [c * headings[i][0] - s * headings[i][1],
                     s * headings[i][0] + c * headings[i][1]]
        n = math.hypot(d_new[0], d_new[1])
        d_new = [d_new[0] / n, d_new[1] / n]
        px = min(max(positions[i][0] + cfg.speed * cfg.dt * d_new[0],
                     -cfg.box_half), cfg.box_half)
        py = min(max(positions[i][1] + cfg.speed * cfg.dt * d_new[1],
                     -cfg.box_half), cfg.box_half)
        new_pos.append([px, py])
        new_head.append(d_new)
    return np.array(new_pos), np.array(new_head)


def random_state(cfg, seed, spread=None):
    rng = Rng(seed)
    spread = cfg.box_half if spread is None else spread
    pos = rng.uniform_array((cfg.n_agents, 2), -spread, spread)
    ang = rng.uniform_array((cfg.n_agents,), 0.0, 2.0 * np.pi)
    return BoidState(pos, np.stack([np.cos(ang), np.sin(ang)], axis=1))


# ---------------------------------------------------------------------------
# zones


def test_zone_repulsion_pair():
    cfg = SimConfig()
    assert zone_neighbors(pair_state(0.3), 0, 1.0, cfg) == (1, 0, 0)


def test_zone_attraction_pair():
    cfg = SimConfig()
    assert zone_neighbors(pair_state(5.0), 0, 1.0, cfg) == (0, 0, 1)


def test_zone_orientation_pair():
    cfg = SimConfig()
    assert zone_neighbors(pair_state(0.8), 0, 1.0, cfg) == (0, 1, 0)
    # treated radius swallows the attraction band up to 4
    assert zone_neighbors(pair_state(3.0), 0, 4.0, cfg) == (0, 1, 0)


def test_zone_counts_match_bruteforce():
    cfg = SimConfig()
    state = random_state(cfg, seed=21, spread=4.0)
    for r_o in (1.0, 4.0):
        for k in range(cfg.n_agents):
            n_r = n_o = n_a = 0
            for j in range(cfg.n_agents):
                if j == k:
                    continue
                d = math.hypot(*(state.positions[j] - state.positions[k]))
                if d < cfg.repulsion_radius:
                    n_r += 1
                elif d <= r_o:
                    n_o += 1
                elif d <= cfg.attraction_radius:
                    n_a += 1
            assert zone_neighbors(state, k, r_o, cfg) == (n_r, n_o, n_a)


# ---------------------------------------------------------------------------
# desired direction


def test_repulsion_neighbor_due_east():
    cfg = SimConfig()
    state = pair_state(0.3)
    assert np.allclose(desired_direction(state, 0, 1.0, cfg), [-1.0, 0.0])


def test_attraction_neighbor_due_north():
    cfg = SimConfig()
    state = make_state([[0.0, 0.0], [0.0, 5.0]],
                       [[1.0, 0.0], [1.0, 0.0]])
    assert np.allclose(desired_direction(state, 0, 1.0, cfg), [0.0, 1.0])


def test_orientation_attraction_blend_hand_case():
    # neighbor at 0.8 m heading east plus neighbor due north at 5 m:
    # blend = normalize(0.5*((1,0) + (0,1))) = (1/sqrt2, 1/sqrt2)
    cfg = SimConfig()
    state = make_state([[0.0, 0.0], [0.8, 0.0], [0.0, 5.0]],
                       [[0.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
    want = np.array([1.0, 1.0]) / np.sqrt(2.0)
    assert np.allclose(desired_direction(state, 0, 1.0, cfg), want, atol=1e-12)


def test_repulsion_priority_ignores_other_zones():
    cfg = SimConfig()
    state = make_state([[0.0, 0.0], [0.3, 0.0], [0.0, 5.0], [0.9, 0.1]],
                       [[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
    d = desired_direction(state, 0, 1.0, cfg)
    # direction depends only on the one repulsion neighbor due east
    assert np.allclose(d, [-1.0, 0.0], atol=1e-12)


def test_empty_zones_keep_heading():
    cfg = SimConfig()
    state = make_state([[0.0, 0.0], [20.0, 20.0]],
                       [[0.6, 0.8], [1.0, 0.0]])
    assert np.allclose(desired_direction(state, 0, 1.0, cfg), [0.6, 0.8])


# ---------------------------------------------------------------------------
# turn clamp


def test_clamp_within_limit_returns_desired():
    d10 = np.array([math.cos(math.radians(10)), math.sin(math.radians(10))])
    got = clamp_turn(np.array([1.0, 0.0]), d10, 30.0)
    assert np.array_equal(got, d10)


def test_clamp_90_degrees_to_30():
    got = clamp_turn(np.array([1.0, 0.0]), np.array([0.0, 1.0]), 30.0)
    assert np.allclose(got, [math.cos(math.radians(30)),
                             math.sin(math.radians(30))], atol=1e-12)


def test_clamp_exactly_at_limit_returns_desired():
    d30 = np.array([math.cos(math.radians(30)), math.sin(math.radians(30))])
    assert np.allclose(clamp_turn(np.array([1.0, 0.0]), d30, 30.0), d30,
                       atol=1e-15)


def test_clamp_negative_side():
    got = clamp_turn(np.array([1.0, 0.0]), np.array([0.0, -1.0]), 30.0)
    assert np.allclose(got, [math.cos(math.radians(30)),
                             -math.sin(math.radians(30))], atol=1e-12)


# ---------------------------------------------------------------------------
# angular momentum


def test_momentum_perfect_ring():
    ring = make_state([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]],
                      [[0.0, 1.0], [-1.0, 0.0], [0.0, -1.0], [1.0, 0.0]])
    assert mean_angular_momentum(ring) == pytest.approx(1.0, abs=1e-12)


def test_momentum_cancellation():
    state = make_state([[1.0, 0.0], [-1.0, 0.0]],
                       [[0.0, 1.0], [0.0, 1.0]])
    assert mean_angular_momentum(state) == pytest.approx(0.0, abs=1e-12)


def test_momentum_matches_independent_sum():
    cfg = SimConfig()
    state = random_state(cfg, seed=3, spread=5.0)
    centroid = state.positions.mean(axis=0)
    total = 0.0
    for p, h in zip(state.positions, state.headings):
        rx, ry = p[0] - centroid[0], p[1] - centroid[1]
        n = math.hypot(rx, ry)
        if n > 0:
            total += (rx / n) * h[1] - (ry / n) * h[0]
    want = abs(total) / cfg.n_agents
    assert mean_angular_momentum(state) == pytest.approx(want, abs=1e-12)
    assert 0.0 <= mean_angular_momentum(state) <= 1.0


# ---------------------------------------------------------------------------
# stepping


def test_isolated_agent_moves_straight():
    cfg = SimConfig()
    state = make_state([[0.0, 0.0]], [[0.6, 0.8]])
    nxt = step(state, cfg.orientation_radius, cfg)
    assert np.allclose(nxt.headings, [[0.6, 0.8]])
    assert np.allclose(nxt.positions, [[0.6 * cfg.dt, 0.8 * cfg.dt]])


def test_mutual_repulsion_increases_distance():
    cfg = SimConfig()
    state = make_state([[0.0, 0.0], [0.3, 0.0]],
                       [[0.0, 1.0], [0.0, 1.0]])
    nxt = step(state, cfg.orientation_radius, cfg)
    d0 = 0.3
    d1 = math.hypot(*(nxt.positions[1] - nxt.positions[0]))
    assert d1 > d0


@pytest.mark.parametrize("seed", range(6))
def test_step_matches_scalar_oracle(seed):
    cfg = SimConfig(n_agents=5)
    state = random_state(cfg, seed=seed, spread=3.0)
    for r_o in (cfg.orientation_radius, cfg.orientation_radius_treated):
        got = step(state, r_o, cfg)
        pos, head = oracle_step(state.positions.tolist(),
                                state.headings.tolist(), r_o, cfg)
        assert np.max(np.abs(got.positions - pos)) < 1e-12
        assert np.max(np.abs(got.headings - head)) < 1e-12


def _batch_cases():
    """(cfg, positions (B, K, 2), headings (B, K, 2)) batches; the last
    is a full 128-row simulation chunk."""
    rng = Rng(2024)
    cases = []
    for k, b in [(k, b) for k in (1, 2, 20) for b in (1, 7)] + [(20, 128)]:
        cfg = SimConfig(n_agents=k)
        spread = 3.0 if k > 2 else 0.6
        pos = rng.uniform_array((b, k, 2), -spread, spread)
        ang = rng.uniform_array((b, k), 0.0, 2.0 * np.pi)
        head = np.stack([np.cos(ang), np.sin(ang)], axis=-1)
        if b > 1 and k > 1:
            pos[1, 1] = pos[1, 0]          # coincident agents
            pos[2, :, 0] = cfg.box_half    # every agent on a wall
            head[2, :] = [1.0, 0.0]        # heading out of the box
            pos[3] = pos[3, :1]            # the whole flock on one spot
        cases.append(pytest.param(cfg, pos, head, id=f"K={k},B={b}"))
    return cases


@pytest.mark.parametrize("cfg, pos, head", _batch_cases())
def test_batched_step_equals_per_row_step(cfg, pos, head):
    b = pos.shape[0]
    r_o = np.where(np.arange(b) % 2 == 1, cfg.orientation_radius_treated,
                   cfg.orientation_radius)
    batch = step(BoidState(pos, head), r_o, cfg)
    momenta = mean_angular_momentum(batch)
    assert momenta.shape == (b,)
    for i in range(b):
        row = step(BoidState(pos[i], head[i]), float(r_o[i]), cfg)
        assert np.array_equal(batch.positions[i], row.positions)
        assert np.array_equal(batch.headings[i], row.headings)
        got = mean_angular_momentum(row)
        assert isinstance(got, float)
        assert np.array_equal(momenta[i], got)


# ---------------------------------------------------------------------------
# the step on (..., K, 2) stacks, the form the simulator used before it
# carried (..., K) coordinate planes; the planes must reproduce it bit for bit


def _unit_rows(v: np.ndarray, fallback: np.ndarray) -> np.ndarray:
    """Normalize rows; rows with ~zero norm fall back to the given direction."""
    vx, vy = v[..., 0], v[..., 1]
    norms = np.sqrt(vx * vx + vy * vy)
    ok = norms > 1e-12
    return np.where(ok[..., None], v / np.where(ok, norms, 1.0)[..., None],
                    fallback)


def stack_signed_turns(d_prev, d_new):
    cross = d_prev[..., 0] * d_new[..., 1] - d_prev[..., 1] * d_new[..., 0]
    dot = d_prev[..., 0] * d_new[..., 0] + d_prev[..., 1] * d_new[..., 1]
    return np.arctan2(cross, dot)


def stack_clamp_turns(headings, desired, beta):
    theta = stack_signed_turns(headings, desired)
    within = np.abs(theta) <= beta
    ang = np.where(theta > 0, beta, -beta)
    c, s = np.cos(ang), np.sin(ang)
    rotated = np.stack([c * headings[..., 0] - s * headings[..., 1],
                        s * headings[..., 0] + c * headings[..., 1]], axis=-1)
    return np.where(within[..., None], desired, rotated)


def stack_step(pos, d_old, r_o, cfg: SimConfig):
    """Zone rule, wall override, turn clamp, renormalize, integrate."""
    desired = stack_desired_directions(pos, d_old, r_o, cfg)[0]
    lookahead = pos + (2.0 * cfg.speed * cfg.dt) * d_old
    exiting = np.any(np.abs(lookahead) > cfg.box_half, axis=-1)
    center_dir = _unit_rows(-pos, desired)
    desired = np.where(exiting[..., None], center_dir, desired)
    new_d = stack_clamp_turns(d_old, desired, cfg.max_turn_rad)
    norms = np.sqrt(np.sum(new_d * new_d, axis=-1))
    new_d = new_d / norms[..., None]
    new_pos = np.clip(pos + (cfg.speed * cfg.dt) * new_d,
                      -cfg.box_half, cfg.box_half)
    return new_pos, new_d


def stack_momentum(positions, headings):
    centroid = positions.mean(axis=-2)
    rel = positions - centroid[..., None, :]
    norms = np.sqrt(np.sum(rel * rel, axis=-1))
    ok = norms > 0.0
    rhat = np.where(ok[..., None], rel / np.where(ok, norms, 1.0)[..., None],
                    0.0)
    cross = rhat[..., 0] * headings[..., 1] - rhat[..., 1] * headings[..., 0]
    return np.abs(cross.sum(axis=-1)) / positions.shape[-2]


def stack_desired_directions(positions, headings, r_o, cfg: SimConfig):
    """The zone rule on (..., k, j, 2) stacks of r_j - r_k.

    This is the pair layout the simulator used before it moved to
    (..., j, k) coordinate planes; the planes must reproduce it bit for bit.
    """
    diff = positions[..., None, :, :] - positions[..., :, None, :]
    dist = np.sqrt(np.sum(diff * diff, axis=-1))
    idx = np.arange(positions.shape[-2])
    dist[..., idx, idx] = np.inf
    with np.errstate(invalid="ignore"):
        unit = diff / dist[..., None]
    unit = np.where(np.isfinite(unit), unit, 0.0)

    r_o = np.asarray(r_o)[..., None, None]
    rep = dist < cfg.repulsion_radius
    orient = (dist > cfg.repulsion_radius) & (dist <= r_o)
    attract = (dist > r_o) & (dist <= cfg.attraction_radius)
    n_r, n_o, n_a = rep.sum(axis=-1), orient.sum(axis=-1), attract.sum(axis=-1)

    rep_dir = _unit_rows(-(unit * rep[..., None]).sum(axis=-2), headings)
    o_counts = np.where(n_o > 0, n_o, 1)[..., None]
    o_term = (headings[..., None, :, :] * orient[..., None]).sum(axis=-2) / o_counts
    o_hat = _unit_rows(o_term, headings)
    a_counts = np.where(n_a > 0, n_a, 1)[..., None]
    a_hat = _unit_rows((unit * attract[..., None]).sum(axis=-2) / a_counts,
                       headings)
    both = (n_o > 0) & (n_a > 0)
    blend = _unit_rows(0.5 * (o_hat + a_hat), headings)
    social = np.where(both[..., None], blend,
                      np.where((n_o > 0)[..., None], o_hat,
                               np.where((n_a > 0)[..., None], a_hat, headings)))
    return np.where((n_r > 0)[..., None], rep_dir, social), dist


def _plane_cases():
    """(cfg, positions (..., K, 2), headings, r_o) with one r_o per row.

    Row 0 holds two coincident agents; rows 1-4 put agent 1 exactly r_r,
    r_o, treated r_o and r_a from agent 0, each under the r_o that makes
    the distance a zone boundary; every other row draws its own r_o.  The
    128-row cases, a full simulation chunk, draw from their own stream.
    """
    def case(rng, k, lead):
        cfg = SimConfig(n_agents=k)
        r_o, r_t = cfg.orientation_radius, cfg.orientation_radius_treated
        edges = [(cfg.repulsion_radius, r_o), (r_o, r_o), (r_t, r_t),
                 (cfg.attraction_radius, r_t)]
        pos = rng.uniform_array(lead + (k, 2), -4.0, 4.0)
        ang = rng.uniform_array(lead + (k,), 0.0, 2.0 * np.pi)
        head = np.stack([np.cos(ang), np.sin(ang)], axis=-1)
        radii = rng.uniform_array(lead, cfg.repulsion_radius,
                                  cfg.attraction_radius)
        rows, row_r_o = pos.reshape(-1, k, 2), radii.reshape(-1)
        if k > 1:
            rows[0, 1] = rows[0, 0]
            for i, (dist, radius) in enumerate(edges[:len(rows) - 1], 1):
                rows[i, :2] = [[0.0, 0.0], [dist, 0.0]]
                row_r_o[i] = radius
        if lead == ():
            radii = float(radii)
        return pytest.param(cfg, pos, head, radii, id=f"K={k},lead={lead}")

    rng = Rng(2026)
    cases = [case(rng, k, lead) for k in (1, 2, 4, 20)
             for lead in ((), (7,), (6, 32))]
    rng = Rng(2027)
    return cases + [case(rng, k, (128,)) for k in (2, 20)]


@pytest.mark.parametrize("cfg, pos, head, r_o", _plane_cases())
def test_plane_zone_rule_equals_stack_form(cfg, pos, head, r_o):
    want, want_dist = stack_desired_directions(pos, head, r_o, cfg)
    got = _desired_directions(*planes(pos, head), r_o, cfg)
    assert np.array_equal(np.stack(got, axis=-1), want)
    assert np.array_equal(_pairwise(*planes(pos))[2],
                          np.swapaxes(want_dist, -1, -2))


def _step_cases():
    """Every plane case, and every batch case with r_o alternating between
    the untreated and treated radius."""
    cases = []
    for case in _batch_cases():
        cfg, pos, head = case.values
        r_o = np.where(np.arange(pos.shape[0]) % 2 == 1,
                       cfg.orientation_radius_treated, cfg.orientation_radius)
        cases.append(pytest.param(cfg, pos, head, r_o, id="batch," + case.id))
    return cases + [pytest.param(*case.values, id="plane," + case.id)
                    for case in _plane_cases()]


@pytest.mark.parametrize("cfg, pos, head, r_o", _step_cases())
def test_plane_step_equals_stack_form(cfg, pos, head, r_o):
    want_pos, want_head = stack_step(pos, head, r_o, cfg)
    px, py, hx, hy = _step(*planes(pos, head), r_o, cfg)
    assert np.array_equal(np.stack([px, py], axis=-1), want_pos)
    assert np.array_equal(np.stack([hx, hy], axis=-1), want_head)
    assert np.array_equal(_signed_turns(*planes(head, want_head)),
                          stack_signed_turns(head, want_head))
    for p, h in ((pos, head), (want_pos, want_head)):
        assert np.array_equal(_momentum(*planes(p, h)), stack_momentum(p, h))


def test_soak_invariants():
    cfg = SimConfig()
    state = random_state(cfg, seed=77, spread=cfg.box_half / 2)
    beta = cfg.max_turn_rad
    for i in range(10_000):
        prev = state.headings
        state = step(state, cfg.orientation_radius, cfg)
        norms = np.sqrt(np.sum(state.headings ** 2, axis=1))
        assert np.max(np.abs(norms - 1.0)) <= 1e-9
        cross = prev[:, 0] * state.headings[:, 1] - prev[:, 1] * state.headings[:, 0]
        dot = np.sum(prev * state.headings, axis=1)
        assert np.max(np.abs(np.arctan2(cross, dot))) <= beta + 1e-9
        assert np.max(np.abs(state.positions)) <= cfg.box_half


# ---------------------------------------------------------------------------
# episodes


def test_simulate_deterministic():
    cfg = SimConfig()
    a = simulate(cfg, seed=5, intervention=10)
    b = simulate(cfg, seed=5, intervention=10)
    assert a.x_local.tobytes() == b.x_local.tobytes()
    assert a.outcome.tobytes() == b.outcome.tobytes()
    assert np.array_equal(a.treatment, b.treatment)


def test_simulate_never_treated_all_zeros():
    cfg = SimConfig()
    sample = simulate(cfg, seed=5, intervention=None)
    assert not sample.treatment.any()
    assert sample.intervention_step is None


def test_simulate_treatment_is_absorbing():
    cfg = SimConfig()
    sample = simulate(cfg, seed=5, intervention=11)
    assert np.array_equal(sample.treatment,
                          (np.arange(cfg.n_steps) >= 11).astype(np.uint8))


def test_simulate_covariate_layout():
    cfg = SimConfig()
    sample = simulate(cfg, seed=9, intervention=None).validate(cfg)
    assert sample.x_local.shape == (cfg.n_steps, cfg.n_agents, 5)
    # velocity rows have speed-length, directional change starts at zero
    v = sample.x_local[:, :, 2:4]
    assert np.allclose(np.sqrt((v ** 2).sum(axis=2)), cfg.speed, atol=1e-9)
    assert np.array_equal(sample.x_local[0, :, 4], np.zeros(cfg.n_agents))
    assert np.all((sample.outcome >= 0.0) & (sample.outcome <= 1.0))
    assert np.all((sample.x_global >= 0.0) & (sample.x_global <= 1.0))


def test_simulate_outcome_is_next_step_momentum():
    cfg = SimConfig()
    sample = simulate(cfg, seed=13, intervention=None)
    assert np.allclose(sample.outcome[:-1], sample.x_global[1:, 0],
                       atol=1e-15)


def test_simulate_rejects_bad_intervention():
    cfg = SimConfig()
    with pytest.raises(ConfigError):
        simulate(cfg, seed=0, intervention=3)
    with pytest.raises(ConfigError):
        simulate(cfg, seed=0, intervention=cfg.n_steps)


def test_simulate_batch_rejects_bad_starts_and_forks():
    cfg = SimConfig(n_agents=3)
    with pytest.raises(ConfigError):
        simulate_batch(cfg, [1, 2], [None, 3])
    with pytest.raises(ConfigError):
        simulate_batch(cfg, [1], [None], forks=[cfg.n_steps])
    for forks in ([11, 10], [10, 10], [None]):
        with pytest.raises(ContractError):
            simulate_batch(cfg, [1], [None], forks=forks)
    # a fork must not start after an episode's own start
    with pytest.raises(ContractError):
        simulate_batch(cfg, [1, 2], [None, 10], forks=[11])
    rows = simulate_batch(cfg, [1, 2], [None, 10], forks=[9, 10])
    assert rows.x_local.shape == (2, 3, cfg.n_steps, 3, 5)


@pytest.mark.parametrize("seeds, starts", [
    pytest.param([], [], id="empty"),
    pytest.param([], [None], id="no-seed-one-start"),
    pytest.param([1, 2], [None], id="two-seeds-one-start"),
    pytest.param([1], [None, 10], id="one-seed-two-starts")])
def test_simulate_batch_rejects_empty_or_mismatched_batches(
        monkeypatch, seeds, starts):
    cfg = SimConfig(n_agents=3)

    def no_step(*args):
        raise AssertionError("simulated before checking its arguments")

    monkeypatch.setattr(boids, "_step", no_step)
    for forks in ((), (9,)):
        with pytest.raises(ContractError, match="one start per seed"):
            simulate_batch(cfg, seeds, starts, forks)


def test_prefix_shared_before_intervention():
    cfg = SimConfig()
    a = simulate(cfg, seed=31, intervention=9)
    b = simulate(cfg, seed=31, intervention=None)
    assert a.x_local[:9].tobytes() == b.x_local[:9].tobytes()
    assert a.x_local[9:].tobytes() != b.x_local[9:].tobytes()


def test_treatment_raises_mean_final_outcome():
    cfg = SimConfig()
    gaps = []
    for seed in range(200):
        treated = simulate(cfg, seed=seed, intervention=cfg.t_i_start)
        control = simulate(cfg, seed=seed, intervention=None)
        gaps.append(treated.outcome[-1] - control.outcome[-1])
    assert np.mean(gaps) > 0.0


def test_config_invariants_enforced():
    with pytest.raises(ContractError):
        SimConfig(repulsion_radius=2.0, orientation_radius=1.0).validate()
    with pytest.raises(ContractError):
        SimConfig(burn_in=14).validate()
    with pytest.raises(ContractError):
        SimConfig(t_i_start=3).validate()


def test_initial_state_inside_half_width_square():
    cfg = SimConfig()
    state = initial_state(cfg, Rng(4))
    assert np.max(np.abs(state.positions)) <= cfg.box_half / 2
    norms = np.sqrt(np.sum(state.headings ** 2, axis=1))
    assert np.allclose(norms, 1.0, atol=1e-12)


def test_batched_initial_states_equal_per_seed_draws():
    cfg = SimConfig()
    seeds = [0, 3, 1009, 2**40 + 7]
    batch = initial_states(cfg, seeds)
    for i, seed in enumerate(seeds):
        one = initial_state(cfg, Rng(derive_seed(seed, "boid-init")))
        assert np.array_equal(batch.positions[i], one.positions)
        assert np.array_equal(batch.headings[i], one.headings)
        # the draw as two uniform_array calls, positions then angles
        rng = Rng(derive_seed(seed, "boid-init"))
        pos = (rng.uniform_array((cfg.n_agents, 2)) - 0.5) * cfg.box_half
        ang = rng.uniform_array((cfg.n_agents,)) * (2.0 * np.pi)
        assert np.array_equal(one.positions, pos)
        assert np.array_equal(one.headings,
                              np.stack([np.cos(ang), np.sin(ang)], axis=1))
