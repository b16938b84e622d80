"""The fused theory integrator against its composed reference.

`composed_theory_step` is theory_step as it was written before the fused
tape ops: the same formulas (the zonal rules of Couzin et al. 2002) as
about 75 taped ops.  The fused ops must match its values to 1e-12 and its
gradients to the finite-difference tolerance, on every branch.
"""

import numpy as np
import pytest

import cfswarm.tensor as T
from cfswarm.boids import SimConfig, simulate
from cfswarm.errors import DomainError
from cfswarm.gradcheck import theory_world
from cfswarm.model import _EPS, theory_step

GRAD_TOL = 1e-4   # the op/block finite-difference tolerance


def composed_theory_step(theta_prop, positions, headings, a_row, cfg):
    """theory_step as about 75 composed tape ops: the reference for the
    fused ops.  It raises DomainError on a head-on pair, whose alignment
    target cancels."""
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


def run(fn, theta, positions, headings, a_row, cfg, seed=0):
    """Outputs and input gradients of a random weighting of all outputs."""
    tape = T.Tape()
    xs = [tape.watch(v) for v in (theta, positions, headings)]
    outs = fn(*xs, a_row, cfg)
    rng = np.random.default_rng(seed)
    loss = T.tsum(T.mul(outs[0], rng.normal(size=outs[0].shape)))
    for out in outs[1:]:
        loss = T.add(loss, T.tsum(T.mul(out, rng.normal(size=out.shape))))
    T.backward(loss)
    return [o.array for o in outs], [tape.grad(x) for x in xs]


def assert_matches_reference(theta, positions, headings, a_row, cfg):
    got, g_got = run(theory_step, theta, positions, headings, a_row, cfg)
    ref, g_ref = run(composed_theory_step, theta, positions, headings, a_row,
                     cfg)
    for name, a, b in zip(("x_loc_hat", "x_g_hat", "new_pos", "new_head"),
                          got, ref):
        assert a.shape == b.shape, name
        assert np.max(np.abs(a - b)) <= 1e-12, name
    for name, a, b in zip(("theta", "positions", "headings"), g_got, g_ref):
        rel = np.abs(a - b) / np.maximum(1e-8, np.maximum(np.abs(a),
                                                          np.abs(b)))
        assert np.max(rel) < GRAD_TOL, name
    return got


def unit(angles):
    angles = np.asarray(angles, dtype=np.float64)
    return np.stack([np.cos(angles), np.sin(angles)], axis=-1)


def test_fused_matches_reference_on_every_branch():
    cfg = SimConfig().validate()
    theta, positions, headings, a_row = theory_world()
    got = assert_matches_reference(theta, positions, headings, a_row, cfg)
    turn, beta = got[0][..., 4], cfg.max_turn_rad
    # untreated: the pair turns to the mean of its proposal and the other's
    # heading, the third keeps its proposal (clipped at beta), the fourth's
    # turn toward the centroid is clipped at beta
    assert np.allclose(turn[0], [0.25, -0.2, beta, beta], atol=1e-12)
    # treated: the third agent aligns instead of keeping its proposal -0.1,
    # and the far agent's turn stays inside the limit
    assert turn[1, 2] < -0.2
    assert np.all(np.abs(turn[1]) < beta)


@pytest.mark.parametrize("theta_scale", [0.1, 3.0])
def test_fused_matches_reference_on_simulated_flocks(theta_scale):
    # desk-sized batches mixing every branch; theta_scale 3 clips most
    # proposals at +-beta
    cfg = SimConfig().validate()
    eps = [simulate(cfg, 40 + i, None if i % 2 else 9) for i in range(6)]
    x_local = np.stack([e.x_local for e in eps])
    rng = np.random.default_rng(1)
    for t in (0, 8, 13):
        theta = rng.uniform(-theta_scale, theta_scale,
                            size=(6, cfg.n_agents, 1))
        assert_matches_reference(theta, x_local[:, t, :, 0:2],
                                 x_local[:, t, :, 2:4] / cfg.speed,
                                 np.array([0.0, 1.0] * 3), cfg)


@pytest.mark.parametrize("k", [1, 2])
def test_fused_matches_reference_for_one_and_two_agents(k):
    cfg = SimConfig(n_agents=k).validate()
    rng = np.random.default_rng(k)
    for spacing in (0.75, 2.0, 9.0):   # orient, treated-only orient, far
        positions = np.zeros((2, k, 2))
        positions[:, :, 0] = spacing * np.arange(k)
        headings = unit(rng.uniform(-np.pi, np.pi, size=(2, k)))
        theta = rng.uniform(-1.0, 1.0, size=(2, k, 1))
        assert_matches_reference(theta, positions, headings,
                                 np.array([0.0, 1.0]), cfg)


def test_fused_matches_reference_with_every_agent_on_one_spot():
    # zero centroid offsets and pair distances: the 1e-24 epsilon keeps the
    # unit offsets finite, and every pair is in the repulsion zone
    cfg = SimConfig(n_agents=5).validate()
    rng = np.random.default_rng(2)
    positions = np.broadcast_to(rng.normal(size=(2, 1, 2)), (2, 5, 2)).copy()
    headings = unit(rng.uniform(-np.pi, np.pi, size=(2, 5)))
    theta = rng.uniform(-1.0, 1.0, size=(2, 5, 1))
    assert_matches_reference(theta, positions, headings,
                             np.array([1.0, 0.0]), cfg)


def test_head_on_pair_keeps_its_proposal():
    # each agent's alignment target cancels: own heading (+-1, 0) blended
    # with the neighbour's opposite one.  The composed form had no turn
    # angle for a zero target; the fused op keeps the proposal instead.
    cfg = SimConfig(n_agents=2).validate()
    positions = np.array([[[0.0, 0.0], [0.75, 0.0]]])
    headings = np.array([[[1.0, 0.0], [-1.0, 0.0]]])
    theta = np.zeros((1, 2, 1))
    with pytest.raises(DomainError):
        composed_theory_step(theta, positions, headings, np.zeros(1), cfg)
    tape = T.Tape()
    xs = [tape.watch(v) for v in (theta, positions, headings)]
    x_loc, x_g, _, new_head = theory_step(*xs, np.zeros(1), cfg)
    assert np.array_equal(new_head.array, headings)
    assert np.array_equal(x_loc.array[..., 4], np.zeros((1, 2)))
    step = cfg.speed * cfg.dt
    assert np.allclose(x_loc.array[..., 0:2], positions + step * headings,
                       atol=1e-15)
    T.backward(T.add(T.tsum(x_loc), T.tsum(x_g)))
    assert all(np.all(np.isfinite(tape.grad(x))) for x in xs)


def test_fused_theory_step_saves_no_pair_stack():
    # the composed form's widest saved array was a (B, K, K, 2) stack; the
    # fused ops save nothing wider than the (B, K, K) orientation pairs
    cfg = SimConfig().validate()
    theta, positions, headings, a_row = theory_world()
    tape = T.Tape()
    xs = [tape.watch(v) for v in (theta, positions, headings)]
    theory_step(*xs, a_row, cfg)
    kinds = [node.kind for node in tape.nodes[3:]]
    assert kinds == ["theory_turn", "slice", "slice", "mul", "group_spin"]
    for node in tape.nodes[3:]:
        for item in node.saved:
            if isinstance(item, np.ndarray):
                assert item.ndim <= 3, node.kind
