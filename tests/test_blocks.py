import numpy as np
import pytest

import cfswarm.tensor as T
from cfswarm.blocks import (SIGMA_FLOOR, FlatBlock, GaussianHead, GnnBlock,
                            GruCell, Mlp, treatment_head)
from cfswarm.errors import ContractError, DimensionError
from cfswarm.gradcheck import check_blocks
from cfswarm.optim import ParamStore
from cfswarm.rng import Rng


def build(block, seed=0):
    store = ParamStore()
    block.register(store, Rng(seed))
    return store


def zero_build(block):
    store = ParamStore()
    block.register(store, Rng(0))
    for name, p in store.params.items():
        store.params[name] = T.Tensor(np.zeros_like(p.array))
    return store


# ---------------------------------------------------------------------------
# MLP


def test_mlp_zero_params_identity_output_is_zero():
    mlp = Mlp("m", [3, 4, 2])
    store = zero_build(mlp)
    out = mlp(dict(store.params), T.Tensor(np.ones((5, 3))))
    assert np.array_equal(out.array, np.zeros((5, 2)))


def test_mlp_single_layer_is_affine():
    mlp = Mlp("m", [3, 2])
    store = build(mlp, seed=3)
    x = Rng(1).uniform_array((4, 3), -1.0, 1.0)
    out = mlp(dict(store.params), T.Tensor(x))
    w = store.params["m.w0"].array
    b = store.params["m.b0"].array
    assert np.max(np.abs(out.array - (x @ w + b))) < 1e-15


def test_mlp_two_layer_hand_composition():
    mlp = Mlp("m", [2, 3, 1], out_activation="sigmoid")
    store = build(mlp, seed=5)
    x = np.array([[0.3, -0.7]])
    p = {k: v.array for k, v in store.params.items()}
    want = 1.0 / (1.0 + np.exp(-(np.tanh(x @ p["m.w0"] + p["m.b0"])
                                 @ p["m.w1"] + p["m.b1"])))
    got = mlp(dict(store.params), T.Tensor(x)).array
    assert np.max(np.abs(got - want)) < 1e-15


def test_mlp_shape_and_spec_validation():
    with pytest.raises(ContractError):
        Mlp("m", [3])
    with pytest.raises(ContractError):
        Mlp("m", [3, 2], out_activation="relu")
    mlp = Mlp("m", [3, 2])
    store = build(mlp)
    with pytest.raises(DimensionError):
        mlp(dict(store.params), T.Tensor(np.ones((4, 5))))


def test_mlp_leading_axes_collapse():
    mlp = Mlp("m", [3, 2])
    store = build(mlp, seed=9)
    x = Rng(2).uniform_array((2, 4, 3), -1.0, 1.0)
    out = mlp(dict(store.params), T.Tensor(x)).array
    flat = mlp(dict(store.params), T.Tensor(x.reshape(8, 3))).array
    assert out.shape == (2, 4, 2)
    assert np.array_equal(out.reshape(8, 2), flat)


# ---------------------------------------------------------------------------
# GRU


def test_gru_zero_params_halves_hidden():
    cell = GruCell("g", 3, 4)
    store = zero_build(cell)
    h = Rng(4).uniform_array((2, 4), -1.0, 1.0)
    out = cell(dict(store.params), T.Tensor(np.zeros((2, 3))), T.Tensor(h))
    assert np.max(np.abs(out.array - 0.5 * h)) < 1e-15


def test_gru_bias_only_closed_form():
    cell = GruCell("g", 2, 3)
    store = zero_build(cell)
    bz = np.array([0.3, -0.2, 0.5])
    bh = np.array([1.0, -1.0, 0.25])
    store.params["g.bz"] = T.Tensor(bz)
    store.params["g.bh"] = T.Tensor(bh)
    out = cell(dict(store.params), T.Tensor(np.zeros((1, 2))),
               T.Tensor(np.zeros((1, 3))))
    z = 1.0 / (1.0 + np.exp(-bz))
    want = z * np.tanh(bh)
    assert np.max(np.abs(out.array - want)) < 1e-15


def test_gru_matches_scalar_reference_trace():
    cell = GruCell("g", 2, 2)
    store = build(cell, seed=8)
    p = {k: v.array for k, v in store.params.items()}
    x = np.array([0.4, -0.9])
    h = np.array([0.1, 0.2])

    def sig(v):
        return 1.0 / (1.0 + np.exp(-v))

    # scalar reference, one hidden unit at a time
    z = sig(x @ p["g.wz"] + h @ p["g.uz"] + p["g.bz"])
    r = sig(x @ p["g.wr"] + h @ p["g.ur"] + p["g.br"])
    cand = np.tanh(x @ p["g.wh"] + (r * h) @ p["g.uh"] + p["g.bh"])
    want = (1.0 - z) * h + z * cand
    got = cell(dict(store.params), T.Tensor(x.reshape(1, 2)),
               T.Tensor(h.reshape(1, 2))).array[0]
    assert np.max(np.abs(got - want)) < 1e-12


# ---------------------------------------------------------------------------
# GNN


def test_gnn_zero_params_bias_image():
    block = GnnBlock("n", n_in=3, n_hidden=4, n_edge=4, n_out=2)
    store = zero_build(block)
    nodes = T.Tensor(Rng(0).uniform_array((5, 3))[None])
    out = block(dict(store.params), nodes)
    assert np.array_equal(out.array[0], np.zeros((5, 2)))
    # rows identical even with a nonzero f_v bias
    store.params["n.fv.b1"] = T.Tensor(np.array([0.7, -0.3]))
    out = block(dict(store.params), nodes)
    assert np.allclose(out.array[0], np.tile([0.7, -0.3], (5, 1)))


def test_gnn_matches_naive_pair_loop():
    block = GnnBlock("n", n_in=3, n_hidden=4, n_edge=4, n_out=2)
    store = build(block, seed=6)
    p = {k: v.array for k, v in store.params.items()}
    nodes = Rng(11).uniform_array((4, 3), -1.0, 1.0)

    def mlp2(x, w0, b0, w1, b1):
        return np.tanh(x @ w0 + b0) @ w1 + b1

    want = np.zeros((4, 2))
    for k in range(4):
        agg = np.zeros(4)
        for j in range(4):
            if j == k:
                continue
            pair = np.concatenate([nodes[k], nodes[j]])
            agg += mlp2(pair, p["n.fe.w0"], p["n.fe.b0"],
                        p["n.fe.w1"], p["n.fe.b1"])
        want[k] = mlp2(agg, p["n.fv.w0"], p["n.fv.b0"],
                       p["n.fv.w1"], p["n.fv.b1"])
    got = block(dict(store.params), T.Tensor(nodes[None])).array[0]
    assert np.max(np.abs(got - want)) < 1e-12


def test_gnn_permutation_equivariance():
    block = GnnBlock("n", n_in=3, n_hidden=4, n_edge=4, n_out=2)
    store = build(block, seed=1)
    rng = Rng(14)
    for trial in range(50):
        nodes = rng.uniform_array((6, 3), -1.0, 1.0)
        perm = Rng(1000 + trial).permutation(6)
        base = block(dict(store.params), T.Tensor(nodes[None])).array[0]
        shuffled = block(dict(store.params),
                         T.Tensor(nodes[perm][None])).array[0]
        assert np.max(np.abs(shuffled - base[perm])) <= 1e-9


def test_gnn_single_node_sees_zero_messages():
    block = GnnBlock("n", n_in=3, n_hidden=4, n_edge=4, n_out=2)
    store = build(block, seed=2)
    p = {k: v.array for k, v in store.params.items()}
    node = Rng(3).uniform_array((1, 3))
    got = block(dict(store.params), T.Tensor(node[None])).array[0]
    want = np.tanh(np.zeros(4) @ p["n.fv.w0"] + p["n.fv.b0"]) \
        @ p["n.fv.w1"] + p["n.fv.b1"]
    assert np.max(np.abs(got[0] - want)) < 1e-12


def test_gnn_batched_equals_per_sample():
    block = GnnBlock("n", n_in=2, n_hidden=3, n_edge=3, n_out=2)
    store = build(block, seed=4)
    batch = Rng(5).uniform_array((3, 4, 2), -1.0, 1.0)
    got = block(dict(store.params), T.Tensor(batch)).array
    for i in range(3):
        single = block(dict(store.params), T.Tensor(batch[i:i + 1])).array
        assert np.max(np.abs(got[i] - single[0])) < 1e-12


def test_gnn_saves_no_pair_sized_array():
    # f_e's output layer runs after aggregation, and the fused op rebuilds
    # its hidden layer in backward, so the tape holds no (B, K, K, .) array
    block = GnnBlock("n", n_in=3, n_hidden=5, n_edge=4, n_out=2)
    store = build(block, seed=7)
    tape = T.Tape()
    block(store.bind(tape), Rng(8).uniform_array((2, 6, 3), -1.0, 1.0))
    shapes = [a.shape for node in tape.nodes for a in node.saved
              if isinstance(a, np.ndarray)]
    assert shapes.count((2, 6, 6, 5)) == 0
    assert (2, 6, 6, 4) not in shapes
    assert not [s for s in shapes if len(s) == 4 and s[:3] == (2, 6, 6)]


def test_flat_block_not_equivariant_but_shaped():
    block = FlatBlock("f", n_agents=3, n_in=2, n_hidden=8, n_out=2)
    store = build(block, seed=7)
    nodes = Rng(8).uniform_array((3, 2), -1.0, 1.0)
    out = block(dict(store.params), T.Tensor(nodes[None])).array[0]
    assert out.shape == (3, 2)
    perm = np.array([2, 0, 1])
    swapped = block(dict(store.params), T.Tensor(nodes[perm][None])).array[0]
    assert not np.allclose(swapped, out[perm])


@pytest.mark.parametrize("block", [
    GnnBlock("n", n_in=2, n_hidden=4, n_edge=4, n_out=2),
    FlatBlock("f", n_agents=3, n_in=2, n_hidden=8, n_out=2),
], ids=["gnn", "flat"])
@pytest.mark.parametrize("shape", [(3, 2), (1, 2, 3, 2)], ids=["2d", "4d"])
def test_graph_blocks_take_batched_nodes_only(block, shape):
    store = build(block, seed=9)
    with pytest.raises(DimensionError):
        block(dict(store.params), T.Tensor(np.zeros(shape)))


# ---------------------------------------------------------------------------
# Gaussian head and treatment head


def test_gaussian_head_zero_weights():
    head = GaussianHead("h", 3, 2)
    store = zero_build(head)
    mu, sigma = head(dict(store.params), T.Tensor(np.ones((4, 3))))
    assert np.array_equal(mu.array, np.zeros((4, 2)))
    want = np.log(2.0) + SIGMA_FLOOR  # softplus(0) + floor
    assert np.max(np.abs(sigma.array - want)) < 1e-15
    assert want == pytest.approx(0.6932471805599453, abs=1e-15)


def test_gaussian_head_sigma_floor():
    head = GaussianHead("h", 1, 1)
    store = zero_build(head)
    store.params["h.bsig"] = T.Tensor(np.array([-50.0]))
    _, sigma = head(dict(store.params), T.Tensor(np.zeros((1, 1))))
    assert sigma.array[0, 0] == pytest.approx(SIGMA_FLOOR, rel=1e-9)
    assert sigma.array[0, 0] > 0.0


def test_treatment_head_zero_weights_half():
    mlp = Mlp("a", [4, 3, 1])
    store = zero_build(mlp)
    prob, logits = treatment_head(mlp, dict(store.params),
                                  T.Tensor(np.ones((2, 4))))
    assert np.array_equal(prob.array, np.full((2, 1), 0.5))
    assert np.array_equal(logits.array, np.zeros((2, 1)))


def test_treatment_head_flips_encoder_gradient_sign():
    # gradient w.r.t. the representation flips sign vs a no-reversal pass
    mlp = Mlp("a", [4, 3, 1])
    store = build(mlp, seed=12)
    z = Rng(9).uniform_array((3, 4), -1.0, 1.0)

    def loss_grad(reverse):
        tape = T.Tape()
        leaves = store.bind(tape)
        zt = tape.watch(z)
        inp = T.grad_reverse(zt, 1.0) if reverse else zt
        logits = mlp.forward(leaves, inp)
        T.backward(T.tsum(T.mul(logits, logits)))
        return tape.grad(zt).copy(), {k: tape.grad(v).copy()
                                      for k, v in leaves.items()}

    g_rev, params_rev = loss_grad(True)
    g_plain, params_plain = loss_grad(False)
    assert np.max(np.abs(g_rev + g_plain)) < 1e-15
    for name in params_rev:
        assert np.array_equal(params_rev[name], params_plain[name])


# ---------------------------------------------------------------------------
# gradients


@pytest.mark.parametrize("block, call", [
    (Mlp("m", [4, 5, 2]), lambda blk, lv, x, h: blk(lv, x)),
    (GruCell("g", 4, 3), lambda blk, lv, x, h: blk(lv, x, h)),
    (GaussianHead("h", 4, 2), lambda blk, lv, x, h: blk(lv, x)),
    (GnnBlock("n", 4, 5, 3, 2), lambda blk, lv, x, h: blk(lv, x)),
], ids=["mlp", "gru", "gauss", "gnn"])
def test_blocks_on_agent_axis_record_no_reshape(block, call):
    # matmul takes (B, K, F) directly, so no block flattens the agent axis
    store = build(block, seed=2)
    tape = T.Tape()
    x = tape.watch(Rng(4).uniform_array((2, 3, 4), -1.0, 1.0))
    h = tape.watch(Rng(5).uniform_array((2, 3, 3), -1.0, 1.0))
    call(block, store.bind(tape), x, h)
    kinds = [node.kind for node in tape.nodes]
    assert "matmul" in kinds and "reshape" not in kinds


def test_all_blocks_pass_finite_differences():
    results = check_blocks()
    assert max(results.values()) < 1e-4, results
