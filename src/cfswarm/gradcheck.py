"""Finite-difference verification of the reverse pass.

Three layers of checking: a per-op table covering every registered backward
rule, block-level checks (dense, recurrent, message-passing, Gaussian heads),
and an end-to-end check of the full training loss on a tiny world.  The
treatment classifier's reversal layer deliberately negates its upstream
gradient, so end-to-end runs swap its rule for a pass-through; the reversal
itself is asserted separately (sign flip with identical classifier grads).

The backward registry is plain data, so tests can also inject a corrupted
rule and assert the harness flags it.
"""

from contextlib import contextmanager

import numpy as np

from . import tensor as T
from .blocks import FlatBlock, GaussianHead, GnnBlock, GruCell, Mlp
from .boids import SimConfig
from .data import generate_dataset
from .errors import ContractError
from .losses import LossWeights
from .model import (CrnModel, ModelDims, ModelVariant, group_spin,
                    theory_turn)
from .optim import ParamStore
from .rng import Rng, derive_seed
from .training import _episode_loss

FD_STEP, FD_FLOOR = 1e-5, 1e-8   # central-difference step, error floor
E2E_PROBES = 3                    # probed entries per parameter end to end
OP_TOL, E2E_TOL = 1e-4, 1e-3      # gates on op/block and end-to-end errors


@contextmanager
def patched_backward(kind: str, fn):
    """Temporarily replace one backward rule (fault injection for tests)."""
    if kind not in T.BACKWARD:
        raise ContractError(f"unknown op kind {kind!r}")
    original = T.BACKWARD[kind]
    T.BACKWARD[kind] = fn
    try:
        yield
    finally:
        T.BACKWARD[kind] = original


@contextmanager
def grl_bypass():
    """Treat the gradient reversal as identity, making losses FD-checkable."""
    with patched_backward("grad_reverse", lambda g, saved: (g,)):
        yield


def fd_check(fn, arrays, probes=None) -> float:
    """Worst relative error between backward and central differences.

    fn maps a list of tape tensors (one per input array) to a scalar tensor.
    probes lists, per input, the flat indices to probe; None probes every
    entry of every input.
    """
    arrays = [np.asarray(a, dtype=np.float64).copy() for a in arrays]
    tape = T.Tape()
    leaves = [tape.watch(a) for a in arrays]
    T.backward(fn(leaves))
    grads = [tape.grad(leaf) for leaf in leaves]

    def value():
        tape = T.Tape()
        return float(fn([tape.watch(a) for a in arrays]).array)

    if probes is None:
        probes = [range(arr.size) for arr in arrays]
    worst = 0.0
    for arr, grad, idxs in zip(arrays, grads, probes):
        flat = arr.ravel()
        for i in idxs:
            orig = flat[i]
            flat[i] = orig + FD_STEP
            plus = value()
            flat[i] = orig - FD_STEP
            minus = value()
            flat[i] = orig
            fd = (plus - minus) / (2.0 * FD_STEP)
            an = grad.ravel()[i]
            worst = max(worst, abs(fd - an) / max(FD_FLOOR, abs(fd), abs(an)))
    return worst


def _fd_check_params(store: ParamStore, build, probes=None) -> float:
    """`fd_check` over every parameter of store, in store order; build maps
    the name -> leaf dict to a scalar tensor."""
    names = list(store.params)
    return fd_check(lambda leaves: build(dict(zip(names, leaves))),
                    [store.params[n].array for n in names], probes)


def _weighted(out, seed=0):
    """Reduce any tensor to a scalar with fixed random weights."""
    w = np.random.default_rng(seed).normal(size=out.array.shape)
    return T.tsum(T.mul(out, w))


def theory_world():
    """theory_step inputs on every branch, away from zone and clip edges.

    Returns (theta_prop, positions, headings, a_row) for the desk config:
    two rows (untreated, treated) of four agents.  Agents 0 and 1 are 0.8
    apart, in each other's orientation zone; agent 2 is 2.5 away, an
    orientation neighbour only under treatment; agent 3 is beyond half the
    attraction radius from the centroid.  Agent 2's untreated proposal and
    agent 3's untreated turn are clipped at the turn limit.
    """
    positions = np.array([[[0.0, 0.0], [0.8, 0.0], [0.3, 2.5],
                           [12.0, 0.0]]] * 2)
    angles = np.array([[0.3, 0.6, -0.2, 1.6], [0.1, 0.4, 0.7, 3.4]])
    headings = np.stack([np.cos(angles), np.sin(angles)], axis=-1)
    theta = np.array([[0.2, -0.1, 0.9, 0.1],
                      [-0.25, 0.35, -0.1, -0.8]])[..., None]
    return theta, positions, headings, np.array([0.0, 1.0])


def op_cases():
    """One FD case per registered op kind; values keep FD well-conditioned."""
    g = np.random.default_rng(42)
    a = g.normal(size=(3, 4))
    b = g.normal(size=(3, 4))
    pos = np.abs(a) + 0.5
    m1 = g.normal(size=(3, 4))
    m2 = g.normal(size=(4, 2))
    frac = np.tanh(a) * 0.7          # stays away from clip boundaries
    rng_seed = derive_seed(7, "opcheck")
    theory, desk = theory_world(), SimConfig()

    def case(fn, arrays):
        return lambda: fd_check(fn, arrays)

    def pair_case(k):
        # K = 1 has no pairs and K = 2 one per node: the diagonal must stay
        # out of the gradient as well as the value
        arrays = [g.normal(size=(2, k, 3)), g.normal(size=(2, k, 3)),
                  g.normal(size=3)]
        return case(lambda xs: _weighted(T.pair_tanh_sum(*xs)), arrays)

    cases = {
        "add": case(lambda xs: _weighted(T.add(xs[0], xs[1])), [a, b[0]]),
        "sub": case(lambda xs: _weighted(T.sub(xs[0], xs[1])), [a, b]),
        "mul": case(lambda xs: _weighted(T.mul(xs[0], xs[1])), [a, b[:, :1]]),
        "div": case(lambda xs: _weighted(T.div(xs[0], xs[1])), [a, pos]),
        # one constant operand, whose gradient the rules skip
        "sub_const": case(lambda xs: _weighted(T.sub(b, xs[0])), [a]),
        "div_const": case(lambda xs: _weighted(
            T.add(T.div(xs[0], pos), T.div(pos, xs[1]))), [a, pos]),
        "neg": case(lambda xs: _weighted(T.neg(xs[0])), [a]),
        "exp": case(lambda xs: _weighted(T.exp(xs[0])), [a]),
        "log": case(lambda xs: _weighted(T.log(xs[0])), [pos]),
        "sqrt": case(lambda xs: _weighted(T.sqrt(xs[0])), [pos]),
        "square": case(lambda xs: _weighted(T.square(xs[0])), [a]),
        "tanh": case(lambda xs: _weighted(T.tanh(xs[0])), [a]),
        "sigmoid": case(lambda xs: _weighted(T.sigmoid(xs[0])), [a]),
        "softplus": case(lambda xs: _weighted(T.softplus(xs[0])), [a]),
        "sin": case(lambda xs: _weighted(T.sin(xs[0])), [a]),
        "cos": case(lambda xs: _weighted(T.cos(xs[0])), [a]),
        "abs": case(lambda xs: _weighted(T.absolute(xs[0])), [pos]),
        "clip": case(lambda xs: _weighted(T.clip(xs[0], -0.9, 0.9)), [frac]),
        "atan2": case(lambda xs: _weighted(T.atan2(xs[0], xs[1])), [a, pos]),
        "matmul": case(lambda xs: _weighted(T.matmul(xs[0], xs[1])), [m1, m2]),
        "sum": case(lambda xs: T.tsum(xs[0]), [a]),
        "sum_axis": case(lambda xs: _weighted(T.sum_axis(xs[0], 1)), [a]),
        "mean": case(lambda xs: T.mean(xs[0]), [a]),
        "reshape": case(lambda xs: _weighted(T.reshape(xs[0], (4, 3))), [a]),
        "concat": case(lambda xs: _weighted(T.concat([xs[0], xs[1]], 1)),
                       [a, b]),
        "slice": case(lambda xs: _weighted(T.slice_axis(xs[0], 1, 1, 3)), [a]),
        "pair_tanh_sum": pair_case(4),
        "pair_tanh_sum_k1": pair_case(1),
        "pair_tanh_sum_k2": pair_case(2),
        # (2, 3, ...) operands: matmul folds both leading axes into rows and
        # the (4,) addend's gradient sums over both; drawn after the pair
        # cases so the pair inputs stay as they were
        "matmul_lead": case(lambda xs: _weighted(T.matmul(xs[0], xs[1])),
                            [g.normal(size=(2, 3, 4)), m2]),
        "add_lead": case(lambda xs: _weighted(T.add(xs[0], xs[1])),
                         [g.normal(size=(2, 3, 4)), b[0]]),
        # the fused theory_step ops, on fixed inputs so no existing case's
        # draws move
        "theory_turn": case(lambda xs: _weighted(theory_turn(
            xs[0], xs[1], xs[2], theory[3], desk)), list(theory[:3])),
        "group_spin": case(lambda xs: _weighted(group_spin(
            xs[0], xs[1])), [theory[1], theory[2] + 0.3]),
        "gaussian_sample": case(
            lambda xs: _weighted(T.gaussian_sample(xs[0], T.add(T.softplus(xs[1]), 0.1),
                                                   Rng(rng_seed))),
            [a, b]),
        "kl": case(lambda xs: T.kl_diag_gauss(
            xs[0], T.add(T.softplus(xs[1]), 0.1),
            xs[2], T.add(T.softplus(xs[3]), 0.1)), [a, b, b * 0.5, a * 0.3]),
        "nll": case(lambda xs: T.gaussian_nll(
            xs[0], T.add(T.softplus(xs[1]), 0.1), b), [a, a * 0.2]),
        # identity forward whose backward is -scale by contract: compare the
        # recorded gradient against the negated FD gradient of the identity
        "grad_reverse": lambda: _grad_reverse_case(a),
    }
    return cases


def _grad_reverse_case(a, scale: float = 1.7) -> float:
    w = np.random.default_rng(5).normal(size=a.shape)
    tape = T.Tape()
    x = tape.watch(a)
    out = T.tsum(T.mul(T.grad_reverse(x, scale), w))
    if out.array != float((a * w).sum()):
        return np.inf  # forward must be the identity
    T.backward(out)
    an = tape.grad(x)
    expected = -scale * w  # FD of the identity composition is +w
    denom = np.maximum(np.abs(expected), 1e-8)
    return float(np.max(np.abs(an - expected) / denom))


def check_ops() -> dict[str, float]:
    """Run every op case; raises nothing, returns kind -> worst rel error."""
    results = {name: fn() for name, fn in op_cases().items()}
    uncovered = set(T.BACKWARD) - set(results)
    # composite cases above exercise kl/nll; every primitive must be hit
    if uncovered:
        raise ContractError(f"op table misses backward kinds: {sorted(uncovered)}")
    return results


def check_blocks() -> dict[str, float]:
    """FD-check each block's gradient w.r.t. parameters and inputs."""
    rng = Rng(derive_seed(3, "blockcheck"))
    g = np.random.default_rng(1)
    out = {}

    def check(block, build):
        store = ParamStore()
        block.register(store, rng)
        return _fd_check_params(store, build)

    mlp = Mlp("m", [4, 6, 2])
    x = g.normal(size=(3, 4))
    out["mlp"] = check(mlp, lambda lv: _weighted(mlp(lv, x)))

    gru = GruCell("g", 3, 5)
    xg, hg = g.normal(size=(2, 3)), g.normal(size=(2, 5))
    out["gru"] = check(gru, lambda lv: _weighted(gru(lv, xg, hg)))

    gnn = GnnBlock("n", 3, 5, 4, 2)
    nodes = g.normal(size=(2, 4, 3))
    out["gnn"] = check(gnn, lambda lv: _weighted(gnn(lv, nodes)))

    flat = FlatBlock("f", 4, 3, 10, 2)
    out["flat"] = check(flat, lambda lv: _weighted(flat(lv, nodes)))

    gh = GaussianHead("h", 4, 2)
    out["gauss"] = check(gh, lambda lv: T.add(_weighted(gh(lv, x)[0], 0),
                                              _weighted(gh(lv, x)[1], 1)))
    return out


def tiny_world():
    cfg = SimConfig(n_agents=3, n_steps=5, burn_in=3, t_i_start=3, t_i_end=4)
    ds = generate_dataset(cfg, n_train=2, n_val=1, n_test=1, seed=5)
    dims = ModelDims(hidden=6, latent=3, feat=6, gnn_hidden=6, gnn_edge=6,
                     mlp_hidden=6, g_hidden=4, g_latent=2, g_feat=4,
                     rnn_hidden=8)
    return cfg, ds, dims


def check_end_to_end(variant: ModelVariant = ModelVariant.TGV_CRN) -> float:
    """Worst FD relative error of training's episode loss over a tiny
    world's train split, probing E2E_PROBES entries per parameter drawn in
    store order."""
    cfg, ds, dims = tiny_world()
    model = CrnModel(variant, cfg, dims)
    store = model.init_store(1)
    pick = np.random.default_rng(0)
    sizes = [p.array.size for p in store.params.values()]
    probes = [pick.choice(n, size=min(E2E_PROBES, n), replace=False)
              for n in sizes]
    idx = np.arange(ds.train.n)

    def full_loss(leaves):
        return _episode_loss(model, leaves, ds.train, idx, LossWeights(),
                             Rng(derive_seed(11, "e2e")))[0]

    with grl_bypass():
        return _fd_check_params(store, full_loss, probes)


def grl_sign_report(n_draws: int = 10) -> dict[str, bool]:
    """Verify the reversal contract on the treatment path.

    With vs without the reversal node: upstream (pooled-representation
    producing) gradients flip sign exactly; classifier gradients match
    bitwise.  Checked across several random parameter draws.
    """
    g = np.random.default_rng(9)
    ok_flip, ok_same = True, True
    for draw in range(n_draws):
        mlp = Mlp("a", [4, 6, 1])
        store = ParamStore()
        mlp.register(store, Rng(derive_seed(draw, "grl")))
        w_up = g.normal(size=(3, 4))
        x = g.normal(size=(5, 3))
        target = (g.random(size=(5, 1)) > 0.5).astype(np.float64)

        def run(with_grl: bool):
            tape = T.Tape()
            leaves = store.bind(tape)
            up = tape.watch(w_up)
            feat = T.tanh(T.matmul(x, up))
            rep = T.grad_reverse(feat, 1.0) if with_grl else feat
            logits = mlp(leaves, rep)
            loss = T.mean(T.sub(T.softplus(logits), T.mul(logits, target)))
            T.backward(loss)
            return tape.grad(up).copy(), {k: v.copy()
                                          for k, v in store.gradients().items()}

        g_with, cls_with = run(True)
        g_without, cls_without = run(False)
        ok_flip &= np.array_equal(g_with, -g_without)
        ok_same &= all(np.array_equal(cls_with[k], cls_without[k])
                       for k in cls_with)
    return {"upstream_sign_flipped": ok_flip, "classifier_identical": ok_same}


def run_gradcheck(variants=(ModelVariant.TGV_CRN,)) -> dict:
    """Full suite for the CLI: op table, blocks, end-to-end, reversal."""
    ops = check_ops()
    blocks = check_blocks()
    e2e = {v.value: check_end_to_end(v) for v in variants}
    grl = grl_sign_report()
    passed = (max(ops.values()) < OP_TOL and max(blocks.values()) < OP_TOL
              and max(e2e.values()) < E2E_TOL and all(grl.values()))
    return {"ops": ops, "blocks": blocks, "end_to_end": e2e,
            "grl": grl, "passed": passed,
            "tolerances": {"ops": OP_TOL, "end_to_end": E2E_TOL}}
