import numpy as np
import pytest

import cfswarm.tensor as T
from cfswarm import artifact
from cfswarm.boids import SimConfig
from cfswarm.errors import ContractError, DimensionError, DomainError
from cfswarm.gradcheck import check_ops, fd_check, patched_backward
from cfswarm.model import CrnModel, ModelVariant
from cfswarm.optim import (ParamStore, adam_step_grads, load_checkpoint,
                           save_checkpoint)
from cfswarm.rng import Rng


def leaf(tape, arr):
    return tape.watch(np.asarray(arr, dtype=np.float64))


# ---------------------------------------------------------------------------
# forward values


def test_matmul_identity_and_projector():
    tape = T.Tape()
    m = leaf(tape, [[1.0, 2.0], [3.0, 4.0]])
    eye = leaf(tape, np.eye(2))
    assert np.array_equal(T.matmul(eye, m).array, [[1.0, 2.0], [3.0, 4.0]])
    proj = leaf(tape, [[1.0, 0.0], [0.0, 0.0]])
    b = leaf(tape, [[5.0, 6.0], [7.0, 8.0]])
    assert np.array_equal(T.matmul(proj, b).array, [[5.0, 6.0], [0.0, 0.0]])


def test_matmul_matches_triple_loop():
    rng = Rng(11)
    a = rng.uniform_array((3, 4), -1.0, 1.0)
    b = rng.uniform_array((4, 2), -1.0, 1.0)
    tape = T.Tape()
    got = T.matmul(leaf(tape, a), leaf(tape, b)).array
    want = np.zeros((3, 2))
    for i in range(3):
        for j in range(2):
            for k in range(4):
                want[i, j] += a[i, k] * b[k, j]
    assert np.max(np.abs(got - want)) < 1e-12


def test_matmul_shape_errors():
    tape = T.Tape()
    with pytest.raises(DimensionError):
        T.matmul(leaf(tape, np.ones((2, 3))), leaf(tape, np.ones((2, 3))))
    with pytest.raises(DimensionError):
        T.matmul(leaf(tape, np.ones(3)), leaf(tape, np.ones((3, 2))))


def test_matmul_folds_leading_axes_into_one_product():
    rng = Rng(12)
    a = rng.uniform_array((2, 3, 4), -1.0, 1.0)
    b = rng.uniform_array((4, 5), -1.0, 1.0)
    got = T.matmul(leaf(T.Tape(), a), b).array
    assert got.shape == (2, 3, 5)
    assert np.array_equal(got, (a.reshape(6, 4) @ b).reshape(2, 3, 5))


def _two_branch_sigmoid(x):
    # the boolean-mask form the where form replaced, kept as its reference
    flat = np.asarray(x, dtype=np.float64).ravel()
    out = np.empty_like(flat)
    pos = flat >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-flat[pos]))
    ex = np.exp(flat[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out.reshape(np.shape(x))


def test_stable_sigmoid_bitwise_equals_two_branch_form():
    edges = np.array([0.0, -0.0, np.inf, -np.inf, 745.0, -745.0, 800.0,
                      -800.0, 1e-300, -1e-300, np.nan])
    normals = np.random.default_rng(0).normal(size=3000)
    x = np.concatenate([edges, normals, normals * 10.0, normals * 300.0])
    got, want = T._stable_sigmoid(x), _two_branch_sigmoid(x)
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got[~nan].view(np.int64), want[~nan].view(np.int64))


def _where_sigmoid(x):
    # the where form the in-place form replaced, kept as its reference
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def test_stable_sigmoid_bitwise_equals_where_form():
    edges = np.array([0.0, -0.0, np.inf, -np.inf, 745.0, -745.0, 700.0,
                      -700.0, 5e-324, -5e-324, np.nan, -np.nan])
    normals = np.random.default_rng(1).normal(size=3000)
    x = np.concatenate([edges, normals, normals * 10.0, normals * 300.0])
    for arr in (x, x.reshape(-1, 4)[:, ::2], x.reshape(3, -1, 2)):
        got, want = T._stable_sigmoid(arr), _where_sigmoid(arr)
        assert got.shape == want.shape
        nan = np.isnan(want)
        assert np.array_equal(np.isnan(got), nan)
        assert np.array_equal(got[~nan].view(np.int64),
                              want[~nan].view(np.int64))
    # the input is not written to
    assert np.isnan(x[10]) and x[2] == np.inf and x[1] == 0.0


def test_unary_values():
    tape = T.Tape()
    x = leaf(tape, [0.0])
    assert T.sigmoid(x).array[0] == 0.5
    assert T.softplus(x).array[0] == pytest.approx(np.log(2.0), abs=1e-15)
    assert T.tanh(x).array[0] == 0.0
    assert T.square(leaf(tape, [2.0])).array[0] == 4.0


def test_log_domain_error():
    tape = T.Tape()
    with pytest.raises(DomainError):
        T.log(leaf(tape, [-1.0]))
    with pytest.raises(DomainError):
        T.log(leaf(tape, [0.0]))


def test_tanh_gradient_matches_finite_differences():
    rng = Rng(4)
    x = rng.uniform_array((10,), -2.0, 2.0)

    def build(lv):
        return T.tsum(T.tanh(lv[0]))

    assert fd_check(build, [x]) < 1e-6


def test_fd_check_probes_only_the_listed_entries():
    # a neg rule that drops entry 1's gradient is caught exactly when
    # entry 1 of the first input is probed
    x, y = np.array([0.3, -0.7, 1.1]), np.array([0.5, 2.0])
    calls = []

    def build(lv):
        calls.append(None)
        return T.add(T.tsum(T.neg(lv[0])), T.tsum(T.square(lv[1])))

    with patched_backward("neg", lambda g, saved: (-g * [1.0, 0.0, 1.0],)):
        assert fd_check(build, [x, y]) > 0.5
        assert fd_check(build, [x, y], [[1], []]) > 0.5
        calls.clear()
        assert fd_check(build, [x, y], [[0, 2], [1]]) < 1e-8
        assert len(calls) == 1 + 2 * 3


# ---------------------------------------------------------------------------
# stochastic nodes


def test_gaussian_sample_rejects_zero_sigma():
    tape = T.Tape()
    mu = leaf(tape, [1.0, -2.0, 3.0])
    sigma = leaf(tape, [0.0, 0.0, 0.0])
    with pytest.raises(DomainError):
        T.gaussian_sample(mu, sigma, Rng(0))


def test_gaussian_sample_deterministic_under_seed():
    tape = T.Tape()
    mu = leaf(tape, np.zeros(8))
    sigma = leaf(tape, np.ones(8))
    a = T.gaussian_sample(mu, sigma, Rng(5)).array
    b = T.gaussian_sample(mu, sigma, Rng(5)).array
    assert np.array_equal(a, b)


def test_gaussian_sample_moments():
    tape = T.Tape()
    n = 100_000
    mu = leaf(tape, np.full(n, 1.0))
    sigma = leaf(tape, np.full(n, 2.0))
    s = T.gaussian_sample(mu, sigma, Rng(123)).array
    assert abs(s.mean() - 1.0) < 0.05
    assert abs(s.std() - 2.0) < 0.05


def test_kl_identical_distributions_zero():
    tape = T.Tape()
    mu = leaf(tape, [0.3, -1.2])
    sigma = leaf(tape, [0.7, 2.0])
    kl = T.kl_diag_gauss(mu, sigma, leaf(tape, [0.3, -1.2]),
                         leaf(tape, [0.7, 2.0]))
    assert abs(kl.item()) < 1e-12


def test_kl_analytic_value():
    # N(0,1) against N(0,2): log 2 + 1/8 - 1/2 per entry
    tape = T.Tape()
    kl = T.kl_diag_gauss(leaf(tape, [0.0]), leaf(tape, [1.0]),
                         leaf(tape, [0.0]), leaf(tape, [2.0]))
    assert kl.item() == pytest.approx(0.3181471805599453, abs=1e-15)


def test_kl_nonnegative_and_matches_monte_carlo():
    rng = Rng(9)
    mq = rng.uniform_array((4,), -1.0, 1.0)
    sq = rng.uniform_array((4,), 0.5, 1.5)
    mp = rng.uniform_array((4,), -1.0, 1.0)
    sp = rng.uniform_array((4,), 0.5, 1.5)
    tape = T.Tape()
    kl = T.kl_diag_gauss(leaf(tape, mq), leaf(tape, sq),
                         leaf(tape, mp), leaf(tape, sp)).item()
    assert kl >= 0.0
    z = mq + sq * Rng(77).normal_array((200_000, 4))
    logq = -0.5 * ((z - mq) / sq) ** 2 - np.log(sq)
    logp = -0.5 * ((z - mp) / sp) ** 2 - np.log(sp)
    mc = (logq - logp).sum(axis=1).mean()
    assert abs(kl - mc) < 0.02


def test_kl_sigma_domain():
    tape = T.Tape()
    with pytest.raises(DomainError):
        T.kl_diag_gauss(leaf(tape, [0.0]), leaf(tape, [0.0]),
                        leaf(tape, [0.0]), leaf(tape, [1.0]))


def test_gaussian_nll_analytic():
    # standard normal at its mean: 0.5 log 2 pi per entry
    tape = T.Tape()
    nll = T.gaussian_nll(leaf(tape, [0.0, 0.0]), leaf(tape, [1.0, 1.0]),
                         np.zeros(2))
    assert nll.item() == pytest.approx(np.log(2.0 * np.pi), abs=1e-15)


# ---------------------------------------------------------------------------
# gradient reversal


def test_grad_reverse_forward_bitwise_identity():
    tape = T.Tape()
    x = leaf(tape, [3.2, -0.7, 1e-9])
    out = T.grad_reverse(x, 1.0)
    assert np.array_equal(out.array, x.array)
    assert out.array.tobytes() == x.array.tobytes()


@pytest.mark.parametrize("upstream, scale, want",
                         [(1.0, 1.0, -1.0), (2.0, 0.1, -0.2)])
def test_grad_reverse_backward_scaling(upstream, scale, want):
    tape = T.Tape()
    x = leaf(tape, [1.5])
    y = T.mul(T.grad_reverse(x, scale), upstream)
    T.backward(T.tsum(y))
    assert tape.grad(x)[0] == pytest.approx(want, abs=1e-15)


# ---------------------------------------------------------------------------
# backward pass


def test_backward_sum_gives_ones():
    tape = T.Tape()
    x = leaf(tape, [1.0, 2.0, 3.0])
    T.backward(T.tsum(x))
    assert np.array_equal(tape.grad(x), [1.0, 1.0, 1.0])


def test_backward_sum_of_squares():
    tape = T.Tape()
    x = leaf(tape, [1.0, 2.0])
    T.backward(T.tsum(T.square(x)))
    assert np.array_equal(tape.grad(x), [2.0, 4.0])


def test_backward_requires_scalar():
    tape = T.Tape()
    x = leaf(tape, [1.0, 2.0])
    with pytest.raises(ContractError):
        T.backward(T.square(x))


def test_unused_leaf_gets_zero_gradient():
    tape = T.Tape()
    x = leaf(tape, [1.0])
    unused = leaf(tape, [5.0, 6.0])
    T.backward(T.tsum(T.square(x)))
    assert np.array_equal(tape.grad(unused), [0.0, 0.0])


def test_broadcast_gradients_unbroadcast():
    def build(lv):
        return T.tsum(T.mul(T.add(lv[0], lv[1]), lv[2]))

    rng = Rng(2)
    a = rng.uniform_array((3, 4), -1.0, 1.0)
    b = rng.uniform_array((4,), -1.0, 1.0)     # broadcast over rows
    c = rng.uniform_array((3, 4), -1.0, 1.0)
    assert fd_check(build, [a, b, c]) < 1e-8


@pytest.mark.parametrize("op", [T.add, T.sub, T.mul, T.div])
def test_constant_operand_gets_no_gradient_and_the_other_is_unchanged(op):
    g = np.random.default_rng(3)
    a, c = g.normal(size=(3, 4)), np.abs(g.normal(size=(4,))) + 0.5
    up = g.normal(size=(3, 4))
    rule = T.BACKWARD[op.__name__]

    def contributions(x, k, live):
        out = op(*((k, x) if live == 1 else (x, k)))
        return rule(up, out.tape.nodes[out.node_id].saved)

    for live in (0, 1):
        both = T.Tape()
        want = contributions(both.watch(a), both.watch(c), live)[live]
        got = contributions(T.Tape().watch(a), c, live)
        assert got[1 - live] is None
        assert np.array_equal(got[live], want)


@pytest.mark.parametrize("live", [0, 1])
def test_matmul_constant_operand_gets_no_gradient(live):
    g = np.random.default_rng(4)
    a, b = g.normal(size=(2, 3, 4)), g.normal(size=(4, 5))
    up = g.normal(size=(2, 3, 5))
    rule = T.BACKWARD["matmul"]

    def contributions(x, y):
        out = T.matmul(x, y)
        return rule(up, out.tape.nodes[out.node_id].saved)

    both = T.Tape()
    want = contributions(both.watch(a), both.watch(b))
    one = T.Tape()
    got = contributions(*((one.watch(a), b) if live == 0
                          else (a, one.watch(b))))
    assert got[1 - live] is None
    assert np.array_equal(got[live], want[live])


@pytest.mark.parametrize("mul_first", [True, False])
def test_repeated_operands_accumulate_into_fresh_arrays(mul_first):
    # add(x, x) hands one upstream array to both of its operands, and so
    # does the add joining the two branches; mul(x, x) saves x itself.  x
    # gets four contributions, and none may be summed into an array that
    # another node's gradient or a saved forward value still uses.
    xv = np.array([0.5, -1.5, 2.0])
    w = np.array([1.0, 2.0, -3.0])
    tape = T.Tape()
    x = tape.watch(xv.copy())
    if mul_first:
        prod = T.mul(x, x)
        twice = T.add(x, x)
    else:
        twice = T.add(x, x)
        prod = T.mul(x, x)
    T.backward(T.tsum(T.mul(T.add(twice, prod), w)))
    assert np.array_equal(tape.grad(x), 2.0 * w + 2.0 * xv * w)
    assert np.array_equal(x.array, xv)
    saved = tape.nodes[prod.node_id].saved
    assert np.array_equal(saved[0], xv) and np.array_equal(saved[1], xv)


def test_every_registered_op_passes_finite_differences():
    results = check_ops()
    worst = max(results.values())
    assert worst < 1e-4, results


def saved_tanh_pair_rule(g, pk, pj, bias):
    """The forward value and the three gradients of the rule that saved the
    (B, K, K, m) tanh values in forward: the reference the recomputing
    backward must match bit for bit."""
    hidden = pk[:, :, None, :] + (pj + bias)[:, None, :, :]
    np.tanh(hidden, out=hidden)
    k = pk.shape[1]
    diag = np.arange(k)
    hidden[:, diag, diag, :] = 0.0
    out = np.einsum("bkjm->bkm", hidden)
    d = hidden * hidden
    np.subtract(1.0, d, out=d)
    d *= g[:, :, None, :]
    d[:, diag, diag, :] = 0.0
    g_k = np.einsum("bkjm->bkm", d)
    return out, (g_k, d.sum(axis=1), g_k.sum(axis=(0, 1)))


@pytest.mark.parametrize("k", [1, 2, 6, 20])
@pytest.mark.parametrize("b", [1, 3])
def test_pair_tanh_sum_bitwise_equals_the_saved_tensor_rule(b, k):
    rng = Rng(100 * b + k)
    pk, pj = (rng.uniform_array((b, k, 5), -2.0, 2.0) for _ in range(2))
    bias = rng.uniform_array((5,), -1.0, 1.0)
    g = rng.uniform_array((b, k, 5), -1.0, 1.0)
    tape = T.Tape()
    leaves = [leaf(tape, a) for a in (pk, pj, bias)]
    # the mul passes g to the pair node exactly (1.0 * g)
    out = T.pair_tanh_sum(*leaves)
    T.backward(T.tsum(T.mul(out, g)))
    want_out, want = saved_tanh_pair_rule(g, pk, pj, bias)
    assert np.array_equal(out.array, want_out)
    for got, ref in zip((tape.grad(x) for x in leaves), want):
        assert got.shape == ref.shape
        assert np.array_equal(got, ref)


def test_composite_gru_mlp_gradient():
    # composite recurrent + dense chain against finite differences
    rng = Rng(31)
    w1 = rng.uniform_array((3, 4), -0.5, 0.5)
    wh = rng.uniform_array((4, 4), -0.5, 0.5)
    w2 = rng.uniform_array((4, 1), -0.5, 0.5)
    x = rng.uniform_array((2, 3), -1.0, 1.0)

    def build(lv):
        h = T.tanh(T.matmul(lv[3], lv[0]))
        h = T.sigmoid(T.matmul(h, lv[1]))
        return T.tsum(T.matmul(h, lv[2]))

    assert fd_check(build, [w1, wh, w2, x]) < 1e-4


def test_no_grad_tape_runs_forward_but_refuses_backward():
    tape = T.Tape(record=False)
    x = leaf(tape, [1.0, 2.0])
    y = T.tsum(T.square(x))
    assert y.item() == 5.0
    assert tape.nodes == []
    with pytest.raises(ContractError):
        T.backward(y)


def test_strict_finite_rejects_overflow():
    T.set_strict_finite(True)
    try:
        tape = T.Tape()
        x = leaf(tape, [1e308])
        with pytest.raises(DomainError), np.errstate(over="ignore"):
            T.exp(x)
    finally:
        T.set_strict_finite(False)
    # off by default: the same op returns inf without raising
    tape = T.Tape()
    with np.errstate(over="ignore"):
        assert np.isinf(T.exp(leaf(tape, [1e308])).array[0])


# ---------------------------------------------------------------------------
# Adam and checkpoints


def make_store():
    store = ParamStore()
    store.add("w", np.array([1.0, -2.0, 0.5]))
    store.add("b", np.array([[0.25]]))
    return store


def test_adam_first_step_magnitude():
    store = make_store()
    grads = {n: np.ones_like(p.array) for n, p in store.params.items()}
    before = {n: p.array.copy() for n, p in store.params.items()}
    adam_step_grads(store, grads, lr=0.01)
    for n in store.params:
        delta = store.params[n].array - before[n]
        assert np.allclose(delta, -0.01, atol=1e-9)
    assert store.step_count == 1


def test_adam_zero_gradient_fixed_point():
    store = make_store()
    before = {n: p.array.copy() for n, p in store.params.items()}
    adam_step_grads(store, {n: np.zeros_like(p.array)
                            for n, p in store.params.items()}, lr=0.1)
    for n in store.params:
        assert np.array_equal(store.params[n].array, before[n])
    assert store.step_count == 1


def test_adam_matches_scalar_reference_trace():
    store = ParamStore()
    store.add("p", np.array([2.0]))
    g = np.array([0.3])
    lr, b1, b2, eps = 0.05, 0.9, 0.999, 1e-8

    # hand-rolled scalar Adam
    p, m, v = 2.0, 0.0, 0.0
    for t in (1, 2):
        m = b1 * m + (1 - b1) * 0.3
        v = b2 * v + (1 - b2) * 0.3 ** 2
        p -= lr * (m / (1 - b1 ** t)) / (np.sqrt(v / (1 - b2 ** t)) + eps)
        adam_step_grads(store, {"p": g}, lr)
        assert abs(store.params["p"].array[0] - p) < 1e-12


def test_adam_missing_gradient_rejected():
    store = make_store()
    with pytest.raises(ContractError):
        adam_step_grads(store, {"w": np.zeros(3)}, lr=0.1)


def test_adam_step_uses_bound_tape():
    store = ParamStore()
    store.add("w", np.array([1.0, 2.0]))
    tape = T.Tape()
    leaves = store.bind(tape)
    T.backward(T.tsum(T.square(leaves["w"])))
    adam_step_grads(store, store.gradients(), lr=0.001)
    assert store.step_count == 1
    assert not np.array_equal(store.params["w"].array, [1.0, 2.0])


def test_checkpoint_round_trip_bit_exact(tmp_path):
    store = make_store()
    adam_step_grads(store, {n: np.full_like(p.array, 0.2)
                            for n, p in store.params.items()}, lr=0.01)
    store.meta["variant"] = "tgv_crn"
    stem = str(tmp_path / "ckpt")
    save_checkpoint(store, stem)
    loaded = load_checkpoint(stem)
    assert loaded.step_count == store.step_count
    assert loaded.meta == store.meta
    for n in store.params:
        assert store.params[n].array.tobytes() == loaded.params[n].array.tobytes()
        assert store.adam_m[n].tobytes() == loaded.adam_m[n].tobytes()
        assert store.adam_v[n].tobytes() == loaded.adam_v[n].tobytes()


def test_checkpoint_missing_files_rejected(tmp_path):
    with pytest.raises(ContractError):
        load_checkpoint(str(tmp_path / "nothing"))


def stepped_store(variant):
    """A variant's initial store after one Adam step, so both moments and
    the step count are nonzero."""
    model = CrnModel(variant, SimConfig(n_agents=3, n_steps=6, burn_in=3,
                                        t_i_start=3, t_i_end=4))
    store = model.init_store(7)
    rng = np.random.default_rng(8)
    adam_step_grads(store, {n: rng.normal(size=p.shape)
                            for n, p in store.params.items()}, lr=0.01)
    store.meta["note"] = "round trip"
    return store


@pytest.mark.parametrize("variant", list(ModelVariant))
def test_checkpoint_round_trip_every_variant(variant, tmp_path):
    store = stepped_store(variant)
    stem = str(tmp_path / "ckpt")
    save_checkpoint(store, stem)
    loaded = load_checkpoint(stem)
    assert loaded.step_count == store.step_count == 1
    assert loaded.meta == store.meta
    assert list(loaded.params) == list(store.params)
    for n in store.params:
        for got, want in ((loaded.params[n].array, store.params[n].array),
                          (loaded.adam_m[n], store.adam_m[n]),
                          (loaded.adam_v[n], store.adam_v[n])):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes(), n
    # four zip entries: the three packed arrays and the metadata
    arrays, meta = artifact.load(stem + ".npz", ())
    assert sorted(arrays) == ["adam_m", "adam_v", "param"]
    assert meta["format"] == "paramstore-v3"


def test_checkpoint_v2_is_contract_error_naming_its_format(tmp_path):
    store = make_store()
    arrays = {}
    for name, param in store.params.items():
        arrays[f"param/{name}"] = param.array
        arrays[f"adam_m/{name}"] = store.adam_m[name]
        arrays[f"adam_v/{name}"] = store.adam_v[name]
    artifact.save(str(tmp_path / "old.npz"), arrays, {
        "format": "paramstore-v2", "step_count": 0,
        "params": list(store.params), "meta": {}})
    with pytest.raises(ContractError, match="paramstore-v2"):
        load_checkpoint(str(tmp_path / "old"))


def test_checkpoint_packing_mismatch_is_contract_error(tmp_path):
    stem = str(tmp_path / "ckpt")
    save_checkpoint(make_store(), stem)
    arrays, meta = artifact.load(stem + ".npz", ())
    cases = []
    for key in ("param", "adam_m", "adam_v"):
        short = dict(arrays, **{key: arrays[key][:-1]})
        cases.append((short, meta))
    cases.append((arrays, dict(meta, shapes=[[3], [2, 1]])))
    cases.append((arrays, dict(meta, shapes=[[3]])))
    cases.append((arrays, dict(meta, shapes=[[3], "x"])))
    # sizes that add up, but from negative dimensions
    cases.append((arrays, dict(meta, shapes=[[3], [-1, -1]])))
    for i, (arrs, m) in enumerate(cases):
        bad = str(tmp_path / f"bad{i}")
        artifact.save(bad + ".npz", arrs, m)
        with pytest.raises(ContractError):
            load_checkpoint(bad)
    artifact.save(str(tmp_path / "dup.npz"), arrays,
                  dict(meta, params=["w", "w"]))
    with pytest.raises(ContractError, match="repeats"):
        load_checkpoint(str(tmp_path / "dup"))
