import zipfile

import numpy as np
import pytest

from cfswarm.boids import SimConfig, simulate
from cfswarm import artifact, data as data_module
from cfswarm.data import (NEVER_TREATED, generate_dataset, ground_truth_ite,
                          load_dataset, save_dataset, sim_config_from_echo)
from cfswarm.errors import ConfigError, ContractError
from cfswarm.rng import Rng, derive_seed


def _quantize(arr):
    """Round trip through float32, as the dataset stores every float."""
    return arr.astype("<f4").astype(np.float64)


def small_cfg():
    return SimConfig(n_agents=4, n_steps=8, burn_in=5, t_i_start=5,
                     t_i_end=7)


@pytest.fixture(scope="module")
def ds():
    return generate_dataset(small_cfg(), n_train=12, n_val=3, n_test=4,
                            seed=42)


def test_split_sizes(ds):
    assert (ds.train.n, ds.val.n, ds.test.n) == (12, 3, 4)
    t, k = small_cfg().n_steps, small_cfg().n_agents
    assert ds.train.x_local.shape == (12, t, k, 5)
    assert ds.train.x_global.shape == (12, t, 1)
    assert ds.train.treatment.shape == (12, t)
    assert ds.train.outcome.shape == (12, t)
    assert ds.train.intervention.shape == (12,)


def test_counterfactual_arm_count(ds):
    cfg = small_cfg()
    arms = cfg.intervention_steps + [NEVER_TREATED]
    assert ds.cf.arms == arms
    assert ds.cf.x_local.shape[:2] == (4, len(arms))
    # n_test = 1 gives one rollout per arm
    one = generate_dataset(cfg, 1, 1, 1, seed=0)
    assert one.cf.x_local.shape[:2] == (1, len(arms))


def test_default_window_has_six_arms():
    cfg = SimConfig(n_agents=4)
    assert len(cfg.intervention_steps) == 5
    ds6 = generate_dataset(cfg, 1, 1, 1, seed=1)
    assert len(ds6.cf.arms) == 6


def test_counterfactual_prefix_bitwise(ds):
    cfg = small_cfg()
    first = cfg.t_i_start
    base = ds.cf.x_local[:, :1, :first]
    assert all(
        ds.cf.x_local[:, a:a + 1, :first].tobytes() == base.tobytes()
        for a in range(len(ds.cf.arms)))
    assert ds.cf.x_local[:, 0, first:].tobytes() != \
        ds.cf.x_local[:, -1, first:].tobytes()


def test_treatment_flags_per_arm(ds):
    cfg = small_cfg()
    t = np.arange(cfg.n_steps)
    for a, arm in enumerate(ds.cf.arms):
        want = np.zeros(cfg.n_steps, dtype=np.uint8) if arm == NEVER_TREATED \
            else (t >= arm).astype(np.uint8)
        assert np.array_equal(ds.cf.treatment[0, a], want)


def test_factual_test_matches_its_arm(ds):
    # the factual test episode is bitwise one of the counterfactual arms
    for i in range(ds.test.n):
        t_prime = int(ds.test.intervention[i])
        arm = ds.cf.arms.index(t_prime if t_prime >= 0 else NEVER_TREATED)
        assert ds.test.x_local[i].tobytes() == ds.cf.x_local[i, arm].tobytes()
        assert ds.test.outcome[i].tobytes() == ds.cf.outcome[i, arm].tobytes()


def test_dataset_equals_per_episode_simulate(monkeypatch):
    # 37 training episodes: two full chunks plus a remainder
    monkeypatch.setattr(data_module, "CHUNK", 16)
    cfg = small_cfg()
    assert 37 % data_module.CHUNK != 0
    data = generate_dataset(cfg, n_train=37, n_val=3, n_test=5, seed=11)
    fields = ("x_local", "x_global", "treatment", "outcome")

    def check(part, index, sample):
        for name in fields:
            want = getattr(sample, name)
            if name != "treatment":
                want = _quantize(want)
            assert np.array_equal(getattr(part, name)[index], want), name

    for name in ("train", "val", "test"):
        split = getattr(data, name)
        for i in range(split.n):
            start = int(split.intervention[i])
            check(split, i, simulate(
                cfg, derive_seed(11, f"episode/{name}", i),
                None if start == NEVER_TREATED else start))
    never = data.cf.arms.index(NEVER_TREATED)
    for i in range(data.cf.n):
        seed = derive_seed(11, "episode/test", i)
        for a, arm in enumerate(data.cf.arms):
            if arm == NEVER_TREATED:
                check(data.cf, (i, a), simulate(cfg, seed, None))
                continue
            check(data.cf, (i, a), simulate(cfg, seed, arm))
            # every arm is the untreated run on the steps before its start
            for name in fields:
                got = getattr(data.cf, name)
                assert got[i, a, :arm].tobytes() == \
                    got[i, never, :arm].tobytes(), name


def _dataset_bytes(data):
    return [getattr(getattr(data, part), name).tobytes()
            for part in ("train", "val", "test", "cf")
            for name in ("x_local", "x_global", "treatment", "outcome")] + \
        [getattr(data, part).intervention.tobytes()
         for part in ("train", "val", "test")]


def test_dataset_does_not_depend_on_chunk_size(monkeypatch):
    cfg = small_cfg()
    runs = []
    for chunk in (1, 5, 128):
        monkeypatch.setattr(data_module, "CHUNK", chunk)
        runs.append(_dataset_bytes(generate_dataset(cfg, 11, 3, 6, seed=5)))
    assert runs[0] == runs[1] == runs[2]


def test_simulation_calls_are_bounded_by_rows(monkeypatch):
    # a call steps at most CHUNK episodes and 2 CHUNK rows, forks included
    calls = []
    honest = data_module.simulate_batch

    def recorded(cfg, seeds, starts, forks=()):
        calls.append((len(seeds), len(seeds) * (1 + len(forks))))
        return honest(cfg, seeds, starts, forks)

    monkeypatch.setattr(data_module, "simulate_batch", recorded)
    chunk = data_module.CHUNK
    generate_dataset(SimConfig(), 1, 1, 400, seed=3)
    # the 400 test episodes run six rows each: 42 episodes (252 rows) a call
    cf_calls = calls[:-2]
    assert [n for n, _ in cf_calls] == [42] * 9 + [22]
    assert all(rows <= 2 * chunk and n <= chunk for n, rows in calls)
    assert calls[-2:] == [(1, 1), (1, 1)]

    # factual splits keep CHUNK episodes a call; the desk gen's 32 test
    # episodes (192 rows) stay one call
    calls.clear()
    generate_dataset(SimConfig(), 300, 1, 32, seed=3)
    assert calls == [(32, 192), (128, 128), (128, 128), (44, 44), (1, 1)]


def per_episode_assign(cfg, seed, name, n, untreated_fraction):
    """The assignment drawn one episode at a time: two uniforms each."""
    steps = cfg.intervention_steps
    assign = Rng(derive_seed(seed, f"assign/{name}"))
    out = np.empty(n, dtype=np.int32)
    for i in range(n):
        u = assign.uniforms(2)
        out[i] = NEVER_TREATED if u[0] < untreated_fraction else \
            steps[min(int(u[1] * len(steps)), len(steps) - 1)]
    return out


@pytest.mark.parametrize("n", [1, 2, 7, 64, 257])
@pytest.mark.parametrize("fraction", [0.0, 1.0 / 3.0, 0.5, 0.999])
def test_vectorized_assignment_equals_per_episode_draws(n, fraction,
                                                        monkeypatch):
    monkeypatch.setattr(data_module, "UNTREATED_FRACTION", fraction)
    for cfg in (small_cfg(), SimConfig()):
        for seed, name in ((0, "train"), (1009, "test")):
            got = data_module._assign(cfg, seed, name, n)
            want = per_episode_assign(cfg, seed, name, n, fraction)
            assert got.dtype == want.dtype and got.shape == (n,)
            assert got.tobytes() == want.tobytes()


def test_ground_truth_ite_recompute(ds):
    tau, best = ground_truth_ite(ds.cf)
    n_arms = len(ds.cf.arms) - 1
    assert tau.shape == (4, n_arms)
    final = ds.cf.outcome[:, :, -1]
    want = final[:, :-1] - final[:, -1:]
    assert np.array_equal(tau, want)
    for i in range(4):
        assert best[i] == ds.cf.arms[int(np.argmax(final[i, :-1]))]


def test_ground_truth_identical_arms_zero():
    tau, _ = ground_truth_ite(type("CF", (), {
        "arms": [5, NEVER_TREATED],
        "outcome": np.full((3, 2, 8), 0.25),
    })())
    assert np.array_equal(tau, np.zeros((3, 1)))


def test_untreated_fraction_respected(monkeypatch):
    cfg = small_cfg()
    assert data_module.UNTREATED_FRACTION == 1.0 / 3.0
    third = generate_dataset(cfg, 200, 1, 1, seed=7)
    frac = np.mean(third.train.intervention == NEVER_TREATED)
    assert 0.23 < frac < 0.43
    monkeypatch.setattr(data_module, "UNTREATED_FRACTION", 0.0)
    ds0 = generate_dataset(cfg, 30, 1, 1, seed=7)
    assert np.all(ds0.train.intervention >= 0)


def test_generation_is_deterministic_and_split_independent():
    cfg = small_cfg()
    a = generate_dataset(cfg, 5, 2, 2, seed=9)
    b = generate_dataset(cfg, 5, 2, 2, seed=9)
    assert a.train.x_local.tobytes() == b.train.x_local.tobytes()
    assert a.cf.outcome.tobytes() == b.cf.outcome.tobytes()
    # test episodes do not depend on how many training episodes exist
    c = generate_dataset(cfg, 11, 2, 2, seed=9)
    assert a.test.x_local.tobytes() == c.test.x_local.tobytes()


def test_empty_split_rejected():
    with pytest.raises(ConfigError):
        generate_dataset(small_cfg(), 0, 1, 1, seed=0)


def test_float32_quantization_applied(ds):
    # stored covariates are exactly representable in float32
    assert ds.train.x_local.tobytes() == \
        ds.train.x_local.astype("<f4").astype(np.float64).tobytes()


STORED = ["train_x_local", "train_x_global", "train_outcome",
          "train_intervention", "val_x_local", "val_x_global", "val_outcome",
          "val_intervention", "test_intervention", "cf_x_local",
          "cf_x_global", "cf_outcome"]


def test_save_load_round_trip(tmp_path, ds):
    out = tmp_path / "ds"
    save_dataset(ds, str(out))
    # each fact once: treatments, arms and the factual test split are
    # rebuilt from the starts, the [sim] window and the arms
    names = zipfile.ZipFile(out / "dataset.npz").namelist()
    assert sorted(names) == sorted(f"{n}.npy"
                                   for n in STORED + ["__meta__"])
    _, meta = artifact.load(out / "dataset.npz", ())
    assert sorted(meta) == ["format", "seed", "sim"]
    loaded = load_dataset(str(out))
    assert loaded.cfg == ds.cfg
    assert loaded.seed == ds.seed
    assert loaded.cf.arms == ds.cf.arms
    assert all(type(arm) is int for arm in loaded.cf.arms)
    for part in ("train", "val", "test", "cf"):
        a, b = getattr(ds, part), getattr(loaded, part)
        for name, want in vars(a).items():
            got = getattr(b, name)
            if not isinstance(want, np.ndarray):
                continue
            assert got.dtype == want.dtype, (part, name)
            assert got.shape == want.shape, (part, name)
            assert got.flags.c_contiguous, (part, name)
            assert got.tobytes() == want.tobytes(), (part, name)
    assert loaded.cf.treatment.dtype == np.uint8


def test_older_dataset_format_refused_by_name(tmp_path, ds):
    save_dataset(ds, str(tmp_path))
    arrays, meta = artifact.load(tmp_path / "dataset.npz", ())
    artifact.save(tmp_path / "dataset.npz", arrays,
                  dict(meta, format="trajset-v2"))
    with pytest.raises(ContractError, match="'trajset-v2', expected "
                       "'trajset-v3'"):
        load_dataset(str(tmp_path))


def test_load_missing_manifest(tmp_path):
    with pytest.raises(ContractError):
        load_dataset(str(tmp_path / "missing"))


def test_sim_config_echo_round_trip():
    cfg = small_cfg()
    assert sim_config_from_echo(cfg.echo()) == cfg
    partial = cfg.echo()
    del partial["dt"]
    with pytest.raises(ConfigError):
        sim_config_from_echo(partial)
    # parsed by the [sim] literal rules: never a bare ValueError,
    # TypeError or SyntaxError
    for bad in ("oops", "'five'", "[1,", "True", "2.5"):
        with pytest.raises(ConfigError, match="n_agents"):
            sim_config_from_echo({**cfg.echo(), "n_agents": bad})


def test_full_scale_sizes_accepted():
    # shape contract only; full-scale generation (20000/400/400 episodes)
    # takes ~35 s and ~285 MiB on a 2-vCPU box, too long for a unit test
    cfg = SimConfig()
    ds = generate_dataset(cfg, 1, 1, 1, seed=0)
    assert ds.train.x_local.shape == (1, cfg.n_steps, cfg.n_agents, 5)
