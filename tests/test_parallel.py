"""fork_map: the process-count rule, bitwise-equal outputs at any process
count, errors carried back from children, and no child left behind."""

import dataclasses
import os
import time
from pathlib import Path

import numpy as np
import pytest

from cfswarm import parallel, training
from cfswarm.cli import main
from cfswarm.config import load_config
from cfswarm.data import generate_dataset
from cfswarm.errors import ContractError, NumericError
from cfswarm.model import CrnModel, ModelVariant, predict_ite
from cfswarm.parallel import fork_map, process_count
from cfswarm.training import train, validation_loss

from test_config_cli import TOY_INI

TINY = Path(__file__).resolve().parents[1] / "configs" / "tiny.ini"


def use_processes(monkeypatch, count):
    monkeypatch.setattr(parallel, "process_count",
                        lambda n_items: max(1, min(n_items, count)))


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def open_fds():
    return sorted(os.listdir("/proc/self/fd")) \
        if os.path.isdir("/proc/self/fd") else None


# the process-count rule ------------------------------------------------------


@pytest.mark.parametrize("env, cpus, n_items, expected", [
    ({}, 2, 8, 1),
    ({"OPENBLAS_NUM_THREADS": "1"}, 2, 8, 2),
    ({"OPENBLAS_NUM_THREADS": "2"}, 2, 8, 1),
    ({"OMP_NUM_THREADS": "1"}, 2, 8, 2),
    ({"GOTO_NUM_THREADS": "1"}, 2, 8, 2),
    ({"OPENBLAS_NUM_THREADS": "0"}, 2, 8, 1),
    ({"OPENBLAS_NUM_THREADS": "x"}, 2, 8, 1),
    ({"OMP_NUM_THREADS": "x"}, 2, 8, 1),
    ({"OPENBLAS_NUM_THREADS": "1"}, 1, 8, 1),
    ({"OPENBLAS_NUM_THREADS": "1"}, 8, 2, 2),
    ({"OPENBLAS_NUM_THREADS": "2"}, 8, 8, 4),
    ({"OPENBLAS_NUM_THREADS": "3"}, 2, 8, 1),
    # OpenBLAS reads its own variable first, OpenMP's last
    ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 2, 8, 1),
    ({"GOTO_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 2, 8, 1),
    ({"OPENBLAS_NUM_THREADS": "1"}, 2, 1, 1),
    ({"OPENBLAS_NUM_THREADS": "1"}, 2, 0, 1),
])
def test_process_count_rule(monkeypatch, env, cpus, n_items, expected):
    for var in parallel.BLAS_VARS:
        monkeypatch.delenv(var, raising=False)
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    assert process_count(n_items) == expected


@pytest.mark.parametrize("missing", ["fork", "sched_getaffinity"])
def test_one_process_without_fork_or_affinity(monkeypatch, missing):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    assert process_count(8) == 4
    monkeypatch.delattr(os, missing)
    assert process_count(8) == 1


# fork_map itself --------------------------------------------------------------


@pytest.mark.parametrize("count", [1, 2, 3, 5])
def test_fork_map_keeps_item_order_and_uses_the_processes(monkeypatch, count):
    use_processes(monkeypatch, count)
    fds = open_fds()
    got = fork_map(lambda x: (x * x, os.getpid()), range(7))
    assert [value for value, _ in got] == [x * x for x in range(7)]
    pids = [pid for _, pid in got]
    assert len(set(pids)) == count
    assert pids[0] == os.getpid()
    # contiguous shares: a process's items are one run
    assert pids == sorted(pids, key=pids.index)
    assert open_fds() == fds
    assert_no_children()


def fails_at(bad, exc):
    def fn(x):
        if x == bad:
            raise exc
        return x
    return fn


@pytest.mark.parametrize("exc", [NumericError("loss diverged at step 3"),
                                 ContractError("shapes disagree: (2, 3)")])
@pytest.mark.parametrize("bad", [0, 3, 5])
def test_an_exception_keeps_its_type_and_message(monkeypatch, exc, bad):
    # 6 items on 3 processes: 0 runs here, 3 and 5 in the last two children
    use_processes(monkeypatch, 3)
    fds = open_fds()
    with pytest.raises(type(exc)) as err:
        fork_map(fails_at(bad, exc), range(6))
    assert type(err.value) is type(exc)
    assert str(err.value) == str(exc)
    assert open_fds() == fds
    assert_no_children()


def test_the_first_failing_item_wins(monkeypatch):
    use_processes(monkeypatch, 3)

    def fn(x):
        if x >= 3:
            raise NumericError(f"item {x}")
        return x

    with pytest.raises(NumericError, match="^item 3$"):
        fork_map(fn, range(6))
    assert_no_children()


def test_a_child_that_dies_is_named_by_its_status(monkeypatch):
    use_processes(monkeypatch, 2)

    def fn(x):
        if x == 3:
            os._exit(3)
        return x

    with pytest.raises(RuntimeError, match="exited with status 3 before "
                                           "sending its result"):
        fork_map(fn, range(4))
    assert_no_children()


def test_a_raise_in_the_callers_share_reaps_every_child(monkeypatch):
    use_processes(monkeypatch, 3)
    fds = open_fds()

    def fn(x):
        if x == 0:
            raise ContractError("caller's share")
        time.sleep(60)

    began = time.monotonic()
    with pytest.raises(ContractError, match="caller's share"):
        fork_map(fn, range(3))
    # the sleeping children were stopped, not waited for
    assert time.monotonic() - began < 30
    assert open_fds() == fds
    assert_no_children()


# bitwise-equal outputs at any process count -----------------------------------


@pytest.fixture(scope="module")
def tiny():
    cfg = load_config(str(TINY))
    ds = generate_dataset(cfg.sim, cfg.data.n_train, cfg.data.n_val,
                          cfg.data.n_test, seed=cfg.data.seed)
    # 3 micro-batches per Adam step, 2 in validation
    train_cfg = dataclasses.replace(cfg.train, batch_size=12, micro_batch=4)
    assert (ds.train.n, ds.val.n) == (24, 6)
    return cfg, ds, train_cfg


def train_files(tiny, variant, out):
    cfg, ds, train_cfg = tiny
    train(CrnModel(variant, ds.cfg, cfg.dims), ds, train_cfg, out_dir=out)
    return {name: (out / name).read_bytes()
            for name in ("loss_log.csv", "steps.csv", "best.npz", "last.npz")}


@pytest.mark.parametrize("variant", list(ModelVariant))
def test_train_writes_the_same_bytes_at_any_process_count(
        tiny, variant, monkeypatch, tmp_path):
    use_processes(monkeypatch, 1)
    ref = train_files(tiny, variant, tmp_path / "1")
    for count in (2, 3):
        use_processes(monkeypatch, count)
        assert train_files(tiny, variant, tmp_path / str(count)) == ref, count
    assert_no_children()


@pytest.mark.parametrize("variant", list(ModelVariant))
def test_predict_ite_and_validation_are_equal_at_any_process_count(
        tiny, variant, monkeypatch):
    cfg, ds, train_cfg = tiny
    model = CrnModel(variant, ds.cfg, cfg.dims)
    store = model.init_store(5)
    x_local, x_global = ds.cf.x_local[:, -1], ds.cf.x_global[:, -1]
    assert x_local.shape[0] == 6   # 3 chunks of 2

    def run():
        preds = [predict_ite(model, store, x_local, x_global, mc_samples=mc,
                             seed=3, chunk=2) for mc in (0, 2)]
        return preds, validation_loss(model, store, ds.val,
                                      train_cfg.weights, micro_batch=4)

    use_processes(monkeypatch, 1)
    ref_preds, ref_val = run()
    for count in (2, 3):
        use_processes(monkeypatch, count)
        preds, val = run()
        assert val == ref_val, count
        for got, ref in zip(preds, ref_preds):
            assert got.keys() == ref.keys()
            for key in got:
                assert np.array_equal(got[key], ref[key]), (count, key)
    assert_no_children()


# errors through the command line -----------------------------------------------


@pytest.fixture(scope="module")
def toy(tmp_path_factory):
    # the first Adam step's micro-batches hold 2, 2 and 1 episodes, and the
    # 3 test episodes make chunks of 2 and 1: at 2 processes the last
    # micro-batch and the last chunk run in a child
    root = tmp_path_factory.mktemp("faults")
    config = root / "run.ini"
    config.write_text(TOY_INI.format(root=root).replace(
        "batch_size = 6\nmicro_batch = 3", "batch_size = 5\nmicro_batch = 2")
        .replace("n_test = 2", "n_test = 3").replace("chunk = 4", "chunk = 2"))
    assert main(["gen", "--config", str(config)]) == 0
    assert main(["train", "--config", str(config)]) == 0
    return str(config)


def plant(monkeypatch, command, exc):
    """Raise exc in every 1-episode training micro-batch, or in every
    1-episode chunk of predict_ite."""
    if command == "train":
        loss = training._episode_loss

        def faulty(model, leaves, split, idx, weights, rng):
            if rng is not None and len(idx) == 1:
                raise exc
            return loss(model, leaves, split, idx, weights, rng)

        monkeypatch.setattr(training, "_episode_loss", faulty)
    else:
        init_state = CrnModel.init_state

        def faulty(self, b):
            if b == 1:
                raise exc
            return init_state(self, b)

        monkeypatch.setattr(CrnModel, "init_state", faulty)


@pytest.mark.parametrize("command", ["train", "eval"])
@pytest.mark.parametrize("exc, code", [
    (NumericError("planted divergence"), 2),
    (ContractError("planted misuse"), 1)])
def test_a_childs_error_exits_as_in_process(toy, tmp_path, capsys,
                                            monkeypatch, command, exc, code):
    plant(monkeypatch, command, exc)
    seen = []
    for count in (1, 2):
        use_processes(monkeypatch, count)
        rc = main([command, "--config", toy,
                   "--out", str(tmp_path / str(count))])
        seen.append((rc, capsys.readouterr().err))
        assert_no_children()
    assert seen[0] == seen[1]
    assert seen[0][0] == code
    assert seen[0][1].splitlines()[-1].endswith(str(exc))


def test_manifests_record_the_process_count(toy, tmp_path, monkeypatch):
    for command in ("train", "eval"):
        for count in (1, 2):
            use_processes(monkeypatch, count)
            out = tmp_path / f"{command}{count}"
            assert main([command, "--config", toy, "--out", str(out)]) == 0
            manifest = (out / "run_manifest.json").read_text()
            assert f'"processes": {count}' in manifest, (command, count)
