"""Config parsing and end-to-end command-line runs at toy scale."""

import csv
import dataclasses
import json
import os
import shutil
import struct
import subprocess
import sys
import zipfile
from pathlib import Path

import numpy as np
import pytest

import cfswarm
import cfswarm.tensor as T
from cfswarm import artifact, boids
from cfswarm.cli import main
from cfswarm.config import load_config, require_sim_match
from cfswarm.boids import SimConfig
from cfswarm.data import load_dataset
from cfswarm.errors import ConfigError, ContractError
from cfswarm.metrics import compute_metrics, read_eval_dump
from cfswarm.model import ModelVariant
from cfswarm.optim import load_checkpoint, save_checkpoint


TOY_INI = """\
[sim]
n_agents = 4
n_steps = 8
burn_in = 5
t_i_start = 5
t_i_end = 7

[data]
n_train = 6
n_val = 2
n_test = 2
seed = 0

[model]
variant = tg_crn
hidden = 6
latent = 3
feat = 6
gnn_hidden = 6
gnn_edge = 6
mlp_hidden = 6
g_hidden = 4
g_latent = 2
g_feat = 4
rnn_hidden = 6

[train]
epochs = 2
batch_size = 6
micro_batch = 3
lr = 0.001
alpha = 0.1
gamma = 0.1
lambda = 0.1
seed = 0

[eval]
mc_samples = 0
chunk = 4
seed = 0

[paths]
dataset_dir = {root}/dataset
out_dir = {root}/train
"""


# config parsing -------------------------------------------------------------


def write_config(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_load_config_full(tmp_path):
    cfg = load_config(write_config(tmp_path, TOY_INI.format(root=tmp_path)))
    assert cfg.sim.n_agents == 4
    assert cfg.sim.n_steps == 8
    assert cfg.sim.box_half == 20.0  # omitted keys keep defaults
    assert cfg.data.n_train == 6
    assert cfg.variant is ModelVariant.TG_CRN
    assert cfg.dims.hidden == 6 and cfg.dims.rnn_hidden == 6
    assert cfg.train.epochs == 2
    assert cfg.train.weights.alpha == 0.1
    assert cfg.train.weights.lam == 0.1
    assert cfg.eval.chunk == 4
    assert cfg.paths.dataset_dir.endswith("dataset")


def test_load_config_defaults(tmp_path):
    cfg = load_config(write_config(tmp_path, "[train]\nepochs = 1\n"))
    assert cfg.variant is ModelVariant.TGV_CRN
    assert cfg.sim.n_agents == 20
    assert cfg.train.epochs == 1
    assert cfg.train.batch_size == 256
    assert cfg.paths.out_dir == ""


def test_load_config_weight_aliases(tmp_path):
    text = "[train]\nalpha = 0.5\ngamma = 0.25\nlambda = 0.75\n"
    cfg = load_config(write_config(tmp_path, text))
    assert cfg.train.weights.alpha == 0.5
    assert cfg.train.weights.gamma == 0.25
    assert cfg.train.weights.lam == 0.75


@pytest.mark.parametrize("text, fragment", [
    ("[simulation]\nn_agents = 3\n", "unknown config sections"),
    ("[sim]\nagents = 3\n", "unknown key"),
    ("[model]\nvariant = resnet\n", "unknown model variant"),
    ("[train]\nweights = 1 2 3\n", "alpha / gamma / lambda"),
    ("[train]\nepochs = 2.5\n", "must be an integer"),
    ("[train]\nlr = fast\n", "bad literal"),
    ("[train]\nalpha = fast\n", "bad train.alpha"),
    ("[train]\nepochs = -3\n", "epochs"),
    ("[sim]\nn_steps = 5\nburn_in = 9\n", "burn_in"),
    ("[data]\nn_train = 0\n", "at least one episode"),
    ("[data]\nuntreated_fraction = 1.0\n", "untreated_fraction"),
    ("[data]\nn_train = \"x\"\n", "data.n_train must be a number"),
    ("[data]\nn_train = [3]\n", "data.n_train must be a number"),
    ("[data]\nuntreated_fraction = 0.5\n",
     "unknown key 'untreated_fraction' in section [data]"),
    ("[train]\nclip_norm = 5.0\n",
     "unknown key 'clip_norm' in section [train]"),
    ("[data]\nn_train = True\n", "data.n_train must be a number"),
    ("[sim]\nmax_turn_deg = True\n", "sim.max_turn_deg must be a number"),
    ("[eval]\nchunk = True\n", "eval.chunk must be a number"),
    ("[sim]\nseed = 0\n", "unknown key"),
    ("[train]\nalpha = True\n", "train.alpha must be a number"),
    ("[train]\nalpha = 1e400\n", "train.alpha must be finite"),
    ("[train]\nlr = 1e400\n", "train.lr must be finite"),
    ("[model]\nhidden = 0\n", "widths must be at least 1: ['hidden']"),
    ("[model]\nhidden = -2\n", "widths must be at least 1: ['hidden']"),
])
def test_load_config_rejects(tmp_path, text, fragment):
    with pytest.raises(ConfigError) as err:
        load_config(write_config(tmp_path, text))
    assert fragment in str(err.value)


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        load_config(str(tmp_path / "nope.ini"))


@pytest.mark.parametrize("kind", ["directory", "not-utf8"])
def test_unreadable_config_is_config_error(tmp_path, capsys, kind):
    # read() skips what it cannot open: a directory loaded as the
    # all-default config, and a \xff byte ended in a UnicodeDecodeError
    path = tmp_path / "run.ini"
    if kind == "directory":
        path.mkdir()
    else:
        path.write_bytes(b"[train]\nepochs = 1\n# \xff\n")
    with pytest.raises(ConfigError, match="cannot read .*run.ini"):
        load_config(path)
    assert main(["gen", "--config", str(path),
                 "--out", str(tmp_path / "x")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "run.ini" in err
    assert "Traceback" not in err


def test_require_sim_match_lists_fields():
    a = SimConfig()
    require_sim_match(a, SimConfig(), "ctx")  # no raise
    b = SimConfig(box_half=19.0, dt=0.2)
    with pytest.raises(ConfigError) as err:
        require_sim_match(a, b, "ctx")
    msg = str(err.value)
    assert "ctx" in msg and "box_half" in msg and "dt" in msg
    assert "n_agents" not in msg


# command pipeline ------------------------------------------------------------


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    config = root / "run.ini"
    config.write_text(TOY_INI.format(root=root))
    assert main(["gen", "--config", str(config)]) == 0
    assert main(["train", "--config", str(config)]) == 0
    return {"root": root, "config": str(config)}


def manifest(path):
    return json.loads((path / "run_manifest.json").read_text())


def test_gen_writes_dataset_and_manifest(pipeline):
    root = pipeline["root"]
    ds = load_dataset(str(root / "dataset"))
    assert (ds.train.n, ds.val.n, ds.test.n) == (6, 2, 2)
    info = manifest(root / "dataset")
    assert info["format"] == "run-manifest-v1"
    assert info["command"] == "gen"
    assert info["config"]["variant"] == "tg_crn"
    assert info["seed"]["data"] == 0
    assert "dataset.npz" in info["files"]
    assert all(len(digest) == 64 for digest in info["files"].values())
    assert "run_manifest.json" not in info["files"]
    assert set(info["peak_rss_mib"]) == {"caller", "largest_child"}
    assert info["peak_rss_mib"]["caller"] > 10.0


def test_gen_rerun_is_checksum_identical(pipeline, tmp_path):
    code = main(["gen", "--config", pipeline["config"],
                 "--out", str(tmp_path / "again")])
    assert code == 0
    first = manifest(pipeline["root"] / "dataset")
    second = manifest(tmp_path / "again")
    assert first["files"] == second["files"]


def test_train_outputs_and_rerun_identical(pipeline, tmp_path):
    root = pipeline["root"]
    out = root / "train"
    for name in ("loss_log.csv", "best.npz", "last.npz"):
        assert (out / name).exists(), name
    info = manifest(out)
    assert info["command"] == "train"
    assert "best_epoch" in info and "clip_events" in info
    with open(out / "loss_log.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2

    code = main(["train", "--config", pipeline["config"],
                 "--out", str(tmp_path / "again")])
    assert code == 0
    assert manifest(tmp_path / "again")["files"] == info["files"]


def test_eval_outputs_and_rerun_identical(pipeline, tmp_path):
    root = pipeline["root"]
    out1, out2 = tmp_path / "e1", tmp_path / "e2"
    for out in (out1, out2):
        code = main(["eval", "--config", pipeline["config"],
                     "--out", str(out)])
        assert code == 0
    report = json.loads((out1 / "report.json").read_text())
    assert report["n_episodes"] == 2
    assert report["variant"] == "tg_crn"
    assert manifest(out1)["files"] == manifest(out2)["files"]
    assert "dump.npz" in manifest(out1)["files"]
    assert read_eval_dump(out1)["y_pred"].shape == (2, 4, 8)


def test_eval_honors_explicit_checkpoint(pipeline, tmp_path, capsys):
    root = pipeline["root"]
    code = main(["eval", "--config", pipeline["config"],
                 "--out", str(tmp_path / "e"),
                 "--checkpoint", str(root / "train" / "last")])
    assert code == 0
    assert "evaluated tg_crn" in capsys.readouterr().out


def test_eval_rejects_truncated_checkpoint(pipeline, tmp_path, capsys):
    data = (pipeline["root"] / "train" / "last.npz").read_bytes()
    stem = tmp_path / "cut"
    (tmp_path / "cut.npz").write_bytes(data[:len(data) // 2])
    code = main(["eval", "--config", pipeline["config"],
                 "--out", str(tmp_path / "e"), "--checkpoint", str(stem)])
    assert code == 1
    assert "truncated" in capsys.readouterr().err


@pytest.fixture(scope="module")
def eval_dir(pipeline, tmp_path_factory):
    out = tmp_path_factory.mktemp("eval")
    assert main(["eval", "--config", pipeline["config"],
                 "--out", str(out)]) == 0
    return out


def test_eval_dump_holds_every_arms_predictions(eval_dir):
    assert (eval_dir / "dump.npz").exists()
    # the predictions and the arm list only: the truth stays in the dataset
    with zipfile.ZipFile(eval_dir / "dump.npz") as zf:
        assert sorted(zf.namelist()) == sorted(
            f"{name}.npy" for name in ("y_pred", "a_pred", "x_loc_pred",
                                       "x_g_pred", artifact.META_KEY))
    arrays, meta = artifact.load(eval_dir / "dump.npz", ())
    assert sorted(meta) == ["arms", "format"]
    assert meta["format"] == "eval-dump-v4"
    assert meta["arms"] == [5, 6, 7, -1]
    # n_test=2, arms 3+1, T=8; covariates of world steps burn_in=5..7
    assert arrays["y_pred"].shape == (2, 4, 8)
    assert arrays["x_loc_pred"].shape == (2, 4, 3, 4, 5)
    assert arrays["x_g_pred"].shape == (2, 4, 3, 1)
    for name in ("y_pred", "a_pred", "x_loc_pred", "x_g_pred"):
        assert arrays[name].dtype == np.float64
    y = arrays["y_pred"]
    assert np.all((y > 0.0) & (y < 1.0))


def corrupt(path, how, drop):
    """Damage one artifact file in place."""
    data = path.read_bytes()
    if how == "truncated":
        path.write_bytes(data[:len(data) // 2])
    elif how == "flipped":
        # one bit in the middle of the largest entry's array data
        with zipfile.ZipFile(path) as zf:
            entry = max((e for e in zf.infolist()
                         if e.filename != artifact.META_KEY + ".npy"),
                        key=lambda e: e.file_size)
        off = entry.header_offset
        name_len, extra_len = struct.unpack("<HH", data[off + 26:off + 30])
        pos = off + 30 + name_len + extra_len + entry.file_size // 2
        path.write_bytes(data[:pos] + bytes([data[pos] ^ 0x10])
                         + data[pos + 1:])
    elif how == "junk":
        path.write_bytes(bytes(range(256)) * 4)
    elif how in ("nan", "inf"):
        poison(path, drop[0], float(how))
    else:
        # "missing" drops the array drop[0] names, "meta" the metadata key
        # drop[1] names
        arrays, meta = artifact.load(path, ())
        if how == "missing":
            del arrays[drop[0]]
        else:
            del meta[drop[1]]
        artifact.save(path, arrays, meta)


def poison(path, name, value, index=None):
    """Set one entry (the middle one by default) of the float array `name`
    to value, in place."""
    arrays, meta = artifact.load(path, ())
    arr = arrays[name] = arrays[name].copy()
    arr.flat[arr.size // 2 if index is None else index] = value
    artifact.save(path, arrays, meta)


ARTIFACTS = {
    # kind: (directory under the pipeline, file, loader,
    #        (required array, required metadata key))
    "dataset": ("dataset", "dataset.npz", load_dataset,
                ("train_outcome", "seed")),
    "checkpoint": ("train", "last.npz",
                   lambda d: load_checkpoint(str(d / "last")),
                   ("param", "step_count")),
    "eval dump": (None, "dump.npz", read_eval_dump, ("y_pred", "arms")),
}


@pytest.mark.parametrize("how", ["truncated", "flipped", "junk", "missing",
                                 "meta", "nan", "inf"])
@pytest.mark.parametrize("kind", sorted(ARTIFACTS))
def test_corrupt_artifact_is_contract_error(pipeline, eval_dir, tmp_path,
                                            kind, how):
    sub, name, loader, drop = ARTIFACTS[kind]
    src = eval_dir if sub is None else pipeline["root"] / sub
    shutil.copy(src / name, tmp_path / name)
    loader(tmp_path)  # the intact copy loads
    corrupt(tmp_path / name, how, drop)
    with pytest.raises(ContractError):
        loader(tmp_path)


@pytest.mark.parametrize("kind, name", [
    ("dataset", "cf_x_local"), ("dataset", "train_x_local"),
    ("checkpoint", "param"), ("checkpoint", "adam_m"),
    ("checkpoint", "adam_v")])
def test_nonfinite_array_is_named_at_load(pipeline, tmp_path, kind, name):
    sub, file, loader, _ = ARTIFACTS[kind]
    for value in (np.nan, -np.inf):
        shutil.copy(pipeline["root"] / sub / file, tmp_path / file)
        poison(tmp_path / file, name, value)
        with pytest.raises(ContractError, match=f"{file}.*{name}.*NaN or inf"):
            loader(tmp_path)


@pytest.mark.parametrize("command, bad", [
    ("eval", "cf_x_local"), ("eval", "prior.fe.w0"),
    ("train", "train_x_local")])
def test_nonfinite_input_stops_command(pipeline, tmp_path, capsys, command,
                                       bad):
    # unchecked, eval exits 0 with NaN metrics and train blames divergence
    root = pipeline["root"]
    shutil.copy(root / "dataset" / "dataset.npz", tmp_path / "dataset.npz")
    shutil.copy(root / "train" / "last.npz", tmp_path / "ckpt.npz")
    if bad == "prior.fe.w0":
        # the packed parameters hold each parameter raveled in store order
        params = load_checkpoint(str(tmp_path / "ckpt")).params
        sizes = [t.array.size for t in params.values()]
        poison(tmp_path / "ckpt.npz", "param", np.inf,
               sum(sizes[:list(params).index(bad)]))
    else:
        poison(tmp_path / "dataset.npz", bad, np.nan)
    config = tmp_path / "run.ini"
    config.write_text(Path(pipeline["config"]).read_text().replace(
        str(root / "dataset"), str(tmp_path)))
    argv = [command, "--config", str(config), "--out", str(tmp_path / "o")]
    if command == "eval":
        argv += ["--checkpoint", str(tmp_path / "ckpt")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "NaN or inf" in err
    assert "Traceback" not in err
    assert not (tmp_path / "o" / "report.json").exists()


REQUIRED_META = {
    "dataset": ("format", "seed", "sim"),
    "checkpoint": ("format", "step_count", "meta", "params", "shapes"),
    "eval dump": ("format", "arms"),
}


@pytest.mark.parametrize("kind", sorted(ARTIFACTS))
def test_each_missing_metadata_key_is_contract_error(pipeline, eval_dir,
                                                     tmp_path, kind):
    sub, name, loader, _ = ARTIFACTS[kind]
    src = eval_dir if sub is None else pipeline["root"] / sub
    arrays, meta = artifact.load(src / name, ())
    assert set(REQUIRED_META[kind]) <= set(meta)
    for key in REQUIRED_META[kind]:
        artifact.save(tmp_path / name, arrays,
                      {k: v for k, v in meta.items() if k != key})
        with pytest.raises(ContractError, match=key if key != "format"
                           else "format None"):
            loader(tmp_path)


@pytest.mark.parametrize("kind, key, value", [
    ("checkpoint", "params", 3), ("checkpoint", "params", ["w", 1]),
    ("checkpoint", "meta", []), ("checkpoint", "meta", {"variant": 1}),
    ("checkpoint", "step_count", "7"), ("checkpoint", "step_count", True),
    ("checkpoint", "step_count", -1), ("checkpoint", "shapes", [["3"]]),
    ("dataset", "seed", True), ("dataset", "seed", ["a"]),
    ("dataset", "seed", "x"), ("dataset", "seed", 0.5),
    ("eval dump", "arms", [5, None]), ("dataset", "sim", 5)])
def test_malformed_metadata_value_is_contract_error(pipeline, eval_dir,
                                                    tmp_path, kind, key,
                                                    value):
    # unchecked, "params": 3 and "meta": [] raise TypeError and
    # AttributeError, and "step_count": "7" loads
    sub, name, loader, _ = ARTIFACTS[kind]
    src = eval_dir if sub is None else pipeline["root"] / sub
    arrays, meta = artifact.load(src / name, ())
    artifact.save(tmp_path / name, arrays, dict(meta, **{key: value}))
    with pytest.raises(ContractError, match=f"{name}.*{key}"):
        loader(tmp_path)


@pytest.mark.parametrize("file, key, value", [
    ("ckpt.npz", "meta", []), ("dataset.npz", "seed", "5")])
def test_malformed_metadata_stops_eval(pipeline, tmp_path, capsys, file, key,
                                       value):
    root = pipeline["root"]
    shutil.copy(root / "dataset" / "dataset.npz", tmp_path / "dataset.npz")
    shutil.copy(root / "train" / "last.npz", tmp_path / "ckpt.npz")
    arrays, meta = artifact.load(tmp_path / file, ())
    artifact.save(tmp_path / file, arrays, dict(meta, **{key: value}))
    config = tmp_path / "run.ini"
    config.write_text(Path(pipeline["config"]).read_text().replace(
        str(root / "dataset"), str(tmp_path)))
    assert main(["eval", "--config", str(config), "--out",
                 str(tmp_path / "o"), "--checkpoint",
                 str(tmp_path / "ckpt")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"{file}" in err and key in err
    assert "Traceback" not in err


def test_older_eval_dump_format_refused_by_name(eval_dir, tmp_path):
    arrays, meta = artifact.load(eval_dir / "dump.npz", ())
    assert meta["format"] == "eval-dump-v4"
    # covariates of world steps burn_in=5..7 only
    assert arrays["x_loc_pred"].shape == (2, 4, 3, 4, 5)
    assert arrays["x_g_pred"].shape == (2, 4, 3, 1)
    read_eval_dump(eval_dir)
    meta["format"] = "eval-dump-v3"
    artifact.save(tmp_path / "dump.npz", arrays, meta)
    with pytest.raises(ContractError, match="eval-dump-v3"):
        read_eval_dump(tmp_path)


def cut_dump(name, axis):
    def edit(arrays, meta):
        arrays[name] = np.delete(arrays[name], -1, axis=axis)
    return edit


def drop_first_arm(arrays, meta):
    meta["arms"] = meta["arms"][1:]


@pytest.mark.parametrize("edit, named", [
    (cut_dump("a_pred", 0), "a_pred"),
    (cut_dump("x_g_pred", 2), "x_g_pred"),
    (drop_first_arm, "arms"),
], ids=["a_pred-episode-cut", "x_g_pred-window-cut", "arms-short"])
def test_inconsistent_eval_dump_is_contract_error(eval_dir, tmp_path, edit,
                                                  named):
    # unchecked, each of these loads
    arrays, meta = artifact.load(eval_dir / "dump.npz", ())
    edit(arrays, meta)
    artifact.save(tmp_path / "dump.npz", arrays, meta)
    with pytest.raises(ContractError, match=f"dump.npz.*{named}"):
        read_eval_dump(tmp_path)


def test_eval_report_recomputes_offline(pipeline, eval_dir):
    ds = load_dataset(str(pipeline["root"] / "dataset"))
    saved = json.loads((eval_dir / "report.json").read_text())
    dump = read_eval_dump(eval_dir)
    report, per = compute_metrics(ds.cf, dump["y_pred"], dump["x_loc_pred"],
                                  dump["x_g_pred"], ds.cfg, saved["variant"])
    assert dataclasses.asdict(report) == saved
    with open(eval_dir / "per_episode.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    keys = rows[0][1:]
    assert rows[1:] == [[str(i)] + [repr(float(per[k][i])) for k in keys]
                        for i in range(ds.cf.n)]


@pytest.mark.parametrize("bad", ["oops", "'five'", "[1,"])
def test_malformed_sim_metadata_is_config_error(pipeline, tmp_path, capsys,
                                                bad):
    arrays, meta = artifact.load(
        pipeline["root"] / "dataset" / "dataset.npz", ())
    meta["sim"]["n_agents"] = bad
    artifact.save(tmp_path / "dataset.npz", arrays, meta)
    with pytest.raises(ConfigError, match="sim.n_agents"):
        load_dataset(str(tmp_path))
    config = tmp_path / "run.ini"
    config.write_text(Path(pipeline["config"]).read_text().replace(
        str(pipeline["root"] / "dataset"), str(tmp_path)))
    assert main(["train", "--config", str(config),
                 "--out", str(tmp_path / "t")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_eval_rejects_corrupt_checkpoint(pipeline, tmp_path, capsys):
    shutil.copy(pipeline["root"] / "train" / "last.npz", tmp_path / "bad.npz")
    corrupt(tmp_path / "bad.npz", "flipped", None)
    code = main(["eval", "--config", pipeline["config"],
                 "--out", str(tmp_path / "e"),
                 "--checkpoint", str(tmp_path / "bad")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "CRC" in err
    assert "Traceback" not in err


def run_on_edited_copies(pipeline, tmp_path, capsys, command,
                         edit_dataset=None, edit_store=None,
                         variant="tg_crn"):
    """Run command on copies of the pipeline's dataset and last checkpoint,
    after edit_dataset(arrays, meta) and edit_store(store) change them, with
    the config asking for variant; returns (exit code, stderr)."""
    root = pipeline["root"]
    arrays, meta = artifact.load(root / "dataset" / "dataset.npz", ())
    if edit_dataset:
        edit_dataset(arrays, meta)
    artifact.save(tmp_path / "dataset.npz", arrays, meta)
    store = load_checkpoint(str(root / "train" / "last"))
    if edit_store:
        edit_store(store)
    save_checkpoint(store, str(tmp_path / "ckpt"))
    config = tmp_path / "run.ini"
    config.write_text(Path(pipeline["config"]).read_text()
                      .replace(str(root / "dataset"), str(tmp_path))
                      .replace("variant = tg_crn", f"variant = {variant}"))
    argv = [command, "--config", str(config), "--out", str(tmp_path / "o")]
    if command == "eval":
        argv += ["--checkpoint", str(tmp_path / "ckpt")]
    code = main(argv)
    return code, capsys.readouterr().err


def cut_rows(*names):
    def edit(arrays, meta):
        for name in names:
            arrays[name] = arrays[name][:-1]
    return edit


def set_sim(key, value):
    def edit(arrays, meta):
        meta["sim"][key] = repr(value)
    return edit


def set_values(name, value, dtype=None):
    def edit(arrays, meta):
        arrays[name] = np.full_like(arrays[name], value, dtype=dtype)
    return edit


def retype(name, dtype, scale=1):
    def edit(arrays, meta):
        arrays[name] = (arrays[name] * scale).astype(dtype)
    return edit


@pytest.mark.parametrize("command, edit, named", [
    ("train", cut_rows("train_outcome"), "train_outcome"),
    ("train", cut_rows("val_x_global"), "val_x_global"),
    ("eval", cut_rows("cf_outcome"), "cf_outcome"),
    ("eval", cut_rows("test_intervention"), "test_intervention"),
    # the stored window is one start short of the stored arms
    ("eval", set_sim("t_i_end", 6), "cf_x_local"),
    ("eval", set_values("test_intervention", 99), "test_intervention"),
    ("train", set_values("train_intervention", 4), "train_intervention"),
    ("train", set_values("val_intervention", 6.0, np.float64),
     "val_intervention"),
    ("train", retype("train_x_local", np.int64, 1000), "train_x_local"),
    ("train", retype("val_outcome", np.float64), "val_outcome"),
], ids=["train_outcome-cut", "val_x_global-cut", "cf_outcome-cut",
        "test-split-cut", "arms-short", "test_intervention-99",
        "train_intervention-before-window", "val_intervention-float",
        "train_x_local-int64", "val_outcome-float64"])
def test_inconsistent_dataset_stops_command(pipeline, tmp_path, capsys,
                                            command, edit, named):
    # unchecked, the train and val cuts end in an IndexError, a test split
    # one episode short broadcasts into wrong metrics (exit 0), a short
    # window scores each arm against another's truth, starts outside the
    # window train on treatments no episode received, and integer or
    # float64 covariates and outcomes train as they are (exit 0)
    code, err = run_on_edited_copies(pipeline, tmp_path, capsys, command,
                                     edit_dataset=edit)
    assert code == 1
    assert err.startswith("error:") and "dataset.npz" in err and named in err
    assert "Traceback" not in err
    assert not (tmp_path / "o" / "report.json").exists()


def drop_param(name):
    def edit(store):
        for table in (store.params, store.adam_m, store.adam_v):
            del table[name]
    return edit


def reshape_param(name, shape):
    def edit(store):
        store.params[name] = T.Tensor(np.zeros(shape))
        store.adam_m[name] = store.adam_v[name] = np.zeros(shape)
    return edit


def clear_meta(store):
    store.meta = {}


@pytest.mark.parametrize("edit, variant, fragment", [
    (None, "tg_crn", None),
    (drop_param("prior.gauss.bmu"), "tg_crn", "'prior.gauss.bmu' is missing"),
    (reshape_param("mlp_y.b1", (3,)), "tg_crn",
     "'mlp_y.b1' has shape (3,), expected (1,)"),
    # a tg_crn store without its variant tag, asked to run as tgv_crn
    (clear_meta, "tgv_crn", "'enc.fe.w0' is missing"),
    (lambda store: store.add("stray", np.zeros(2)), "tg_crn",
     "'stray' is not one of its parameters"),
], ids=["intact", "missing", "misshapen", "untagged-variant", "extra"])
def test_checkpoint_that_does_not_fit_the_model_stops_eval(
        pipeline, tmp_path, capsys, edit, variant, fragment):
    # unchecked, these end in a KeyError traceback, a silently broadcast
    # output (exit 0), a tgv_crn run of tg_crn weights, and an ignored
    # parameter
    code, err = run_on_edited_copies(pipeline, tmp_path, capsys, "eval",
                                     edit_store=edit, variant=variant)
    if fragment is None:
        assert code == 0
        return
    assert code == 1
    assert err.startswith("error:") and variant in err and fragment in err
    assert "Traceback" not in err
    assert not (tmp_path / "o" / "report.json").exists()


def test_sweep_with_grid_file(pipeline, tmp_path, capsys):
    grid = tmp_path / "grid.csv"
    # spaces around the header names and cells are stripped
    grid.write_text("alpha, gamma, lambda\n0.5, 0.1, 0.1\n")
    out = tmp_path / "sweep"
    code = main(["sweep", "--config", pipeline["config"],
                 "--grid", str(grid), "--out", str(out)])
    assert code == 0
    printed = capsys.readouterr().out
    assert "alpha" in printed and "l_covariates" in printed
    with open(out / "sweep.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    assert float(rows[0]["alpha"]) == 0.5
    assert manifest(out)["command"] == "sweep"


@pytest.mark.parametrize("content, fragment", [
    (b"alpha,gamma,lambda\nnan,0.1,0.1\n", "bad grid.alpha"),
    (b"alpha,gamma,lambda\n0.1,inf,0.1\n", "bad grid.gamma"),
    (b"alpha,gamma,lambda\n0.1,0.1,True\n", "grid.lambda must be a number"),
    (b"alpha,gamma,lambda\n1e400,0.1,0.1\n", "grid.alpha must be finite"),
    (b"alpha,gamma,lambda\n0.1,0.1\n", "needs 3 cells"),
    (b"alpha,gamma,lambda\n0.1,0.1,0.1,0.1\n", "needs 3 cells"),
    (b"alpha,gamma,lambda\n0.1,0.1,\xff\n", "cannot read grid file"),
    (None, "cannot read grid file"),
    ("directory", "cannot read grid file"),
], ids=["nan", "inf", "True", "1e400", "short-row", "long-row", "not-utf8",
        "missing", "directory"])
def test_bad_grid_stops_sweep(pipeline, tmp_path, capsys, content, fragment):
    # unchecked, nan, inf and a row with an extra cell loaded as weights,
    # and a \xff byte or a directory ended in a traceback
    grid = tmp_path / "grid.csv"
    if content == "directory":
        grid.mkdir()
    elif content is not None:
        grid.write_bytes(content)
    assert main(["sweep", "--config", pipeline["config"],
                 "--grid", str(grid), "--out", str(tmp_path / "s")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and fragment in err and "grid" in err
    assert "Traceback" not in err


def test_gradcheck_command(pipeline, tmp_path, capsys):
    out = tmp_path / "gc"
    code = main(["gradcheck", "--config", pipeline["config"],
                 "--out", str(out)])
    assert code == 0
    printed = capsys.readouterr().out
    assert "all gradient checks passed" in printed
    assert "end-to-end" in printed
    result = json.loads((out / "gradcheck.json").read_text())
    assert result["passed"] is True
    assert result["tolerances"]["ops"] == 1e-4


def test_gen_refuses_a_non_finite_simulation(tmp_path, monkeypatch, capsys):
    step = boids._step

    def one_nan(*args):
        px, py, hx, hy = step(*args)
        px[(0,) * px.ndim] = np.nan
        return px, py, hx, hy

    monkeypatch.setattr(boids, "_step", one_nan)
    config = write_config(tmp_path, TOY_INI.format(root=tmp_path))
    out = tmp_path / "nan"
    assert main(["gen", "--config", config, "--out", str(out)]) == 2
    assert "non-finite" in capsys.readouterr().err
    assert not (out / "dataset.npz").exists()


def test_exit_codes_for_contract_errors(pipeline, tmp_path, capsys):
    # malformed config
    bad = write_config(tmp_path, "[sim]\nagents = 3\n", "bad.ini")
    assert main(["gen", "--config", bad, "--out", str(tmp_path / "x")]) == 1
    assert "error:" in capsys.readouterr().err

    # missing config file
    assert main(["gen", "--config", str(tmp_path / "nope.ini")]) == 1
    capsys.readouterr()

    # dataset simulator mismatch
    drifted = TOY_INI.format(root=pipeline["root"]).replace(
        "n_agents = 4", "n_agents = 5")
    path = write_config(tmp_path, drifted, "drift.ini")
    assert main(["train", "--config", path,
                 "--out", str(tmp_path / "t")]) == 1
    assert "disagree" in capsys.readouterr().err

    # checkpoint variant mismatch
    flipped = TOY_INI.format(root=pipeline["root"]).replace(
        "variant = tg_crn", "variant = tgv_crn")
    path = write_config(tmp_path, flipped, "flip.ini")
    assert main(["eval", "--config", path,
                 "--out", str(tmp_path / "e")]) == 1
    assert "trained as 'tg_crn'" in capsys.readouterr().err

    # no output directory anywhere
    headless = TOY_INI.format(root=pipeline["root"]).replace(
        f"out_dir = {pipeline['root']}/train", "out_dir =")
    path = write_config(tmp_path, headless, "noout.ini")
    assert main(["train", "--config", path]) == 1
    assert "output directory" in capsys.readouterr().err


def test_exit_code_for_numeric_failure(pipeline, tmp_path, capsys,
                                       monkeypatch):
    true_rule = T.BACKWARD["mul"]

    def skewed(g, saved):
        return [1.001 * c if c is not None else None
                for c in true_rule(g, saved)]

    monkeypatch.setitem(T.BACKWARD, "mul", skewed)
    code = main(["gradcheck", "--config", pipeline["config"]])
    assert code == 2
    assert "numeric failure" in capsys.readouterr().err


def test_cli_module_entry_point(tmp_path):
    # the child imports the same cfswarm as this process, installed or not
    src_root = str(Path(cfswarm.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src_root, os.environ.get("PYTHONPATH"))
                           if p)
    proc = subprocess.run(
        [sys.executable, "-m", "cfswarm.cli", "gen",
         "--config", str(tmp_path / "missing.ini")],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 1
    assert "error:" in proc.stderr


def test_unknown_command_rejected(capsys):
    # eval's dump holds every array the removed cf-rollout command wrote
    for command in ("frobnicate", "cf-rollout"):
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", "x.ini"])
        assert exc.value.code == 2
        assert f"invalid choice: '{command}'" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["gen", "train", "gradcheck", "sweep"])
def test_checkpoint_flag_only_on_commands_that_load_one(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", "x.ini", "--checkpoint", "x"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --checkpoint" in capsys.readouterr().err
