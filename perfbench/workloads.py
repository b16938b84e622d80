"""The benchmark's workloads: the timed cfswarm command, its inputs and the
outputs the checks read back.

Every workload uses the desk world (`SimConfig()` defaults: K=20, T=14,
burn-in 9, treatment window 9-13, so 5 starts plus never-treated = 6 arms),
the `tgv_crn` variant and the default `ModelDims`.  The seed reaches the
program only through the generated config's [data], [train] and [eval]
seeds and, for eval, the checkpoint init.
"""

import contextlib
import csv
import hashlib
import io
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from cfswarm import cli
from cfswarm.boids import SimConfig
from cfswarm.data import load_dataset
from cfswarm.metrics import read_eval_dump
from cfswarm.model import CrnModel, ModelDims, ModelVariant
from cfswarm.optim import load_checkpoint, save_checkpoint

VARIANT = ModelVariant.TGV_CRN
N_ARMS = len(SimConfig().intervention_steps) + 1
EPOCHS = 1


@dataclass(frozen=True)
class Workload:
    name: str
    command: str        # the cfswarm subcommand that is timed
    splits: tuple       # (n_train, n_val, n_test) the command reads or writes
    warm_splits: tuple  # smaller splits for the warm-up call in set-up

    def episodes(self, splits=None) -> int:
        """Work units of one command: see README.md, `episodes_per_s`."""
        n_train, n_val, n_test = splits or self.splits
        if self.command == "train":
            return n_train * EPOCHS
        if self.command == "eval":
            return n_test * N_ARMS
        return n_train + n_val + n_test * (1 + N_ARMS)


# why each workload was chosen: README.md and BENCHMARK.json
WORKLOADS = {w.name: w for w in (
    Workload("train-desk", "train", (256, 32, 1), (32, 1, 1)),
    Workload("eval-desk", "eval", (1, 1, 64), (1, 1, 8)),
    Workload("gen-desk", "gen", (256, 32, 32), (16, 4, 4)),
)}


def config_text(splits, seed: int, dataset_dir: Path) -> str:
    n_train, n_val, n_test = splits
    return f"""\
# desk world: [sim] omitted, so SimConfig() defaults apply
[data]
n_train = {n_train}
n_val = {n_val}
n_test = {n_test}
seed = {seed}

[model]
variant = {VARIANT.value}

[train]
epochs = {EPOCHS}
batch_size = 256
micro_batch = 32
lr = 0.0001
alpha = 0.1
gamma = 0.1
lambda = 0.1
seed = {seed}

[eval]
mc_samples = 0
chunk = 32
seed = {seed}

[paths]
dataset_dir = {dataset_dir}
"""


def run_cli(argv) -> int:
    """`cfswarm <argv>` in-process, its stdout discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


@dataclass
class Inputs:
    argv: list
    out_dir: Path
    episodes: int


def prepare(w: Workload, seed: int, work: Path, splits) -> Inputs:
    """Write the config and the inputs the timed command reads."""
    work.mkdir(parents=True, exist_ok=True)
    cfg = work / "run.ini"
    cfg.write_text(config_text(splits, seed, work / "dataset"))
    if w.command in ("train", "eval"):
        rc = run_cli(["gen", "--config", str(cfg)])
        if rc != 0:
            raise RuntimeError(f"setup: cfswarm gen exited with {rc}")
    out = work / "out"
    argv = [w.command, "--config", str(cfg), "--out", str(out)]
    if w.command == "eval":
        store = CrnModel(VARIANT, SimConfig(), ModelDims()).init_store(seed)
        save_checkpoint(store, str(work / "init"))
        argv += ["--checkpoint", str(work / "init")]
    return Inputs(argv, out, w.episodes(splits))


def dataset_digest(ds) -> str:
    """sha256 of every array `load_dataset` returns, in a fixed order."""
    h = hashlib.sha256()
    h.update(repr(ds.cf.arms).encode())
    for part in ("train", "val", "test", "cf"):
        obj = getattr(ds, part)
        for name in sorted(vars(obj)):
            arr = getattr(obj, name)
            if isinstance(arr, np.ndarray):
                h.update(f"{part}.{name}:{arr.dtype.str}:{arr.shape}".encode())
                h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def observe(w: Workload, out: Path) -> dict:
    """The outputs that the checks compare, read back from `out`."""
    if w.command == "gen":
        ds = load_dataset(str(out))
        floats = [getattr(s, f) for s in (ds.train, ds.val, ds.test, ds.cf)
                  for f in ("x_local", "x_global", "outcome")]
        return {"dataset_sha256": dataset_digest(ds),
                "nonfinite": int(sum((~np.isfinite(a)).sum()
                                     for a in floats))}
    if w.command == "train":
        with open(out / "loss_log.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        last = load_checkpoint(str(out / "last"))
        return {"columns": rows[0],
                "loss_log": [[float(v) for v in row] for row in rows[1:]],
                "last_param_sums": {name: float(t.array.sum())
                                    for name, t in last.params.items()}}
    report = json.loads((out / "report.json").read_text())
    return {"report": report, "y_pred": read_eval_dump(out)["y_pred"]}


def output_digest(out: Path) -> str:
    """sha256 over the bytes of every output file but the run manifest,
    which records wall-clock times."""
    h = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        if path.name != cli.MANIFEST_NAME:
            h.update(str(path.relative_to(out)).encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()
