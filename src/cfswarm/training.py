"""Minibatch Adam training with validation-based model selection.

Batches are processed as micro-batches whose gradients are accumulated with
weights proportional to their size, so the update equals the full-batch
gradient while peak memory stays bounded by the micro-batch.  Validation is
deterministic (latents at their means), the per-epoch loss log and the
per-step gradient norms are written as CSV, and the returned parameters are
the minimum-validation-loss snapshot.
"""

import csv
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import tensor as T
from .data import Dataset, Split
from .errors import ConfigError, NumericError
from .losses import LossWeights, loss_total
from .model import CrnModel
from .optim import ParamStore, adam_step_grads, save_checkpoint
from .parallel import fork_map
from .rng import Rng, derive_seed

LOG_FIELDS = ("l_y", "l_x", "l_a", "l_elbo", "total")
STEP_FIELDS = ("epoch", "step", "grad_norm", "clipped")
CLIP_NORM = 10.0  # global gradient norm above which a step is scaled down


@dataclass
class TrainConfig:
    epochs: int = 20
    batch_size: int = 256
    micro_batch: int = 32
    lr: float = 1e-4
    seed: int = 0
    weights: LossWeights = field(default_factory=LossWeights)

    def validate(self) -> "TrainConfig":
        if self.epochs < 0:
            raise ConfigError("epochs must be nonnegative")
        if self.batch_size < 1 or self.micro_batch < 1:
            raise ConfigError("batch sizes must be positive")
        if self.lr <= 0:
            raise ConfigError("learning rate must be positive")
        self.weights.validate()
        return self


def _episode_loss(model: CrnModel, leaves, split: Split, idx, weights,
                  rng: Rng | None):
    xb, gb, yb = split.x_local[idx], split.x_global[idx], split.outcome[idx]
    ab = split.treatment[idx].astype(np.float64)
    steps = model.rollout(leaves, xb, gb, ab, "train", rng=rng)
    return loss_total(steps, xb, gb, yb, ab, weights)


def validation_loss(model: CrnModel, store: ParamStore, split: Split,
                    weights: LossWeights, micro_batch: int = 32) -> dict:
    """Deterministic validation components (latents at their means), the
    micro-batches run by `fork_map` and summed in order."""
    n = split.n

    def parts(start):
        idx = np.arange(start, min(start + micro_batch, n))
        leaves = store.bind(T.Tape(record=False))
        return (_episode_loss(model, leaves, split, idx, weights, None)[1],
                len(idx))

    acc = {k: 0.0 for k in LOG_FIELDS}
    for part, size in fork_map(parts, range(0, n, micro_batch)):
        for k in LOG_FIELDS:
            acc[k] += part[k] * size / n
    return acc


def _checked(val: dict, when: str) -> dict:
    # NaN compares False with everything, so a non-finite total would
    # silently keep a stale best snapshot
    if not np.isfinite(val["total"]):
        raise NumericError(f"validation loss is non-finite {when}: {val}")
    return val


def _clip_grads(grads: dict[str, np.ndarray], clip_norm: float):
    total = np.sqrt(sum(float((g * g).sum()) for g in grads.values()))
    if not np.isfinite(total):
        raise NumericError(f"non-finite gradient norm {total}")
    if total > clip_norm:
        scale = clip_norm / total
        for name in grads:
            grads[name] = grads[name] * scale
        return total, True
    return total, False


def train(model: CrnModel, dataset: Dataset, cfg: TrainConfig,
          out_dir: str | None = None):
    """Run the optimization; returns (best ParamStore, summary dict).

    The summary carries per-epoch rows (also written to loss_log.csv under
    out_dir together with best/last checkpoints), the initial validation
    loss, the selected epoch, and the count of gradient-clip events.  Under
    out_dir, steps.csv holds one row per optimizer step: its epoch, the
    optimizer's step count, the global gradient norm before clipping and
    whether it was clipped (0/1).  Neither file holds a wall-clock value,
    so identical runs write identical bytes.  A non-finite training or
    validation loss raises NumericError.

    An Adam step's micro-batches run by `fork_map` (README, "Cores"), each
    process holding one tape at a time; their gradients are summed in order.
    """
    cfg.validate()
    train_split, val_split = dataset.train, dataset.val
    store = model.init_store(cfg.seed)
    root = Rng(derive_seed(cfg.seed, "train"))

    init_val = _checked(validation_loss(model, store, val_split, cfg.weights,
                                        cfg.micro_batch), "before training")
    best_val = init_val["total"]
    best_store = store.copy()
    best_epoch = 0
    rows, steps = [], []
    clip_events = 0

    for epoch in range(1, cfg.epochs + 1):
        order = root.fork("shuffle", epoch).permutation(train_split.n)
        train_acc = {k: 0.0 for k in LOG_FIELDS}
        for b_start in range(0, train_split.n, cfg.batch_size):
            batch_idx = order[b_start:b_start + cfg.batch_size]
            batch_n = len(batch_idx)

            def gradients(m_start):
                idx = batch_idx[m_start:m_start + cfg.micro_batch]
                total, parts = _episode_loss(
                    model, store.bind(T.Tape()), train_split, idx, cfg.weights,
                    root.fork("latent", epoch * 1_000_003 + b_start + m_start))
                if not np.isfinite(parts["total"]):
                    raise NumericError(
                        f"training loss diverged at epoch {epoch}: {parts}")
                T.backward(T.mul(total, len(idx) / batch_n))
                return store.gradients(), parts, len(idx)

            grads_sum: dict[str, np.ndarray] = {}
            for grads, parts, size in fork_map(
                    gradients, range(0, batch_n, cfg.micro_batch)):
                for name, g in grads.items():
                    acc = grads_sum.get(name)
                    grads_sum[name] = g.copy() if acc is None else acc + g
                for k in LOG_FIELDS:
                    train_acc[k] += parts[k] * size / train_split.n
            norm, clipped = _clip_grads(grads_sum, CLIP_NORM)
            clip_events += int(clipped)
            adam_step_grads(store, grads_sum, cfg.lr)
            steps.append({"epoch": epoch, "step": store.step_count,
                          "grad_norm": float(norm), "clipped": int(clipped)})
        val = _checked(validation_loss(model, store, val_split, cfg.weights,
                                       cfg.micro_batch), f"at epoch {epoch}")
        rows.append({"epoch": epoch,
                     **{f"train_{k}": train_acc[k] for k in LOG_FIELDS},
                     **{f"val_{k}": val[k] for k in LOG_FIELDS}})
        if val["total"] < best_val:
            best_val = val["total"]
            best_store = store.copy()
            best_epoch = epoch

    summary = {"initial_val": init_val, "best_epoch": best_epoch,
               "best_val": best_val, "clip_events": clip_events,
               "epochs": cfg.epochs, "rows": rows,
               "variant": model.variant.value}
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        names = ["epoch"] + [f"train_{k}" for k in LOG_FIELDS] \
            + [f"val_{k}" for k in LOG_FIELDS]
        for name, fields, table in (("loss_log.csv", names, rows),
                                    ("steps.csv", STEP_FIELDS, steps)):
            with open(out / name, "w", newline="") as fh:
                writer = csv.DictWriter(fh, fieldnames=fields)
                writer.writeheader()
                writer.writerows(table)
        save_checkpoint(best_store, str(out / "best"))
        save_checkpoint(store, str(out / "last"))
    return best_store, summary
