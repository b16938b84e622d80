"""Counterfactual evaluation metrics over the test episodes.

All prediction-quality metrics run over every treatment arm of the test
set's counterfactual rollouts.  Outcome steps are evaluated on the window
the outcome array exposes from the end of burn-in onward (indices T_b-2 ..
T-1, the momentum values at world steps T_b .. T+1); covariates over the
free-run steps T_b .. T-1, the only steps whose covariates the model
predicts in an inference rollout.  Effect metrics compare final-step effect
estimates per arm; the rooted PEHE and the absolute ATE error are computed
per arm and averaged over arms.  Standard errors come from per-episode
statistics (for the arm-averaged quantities, the SE of the per-episode
aggregate).

An evaluation dump is one ``dump.npz`` (see ``artifact``) with the model's
predictions and the arm list, next to ``report.json`` and
``per_episode.csv``.  Its covariate predictions cover the window only:
x_loc_pred (n, A, T-T_b, K, 5) and x_g_pred (n, A, T-T_b, 1), entry j the
prediction of world step T_b + j.  The truth stays in the dataset, and
``compute_metrics(load_dataset(d).cf, ...)`` recomputes the report.
"""

import csv
import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import artifact
from .boids import SimConfig
from .data import (NEVER_TREATED, CounterfactualSet, Dataset, final_effects,
                   ground_truth_ite)
from .errors import ContractError, DimensionError
from .model import CrnModel, predict_ite
from .optim import ParamStore


@dataclass
class MetricsReport:
    l_outcome: float
    l_outcome_se: float
    l_covariates: float
    l_covariates_se: float
    pehe_sqrt: float
    pehe_sqrt_se: float
    ate_abs_err: float
    ate_abs_err_se: float
    timing_err: float
    timing_err_se: float
    cf_uplift: float
    cf_uplift_se: float
    n_episodes: int = 0
    variant: str = ""

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)


def _se(per_episode: np.ndarray) -> float:
    n = per_episode.size
    if n < 2:
        return 0.0
    return float(per_episode.std(ddof=1) / np.sqrt(n))


def effect_errors(tau_hat: np.ndarray, tau_true: np.ndarray):
    """Per-arm rooted PEHE and absolute ATE error for (n, A) estimates.

    pehe[a] = sqrt(mean_i (tau_hat - tau_true)^2); ate[a] = |mean_i diff|.
    """
    tau_hat = np.asarray(tau_hat, dtype=np.float64)
    tau_true = np.asarray(tau_true, dtype=np.float64)
    if tau_hat.shape != tau_true.shape or tau_hat.ndim != 2:
        raise DimensionError("effect arrays must be identically shaped (n, A)")
    err = tau_hat - tau_true
    return np.sqrt((err ** 2).mean(axis=0)), np.abs(err.mean(axis=0))


def outcome_window(cfg: SimConfig) -> np.ndarray:
    """Outcome indices scored by the report (burn-in end through T+1)."""
    return np.arange(cfg.burn_in - 2, cfg.n_steps)


def covariate_window(cfg: SimConfig) -> np.ndarray:
    """World steps whose covariates are model predictions."""
    return np.arange(cfg.burn_in, cfg.n_steps)


def compute_metrics(cf: CounterfactualSet, y_pred: np.ndarray,
                    x_loc_pred: np.ndarray, x_g_pred: np.ndarray,
                    cfg: SimConfig, variant: str = ""):
    """Score predictions against the counterfactual set's simulated arms.

    y_pred (n, A, T) aligns with cf.outcome; x_loc_pred (n, A, W, K, 5) and
    x_g_pred (n, A, W, 1) hold the predictions of the W world steps of
    covariate_window(cfg), in order, as predict_ite returns them.  Effects
    and best starts are `final_effects` of y_pred and cf.outcome; uplift is
    against the never-treated arm at step T_b - 1, before any start.
    Returns (MetricsReport, per-episode dict).
    """
    n, n_arms, n_steps = cf.outcome.shape
    if y_pred.shape != (n, n_arms, n_steps):
        raise DimensionError("y_pred must match the counterfactual outcomes")
    ow = outcome_window(cfg)
    cw = covariate_window(cfg)
    if x_loc_pred.shape[:3] != (n, n_arms, cw.size) \
            or x_g_pred.shape[:3] != (n, n_arms, cw.size):
        raise DimensionError("covariate predictions must cover the "
                             "covariate window")

    # outcome error over evaluated steps and every arm
    abs_err = np.abs(y_pred[:, :, ow] - cf.outcome[:, :, ow])
    ep_outcome = abs_err.mean(axis=(1, 2))

    # covariate error: per-step euclidean distance, RMS-normalized per
    # variable so widths are comparable across covariate dimensionalities
    k = cf.x_local.shape[3]
    n_var = k * 5 + 1
    # entry j predicts world step T_b + j.  Indexing (not the whole array)
    # puts the step axis outermost in memory, as in the indexed truth; that
    # layout sets the order in which the mean below adds the errors up
    j = cw - cfg.burn_in
    d_loc = x_loc_pred[:, :, j] - cf.x_local[:, :, cw]
    d_g = x_g_pred[:, :, j] - cf.x_global[:, :, cw]
    sq = (d_loc ** 2).sum(axis=(3, 4)) + (d_g ** 2).sum(axis=3)
    ep_cov = np.sqrt(sq / n_var).mean(axis=(1, 2))

    # effect metrics on final-step estimates
    tau_true, best_true = ground_truth_ite(cf)
    tau_hat, best_pred = final_effects(y_pred, cf.arms[:-1])
    pehe_per_arm, ate_per_arm = effect_errors(tau_hat, tau_true)
    err = tau_hat - tau_true
    ep_pehe = np.sqrt((err ** 2).mean(axis=1))
    ep_ate = err.mean(axis=1)

    ep_timing = np.abs(best_pred.astype(np.float64) - best_true)

    base = cf.outcome[:, -1, cfg.burn_in - 1]
    ep_uplift = y_pred[:, :, ow].max(axis=(1, 2)) - base

    report = MetricsReport(
        l_outcome=float(ep_outcome.mean()), l_outcome_se=_se(ep_outcome),
        l_covariates=float(ep_cov.mean()), l_covariates_se=_se(ep_cov),
        pehe_sqrt=float(pehe_per_arm.mean()), pehe_sqrt_se=_se(ep_pehe),
        ate_abs_err=float(ate_per_arm.mean()), ate_abs_err_se=_se(ep_ate),
        timing_err=float(ep_timing.mean()), timing_err_se=_se(ep_timing),
        cf_uplift=float(ep_uplift.mean()), cf_uplift_se=_se(ep_uplift),
        n_episodes=n, variant=variant)
    per_episode = {"l_outcome": ep_outcome, "l_covariates": ep_cov,
                   "pehe_sqrt": ep_pehe, "ate_err": ep_ate,
                   "timing_err": ep_timing, "cf_uplift": ep_uplift,
                   "tau_hat": tau_hat, "tau_true": tau_true,
                   "best_pred": best_pred, "best_true": best_true}
    return report, per_episode


def evaluate(model: CrnModel, store: ParamStore, dataset: Dataset,
             mc_samples: int = 0, seed: int = 0, chunk: int = 32,
             dump_dir: str | None = None):
    """Predict every arm of the counterfactual set and score them.

    Read-only with respect to the parameters.  When dump_dir is given, the
    prediction arrays are written to dump_dir/dump.npz, alongside
    report.json and per_episode.csv; with the dataset's counterfactual set,
    `compute_metrics` recomputes every report field from them offline.
    """
    cf = dataset.cf
    if cf.outcome.shape[0] == 0:
        raise ContractError("evaluation needs a counterfactual set")
    pred = predict_ite(model, store, cf.x_local[:, -1], cf.x_global[:, -1],
                       arms=cf.arms[:-1], mc_samples=mc_samples, seed=seed,
                       chunk=chunk)
    report, per_episode = compute_metrics(
        cf, pred["y_all"], pred["x_loc_hat"], pred["x_g_hat"], model.cfg,
        variant=model.variant.value)
    if dump_dir is not None:
        write_eval_dump(Path(dump_dir), report, per_episode, pred)
    return report, per_episode, pred


DUMP_FILE = "dump.npz"
EVAL_DUMP_FORMAT = "eval-dump-v4"
_DUMP_ARRAYS = ("y_pred", "a_pred", "x_loc_pred", "x_g_pred")


def write_eval_dump(out: Path, report: MetricsReport, per_episode: dict,
                    pred: dict) -> None:
    out.mkdir(parents=True, exist_ok=True)
    values = (pred["y_all"], pred["a_all"], pred["x_loc_hat"],
              pred["x_g_hat"])
    artifact.save(out / DUMP_FILE, dict(zip(_DUMP_ARRAYS, values)),
                  {"format": EVAL_DUMP_FORMAT, "arms": pred["arms"]})

    (out / "report.json").write_text(report.to_json() + "\n")
    scalar_keys = [k for k in per_episode
                   if per_episode[k].ndim == 1]
    with open(out / "per_episode.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["episode"] + scalar_keys)
        for i in range(report.n_episodes):
            writer.writerow([i] + [repr(float(per_episode[k][i]))
                                   for k in scalar_keys])


def _check_dump(path: Path, arrays: dict, arms: list[int]) -> None:
    """The arms end in NEVER_TREATED, and the arrays are float64 and agree
    on y_pred's (n, A, T), A the arm count, and x_loc_pred's window W."""
    y, x_loc = arrays["y_pred"], arrays["x_loc_pred"]
    lead = y.shape[:1] + (len(arms),)
    want = {"y_pred": lead + y.shape[-1:], "a_pred": y.shape,
            "x_loc_pred": lead + x_loc.shape[2:4] + (5,),
            "x_g_pred": lead + x_loc.shape[2:3] + (1,)}
    if arms[-1:] != [NEVER_TREATED]:
        raise ContractError(f"eval dump {str(path)!r}: arms {arms} do not "
                            f"end in {NEVER_TREATED} (never treated)")
    for name, shape in want.items():
        arr = arrays[name]
        if arr.dtype != np.float64 or arr.shape != shape:
            raise ContractError(f"eval dump {str(path)!r}: {name} is "
                                f"{arr.dtype} {arr.shape}, expected float64 "
                                f"{shape} for arms {arms}")


def read_eval_dump(path: Path) -> dict:
    """Load a dump written by write_eval_dump, checked by `_check_dump`.

    Returns the arrays by name plus "arms", the arm list of the dump.
    """
    file = Path(path) / DUMP_FILE
    arrays, meta = artifact.load(file, _DUMP_ARRAYS, EVAL_DUMP_FORMAT,
                                 {"arms": [int]})
    _check_dump(file, arrays, meta["arms"])
    arrays["arms"] = meta["arms"]
    return arrays
