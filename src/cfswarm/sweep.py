"""One-at-a-time sensitivity sweep over the loss weights.

Each grid point retrains the model from scratch on the same dataset with
the same seeds and evaluates the selected checkpoint, so rows are
independent of execution order and a size-1 grid reduces to a single
train + evaluate.  The default grid varies alpha, gamma, and lambda one at
a time over {0.01, 0.1, 1.0} around the all-0.1 default, giving 7 distinct
rows including the default itself.
"""

import csv
from dataclasses import replace
from pathlib import Path

from .config import _WEIGHT_KEYS, RunConfig, _apply
from .data import Dataset
from .errors import ConfigError
from .losses import LossWeights
from .metrics import REPORT_METRICS, evaluate
from .model import CrnModel
from .training import train

SWEEP_VALUES = (0.01, 0.1, 1.0)

TABLE_COLUMNS = ("alpha", "gamma", "lambda", *REPORT_METRICS, "best_epoch")


def default_grid() -> list[LossWeights]:
    """Default + each weight varied alone: 7 rows for the 3-value grid."""
    base = LossWeights()
    grid = [base]
    for attr in ("alpha", "gamma", "lam"):
        for v in SWEEP_VALUES:
            if v == getattr(base, attr):
                continue
            grid.append(replace(base, **{attr: v}))
    return grid


def load_grid(path: str | Path) -> list[LossWeights]:
    """Read a grid file: CSV with header alpha,gamma,lambda, each cell read
    by the rules of a [train] loss weight."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = [row for row in csv.reader(fh) if row]
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(
            f"cannot read grid file {str(path)!r}: {exc}") from exc
    header = [name.strip() for name in rows[0]] if rows else []
    if sorted(header) != sorted(_WEIGHT_KEYS):
        raise ConfigError(
            "grid file needs exactly the columns alpha,gamma,lambda")
    grid = []
    for row in rows[1:]:
        if len(row) != len(header):
            raise ConfigError(f"grid row {row!r} needs {len(header)} cells")
        weights = LossWeights()
        _apply(weights, "grid", {key: cell.strip()
                                 for key, cell in zip(header, row)})
        grid.append(weights.validate())
    if not grid:
        raise ConfigError("grid file holds no rows")
    return grid


def _run_point(run_cfg: RunConfig, dataset: Dataset,
               weights: LossWeights) -> dict:
    model = CrnModel(run_cfg.variant, dataset.cfg, run_cfg.dims)
    tcfg = replace(run_cfg.train, weights=weights)
    store, summary = train(model, dataset, tcfg)
    report, _, _ = evaluate(model, store, dataset,
                            mc_samples=run_cfg.eval.mc_samples,
                            seed=run_cfg.eval.seed, chunk=run_cfg.eval.chunk)
    return {"alpha": weights.alpha, "gamma": weights.gamma,
            "lambda": weights.lam, "best_epoch": summary["best_epoch"],
            "report": report}


def sensitivity_sweep(run_cfg: RunConfig, dataset: Dataset,
                      grid: list[LossWeights] | None = None,
                      log=None) -> list[dict]:
    """Train + evaluate once per grid point with identical seeds.

    Returns one row per point: the weights, the selected epoch, and the
    full MetricsReport under "report".
    """
    if grid is None:
        grid = default_grid()
    rows = []
    for i, weights in enumerate(grid):
        row = _run_point(run_cfg, dataset, weights.validate())
        rows.append(row)
        if log is not None:
            log(f"[sweep {i + 1}/{len(grid)}] alpha={weights.alpha:g} "
                f"gamma={weights.gamma:g} lambda={weights.lam:g} "
                f"l_outcome={row['report'].l_outcome:.4f} "
                f"l_covariates={row['report'].l_covariates:.4f}")
    return rows


def _flat_row(row: dict) -> dict:
    report = row["report"]
    return {k: getattr(report, k) if k in REPORT_METRICS else row[k]
            for k in TABLE_COLUMNS}


def format_table(rows: list[dict]) -> str:
    """Fixed-width text table mirroring the sweep CSV columns."""
    flat = [_flat_row(r) for r in rows]
    cells = [[f"{r[c]:.4f}" if isinstance(r[c], float) else str(r[c])
              for c in TABLE_COLUMNS] for r in flat]
    widths = [max(len(c), *(len(row[j]) for row in cells))
              for j, c in enumerate(TABLE_COLUMNS)]
    lines = ["  ".join(c.rjust(w) for c, w in zip(TABLE_COLUMNS, widths))]
    for row in cells:
        lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def write_sweep_csv(rows: list[dict], path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(TABLE_COLUMNS))
        writer.writeheader()
        for row in rows:
            writer.writerow({k: repr(v) if isinstance(v, float) else v
                             for k, v in _flat_row(row).items()})


def covariate_tradeoff(rows: list[dict]) -> dict | None:
    """Soft check: larger gamma should not worsen covariate error.

    Compares the gamma=1.0 and gamma=0.01 one-at-a-time rows (alpha and
    lambda at their defaults); returns None when the grid lacks them.
    """
    base = LossWeights()

    def find(gamma):
        for row in rows:
            if (row["gamma"] == gamma and row["alpha"] == base.alpha
                    and row["lambda"] == base.lam):
                return row
        return None

    hi, lo = find(1.0), find(0.01)
    if hi is None or lo is None:
        return None
    return {"l_cov_gamma_hi": hi["report"].l_covariates,
            "l_cov_gamma_lo": lo["report"].l_covariates,
            "holds": hi["report"].l_covariates
            <= lo["report"].l_covariates}
