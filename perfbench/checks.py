"""Output checks that feed `failed` and the stored references they use.

gen-desk is compared exactly (a digest of the arrays `load_dataset`
returns; gen is bitwise deterministic).  train-desk (loss_log.csv and the
per-parameter sums of the `last` checkpoint) and eval-desk (report.json
and y_pred) are compared with |observed - ref| <= ATOL + RTOL * |ref|.
The tolerance sits about seven orders of magnitude above the 1e-15 moves
that reordering floating-point sums produces, and several below what a
wrong backward rule (train) or a changed prediction (eval) produces.
"""

import json
import math
from pathlib import Path

import numpy as np

RTOL = 1e-8
ATOL = 1e-11
REFS = Path(__file__).resolve().parent / "refs"


def ref_path(seed: int, refs: Path = REFS) -> Path:
    return refs / f"seed-{seed}.json"


def load_refs(seed: int, refs: Path = REFS) -> dict | None:
    """Stored references for `seed`, or None when none were shipped."""
    path = ref_path(seed, refs)
    if not path.is_file():
        return None
    stored = json.loads(path.read_text())
    ev = stored.get("eval-desk")
    if ev is not None:
        ev["y_pred"] = np.load(refs / ev.pop("y_pred_file"),
                               allow_pickle=False)
    return stored


def save_refs(seed: int, observed: dict, refs: Path = REFS) -> Path:
    """Write `observed` (workload name -> observation) as references."""
    refs.mkdir(parents=True, exist_ok=True)
    stored = {"seed": seed}
    for name, obs in observed.items():
        obs = dict(obs)
        obs.pop("nonfinite", None)
        if "y_pred" in obs:
            fname = f"seed-{seed}-{name}-y_pred.npy"
            np.save(refs / fname, obs.pop("y_pred"), allow_pickle=False)
            obs["y_pred_file"] = fname
        stored[name] = obs
    path = ref_path(seed, refs)
    path.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")
    return path


def _close(label, observed, expected, problems):
    obs = np.asarray(observed, dtype=np.float64)
    exp = np.asarray(expected, dtype=np.float64)
    if obs.shape != exp.shape:
        problems.append(f"{label}: shape {obs.shape} != reference {exp.shape}")
        return
    bad = ~(np.abs(obs - exp) <= ATOL + RTOL * np.abs(exp))
    if bad.any():
        worst = float(np.max(np.abs(obs - exp)[bad]))
        problems.append(f"{label}: {int(bad.sum())} value(s) off the "
                        f"reference, worst by {worst:.3e}")


def _nonfinite(observed: dict) -> int:
    if "nonfinite" in observed:
        return observed["nonfinite"]
    values = []
    for key, val in observed.items():
        if key == "report":
            values += [v for v in val.values() if isinstance(v, float)]
        elif key == "y_pred":
            values += list(np.ravel(val))
        elif key == "loss_log":
            values += [v for row in val for v in row]
        elif key == "last_param_sums":
            values += list(val.values())
    return sum(not math.isfinite(v) for v in values)


def problems(observed: dict, ref: dict | None) -> list:
    """Why `observed` is wrong (empty when it passes).

    Finiteness is always checked; the comparison only when `ref` is given.
    """
    found = []
    bad = _nonfinite(observed)
    if bad:
        found.append(f"{bad} non-finite output value(s)")
    if ref is None:
        return found
    if "dataset_sha256" in ref:
        if observed["dataset_sha256"] != ref["dataset_sha256"]:
            found.append("dataset arrays differ from the reference digest")
    if "loss_log" in ref:
        if observed["columns"] != ref["columns"]:
            found.append("loss_log.csv columns differ from the reference")
        else:
            _close("loss_log.csv", observed["loss_log"], ref["loss_log"],
                   found)
        names = sorted(ref["last_param_sums"])
        if sorted(observed["last_param_sums"]) != names:
            found.append("checkpoint parameter names differ")
        else:
            _close("last checkpoint parameter sums",
                   [observed["last_param_sums"][n] for n in names],
                   [ref["last_param_sums"][n] for n in names], found)
    if "report" in ref:
        keys = sorted(ref["report"])
        if sorted(observed["report"]) != keys:
            found.append("report.json fields differ from the reference")
        else:
            for key in keys:
                exp = ref["report"][key]
                got = observed["report"][key]
                if isinstance(exp, str):
                    if got != exp:
                        found.append(f"report.json {key}: {got!r} != {exp!r}")
                else:
                    _close(f"report.json {key}", got, exp, found)
        _close("y_pred", observed["y_pred"], ref["y_pred"], found)
    return found
