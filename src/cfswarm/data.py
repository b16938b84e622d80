"""Dataset assembly: factual splits, counterfactual test rollouts and the
on-disk format (one ``dataset.npz`` of float32 covariates and outcomes and
int32 intervention steps; see ``artifact``).  The file stores each fact
once: `load_dataset` rebuilds the treatments (`absorbing`), the arms and
the factual test split (`_test_split`) as generation builds them.

Episodes are simulated in chunks, each the rows of one `simulate_batch`
loop: at most CHUNK = 128 episodes and at most 2 CHUNK rows, counting an
episode's forks, so the 256/32/32 desk dataset takes four calls and a
chunk of counterfactual test episodes (six rows each) holds 42.  A larger
chunk saves little more per-call overhead and raises the peak memory
(CHUNK 256: about 4% more peak RSS for `cfswarm gen` on the desk world).
Each row is bitwise independent of its batch, so CHUNK never changes a
dataset.  A chunk's episode seeds are derived as one uint64 array
(`rng.derive_seeds`), equal word for word to per-episode `derive_seed`.
Rows are rounded to float32 and written into preallocated split arrays.
The counterfactual set is each test episode's untreated run plus
one fork per treatment start, taken from the untreated run at that step:
29 row-steps per test episode on the desk world instead of 84 for six full
re-runs.  The factual test split is each episode's assigned arm of that
set, so all arms agree bitwise before their start and the factual episode
is one of them.  Ground-truth effects compare each treated arm's final
outcome against the never-treated arm.
"""

import os
from dataclasses import dataclass

import numpy as np

from . import artifact
from .boids import SimConfig, simulate_batch
from .errors import ConfigError, ContractError
from .rng import Rng, derive_seed, derive_seeds

NEVER_TREATED = -1
UNTREATED_FRACTION = 1.0 / 3.0  # share of factual episodes never treated
CHUNK = 128  # episodes per simulation batch


@dataclass
class Split:
    """Stacked factual episodes."""

    x_local: np.ndarray    # (n, T, K, 5)
    x_global: np.ndarray   # (n, T, 1)
    treatment: np.ndarray  # (n, T) uint8
    outcome: np.ndarray    # (n, T)
    intervention: np.ndarray  # (n,) int32, NEVER_TREATED when untreated

    @property
    def n(self) -> int:
        return self.x_local.shape[0]


@dataclass
class CounterfactualSet:
    """All treatment arms of the test episodes.

    Arm order is each intervention step ascending, then never-treated last.
    """

    arms: list[int]        # intervention steps; NEVER_TREATED sentinel last
    x_local: np.ndarray    # (n, A, T, K, 5)
    x_global: np.ndarray   # (n, A, T, 1)
    treatment: np.ndarray  # (n, A, T) uint8
    outcome: np.ndarray    # (n, A, T)

    @property
    def n(self) -> int:
        return self.x_local.shape[0]


@dataclass
class Dataset:
    cfg: SimConfig
    seed: int
    train: Split
    val: Split
    test: Split
    cf: CounterfactualSet


def absorbing(starts, n_steps: int) -> np.ndarray:
    """(..., n_steps) uint8 treatment: 1 from each start on, 0 if never."""
    starts = np.asarray(starts)[..., None]
    return ((np.arange(n_steps) >= starts) & (starts >= 0)).astype(np.uint8)


def _assign(cfg: SimConfig, seed: int, name: str, n: int) -> np.ndarray:
    """Factual treatment start of each episode (NEVER_TREATED or a step)."""
    steps = np.array(cfg.intervention_steps, dtype=np.int32)
    # episode i reads uniforms 2i and 2i + 1 of the split's stream
    u = Rng(derive_seed(seed, f"assign/{name}")).uniforms(2 * n).reshape(n, 2)
    pick = np.minimum((u[:, 1] * len(steps)).astype(np.int64), len(steps) - 1)
    return np.where(u[:, 0] < UNTREATED_FRACTION, np.int32(NEVER_TREATED),
                    steps[pick])


def _simulate(cfg: SimConfig, seed: int, name: str, starts, forks=()):
    """(x_local, x_global, outcome) of episodes `name`/0..n-1.

    Arrays are (n, arms, T, ...): `forks` in order, then each episode's own
    start.  Each chunk (CHUNK episodes, fewer where their arms would pass
    2 CHUNK rows) is one `simulate_batch` call, rounded to float32 straight
    into arrays allocated once.
    """
    n, n_arms, t = len(starts), len(forks) + 1, cfg.n_steps
    out = (np.empty((n, n_arms, t, cfg.n_agents, 5)), np.empty((n, n_arms, t, 1)),
           np.empty((n, n_arms, t)))
    chunk = min(CHUNK, max(1, 2 * CHUNK // n_arms))
    for lo in range(0, n, chunk):
        hi = min(lo + chunk, n)
        seeds = derive_seeds(seed, f"episode/{name}",
                             np.arange(lo, hi, dtype=np.uint64))
        rows = simulate_batch(cfg, seeds, starts[lo:hi], forks)
        # rounded to float32, so in-memory data equals the file format;
        # the float64 arrays hold the float32 values exactly
        out[0][lo:hi] = rows.x_local.astype("<f4")
        out[1][lo:hi] = rows.x_global.astype("<f4")
        out[2][lo:hi] = rows.outcome.astype("<f4")
    return out


def _split(x_local, x_global, outcome, intervention) -> Split:
    return Split(x_local, x_global, absorbing(intervention, outcome.shape[-1]),
                 outcome, intervention)


def _factual_split(cfg: SimConfig, seed: int, name: str, n: int) -> Split:
    intervention = _assign(cfg, seed, name, n)
    starts = [None if a == NEVER_TREATED else int(a) for a in intervention]
    arrays = _simulate(cfg, seed, name, starts)
    return _split(*(a[:, 0] for a in arrays), intervention)


def _counterfactual_set(cfg, x_local, x_global, outcome) -> CounterfactualSet:
    """The arms of (n, A, T, ...) arrays: the window's starts, then never."""
    arms = cfg.intervention_steps + [NEVER_TREATED]
    treatment = absorbing(np.tile(arms, (len(outcome), 1)), cfg.n_steps)
    return CounterfactualSet(arms, x_local, x_global, treatment, outcome)


def _test_split(cf: CounterfactualSet, intervention: np.ndarray) -> Split:
    """The factual test split: each episode's assigned counterfactual arm."""
    rows = np.arange(cf.n)
    arm = [cf.arms.index(int(a)) for a in intervention]
    return _split(cf.x_local[rows, arm], cf.x_global[rows, arm],
                  cf.outcome[rows, arm], intervention)


def generate_dataset(cfg: SimConfig, n_train: int, n_val: int, n_test: int,
                     seed: int) -> Dataset:
    """Simulate every split plus the test counterfactual arms.

    Episode seeds are derived from (seed, split, index), so any subset can be
    regenerated independently and sharding cannot change results.
    """
    cfg.validate()
    if min(n_train, n_val, n_test) < 1:
        raise ConfigError("every split needs at least one episode")
    cf = _counterfactual_set(cfg, *_simulate(
        cfg, seed, "test", [None] * n_test, cfg.intervention_steps))
    return Dataset(
        cfg=cfg,
        seed=seed,
        train=_factual_split(cfg, seed, "train", n_train),
        val=_factual_split(cfg, seed, "val", n_val),
        test=_test_split(cf, _assign(cfg, seed, "test", n_test)),
        cf=cf,
    )


def final_effects(outcome: np.ndarray, treated_steps):
    """(tau, best_timing) from (n, A, T) outcomes, never-treated arm last.

    tau[i, a] is the final outcome of the arm starting at treated_steps[a]
    minus the never-treated arm's; best_timing[i] is the start whose final
    outcome is largest (earliest wins ties).
    """
    final = outcome[:, :, -1]
    tau = final[:, :-1] - final[:, -1:]
    best = np.array(treated_steps)[np.argmax(final[:, :-1], axis=1)]
    return tau, best


def ground_truth_ite(cf: CounterfactualSet):
    """`final_effects` of the simulated counterfactual arms."""
    if cf.arms[-1] != NEVER_TREATED:
        raise ContractError("expected the never-treated arm last")
    return final_effects(cf.outcome, cf.arms[:-1])


# ---------------------------------------------------------------------------
# on-disk format: one <dir>/dataset.npz, floats stored as float32

DATASET_FILE = "dataset.npz"
DATASET_FORMAT = "trajset-v3"
_SPLIT_FIELDS = ("x_local", "x_global", "outcome", "intervention")
_CF_FIELDS = ("x_local", "x_global", "outcome")
_PARTS = (("train", _SPLIT_FIELDS), ("val", _SPLIT_FIELDS),
          ("test", ("intervention",)), ("cf", _CF_FIELDS))


def save_dataset(ds: Dataset, out_dir: str) -> list[str]:
    """Write <out_dir>/dataset.npz; returns the list of written paths."""
    os.makedirs(out_dir, exist_ok=True)
    arrays = {}
    for part, names in _PARTS:
        for name in names:
            arr = getattr(getattr(ds, part), name)
            if arr.dtype == np.float64:
                arr = arr.astype("<f4")
            arrays[f"{part}_{name}"] = arr
    path = os.path.join(out_dir, DATASET_FILE)
    artifact.save(path, arrays, {"format": DATASET_FORMAT, "seed": ds.seed,
                                 "sim": ds.cfg.echo()})
    return [path]


def sim_config_from_echo(echo: dict) -> SimConfig:
    """The SimConfig that `SimConfig.echo` wrote, read by the literal rules
    of a config file's [sim] values: a malformed value is a ConfigError."""
    from .config import _apply  # config imports training, which imports data

    cfg = SimConfig()
    for f in SimConfig.__dataclass_fields__:
        if f not in echo:
            raise ConfigError(f"dataset metadata missing sim field {f!r}")
        _apply(cfg, "dataset sim", {f: echo[f]})
    return cfg.validate()


def _check_shapes(path: str, arrays: dict, cfg: SimConfig) -> None:
    """Every array's shape follows from its split's episode count n and the
    stored world's T, K and arm count; the test starts share the
    counterfactual set's n.  Covariates and outcomes are float32, as
    `save_dataset` writes them.  Every start is an integer in the world's
    window or NEVER_TREATED."""
    t, k = cfg.n_steps, cfg.n_agents
    starts = cfg.intervention_steps + [NEVER_TREATED]
    tails = {"x_local": (t, k, 5), "x_global": (t, 1), "outcome": (t,),
             "intervention": ()}
    leads = {part: arrays[f"{part}_x_local"].shape[:1]
             for part in ("train", "val")}
    leads["test"] = arrays["cf_x_local"].shape[:1]
    leads["cf"] = leads["test"] + (len(starts),)
    for part, names in _PARTS:
        for name in names:
            key, want = f"{part}_{name}", leads[part] + tails[name]
            if arrays[key].shape != want:
                raise ContractError(f"dataset {path!r}: {key} has shape "
                                    f"{arrays[key].shape}, expected {want}")
            if name != "intervention" and arrays[key].dtype != np.float32:
                raise ContractError(f"dataset {path!r}: {key} has dtype "
                                    f"{arrays[key].dtype}, expected float32")
    for key in ("train_intervention", "val_intervention", "test_intervention"):
        if arrays[key].dtype.kind not in "iu" or \
                not np.isin(arrays[key], starts).all():
            raise ContractError(f"dataset {path!r}: {key} holds a value that "
                                f"is not an integer in {starts}")


def load_dataset(out_dir: str) -> Dataset:
    """Read <out_dir>/dataset.npz; floats come back as float64, and the
    treatments, arms and factual test split are rebuilt as generation
    builds them.  Arrays whose shapes disagree with each other or with the
    stored [sim], float arrays that are not float32, or starts outside its
    window, are a ContractError naming the array."""
    path = os.path.join(out_dir, DATASET_FILE)
    arrays, meta = artifact.load(
        path, [f"{part}_{name}" for part, names in _PARTS for name in names],
        DATASET_FORMAT, {"seed": int, "sim": {str: str}})
    cfg = sim_config_from_echo(meta["sim"])
    _check_shapes(path, arrays, cfg)
    arrays = {key: arr.astype(np.float64) if arr.dtype == np.float32 else arr
              for key, arr in arrays.items()}
    part = {p: [arrays[f"{p}_{name}"] for name in names] for p, names in _PARTS}
    cf = _counterfactual_set(cfg, *part["cf"])
    return Dataset(cfg=cfg, seed=meta["seed"], train=_split(*part["train"]),
                   val=_split(*part["val"]), cf=cf,
                   test=_test_split(cf, *part["test"]))
