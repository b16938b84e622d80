"""Sectioned key=value run configuration.

One INI file describes a whole run: [sim] world parameters, [data] split
sizes, [model] variant and widths, [train] optimization settings and loss
weights, [eval] prediction settings.  Unknown sections or keys are rejected
so typos fail loudly; every section is optional and omitted keys keep their
defaults.
"""

import ast
import configparser
import math
from dataclasses import dataclass, field, fields
from pathlib import Path

from .boids import SimConfig
from .errors import ConfigError
from .model import ModelDims, ModelVariant
from .training import TrainConfig


@dataclass
class DataConfig:
    n_train: int = 2000
    n_val: int = 200
    n_test: int = 200
    seed: int = 0

    def validate(self) -> "DataConfig":
        if min(self.n_train, self.n_val, self.n_test) < 1:
            raise ConfigError("every split needs at least one episode")
        return self


@dataclass
class EvalConfig:
    mc_samples: int = 0
    chunk: int = 32
    seed: int = 0

    def validate(self) -> "EvalConfig":
        if self.mc_samples < 0 or self.chunk < 1:
            raise ConfigError("mc_samples must be >= 0 and chunk positive")
        return self


@dataclass
class PathsConfig:
    dataset_dir: str = ""
    out_dir: str = ""


@dataclass
class RunConfig:
    sim: SimConfig = field(default_factory=SimConfig)
    data: DataConfig = field(default_factory=DataConfig)
    variant: ModelVariant = ModelVariant.TGV_CRN
    dims: ModelDims = field(default_factory=ModelDims)
    train: TrainConfig = field(default_factory=TrainConfig)
    eval: EvalConfig = field(default_factory=EvalConfig)
    paths: PathsConfig = field(default_factory=PathsConfig)

    def validate(self) -> "RunConfig":
        self.sim.validate()
        self.data.validate()
        self.dims.validate()
        self.train.validate()
        self.eval.validate()
        return self


_WEIGHT_KEYS = ("alpha", "gamma", "lambda")
_ATTRS = {"lambda": "lam"}  # INI keys whose field name differs


def _apply(obj, section: str, items: dict[str, str]) -> None:
    valid = {f.name: f.type for f in fields(obj)}
    for key, raw in items.items():
        attr = _ATTRS.get(key, key)
        if attr not in valid:
            raise ConfigError(f"unknown key {key!r} in section [{section}]")
        current = getattr(obj, attr)
        if isinstance(current, str):
            setattr(obj, attr, raw.strip())
            continue
        try:
            value = ast.literal_eval(raw)
        except (ValueError, SyntaxError) as exc:
            raise ConfigError(
                f"bad {section}.{key}: bad literal {raw!r}") from exc
        if isinstance(current, (int, float)) and \
                (isinstance(value, bool) or not isinstance(value, (int, float))):
            raise ConfigError(f"{section}.{key} must be a number, not {raw!r}")
        elif isinstance(current, (int, float)) and not math.isfinite(value):
            raise ConfigError(f"{section}.{key} must be finite, not {raw!r}")
        elif isinstance(current, int):
            if isinstance(value, float) and not value.is_integer():
                raise ConfigError(f"{section}.{key} must be an integer")
            value = int(value)
        elif isinstance(current, float):
            value = float(value)
        setattr(obj, attr, value)


def load_config(path: str | Path) -> RunConfig:
    parser = configparser.ConfigParser()
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except (OSError, UnicodeDecodeError, configparser.Error) as exc:
        raise ConfigError(f"cannot read {str(path)!r}: {exc}") from exc
    cfg = RunConfig()
    known = {"sim", "data", "model", "train", "eval", "paths"}
    unknown = set(parser.sections()) - known
    if unknown:
        raise ConfigError(f"unknown config sections: {sorted(unknown)}")

    if parser.has_section("sim"):
        _apply(cfg.sim, "sim", dict(parser["sim"]))
    if parser.has_section("data"):
        _apply(cfg.data, "data", dict(parser["data"]))
    if parser.has_section("model"):
        items = dict(parser["model"])
        if "variant" in items:
            try:
                cfg.variant = ModelVariant(items.pop("variant"))
            except ValueError as exc:
                raise ConfigError(f"unknown model variant: {exc}") from exc
        _apply(cfg.dims, "model", items)
    if parser.has_section("train"):
        items = dict(parser["train"])
        if "weights" in items:
            raise ConfigError(
                "set loss weights via alpha / gamma / lambda, not 'weights'")
        _apply(cfg.train.weights, "train",
               {key: items.pop(key) for key in _WEIGHT_KEYS if key in items})
        _apply(cfg.train, "train", items)
    if parser.has_section("eval"):
        _apply(cfg.eval, "eval", dict(parser["eval"]))
    if parser.has_section("paths"):
        _apply(cfg.paths, "paths", dict(parser["paths"]))
    return cfg.validate()


def require_sim_match(expected: SimConfig, found: SimConfig,
                      context: str) -> None:
    """Fail when a dataset was generated under different world parameters.

    Training or evaluating against a dataset whose simulator settings
    differ from the run config would silently mis-scale covariates, so the
    mismatch is fatal.
    """
    diffs = [f.name for f in fields(SimConfig)
             if getattr(expected, f.name) != getattr(found, f.name)]
    if diffs:
        raise ConfigError(
            f"{context}: dataset simulator settings disagree with the run "
            f"config on {diffs}")

