"""Command-line entry points.

Subcommands: gen (write a dataset), train (fit a variant on a dataset),
eval (score a checkpoint on the counterfactual test set and dump every
arm's predicted trajectories), gradcheck (finite-difference audit), sweep
(loss-weight sensitivity table).  Every command is driven by one sectioned
config file; --out (and --checkpoint, which only eval takes) override the
[paths] section.  Each command writes run_manifest.json with sha256
checksums of its output files, so identical configs and seeds give
identical checksums, and the peak resident memory of the command and of
its largest worker process.

Exit codes: 0 success, 1 contract/config error, 2 numeric failure.
"""

import argparse
import hashlib
import json
import resource
import sys
import time
from dataclasses import asdict
from pathlib import Path

from . import __version__, parallel
from .config import RunConfig, load_config, require_sim_match
from .data import Dataset, generate_dataset, ground_truth_ite, load_dataset, \
    save_dataset
from .errors import ConfigError, ContractError, NumericError
from .gradcheck import run_gradcheck
from .metrics import evaluate
from .model import CrnModel
from .optim import load_checkpoint
from .sweep import covariate_tradeoff, default_grid, format_table, \
    load_grid, sensitivity_sweep, write_sweep_csv
from .training import train

MANIFEST_NAME = "run_manifest.json"


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _config_echo(cfg: RunConfig) -> dict:
    echo = asdict(cfg)
    echo["variant"] = cfg.variant.value
    return echo


def _peak_rss_mib() -> dict:
    """Peak resident set of this process and of the largest child it has
    waited for (fork_map's workers), in MiB."""
    # ru_maxrss is in KiB, and in bytes on macOS
    unit = 1024.0 ** (2 if sys.platform == "darwin" else 1)
    return {who: round(resource.getrusage(flag).ru_maxrss / unit, 1)
            for who, flag in (("caller", resource.RUSAGE_SELF),
                              ("largest_child", resource.RUSAGE_CHILDREN))}


def write_run_manifest(out_dir: Path, command: str, cfg: RunConfig,
                       started: float, extra: dict | None = None) -> Path:
    """Checksum every produced file; the manifest never checksums itself."""
    out_dir = Path(out_dir)
    files = {}
    for path in sorted(out_dir.rglob("*")):
        if path.is_file() and path.name != MANIFEST_NAME:
            files[str(path.relative_to(out_dir))] = _sha256(path)
    manifest = {
        "format": "run-manifest-v1",
        "command": command,
        "version": __version__,
        "config": _config_echo(cfg),
        "seed": {"data": cfg.data.seed, "train": cfg.train.seed,
                 "eval": cfg.eval.seed},
        "wall_clock_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ",
                                        time.gmtime(started)),
        "duration_s": round(time.time() - started, 3),
        "files": files,
        "peak_rss_mib": _peak_rss_mib(),
    }
    if extra:
        manifest.update(extra)
    path = out_dir / MANIFEST_NAME
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return path


def _resolve_out(cfg: RunConfig, args, command: str) -> Path:
    out = args.out or cfg.paths.out_dir
    if not out:
        raise ConfigError(
            f"{command} needs an output directory: pass --out or set "
            "[paths] out_dir")
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_dataset_checked(cfg: RunConfig, command: str) -> Dataset:
    if not cfg.paths.dataset_dir:
        raise ConfigError(f"{command} needs [paths] dataset_dir")
    ds = load_dataset(cfg.paths.dataset_dir)
    require_sim_match(cfg.sim, ds.cfg, command)
    return ds


def _load_checkpoint_checked(cfg: RunConfig, args, command: str):
    stem = args.checkpoint or (Path(cfg.paths.out_dir) / "best"
                               if cfg.paths.out_dir else None)
    if stem is None:
        raise ConfigError(
            f"{command} needs a checkpoint: pass --checkpoint or set "
            "[paths] out_dir so <out_dir>/best resolves")
    store = load_checkpoint(str(stem))
    saved = store.meta.get("variant", "")
    if saved and saved != cfg.variant.value:
        raise ConfigError(
            f"checkpoint was trained as {saved!r} but the config asks for "
            f"{cfg.variant.value!r}")
    return store


def cmd_gen(cfg: RunConfig, args) -> int:
    started = time.time()
    out = args.out or cfg.paths.dataset_dir
    if not out:
        raise ConfigError("gen needs --out or [paths] dataset_dir")
    ds = generate_dataset(cfg.sim, cfg.data.n_train, cfg.data.n_val,
                          cfg.data.n_test, seed=cfg.data.seed)
    save_dataset(ds, str(out))
    tau, _ = ground_truth_ite(ds.cf)
    write_run_manifest(Path(out), "gen", cfg, started)
    print(f"dataset: {ds.train.n} train / {ds.val.n} val / {ds.test.n} test "
          f"episodes -> {out}")
    print(f"ground-truth final-step effect: mean {tau[:, -1].mean():+.4f} "
          f"over {tau.shape[0]} test episodes x {tau.shape[1]} arms")
    return 0


def cmd_train(cfg: RunConfig, args) -> int:
    started = time.time()
    out = _resolve_out(cfg, args, "train")
    ds = _load_dataset_checked(cfg, "train")
    model = CrnModel(cfg.variant, ds.cfg, cfg.dims)
    store, summary = train(model, ds, cfg.train, out_dir=out)
    most = max(min(cfg.train.batch_size, ds.train.n), ds.val.n)
    write_run_manifest(out, "train", cfg, started,
                       extra={"best_epoch": summary["best_epoch"],
                              "best_val": summary["best_val"],
                              "clip_events": summary["clip_events"],
                              "processes": parallel.process_count(
                                  -(-most // cfg.train.micro_batch))})
    last = summary["rows"][-1] if summary["rows"] else None
    print(f"trained {cfg.variant.value} for {summary['epochs']} epochs; "
          f"best validation total {summary['best_val']:.6f} at epoch "
          f"{summary['best_epoch']} "
          f"(initial {summary['initial_val']['total']:.6f})")
    if last is not None:
        print(f"final train l_y {last['train_l_y']:.6f}, "
              f"val l_y {last['val_l_y']:.6f}")
    print(f"checkpoints, loss_log.csv and steps.csv -> {out}")
    return 0


def cmd_eval(cfg: RunConfig, args) -> int:
    started = time.time()
    out = _resolve_out(cfg, args, "eval")
    ds = _load_dataset_checked(cfg, "eval")
    store = _load_checkpoint_checked(cfg, args, "eval")
    model = CrnModel(cfg.variant, ds.cfg, cfg.dims)
    report, _, _ = evaluate(model, store, ds,
                            mc_samples=cfg.eval.mc_samples,
                            seed=cfg.eval.seed, chunk=cfg.eval.chunk,
                            dump_dir=str(out))
    write_run_manifest(out, "eval", cfg, started, extra={
        "processes": parallel.process_count(-(-ds.test.n // cfg.eval.chunk))})
    print(f"evaluated {cfg.variant.value} on {report.n_episodes} episodes")
    for name in ("l_outcome", "l_covariates", "pehe_sqrt", "ate_abs_err",
                 "timing_err", "cf_uplift"):
        value = getattr(report, name)
        se = getattr(report, name + "_se")
        print(f"  {name:13s} {value:.4f} (se {se:.4f})")
    print(f"report.json, per_episode.csv, dump -> {out}")
    return 0


def cmd_gradcheck(cfg: RunConfig, args) -> int:
    started = time.time()
    result = run_gradcheck(variants=(cfg.variant,))
    rows = [("op", k, v, result["tolerances"]["ops"])
            for k, v in sorted(result["ops"].items())]
    rows += [("block", k, v, result["tolerances"]["ops"])
             for k, v in sorted(result["blocks"].items())]
    rows += [("end-to-end", k, v, result["tolerances"]["end_to_end"])
             for k, v in sorted(result["end_to_end"].items())]
    width = max(len(name) for _, name, _, _ in rows)
    for kind, name, err, tol in rows:
        flag = "pass" if err < tol else "FAIL"
        print(f"{kind:10s} {name:{width}s} {err:10.3e}  {flag}")
    for name, ok in result["grl"].items():
        print(f"{'reversal':10s} {name:{width}s} {'':10s}  "
              f"{'pass' if ok else 'FAIL'}")
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "gradcheck.json").write_text(
            json.dumps(result, indent=2, sort_keys=True) + "\n")
        write_run_manifest(out, "gradcheck", cfg, started)
    if not result["passed"]:
        raise NumericError("gradient checks failed; see table above")
    print("all gradient checks passed")
    return 0


def cmd_sweep(cfg: RunConfig, args) -> int:
    started = time.time()
    ds = _load_dataset_checked(cfg, "sweep")
    grid = load_grid(args.grid) if args.grid else default_grid()
    rows = sensitivity_sweep(cfg, ds, grid, log=print)
    print(format_table(rows))
    tradeoff = covariate_tradeoff(rows)
    if tradeoff is not None:
        print(f"soft check gamma=1.0 l_covariates "
              f"{tradeoff['l_cov_gamma_hi']:.4f} <= gamma=0.01 "
              f"{tradeoff['l_cov_gamma_lo']:.4f}: "
              f"{'holds' if tradeoff['holds'] else 'violated (reported only)'}")
    if args.out or cfg.paths.out_dir:
        out = _resolve_out(cfg, args, "sweep")
        write_sweep_csv(rows, out / "sweep.csv")
        write_run_manifest(out, "sweep", cfg, started)
        print(f"sweep.csv -> {out}")
    return 0


COMMANDS = {
    "gen": cmd_gen,
    "train": cmd_train,
    "eval": cmd_eval,
    "gradcheck": cmd_gradcheck,
    "sweep": cmd_sweep,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cfswarm",
        description="counterfactual effect estimation on flocking worlds")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True,
                       help="sectioned key=value run config")
        p.add_argument("--out", default=None,
                       help="output directory (overrides [paths])")
        if name == "eval":
            p.add_argument("--checkpoint", default=None,
                           help="checkpoint stem to load")
        if name == "sweep":
            p.add_argument("--grid", default=None,
                           help="CSV grid file with columns "
                                "alpha,gamma,lambda")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        return COMMANDS[args.command](cfg, args)
    except ContractError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
