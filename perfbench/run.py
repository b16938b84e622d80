"""cfswarm benchmark: one workload per process, through `cfswarm.cli.main`.

    python3 perfbench/run.py --workload train-desk --seed 0 --seconds 38 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 38

`--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer metrics
of a traced run.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.  `--workload all` runs every
workload in its own process, one after the other, and prints a table.
Workloads, metrics and checks are described in README.md.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("train-desk", "eval-desk", "gen-desk")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# glibc mallopt parameters and the values its dynamic rule converges to
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
MALLOC_THRESHOLDS = {"mmap": 32 << 20, "trim": 64 << 20}


def pin_blas_threads():
    """One BLAS thread; must run before numpy is first imported."""
    for var in BLAS_VARS:
        os.environ[var] = "1"


def pin_malloc():
    """Fix glibc's malloc thresholds at the values its dynamic rule reaches
    once a 32 MiB block has been freed: mmap 32 MiB, trim twice that.

    Left dynamic, the thresholds depend on what the process freed before.
    Every array at or above the mmap threshold is then a fresh mmap, and
    heap above the trim threshold goes back to the kernel, so their pages
    fault in again on first touch: at this commit that is about 40% of an
    eval call, and its cost follows the host's memory pressure, so runs of
    the same code differed by a third.  Returns the thresholds set, or None
    where glibc's mallopt is not available.
    """
    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        return None
    ok = mallopt(M_MMAP_THRESHOLD, MALLOC_THRESHOLDS["mmap"]) == 1
    ok &= mallopt(M_TRIM_THRESHOLD, MALLOC_THRESHOLDS["trim"]) == 1
    return dict(MALLOC_THRESHOLDS) if ok else None


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=38.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_all(args) -> int:
    """Each workload in a fresh process, one at a time; prints a table."""
    rows, merged = [], {"correct": True, "attempted": 0, "failed": 0,
                        "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"error: {name} exited with {proc.returncode}",
                  file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        rows.append((name, result))
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            merged["metrics"][f"{name}.{key}"] = metric
    for name, result in rows:
        print(f"{name}:")
        print_metrics(result)
    print(json.dumps(merged))
    return 0


def print_metrics(result):
    for key, metric in result["metrics"].items():
        print(f"  {key:32s} {metric['value']:14.6g} {metric['unit']}")
    frac = result["failed"] / result["attempted"]
    print(f"  {'failed_fraction':32s} {frac:14.6g} failed/attempted "
          f"({result['failed']}/{result['attempted']})")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "cfswarm" / "__init__.py").is_file():
        print(f"error: no cfswarm sources at {ROOT / 'src' / 'cfswarm'}; "
              "run the benchmark from a checkout of the repository",
              file=sys.stderr)
        return 2
    pin_blas_threads()
    if args.workload == "all":
        return run_all(args)

    malloc = pin_malloc()
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import cfswarm
    if ROOT / "src" not in Path(cfswarm.__file__).resolve().parents:
        print(f"error: imported cfswarm from {cfswarm.__file__}, not from "
              f"{ROOT / 'src'}", file=sys.stderr)
        return 2
    import checks
    import harness
    import_s = time.perf_counter() - STARTED

    result = harness.measure(args.workload, args.seed, args.seconds,
                             bool(args.trace), ROOT, import_s,
                             refs=checks.load_refs(args.seed))
    detail = result.pop("detail")
    detail["env"]["malloc_thresholds"] = malloc
    out = ROOT / ".perfbench" / "results" / \
        f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({**result, "detail": detail}, indent=1) + "\n")
    for note in detail["notes"]:
        print(note)
    print(f"{args.workload} seed {args.seed}: {len(detail['call_seconds'])} "
          f"timed calls of {detail['episodes_per_call']} episodes")
    print_metrics(result)
    print("env " + json.dumps(detail["env"], sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
