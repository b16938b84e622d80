"""Set-up, the timed loop and the result of one benchmark run.

A run is one process and one workload.  Set-up builds the workload's
inputs and makes one warm-up call on a smaller input, SETUP_REPEATS times;
the median repetition counts.  The timed loop then calls the workload's
cfswarm command until the next call would end past `seconds`, collecting
garbage before each call outside the timing, checks each call's outputs
and reports the lower quartile of the per-call rates.  With `trace` the
calls alternate between untraced and traced, so both rates come from the
same process and the traced outputs are compared bitwise with the
untraced ones.
"""

import gc
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

import numpy as np

import checks
import tracer as tracing
from workloads import WORKLOADS, Workload, observe, output_digest, prepare, \
    run_cli

SETUP_REPEATS = 3
END_TO_END = (("episodes_per_s", "episodes/s"), ("setup_s", "s"),
              ("peak_rss_mib", "MiB"))


def src_lines(root: Path) -> int:
    return sum(len(p.read_bytes().splitlines())
               for p in sorted((root / "src").rglob("*.py")))


def environment(root: Path) -> dict:
    """What a result was measured on."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    rev = None
    if (root / ".git").exists():
        proc = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        rev = proc.stdout.strip() or None
    task_dir = Path("/proc/self/task")
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {k: v for k, v in sorted(os.environ.items())
                         if k.endswith("_NUM_THREADS")},
        "os_threads": len(os.listdir(task_dir)) if task_dir.is_dir() else None,
        "python_threads": threading.active_count(),
        "git_rev": rev,
        "src.lines": src_lines(root),
    }


def _call(argv, tracer=None):
    """One timed command: (succeeded, seconds)."""
    if tracer is not None:
        tracer.install()
        top = tracer.open("cli.main")
    start = time.perf_counter()
    try:
        ok = run_cli(argv) == 0
    except (Exception, SystemExit):
        traceback.print_exc()
        ok = False
    finally:
        spent = time.perf_counter() - start
        if tracer is not None:
            tracer.close(top)
            tracer.uninstall()
            tracer.end_command()
    return ok, spent


def setup(w: Workload, seed: int, work: Path, repeats: int = SETUP_REPEATS):
    """(inputs of the timed command, seconds of each set-up repetition).

    A repetition builds the timed command's inputs and a smaller warm-up
    input from scratch, then makes the warm-up call.
    """
    times = []
    for _ in range(repeats):
        shutil.rmtree(work, ignore_errors=True)
        start = time.perf_counter()
        inputs = prepare(w, seed, work / "inputs", w.splits)
        warm = prepare(w, seed, work / "warm", w.warm_splits)
        ok, _ = _call(warm.argv)
        if not ok:
            raise RuntimeError(f"setup: warm-up call of {w.command} failed")
        times.append(time.perf_counter() - start)
    return inputs, times


def measure(name: str, seed: int, seconds: float, trace: bool, root: Path,
            import_s: float, refs=None, repeats: int = SETUP_REPEATS,
            workload: Workload | None = None) -> dict:
    """Run one workload; returns the result (see run.py for its printout).

    `refs` are the stored references of this seed (None: finiteness and
    exit codes only).  `workload` overrides the named one (tests use
    smaller inputs).
    """
    w = workload or WORKLOADS[name]
    state = root / ".perfbench"
    work = state / "work" / f"{w.name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    notes = []
    try:
        inputs, setup_times = setup(w, seed, work, repeats)
        ref = None if refs is None else refs.get(w.name)
        if ref is None:
            notes.append(f"no stored references for {w.name} seed {seed}: "
                         "only exit codes and finiteness are checked")
        tracer = tracing.Tracer(f"{w.name}-seed{seed}-{os.getpid()}") \
            if trace else None
        times = {False: [], True: []}
        attempted = failed = 0
        first_digest = None
        begin = time.perf_counter()
        while True:
            traced = trace and attempted % 2 == 1
            shutil.rmtree(inputs.out_dir, ignore_errors=True)
            gc.collect()
            ok, spent = _call(inputs.argv, tracer if traced else None)
            attempted += 1
            times[traced].append(spent)
            found = [] if ok else ["command raised or exited nonzero"]
            if ok:
                found = checks.problems(observe(w, inputs.out_dir), ref)
                if trace:
                    digest = output_digest(inputs.out_dir)
                    first_digest = first_digest or digest
                    if digest != first_digest:
                        found.append("traced and untraced outputs differ")
            if found:
                failed += 1
                print(f"check failed ({w.name}, call {attempted}): "
                      + "; ".join(found), file=sys.stderr)
            both = not trace or (times[False] and times[True])
            if both and time.perf_counter() - begin + spent > seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    rates = {k: [inputs.episodes / t for t in v] for k, v in times.items()}
    env = environment(root)
    if not trace:
        metrics = {
            # the rate three calls in four reach: the host's speed drifts
            # in phases of tens of seconds, fast phases come and go, and
            # the lower quartile sits in the common, slower state, so it
            # moves less between runs than the median or the mean
            "episodes_per_s": float(np.percentile(rates[False], 25)),
            "setup_s": import_s + statistics.median(setup_times),
            "peak_rss_mib":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = dict(END_TO_END)
    else:
        metrics = tracer.layer_metrics(
            episodes=inputs.episodes * len(times[True]),
            commands=len(times[True]),
            traced_rate=statistics.median(rates[True]),
            untraced_rate=statistics.median(rates[False]),
            src_lines=env["src.lines"])
        units = {n: u for n, u, _ in tracing.PER_LAYER}
        spans = state / "traces" / f"{w.name}-seed{seed}.spans.csv.gz"
        spans.parent.mkdir(parents=True, exist_ok=True)
        tracer.write_spans(spans)
        notes.append(f"{len(tracer.names)} spans -> {spans}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
        "detail": {"workload": w.name, "seed": seed, "trace": trace,
                   "episodes_per_call": inputs.episodes,
                   "call_seconds": times[bool(trace)],
                   "untraced_call_seconds": times[False],
                   "import_s": import_s, "setup_repeat_s": setup_times,
                   "env": env, "notes": notes},
    }
