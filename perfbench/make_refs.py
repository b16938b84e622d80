"""Write the stored references the output checks compare against.

    python3 perfbench/make_refs.py --seeds 0 1 2

Runs each workload's command once per seed, with one BLAS thread as the
benchmark does, and writes refs/seed-<n>.json (and the y_pred .npy files).
Only rewrite references for a change that is meant to alter outputs.
"""

import argparse
import os
import shutil
import sys

from run import HERE, ROOT, pin_blas_threads


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/make_refs.py")
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args(argv)
    pin_blas_threads()
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import checks
    from workloads import WORKLOADS, observe, prepare, run_cli

    work = ROOT / ".perfbench" / "work" / f"refs-{os.getpid()}"
    try:
        for seed in args.seeds:
            observed = {}
            for name, w in WORKLOADS.items():
                shutil.rmtree(work, ignore_errors=True)
                inputs = prepare(w, seed, work, w.splits)
                if run_cli(inputs.argv) != 0:
                    raise RuntimeError(f"{name} seed {seed} failed")
                observed[name] = observe(w, inputs.out_dir)
                found = checks.problems(observed[name], None)
                if found:
                    raise RuntimeError(f"{name} seed {seed}: {found}")
            print(checks.save_refs(seed, observed))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
