"""Independent units of work on every free core, as forked processes."""

import os
import pickle
import signal

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def process_count(n_items: int) -> int:
    """min(n_items, affinity CPUs // the first of BLAS_VARS, in OpenBLAS's
    order, that is set); 1 if it is no positive integer or fork is missing."""
    value = next((os.environ[v] for v in BLAS_VARS if v in os.environ), "")
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
            and value.strip().isdigit() and int(value) >= 1):
        return 1
    return max(1, min(n_items, len(os.sched_getaffinity(0)) // int(value)))


def fork_map(fn, items):
    """[fn(x) for x in items] on process_count processes: this one runs the
    first share of the sequence, a forked child each other.  A child's
    exception is raised here, one that sends nothing is a RuntimeError with
    its exit status, and on a raise the children are killed and reaped."""
    n_proc = process_count(len(items))
    cuts = [len(items) * i // n_proc for i in range(n_proc + 1)]
    pending = {}   # pid -> read end of its pipe, in share order
    try:
        for lo, hi in zip(cuts[1:-1], cuts[2:]):
            read, write = os.pipe()
            pid = os.fork()
            if pid == 0:   # exit status 0 only once all is sent
                try:
                    try:
                        payload = [fn(x) for x in items[lo:hi]]
                    except BaseException as exc:
                        payload = exc
                    with open(write, "wb") as fh:
                        pickle.dump(payload, fh, pickle.HIGHEST_PROTOCOL)
                    os._exit(0)
                finally:
                    os._exit(1)
            os.close(write)
            pending[pid] = open(read, "rb")
        results = [fn(x) for x in items[:cuts[1]]]
        for pid, pipe in list(pending.items()):
            data = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            pending.pop(pid).close()
            if code != 0:
                raise RuntimeError(f"worker process {pid} exited with status "
                                   f"{code} before sending its result")
            value = pickle.loads(data)
            if isinstance(value, BaseException):
                raise value
            results += value
        return results
    finally:
        for pid, pipe in pending.items():
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
