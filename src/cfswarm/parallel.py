"""Independent units of work on every free core, as forked processes."""

import ctypes
import functools
import os
import pickle
import signal

# (prefix, suffix) of OpenBLAS's thread-count functions: numpy's bundled
# scipy-openblas build first, then a plain OpenBLAS
OPENBLAS_NAMES = (("scipy_openblas_", "64_"), ("openblas_", ""))


@functools.cache
def openblas_threads():
    """(get, set) for the live thread count of the OpenBLAS this process has
    loaded, found in /proc/self/maps; None where there is no such library."""
    try:
        with open("/proc/self/maps") as fh:
            # address, perms, offset, device, inode, then the path if any
            rows = [line.split(None, 5) for line in fh]
    except OSError:
        return None
    paths = sorted({row[5].strip() for row in rows if len(row) == 6
                    and "openblas" in row[5].rsplit("/", 1)[-1]})
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in OPENBLAS_NAMES:
            get = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
            put = getattr(lib, f"{prefix}set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


def process_count(n_items: int) -> int:
    """min(n_items, affinity CPUs) where openblas_threads() finds numpy's
    OpenBLAS and os has fork and sched_getaffinity; 1 otherwise.  fork_map
    holds that OpenBLAS at one thread while it forks, so each process runs
    one thread."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
            and openblas_threads() is not None):
        return 1
    return max(1, min(n_items, len(os.sched_getaffinity(0))))


def fork_map(fn, items):
    """[fn(x) for x in items] on process_count processes: this one runs the
    first share of the sequence, a forked child each other.  A child's
    exception is raised here, one that sends nothing is a RuntimeError with
    its exit status, and on a raise the children are killed and reaped.
    Whenever it forks, OpenBLAS runs one thread, and it gets its old count
    back on return and on a raise."""
    n_proc = process_count(len(items))
    cuts = [len(items) * i // n_proc for i in range(n_proc + 1)]
    # OpenBLAS's own threads beside the children would oversubscribe the cores
    blas = openblas_threads() if n_proc > 1 else None
    threads = blas[0]() if blas else None
    pending = {}   # pid -> read end of its pipe, in share order
    try:
        if blas:
            blas[1](1)
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
        if blas:
            blas[1](threads)
