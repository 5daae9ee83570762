"""`map_items(fn, items)`: a list map spread over the CPUs this process may
use, in forked children."""

from __future__ import annotations

import ctypes
import os
import pickle
import signal
from pathlib import Path

import numpy as np


def openblas_threads():
    """(get, set) of the thread count of numpy's bundled OpenBLAS, or None.

    numpy loads its OpenBLAS privately, so the symbols are looked up in that
    file in the wheel's `numpy.libs`; loading it again returns the copy
    numpy already uses.
    """
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*scipy_openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
            get = lib.scipy_openblas_get_num_threads64_
            set_ = lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = (), ctypes.c_int
        set_.argtypes, set_.restype = (ctypes.c_int,), None
        return get, set_
    return None


def _map_share(fn, items):
    """fn(x) for each item in order; the first exception takes its item's
    place and ends the list."""
    results = []
    for x in items:
        try:
            results.append(fn(x))
        except Exception as exc:
            results.append(exc)
            break
    return results


def _fork_share(fn, items):
    """(pid, pipe) of a forked child that maps `items`.

    The child pickles `_map_share`'s reply into the pipe, writes nothing to
    stdout or stderr, and leaves by `os._exit`, so none of the parent's
    clean-up runs in it.
    """
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid:
        os.close(write_fd)
        return pid, os.fdopen(read_fd, "rb")
    code = 1
    try:
        os.close(read_fd)
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, 1)
        os.dup2(devnull, 2)
        reply = _map_share(fn, items)
        with os.fdopen(write_fd, "wb") as pipe:
            pickle.dump(reply, pipe)
        code = 0
    finally:
        os._exit(code)


def map_items(fn, items):
    """[fn(x) for x in items], spread over the CPUs this process may use.

    The items are split into n interleaved shares items[j::n], one per CPU
    in the affinity mask and at most one per item: this process maps share
    0 and a forked child each of the others. Meanwhile every process runs
    one BLAS thread, since n processes with several threads each would
    overload n CPUs; the caller's thread count is restored afterwards.
    Without `os.sched_getaffinity` or OpenBLAS's thread calls, n is 1:
    nothing is forked and no BLAS call is made. The error raised is the one
    a single process would raise: that of the earliest item that fails. A
    child that ends without a reply raises `ChildProcessError`; any other
    exit, an interrupt included, kills and reaps the children left.
    """
    n = 1
    if hasattr(os, "sched_getaffinity"):
        n = min(len(items), len(os.sched_getaffinity(0)))
    blas = openblas_threads() if n > 1 else None
    if blas is None:
        n = 1
    else:
        get_threads, set_threads = blas
        threads = get_threads()
        set_threads(1)
    results = [None] * len(items)
    children = []                       # (pid, pipe) per child not yet reaped
    try:
        for j in range(1, n):
            children.append(_fork_share(fn, items[j::n]))
        share = _map_share(fn, items[0::n])
        results[0:n * len(share):n] = share
        for j in range(1, n):
            pid, pipe = children[0]
            data = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            children.pop(0)
            pipe.close()
            if code != 0:
                how = f"signal {-code}" if code < 0 else f"exit status {code}"
                raise ChildProcessError(
                    f"embedding process {pid} ended without a result ({how})")
            share = pickle.loads(data)
            results[j:j + n * len(share):n] = share
    finally:
        for pid, pipe in children:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        if blas is not None:
            set_threads(threads)
    for result in results:
        if isinstance(result, Exception):
            raise result
    return results
