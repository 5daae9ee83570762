"""`Workers(fn, limit)`: this process and one forked worker per other CPU it may
use, at most `limit` in all, mapping `fn` over lists of items.
`shared_zeros(n)` is memory that this process and its workers all write."""

from __future__ import annotations

import ctypes
import mmap
import os
import pickle
import select
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


def shared_zeros(n):
    """n float64 zeros in an anonymous shared mapping: workers forked after this
    call and this process see what each of them writes there."""
    return np.frombuffer(mmap.mmap(-1, 8 * n), dtype=np.float64)


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


def _wait(pipe):
    """Return once `pipe` can be read, or is at its end because the other side
    has gone. Between polls the CPU is yielded, never given up: a process that
    blocks lets its vCPU halt, and waking it costs more than a batch's split
    saves (README, "Performance")."""
    while not select.select([pipe], [], [], 0)[0]:
        os.sched_yield()


def _send(fd, obj):
    data = memoryview(pickle.dumps(obj))
    while data:
        data = data[os.write(fd, data):]


def _serve(fn, tasks, reply_fd):
    """Map each item list read from `tasks` and send the reply to `reply_fd`,
    until `tasks` ends."""
    while True:
        _wait(tasks)
        try:
            items = pickle.load(tasks)
        except EOFError:
            return
        _send(reply_fd, _map_share(fn, items))


class Workers:
    """`fn` mapped over lists of items by this process and n - 1 forked workers,
    n = min(limit, CPUs in the affinity mask); a context manager.

    The workers are forked once, here, so each sees this process's memory as
    it is now (copy-on-write), `fn` with it, and later writes only through
    `shared_zeros` blocks made before. While they live, every process runs one
    BLAS thread, since n processes with several threads each would overload
    n CPUs; `close` kills and reaps the workers and restores the caller's
    thread count. Without `os.sched_getaffinity` or OpenBLAS's thread calls,
    n is 1: nothing is forked and no BLAS call is made. The pipes carry only
    the items and `fn`'s pickled results.
    """

    def __init__(self, fn, limit):
        self.fn = fn
        self.workers = []               # (pid, task fd, reply pipe) per live worker
        self.blas = None
        n = 1
        if hasattr(os, "sched_getaffinity"):
            n = min(limit, len(os.sched_getaffinity(0)))
        if n > 1:
            self.blas = openblas_threads()
        if self.blas is None:
            return
        self.threads = self.blas[0]()
        self.blas[1](1)
        try:
            for _ in range(1, n):
                self.workers.append(self._fork())
        except BaseException:
            self.close()
            raise

    def _fork(self):
        """(pid, task fd, reply pipe) of a new worker running `_serve`.

        The worker writes nothing to stdout or stderr, holds no pipe end of
        the other workers, so each sees its tasks end when this process does,
        and leaves by `os._exit`, so none of this process's clean-up runs in it.
        """
        task_read, task_write = os.pipe()
        reply_read, reply_write = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            for fd in (task_read, task_write, reply_read, reply_write):
                os.close(fd)
            raise
        if pid:
            os.close(task_read)
            os.close(reply_write)
            return pid, task_write, os.fdopen(reply_read, "rb")
        code = 1
        try:
            os.close(task_write)
            os.close(reply_read)
            for _, fd, replies in self.workers:
                os.close(fd)
                replies.close()
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, 1)
            os.dup2(devnull, 2)
            with os.fdopen(task_read, "rb") as tasks:
                _serve(self.fn, tasks, reply_write)
            code = 0
        finally:
            os._exit(code)

    def map(self, items):
        """[fn(x) for x in items]: interleaved shares items[j::n], share 0 in
        this process. The error raised is the one a single process would
        raise: that of the earliest item that fails. A worker that ends
        without a reply raises `ChildProcessError`, after which the others
        are gone too and later maps run in this process alone."""
        n = len(self.workers) + 1
        busy = []
        for j, (_, fd, _) in enumerate(self.workers, start=1):
            if items[j::n]:
                _send(fd, items[j::n])
                busy.append(j)
        results = [None] * len(items)
        share = _map_share(self.fn, items[0::n])
        results[0:n * len(share):n] = share
        for j in busy:
            pid, fd, replies = self.workers[j - 1]
            _wait(replies)
            try:
                share = pickle.load(replies)
            except (EOFError, pickle.UnpicklingError):
                del self.workers[j - 1]
                os.close(fd)
                replies.close()
                code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                self.close()
                how = f"signal {-code}" if code < 0 else f"exit status {code}"
                raise ChildProcessError(
                    f"worker process {pid} ended without a result ({how})") from None
            results[j:j + n * len(share):n] = share
        for result in results:
            if isinstance(result, Exception):
                raise result
        return results

    def close(self):
        """Kill and reap the workers; restore the caller's BLAS thread count."""
        while self.workers:
            pid, fd, replies = self.workers.pop()
            os.close(fd)
            replies.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        if self.blas is not None:
            self.blas[1](self.threads)
            self.blas = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

