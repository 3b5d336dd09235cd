"""Ordered map over forked worker processes, for the train stage's
independent jobs (protocol splits, forest trees, cluster GP fits).

``run_jobs(jobs)`` returns ``[job() for job in jobs]`` for zero-argument
jobs of any kind. With ``k`` usable workers it forks ``k`` children that
share one work queue: the caller sends each worker the index of the next
unclaimed job whenever that worker is free, and the worker sends back the
job's result over its pipe. The caller runs no jobs itself; it only
dispatches and collects, so a long job holds back only the worker that runs
it, and the caller's memory does not grow with the work. Results are
collected in input order, so jobs that each depend only on their own
arguments give the serial loop's results bit for bit. After a failure no
further job is handed out, the jobs already running finish, and the
exception of the lowest failing index is raised. A worker that dies raises
``RuntimeError``; every child is ended and joined before the map returns or
raises.

The map runs serially when only one worker is usable: one CPU in the
affinity mask, no ``fork`` start method, another Python thread alive (a
forked child would inherit its locks in whatever state they are), or when
the caller is itself a worker process (no nested forks).

Serial or not, the jobs run with one OpenBLAS thread per process. Workers
that each started a BLAS thread per CPU would oversubscribe the CPUs, and
OpenBLAS results can differ in the last bit with the thread count, so this
also keeps results independent of the worker count and of the host's CPUs.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import multiprocessing
import os
import sys
import threading
import traceback
from multiprocessing.connection import wait
from typing import Callable, Iterator, Sequence


def worker_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without sched_getaffinity
        return os.cpu_count() or 1


def usable_workers() -> int:
    """Worker processes ``run_jobs`` would use for enough jobs: 1 when
    one of the serial fallbacks applies, else ``worker_count()``."""
    if (
        multiprocessing.parent_process() is not None
        or threading.active_count() > 1
        or "fork" not in multiprocessing.get_all_start_methods()
    ):
        return 1
    return worker_count()


def _openblas_thread_setters() -> tuple:
    """``openblas_set_num_threads_local`` of every OpenBLAS library loaded in
    this process (numpy and scipy may each bundle one). Found through
    ``/proc/self/maps``, so empty where that is missing or for other BLAS
    builds, which then keep their own threading. Reading the map takes about
    half a millisecond, so the lookup is kept until a module is imported,
    which may load another library."""
    return _setters_at(len(sys.modules))


@functools.lru_cache(maxsize=1)
def _setters_at(n_modules: int) -> tuple:
    """The OpenBLAS setters while ``n_modules`` modules are imported."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh
                     if "openblas" in line.rpartition("/")[2].lower()}
    except OSError:
        return ()
    setters = []
    for path in sorted(paths):
        try:
            setter = ctypes.CDLL(path).openblas_set_num_threads_local
        except (OSError, AttributeError):
            continue
        setter.argtypes, setter.restype = [ctypes.c_int], ctypes.c_int
        setters.append(setter)
    return tuple(setters)


@contextlib.contextmanager
def _one_blas_thread() -> Iterator[None]:
    """Run the calling thread, and processes it forks, on one BLAS thread."""
    setters = _openblas_thread_setters()
    previous = [setter(1) for setter in setters]
    try:
        yield
    finally:
        for setter, n in zip(setters, previous):
            setter(n)


def _worker(jobs: Sequence[Callable[[], object]], conn) -> None:
    """Run each job index the caller sends, until it sends ``None``; answer
    each with ``(index, result, exception or None)``."""
    while (i := conn.recv()) is not None:
        try:
            reply = (i, jobs[i](), None)
        except Exception as exc:
            if hasattr(exc, "add_note"):  # Python 3.11+
                # The traceback does not cross the pipe; keep its text on the exception.
                exc.add_note("in worker process:\n" + "".join(traceback.format_exception(exc)))
            reply = (i, None, exc)
        try:
            conn.send(reply)
        except Exception as exc:  # an unpicklable result or exception
            conn.send((i, None, RuntimeError(f"worker result could not be sent: {exc!r}")))
    conn.close()


def run_jobs(jobs: Sequence[Callable[[], object]]) -> list:
    """``[job() for job in jobs]``, computed on up to ``usable_workers()``
    processes. If some jobs raise, the exception of the lowest failing index
    is raised, as the serial loop would raise it."""
    jobs = list(jobs)
    k = min(usable_workers(), len(jobs))
    with _one_blas_thread():
        if k < 2:
            return [job() for job in jobs]
        return _forked_map(jobs, k)


def _forked_map(jobs: list, k: int) -> list:
    """Fork ``k`` workers and hand each the next unclaimed job index whenever
    it is free; this process only dispatches and collects."""
    ctx = multiprocessing.get_context("fork")
    workers = {}  # caller's end of each worker's pipe -> its process
    try:
        for _ in range(k):
            conn, child_conn = ctx.Pipe()
            proc = ctx.Process(target=_worker, args=(jobs, child_conn), daemon=True)
            proc.start()
            child_conn.close()
            workers[conn] = proc
        results, errors = [None] * len(jobs), {}
        unclaimed = iter(range(len(jobs)))
        busy = set()

        def dispatch(conn) -> None:
            # After a failure only lower jobs, all claimed already, can matter.
            i = None if errors else next(unclaimed, None)
            conn.send(i)
            if i is not None:
                busy.add(conn)

        for conn in workers:
            dispatch(conn)
        while busy:
            for conn in wait(busy):
                busy.remove(conn)
                try:
                    i, result, error = conn.recv()
                except EOFError:
                    proc = workers[conn]
                    proc.join()
                    raise RuntimeError(f"worker {proc.pid} exited with code "
                                       f"{proc.exitcode} before sending its result") from None
                if error is None:
                    results[i] = result
                else:
                    errors[i] = error
                dispatch(conn)
        for proc in workers.values():
            proc.join()
    finally:
        for conn, proc in workers.items():
            if proc.is_alive():
                proc.terminate()
            proc.join()
            conn.close()
    if errors:
        raise errors[min(errors)]
    return results
