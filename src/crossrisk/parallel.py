"""Ordered maps over forked worker processes, for the train stage's
independent jobs (protocol splits, forest trees, cluster GP fits).

A :class:`Pool` forks its workers once, at its first map, and runs one map
after another through them; ``pool.map`` returns ``[job() for job in jobs]``
for zero-argument jobs of any kind. The first map's jobs exist before the
fork, so the workers inherit them and receive only their indices. A later
map names one of the builders the pool was made with, and that builder's
inputs: ``pool.map(build, *inputs)`` runs the jobs of ``build(*inputs)``.
The inputs are pickled once and sent to every worker, which calls the same
builder on them; whatever else the builder reaches (a dataset held since the
fork, say) never crosses a pipe. An input that cannot be pickled raises a
``TypeError`` that names it before anything is sent.

Within a map the workers share one work queue: the caller sends each worker
the index of the next unclaimed job whenever that worker is free, and the
worker sends back the job's result over its pipe. The caller runs no jobs
itself; it only dispatches and collects, so a long job holds back only the
worker that runs it, and the caller's memory does not grow with the work.
Results are collected in input order, so jobs that each depend only on their
own arguments give the serial loop's results bit for bit. After a failure no
further job is handed out, the jobs already running finish, and the
exception of the lowest failing index is raised. A worker that dies raises
``RuntimeError`` and ends the pool; every child is ended and joined when the
pool ends. ``run_jobs(jobs)`` is one map through a pool of its own.

A pool runs serially, in the calling process, when its first map would use
fewer than two workers: one job, one CPU in the affinity mask, no ``fork``
start method, another Python thread alive (a forked child would inherit its
locks in whatever state they are), or a caller that is itself a worker
process (no nested forks).

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
import pickle
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
    """Worker processes a pool would fork for enough jobs: 1 when one of
    the serial fallbacks applies, else ``worker_count()``."""
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


Job = Callable[[], object]


def _worker(jobs: Sequence[Job], builders: tuple, conn) -> None:
    """Run each job index the caller sends, and answer each with ``(index,
    result, exception or None)``, until the pool ends the process. A
    ``(builder index, pickled inputs)`` message starts a later map, whose jobs
    that builder makes from those inputs."""
    while True:
        message = conn.recv()
        if isinstance(message, tuple):
            b, blobs = message
            jobs = builders[b](*map(pickle.loads, blobs))
            continue
        i = message
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


class Pool:
    """Worker processes forked once, at the first map, that run the pool's
    maps one after another; see the module docstring. Use it as a context
    manager: the jobs run on one BLAS thread while the pool is open, and its
    workers are ended and joined when it closes::

        with Pool(final_jobs) as pool:
            first = pool.map(jobs)                      # the workers inherit jobs
            later = pool.map(final_jobs, table, models)  # they receive the inputs

    ``builders`` are the functions a later map may name; they must exist
    when the first map forks the workers.
    """

    def __init__(self, *builders: Callable[..., Sequence[Job]]) -> None:
        self._builders = builders
        self._workers: dict = {}  # caller's end of each worker's pipe -> its process
        self._started = False  # whether the first map has run
        self._closed = False
        self._blas = contextlib.ExitStack()

    def __enter__(self) -> "Pool":
        self._blas.enter_context(_one_blas_thread())
        return self

    def __exit__(self, *exc) -> None:
        try:
            self._end()
        finally:
            self._blas.close()

    def map(self, jobs: Sequence[Job] | Callable[..., Sequence[Job]], *inputs) -> list:
        """``[job() for job in jobs]``, where a builder given as ``jobs`` stands
        for ``build(*inputs)``; a map after the first must name one of the
        pool's builders. If some jobs raise, the exception of the lowest
        failing index is raised, as the serial loop would raise it."""
        if self._closed:
            raise ValueError("map on a closed pool")
        message = None
        if self._started:
            if jobs not in self._builders:
                raise ValueError(f"{jobs!r} is not a builder of this pool; only the "
                                 "first map takes a job list")
            if self._workers:
                message = (self._builders.index(jobs), self._pickled(jobs, inputs))
        if callable(jobs):
            jobs = jobs(*inputs)
        jobs = list(jobs)
        if not self._started:
            self._started = True
            k = min(usable_workers(), len(jobs))
            if k >= 2:
                self._fork(jobs, k)
        if not self._workers:
            return [job() for job in jobs]
        if message is not None:
            for conn in self._workers:
                conn.send(message)
        return self._collect(len(jobs))

    @staticmethod
    def _pickled(build: Callable, inputs: tuple) -> list:
        """Each of ``inputs`` pickled; a ``TypeError`` names the first that
        cannot be."""
        blobs = []
        for n, value in enumerate(inputs):
            try:
                blobs.append(pickle.dumps(value, pickle.HIGHEST_PROTOCOL))
            except Exception as exc:
                name = getattr(build, "__qualname__", repr(build))
                raise TypeError(f"input {n} of {name} ({type(value).__name__}) cannot be "
                                f"sent to the worker processes: {exc!r}") from exc
        return blobs

    def _fork(self, jobs: list, k: int) -> None:
        ctx = multiprocessing.get_context("fork")
        try:
            for _ in range(k):
                conn, child_conn = ctx.Pipe()
                proc = ctx.Process(target=_worker, args=(jobs, self._builders, child_conn),
                                   daemon=True)
                proc.start()
                child_conn.close()
                self._workers[conn] = proc
        except BaseException:
            self._end()
            raise

    def _collect(self, n_jobs: int) -> list:
        """Hand each free worker the next unclaimed job index and gather the
        results of the ``n_jobs`` jobs of the current map."""
        results, errors = [None] * n_jobs, {}
        unclaimed = iter(range(n_jobs))
        busy = set()

        def dispatch(conn) -> None:
            # After a failure only lower jobs, all claimed already, can matter.
            i = None if errors else next(unclaimed, None)
            if i is not None:
                conn.send(i)
                busy.add(conn)

        for conn in self._workers:
            dispatch(conn)
        while busy:
            for conn in wait(busy):
                busy.remove(conn)
                try:
                    i, result, error = conn.recv()
                except EOFError:
                    proc = self._workers[conn]
                    proc.join()
                    self._end()
                    raise RuntimeError(f"worker {proc.pid} exited with code "
                                       f"{proc.exitcode} before sending its result") from None
                if error is None:
                    results[i] = result
                else:
                    errors[i] = error
                dispatch(conn)
        if errors:
            raise errors[min(errors)]
        return results

    def _end(self) -> None:
        """Close the pool: end every worker, busy or idle, and join it."""
        self._closed = True
        workers, self._workers = self._workers, {}
        for proc in workers.values():
            proc.terminate()
        for conn, proc in workers.items():
            proc.join()
            conn.close()


def run_jobs(jobs: Sequence[Job]) -> list:
    """``[job() for job in jobs]``, computed on up to ``usable_workers()``
    processes: one map through a pool of its own."""
    with Pool() as pool:
        return pool.map(jobs)
