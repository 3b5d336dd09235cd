"""Ordered map over forked worker processes, for the train stage's
independent fits (forest trees, cluster GPs).

``ordered_map(fn, items)`` returns ``[fn(x) for x in items]``. With ``k``
usable workers it forks ``k - 1`` children; item ``i`` goes to worker
``i % k``, and worker 0 is the calling process itself. Each child sends its
results back over a pipe, which the caller reads on its own thread after
computing its share. Results are collected in input order, so a map whose
``fn`` depends only on its item gives the serial loop's results bit for bit.

The map runs serially when only one worker is usable: one CPU in the
affinity mask, no ``fork`` start method, another Python thread alive (a
forked child would inherit its locks in whatever state they are), or when
the caller is itself a worker process (no nested forks).

Serial or not, ``fn`` runs with one OpenBLAS thread per process. Workers
that each started a BLAS thread per CPU would oversubscribe the CPUs, and
OpenBLAS results can differ in the last bit with the thread count, so this
also keeps results independent of the worker count and of the host's CPUs.
"""

from __future__ import annotations

import contextlib
import ctypes
import multiprocessing
import os
import threading
import traceback
from typing import Callable, Iterator, Sequence


def worker_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without sched_getaffinity
        return os.cpu_count() or 1


def usable_workers() -> int:
    """Worker processes ``ordered_map`` would use for enough items: 1 when
    one of the serial fallbacks applies, else ``worker_count()``."""
    if (
        multiprocessing.parent_process() is not None
        or threading.active_count() > 1
        or "fork" not in multiprocessing.get_all_start_methods()
    ):
        return 1
    return worker_count()


def _openblas_thread_setters() -> list:
    """``openblas_set_num_threads_local`` of every OpenBLAS library loaded in
    this process (numpy and scipy may each bundle one). Found through
    ``/proc/self/maps``, so empty where that is missing or for other BLAS
    builds, which then keep their own threading."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh
                     if "openblas" in line.rpartition("/")[2].lower()}
    except OSError:
        return []
    setters = []
    for path in sorted(paths):
        try:
            setter = ctypes.CDLL(path).openblas_set_num_threads_local
        except (OSError, AttributeError):
            continue
        setter.argtypes, setter.restype = [ctypes.c_int], ctypes.c_int
        setters.append(setter)
    return setters


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


def _run_share(fn: Callable, items: Sequence, first: int, step: int
               ) -> tuple[list, tuple | None]:
    """``fn`` over ``items[first::step]`` in order, up to the first failure:
    ``(results, (index, exception) or None)``."""
    results = []
    for i in range(first, len(items), step):
        try:
            results.append(fn(items[i]))
        except Exception as exc:
            return results, (i, exc)
    return results, None


def _child(fn: Callable, items: Sequence, first: int, step: int, conn) -> None:
    results, error = _run_share(fn, items, first, step)
    if error is not None and hasattr(error[1], "add_note"):  # Python 3.11+
        # The traceback does not cross the pipe; keep its text on the exception.
        error[1].add_note("in worker process:\n" + "".join(
            traceback.format_exception(error[1])))
    try:
        conn.send((results, error))
    except Exception as exc:  # an unpicklable result or exception
        conn.send(([], (first, RuntimeError(f"worker result could not be sent: {exc!r}"))))
    conn.close()


def ordered_map(fn: Callable, items: Sequence) -> list:
    """``[fn(x) for x in items]``, computed on up to ``usable_workers()``
    processes. If some calls raise, the exception of the lowest failing
    index is raised, as the serial loop would raise it."""
    items = list(items)
    k = min(usable_workers(), len(items))
    with _one_blas_thread():
        if k < 2:
            return [fn(x) for x in items]
        return _forked_map(fn, items, k)


def _forked_map(fn: Callable, items: list, k: int) -> list:
    ctx = multiprocessing.get_context("fork")
    children = []
    try:
        for w in range(1, k):
            recv, send = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=_child, args=(fn, items, w, k, send), daemon=True)
            proc.start()
            send.close()
            children.append((proc, recv))
        shares = [_run_share(fn, items, 0, k)]
        for w, (proc, recv) in enumerate(children, start=1):
            try:
                shares.append(recv.recv())
            except EOFError:
                proc.join()
                raise RuntimeError(f"worker {w} exited with code {proc.exitcode} "
                                   "before sending its results") from None
            proc.join()
    finally:
        for proc, recv in children:
            recv.close()
            if proc.is_alive():
                proc.terminate()
            proc.join()
    errors = [error for _, error in shares if error is not None]
    if errors:
        raise min(errors, key=lambda e: e[0])[1]
    return [shares[i % k][0][i // k] for i in range(len(items))]
