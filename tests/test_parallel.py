import multiprocessing
import os
import threading

import numpy as np
import pytest

from crossrisk import parallel
from crossrisk.errors import InputError


@pytest.fixture
def two_workers(monkeypatch):
    """Two workers whatever the host has, so the fork path runs on one CPU too."""
    monkeypatch.setattr(parallel, "worker_count", lambda: 2)


def square_and_pid(x):
    return x * x, os.getpid()


def draws(seed):
    return np.random.default_rng(seed).normal(size=(3, 2))


@pytest.mark.parametrize("n", [0, 1, 7])
def test_equals_the_serial_map(two_workers, n):
    got = parallel.ordered_map(draws, range(n))
    want = [draws(x) for x in range(n)]
    assert len(got) == n
    assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))


def test_item_i_runs_on_worker_i_mod_k(two_workers):
    pids = [pid for _, pid in parallel.ordered_map(square_and_pid, range(7))]
    assert pids[0::2] == [os.getpid()] * 4
    assert len(set(pids[1::2])) == 1 and pids[1] != os.getpid()


def test_results_cross_the_pipe_intact(two_workers):
    items = [{"k": i, "v": [float(i)] * 3} for i in range(5)]
    assert parallel.ordered_map(lambda d: {**d, "n": len(d["v"])}, items) == [
        {**d, "n": 3} for d in items]


@pytest.mark.parametrize("failing, message, kind", [
    ({3, 4, 6}, "item 3", InputError),  # lowest failure in the child's share
    ({2, 3}, "item 2", ValueError),  # lowest failure in the caller's share
])
def test_lowest_failing_index_is_raised(two_workers, failing, message, kind):
    def fn(x):
        if x in failing:
            raise (InputError if x % 2 else ValueError)(f"item {x}")
        return x

    with pytest.raises(kind, match=message):
        parallel.ordered_map(fn, range(8))
    assert multiprocessing.active_children() == []


def test_worker_that_dies_is_an_error(two_workers):
    def fn(x):
        if x == 1:
            os._exit(3)
        return x

    with pytest.raises(RuntimeError, match="exited with code 3"):
        parallel.ordered_map(fn, range(4))
    assert multiprocessing.active_children() == []


def test_no_child_outlives_the_call(two_workers):
    parallel.ordered_map(square_and_pid, range(7))
    assert multiprocessing.active_children() == []


def test_serial_inside_a_worker(two_workers):
    def inner(x):
        return parallel.usable_workers(), parallel.ordered_map(square_and_pid, range(3))

    (outer_workers, outer), (child_workers, nested) = parallel.ordered_map(inner, range(2))
    assert (outer_workers, child_workers) == (2, 1)
    assert len({pid for _, pid in nested}) == 1  # no grandchildren
    assert {pid for _, pid in outer} != {pid for _, pid in nested}


def test_serial_with_one_worker(monkeypatch):
    monkeypatch.setattr(parallel, "worker_count", lambda: 1)
    assert parallel.usable_workers() == 1
    assert {pid for _, pid in parallel.ordered_map(square_and_pid, range(5))} == {os.getpid()}


def test_serial_while_another_thread_is_alive(two_workers):
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert parallel.usable_workers() == 1
        pids = {pid for _, pid in parallel.ordered_map(square_and_pid, range(5))}
    finally:
        stop.set()
        thread.join(5)
    assert not thread.is_alive()
    assert pids == {os.getpid()}


def test_serial_without_fork(two_workers, monkeypatch):
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    assert parallel.usable_workers() == 1
    assert {pid for _, pid in parallel.ordered_map(square_and_pid, range(5))} == {os.getpid()}


def test_worker_count_is_the_affinity_mask():
    assert parallel.worker_count() == len(os.sched_getaffinity(0))


def blas_threads(_=None):
    """The calling thread's OpenBLAS thread count in each loaded library."""
    counts = [setter(1) for setter in parallel._openblas_thread_setters()]
    for setter, n in zip(parallel._openblas_thread_setters(), counts):
        setter(n)
    return counts


@pytest.mark.parametrize("workers", [1, 2])
def test_fn_runs_on_one_blas_thread(monkeypatch, workers):
    monkeypatch.setattr(parallel, "worker_count", lambda: workers)
    before = blas_threads()
    if not before:
        pytest.skip("numpy and scipy use no OpenBLAS library here")
    assert parallel.ordered_map(blas_threads, range(3)) == [[1] * len(before)] * 3
    assert blas_threads() == before
