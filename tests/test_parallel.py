import multiprocessing
import os
import subprocess
import sys
import threading
import time
from functools import partial

import numpy as np
import pytest
from helpers import blas_threads

from crossrisk import parallel
from crossrisk.errors import InputError


@pytest.fixture
def two_workers(monkeypatch):
    """Two workers whatever the host has, so the fork path runs on one CPU too."""
    monkeypatch.setattr(parallel, "worker_count", lambda: 2)


def run_map(fn, items):
    return parallel.run_jobs([partial(fn, x) for x in items])


def square_and_pid(x):
    return x * x, os.getpid()


def draws(seed):
    return np.random.default_rng(seed).normal(size=(3, 2))


@pytest.mark.parametrize("n", [0, 1, 7])
def test_equals_the_serial_map(two_workers, n):
    got = run_map(draws, range(n))
    want = [draws(x) for x in range(n)]
    assert len(got) == n
    assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))


def wait_for(path, seconds=10.0):
    deadline = time.monotonic() + seconds
    while not path.exists() and time.monotonic() < deadline:
        time.sleep(0.005)


def test_caller_runs_no_item_and_maps_in_workers_stay_serial(two_workers):
    def inner(x):
        return parallel.usable_workers(), run_map(square_and_pid, range(3))

    outer = run_map(inner, range(4))
    assert {workers for workers, _ in outer} == {1}
    worker_pids = {pid for _, nested in outer for _, pid in nested}
    assert os.getpid() not in worker_pids and len(worker_pids) <= 2
    assert all(len({pid for _, pid in nested}) == 1 for _, nested in outer)  # no grandchildren


def test_slow_item_does_not_hold_back_the_others(two_workers, tmp_path):
    def fn(x):
        if x == 0:  # busy until the other worker has run every other item
            wait_for(tmp_path / "5")
        elif x == 5:
            (tmp_path / "5").touch()
        return os.getpid()

    start = time.monotonic()
    pids = run_map(fn, range(6))
    assert time.monotonic() - start < 5.0
    assert len(set(pids[1:])) == 1 and pids[0] != pids[1]
    assert os.getpid() not in pids


def test_results_cross_the_pipe_intact(two_workers):
    items = [{"k": i, "v": [float(i)] * 3} for i in range(5)]
    assert run_map(lambda d: {**d, "n": len(d["v"])}, items) == [
        {**d, "n": 3} for d in items]


# The lowest failing item runs until the next item has failed, so the two
# fail in different workers and the higher failure is reported first.
@pytest.mark.parametrize("failing, message, kind", [
    ({3, 4, 6}, "item 3", InputError),
    ({2, 3}, "item 2", ValueError),
])
def test_lowest_failing_index_is_raised(two_workers, tmp_path, failing, message, kind):
    low = min(failing)

    def fn(x):
        if x == low:
            wait_for(tmp_path / str(low + 1))
        if x in failing:
            (tmp_path / str(x)).write_text(str(os.getpid()))
            raise (InputError if x % 2 else ValueError)(f"item {x}")
        return x

    with pytest.raises(kind, match=message):
        run_map(fn, range(8))
    assert multiprocessing.active_children() == []
    failed_in = {int(p.name): int(p.read_text()) for p in tmp_path.iterdir()}
    assert sorted(failed_in) == [low, low + 1]  # no item past a failure was started
    assert len(set(failed_in.values())) == 2


def test_worker_that_dies_is_an_error(two_workers):
    def fn(x):
        if x == 1:
            os._exit(3)
        return x

    with pytest.raises(RuntimeError, match="exited with code 3"):
        run_map(fn, range(4))
    assert multiprocessing.active_children() == []


def test_worker_that_dies_while_the_other_is_busy(two_workers):
    def fn(x):
        if x == 0:
            time.sleep(60.0)
        elif x == 1:
            os._exit(4)
        return x

    start = time.monotonic()
    with pytest.raises(RuntimeError, match="exited with code 4"):
        run_map(fn, range(4))
    assert time.monotonic() - start < 30.0
    assert multiprocessing.active_children() == []


def test_no_child_outlives_the_call(two_workers):
    run_map(square_and_pid, range(7))
    assert multiprocessing.active_children() == []


def test_serial_with_one_worker(monkeypatch):
    monkeypatch.setattr(parallel, "worker_count", lambda: 1)
    assert parallel.usable_workers() == 1
    assert {pid for _, pid in run_map(square_and_pid, range(5))} == {os.getpid()}


def test_serial_while_another_thread_is_alive(two_workers):
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert parallel.usable_workers() == 1
        pids = {pid for _, pid in run_map(square_and_pid, range(5))}
    finally:
        stop.set()
        thread.join(5)
    assert not thread.is_alive()
    assert pids == {os.getpid()}


def test_serial_without_fork(two_workers, monkeypatch):
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    assert parallel.usable_workers() == 1
    assert {pid for _, pid in run_map(square_and_pid, range(5))} == {os.getpid()}


def test_worker_count_is_the_affinity_mask():
    assert parallel.worker_count() == len(os.sched_getaffinity(0))


@pytest.mark.parametrize("workers", [1, 2])
def test_fn_runs_on_one_blas_thread(monkeypatch, workers):
    monkeypatch.setattr(parallel, "worker_count", lambda: workers)
    before = blas_threads()
    if not before:
        pytest.skip("numpy and scipy use no OpenBLAS library here")
    assert run_map(blas_threads, range(3)) == [[1] * len(before)] * 3
    assert blas_threads() == before


def test_setter_lookup_is_cached_until_a_module_import():
    # a fresh process: numpy alone loads one OpenBLAS library; scipy.linalg,
    # imported after the first lookup, may load its own, which must be found
    script = (
        "import sys; sys.path.insert(0, sys.argv[1])\n"
        "import numpy\n"
        "from crossrisk import parallel\n"
        "first = parallel._openblas_thread_setters()\n"
        "assert parallel._openblas_thread_setters() is first\n"
        "import scipy.linalg\n"
        "print(len(first), len(parallel._openblas_thread_setters()),"
        " len(parallel._setters_at.__wrapped__(-1)))\n"
    )
    src = os.path.dirname(os.path.dirname(parallel.__file__))
    out = subprocess.run([sys.executable, "-c", script, src], capture_output=True, text=True,
                         check=True).stdout.split()
    before, after, fresh = map(int, out)
    if not fresh:
        pytest.skip("numpy and scipy use no OpenBLAS library here")
    assert after == fresh >= before
