import multiprocessing

import pytest


@pytest.fixture(autouse=True)
def no_live_child_processes():
    """Fail any test that leaves a child process running."""
    yield
    alive = multiprocessing.active_children()
    for proc in alive:
        proc.terminate()
        proc.join(5)
    if alive:
        pytest.fail(f"test left live child processes: {alive}")
