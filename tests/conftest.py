"""Checks that hold for every test."""

import threading

import pytest


@pytest.fixture(autouse=True)
def no_thread_outlives_the_test():
    """Fail a test that leaves a thread running.

    Thread and process pools must be shut down inside the call that
    starts them: ``regionsep dataset`` forks pool workers, and a fork
    while another thread runs can deadlock the child.
    """
    before = set(threading.enumerate())
    yield
    left = [t.name for t in threading.enumerate() if t not in before]
    if left:
        pytest.fail(f"threads still alive after the test: {left}")
