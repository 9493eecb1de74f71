import os
import threading

import numpy as np
import pytest

from mrio_footprint import algebra, fixtures


@pytest.fixture(autouse=True)
def nothing_left_running():
    """Fail a test that leaves a child process unreaped or a Python thread
    other than the main one alive."""
    yield
    try:
        os.waitpid(-1, os.WNOHANG)
        left = ["a child process"]
    except ChildProcessError:
        left = []
    left += [f"thread {thread.name}" for thread in threading.enumerate()
             if thread is not threading.main_thread()]
    if left:
        pytest.fail(f"the test left {', '.join(left)} behind")


@pytest.fixture(scope="session")
def account_357():
    """Shared 3x5 fixture account (seed 7) for read-only tests."""
    return fixtures.fixture(3, 5, 7)


@pytest.fixture()
def rng():
    return np.random.default_rng(20120101)


@pytest.fixture()
def factorizations(monkeypatch) -> list:
    """The (lu, ipiv) pairs that LeontiefOperator._factorize makes during
    the test, in order."""
    made = []
    factorize = algebra.LeontiefOperator._factorize

    def recorded(self):
        made.append(factorize(self))
        return made[-1]
    monkeypatch.setattr(algebra.LeontiefOperator, "_factorize", recorded)
    return made
