import os
import signal
import sys

sys.path.insert(0, os.path.dirname(__file__))

import pytest

from hodgeorbit.rootdata import root_system


@pytest.fixture(scope="session")
def rs():
    """Root-system factory with session-wide caching."""
    return root_system


#: seconds one test may run before it fails with TimeoutError
TEST_TIME_LIMIT = 60


@pytest.fixture(autouse=True)
def _time_limit():
    """Fail a test that runs past ``TEST_TIME_LIMIT``, so an enumeration that
    turns exponential fails that one test and the run goes on."""
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expire(signum, frame):
        raise TimeoutError(f"test ran past {TEST_TIME_LIMIT} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(TEST_TIME_LIMIT)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
