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

#: soft address-space limit of the test process, in bytes
TEST_MEMORY_LIMIT = 2 * 1024**3


def pytest_sessionstart(session):
    """Lower the soft ``RLIMIT_AS`` to ``TEST_MEMORY_LIMIT`` where ``resource``
    allows it, so an enumeration that turns exponential fails with
    MemoryError instead of filling the machine's memory before the alarm."""
    try:
        import resource
    except ImportError:  # not on Windows
        return
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    if soft == resource.RLIM_INFINITY or soft > TEST_MEMORY_LIMIT:
        try:
            resource.setrlimit(resource.RLIMIT_AS, (TEST_MEMORY_LIMIT, hard))
        except (ValueError, OSError):  # a platform that refuses the limit
            pass


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
