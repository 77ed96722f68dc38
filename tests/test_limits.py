"""The per-test resource limits that ``conftest`` sets for the whole run."""

import pytest

from conftest import TEST_MEMORY_LIMIT

resource = pytest.importorskip("resource")


def test_memory_cap_turns_a_runaway_allocation_into_memory_error():
    soft = resource.getrlimit(resource.RLIMIT_AS)[0]
    if soft == resource.RLIM_INFINITY or soft > TEST_MEMORY_LIMIT:
        pytest.skip("the address-space cap is not in effect on this platform")
    with pytest.raises(MemoryError):
        bytearray(3 * 1024**3)
