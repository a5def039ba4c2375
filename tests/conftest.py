import os

import pytest


@pytest.fixture
def set_cores():
    """Let the process run on ``count`` of the cores it may use (on all of them
    when it may use fewer); the cores it had come back when the test ends.  The
    package runs on the calling thread, so no result may depend on the count."""
    if not hasattr(os, "sched_setaffinity"):
        yield lambda count: None
        return
    usable = sorted(os.sched_getaffinity(0))

    def set_to(count: int) -> None:
        os.sched_setaffinity(0, usable[:count])

    try:
        yield set_to
    finally:
        os.sched_setaffinity(0, usable)
