import os

import pytest


@pytest.fixture
def set_cores(monkeypatch):
    """Set the usable core count that ``map_blocks`` shares work by."""

    def set_to(count: int) -> None:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))

    return set_to
