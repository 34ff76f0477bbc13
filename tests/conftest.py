import os

import pytest


@pytest.fixture
def cpus(monkeypatch):
    """Set the number of CPUs control.run_closed_loops sees, so that its
    forked path also runs on a one-CPU machine."""

    def set_cpus(n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))

    return set_cpus
