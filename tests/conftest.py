"""Shared fixtures."""

import multiprocessing

import pytest


@pytest.fixture
def pool_starts(monkeypatch):
    """Real multiprocessing pools on two CPUs, recording each pool's size."""
    real_pool, started = multiprocessing.Pool, []

    def pool(processes):
        started.append(processes)
        return real_pool(processes)

    monkeypatch.setattr("multiprocessing.Pool", pool)
    monkeypatch.setattr("stablepairs.localcurve.os.cpu_count", lambda: 2)
    return started
