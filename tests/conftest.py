"""Shared fixtures."""

import os
import sys

import pytest

from shamans import signal


@pytest.fixture
def thread_counts(monkeypatch):
    """Run a callable under SHAMANS_THREADS=1 and =4; return both results.

    The machine is reported to have 8 CPUs, so the second run really uses
    4 threads (more than most test machines have cores), and the thread
    switch interval is shortened so that the workers interleave finely.
    Returns ``(serial, threaded, pool_sizes)``: ``pool_sizes`` lists the
    worker count of every thread pool each run created.
    """
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    pool_sizes = {}

    class RecordingPool(signal.ThreadPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            pool_sizes[os.environ["SHAMANS_THREADS"]].append(max_workers)
            super().__init__(max_workers=max_workers, **kwargs)

    monkeypatch.setattr(signal, "ThreadPoolExecutor", RecordingPool)

    def run(fn):
        results = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for threads in ("1", "4"):
                monkeypatch.setenv("SHAMANS_THREADS", threads)
                pool_sizes[threads] = []
                results.append(fn())
        finally:
            sys.setswitchinterval(interval)
        return results[0], results[1], pool_sizes

    return run


@pytest.fixture
def no_threads(monkeypatch):
    """Make any thread pool the package tries to start fail the test."""

    def refuse(*args, **kwargs):
        raise AssertionError("a thread pool was started")

    monkeypatch.setattr(signal, "ThreadPoolExecutor", refuse)
