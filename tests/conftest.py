"""Fixtures that set how many processes the solver's walk uses."""

import contextlib
import os
import warnings

import pytest

import densitycode.matcher as matcher_module


@pytest.fixture
def one_cpu(monkeypatch):
    """A context in which the walk sees one usable CPU, so walks in process.

    A spy patched into a test sees only the fits of its own process: a
    second process walks on a copy of the spy and its records.
    """

    @contextlib.contextmanager
    def context():
        with monkeypatch.context() as patch:
            patch.setattr(os, "sched_getaffinity", lambda pid: {0})
            yield patch

    return context


@pytest.fixture
def two_processes(monkeypatch):
    """A context in which the walk runs in two processes; it yields the forks.

    The walk forks only on 2 usable CPUs in a process of one OS thread, and
    an unpinned BLAS pool is a second thread, so the context lifts both
    rules. Python 3.12 warns at a fork beside threads; OpenBLAS shuts its
    pool down at fork, so the context drops that one warning.
    """
    fork = os.fork

    @contextlib.contextmanager
    def context():
        forks = []

        def counted_fork():
            with warnings.catch_warnings():
                warnings.filterwarnings(
                    "ignore", "This process .* is multi-threaded", DeprecationWarning
                )
                pid = fork()
            if pid:
                forks.append(pid)
            return pid

        with monkeypatch.context() as patch:
            patch.setattr(matcher_module, "_walk_in_two", lambda n: n >= 2)
            patch.setattr(os, "fork", counted_fork)
            yield forks

    return context
