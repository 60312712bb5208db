"""Helpers for tests of the forked path halves and of their memory."""

import os
import tracemalloc

import pytest

from uvpricer import sde


def forked(fork, call, *args, **kwargs):
    """``call`` with :func:`sde._fork_ok` forced to ``fork`` and path halves
    of any size forked; returns the result and the number of ``os.fork``
    calls it made."""
    started = []
    real_fork = os.fork

    def counting_fork():
        started.append(1)
        return real_fork()

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sde, "_fork_ok", lambda: fork)
        mp.setattr(sde, "_FORK_MIN_PATHS", 1)
        mp.setattr(os, "fork", counting_fork)
        return call(*args, **kwargs), len(started)


def assert_no_children():
    """Every child of this process has been reaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def in_process_peak(call, *args, **kwargs):
    """``call`` with :func:`sde._fork_ok` forced off; returns the result
    and the peak of the memory traced during the call, in bytes, numpy
    buffers included.  Anonymous shared memory is not traced."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sde, "_fork_ok", lambda: False)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            result = call(*args, **kwargs)
            return result, tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
