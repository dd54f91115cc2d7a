"""A run's work vector, counted by call, and its traced peak memory.

Importing it changes nothing; ``with count_work() as work:`` counts into the ``Counter``
``work`` until the block ends.  Its keys: ``normals`` (the samples ``standard_normal`` draws
from ``np.random.default_rng``'s generators), ``fft[n]`` and ``ifft[n]`` (``np.fft`` calls of
length n), ``exp[n]``, ``abs[n]`` and ``cumsum[n]`` (those numpy calls that return n
elements), ``response[n]`` (``ChannelRealization.response`` on n bins), ``tile`` and ``resize``.
"""

import collections
import contextlib
import tracemalloc
from unittest import mock

import numpy as np

from phasepos.channel import ChannelRealization

# (owner, name, the key's length from the result, or None for a key without one)
_COUNTED = ((np.fft, "fft", lambda r: np.shape(r)[-1]), (np.fft, "ifft", lambda r: np.shape(r)[-1]),
            (np, "exp", np.size), (np, "abs", np.size), (np, "cumsum", np.size),
            (ChannelRealization, "response", np.size), (np, "tile", None), (np, "resize", None))


class _CountedGenerator:
    """``rng``, whose ``standard_normal`` adds the samples it draws to ``work["normals"]``."""

    def __init__(self, rng, work):
        self._rng, self._work = rng, work

    def __getattr__(self, name):
        return getattr(self._rng, name)

    def standard_normal(self, *args, **kwargs):
        drawn = self._rng.standard_normal(*args, **kwargs)
        self._work["normals"] += np.size(drawn)
        return drawn


def _counted(fn, work, name, length):
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        work[name if length is None else f"{name}[{length(result)}]"] += 1
        return result
    return wrapper


@contextlib.contextmanager
def count_work():
    """Count the block's work into the ``Counter`` it yields (the module docstring's keys)."""
    work, default_rng = collections.Counter(), np.random.default_rng
    with contextlib.ExitStack() as patches:
        for owner, name, length in _COUNTED:
            patches.enter_context(mock.patch.object(
                owner, name, _counted(getattr(owner, name), work, name, length)))
        patches.enter_context(mock.patch.object(
            np.random, "default_rng",
            lambda *args, **kwargs: _CountedGenerator(default_rng(*args, **kwargs), work)))
        yield work


def calls(work, op):
    """``{n: calls}`` of ``work``'s ``op[n]`` keys."""
    return {int(key[len(op) + 1:-1]): n for key, n in work.items() if key.startswith(op + "[")}


def work_delta(old, new):
    """``counter old → new`` for each counter whose values differ, a missing one read as 0."""
    return [f"{key} {old.get(key, 0)} → {new.get(key, 0)}"
            for key in sorted(old.keys() | new.keys()) if old.get(key, 0) != new.get(key, 0)]


def traced_peak(fn, *args, **kwargs):
    """``(fn(*args, **kwargs), peak)``: the call's result and tracemalloc's peak bytes in it."""
    tracemalloc.start()
    try:
        return fn(*args, **kwargs), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
