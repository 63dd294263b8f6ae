"""Batch-size schedules and what a sample budget pays for.

Every scheme is defined by its schedule ``N_0, N_1, ...``, and one step
``k`` draws two batches of ``N_k`` samples. A solver config holds one
:class:`Schedule` record. Before its first draw, a run takes the list
of the leading sizes the remaining budget pays for, :func:`sizes_within`,
and that list drives its loop, both its stream feeds and its tape key;
the harness and the PPAWSS outer loop price a schedule the same way.
"""

from __future__ import annotations

import threading
from functools import lru_cache
from typing import Callable, NamedTuple

from .errors import ScheduleOverflow

__all__ = ["Schedule", "sizes_within"]

# held while a walk reads or computes a size past those it found known
_extending = threading.Lock()


class Schedule(NamedTuple):
    """Batch sizes of one run: ``size_of(k, *params)`` gives ``N_k``,
    for ``length`` sizes or up to the first that raises
    :class:`ScheduleOverflow`."""

    size_of: Callable
    params: tuple
    length: int


@lru_cache(maxsize=16)
def _sizes(size_of, params):
    """The sizes ``size_of(k, *params)`` computed so far: one list per
    size rule and parameters, shared by every schedule of it."""
    return []


def sizes_within(schedule, limit):
    """The leading sizes ``N_k`` of ``schedule``, as a fresh list, whose
    step costs ``2 * N_k`` sum to at most ``limit`` oracle calls.

    The walk of every schedule: it computes each size of a rule once,
    so a budget test and the run that follows it, or a run and a
    shorter run of its rule, share one computation. A walk reads the
    sizes it finds known, which never change, without a lock, and takes
    one for each size past them, so walks on threads add each size once.
    """
    size_of, params, length = schedule
    known = _sizes(size_of, params)
    have = min(length, len(known))
    spent = 0
    # the sizes an earlier walk computed, then new ones, kept for later
    for k, n_k in zip(range(have), known):
        spent += 2 * n_k
        if spent > limit:
            return known[:k]
    for k in range(have, length):
        with _extending:
            if k == len(known):
                try:
                    known.append(size_of(k, *params))
                except ScheduleOverflow:
                    return known[:k]
        spent += 2 * known[k]
        if spent > limit:
            return known[:k]
    return known[:length]
