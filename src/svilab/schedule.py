"""Batch-size schedules and what a sample budget pays for.

Every scheme is defined by its schedule ``N_0, N_1, ...``, and one step
``k`` draws two batches of ``N_k`` samples. A solver config holds one
:class:`Schedule`. Before its first draw, a run takes the list of the
leading sizes the remaining budget pays for, :func:`sizes_within`, and
that list drives its loop, both its stream feeds and its tape key; the
harness and the PPAWSS outer loop price a schedule the same way.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import islice

from .errors import ScheduleOverflow

__all__ = ["Schedule", "sizes_within"]


@lru_cache(maxsize=16)
def _sizes(size_of, params):
    """The sizes ``size_of(k, *params)`` computed so far: one list per
    size rule and parameters, shared by every :class:`Schedule` of it."""
    return []


class Schedule:
    """Batch sizes of one run, computed as they are walked and kept.

    ``size_of(k, *params)`` gives ``N_k``. The schedule ends after
    ``length`` sizes, or before the first size that raises
    :class:`ScheduleOverflow`. Schedules of the same rule and parameters
    share the sizes computed so far, whatever their lengths, so a budget
    test and the run that follows it, or a run and the shorter run that
    the budget pays for, share one computation.
    """

    def __init__(self, size_of, params, length):
        self._size_of = size_of
        self._params = params
        self._length = length
        self._sizes = _sizes(size_of, params)

    def __iter__(self):
        sizes = self._sizes
        k = 0
        while k < self._length:
            if k < len(sizes):
                # every size computed so far in one pass: runs of one
                # rule, as PPAWSS's subproblems, mostly walk known sizes
                stop = min(len(sizes), self._length)
                yield from islice(sizes, k, stop)
                k = stop
                continue
            try:
                size = self._size_of(k, *self._params)
            except ScheduleOverflow:
                self._length = k
                return
            sizes.append(size)
            yield size
            k += 1


def sizes_within(schedule, limit):
    """The leading sizes ``N_k`` of ``schedule``, as a list, whose step
    costs ``2 * N_k`` sum to at most ``limit`` oracle calls."""
    sizes = []
    spent = 0
    for n_k in schedule:
        spent += 2 * n_k
        if spent > limit:
            break
        sizes.append(n_k)
    return sizes
