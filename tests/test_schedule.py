"""What a budget pays for: the size list a run draws its batches by."""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from svilab.errors import ContractViolation, ScheduleOverflow
from svilab.extragradient import eg_sample_size
from svilab.oracle import AdditiveGaussian, Feed, StochasticOracle
from svilab.schedule import Schedule, _sizes, sizes_within
from svilab.vs_ave import sample_size


@st.composite
def priced_schedule(draw):
    """A VS-Ave or extragradient size rule, its parameters, a length and
    a limit; some limits reach the rule's ScheduleOverflow."""
    length = draw(st.one_of(st.integers(1, 60), st.just(2**31)))
    if draw(st.booleans()):
        size_of = sample_size
        params = (draw(st.floats(0.05, 0.9)), draw(st.integers(1, 5)))
        # pays for every size below 2**62 at any of these rates
        cap = 2**70
    else:
        size_of = eg_sample_size
        theta = draw(st.sampled_from([0.5, 1.0, 3.0, 1e15]))
        params = (theta, draw(st.floats(1.001, 10.0)),
                  draw(st.floats(1e-4, 1.0)))
        # a few thousand steps; enough to overflow at theta = 1e15
        cap = int(theta * 10**7)
    # or exactly what the first few sizes cost
    exact = 2 * sum(filter(None, (_size(size_of, params, k)
                                  for k in range(draw(st.integers(0, 20))))))
    limit = draw(st.one_of(st.integers(0, 10**6), st.integers(0, cap),
                           st.just(cap), st.just(exact)))
    return size_of, params, length, limit


def _size(size_of, params, k):
    try:
        return size_of(k, *params)
    except ScheduleOverflow:
        return None


@settings(max_examples=60, deadline=None)
@given(case=priced_schedule(), more=st.integers(0, 10**9),
       cut=st.integers(0, 10**6))
# a limit of exactly what four steps cost pays for them
@example(case=(sample_size, (0.5, 1), 60, 30), more=0, cut=0)
# both rules end at ScheduleOverflow within these limits
@example(case=(sample_size, (0.5, 1), 2**31, 2**70), more=0, cut=0)
@example(case=(eg_sample_size, (1e15, 2.001, 1e-3), 2**31, 10**22), more=1,
         cut=0)
# a PPAWSS-like inner rule: its sizes run 1 x 17329, 2 x 10136 and
# 3 x 6779, and 45345 calls pay for 20000 steps, inside the run of 2s
@example(case=(sample_size, (0.99996, 1), 34244, 45345), more=10**5,
         cut=30000)
def test_sizes_within_is_the_longest_affordable_prefix(case, more, cut):
    size_of, params, length, limit = case
    schedule = Schedule(size_of, params, length)
    # the larger limit first, on a cold list; then warm walks of it
    _sizes.cache_clear()
    larger = sizes_within(schedule, limit + more)
    sizes = sizes_within(schedule, limit)
    # a prefix of the schedule whose steps cost at most the limit
    assert sizes == [size_of(k, *params) for k in range(len(sizes))]
    assert 2 * sum(sizes) <= limit
    # maximal: the schedule has no next size, or it would pass the limit
    k = len(sizes)
    after = _size(size_of, params, k) if k < length else None
    assert after is None or 2 * (sum(sizes) + after) > limit
    event("ends at the limit" if after is not None else
          "ends at the length" if k == length else "ends at the overflow")
    # a prefix of what the larger limit pays for
    assert larger == [size_of(k, *params) for k in range(len(larger))]
    assert larger[:k] == sizes
    # a shorter schedule of the rule ends at its own length
    shorter = Schedule(size_of, params, cut % (len(larger) + 1))
    assert sizes_within(shorter, limit + more) == larger[:shorter.length]
    # each answer is a list of its own: changing it changes no later one
    sizes.append(-1)
    larger.append(-1)
    assert sizes_within(schedule, limit) == sizes[:-1]
    assert sizes_within(schedule, limit + more) == larger[:-1]


def _slow_size(k, base):
    # a size rule slow enough that two walks of it overlap
    time.sleep(5e-4)
    return base + k


@pytest.mark.usefixtures("fast_switching")
def test_walks_on_threads_extend_a_cold_list_once():
    # two threads walk a rule no walk has seen, at once: each must get the
    # rule's sizes, and the list kept for later must hold each size once
    _sizes.cache_clear()
    schedule = Schedule(_slow_size, (3,), 200)
    want = [3 + k for k in range(200)]
    start = threading.Barrier(2)
    got = [None, None]

    def walk(i):
        start.wait()
        got[i] = sizes_within(schedule, 10**9)

    threads = [threading.Thread(target=walk, args=(i,)) for i in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert got == [want, want]
    assert _sizes(_slow_size, (3,)) == want


@settings(max_examples=20, deadline=None)
@given(case=priced_schedule())
def test_a_feed_has_no_step_past_its_list(case):
    size_of, params, length, limit = case
    sizes = sizes_within(Schedule(size_of, params, min(length, 400)), limit)
    noise = AdditiveGaussian(1.0)
    feed = Feed(noise, StochasticOracle(None, noise, rng_seed=0).stream(0, 0),
                sizes, 2)
    for n in sizes:
        assert np.isfinite(feed.next(n)).all()
    with pytest.raises(ContractViolation, match="the feed has no step left"):
        feed.next(1)
