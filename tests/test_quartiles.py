"""The summary's quartiles, computed in Python, against numpy's."""

from __future__ import annotations

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from svilab.bench import _quartiles


def same_bits(got, want):
    # nan is nan whatever its sign: the summary writes repr(), "nan"
    if math.isnan(want):
        return math.isnan(got)
    return got == want and math.copysign(1.0, got) == math.copysign(1.0, want)


# the summary's domain: final metrics are norms or absolute values, so
# never -0.0 (min_value=0.0 leaves it out), with inf and nan allowed
values = st.lists(
    st.one_of(st.floats(min_value=0.0), st.just(math.nan),
              st.sampled_from([0.0, 1.0, 2.5, math.inf])),
    min_size=1, max_size=40)


@settings(max_examples=1000, deadline=None)
@given(values)
@example([1.0, 2.0, 3.0, 4.0])
@example([math.inf])
@example([0.0, math.inf])
@example([1e308, 1.7e308])
@example([2.0, math.nan, 1.0])
def test_quartiles_match_numpy(xs):
    with np.errstate(invalid="ignore", over="ignore"):
        a = np.array(xs)
        want = (np.median(a), np.percentile(a, 25), np.percentile(a, 75))
    got = _quartiles(xs)
    for g, w in zip(got, want):
        assert type(g) is float
        assert same_bits(g, float(w)), (got, want)
