"""Projection correctness for the feasible-set zoo."""

from __future__ import annotations

import copy
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qp_oracle import (
    contains,
    project_ball_bruteforce,
    project_box_bruteforce,
    project_simplex_bruteforce,
    random_point,
)
from svilab.errors import ContractViolation
from svilab.sets import Ball, Box, Product, Simplex, _clip
from turns import take_turns


def finite_vec(dim, lo=-10.0, hi=10.0):
    return st.lists(
        st.floats(min_value=lo, max_value=hi, allow_nan=False),
        min_size=dim, max_size=dim,
    ).map(np.array)


def all_sets(dim):
    rng = np.random.default_rng(dim)
    lo = -np.abs(rng.uniform(0.5, 2.0, dim))
    return [
        Simplex(dim),
        Box(lo, lo + rng.uniform(0.5, 3.0, dim)),
        Ball(rng.uniform(-1.0, 1.0, dim), 1.5),
    ]


class TestSimplex:
    def test_worked_example(self):
        got = Simplex(3).project(np.array([0.2, 0.9, 0.5]))
        assert np.allclose(got, [0.0, 0.7, 0.3], atol=1e-15)

    def test_already_feasible_is_fixed(self):
        v = np.array([0.25, 0.5, 0.25])
        assert np.allclose(Simplex(3).project(v), v, atol=1e-15)

    def test_uniform_from_constant(self):
        # constant vectors project to the barycenter
        got = Simplex(4).project(np.full(4, 7.3))
        assert np.allclose(got, 0.25, atol=1e-12)

    def test_dimension_one(self):
        assert Simplex(1).project(np.array([-3.0])) == pytest.approx(1.0)

    def test_contains(self):
        s = Simplex(3)
        assert contains(s, np.array([0.2, 0.3, 0.5]))
        assert not contains(s, np.array([0.5, 0.6, -0.1]))
        assert not contains(s, np.array([0.2, 0.2, 0.2]))

    def test_rejects_bad_input(self):
        with pytest.raises(ContractViolation):
            Simplex(3).project(np.array([1.0, 2.0]))
        with pytest.raises(ContractViolation):
            Simplex(2).project(np.array([np.nan, 0.0]))
        with pytest.raises(ValueError):
            Simplex(0)

    @settings(max_examples=150, deadline=None)
    @given(finite_vec(5))
    # two supports tie in squared distance to within its rounding here
    @example(np.array([0.0, -2.0, -0.5, -0.5, -2.0**-23]))
    def test_matches_bruteforce(self, v):
        got = Simplex(5).project(v)
        want = project_simplex_bruteforce(v)
        assert np.linalg.norm(got - want) <= 1e-8

    @settings(max_examples=100, deadline=None)
    @given(finite_vec(4))
    def test_idempotent(self, v):
        s = Simplex(4)
        once = s.project(v)
        assert np.linalg.norm(s.project(once) - once) <= 1e-14
        assert contains(s, once, tol=1e-12)


def reference_simplex(v):
    """The vectorised sort/cumsum/nonzero form that ``_project_simplices``
    replaced; the library's result must equal it bit for bit."""
    u = np.sort(v)[::-1]
    cssv = u.cumsum()
    cssv -= 1.0
    rho = np.nonzero(u * np.arange(1.0, v.size + 1.0) > cssv)[0][-1]
    tau = cssv[rho] / (rho + 1.0)
    return np.maximum(v - tau, 0.0)


@st.composite
def simplex_inputs(draw):
    """Vectors of 1-64 entries: one scale from 1e-8 to 1e3, per-entry
    magnitudes over that range, points within 1e-8 of the simplex, and
    entries drawn from a pool of at most three values (ties)."""
    dim = draw(st.integers(1, 64))
    kind = draw(st.sampled_from(["scaled", "mixed", "near_simplex", "ties"]))
    if kind == "scaled":
        return draw(finite_vec(dim, -1.0, 1.0)) * 10.0 ** draw(st.floats(-8.0, 3.0))
    if kind == "mixed":
        signs = np.sign(draw(finite_vec(dim, -1.0, 1.0)))
        return signs * 10.0 ** draw(finite_vec(dim, -8.0, 3.0))
    if kind == "near_simplex":
        weights = draw(finite_vec(dim, 0.0, 1.0))
        total = weights.sum()
        point = weights / total if total > 0 else np.full(dim, 1.0 / dim)
        jitter = draw(finite_vec(dim, -1.0, 1.0)) * 10.0 ** draw(st.floats(-16.0, -8.0))
        return point + jitter
    pool = draw(st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=3))
    return np.array(draw(st.lists(st.sampled_from(pool), min_size=dim, max_size=dim)))


def assert_bit_identical(got, want):
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


class TestSimplexMatchesReference:
    @settings(max_examples=400, deadline=None)
    @given(simplex_inputs())
    def test_every_entry_point(self, v):
        want = reference_simplex(v)
        assert_bit_identical(Simplex(v.size).project(v), want)
        product = Product(Simplex(v.size), Simplex(v.size))
        got = product.project(np.concatenate([v, v[::-1]]))
        assert_bit_identical(got[:v.size], want)
        assert_bit_identical(got[v.size:], reference_simplex(v[::-1]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        v = np.array([0.3, bad, 0.1])
        with pytest.raises(ContractViolation, match="non-finite"):
            Simplex(3).project(v)
        with pytest.raises(ContractViolation, match="non-finite"):
            Product(Simplex(1), Simplex(2)).project(v)

    def test_wrong_length_rejected(self):
        with pytest.raises(ContractViolation, match="expected length 3"):
            Simplex(3).project(np.ones(4))
        with pytest.raises(ContractViolation, match="expected length 3"):
            Product(Simplex(1), Simplex(2)).project(np.ones(2))
        with pytest.raises(ContractViolation, match="1-D"):
            Simplex(4).project(np.ones((2, 2)))


@st.composite
def huge_inputs(draw):
    """1-8 entries around an offset of magnitude 8e15 to 1e300, either
    sign, spread by under an ulp of it, by a few ulps, or by up to three
    times its size, with a max of magnitude 2**53 or more: there
    max - 1.0 rounds, to the max itself or 2 below it."""
    dim = draw(st.integers(1, 8))
    offset = draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(st.floats(15.9, 300.0))
    spread = draw(st.sampled_from([1.0, abs(offset) * 1e-15, abs(offset)]))
    v = offset + draw(finite_vec(dim, -3.0, 3.0)) * spread
    assume(abs(v.max()) >= 2.0**53)
    return v


class TestSimplexLargeEntries:
    @settings(max_examples=200, deadline=None)
    @given(huge_inputs())
    @example(np.array([1e16, 0.0]))
    @example(np.array([1e308, 1e308]))
    @example(np.array([-1e17, 0.0, 5.0]))
    @example(np.array([-1e17]))
    @example(np.array([2.0**53 + 2.0, 0.0]))  # max - 1.0 rounds 2 below it
    def test_lands_on_simplex(self, v):
        # the projection commutes with a common shift, and the entries
        # within 1 of the max lose nothing when it is subtracted
        got = Simplex(v.size).project(v)
        assert np.all(got >= 0.0)
        assert abs(got.sum() - 1.0) <= 1e-12
        assert np.allclose(got, reference_simplex(v - v.max()), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("v, want", [
        ([1e16, 0.0], [1.0, 0.0]),
        ([1e308, 1e308], [0.5, 0.5]),
        ([-1e17, 0.0, 5.0], [0.0, 0.0, 1.0]),
        ([-1e17], [1.0]),
        ([2.0**53 + 2.0, 0.0], [1.0, 0.0]),
    ])
    def test_pinned_values(self, v, want):
        assert np.array_equal(Simplex(len(v)).project(v), want)


# products of five coordinates: simplices only (the one-pass path, with
# two and three blocks), and with a box or a nested product (the
# per-block path)
FIVE = {
    "simplex": Product(Simplex(2), Simplex(3)),
    "three-simplices": Product(Simplex(1), Simplex(2), Simplex(2)),
    "box": Product(Box(-np.ones(2), np.ones(2)), Simplex(3)),
    "nested": Product(Product(Simplex(2)), Simplex(3)),
}


class TestProductValidation:
    @pytest.mark.parametrize("product", FIVE.values(), ids=FIVE.keys())
    @pytest.mark.parametrize("position", range(5))
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected_in_every_position(self, product, position, bad):
        v = np.full(5, 0.2)
        v[position] = bad
        with pytest.raises(ContractViolation,
                           match="^vector contains non-finite entries$"):
            product.project(v)
        with pytest.raises(ContractViolation,
                           match="^vector contains non-finite entries$"):
            product.project(v.tolist(), out=np.empty(5))

    @pytest.mark.parametrize("first", [Simplex(2), Box(-np.ones(2), np.ones(2))],
                             ids=["simplex", "box"])
    @pytest.mark.parametrize("size", [0, 4, 6])
    def test_wrong_length_rejected(self, first, size):
        with pytest.raises(ContractViolation, match="expected length 5"):
            Product(first, Simplex(3)).project(np.full(size, 0.2))

    def test_overflowing_finite_blocks_project(self):
        # each block's entries sum to inf as Python floats, yet are finite
        big = [1e308, 1e308]
        got = Product(Simplex(2), Simplex(2)).project(big + big)
        assert np.array_equal(got, [0.5, 0.5, 0.5, 0.5])
        box = Box(-np.ones(2), np.ones(2))
        got = Product(box, Simplex(3)).project(big + [1e308, 1e308, -1e308])
        assert np.array_equal(got, [1.0, 1.0, 0.5, 0.5, 0.0])


def shifted_reference(v):
    """``reference_simplex`` of a block, on the block shifted by its max
    when that has magnitude 2**53 or more, as the projection does."""
    top = v.max()
    if abs(top) >= 2.0**53:
        with np.errstate(over="ignore"):
            v = v - top
    return reference_simplex(v)


@st.composite
def signed_zero_inputs(draw):
    """1-8 entries from a pool with both zeros, so ties and a -0.0 that
    the shift leaves at -0.0 for the clip to decide."""
    dim = draw(st.integers(1, 8))
    pool = [0.0, -0.0, 1.0, -1.0, 0.5, 2.0]
    return np.array(draw(st.lists(st.sampled_from(pool), min_size=dim,
                                  max_size=dim)))


# the FOUND inputs of ROADMAP item 2: a max between about 1e15 and 2**53
# leaves the simplex (sums 1.125 and 1.5); these bits stay until the
# trace re-baseline fixes them for every input at once
OFF_SIMPLEX = [
    (np.array([1e15 + 0.2, 1e15, 1e15 - 0.2]), [0.625, 0.375, 0.125]),
    (np.array([4.5e15, 4.5e15 + 1, 4.5e15 - 1, 4.5e15 + 0.5]),
     [0.0, 1.0, 0.0, 0.5]),
]


class TestProductOfSimplices:
    """A product whose blocks are all simplices projects in one pass
    over the whole vector, with the bits of each block on its own."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(simplex_inputs(), huge_inputs(),
                              signed_zero_inputs()),
                    min_size=1, max_size=3))
    @example([OFF_SIMPLEX[0][0], OFF_SIMPLEX[1][0]])
    @example([np.array([1.0, -0.0]), np.array([1e16, 0.0]),
              np.array([-0.0, -0.0])])
    @example([np.array([1e308, 1e308]), np.array([0.3, 0.3, 0.4])])
    def test_blocks_one_by_one(self, blocks):
        product = Product([Simplex(b.size) for b in blocks])
        v = np.concatenate(blocks)
        got = product.project(v)
        in_place = v.copy()
        assert product.project(in_place, out=in_place) is in_place
        assert_bit_identical(in_place, got)
        start = 0
        for b in blocks:
            part = got[start:start + b.size]
            assert_bit_identical(part, Simplex(b.size).project(b))
            assert_bit_identical(part, shifted_reference(b))
            start += b.size

    # four threads project through one product at once, each into its
    # own out, so the thresholds vector the product keeps with the last
    # out changes hands all the time; each result must have the bits of
    # a fresh projection, which keeps nothing
    SHARED = Product([Simplex(3)] * 4)

    def _check_threads(self, run):
        rng = np.random.default_rng(8)
        inputs = [rng.normal(size=(300, 12)) for _ in range(4)]

        def work(rows):
            out = np.empty(12)
            return lambda: [self.SHARED.project(v, out=out).copy()
                            for v in rows]

        got = run([work(rows) for rows in inputs])
        for rows, results in zip(inputs, got):
            for v, result in zip(rows, results):
                assert_bit_identical(
                    result, Product([Simplex(3)] * 4).project(v))

    @pytest.mark.usefixtures("fast_switching")
    def test_threads_sharing_one_product_keep_their_bits(self):
        def run(works):
            with ThreadPoolExecutor(max_workers=len(works)) as pool:
                runs = [pool.submit(work) for work in works]
                return [r.result(timeout=60) for r in runs]
        self._check_threads(run)

    @pytest.mark.parametrize("seed", range(3))
    def test_threads_taking_turns_on_one_product_keep_their_bits(self, seed):
        # the same, handed over at seeded points (see turns.py): the race
        # of a memo updated entry by entry shows on any machine
        self._check_threads(lambda works: take_turns(works, seed))

    @pytest.mark.parametrize("v, want", OFF_SIMPLEX)
    def test_off_simplex_bits_kept(self, v, want):
        product = Product(Simplex(v.size), Simplex(3))
        got = product.project(np.concatenate([v, [0.2, 0.5, 0.3]]))
        assert got[:v.size].tolist() == want


class TestEntryCheck:
    """An exact float64 ndarray of the set's shape skips the conversion;
    every other input gets the result and the error it got before."""

    SETS = [Simplex(5), Box(-np.ones(5), np.ones(5)), Ball(np.zeros(5), 0.7),
            *FIVE.values()]

    @pytest.mark.parametrize("target", SETS, ids=lambda s: type(s).__name__)
    def test_converted_inputs(self, target):
        rng = np.random.default_rng(5)
        v = rng.normal(size=5)
        want = target.project(v)
        wide = np.empty(10)
        wide[::2] = v
        for other in (v.tolist(), wide[::2], v.astype(">f8"),
                      v.astype(np.float32), (v * 4).astype(np.int64)):
            got = target.project(other)
            assert_bit_identical(
                got, target.project(np.array(other, dtype=np.float64)))
            assert got.dtype == np.float64 and got.flags.c_contiguous
        assert_bit_identical(target.project(wide[::2]), want)
        out = np.empty(5)
        assert target.project(v.tolist(), out=out) is out
        assert_bit_identical(out, want)

    @pytest.mark.parametrize("target", SETS, ids=lambda s: type(s).__name__)
    def test_rejected_inputs(self, target):
        for bad, message in [
            (np.ones((1, 5)), r"^expected a 1-D vector, got shape \(1, 5\)$"),
            (np.ones((5, 1)), r"^expected a 1-D vector, got shape \(5, 1\)$"),
            (np.float64(0.2), r"^expected a 1-D vector, got shape \(\)$"),
            (np.ones(4), "^expected length 5, got 4$"),
            (np.ones(6, dtype=np.float32), "^expected length 5, got 6$"),
            ([0.2] * 10, "^expected length 5, got 10$"),
        ]:
            with pytest.raises(ContractViolation, match=message):
                target.project(bad)


class TestBox:
    def test_clip_is_the_ufunc(self):
        # numpy 1.24-1.26 and 2 each hold the clip ufunc in one of the
        # two modules sets.py imports it from
        assert isinstance(_clip, np.ufunc)

    def test_clips_componentwise(self):
        b = Box(np.array([-1.0, 0.0]), np.array([1.0, 2.0]))
        got = b.project(np.array([3.0, -5.0]))
        assert np.allclose(got, [1.0, 0.0], atol=0)

    def test_requires_strict_bounds(self):
        with pytest.raises(ValueError):
            Box(np.array([0.0]), np.array([0.0]))

    @settings(max_examples=100, deadline=None)
    @given(finite_vec(3))
    def test_matches_bruteforce(self, v):
        lo = np.array([-1.0, -2.0, 0.5])
        hi = np.array([1.0, -0.5, 2.0])
        got = Box(lo, hi).project(v)
        want = project_box_bruteforce(v, lo, hi)
        assert np.linalg.norm(got - want) <= 1e-8

    @pytest.mark.parametrize("v", [[np.nan, 0.0, 0.0], [0.0, 0.0, np.inf],
                                   [-np.inf, 0.0, 0.0], [np.inf, 0.0, -np.inf],
                                   [np.nan, 1e300, np.inf]])
    def test_non_finite_rejected(self, v):
        # with nothing but a ContractViolation: the suite runs with
        # warnings as errors, and numpy warns about overflow or inf - inf
        # in some reductions of such vectors
        v = np.array(v)
        box = Box(-np.ones(3), np.ones(3))
        with pytest.raises(ContractViolation, match="non-finite"):
            box.project(v)
        with pytest.raises(ContractViolation, match="non-finite"):
            box.project(v, out=np.empty(3))

    @pytest.mark.parametrize("big", [1e200, -1e200, 1.7e308])
    def test_finite_entries_whose_squares_overflow_project(self, big):
        box = Box(-np.ones(3), np.ones(3))
        got = box.project(np.array([big, 0.5, -big]))
        assert np.array_equal(got, [np.sign(big), 0.5, -np.sign(big)])


# finite magnitudes whose squares overflow, so the entry check's squared
# norm is inf and only the exact isfinite test passes them
HUGE = st.floats(1e154, 1.7976931348623157e308).flatmap(
    lambda x: st.sampled_from([x, -x]))
BOUND = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]),
                  st.floats(-1e6, 1e6), HUGE)


@st.composite
def box_inputs(draw):
    """(lo, hi, v): bounds with signed zeros and huge entries among them,
    and a v whose entries are signed zeros, the entry's bounds, huge
    entries or any finite float. Up to 40 entries, so both the vector
    body and the tail of numpy's loops are reached."""
    dim = draw(st.integers(1, 40))
    lo, hi, v = [], [], []
    for _ in range(dim):
        a, b = sorted([draw(BOUND), draw(BOUND)])
        if not a < b:  # equal, or a pair of zeros of either sign
            if b < 1.0:
                b = float(np.nextafter(b, np.inf))
            else:
                a = float(np.nextafter(a, -np.inf))
        lo.append(a)
        hi.append(b)
        v.append(draw(st.one_of(
            st.sampled_from([0.0, -0.0, a, b, -a, -b]), HUGE,
            st.floats(allow_nan=False, allow_infinity=False))))
    return np.array(lo), np.array(hi), np.array(v)


class TestBoxClip:
    """A box projection is one clip with the bits of the maximum and
    minimum pair, in a fresh array, a caller's buffer or in place (one
    signed-zero case in place aside, below)."""

    @settings(max_examples=150, deadline=None)
    @given(box_inputs())
    @example((np.array([0.0, -0.0, -1.0]), np.array([1.0, 1.0, 0.0]),
              np.array([-0.0, 0.0, -0.0])))
    @example((np.array([-1e308]), np.array([1e308]), np.array([1.7e308])))
    def test_bits_of_maximum_then_minimum(self, case):
        lo, hi, v = case
        box = Box(lo, hi)
        want = np.minimum(np.maximum(v, lo), hi)
        assert_bit_identical(box.project(v), want)
        assert_bit_identical(box.project(v, out=np.empty(v.size)), want)
        inplace = v.copy()
        assert box.project(inplace, out=inplace) is inplace
        if v.size > 1:
            assert_bit_identical(inplace, want)
        else:
            # see test_one_entry_in_place_zero_tie
            assert np.array_equal(inplace, want)

    def test_one_entry_in_place_zero_tie(self):
        # numpy 2.4's clip of a one-entry vector written in place (and of
        # bounds with stride 0, which a Box never has) settles a tie of
        # -0.0 with a +0.0 bound as -0.0, where the maximum and minimum
        # pair gives the bound's +0.0. The value is the same point; only
        # the sign bit of that zero differs. No solver projects in place
        v = np.array([-0.0])
        want = np.minimum(np.maximum(v, 0.0), 1.0)
        got = Box([0.0], [1.0]).project(v, out=v)
        assert np.array_equal(got, want) and not np.signbit(want[0])

    @settings(max_examples=50, deadline=None)
    @given(box_inputs(), st.data())
    def test_non_finite_raises_before_writing(self, case, data):
        lo, hi, v = case
        position = data.draw(st.integers(0, v.size - 1), label="position")
        v[position] = data.draw(st.sampled_from([np.nan, np.inf, -np.inf]),
                                label="bad")
        box = Box(lo, hi)
        out = np.full(v.size, 7.0)
        with pytest.raises(ContractViolation, match="non-finite"):
            box.project(v, out=out)
        assert np.array_equal(out, np.full(v.size, 7.0))
        with pytest.raises(ContractViolation, match="non-finite"):
            box.project(v, out=v)


class TestOut:
    """project(v, out=buf) writes the bits project(v) returns into buf."""

    SETS = [Box(np.array([-1.0, 0.0, 0.5]), np.array([1.0, 2.0, 0.75])),
            Ball(np.array([0.1, -0.2, 0.3]), 0.8),
            Simplex(3),
            Product(Simplex(2), Box(-np.ones(2), np.ones(2)), Simplex(3)),
            Product(Product(Simplex(2), Simplex(1)), Ball(np.zeros(2), 1.0)),
            Product(Simplex(2), Simplex(3), Simplex(1))]

    @pytest.mark.parametrize("target", SETS, ids=lambda s: type(s).__name__)
    def test_out_matches_fresh(self, target):
        rng = np.random.default_rng(target.dimension)
        out = np.empty(target.dimension)
        for _ in range(50):
            v = rng.normal(scale=3.0, size=target.dimension)
            want = target.project(v)
            got = target.project(v, out=out)
            assert got is out
            assert np.array_equal(got, want)

    # a call: (input, out, fresh) with the input a pool index or "list",
    # out a pool index (the input's own included: in place) or None, and
    # fresh whether new values are written into the input first
    CALLS = st.lists(st.tuples(st.sampled_from([0, 1, 2, "list"]),
                               st.sampled_from([0, 1, 2, None]),
                               st.booleans()),
                     min_size=1, max_size=12)

    @pytest.mark.parametrize("target", SETS, ids=lambda s: type(s).__name__)
    @settings(max_examples=60, deadline=None)
    @given(calls=CALLS, seed=st.integers(0, 2**32 - 1))
    def test_reused_buffers_match_fresh(self, target, calls, seed):
        """Each projection equals the one a twin set, which has kept
        nothing, returns for a fresh copy of the input, whatever buffers
        the calls before used, and writes no buffer but out."""
        twin = copy.deepcopy(target)
        rng = np.random.default_rng(seed)
        dim = target.dimension
        pool = [rng.normal(scale=3.0, size=dim) for _ in range(3)]
        for source, sink, fresh in calls:
            if source == "list":
                v = rng.normal(scale=3.0, size=dim).tolist()
            else:
                v = pool[source]
                if fresh:
                    v[:] = rng.normal(scale=3.0, size=dim)
            want = twin.project(np.array(v))
            before = [buf.copy() for buf in pool]
            if sink is None:
                got = target.project(v)
                assert all(got is not buf for buf in pool)
            else:
                got = target.project(v, out=pool[sink])
                assert got is pool[sink]
            assert np.array_equal(got, want)
            for i, buf in enumerate(pool):
                if i != sink:
                    assert np.array_equal(buf, before[i]), i


class TestBall:
    def test_interior_point_fixed(self):
        b = Ball(np.zeros(2), 1.0)
        v = np.array([0.3, 0.4])
        assert np.array_equal(b.project(v), v)

    def test_exterior_point_scaled(self):
        b = Ball(np.zeros(2), 1.0)
        got = b.project(np.array([3.0, 4.0]))
        assert np.allclose(got, [0.6, 0.8], atol=1e-15)

    def test_offcenter(self):
        b = Ball(np.array([1.0, 1.0]), 2.0)
        got = b.project(np.array([1.0, 5.0]))
        assert np.allclose(got, [1.0, 3.0], atol=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(finite_vec(3))
    def test_matches_bruteforce(self, v):
        center = np.array([0.5, -0.25, 0.0])
        got = Ball(center, 1.25).project(v)
        want = project_ball_bruteforce(v, center, 1.25)
        assert np.linalg.norm(got - want) <= 1e-8


class TestProduct:
    def test_projects_blockwise(self):
        p = Product(Simplex(2), Box(np.array([-1.0]), np.array([1.0])))
        got = p.project(np.array([2.0, 0.0, -4.0]))
        assert np.allclose(got[:2], Simplex(2).project(np.array([2.0, 0.0])))
        assert got[2] == pytest.approx(-1.0)

    def test_accepts_list_form(self):
        p = Product([Simplex(2), Simplex(3)])
        assert p.dimension == 5

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Product()

    def test_contains_requires_all_blocks(self):
        p = Product(Simplex(2), Simplex(2))
        assert contains(p, np.array([0.5, 0.5, 1.0, 0.0]))
        assert not contains(p, np.array([0.5, 0.5, 1.0, 0.5]))


class TestSharedProperties:
    def test_nonexpansive_bulk(self):
        # 1000 random pairs per set: |Px - Py| <= |x - y|
        rng = np.random.default_rng(42)
        for dim in (2, 3, 4):
            for s in all_sets(dim):
                for _ in range(1000 // (3 * 3)):
                    x = rng.standard_normal(dim) * 3.0
                    y = rng.standard_normal(dim) * 3.0
                    lhs = np.linalg.norm(s.project(x) - s.project(y))
                    rhs = np.linalg.norm(x - y)
                    assert lhs <= rhs + 1e-12

    def test_variational_characterization(self):
        # <v - Pv, y - Pv> <= 0 for all feasible y
        rng = np.random.default_rng(7)
        for dim in (2, 3, 4):
            for s in all_sets(dim):
                for _ in range(30):
                    v = rng.standard_normal(dim) * 4.0
                    p = s.project(v)
                    for _ in range(10):
                        y = random_point(s, rng)
                        assert float(np.dot(v - p, y - p)) <= 1e-10

    def test_random_points_feasible(self):
        rng = np.random.default_rng(3)
        for dim in (1, 2, 5):
            for s in all_sets(max(dim, 2))[:2] + [Ball(np.zeros(dim), 1.0)]:
                for _ in range(20):
                    assert contains(s, random_point(s, rng), tol=1e-9)
