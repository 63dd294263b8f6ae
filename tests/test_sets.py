"""Projection correctness for the feasible-set zoo."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qp_oracle import (
    project_ball_bruteforce,
    project_box_bruteforce,
    project_simplex_bruteforce,
)
from svilab import Ball, Box, ContractViolation, Product, Simplex, project_simplex


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

    def test_function_form_matches_class(self):
        v = np.array([1.2, -0.3, 0.4, 0.05])
        assert np.array_equal(project_simplex(v), Simplex(4).project(v))

    def test_contains(self):
        s = Simplex(3)
        assert s.contains(np.array([0.2, 0.3, 0.5]))
        assert not s.contains(np.array([0.5, 0.6, -0.1]))
        assert not s.contains(np.array([0.2, 0.2, 0.2]))

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
        assert s.contains(once, tol=1e-12)


def reference_simplex(v):
    """The vectorised sort/cumsum/nonzero form that ``_simplex_core``
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
        assert_bit_identical(project_simplex(v), want)
        assert_bit_identical(Simplex(v.size).project(v), want)
        product = Product(Simplex(v.size), Simplex(v.size))
        got = product.project(np.concatenate([v, v[::-1]]))
        assert_bit_identical(got[:v.size], want)
        assert_bit_identical(got[v.size:], reference_simplex(v[::-1]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        v = np.array([0.3, bad, 0.1])
        with pytest.raises(ContractViolation, match="non-finite"):
            project_simplex(v)
        with pytest.raises(ContractViolation, match="non-finite"):
            Simplex(3).project(v)
        with pytest.raises(ContractViolation, match="non-finite"):
            Product(Simplex(1), Simplex(2)).project(v)

    def test_wrong_length_rejected(self):
        with pytest.raises(ContractViolation, match="expected length 3"):
            Simplex(3).project(np.ones(4))
        with pytest.raises(ContractViolation, match="expected length 3"):
            Product(Simplex(1), Simplex(2)).project(np.ones(2))
        with pytest.raises(ContractViolation, match="empty"):
            project_simplex(np.ones(0))
        with pytest.raises(ContractViolation, match="1-D"):
            project_simplex(np.ones((2, 2)))


class TestBox:
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
        assert p.contains(np.array([0.5, 0.5, 1.0, 0.0]))
        assert not p.contains(np.array([0.5, 0.5, 1.0, 0.5]))


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
                        y = s.random_point(rng)
                        assert float(np.dot(v - p, y - p)) <= 1e-10

    def test_random_points_feasible(self):
        rng = np.random.default_rng(3)
        for dim in (1, 2, 5):
            for s in all_sets(max(dim, 2))[:2] + [Ball(np.zeros(dim), 1.0)]:
                for _ in range(20):
                    assert s.contains(s.random_point(rng), tol=1e-9)
