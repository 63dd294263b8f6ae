"""Mean-map behavior and metadata verification."""

from __future__ import annotations

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from svilab.errors import ContractViolation
from svilab.maps import AffineMap, BimatrixMap, ShiftedMap


class TestAffineMap:
    def test_evaluates(self):
        f = AffineMap(np.array([[2.0, 0.0], [0.0, 3.0]]), np.array([1.0, -1.0]))
        assert np.allclose(f(np.array([1.0, 1.0])), [3.0, 2.0])

    def test_metadata_computed_from_spectrum(self):
        a = np.array([[2.0, 1.0], [-1.0, 2.0]])
        f = AffineMap(a, np.zeros(2))
        # symmetric part is 2 I; spectral norm is sqrt(5)
        assert f.mu == pytest.approx(2.0, abs=1e-12)
        assert f.lipschitz == pytest.approx(np.sqrt(5.0), abs=1e-12)

    def test_declared_metadata_verified(self):
        a = np.diag([1.0, 4.0])
        f = AffineMap(a, np.zeros(2), mu=1.0, lipschitz=4.0)
        assert f.mu == 1.0 and f.lipschitz == 4.0

    def test_declared_mu_mismatch_rejected(self):
        with pytest.raises(ValueError, match="declared mu"):
            AffineMap(np.diag([1.0, 4.0]), np.zeros(2), mu=2.0)

    def test_declared_lipschitz_mismatch_rejected(self):
        with pytest.raises(ValueError, match="declared lipschitz"):
            AffineMap(np.diag([1.0, 4.0]), np.zeros(2), lipschitz=3.0)

    def test_nonmonotone_matrix_rejected(self):
        with pytest.raises(ValueError, match="not monotone"):
            AffineMap(np.diag([-1.0, 1.0]), np.zeros(2))

    def test_shape_checks(self):
        with pytest.raises(ValueError):
            AffineMap(np.ones((2, 3)), np.zeros(2))
        with pytest.raises(ValueError):
            AffineMap(np.eye(2), np.zeros(3))

    def test_output_is_fresh(self):
        f = AffineMap(np.eye(2), np.zeros(2))
        x = np.array([1.0, 2.0])
        out = f(x)
        out += 100.0
        assert np.array_equal(f(x), [1.0, 2.0])


class TestBimatrixMap:
    def test_saddle_structure(self):
        a = np.array([[1.0, 2.0, 0.0], [0.0, 1.0, -1.0]])  # 2x3: m=2, n=3
        f = BimatrixMap(a)
        assert f.n == 3 and f.m == 2 and f.dimension == 5
        x = np.array([1.0, 0.0, 0.0])
        y = np.array([0.0, 1.0])
        got = f(np.concatenate([x, y]))
        assert np.allclose(got[:3], a.T @ y)
        assert np.allclose(got[3:], -(a @ x))

    def test_merely_monotone_metadata(self):
        a = np.array([[3.0, 0.0], [0.0, 4.0]])
        f = BimatrixMap(a)
        assert f.mu == 0.0
        assert f.lipschitz == pytest.approx(4.0, abs=1e-12)

    def test_skew_inner_product_vanishes(self):
        rng = np.random.default_rng(5)
        f = BimatrixMap(rng.standard_normal((3, 4)))
        for _ in range(100):
            z1 = rng.standard_normal(7)
            z2 = rng.standard_normal(7)
            val = float(np.dot(f(z1) - f(z2), z1 - z2))
            assert abs(val) <= 1e-10

    def test_rejects_bad_payoff(self):
        with pytest.raises(ValueError):
            BimatrixMap(np.ones(3))
        with pytest.raises(ValueError):
            BimatrixMap(np.array([[np.inf, 1.0]]))


class TestShiftedMap:
    def test_worked_example(self):
        base = AffineMap(np.array([[1.0]]), np.zeros(1))
        f = ShiftedMap(base, 0.5, np.array([1.0]))
        # F(3) + 2 (3 - 1) = 7
        assert f(np.array([3.0]))[0] == pytest.approx(7.0)

    def test_metadata_gains_inverse_lam(self):
        base = AffineMap(np.diag([1.0, 4.0]), np.zeros(2))
        f = ShiftedMap(base, 2.0, np.zeros(2))
        assert f.mu == pytest.approx(1.5)
        assert f.lipschitz == pytest.approx(4.5)
        assert f.dimension == 2

    def test_center_validated(self):
        base = AffineMap(np.eye(2), np.zeros(2))
        with pytest.raises(ContractViolation):
            ShiftedMap(base, 1.0, np.zeros(3))
        with pytest.raises(ContractViolation):
            ShiftedMap(base, 1.0, np.array([np.nan, 0.0]))
        with pytest.raises(ValueError):
            ShiftedMap(base, 0.0, np.zeros(2))

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(9)
        a = rng.standard_normal((4, 4))
        a = a @ a.T + 0.1 * np.eye(4)  # make it monotone
        base = AffineMap(a, rng.standard_normal(4))
        center = rng.standard_normal(4)
        f = ShiftedMap(base, 3.0, center)
        for _ in range(20):
            x = rng.standard_normal(4)
            want = base(x) + (x - center) / 3.0
            assert np.allclose(f(x), want, atol=1e-14, rtol=0)


class TestAffineParts:
    """``matrix @ z + offset`` reproduces every map, up to rounding."""

    def test_bimatrix(self):
        rng = np.random.default_rng(21)
        a = rng.standard_normal((3, 5))
        f = BimatrixMap(a)
        assert f.matrix.shape == (8, 8)
        np.testing.assert_array_equal(f.matrix[:5, 5:], a.T)
        np.testing.assert_array_equal(f.matrix[5:, :5], -a)
        assert not f.matrix[:5, :5].any() and not f.matrix[5:, 5:].any()
        np.testing.assert_array_equal(f.offset, np.zeros(8))
        z = rng.standard_normal(8)
        np.testing.assert_allclose(f.matrix @ z + f.offset, f(z),
                                   rtol=0, atol=1e-14)

    @pytest.mark.parametrize("base", [
        BimatrixMap(np.array([[1.0, -2.0], [0.5, 3.0]])),
        AffineMap(np.array([[2.0, 1.0], [-1.0, 2.0]]), np.array([0.3, -0.7])),
    ], ids=["bimatrix", "affine"])
    def test_shifted(self, base):
        rng = np.random.default_rng(22)
        center = rng.standard_normal(base.dimension)
        f = ShiftedMap(base, 4.0, center)
        np.testing.assert_array_equal(
            f.matrix, base.matrix + np.eye(base.dimension) / 4.0)
        np.testing.assert_array_equal(f.offset, base.offset - center / 4.0)
        for _ in range(10):
            z = rng.standard_normal(base.dimension)
            np.testing.assert_allclose(f.matrix @ z + f.offset, f(z),
                                       rtol=0, atol=1e-14)

    def test_shifted_non_affine_base_has_none(self):
        class Cubic:
            dimension, mu, lipschitz = 1, 0.0, 3.0

            def __call__(self, x, *, out=None):
                return np.power(x, 3, out=out)

        f = ShiftedMap(Cubic(), 1.0, np.zeros(1))
        with pytest.raises(AttributeError):
            _ = f.matrix
        # the shift calls its base with out=, None included
        x = np.array([0.5])
        assert np.array_equal(f(x), x ** 3 + x)
        out = np.empty(1)
        assert f(x, out=out) is out
        assert np.array_equal(out, x ** 3 + x)


def plain_saddle(a, z):
    n = a.shape[1]
    return np.concatenate([a.T @ z[n:], -(a @ z[:n])])


class TestBitForBit:
    """The maps against plain products, with np.array_equal: a cached
    transpose and negated matrix must not move a single bit."""

    SHAPES = [(1, 1), (2, 3), (10, 20), (20, 10), (7, 33)]

    @pytest.mark.parametrize("m, n", SHAPES)
    def test_bimatrix(self, m, n):
        rng = np.random.default_rng(m * 100 + n)
        a = rng.standard_normal((m, n))
        f = BimatrixMap(a)
        for _ in range(50):
            z = rng.standard_normal(n + m)
            assert np.array_equal(f(z), plain_saddle(a, z))
            z = np.concatenate([rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(m))])
            assert np.array_equal(f(z), plain_saddle(a, z))

    @pytest.mark.parametrize("m, n", SHAPES)
    def test_shifted_bimatrix(self, m, n):
        rng = np.random.default_rng(m * 100 + n + 1)
        a = rng.standard_normal((m, n))
        center = rng.standard_normal(n + m)
        f = ShiftedMap(BimatrixMap(a), 3500.0, center)
        for _ in range(50):
            z = rng.standard_normal(n + m)
            assert np.array_equal(f(z), plain_saddle(a, z) + (z - center) / 3500.0)

    @pytest.mark.parametrize("n", [1, 3, 50])
    def test_affine_is_the_plain_product(self, n):
        rng = np.random.default_rng(n)
        a = rng.standard_normal((n, n))
        a = a @ a.T + np.eye(n)
        b = rng.standard_normal(n)
        f = AffineMap(a, b)
        for _ in range(50):
            x = rng.standard_normal(n)
            assert np.array_equal(f(x), a @ x + b)


def _maps():
    rng = np.random.default_rng(11)
    a = rng.standard_normal((4, 4))
    affine = AffineMap(a @ a.T, rng.standard_normal(4))
    saddle = BimatrixMap(rng.standard_normal((3, 5)))
    return [affine, saddle,
            ShiftedMap(affine, 0.7, rng.standard_normal(4)),
            ShiftedMap(saddle, 3500.0, rng.standard_normal(8))]


# a call: (input, out, fresh) with the input a pool index or "list" (a
# plain list of fresh values), out a pool index or None, and fresh
# whether new values are written into the input buffer in place first
_POOL = 3
_calls = st.lists(st.tuples(st.sampled_from([0, 1, 2, "list"]),
                            st.sampled_from([0, 1, 2, None]),
                            st.booleans()),
                  min_size=1, max_size=12)


@pytest.mark.parametrize("f", _maps(), ids=lambda f: type(f).__name__)
@settings(max_examples=60, deadline=None)
@given(calls=_calls, seed=st.integers(0, 2**32 - 1))
def test_out_matches_fresh(f, calls, seed):
    """F(x, out=buf) writes into buf the bits that a twin map, which
    has seen no call, returns for a fresh copy of x: buffers that are
    reused, swapped between input and output, written in place between
    calls, left out (out=None) or replaced by a list. No buffer but
    out is written."""
    twin = copy.deepcopy(f)
    rng = np.random.default_rng(seed)
    pool = [rng.standard_normal(f.dimension) for _ in range(_POOL)]
    for source, target, fresh in calls:
        if source == "list":
            x = rng.standard_normal(f.dimension).tolist()
        else:
            x = pool[source]
            if fresh:
                x[:] = rng.standard_normal(f.dimension)
        if target == source:
            target = None  # out must not overlap x
        want = twin(np.array(x, dtype=np.float64))
        before = [buf.copy() for buf in pool]
        if target is None:
            got = f(x)
            assert all(got is not buf for buf in pool)
        else:
            got = f(x, out=pool[target])
            assert got is pool[target]
        assert np.array_equal(got, want)
        for i, buf in enumerate(pool):
            if i != target:
                assert np.array_equal(buf, before[i]), i


@settings(max_examples=300, deadline=None)
@given(rows=st.integers(1, 25), cols=st.integers(1, 25),
       exponent=st.floats(-5.0, 5.0), seed=st.integers(0, 2**32 - 1))
def test_vector_matrix_dot_is_the_transposed_product(rows, cols, exponent,
                                                     seed):
    """y.dot(M, out) gives the bits of M.T.dot(y, out): the maps and the
    payoff noise form A^T y without a transposed view."""
    rng = np.random.default_rng(seed)
    scale = 10.0 ** exponent
    m = scale * rng.standard_normal((rows, cols))
    y = scale * rng.standard_normal(rows)
    got, want = np.empty(cols), np.empty(cols)
    assert y.dot(m, got) is got
    m.T.dot(y, want)
    assert np.array_equal(got, want)
    # as the maps call it: halves of longer vectors
    z = np.concatenate([rng.standard_normal(cols), y])
    out = np.empty(cols + rows)
    z[cols:].dot(m, out[:cols])
    assert np.array_equal(out[:cols], want)
