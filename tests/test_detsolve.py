"""Tests for the deterministic reference solver."""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from svilab import detsolve
from svilab.detsolve import solve_deterministic_vi
from svilab.errors import NoConvergence
from svilab.maps import AffineMap, BimatrixMap, ShiftedMap
from svilab.metrics import natural_residual
from svilab.problems import bimatrix_from_payoff
from svilab.sets import Ball, Box, Product, Simplex

BOX1 = Box(np.array([-1.0]), np.array([1.0]))
FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def read_fixture(name):
    return np.loadtxt(os.path.join(FIXTURES, name), skiprows=1, ndmin=2)


def certified(z, fmap, feasible, tol):
    lip = fmap.lipschitz
    gamma = 1.0 / lip if lip > 0 else 1.0
    return natural_residual(z, fmap, feasible, gamma) <= tol


def active_face(z, feasible):
    """Coordinates of ``z`` at a bound: box bounds, or simplex zeros."""
    if isinstance(feasible, Box):
        return (z == feasible.lo) | (z == feasible.hi)
    return z == 0.0


# the table-1 game, and a monotone affine VI on [-1, 1]^3 whose solution
# (1, 4/15, -1/15) has its first coordinate at the upper bound
TABLE1 = bimatrix_from_payoff(read_fixture("bimatrix_seed777_L7.05_payoff.txt"),
                              with_reference=False)
FACE_PROBLEMS = {
    "table1": (TABLE1.mean_map, TABLE1.feasible_set),
    "box": (AffineMap(np.array([[2.0, 1.0, 0.0], [-1.0, 2.0, 0.5],
                                [0.0, -0.5, 1.0]]),
                      np.array([-3.0, 0.5, 0.2])),
            Box(-np.ones(3), np.ones(3))),
}


@pytest.fixture
def candidates(monkeypatch):
    """Every face solve of the exact finish, as (face point, result)."""
    seen = []
    original = detsolve._FaceFinish.candidate

    def spy(self, z):
        out = original(self, z)
        seen.append((z.copy(), out))
        return out

    monkeypatch.setattr(detsolve._FaceFinish, "candidate", spy)
    return seen


class TestSolve:
    def test_interior_root(self, affine_problem):
        fmap = affine_problem.mean_map
        z = solve_deterministic_vi(fmap, affine_problem.feasible_set, 1e-10)
        np.testing.assert_allclose(z, affine_problem.reference_solution,
                                   atol=1e-9)

    def test_residual_certified_at_tolerance(self, pennies_problem):
        fmap = pennies_problem.mean_map
        feasible = pennies_problem.feasible_set
        z = solve_deterministic_vi(fmap, feasible, 1e-10)
        r = natural_residual(z, fmap, feasible, 1.0 / fmap.lipschitz)
        assert r <= 1e-10

    def test_boundary_solution(self):
        # F(x) = x - 2 points right on all of [-1, 1]
        fmap = AffineMap(np.array([[1.0]]), np.array([-2.0]))
        z = solve_deterministic_vi(fmap, BOX1, 1e-12)
        assert z[0] == pytest.approx(1.0, abs=1e-10)

    def test_resolvent_of_identity(self):
        # F(x) = x shifted at u = 1 with lam = 1 solves to u/2
        fmap = ShiftedMap(AffineMap(np.array([[1.0]]), np.array([0.0])),
                          1.0, np.array([1.0]))
        z = solve_deterministic_vi(fmap, BOX1, 1e-12)
        assert z[0] == pytest.approx(0.5, abs=1e-10)

    def test_start_point_respected(self, pennies_problem):
        fmap = pennies_problem.mean_map
        feasible = pennies_problem.feasible_set
        z0 = np.array([0.9, 0.1, 0.2, 0.8])
        z = solve_deterministic_vi(fmap, feasible, 1e-10, z0=z0)
        np.testing.assert_allclose(z, pennies_problem.reference_solution,
                                   atol=1e-8)

    def test_tol_validation(self):
        fmap = AffineMap(np.array([[1.0]]), np.array([0.0]))
        with pytest.raises(ValueError):
            solve_deterministic_vi(fmap, BOX1, 0.0)

    def test_step_cap_raises(self, pennies_problem):
        with pytest.raises(NoConvergence, match="did not reach residual"):
            solve_deterministic_vi(
                pennies_problem.mean_map, pennies_problem.feasible_set,
                1e-13, z0=np.array([1.0, 0.0, 0.0, 1.0]), max_steps=3,
            )


class TestExactFinish:
    """The face solve finishes affine VIs on boxes and simplices; every
    point it returns carries the extragradient certificate."""

    def test_table1_payoff_matches_frozen_reference(self, monkeypatch):
        payoff = read_fixture("bimatrix_seed777_L7.05_payoff.txt")
        frozen = read_fixture("bimatrix_seed777_L7.05_reference.txt")[0]
        problem = bimatrix_from_payoff(payoff, with_reference=False)
        calls = [0]
        original = BimatrixMap.__call__

        def counting(self, z):
            calls[0] += 1
            return original(self, z)

        monkeypatch.setattr(BimatrixMap, "__call__", counting)
        z = solve_deterministic_vi(problem.mean_map, problem.feasible_set,
                                   1e-10)
        # extragradient alone needs 312,381 evaluations to reach 1e-10
        assert calls[0] <= 300
        assert certified(z, problem.mean_map, problem.feasible_set, 1e-10)
        np.testing.assert_allclose(z, frozen, rtol=0, atol=1e-8)

    @pytest.mark.parametrize("name", sorted(FACE_PROBLEMS))
    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_returned_point_depends_only_on_its_face(self, name, data):
        # the face solve reads z only at fixed coordinates, which are
        # exactly 0 or a bound, so solves from any start that end on one
        # face return the same bytes, however early the finish is tried
        fmap, feasible = FACE_PROBLEMS[name]
        coordinate = st.one_of(st.sampled_from([-1.0, 0.0, 1.0]),
                               st.floats(-2.0, 2.0))
        start = st.lists(coordinate, min_size=fmap.dimension,
                         max_size=fmap.dimension)
        by_face = {}
        for z0 in data.draw(st.lists(start, min_size=2, max_size=5)):
            z = solve_deterministic_vi(fmap, feasible, 1e-10, z0=z0)
            assert certified(z, fmap, feasible, 1e-10)
            face = active_face(z, feasible).tobytes()
            assert by_face.setdefault(face, z.tobytes()) == z.tobytes()

    def test_wrong_face_is_refused_then_left(self, candidates):
        # F(x) = x - 0.9999 on [-1, 1]: the start sits at the bound, within
        # residual 1e-4 of the interior root, on the wrong face
        fmap = AffineMap(np.array([[1.0]]), np.array([-0.9999]))
        z = solve_deterministic_vi(fmap, BOX1, 1e-12, z0=[1.0])
        assert z[0] == 0.9999
        assert candidates[0][0][0] == 1.0
        assert candidates[-1][1][0] == 0.9999
        assert len(candidates) == 2

    def test_singular_face_falls_back_to_extragradient(self, candidates):
        # duplicate rows: the two y coordinates stay equal and positive, so
        # their indifference equations coincide and the face system is
        # singular; every attempt fails and extragradient certifies alone
        payoff = np.array([[1.0, -1.0], [1.0, -1.0], [-1.0, 1.0]])
        problem = bimatrix_from_payoff(payoff, with_reference=False)
        z = solve_deterministic_vi(problem.mean_map, problem.feasible_set,
                                   1e-10)
        assert certified(z, problem.mean_map, problem.feasible_set, 1e-10)
        np.testing.assert_allclose(z[:2], 0.5, atol=1e-9)
        assert candidates and all(out is None for _, out in candidates)

    def test_zero_matrix_constant_map(self, candidates):
        # F = b: the face system is all zeros, so the finish gives up and
        # extragradient walks x_1 to its bound; x_2 is free
        fmap = AffineMap(np.zeros((2, 2)), np.array([1e-3, 0.0]))
        box = Box(-np.ones(2), np.ones(2))
        z = solve_deterministic_vi(fmap, box, 1e-12, z0=[0.0, 0.25])
        np.testing.assert_array_equal(z, [-1.0, 0.25])
        assert candidates and all(out is None for _, out in candidates)

    def test_zero_payoff_returns_start(self, candidates):
        # every point solves the VI of the zero map
        problem = bimatrix_from_payoff(np.zeros((3, 2)), with_reference=False)
        z0 = np.array([0.25, 0.75, 0.5, 0.5, 0.0])
        z = solve_deterministic_vi(problem.mean_map, problem.feasible_set,
                                   1e-10, z0=z0)
        np.testing.assert_array_equal(z, z0)
        assert candidates == []

    def test_resolvent_finishes(self, pennies_problem, candidates):
        shifted = ShiftedMap(pennies_problem.mean_map, 10.0,
                             np.array([0.9, 0.1, 0.3, 0.7]))
        z = solve_deterministic_vi(shifted, pennies_problem.feasible_set,
                                   1e-12)
        assert certified(z, shifted, pennies_problem.feasible_set, 1e-12)
        assert candidates[-1][1] is not None

    def test_non_affine_map_takes_plain_path(self, candidates):
        class Cubic:
            dimension, mu, lipschitz = 1, 0.0, 3.0

            def __call__(self, x):
                return x ** 3 - 0.125

        assert detsolve._FaceFinish.of(Cubic(), BOX1) is None
        z = solve_deterministic_vi(Cubic(), BOX1, 1e-10)
        assert certified(z, Cubic(), BOX1, 1e-10)
        assert candidates == []

    @pytest.mark.parametrize("feasible", [
        Ball(np.zeros(2), 1.0),
        Product(Simplex(1), Ball(np.zeros(1), 1.0)),
    ], ids=["ball", "product-with-ball"])
    def test_other_set_takes_plain_path(self, feasible, candidates):
        fmap = AffineMap(np.array([[2.0, 1.0], [-1.0, 2.0]]),
                         np.array([-0.5, 0.25]))
        assert detsolve._FaceFinish.of(fmap, feasible) is None
        z = solve_deterministic_vi(fmap, feasible, 1e-10)
        assert certified(z, fmap, feasible, 1e-10)
        assert candidates == []
