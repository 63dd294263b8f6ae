"""Tests for the deterministic reference solver."""

import numpy as np
import pytest

from svilab.detsolve import solve_deterministic_vi
from svilab.errors import NoConvergence
from svilab.maps import AffineMap, ShiftedMap
from svilab.metrics import natural_residual
from svilab.sets import Box

BOX1 = Box(np.array([-1.0]), np.array([1.0]))


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
