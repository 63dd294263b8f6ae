"""Tests for the progress metrics."""

import numpy as np
import pytest

from svilab import (
    AffineMap,
    Box,
    BudgetCounter,
    MetricUnavailable,
    ProblemInstance,
    Recorder,
    StochasticOracle,
    ZeroNoise,
    evaluate_point,
    natural_residual,
    saddle_gap,
    strongly_monotone_gap,
    yosida_residual,
)

BOX1 = Box(np.array([-1.0]), np.array([1.0]))


def _problem(mean_map, feasible_set):
    return ProblemInstance(
        oracle=StochasticOracle(mean_map, ZeroNoise(), rng_seed=0),
        feasible_set=feasible_set,
    )


class TestNaturalResidual:
    def test_zero_at_solution(self):
        # F(x) = x - 2 pushes right everywhere on [-1, 1], so x = 1 solves
        fmap = AffineMap(np.array([[1.0]]), np.array([-2.0]))
        assert natural_residual([1.0], fmap, BOX1, 1.0) == 0.0

    def test_hand_value_away_from_solution(self):
        fmap = AffineMap(np.array([[1.0]]), np.array([-2.0]))
        # project(0 - 1 * (-2)) = 1, so the residual is 1
        assert natural_residual([0.0], fmap, BOX1, 1.0) == pytest.approx(1.0)

    def test_gamma_scales_the_probe(self):
        fmap = AffineMap(np.array([[1.0]]), np.array([-2.0]))
        # smaller gamma probes a shorter step: project(0 + 0.25*2) = 0.5
        assert natural_residual([0.0], fmap, BOX1, 0.25) == pytest.approx(0.5)

    def test_gamma_must_be_positive(self):
        fmap = AffineMap(np.array([[1.0]]), np.array([0.0]))
        with pytest.raises(ValueError):
            natural_residual([0.0], fmap, BOX1, 0.0)

    def test_small_at_certified_reference(self, affine_problem):
        lip = affine_problem.mean_map.lipschitz
        value = natural_residual(affine_problem.reference_solution,
                                 affine_problem.mean_map,
                                 affine_problem.feasible_set, 1.0 / lip)
        assert value <= 1e-8


class TestStronglyMonotoneGap:
    def test_worked_example(self):
        # for F(x) = x on [-1, 1] the gap is exactly x^2 / 2
        fmap = AffineMap(np.array([[1.0]]), np.array([0.0]))
        assert strongly_monotone_gap([0.5], fmap, BOX1) == \
            pytest.approx(0.125, abs=1e-8)

    def test_zero_at_solution(self):
        fmap = AffineMap(np.array([[1.0]]), np.array([0.0]))
        assert strongly_monotone_gap([0.0], fmap, BOX1) <= 1e-8

    def test_dominates_squared_distance(self, affine_problem):
        fmap = affine_problem.mean_map
        feasible = affine_problem.feasible_set
        star = affine_problem.reference_solution
        rng = np.random.default_rng(4)
        for _ in range(20):
            x = feasible.project(rng.uniform(-1.5, 1.5, star.size))
            g = strongly_monotone_gap(x, fmap, feasible)
            d = x - star
            assert g >= 0.5 * fmap.mu * float(d @ d) - 1e-8

    def test_unavailable_without_strong_monotonicity(self):
        skew = AffineMap(np.array([[0.0, 1.0], [-1.0, 0.0]]),
                         np.zeros(2))
        box = Box(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
        with pytest.raises(MetricUnavailable):
            strongly_monotone_gap([0.1, 0.1], skew, box)

    def test_unavailable_for_nonaffine(self, pennies_problem):
        with pytest.raises(MetricUnavailable):
            strongly_monotone_gap(np.full(4, 0.5),
                                  pennies_problem.mean_map,
                                  pennies_problem.feasible_set)


class TestYosidaResidual:
    def test_hand_value(self):
        # resolvent of F(x) = x is u/(1+lam); at u = 1, lam = 1 it is 0.5
        problem = _problem(AffineMap(np.array([[1.0]]), np.array([0.0])), BOX1)
        assert yosida_residual([1.0], 1.0, problem) == \
            pytest.approx(0.5, abs=1e-8)

    def test_zero_at_solution(self):
        problem = _problem(AffineMap(np.array([[1.0]]), np.array([0.0])), BOX1)
        assert yosida_residual([0.0], 1.0, problem) <= 1e-8

    def test_zero_map_measures_infeasibility(self):
        # with F identically zero the Yosida map is (u - project(u))/lam
        box = Box(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
        problem = _problem(AffineMap(np.zeros((2, 2)), np.zeros(2)), box)
        value = yosida_residual([2.0, -3.0], 2.0, problem)
        assert value == pytest.approx(np.sqrt(5.0) / 2.0, abs=1e-8)

    def test_lam_positive(self, pennies_problem):
        with pytest.raises(ValueError):
            yosida_residual(np.zeros(4), 0.0, pennies_problem)


class TestSaddleGap:
    def test_pure_strategy_value(self, pennies_problem):
        # both players on their first strategy gives payoff 1; the
        # equilibrium value of matching pennies is 0
        gap = saddle_gap(np.array([1.0, 0.0]), np.array([1.0, 0.0]),
                         pennies_problem)
        assert gap == pytest.approx(1.0)

    def test_zero_at_equilibrium(self, pennies_problem):
        star = pennies_problem.reference_solution
        assert saddle_gap(star[:2], star[2:], pennies_problem) <= 1e-9

    def test_unavailable_without_payoff(self, affine_problem):
        with pytest.raises(MetricUnavailable):
            saddle_gap(np.zeros(3), np.zeros(3), affine_problem)


class TestEvaluatePoint:
    def test_affine_fields(self, affine_problem):
        x = np.zeros(affine_problem.dimension)
        row = evaluate_point(affine_problem, x, Recorder(), 3, 0, 42)
        assert (row.outer_k, row.inner_k, row.calls) == (3, 0, 42)
        lip = affine_problem.mean_map.lipschitz
        assert row.natural_residual == natural_residual(
            x, affine_problem.mean_map, affine_problem.feasible_set, 1.0 / lip
        )
        assert row.dist_ref_sq >= 0.0
        assert row.saddle_gap is None
        assert row.gap is None
        assert row.yosida_sq is None

    def test_gap_on_request(self, affine_problem):
        x = np.zeros(affine_problem.dimension)
        row = evaluate_point(affine_problem, x, Recorder(gap=True), 1, 0, 1)
        assert row.gap is not None
        d = x - affine_problem.reference_solution
        assert row.gap >= 0.5 * affine_problem.mean_map.mu * (d @ d) - 1e-8

    def test_bimatrix_fields(self, pennies_problem):
        z = np.array([1.0, 0.0, 0.0, 1.0])
        report = evaluate_point(pennies_problem, z,
                                Recorder(gap=True, yosida_lam=10.0), 1, 0, 1)
        assert report.saddle_gap is not None
        # the gap needs strong monotonicity, which a game map lacks
        assert report.gap is None
        assert report.yosida_sq is not None
        assert report.yosida_sq >= 0.0

    def test_consumes_no_budget(self, pennies_problem):
        budget = BudgetCounter(100)
        problem = ProblemInstance(
            oracle=pennies_problem.oracle.with_budget(budget),
            feasible_set=pennies_problem.feasible_set,
            reference_solution=pennies_problem.reference_solution,
            reference_saddle_value=pennies_problem.reference_saddle_value,
        )
        evaluate_point(problem, np.full(4, 0.25),
                       Recorder(gap=True, yosida_lam=5.0), 1, 0, 1)
        assert budget.consumed == 0
