"""Tests for the proximal-point outer loop."""

import math

import numpy as np
import pytest

from svilab import (
    AffineMap,
    Box,
    BudgetCounter,
    ConfigError,
    ContractViolation,
    PpawssConfig,
    ProblemInstance,
    Recorder,
    StochasticOracle,
    ZeroNoise,
    bimatrix_from_payoff,
    inner_iterations,
    prox_subproblem,
    relaxation_step,
    run_ppawss,
    schedule_cost,
)

PENNIES = [[1.0, -1.0], [-1.0, 1.0]]


def _config(**kw):
    base = dict(lam=10.0, eta=1.0, alpha=1.001, beta=1.001,
                outer_iterations=5)
    base.update(kw)
    return PpawssConfig(**base)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ConfigError, match="lam must be positive"):
            _config(lam=0.0)
        with pytest.raises(ConfigError, match=r"eta must lie in \(0, 2\)"):
            _config(eta=2.0)
        with pytest.raises(ConfigError, match="alpha must be > 1"):
            _config(alpha=1.0)
        with pytest.raises(ConfigError, match="beta must be > 1"):
            _config(beta=0.5)
        with pytest.raises(ConfigError):
            _config(outer_iterations=0)
        with pytest.raises(ConfigError):
            _config(min_inner=0)

    def test_inner_q(self):
        # lam * L + 1 = 24676, so q = 1 - 1/24678
        cfg = _config(lam=3500.0)
        assert cfg.inner_q(7.05) == pytest.approx(1.0 - 1.0 / 24678.0,
                                                  rel=1e-14)


class TestInnerIterations:
    def test_first_step_clamps(self):
        assert inner_iterations(0, 0.9, 2.0, 1) == 1
        assert inner_iterations(0, 0.9, 2.0, 7) == 7

    def test_hand_value(self):
        # 2 * 2 * ln(10) / ln(1/0.9) = 87.41...
        assert inner_iterations(9, 0.9, 2.0, 1) == 87

    def test_nondecreasing(self):
        values = [inner_iterations(k, 0.95, 1.5, 1) for k in range(200)]
        assert all(a <= b for a, b in zip(values, values[1:]))

    def test_contracts(self):
        with pytest.raises(ContractViolation):
            inner_iterations(-1, 0.9, 2.0, 1)
        with pytest.raises(ContractViolation):
            inner_iterations(3, 1.0, 2.0, 1)
        with pytest.raises(ContractViolation):
            inner_iterations(3, 0.9, 1.0, 1)


class TestProxSubproblem:
    def test_metadata_and_values(self, pennies_problem):
        u = np.array([0.7, 0.3, 0.2, 0.8])
        sub = prox_subproblem(pennies_problem, u, 0.5)
        assert sub.mean_map.mu == pytest.approx(2.0)
        assert sub.mean_map.lipschitz == pytest.approx(4.0)
        z = np.array([0.25, 0.75, 0.5, 0.5])
        expected = pennies_problem.mean_map(z) + 2.0 * (z - u)
        np.testing.assert_allclose(sub.mean_map(z), expected, atol=1e-14)

    def test_reference_dropped(self, pennies_problem):
        sub = prox_subproblem(pennies_problem, np.zeros(4), 1.0)
        assert sub.reference_solution is None
        assert sub.reference_saddle_value is None

    def test_oracle_sharing(self, pennies_problem):
        budget = BudgetCounter(100)
        oracle = pennies_problem.oracle.with_budget(budget)
        problem = ProblemInstance(
            oracle=oracle,
            feasible_set=pennies_problem.feasible_set,
        )
        sub = prox_subproblem(problem, np.zeros(4), 1.0)
        assert sub.oracle.noise_model is oracle.noise_model
        assert sub.oracle.budget is budget

    def test_lam_positive(self, pennies_problem):
        with pytest.raises(ContractViolation):
            prox_subproblem(pennies_problem, np.zeros(4), 0.0)


class TestRelaxation:
    def test_over_relaxed(self):
        out = relaxation_step(np.array([1.0, 2.0]), np.array([3.0, 4.0]), 1.5)
        np.testing.assert_allclose(out, [4.0, 5.0])

    def test_eta_one_returns_inner_point(self):
        z = np.array([3.0, 4.0])
        out = relaxation_step(np.array([1.0, 2.0]), z, 1.0)
        np.testing.assert_allclose(out, z)


class TestZeroMapResolvent:
    def test_outer_step_projects(self):
        # with F identically zero the resolvent of u is its projection
        zero_map = AffineMap(np.zeros((2, 2)), np.zeros(2))
        box = Box(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
        problem = ProblemInstance(
            oracle=StochasticOracle(zero_map, ZeroNoise(), rng_seed=0),
            feasible_set=box,
        )
        cfg = _config(lam=2.0, outer_iterations=4)
        u, trace = run_ppawss(problem, np.array([2.0, -3.0]), cfg, None)
        assert not trace.truncated
        np.testing.assert_allclose(u, [1.0, -1.0], atol=1e-3)


class TestRunOnBimatrix:
    def test_converges_on_matching_pennies(self, pennies_problem):
        cfg = _config(lam=10.0, outer_iterations=30)
        u0 = np.array([1.0, 0.0, 0.0, 1.0])
        u, trace = run_ppawss(pennies_problem, u0, cfg, None)
        assert not trace.truncated
        assert len(trace.rows) == 30
        assert np.linalg.norm(u - pennies_problem.reference_solution) <= 1e-3

    def test_cold_start_converges_too(self, pennies_problem):
        cfg = _config(lam=10.0, outer_iterations=30, warm_start=False)
        u0 = np.array([1.0, 0.0, 0.0, 1.0])
        u, trace = run_ppawss(pennies_problem, u0, cfg, None)
        assert np.linalg.norm(u - pennies_problem.reference_solution) <= 1e-3

    def test_solution_is_fixed_point(self, pennies_problem):
        # at the saddle the mean map vanishes, so every inner iterate
        # stays put and the outer loop never moves
        cfg = _config(lam=10.0, outer_iterations=5)
        star = pennies_problem.reference_solution
        u, _ = run_ppawss(pennies_problem, star, cfg, None)
        np.testing.assert_allclose(u, star, atol=1e-12)

    def test_trace_reports_inner_counts(self, pennies_problem):
        cfg = _config(lam=10.0, outer_iterations=8)
        _, trace = run_ppawss(pennies_problem, np.zeros(4), cfg, None)
        q = cfg.inner_q(pennies_problem.mean_map.lipschitz)
        for row in trace.rows:
            expected = inner_iterations(row.outer_k - 1, q, cfg.alpha,
                                        cfg.min_inner)
            assert row.inner_k == expected


class TestBudgetAccounting:
    def _noisy_pennies(self):
        return bimatrix_from_payoff(PENNIES, noise_scale=0.1, seed=0)

    def test_consumption_matches_schedule(self):
        problem = self._noisy_pennies()
        cfg = _config(lam=5.0, outer_iterations=6)
        budget = BudgetCounter(10**6)
        _, trace = run_ppawss(problem, np.zeros(4), cfg, budget)
        assert not trace.truncated
        q = cfg.inner_q(problem.mean_map.lipschitz)
        rho = q**cfg.beta
        expected = sum(
            schedule_cost(inner_iterations(k, q, cfg.alpha, cfg.min_inner),
                          rho)
            for k in range(6)
        )
        assert budget.consumed == expected
        assert trace.final.calls == expected
        calls = [row.calls for row in trace.rows]
        assert all(a < b for a, b in zip(calls, calls[1:]))

    def test_unaffordable_subproblem_not_started(self):
        problem = self._noisy_pennies()
        cfg = _config(lam=5.0, outer_iterations=6)
        full_budget = BudgetCounter(10**6)
        _, full = run_ppawss(problem, np.zeros(4), cfg, full_budget)
        cum = [row.calls for row in full.rows]
        # allow exactly three outer steps plus part of the fourth's cost
        limit = cum[2] + (cum[3] - cum[2]) // 2
        budget = BudgetCounter(limit)
        u, trace = run_ppawss(problem, np.zeros(4), cfg, budget)
        assert trace.truncated
        assert len(trace.rows) == 3
        # nothing of the fourth subproblem was drawn
        assert budget.consumed == cum[2]
        assert trace.final.calls == cum[2]

    def test_truncated_prefix_identical_to_full_run(self):
        problem = self._noisy_pennies()
        cfg = _config(lam=5.0, outer_iterations=6)
        _, full = run_ppawss(problem, np.zeros(4), cfg, BudgetCounter(10**6))
        cum = [row.calls for row in full.rows]
        _, short = run_ppawss(problem, np.zeros(4), cfg,
                              BudgetCounter(cum[3] - 1))
        assert short.truncated
        for a, b in zip(short.rows, full.rows):
            assert a.calls == b.calls
            assert a.natural_residual == b.natural_residual
            assert a.saddle_gap == b.saddle_gap

    def test_reruns_bit_identical(self):
        problem = self._noisy_pennies()
        cfg = _config(lam=5.0, outer_iterations=5)
        u1, t1 = run_ppawss(problem, np.zeros(4), cfg, BudgetCounter(10**6))
        u2, t2 = run_ppawss(problem, np.zeros(4), cfg, BudgetCounter(10**6))
        assert np.array_equal(u1, u2)
        assert [r.natural_residual for r in t1.rows] == \
               [r.natural_residual for r in t2.rows]

    def test_unrecorded_run_matches_recorded(self):
        # recording reads the state only: same point, same ledger
        problem = self._noisy_pennies()
        cfg = _config(lam=5.0, outer_iterations=5)
        b1, b2 = BudgetCounter(10**6), BudgetCounter(10**6)
        u1, t1 = run_ppawss(problem, np.zeros(4), cfg, b1)
        u2, t2 = run_ppawss(problem, np.zeros(4), cfg, b2, recorder=None)
        assert len(t1.rows) == 5
        assert t2.rows == []
        assert np.array_equal(u1, u2)
        assert b1.consumed == b2.consumed

    def test_sparse_cadence_keeps_final_step(self):
        problem = self._noisy_pennies()
        cfg = _config(lam=5.0, outer_iterations=5)
        _, full = run_ppawss(problem, np.zeros(4), cfg, BudgetCounter(10**6))
        _, sparse = run_ppawss(problem, np.zeros(4), cfg,
                               BudgetCounter(10**6),
                               recorder=Recorder(every=2))
        assert [r.outer_k for r in sparse.rows] == [2, 4, 5]
        assert sparse.rows == [full.rows[1], full.rows[3], full.rows[4]]

    def test_sparse_cadence_keeps_last_step_before_truncation(self):
        problem = self._noisy_pennies()
        cfg = _config(lam=5.0, outer_iterations=6)
        _, full = run_ppawss(problem, np.zeros(4), cfg, BudgetCounter(10**6))
        # three outer steps fit; the fourth subproblem is not affordable
        budget = BudgetCounter(full.rows[2].calls + 1)
        _, sparse = run_ppawss(problem, np.zeros(4), cfg, budget,
                               recorder=Recorder(every=2))
        assert sparse.truncated
        assert sparse.rows == [full.rows[1], full.rows[2]]


class TestYosidaTracking:
    def test_squared_residual_decreases(self, pennies_problem):
        cfg = _config(lam=10.0, outer_iterations=12)
        u0 = np.array([1.0, 0.0, 0.0, 1.0])
        _, trace = run_ppawss(pennies_problem, u0, cfg, None,
                              recorder=Recorder(yosida_lam=10.0))
        values = [row.yosida_sq for row in trace.rows]
        assert all(v is not None for v in values)
        assert values[-1] < values[0]
        assert values[-1] >= 0.0
