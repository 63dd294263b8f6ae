"""Tests for the variance-reduced extragradient baseline."""

import math

import numpy as np
import pytest

from svilab import (
    BudgetCounter,
    ConfigError,
    ContractViolation,
    ExtragradientConfig,
    Recorder,
    bimatrix_from_payoff,
    eg_sample_size,
    make_affine_strongly_monotone,
    run_extragradient,
)

PENNIES = [[1.0, -1.0], [-1.0, 1.0]]


class TestSampleSize:
    def test_reference_values(self):
        assert eg_sample_size(0, 1.0, 2.001, 1e-3) == 2
        assert eg_sample_size(100, 1.0, 2.001, 1e-3) == 473

    def test_theta_scales(self):
        base = eg_sample_size(50, 1.0, 2.001, 1e-3)
        assert eg_sample_size(50, 3.0, 2.001, 1e-3) >= 3 * base - 3

    def test_nondecreasing(self):
        sizes = [eg_sample_size(k, 1.0, 2.001, 1e-3) for k in range(500)]
        assert all(a <= b for a, b in zip(sizes, sizes[1:]))

    def test_contracts(self):
        with pytest.raises(ContractViolation):
            eg_sample_size(-1, 1.0, 2.001, 1e-3)
        with pytest.raises(ContractViolation):
            eg_sample_size(3, 1.0, 1.0, 1e-3)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ConfigError, match="stepsize must be positive"):
            ExtragradientConfig(stepsize=0.0)
        with pytest.raises(ConfigError, match="theta must be positive"):
            ExtragradientConfig(stepsize=0.1, theta=0.0)
        with pytest.raises(ConfigError, match="mu_shift must be > 1"):
            ExtragradientConfig(stepsize=0.1, mu_shift=1.0)
        with pytest.raises(ConfigError, match="b must be positive"):
            ExtragradientConfig(stepsize=0.1, b=0.0)
        with pytest.raises(ConfigError):
            ExtragradientConfig(stepsize=0.1, max_iterations=0)

    def test_stepsize_bound_checked_at_run(self, pennies_problem):
        # L = 2 so the bound is 1/(2 sqrt(6)) = 0.204...
        cfg = ExtragradientConfig(stepsize=0.25, max_iterations=5)
        with pytest.raises(ConfigError,
                           match=r"stepsize must be < 1/\(sqrt\(6\)\*L\)"):
            run_extragradient(pennies_problem, np.zeros(4), cfg, None)


class TestDeterministicRuns:
    def test_saddle_is_fixed_point(self, pennies_problem):
        star = pennies_problem.reference_solution
        cfg = ExtragradientConfig(stepsize=0.2, max_iterations=10)
        z, _ = run_extragradient(pennies_problem, star, cfg, None)
        np.testing.assert_allclose(z, star, atol=1e-12)

    def test_last_iterate_converges_on_pennies(self, pennies_problem):
        cfg = ExtragradientConfig(stepsize=0.2, max_iterations=500)
        z0 = np.array([1.0, 0.0, 0.0, 1.0])
        z, trace = run_extragradient(pennies_problem, z0, cfg, None)
        assert not trace.truncated
        assert np.linalg.norm(z - pennies_problem.reference_solution) <= 1e-8
        assert pennies_problem.feasible_set.contains(z)

    def test_averaged_mode_converges_slower_but_surely(self, pennies_problem):
        cfg = ExtragradientConfig(stepsize=0.2, max_iterations=300,
                                  averaged=True)
        z0 = np.array([1.0, 0.0, 0.0, 1.0])
        z, _ = run_extragradient(pennies_problem, z0, cfg, None)
        dist = np.linalg.norm(z - pennies_problem.reference_solution)
        assert dist <= 0.05
        assert pennies_problem.feasible_set.contains(z)

    def test_probe_step_is_what_converges(self, pennies_problem):
        # the plain projected forward step orbits the saddle of a skew
        # game; the extragradient probe is what turns it into descent
        star = pennies_problem.reference_solution
        z = pennies_problem.feasible_set.project(
            np.array([1.0, 0.0, 0.0, 1.0]))
        for _ in range(500):
            z = pennies_problem.feasible_set.project(
                z - 0.2 * pennies_problem.mean_map(z))
        assert np.linalg.norm(z - star) >= 0.3

    def test_singleton_strongly_monotone(self):
        prob = make_affine_strongly_monotone(n=1, mu=2.0, lipschitz=2.0,
                                             sigma=0.0, seed=5)
        cfg = ExtragradientConfig(stepsize=0.2, max_iterations=200)
        z, _ = run_extragradient(prob, np.zeros(1), cfg, None)
        assert np.linalg.norm(z - prob.reference_solution) <= 1e-8


class TestBudgetAccounting:
    def _noisy_pennies(self):
        return bimatrix_from_payoff(PENNIES, noise_scale=0.1, seed=0)

    def test_two_batches_per_iteration(self):
        problem = self._noisy_pennies()
        cfg = ExtragradientConfig(stepsize=0.2, max_iterations=5)
        budget = BudgetCounter(10**6)
        _, trace = run_extragradient(problem, np.zeros(4), cfg, budget)
        expected = sum(2 * eg_sample_size(k, cfg.theta, cfg.mu_shift, cfg.b)
                       for k in range(5))
        assert budget.consumed == expected
        assert trace.final.calls == expected

    def test_truncation_keeps_completed_prefix(self):
        problem = self._noisy_pennies()
        cfg = ExtragradientConfig(stepsize=0.2, max_iterations=50)
        sizes = [eg_sample_size(k, cfg.theta, cfg.mu_shift, cfg.b)
                 for k in range(4)]
        cum3 = sum(2 * n for n in sizes[:3])
        # the fourth iteration's first batch fits, its second does not
        budget = BudgetCounter(cum3 + sizes[3])
        _, trace = run_extragradient(problem, np.zeros(4), cfg, budget,
                                     recorder=Recorder(every=1))
        assert trace.truncated
        assert trace.final.calls == cum3
        assert budget.consumed == cum3 + sizes[3]

    def test_reruns_bit_identical(self):
        problem = self._noisy_pennies()
        cfg = ExtragradientConfig(stepsize=0.2, max_iterations=30)
        z1, t1 = run_extragradient(problem, np.zeros(4), cfg,
                                   BudgetCounter(10**6))
        z2, t2 = run_extragradient(problem, np.zeros(4), cfg,
                                   BudgetCounter(10**6))
        assert np.array_equal(z1, z2)
        assert [r.saddle_gap for r in t1.rows] == \
               [r.saddle_gap for r in t2.rows]

    def test_unrecorded_run_matches_recorded(self):
        # recording reads the state only: same point, same ledger
        problem = self._noisy_pennies()
        cfg = ExtragradientConfig(stepsize=0.2, max_iterations=12,
                                  averaged=True)
        b1, b2 = BudgetCounter(10**6), BudgetCounter(10**6)
        z1, t1 = run_extragradient(problem, np.zeros(4), cfg, b1)
        z2, t2 = run_extragradient(problem, np.zeros(4), cfg, b2,
                                   recorder=None)
        assert len(t1.rows) == 12
        assert t2.rows == []
        assert np.array_equal(z1, z2)
        assert b1.consumed == b2.consumed


class TestTraceCadence:
    def test_rows_follow_trace_every(self, pennies_problem):
        cfg = ExtragradientConfig(stepsize=0.2, max_iterations=10)
        _, trace = run_extragradient(pennies_problem, np.zeros(4), cfg, None,
                                     recorder=Recorder(every=3))
        assert [r.outer_k for r in trace.rows] == [3, 6, 9, 10]

    def test_every_iteration_by_default(self, pennies_problem):
        cfg = ExtragradientConfig(stepsize=0.2, max_iterations=10)
        _, trace = run_extragradient(pennies_problem, np.zeros(4), cfg, None)
        assert [r.outer_k for r in trace.rows] == list(range(1, 11))

