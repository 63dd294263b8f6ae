"""Tests for the variable-sample-size averaging solver."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from svilab import (
    Box,
    ConfigError,
    ContractViolation,
    ScheduleOverflow,
    BudgetCounter,
    Recorder,
    VsAveConfig,
    VsAveState,
    gamma_update,
    make_affine_strongly_monotone,
    rate_q,
    run_vs_ave,
    sample_size,
    schedule_cost,
    x_step,
    y_step,
)
from svilab.oracle import batch_mean


class TestRateQ:
    def test_default_rule(self):
        assert rate_q(2.0) == pytest.approx(0.75)
        assert rate_q(8.0) == pytest.approx(0.9)

    def test_alternate_rule(self):
        assert rate_q(3.0, "kappa_plus_1") == pytest.approx(0.75)

    def test_unknown_rule(self):
        with pytest.raises(ConfigError, match="kappa_plus_2"):
            rate_q(2.0, "geometric")

    def test_kappa_below_one(self):
        with pytest.raises(ContractViolation):
            rate_q(0.5)


class TestConfig:
    def test_rho_bound_message(self):
        # kappa = 3 so the bound is 1 - 1/5 = 0.8
        with pytest.raises(
            ConfigError,
            match=r"rho must be < 1 - 1/\(kappa\+2\) = 0\.8; got 0\.9",
        ):
            VsAveConfig(mu=1.0, lipschitz=3.0, rho=0.9, max_iterations=10)

    def test_rho_at_bound_rejected(self):
        with pytest.raises(ConfigError):
            VsAveConfig(mu=1.0, lipschitz=3.0, rho=0.8, max_iterations=10)

    def test_rho_outside_unit_interval(self):
        with pytest.raises(ConfigError, match=r"rho must lie in \(0, 1\)"):
            VsAveConfig(mu=1.0, lipschitz=3.0, rho=1.2, max_iterations=10)

    def test_mu_positive(self):
        with pytest.raises(ConfigError, match="mu must be positive"):
            VsAveConfig(mu=0.0, lipschitz=3.0, rho=0.5, max_iterations=10)

    def test_lipschitz_at_least_mu(self):
        with pytest.raises(ConfigError, match="lipschitz must be >= mu"):
            VsAveConfig(mu=2.0, lipschitz=1.0, rho=0.5, max_iterations=10)

    def test_iteration_counts(self):
        with pytest.raises(ConfigError):
            VsAveConfig(mu=1.0, lipschitz=2.0, rho=0.5, max_iterations=0)
        with pytest.raises(ConfigError):
            VsAveConfig(mu=1.0, lipschitz=2.0, rho=0.5, max_iterations=5,
                        min_batch=0)

    def test_kappa_property(self):
        cfg = VsAveConfig(mu=0.5, lipschitz=2.0, rho=0.5, max_iterations=5)
        assert cfg.kappa == pytest.approx(4.0)


class TestGammaUpdate:
    def test_worked_example(self):
        # mu = 1, L = 3: the new weight is a quarter of the running total
        gamma, Gamma = gamma_update(1.0, 1.0, 1.0, 3.0)
        assert (gamma, Gamma) == (0.25, 1.25)
        gamma, Gamma = gamma_update(gamma, Gamma, 1.0, 3.0)
        assert (gamma, Gamma) == (0.3125, 1.5625)

    def test_total_grows_geometrically(self):
        # Gamma_K = (1 + 1/(kappa+1))^K from Gamma_0 = 1
        mu, lip = 0.7, 3.0
        gamma, Gamma = 1.0, 1.0
        for _ in range(30):
            gamma, Gamma = gamma_update(gamma, Gamma, mu, lip)
        expected = (1.0 + mu / (mu + lip)) ** 30
        assert Gamma == pytest.approx(expected, rel=1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(ContractViolation):
            gamma_update(0.0, 1.0, 1.0, 2.0)
        with pytest.raises(ContractViolation):
            gamma_update(1.0, 1.0, -1.0, 2.0)


class TestSampleSize:
    def test_values(self):
        assert sample_size(0, 0.9) == 1
        # 0.9^-10 = 2.867..., floored
        assert sample_size(10, 0.9) == 2
        assert sample_size(3, 0.5) == 8

    def test_min_batch_clamp(self):
        assert sample_size(1, 0.9, min_batch=5) == 5
        assert sample_size(30, 0.9, min_batch=5) == 23

    def test_overflow(self):
        assert sample_size(61, 0.5) == 2**61
        with pytest.raises(ScheduleOverflow, match="k=62"):
            sample_size(62, 0.5)

    @pytest.mark.parametrize("rho", [0.5, np.float64(0.5)])
    def test_float_overflow(self, rho):
        # rho^-k past the float range is a schedule overflow, with no
        # bare OverflowError and no numpy RuntimeWarning on the way
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ScheduleOverflow, match="k=5000"):
                sample_size(5000, rho)

    def test_contracts(self):
        with pytest.raises(ContractViolation):
            sample_size(-1, 0.5)
        with pytest.raises(ContractViolation):
            sample_size(3, 1.0)


class TestScheduleCost:
    def test_geometric_sum(self):
        # 2 * (1 + 2 + 4)
        assert schedule_cost(3, 0.5) == 14
        assert schedule_cost(1, 0.5) == 2
        assert schedule_cost(0, 0.5) == 0

    def test_matches_per_step_sum(self):
        rho = 0.7
        direct = sum(2 * sample_size(k, rho, 3) for k in range(25))
        assert schedule_cost(25, rho, 3) == direct

    def test_stop_at_exits_early(self):
        # partial sums are 2, 6, 14; the first one past 10 is returned
        assert schedule_cost(1000, 0.5, stop_at=10) == 14
        # the early exit also avoids walking into schedule overflow
        assert schedule_cost(10**6, 0.5, stop_at=100) == 126

    def test_overflow_without_stop(self):
        with pytest.raises(ScheduleOverflow):
            schedule_cost(63, 0.5)

    @pytest.mark.parametrize("rho", [1e-310, np.float64(1e-310)])
    def test_float_overflow(self, rho):
        # a subnormal rho leaves the float range at k = 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ScheduleOverflow, match="k=1"):
                schedule_cost(2, rho)


def _fresh_state(config, y0, dim):
    return VsAveState(
        config=config,
        gamma_k=1.0,
        Gamma_k=1.0,
        weighted_presum=np.zeros(dim),
        weighted_ysum=np.asarray(y0, dtype=float).copy(),
        x_k=None,
        y_k=np.asarray(y0, dtype=float),
    )


class TestSteps:
    def test_x_step_worked_example(self):
        cfg = VsAveConfig(mu=1.0, lipschitz=3.0, rho=0.2, max_iterations=5)
        box = Box(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
        state = _fresh_state(cfg, [0.2, 0.0], 2)
        x = x_step(state, box, np.array([1.0, -1.0]))
        # y - estimate/mu = (0.2-1, 0+1), weight 1, already inside the box
        np.testing.assert_allclose(x, [-0.8, 1.0], atol=1e-15)
        np.testing.assert_allclose(state.weighted_presum, [-0.8, 1.0],
                                   atol=1e-15)
        assert state.x_k is x

    def test_x_step_with_running_weights(self):
        cfg = VsAveConfig(mu=2.0, lipschitz=2.0, rho=0.5, max_iterations=5)
        box = Box(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
        state = _fresh_state(cfg, [0.0, 0.0], 2)
        state.gamma_k = 0.5
        state.Gamma_k = 2.0
        state.weighted_presum = np.array([0.4, 0.0])
        x = x_step(state, box, np.array([2.0, 2.0]))
        # presum gains 0.5 * (0 - [1,1]) giving [-0.1,-0.5]; divide by 2
        np.testing.assert_allclose(x, [-0.05, -0.25], atol=1e-15)

    def test_y_step_worked_example(self):
        box = Box(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
        y = y_step(np.array([0.5, 0.5]), box, np.array([2.0, -4.0]), 2.0)
        # x - estimate/L = (-0.5, 2.5), clipped to the box
        np.testing.assert_allclose(y, [-0.5, 1.0], atol=1e-15)


class TestRunDeterministic:
    def test_converges_on_mild_instance(self):
        prob = make_affine_strongly_monotone(n=4, mu=1.0, lipschitz=2.0,
                                             sigma=0.0, seed=3)
        cfg = VsAveConfig(mu=1.0, lipschitz=2.0, rho=0.5, max_iterations=60)
        averaged, trace = run_vs_ave(prob, np.zeros(4), cfg, None)
        assert not trace.truncated
        assert np.linalg.norm(averaged - prob.reference_solution) <= 1e-6
        assert prob.feasible_set.contains(averaged)

    def test_singleton_dimension(self):
        prob = make_affine_strongly_monotone(n=1, mu=2.0, lipschitz=2.0,
                                             sigma=0.0, seed=5)
        cfg = VsAveConfig(mu=2.0, lipschitz=2.0, rho=0.5, max_iterations=45)
        averaged, trace = run_vs_ave(prob, np.zeros(1), cfg, None)
        assert not trace.truncated
        assert np.linalg.norm(averaged - prob.reference_solution) <= 1e-8

    def test_matches_plain_reimplementation(self):
        # textbook loop written independently of the library internals
        prob = make_affine_strongly_monotone(n=3, mu=1.0, lipschitz=2.5,
                                             sigma=0.8, seed=7)
        mu, lip, rho, iters = 1.0, 2.5, 0.6, 15
        cfg = VsAveConfig(mu=mu, lipschitz=lip, rho=rho, max_iterations=iters)
        averaged, _ = run_vs_ave(prob, np.zeros(3), cfg, None)

        oracle = prob.oracle
        project = prob.feasible_set.project
        s_y, s_x = oracle.stream(0), oracle.stream(1)
        y = project(np.zeros(3))
        presum = np.zeros(3)
        ysum = y.copy()
        gamma, Gamma = 1.0, 1.0
        for k in range(iters):
            n_k = max(1, math.floor(rho ** (-k)))
            est_y, _ = batch_mean(oracle, y, n_k, s_y)
            presum = presum + gamma * (y - est_y / mu)
            x = project(presum / Gamma)
            est_x, _ = batch_mean(oracle, x, n_k, s_x)
            y = project(x - est_x / lip)
            gamma = (mu / (mu + lip)) * Gamma
            Gamma = Gamma + gamma
            ysum = ysum + gamma * y
        np.testing.assert_allclose(averaged, ysum / Gamma, rtol=1e-10)

    def test_reruns_bit_identical(self):
        prob = make_affine_strongly_monotone(n=4, mu=1.0, lipschitz=3.0,
                                             sigma=1.0, seed=9)
        cfg = VsAveConfig(mu=1.0, lipschitz=3.0, rho=0.7, max_iterations=20)
        a1, t1 = run_vs_ave(prob, np.zeros(4), cfg, None)
        a2, t2 = run_vs_ave(prob, np.zeros(4), cfg, None)
        assert np.array_equal(a1, a2)
        rows1 = [(r.outer_k, r.calls, r.natural_residual, r.dist_ref_sq)
                 for r in t1.rows]
        rows2 = [(r.outer_k, r.calls, r.natural_residual, r.dist_ref_sq)
                 for r in t2.rows]
        assert rows1 == rows2

    def test_unrecorded_run_matches_recorded(self):
        # recording reads the state only: same point, same ledger
        prob = make_affine_strongly_monotone(n=3, mu=1.0, lipschitz=2.0,
                                             sigma=0.5, seed=13)
        cfg = VsAveConfig(mu=1.0, lipschitz=2.0, rho=0.5, max_iterations=12)
        b1, b2 = BudgetCounter(10**6), BudgetCounter(10**6)
        a1, t1 = run_vs_ave(prob, np.zeros(3), cfg, b1)
        a2, t2 = run_vs_ave(prob, np.zeros(3), cfg, b2, recorder=None)
        assert len(t1.rows) == 12
        assert t2.rows == []
        assert np.array_equal(a1, a2)
        assert b1.consumed == b2.consumed

    def test_gap_column_on_request(self):
        prob = make_affine_strongly_monotone(n=3, mu=1.0, lipschitz=2.0,
                                             sigma=0.5, seed=13)
        cfg = VsAveConfig(mu=1.0, lipschitz=2.0, rho=0.5, max_iterations=6)
        _, plain = run_vs_ave(prob, np.zeros(3), cfg, None)
        _, trace = run_vs_ave(prob, np.zeros(3), cfg, None,
                              recorder=Recorder(gap=True))
        assert all(r.gap is None for r in plain.rows)
        assert [r.outer_k for r in trace.rows] == list(range(1, 7))
        for row in trace.rows:
            # the gap bounds (mu/2)|x - x*|^2 from above
            assert row.gap >= 0.5 * row.dist_ref_sq - 1e-8
        assert [r.natural_residual for r in trace.rows] == \
               [r.natural_residual for r in plain.rows]


class TestBudgetAndSchedule:
    def test_ledger_matches_schedule(self):
        prob = make_affine_strongly_monotone(n=3, mu=1.0, lipschitz=2.0,
                                             sigma=1.0, seed=2)
        cfg = VsAveConfig(mu=1.0, lipschitz=2.0, rho=0.5, max_iterations=12)
        budget = BudgetCounter(10**6)
        _, trace = run_vs_ave(prob, np.zeros(3), cfg, budget)
        expected = schedule_cost(12, 0.5)
        assert expected == 2 * (2**12 - 1)
        assert trace.final.calls == expected
        assert budget.consumed == expected

    def test_truncation_on_budget(self):
        prob = make_affine_strongly_monotone(n=3, mu=1.0, lipschitz=2.0,
                                             sigma=1.0, seed=2)
        cfg = VsAveConfig(mu=1.0, lipschitz=2.0, rho=0.5, max_iterations=60)
        budget = BudgetCounter(20)
        averaged, trace = run_vs_ave(prob, np.zeros(3), cfg, budget)
        # iterations cost 2, 4, 8, 16 samples; the fourth does not fit
        assert trace.truncated
        assert [r.calls for r in trace.rows] == [2, 6, 14]
        assert budget.consumed == 14
        assert prob.feasible_set.contains(averaged)

    def test_partial_iteration_burns_first_batch(self):
        # the first batch of an iteration can fit while the second is
        # refused; the trace stays on completed iterations only
        prob = make_affine_strongly_monotone(n=3, mu=1.0, lipschitz=2.0,
                                             sigma=1.0, seed=2)
        cfg = VsAveConfig(mu=1.0, lipschitz=2.0, rho=0.5, max_iterations=60)
        budget = BudgetCounter(25)
        _, trace = run_vs_ave(prob, np.zeros(3), cfg, budget)
        assert trace.truncated
        assert trace.final.calls == 14
        assert budget.consumed == 22

    def test_truncation_flush_row(self):
        # sparse tracing still records the state reached at truncation
        prob = make_affine_strongly_monotone(n=3, mu=1.0, lipschitz=2.0,
                                             sigma=1.0, seed=2)
        cfg = VsAveConfig(mu=1.0, lipschitz=2.0, rho=0.5, max_iterations=60)
        budget = BudgetCounter(20)
        _, trace = run_vs_ave(prob, np.zeros(3), cfg, budget,
                              recorder=Recorder(every=1000))
        assert trace.truncated
        assert len(trace.rows) == 1
        assert trace.rows[0].outer_k == 3
        assert trace.rows[0].calls == 14

    def test_schedule_overflow_truncates(self):
        prob = make_affine_strongly_monotone(n=2, mu=1.0, lipschitz=2.0,
                                             sigma=0.0, seed=4)
        cfg = VsAveConfig(mu=1.0, lipschitz=2.0, rho=0.5, max_iterations=100)
        averaged, trace = run_vs_ave(prob, np.zeros(2), cfg, None)
        # batch sizes hit the integer ceiling at k = 62
        assert trace.truncated
        assert trace.rows[-1].outer_k == 62
        assert np.linalg.norm(averaged - prob.reference_solution) <= 1e-8


class TestStochasticRate:
    def test_mean_squared_error_decays_linearly(self):
        # kappa = 3 gives q = 0.8; the averaged error should contract at
        # most a little slower than q per iteration
        mu, lip, sigma = 1.0, 3.0, 0.5
        q = rate_q(lip / mu)
        cfg = VsAveConfig(mu=mu, lipschitz=lip, rho=q**1.001,
                          max_iterations=40)
        base = make_affine_strongly_monotone(n=6, mu=mu, lipschitz=lip,
                                             sigma=sigma, seed=21)
        dists = np.zeros((12, 40))
        for s in range(12):
            prob = replace(base, oracle=base.oracle.for_trial(s))
            _, trace = run_vs_ave(prob, np.zeros(6), cfg, None)
            assert [r.outer_k for r in trace.rows] == list(range(1, 41))
            dists[s] = [r.dist_ref_sq for r in trace.rows]
        mean_sq = dists.mean(axis=0)
        ks = np.arange(10, 41)
        slope = np.polyfit(ks, np.log(mean_sq[ks - 1]), 1)[0]
        assert math.exp(slope) <= q + 0.1
