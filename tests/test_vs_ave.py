"""Tests for the variable-sample-size averaging solver."""

import math
import warnings
from itertools import groupby

import numpy as np
import pytest

import svilab.vs_ave
from svilab import (
    BudgetCounter,
    ConfigError,
    Recorder,
    VsAveConfig,
    make_affine_strongly_monotone,
    run_vs_ave,
)
from svilab.errors import ContractViolation, ScheduleOverflow
from svilab.maps import AffineMap
from svilab.metrics import evaluate_point
from svilab.oracle import BLOCK, StochasticOracle, ZeroNoise, batch_mean
from svilab.ppawss import prox_subproblem
from svilab.problems import ProblemInstance, bimatrix_from_payoff
from svilab.sets import Box
from svilab.vs_ave import rate_q, sample_size, schedule_cost

from feeds import one_step
from plain_loops import vs_ave_loop
from qp_oracle import contains


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
        with pytest.raises(ConfigError, match="kappa must be >= 1"):
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


class TestTwoIterationsByHand:
    def test_average_matches_hand_computation(self):
        # F(x) = 2x + (-1, 1) without noise on the box [-1, 1]^2, run
        # with mu = 1 and L = 3, so each new weight is 1/4 of the total
        prob = ProblemInstance(
            oracle=StochasticOracle(AffineMap(2.0 * np.eye(2),
                                              np.array([-1.0, 1.0])),
                                    ZeroNoise(), rng_seed=0),
            feasible_set=Box(np.array([-1.0, -1.0]), np.array([1.0, 1.0])),
        )
        cfg = VsAveConfig(mu=1.0, lipschitz=3.0, rho=0.5, max_iterations=2)
        budget = BudgetCounter(100)
        averaged, trace = run_vs_ave(prob, np.array([0.0, 0.5]), cfg, budget)
        # k = 0, N = 1, gamma = Gamma = 1:
        #   presum = y0 - F(y0) = (0, 1/2) - (-1, 2) = (1, -3/2)
        #   x0 = P(1, -3/2) = (1, -1); F(x0) = (1, -1)
        #   y1 = P(x0 - F(x0)/3) = (2/3, -2/3)
        #   gamma = 1/4, Gamma = 5/4, ysum = y0 + y1/4 = (1/6, 1/3)
        # k = 1, N = 2:
        #   F(y1) = (1/3, -1/3), so presum gains (1/12, -1/12): (13/12, -19/12)
        #   x1 = P(presum / Gamma) = P(13/15, -19/15) = (13/15, -1)
        #   F(x1) = (11/15, -1); y2 = P(13/15 - 11/45, -2/3) = (28/45, -2/3)
        #   gamma = 5/16, Gamma = 25/16, ysum = (13/36, 1/8)
        # average = ysum / Gamma = (52/225, 2/25)
        np.testing.assert_allclose(averaged, [52 / 225, 2 / 25], rtol=0,
                                   atol=1e-15)
        assert [(r.outer_k, r.calls) for r in trace.rows] == [(1, 2), (2, 6)]
        assert budget.consumed == 6
        assert not trace.truncated


class TestRunDeterministic:
    def test_converges_on_mild_instance(self):
        prob = make_affine_strongly_monotone(n=4, mu=1.0, lipschitz=2.0,
                                             sigma=0.0, seed=3)
        cfg = VsAveConfig(mu=1.0, lipschitz=2.0, rho=0.5, max_iterations=60)
        averaged, trace = run_vs_ave(prob, np.zeros(4), cfg, None)
        assert not trace.truncated
        assert np.linalg.norm(averaged - prob.reference_solution) <= 1e-6
        assert contains(prob.feasible_set, averaged)

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
        s_y, s_x = oracle.stream(0, 0), oracle.stream(0, 1)
        y = project(np.zeros(3))
        presum = np.zeros(3)
        ysum = y.copy()
        gamma, Gamma = 1.0, 1.0
        for k in range(iters):
            n_k = max(1, math.floor(rho ** (-k)))
            est_y = batch_mean(oracle, y, n_k,
                               one_step(oracle.noise_model, s_y, n_k, 3))
            presum = presum + gamma * (y - est_y / mu)
            x = project(presum / Gamma)
            est_x = batch_mean(oracle, x, n_k,
                               one_step(oracle.noise_model, s_x, n_k, 3))
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

    def test_schedule_built_only_as_far_as_the_run_goes(self, monkeypatch):
        computed = []

        def counting(k, rho, min_batch=1):
            computed.append(k)
            return sample_size(k, rho, min_batch)

        monkeypatch.setattr(svilab.vs_ave, "sample_size", counting)
        prob = make_affine_strongly_monotone(n=3, mu=1.0, lipschitz=2.0,
                                             sigma=1.0, seed=2)
        # about 2.1 million sizes before overflow; the budget pays for 500
        cfg = VsAveConfig(mu=1.0, lipschitz=1e5, rho=0.99998,
                          max_iterations=2**31)
        _, trace = run_vs_ave(prob, np.zeros(3), cfg, BudgetCounter(1000),
                              recorder=Recorder(every=100))
        assert trace.truncated
        assert trace.final.outer_k == 500
        assert len(computed) <= trace.final.outer_k + 1

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
        assert contains(prob.feasible_set, averaged)

    def test_unaffordable_step_draws_nothing(self):
        # the budget pays for the fourth iteration's first batch (8 of
        # 11 left) but not for both, so neither is drawn
        prob = make_affine_strongly_monotone(n=3, mu=1.0, lipschitz=2.0,
                                             sigma=1.0, seed=2)
        cfg = VsAveConfig(mu=1.0, lipschitz=2.0, rho=0.5, max_iterations=60)
        budget = BudgetCounter(25)
        _, trace = run_vs_ave(prob, np.zeros(3), cfg, budget)
        assert trace.truncated
        assert trace.final.calls == 14
        assert budget.consumed == 14

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
            _, trace = run_vs_ave(base, np.zeros(6), cfg, None, seed=s)
            assert [r.outer_k for r in trace.rows] == list(range(1, 41))
            dists[s] = [r.dist_ref_sq for r in trace.rows]
        mean_sq = dists.mean(axis=0)
        ks = np.arange(10, 41)
        slope = np.polyfit(ks, np.log(mean_sq[ks - 1]), 1)[0]
        assert math.exp(slope) <= q + 0.1


class TestFedRunBits:
    """A run reads its streams through feeds, writes into buffers it
    allocates once and passes 0-d operands; a loop that forms every batch
    mean by hand from bare streams gets the same bits."""

    def test_matrix_noise_across_chunks(self):
        # a 10 x 20 game has 200 noise entries: one chunk holds 81 single
        # batches, 40 of two samples, 27 of three
        payoff = np.random.default_rng(3).normal(size=(10, 20))
        game = bimatrix_from_payoff(payoff, noise_scale=0.1, seed=3,
                                    with_reference=False)
        lip = game.mean_map.lipschitz
        lam = 120.0 / lip
        u = game.feasible_set.project(np.zeros(30))
        sub = prox_subproblem(game, u, lam)
        cfg = VsAveConfig(mu=1.0 / lam, lipschitz=lip + 1.0 / lam, rho=0.99,
                          max_iterations=150)
        runs = [(n, len(list(steps))) for n, steps in
                groupby(sample_size(k, cfg.rho) for k in range(150))]
        # the size changes, and some run of one size fills a chunk
        assert len(runs) >= 3
        assert any(length > BLOCK // (n * 200) for n, length in runs)
        averaged, _ = run_vs_ave(sub, u, cfg, None, seed=5)
        want = vs_ave_loop(sub, u, cfg, (sub.oracle.stream(5, 0),
                                         sub.oracle.stream(5, 1)))
        assert np.array_equal(averaged, want)

    def test_gaussian_noise_across_chunks(self):
        # 400 coordinates: a chunk holds 40 steps, whatever their sizes
        prob = make_affine_strongly_monotone(n=400, mu=1.0, lipschitz=50.0,
                                             sigma=0.5, seed=4)
        cfg = VsAveConfig(mu=1.0, lipschitz=50.0, rho=0.9, max_iterations=90)
        assert cfg.max_iterations > 2 * (BLOCK // 400)
        y0 = np.full(400, 0.5)
        recorder = Recorder(every=7)
        averaged, trace = run_vs_ave(prob, y0, cfg, None, seed=2,
                                     recorder=recorder)
        want = vs_ave_loop(prob, y0, cfg, (prob.oracle.stream(2, 0),
                                           prob.oracle.stream(2, 1)))
        assert np.array_equal(averaged, want)
        # step 90 falls off the cadence and still gets a row, at the
        # plain loop's average to the bit
        assert [row.outer_k for row in trace.rows[-2:]] == [84, 90]
        assert trace.final == evaluate_point(prob, want, recorder, 90, 0,
                                             schedule_cost(90, cfg.rho))

    def test_matrix_noise_past_a_block_on_a_continued_pair(self):
        # a 40 x 40 game draws 1600 values per sample: batches of 11 or
        # more pass a block, and those past 163 samples are summed in
        # several groups. Two runs continue one stream pair, as PPAWSS
        # subproblems do
        game = bimatrix_from_payoff(
            np.random.default_rng(7).normal(size=(40, 40)), noise_scale=0.1,
            seed=7, with_reference=False)
        lam = 20.0 / game.mean_map.lipschitz
        cfg = VsAveConfig(mu=1.0 / lam,
                          lipschitz=game.mean_map.lipschitz + 1.0 / lam,
                          rho=0.9, max_iterations=52)
        sizes = [sample_size(k, cfg.rho) for k in range(52)]
        assert sizes[0] * 1600 <= BLOCK < sizes[-1] * 1600
        assert sizes[-1] > 262144 // 1600
        fed = (game.oracle.stream(5, 0), game.oracle.stream(5, 1))
        plain = (game.oracle.stream(5, 0), game.oracle.stream(5, 1))
        u = v = game.feasible_set.project(np.zeros(80))
        for _ in range(2):
            u, _ = run_vs_ave(prox_subproblem(game, u, lam), u, cfg, None,
                              streams=fed, recorder=None)
            v = vs_ave_loop(prox_subproblem(game, v, lam), v, cfg, plain)
            assert np.array_equal(u, v)
