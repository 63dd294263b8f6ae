"""Tests for the proximal-point outer loop."""

import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from svilab import (
    BudgetCounter,
    ConfigError,
    PpawssConfig,
    Recorder,
    run_ppawss,
)
from svilab.errors import ContractViolation
from svilab.maps import AffineMap
from svilab.oracle import BLOCK, StochasticOracle, ZeroNoise
from svilab.ppawss import (inner_iterations, plan_subproblems,
                           prox_subproblem, relaxation_step)
from svilab.problems import ProblemInstance, bimatrix_from_payoff
from svilab.sets import Box
from svilab.schedule import sizes_within
from svilab.vs_ave import run_vs_ave, sample_size, schedule_cost

from plain_loops import ppawss_loop

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
        oracle = pennies_problem.oracle
        sub = prox_subproblem(pennies_problem, np.zeros(4), 1.0)
        assert sub.oracle.noise_model is oracle.noise_model
        assert sub.oracle.rng_seed == oracle.rng_seed

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

    def test_plan_prices_each_subproblem_by_its_schedule(self):
        # each pair is outer step k's config and its schedule's cost,
        # and the plan stops at the first subproblem the limit cannot pay
        cfg = _config(lam=5.0, outer_iterations=6)
        lip = self._noisy_pennies().mean_map.lipschitz
        costs = [schedule_cost(sub.max_iterations, sub.rho)
                 for sub in (cfg.subproblem(k, lip) for k in range(6))]
        for limit in (costs[0], sum(costs[:3]) + costs[3] - 1, 10**6):
            plan = plan_subproblems(cfg, lip, limit)
            steps = len(plan)
            assert plan == [(cfg.subproblem(k, lip), costs[k])
                            for k in range(steps)]
            assert steps == 6 or sum(costs[:steps + 1]) > limit
        assert len(plan) == 6
        assert plan_subproblems(cfg, lip, costs[0] - 1) == []

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

    def test_subproblems_are_planned_before_the_first_draw(self,
                                                           monkeypatch):
        # plan_subproblems makes every affordability walk, the
        # unaffordable fourth step's too, before the first subproblem
        # runs, and each listed step runs once
        problem = self._noisy_pennies()
        cfg = _config(lam=5.0, outer_iterations=6)
        _, full = run_ppawss(problem, np.zeros(4), cfg, BudgetCounter(10**6))
        events, planning = [], []

        def plan(*args):
            planning.append(True)
            try:
                return plan_subproblems(*args)
            finally:
                planning.pop()

        def walk(schedule, limit):
            events.append("planned walk" if planning else "walk")
            return sizes_within(schedule, limit)

        def solve(*args, **kwargs):
            events.append("solve")
            return run_vs_ave(*args, **kwargs)

        monkeypatch.setattr("svilab.ppawss.plan_subproblems", plan)
        monkeypatch.setattr("svilab.ppawss.sizes_within", walk)
        monkeypatch.setattr("svilab.ppawss.run_vs_ave", solve)
        for limit, steps, walks in [(10**6, 6, 6),
                                    (full.rows[2].calls + 1, 3, 4)]:
            events.clear()
            _, trace = run_ppawss(problem, np.zeros(4), cfg,
                                  BudgetCounter(limit))
            assert events == ["planned walk"] * walks + ["solve"] * steps
            assert trace.truncated == (steps < 6)

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


def test_fed_subproblems_equal_bare_stream_loop():
    # a 10 x 20 game (81 single-sample batches per chunk) with lam * L =
    # 200: inner batches stay at one sample for 140 steps, so a
    # subproblem crosses chunks, changes sizes, and leaves values of its
    # stream blocks to the next subproblem
    payoff = np.random.default_rng(7).normal(size=(10, 20))
    game = bimatrix_from_payoff(payoff, noise_scale=0.1, seed=7,
                                with_reference=False)
    cfg = _config(lam=200.0 / game.mean_map.lipschitz, outer_iterations=3)
    inner = cfg.subproblem(2, game.mean_map.lipschitz)
    sizes = [sample_size(k, inner.rho) for k in range(inner.max_iterations)]
    assert sizes.count(1) > BLOCK // 200 and len(set(sizes)) > 1
    u, _ = run_ppawss(game, np.zeros(30), cfg, None, seed=4)
    assert np.array_equal(u, ppawss_loop(game, np.zeros(30), cfg, seed=4))


@pytest.mark.usefixtures("fast_switching")
def test_runs_in_threads_share_one_problem_and_keep_their_bits():
    # four runs at once on one bimatrix problem: its map and product
    # set, each keeping views and scratch of the arrays it saw last, and
    # its noise model are shared, while the interpreter switches threads
    # as often as it can. Seeds and budgets differ, so the runs' buffers
    # and the subproblems they are in at any moment differ too
    payoff = np.random.default_rng(7).normal(size=(10, 20))
    game = bimatrix_from_payoff(payoff, noise_scale=0.1, seed=7,
                                with_reference=False)
    cfg = _config(lam=200.0 / game.mean_map.lipschitz, outer_iterations=20)
    budgets = [9000, 12000, 20000, 30000]

    def run(i):
        return run_ppawss(game, np.zeros(30), cfg, BudgetCounter(budgets[i]),
                          seed=i, recorder=None)[0]

    want = [run(i) for i in range(4)]
    with ThreadPoolExecutor(max_workers=4) as pool:
        runs = [pool.submit(run, i) for i in range(4)]
        got = [r.result(timeout=120) for r in runs]
    for i in range(4):
        assert np.array_equal(got[i], want[i]), i
