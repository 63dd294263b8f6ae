"""Every solver fixes its run length from the budget before its first
draw, so the ledger holds exactly the cost of the completed steps, and
charges that planned cost once, before its first draw."""

from functools import lru_cache
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from svilab import (
    BudgetCounter,
    ExtragradientConfig,
    PpawssConfig,
    VsAveConfig,
    make_affine_strongly_monotone,
    run_extragradient,
    run_ppawss,
    run_vs_ave,
)
from svilab.extragradient import eg_sample_size
from svilab.ppawss import inner_iterations, plan_subproblems
from svilab.schedule import sizes_within
from svilab.problems import bimatrix_from_payoff
from svilab.vs_ave import sample_size, schedule_cost

PENNIES = [[1.0, -1.0], [-1.0, 1.0]]


@lru_cache(maxsize=None)
def _case(scheme):
    """(solver, problem, config, cost of each step) for one scheme."""
    if scheme == "vs_ave":
        problem = make_affine_strongly_monotone(n=3, mu=1.0, lipschitz=2.0,
                                                sigma=1.0, seed=2)
        config = VsAveConfig(mu=1.0, lipschitz=2.0, rho=0.7,
                             max_iterations=20)
        costs = [2 * sample_size(k, config.rho) for k in range(20)]
        return run_vs_ave, problem, config, costs
    problem = bimatrix_from_payoff(PENNIES, noise_scale=0.1, seed=0)
    if scheme == "extragradient":
        config = ExtragradientConfig(stepsize=0.2, max_iterations=20)
        costs = [2 * eg_sample_size(k, config.theta, config.mu_shift,
                                    config.b) for k in range(20)]
        return run_extragradient, problem, config, costs
    config = PpawssConfig(lam=5.0, eta=1.0, alpha=1.001, beta=1.001,
                          outer_iterations=6)
    q = config.inner_q(problem.mean_map.lipschitz)
    costs = [schedule_cost(inner_iterations(k, q, config.alpha,
                                            config.min_inner), q**config.beta)
             for k in range(6)]
    return run_ppawss, problem, config, costs


@pytest.mark.parametrize("scheme", ["vs_ave", "ppawss", "extragradient"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_ledger_is_the_cost_of_completed_steps(scheme, data):
    run, problem, config, costs = _case(scheme)
    limit = data.draw(st.integers(1, sum(costs) + 10), label="limit")
    budget = BudgetCounter(limit)
    _, trace = run(problem, np.zeros(problem.dimension), config, budget)
    completed = trace.final.outer_k if trace.rows else 0
    assert budget.consumed == sum(costs[:completed])
    if trace.rows:
        assert trace.final.calls == budget.consumed
    # the run stopped only where the next step would not have fit
    assert trace.truncated == (completed < len(costs))
    if completed < len(costs):
        assert sum(costs[:completed + 1]) > limit



@pytest.mark.parametrize("scheme", ["vs_ave", "ppawss", "extragradient"])
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_each_run_charges_its_plan_once(scheme, data):
    # a flat run charges 2 * sum(sizes) once; PPAWSS charges once per
    # subproblem it completes, through that subproblem's inner run
    run, problem, config, costs = _case(scheme)
    limit = data.draw(st.integers(1, sum(costs) + 10), label="limit")
    if scheme == "ppawss":
        plan = plan_subproblems(config, problem.mean_map.lipschitz, limit)
        expected = [cost for _, cost in plan]
    else:
        expected = [2 * sum(sizes_within(config.schedule, limit))]
    budget = BudgetCounter(limit)
    with mock.patch.object(BudgetCounter, "charge", autospec=True,
                           side_effect=BudgetCounter.charge) as charge:
        _, trace = run(problem, np.zeros(problem.dimension), config, budget)
    assert [c.args for c in charge.call_args_list] == [
        (budget, cost) for cost in expected]
    assert budget.consumed == sum(expected)
    if trace.rows:
        assert trace.final.calls == sum(expected)
