"""Shared problem data keeps no state.

The harness runs every cell of a problem on one map, set, noise model and
oracle, serially or on threads. A run's scratch lives on objects that the
run alone holds (its feeds, its buffers), so after any runs each shared
layer holds exactly what a freshly built one holds: a memo put back on a
shared layer fails here, whatever the interleaving of the runs.
"""

from __future__ import annotations

import types
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from svilab import (BudgetCounter, ExtragradientConfig, PpawssConfig,
                    VsAveConfig, run_extragradient, run_ppawss, run_vs_ave)
from svilab.maps import AffineMap
from svilab.oracle import AdditiveGaussian, StochasticOracle
from svilab.ppawss import prox_subproblem
from svilab.problems import ProblemInstance, bimatrix_from_payoff
from svilab.sets import Simplex

PPAWSS = PpawssConfig(lam=1.0, eta=1.0, alpha=1.001, beta=1.001,
                      outer_iterations=3)


def _problems():
    """A game (bimatrix map, product of simplices, payoff noise), a prox
    subproblem whose shifted map wraps the game's map, and an affine
    problem on a lone simplex: every layer that has ever kept a memo."""
    game = bimatrix_from_payoff(np.random.default_rng(4).normal(size=(3, 5)),
                                noise_scale=0.5, seed=2, with_reference=False)
    affine = ProblemInstance(
        oracle=StochasticOracle(
            AffineMap(np.diag([1.0, 2.0, 3.0, 4.0]),
                      np.array([0.5, 0.0, -0.5, 1.0])),
            AdditiveGaussian(0.3), rng_seed=5),
        feasible_set=Simplex(4))
    return {"game": game,
            "subproblem": prox_subproblem(game, np.full(8, 0.25), PPAWSS.lam),
            "affine": affine}


def _runs(problems):
    """One run of each scheme on each problem it applies to, each on its
    own seed and buffers."""
    game, sub, affine = (problems[k] for k in ("game", "subproblem",
                                               "affine"))
    return [
        lambda: run_ppawss(game, np.zeros(8), PPAWSS, BudgetCounter(5000),
                           seed=1, recorder=None),
        lambda: run_extragradient(
            game, np.zeros(8),
            ExtragradientConfig(stepsize=0.1, max_iterations=5), None,
            seed=2, recorder=None),
        lambda: run_vs_ave(sub, np.zeros(8),
                           PPAWSS.subproblem(2, game.mean_map.lipschitz),
                           BudgetCounter(4000), seed=3, recorder=None),
        lambda: run_vs_ave(affine, np.zeros(4),
                           VsAveConfig(mu=1.0, lipschitz=4.0, rho=0.8,
                                       max_iterations=12),
                           None, seed=4, recorder=None),
    ]


def _differences(got, want, path):
    """The paths at which ``got`` and ``want`` differ: in type, arrays by
    value, tuples and lists entry by entry, bound methods by function and
    instance, other objects that have a ``__dict__`` attribute by
    attribute, and anything else by ``==``."""
    if type(got) is not type(want):
        yield path
    elif isinstance(want, np.ndarray):
        if not np.array_equal(got, want):
            yield path
    elif isinstance(want, (tuple, list)):
        if len(got) != len(want):
            yield path
        else:
            for i, (g, w) in enumerate(zip(got, want)):
                yield from _differences(g, w, f"{path}[{i}]")
    elif isinstance(want, types.MethodType):
        if got.__func__ is not want.__func__:
            yield path
        else:
            yield from _differences(got.__self__, want.__self__,
                                    f"{path}.__self__")
    elif hasattr(want, "__dict__") and not isinstance(
            want, (type, types.FunctionType)):
        if vars(got).keys() != vars(want).keys():
            yield path
        else:
            for name, value in vars(want).items():
                yield from _differences(vars(got)[name], value,
                                        f"{path}.{name}")
    elif not got == want:
        yield path


def _serially(works):
    return [work() for work in works]


def _on_threads(works):
    with ThreadPoolExecutor(max_workers=len(works)) as pool:
        runs = [pool.submit(work) for work in works]
        return [run.result(timeout=120) for run in runs]


@pytest.mark.parametrize("run", [_serially, _on_threads],
                         ids=["serial", "threads"])
def test_runs_leave_every_shared_layer_as_built(run):
    shared = _problems()
    run(_runs(shared))
    fresh = _problems()
    for name, problem in shared.items():
        assert list(_differences(problem, fresh[name], name)) == []
