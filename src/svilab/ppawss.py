"""Proximal-point outer loop for merely monotone SVIs.

Each outer step k regularizes the map with a quadratic centered at the
current iterate, solves the resulting 1/lambda-strongly monotone
subproblem inexactly from that iterate (a logarithmically growing
number of averaging iterations), and relaxes toward the returned point.
The inner solves reuse one continuous pair of sample streams, so no
randomness is repeated across subproblems.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, ContractViolation
from .maps import ShiftedMap
from .metrics import evaluate_point
from .oracle import ledger
from .problems import ProblemInstance
from .schedule import sizes_within
from .trace import Recorder, RunTrace
from .vs_ave import VsAveConfig, rate_q, run_vs_ave

__all__ = [
    "PpawssConfig",
    "inner_iterations",
    "plan_subproblems",
    "prox_subproblem",
    "relaxation_step",
    "run_ppawss",
]


@dataclass(frozen=True)
class PpawssConfig:
    """Outer-loop parameters.

    ``lam`` is the proximal weight: the subproblem map is
    ``F + (1/lam)(. - u_k)``, so larger values mean milder
    regularization but a worse inner condition number
    ``kappa_in = lam * L + 1``. ``alpha`` scales the inner iteration
    schedule and ``beta`` the inner batch growth exponent.
    """

    lam: float
    eta: float
    alpha: float
    beta: float
    outer_iterations: int
    min_inner: int = 1

    def __post_init__(self):
        if not (np.isfinite(self.lam) and self.lam > 0):
            raise ConfigError(f"lam must be positive; got {self.lam!r}")
        if not (np.isfinite(self.eta) and 0.0 < self.eta < 2.0):
            raise ConfigError(f"eta must lie in (0, 2); got {self.eta!r}")
        if not (np.isfinite(self.alpha) and self.alpha > 1.0):
            raise ConfigError(f"alpha must be > 1; got {self.alpha!r}")
        if not (np.isfinite(self.beta) and self.beta > 1.0):
            raise ConfigError(f"beta must be > 1; got {self.beta!r}")
        if int(self.outer_iterations) < 1:
            raise ConfigError(
                f"outer_iterations must be >= 1; got {self.outer_iterations!r}"
            )
        if int(self.min_inner) < 1:
            raise ConfigError(f"min_inner must be >= 1; got {self.min_inner!r}")
        object.__setattr__(self, "lam", float(self.lam))
        object.__setattr__(self, "eta", float(self.eta))
        object.__setattr__(self, "alpha", float(self.alpha))
        object.__setattr__(self, "beta", float(self.beta))
        object.__setattr__(self, "outer_iterations", int(self.outer_iterations))
        object.__setattr__(self, "min_inner", int(self.min_inner))

    def inner_q(self, lipschitz):
        """Inner linear rate :func:`~svilab.vs_ave.rate_q` of
        ``kappa_in`` for the given outer L."""
        return rate_q(self.lam * lipschitz + 1.0)

    def subproblem(self, k, lipschitz):
        """VS-Ave config of outer step ``k``'s subproblem for a map with
        Lipschitz constant ``lipschitz``: ``inner_iterations`` steps on
        batches growing at ``rho = q**beta``."""
        q = self.inner_q(lipschitz)
        inner_mu = 1.0 / self.lam
        return VsAveConfig(
            mu=inner_mu,
            lipschitz=lipschitz + inner_mu,
            rho=q ** self.beta,
            max_iterations=inner_iterations(k, q, self.alpha, self.min_inner),
        )


def inner_iterations(k, q, alpha, min_inner):
    """Inner budget max(min_inner, floor(2 * alpha * ln(1+k) / ln(1/q))).

    Grows logarithmically in the outer index so the inner error decays
    polynomially; the clamp covers k = 0 where the formula gives zero.
    """
    if k < 0:
        raise ContractViolation("outer index must be nonnegative")
    if not 0.0 < q < 1.0:
        raise ContractViolation(f"q must lie in (0, 1); got {q!r}")
    if not alpha > 1.0:
        raise ContractViolation(f"alpha must be > 1; got {alpha!r}")
    value = 2.0 * alpha * math.log1p(k) / math.log(1.0 / q)
    return max(int(min_inner), int(math.floor(value)))


def prox_subproblem(problem, u_k, lam):
    """Shifted instance whose solution is the resolvent of u_k.

    The oracle keeps its noise model and ``rng_seed``; only the mean
    map gains the (1/lam)(. - u_k) term, so the subproblem is
    1/lam-strongly monotone with Lipschitz constant L + 1/lam.
    Reference data is dropped: the subproblem's solution is the
    resolvent point, not the original reference.
    """
    if not lam > 0:
        raise ContractViolation(f"lam must be positive; got {lam!r}")
    oracle = problem.oracle
    shifted = replace(oracle, mean_map=ShiftedMap(oracle.mean_map, lam, u_k))
    return ProblemInstance(oracle=shifted, feasible_set=problem.feasible_set)


def relaxation_step(u_k, z_k, eta):
    """Relaxed update eta * z_k + (1 - eta) * u_k.

    Over-relaxation (eta > 1) may leave the feasible set; that is fine
    because the next subproblem projects every iterate.
    """
    return eta * np.asarray(z_k) + (1.0 - eta) * np.asarray(u_k)


def plan_subproblems(config, lipschitz, limit):
    """The ``(inner_config, calls)`` pair of each outer step, for a map
    of Lipschitz constant ``lipschitz``, that ``limit`` oracle calls pay
    for in full, up to the first they cannot. Each step's walk
    (:func:`~svilab.schedule.sizes_within`) computes the sizes its inner
    run reads, and keeps no list of them."""
    plan = []
    for k in range(config.outer_iterations):
        inner_config = config.subproblem(k, lipschitz)
        sizes = sizes_within(inner_config.schedule, limit)
        if len(sizes) < inner_config.max_iterations:
            break
        plan.append((inner_config, 2 * sum(sizes)))
        limit -= plan[-1][1]
    return plan


def run_ppawss(problem, u0, config, budget, *, scheme="ppawss", seed=0,
               recorder=Recorder()):
    """Run the outer loop for ``config.outer_iterations`` steps.

    Returns ``(u_K, trace)``. Before its first draw the run lists the
    subproblems ``budget`` pays for (:func:`plan_subproblems` on the
    map's own L): a run that stops short sets ``trace.truncated``,
    returns the last completed iterate and draws nothing more. Each
    subproblem's inner run charges ``budget`` its planned cost once,
    before its first draw, so a run that raises mid-way has already
    charged the subproblem it was in. ``recorder`` picks the completed
    outer iterations that get a row (``inner_k`` records that step's
    inner iteration count, ``calls`` the planned cost of the subproblems
    completed so far). ``budget=None`` means no cap
    (:func:`~svilab.oracle.ledger`). ``seed`` keys the stream pair all
    subproblems continue, ``problem.oracle.stream(seed, 0)`` and
    ``(seed, 1)``.
    """
    budget = ledger(budget)
    u = problem.feasible_set.project(np.asarray(u0, dtype=np.float64))
    plan = plan_subproblems(config, problem.mean_map.lipschitz,
                            budget.remaining)
    steps = len(plan)
    trace = RunTrace(scheme, seed, steps < config.outer_iterations)
    streams = (problem.oracle.stream(seed, 0), problem.oracle.stream(seed, 1))
    calls = 0
    for k, (inner_config, cost) in enumerate(plan, 1):
        sub = prox_subproblem(problem, u, config.lam)
        z, _ = run_vs_ave(sub, u, inner_config, budget,
                          streams=streams, recorder=None)
        calls += cost
        u = relaxation_step(u, z, config.eta)
        if recorder is not None and recorder.due(k, steps):
            trace.add(evaluate_point(problem, u, recorder, k,
                                     inner_config.max_iterations, calls))
    return u, trace
