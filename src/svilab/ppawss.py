"""Proximal-point outer loop for merely monotone SVIs.

Each outer step k regularizes the map with a quadratic centered at the
current iterate, solves the resulting 1/lambda-strongly monotone
subproblem inexactly (a logarithmically growing number of averaging
iterations), and relaxes toward the returned point. The inner solves
reuse one continuous pair of sample streams, so no randomness is
repeated across subproblems.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ContractViolation, ScheduleOverflow
from .metrics import evaluate_point
from .oracle import BudgetCounter, shift
from .problems import ProblemInstance
from .trace import Recorder, RunTrace
from .vs_ave import VsAveConfig, run_vs_ave, schedule_cost

__all__ = [
    "PpawssConfig",
    "inner_iterations",
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
    warm_start: bool = True

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
        """Inner linear rate 1 - 1/(kappa_in + 2) for the given outer L."""
        kappa_in = self.lam * lipschitz + 1.0
        return 1.0 - 1.0 / (kappa_in + 2.0)


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

    The oracle keeps its noise model and budget counter; only the mean
    map gains the (1/lam)(. - u_k) term, so the subproblem is
    1/lam-strongly monotone with Lipschitz constant L + 1/lam.
    Reference data is dropped: the subproblem's solution is the
    resolvent point, not the original reference.
    """
    if not lam > 0:
        raise ContractViolation(f"lam must be positive; got {lam!r}")
    shifted = shift(problem.oracle, lam, u_k)
    return ProblemInstance(oracle=shifted, feasible_set=problem.feasible_set)


def relaxation_step(u_k, z_k, eta):
    """Relaxed update eta * z_k + (1 - eta) * u_k.

    Over-relaxation (eta > 1) may leave the feasible set; that is fine
    because the next subproblem projects every iterate.
    """
    return eta * np.asarray(z_k) + (1.0 - eta) * np.asarray(u_k)


def run_ppawss(problem, u0, config, budget, *, scheme="ppawss", seed=0,
               recorder=Recorder()):
    """Run the outer loop for ``config.outer_iterations`` steps.

    Returns ``(u_K, trace)``; ``recorder`` picks the completed outer
    iterations that get a row (``inner_k`` records that step's inner
    iteration count, ``calls`` the cumulative oracle consumption). A
    subproblem whose sampling schedule cannot fit in the remaining
    budget is not started: a partial inner result would be discarded
    anyway, so the run ends with ``trace.truncated`` set and the last
    completed iterate, exactly as if the budget had run out
    mid-subproblem, without burning the leftover samples.
    """
    if budget is None:
        budget = BudgetCounter(2**63)
    feasible_set = problem.feasible_set
    u = feasible_set.project(np.asarray(u0, dtype=np.float64))
    lip = problem.mean_map.lipschitz
    q = config.inner_q(lip)
    inner_mu = 1.0 / config.lam
    inner_lip = lip + inner_mu
    rho = q ** config.beta
    trace = RunTrace(scheme, seed)
    streams = (problem.oracle.stream(0), problem.oracle.stream(1))
    u0_proj = u.copy()
    consumed_before = budget.consumed
    last = (0, 0, 0)  # (outer_k, inner_k, calls) of the last completed step
    for k in range(config.outer_iterations):
        ell_k = inner_iterations(k, q, config.alpha, config.min_inner)
        inner_config = VsAveConfig(
            mu=inner_mu,
            lipschitz=inner_lip,
            rho=rho,
            max_iterations=ell_k,
        )
        remaining = budget.limit - budget.consumed
        try:
            needed = schedule_cost(
                ell_k, rho, inner_config.min_batch, stop_at=remaining
            )
        except ScheduleOverflow:
            trace.truncated = True
            break
        if needed > remaining:
            trace.truncated = True
            break
        sub = prox_subproblem(problem, u, config.lam)
        y_start = u if config.warm_start else u0_proj
        z, inner_trace = run_vs_ave(
            sub, y_start, inner_config, budget,
            streams=streams, recorder=None,
        )
        if inner_trace.truncated:
            trace.truncated = True
            break
        u = relaxation_step(u, z, config.eta)
        last = (k + 1, ell_k, budget.consumed - consumed_before)
        if recorder is not None and recorder.due(k + 1):
            trace.add(evaluate_point(problem, u, recorder, *last))
    if recorder is not None and trace.missing(last[0]):
        trace.add(evaluate_point(problem, u, recorder, *last))
    return u, trace
