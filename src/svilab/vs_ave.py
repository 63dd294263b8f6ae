"""Variable-sample-size averaging scheme for strongly monotone SVIs.

One iteration draws a mini-batch at the averaging point ``y_k``, updates
the weighted pre-projection sum, projects to get ``x_k``, then draws an
independent batch at ``x_k`` for the half-step producing ``y_{k+1}``.
Batch sizes grow geometrically (``N_k = floor(rho^-k)``) so the
stochastic error decays at the same linear rate as the deterministic
part; the returned point is the weighted average of all ``y_i``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import BudgetExhausted, ConfigError, ContractViolation, ScheduleOverflow
from .metrics import evaluate_point
from .oracle import batch_mean
from .schedule import Schedule
from .trace import Recorder, RunTrace

__all__ = [
    "VsAveConfig",
    "VsAveState",
    "gamma_update",
    "rate_q",
    "sample_size",
    "schedule_cost",
    "x_step",
    "y_step",
    "run_vs_ave",
]


def rate_q(kappa, rule="kappa_plus_2"):
    """Linear rate ``q`` used to derive batch growth (``rho = q**beta``).

    Two conventions are in circulation: the rate-analysis value
    ``1 - 1/(kappa+2)`` (the default) and the ``1 - 1/(kappa+1)``
    variant used in experiment write-ups. Both are exposed so configs
    can choose; all internal defaults use ``kappa_plus_2``.
    """
    if not kappa >= 1:
        raise ContractViolation(f"kappa must be >= 1; got {kappa!r}")
    if rule == "kappa_plus_2":
        return 1.0 - 1.0 / (kappa + 2.0)
    if rule == "kappa_plus_1":
        return 1.0 - 1.0 / (kappa + 1.0)
    raise ConfigError(
        f"q rule must be 'kappa_plus_2' or 'kappa_plus_1'; got {rule!r}"
    )

# running sums are rescaled once Gamma passes this; all downstream
# quantities depend only on ratios, so the rescale is exact
_RENORM_AT = 1e100


@dataclass(frozen=True)
class VsAveConfig:
    """Scheme parameters.

    ``rho`` controls the batch growth and must satisfy the rate
    condition ``rho < 1 - 1/(kappa+2)`` for ``kappa = lipschitz/mu``;
    violations are rejected at construction with the inequality spelled
    out.
    """

    mu: float
    lipschitz: float
    rho: float
    max_iterations: int
    min_batch: int = 1

    def __post_init__(self):
        if not (np.isfinite(self.mu) and self.mu > 0):
            raise ConfigError(f"mu must be positive; got {self.mu!r}")
        if not (np.isfinite(self.lipschitz) and self.lipschitz >= self.mu):
            raise ConfigError(
                f"lipschitz must be >= mu = {self.mu:g}; got {self.lipschitz!r}"
            )
        if not (0.0 < self.rho < 1.0):
            raise ConfigError(f"rho must lie in (0, 1); got {self.rho!r}")
        kappa = self.lipschitz / self.mu
        bound = 1.0 - 1.0 / (kappa + 2.0)
        if not self.rho < bound:
            raise ConfigError(
                f"rho must be < 1 - 1/(kappa+2) = {bound:g}; got {self.rho:g}"
            )
        if int(self.max_iterations) < 1:
            raise ConfigError(f"max_iterations must be >= 1; got {self.max_iterations!r}")
        if int(self.min_batch) < 1:
            raise ConfigError(f"min_batch must be >= 1; got {self.min_batch!r}")
        object.__setattr__(self, "mu", float(self.mu))
        object.__setattr__(self, "lipschitz", float(self.lipschitz))
        object.__setattr__(self, "rho", float(self.rho))
        object.__setattr__(self, "max_iterations", int(self.max_iterations))
        object.__setattr__(self, "min_batch", int(self.min_batch))

    @property
    def kappa(self):
        return self.lipschitz / self.mu

    @cached_property
    def schedule(self):
        """The run's batch sizes ``N_k`` (:func:`sample_size`), as a
        :class:`Schedule` of at most ``max_iterations`` steps that is
        built only as far as it is walked."""
        rho, min_batch = self.rho, self.min_batch
        return Schedule(lambda k: sample_size(k, rho, min_batch),
                        self.max_iterations)


@dataclass
class VsAveState:
    """Mutable per-run state.

    ``weighted_presum`` accumulates ``gamma_i (y_i - (1/mu) estimate_i)``
    and ``weighted_ysum`` accumulates ``gamma_i y_i``; both are running
    sums so one iteration costs O(n) regardless of k.
    """

    config: VsAveConfig
    gamma_k: float
    Gamma_k: float
    weighted_presum: np.ndarray
    weighted_ysum: np.ndarray
    x_k: np.ndarray
    y_k: np.ndarray


def gamma_update(gamma_k, Gamma_k, mu, lipschitz):
    """Averaging-weight recurrence: next weight is ``mu/(mu+L)`` of the
    running total, which then grows by the new weight."""
    if not (gamma_k > 0 and Gamma_k > 0 and mu > 0 and lipschitz > 0):
        raise ContractViolation("gamma_update needs positive inputs")
    gamma_next = (mu / (mu + lipschitz)) * Gamma_k
    return gamma_next, Gamma_k + gamma_next


def sample_size(k, rho, min_batch=1):
    """Batch size ``max(min_batch, floor(rho^-k))``.

    Raises :class:`ScheduleOverflow` once the geometric growth leaves
    the safe integer range; callers treat that as the end of the run.
    """
    if not 0.0 < rho < 1.0:
        raise ContractViolation(f"rho must lie in (0, 1); got {rho!r}")
    if k < 0:
        raise ContractViolation("iteration index must be nonnegative")
    try:
        value = float(rho) ** -k
    except OverflowError:
        value = math.inf
    if not math.isfinite(value) or value >= 2**62:
        raise ScheduleOverflow(
            f"sample size rho^-k overflowed at k={k} (rho={rho:g})"
        )
    return max(int(min_batch), int(math.floor(value)))


def schedule_cost(iterations, rho, min_batch=1, stop_at=None):
    """Oracle calls consumed by ``iterations`` full steps, ``sum(2 N_k)``.

    With ``stop_at`` the sum returns early once it exceeds that value,
    so feasibility against a remaining budget can be tested without
    summing a huge tail. Raises :class:`ScheduleOverflow` where
    :func:`sample_size` does.
    """
    total = 0
    for k in range(int(iterations)):
        total += 2 * sample_size(k, rho, min_batch)
        if stop_at is not None and total > stop_at:
            break
    return total


def x_step(state, feasible_set, estimate_y):
    """Averaging step: fold the batch estimate at ``y_k`` into the
    weighted pre-projection sum and project.

    ``estimate_y`` must be the batch mean at ``state.y_k``. The estimate
    buffer is consumed as scratch; callers that still need it must pass
    a copy.
    """
    est = estimate_y
    est /= -state.config.mu
    est += state.y_k
    est *= state.gamma_k
    state.weighted_presum += est
    state.x_k = feasible_set.project(state.weighted_presum / state.Gamma_k)
    return state.x_k


def y_step(x_k, feasible_set, estimate_x, lipschitz):
    """Half-step from ``x_k`` with the batch estimate taken there.

    The estimate buffer is consumed as scratch; callers that still need
    it must pass a copy.
    """
    est = estimate_x
    est /= -lipschitz
    est += x_k
    return feasible_set.project(est)


def run_vs_ave(problem, y0, config, budget, *, streams=None, scheme="vs_ave",
               seed=0, recorder=Recorder()):
    """Run the scheme for ``config.max_iterations`` iterations.

    Returns ``(averaged, trace)`` where ``averaged`` is the weighted
    average of the ``y`` iterates at the last completed iteration. A
    refused oracle batch (budget) or a schedule overflow ends the run
    early with ``trace.truncated`` set; the average of the completed
    prefix is returned. ``recorder`` sets the trace rows, evaluated at
    the running average; ``None`` records nothing.

    ``streams`` may supply the two sample streams (step-1.1 batches,
    step-1.2 batches) so nested callers keep one continuous stream pair
    across repeated runs; by default fresh streams 0 and 1 are derived
    from the problem oracle.
    """
    oracle = problem.oracle.with_budget(budget)
    feasible_set = problem.feasible_set
    if streams is None:
        streams = (oracle.stream(0), oracle.stream(1))
    stream_y, stream_x = streams
    y = feasible_set.project(np.asarray(y0, dtype=np.float64))
    state = VsAveState(
        config=config,
        gamma_k=1.0,
        Gamma_k=1.0,
        weighted_presum=np.zeros_like(y),
        weighted_ysum=y.copy(),
        x_k=None,
        y_k=y,
    )
    trace = RunTrace(scheme, seed)
    calls_total = 0
    completed = 0
    for n_k in config.schedule:
        try:
            estimate_y, c1 = batch_mean(oracle, state.y_k, n_k, stream_y)
            x = x_step(state, feasible_set, estimate_y)
            estimate_x, c2 = batch_mean(oracle, x, n_k, stream_x)
        except BudgetExhausted:
            break
        y_next = y_step(x, feasible_set, estimate_x, config.lipschitz)
        calls_total += c1 + c2
        state.gamma_k, state.Gamma_k = gamma_update(
            state.gamma_k, state.Gamma_k, config.mu, config.lipschitz
        )
        state.weighted_ysum += state.gamma_k * y_next
        state.y_k = y_next
        completed += 1
        if state.Gamma_k > _RENORM_AT:
            scale = 1.0 / state.Gamma_k
            state.weighted_presum *= scale
            state.weighted_ysum *= scale
            state.gamma_k *= scale
            state.Gamma_k = 1.0
        if recorder is not None and recorder.due(completed):
            averaged = state.weighted_ysum / state.Gamma_k
            trace.add(evaluate_point(problem, averaged, recorder, completed,
                                     0, calls_total))
    # a refused batch or a schedule overflow ended the run early
    trace.truncated = completed < config.max_iterations
    averaged = state.weighted_ysum / state.Gamma_k
    if recorder is not None and trace.missing(completed):
        trace.add(evaluate_point(problem, averaged, recorder, completed, 0,
                                 calls_total))
    return averaged, trace
