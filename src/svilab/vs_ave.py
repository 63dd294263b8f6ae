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

import numpy as np

from .errors import ConfigError, ContractViolation, ScheduleOverflow
from .metrics import evaluate_point
from .oracle import batch_mean, ledger
from .schedule import Schedule, sizes_within
from .trace import Recorder, RunTrace

__all__ = [
    "VsAveConfig",
    "rate_q",
    "sample_size",
    "schedule_cost",
    "run_vs_ave",
]


def rate_q(kappa, rule="kappa_plus_2"):
    """Linear rate ``q`` used to derive batch growth (``rho = q**beta``).

    Two conventions are in circulation: the rate-analysis value
    ``1 - 1/(kappa+2)`` (the default) and the ``1 - 1/(kappa+1)``
    variant used in experiment write-ups. Both are exposed so configs
    can choose; all internal defaults use ``kappa_plus_2``. A ``kappa``
    below 1 or an unknown rule raises :class:`ConfigError`.
    """
    if not kappa >= 1:
        raise ConfigError(f"kappa must be >= 1; got {kappa!r}")
    if rule == "kappa_plus_2":
        return 1.0 - 1.0 / (kappa + 2.0)
    if rule == "kappa_plus_1":
        return 1.0 - 1.0 / (kappa + 1.0)
    raise ConfigError(
        f"q rule must be 'kappa_plus_2' or 'kappa_plus_1'; got {rule!r}"
    )


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
        bound = rate_q(self.lipschitz / self.mu)
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

    @property
    def schedule(self):
        """The run's batch sizes ``N_k`` (:func:`sample_size`), as a
        :class:`Schedule` record of at most ``max_iterations`` steps;
        :func:`~svilab.schedule.sizes_within` computes them."""
        return Schedule(sample_size, (self.rho, self.min_batch),
                        self.max_iterations)


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


def run_vs_ave(problem, y0, config, budget, *, streams=None, scheme="vs_ave",
               seed=0, recorder=Recorder()):
    """Run the leading steps of ``config.schedule`` that ``budget`` pays
    for in full.

    Returns ``(averaged, trace)`` where ``averaged`` is the weighted
    average of the ``y`` iterates at the last completed iteration. The
    run length is fixed before the first draw: a step whose two batches
    the budget cannot both pay for is not started, so a run that stops
    early draws nothing past its last completed step. When the budget
    or a schedule overflow ends the run before ``max_iterations``,
    ``trace.truncated`` is set. The run charges ``budget`` its planned
    cost, ``2 * sum(N_k)`` over those steps, once, before its first
    draw, so a run that raises mid-way has already charged its whole
    run; a row's ``calls`` is the cost of the steps completed so far.
    ``budget=None`` means no cap
    (:func:`~svilab.oracle.ledger`). ``recorder`` sets the trace rows,
    evaluated at the running average; ``None`` records nothing.

    ``seed`` keys the two sample streams (step-1.1 batches, step-1.2
    batches), ``problem.oracle.stream(seed, 0)`` and ``(seed, 1)``.
    Nested callers may pass ``streams`` instead, to keep one continuous
    stream pair across repeated runs. The run sizes itself once: the
    list of sizes the budget pays for (:func:`~svilab.schedule.sizes_within`)
    drives its loop and both its stream feeds
    (:meth:`StochasticOracle.feeds`), so it takes from the streams
    exactly the values of those steps, both on the run's own thread.

    The run allocates its vectors once: the running sums, the point
    (``x_k``, then ``y_{k+1}``) and the batch mean, which is also the
    scratch between the batches. Each step writes into them through the
    ``out=`` of :func:`~svilab.oracle.batch_mean`, the map and the
    projection, with the operations of the allocating form in the same
    order, so the bits are those of that form. What the map and the
    noise model keep of these buffers lives on the run's two feeds, so
    the problem it shares with other runs keeps nothing of this run.
    """
    budget = ledger(budget)
    oracle = problem.oracle
    project = problem.feasible_set.project
    if streams is None:
        streams = (oracle.stream(seed, 0), oracle.stream(seed, 1))
    mu, lip = config.mu, config.lipschitz
    weight = mu / (mu + lip)
    point = project(np.asarray(y0, dtype=np.float64))
    # running sums of gamma_i (y_i - estimate_i / mu) and gamma_i y_i
    presum = np.zeros_like(point)
    ysum = point.copy()
    est = np.empty_like(point)
    gamma = Gamma = 1.0
    # the scalar operands as 0-d arrays: numpy converts a Python scalar
    # operand on every call, a 0-d array not, and both give the same
    # bits. gamma and Gamma are computed as Python floats and stored in
    # theirs each step
    neg_mu, neg_lip = np.array(-mu), np.array(-lip)
    gamma_0d, Gamma_0d = np.array(gamma), np.array(Gamma)
    sizes = sizes_within(config.schedule, budget.remaining)
    budget.charge(2 * sum(sizes))
    calls = 0
    steps = len(sizes)
    trace = RunTrace(scheme, seed, steps < config.max_iterations)
    # Gamma_k < 2 rho^(1-k) < 2**63 by the rate condition: no rescale needed
    with oracle.feeds(streams, sizes) as (feed_y, feed_x):
        for k, n_k in enumerate(sizes, 1):
            calls += 2 * n_k
            batch_mean(oracle, point, n_k, feed_y, out=est)
            est /= neg_mu
            est += point
            est *= gamma_0d
            presum += est
            np.divide(presum, Gamma_0d, est)
            project(est, out=point)
            batch_mean(oracle, point, n_k, feed_x, out=est)
            est /= neg_lip
            est += point
            project(est, out=point)
            gamma = weight * Gamma
            Gamma += gamma
            gamma_0d[()] = gamma
            Gamma_0d[()] = Gamma
            np.multiply(gamma_0d, point, est)
            ysum += est
            if recorder is not None and recorder.due(k, steps):
                trace.add(evaluate_point(problem, ysum / Gamma_0d, recorder,
                                         k, 0, calls))
    return ysum / Gamma, trace
