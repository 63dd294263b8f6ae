"""Variance-reduced extragradient baseline.

Two projections per iteration, each preceded by an independent
mini-batch of size N_k at the current point; the batch size grows like
(k + mu) log(k + mu)^{1+b} so the scheme converges without averaging
the noise away through a diminishing stepsize.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ContractViolation, ScheduleOverflow
from .metrics import evaluate_point
from .oracle import batch_mean, ledger
from .schedule import Schedule, sizes_within
from .trace import Recorder, RunTrace

__all__ = [
    "ExtragradientConfig",
    "check_stepsize",
    "eg_sample_size",
    "max_stepsize",
    "run_extragradient",
]


@dataclass(frozen=True)
class ExtragradientConfig:
    """Baseline parameters.

    ``stepsize`` must stay below :func:`max_stepsize`; the check runs at
    the start of a run, where the problem's Lipschitz constant is known.
    ``mu_shift`` offsets the batch schedule (it is unrelated to strong
    monotonicity) and must exceed 1 so the logarithm is positive.
    ``max_iterations``, keyword-only, is the run's length, sized before
    its first draw; it alone bounds a run without a budget.
    """

    stepsize: float
    theta: float = 1.0
    mu_shift: float = 2.001
    b: float = 1e-3
    max_iterations: int = field(kw_only=True)
    averaged: bool = False

    def __post_init__(self):
        if not (np.isfinite(self.stepsize) and self.stepsize > 0):
            raise ConfigError(f"stepsize must be positive; got {self.stepsize!r}")
        if not (np.isfinite(self.theta) and self.theta > 0):
            raise ConfigError(f"theta must be positive; got {self.theta!r}")
        if not (np.isfinite(self.mu_shift) and self.mu_shift > 1):
            raise ConfigError(f"mu_shift must be > 1; got {self.mu_shift!r}")
        if not (np.isfinite(self.b) and self.b > 0):
            raise ConfigError(f"b must be positive; got {self.b!r}")
        if int(self.max_iterations) < 1:
            raise ConfigError(
                f"max_iterations must be >= 1; got {self.max_iterations!r}"
            )
        object.__setattr__(self, "stepsize", float(self.stepsize))
        object.__setattr__(self, "theta", float(self.theta))
        object.__setattr__(self, "mu_shift", float(self.mu_shift))
        object.__setattr__(self, "b", float(self.b))
        object.__setattr__(self, "max_iterations", int(self.max_iterations))

    @property
    def schedule(self):
        """The run's batch sizes ``N_k`` (:func:`eg_sample_size`), as a
        :class:`Schedule` record of at most ``max_iterations`` steps;
        :func:`~svilab.schedule.sizes_within` computes them."""
        return Schedule(eg_sample_size, (self.theta, self.mu_shift, self.b),
                        self.max_iterations)


def max_stepsize(lipschitz):
    """Stepsize bound ``1/(sqrt(6) L)``; a stepsize must lie below it."""
    return 1.0 / (math.sqrt(6.0) * lipschitz)


def check_stepsize(stepsize, lipschitz):
    """Raise :class:`ConfigError` unless ``stepsize < max_stepsize(L)``."""
    bound = max_stepsize(lipschitz)
    if not stepsize < bound:
        raise ConfigError(f"stepsize must be < 1/(sqrt(6)*L) = {bound:g};"
                          f" got {stepsize:g}")


def eg_sample_size(k, theta, mu_shift, b):
    """Batch size ceil(theta * (k + mu) * ln(k + mu)^(1+b)).

    Raises :class:`ScheduleOverflow` where the size reaches 2**62, as
    :func:`~svilab.vs_ave.sample_size` does.
    """
    if k < 0:
        raise ContractViolation("iteration index must be nonnegative")
    if not mu_shift > 1:
        raise ContractViolation(f"mu_shift must be > 1; got {mu_shift!r}")
    shifted = k + mu_shift
    value = theta * shifted * math.log(shifted) ** (1.0 + b)
    if not value < 2**62:
        raise ScheduleOverflow(
            f"sample size overflowed at k={k} (theta={theta:g})"
        )
    return int(math.ceil(value))


def run_extragradient(problem, z0, config, budget, *, scheme="extragradient",
                      seed=0, recorder=Recorder(), tape=None):
    """Run the leading steps of ``config.schedule`` that ``budget`` pays
    for in full.

    Returns ``(point, trace)`` where ``point`` is the final iterate, or
    the running uniform average of the half-step points when
    ``config.averaged`` is set (the average is what the monotone-case
    gap guarantee covers). ``recorder`` sets the trace rows, evaluated
    on the same point that is returned; ``None`` records nothing.
    As in the other solvers, the run length is fixed before the first
    draw, so no step is started that the budget cannot finish, and
    ``trace.truncated`` is set when fewer than ``max_iterations`` steps
    run. The run charges ``budget`` its planned cost, ``2 * sum(N_k)``
    over those steps, once, before its first draw, so a run that raises
    mid-way has already charged its whole run; a row's ``calls`` is the
    cost of the steps completed so far. ``budget=None`` means no cap
    (:func:`~svilab.oracle.ledger`). ``seed`` keys the two sample
    streams, ``problem.oracle.stream(seed, 0)`` and ``(seed, 1)``.
    The run sizes itself once: the list of sizes the budget pays for
    (:func:`~svilab.schedule.sizes_within`) drives its loop and both
    feeds of :meth:`StochasticOracle.feeds`, which prepares both streams
    on this thread.

    ``tape``, a dict (:meth:`~svilab.oracle.StochasticOracle.feeds`),
    shares those prepared batches among runs of the same seed, noise and
    batch sizes, whose stepsizes may differ: an empty tape records this
    run's, and a recorded one is replayed, so the run draws nothing and
    every bit is what the run would draw.
    """
    budget = ledger(budget)
    oracle = problem.oracle
    feasible_set = problem.feasible_set
    lip = problem.mean_map.lipschitz
    if lip > 0:
        check_stepsize(config.stepsize, lip)
    z = feasible_set.project(np.asarray(z0, dtype=np.float64))
    average = z.copy()
    sizes = sizes_within(config.schedule, budget.remaining)
    budget.charge(2 * sum(sizes))
    calls = 0
    steps = len(sizes)
    trace = RunTrace(scheme, seed, steps < config.max_iterations)
    streams = (oracle.stream(seed, 0), oracle.stream(seed, 1))
    with oracle.feeds(streams, sizes, tape) as (feed, feed_half):
        for k, n_k in enumerate(sizes, 1):
            calls += 2 * n_k
            estimate = batch_mean(oracle, z, n_k, feed)
            z_half = feasible_set.project(z - config.stepsize * estimate)
            estimate_half = batch_mean(oracle, z_half, n_k, feed_half)
            z = feasible_set.project(z - config.stepsize * estimate_half)
            # uniform running mean of the half-step points
            average += (z_half - average) / k
            if recorder is not None and recorder.due(k, steps):
                trace.add(evaluate_point(
                    problem, average if config.averaged else z, recorder, k,
                    0, calls))
    return (average if config.averaged else z), trace
