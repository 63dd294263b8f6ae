"""Variance-reduced extragradient baseline.

Two projections per iteration, each preceded by an independent
mini-batch of size N_k at the current point; the batch size grows like
(k + mu) log(k + mu)^{1+b} so the scheme converges without averaging
the noise away through a diminishing stepsize.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExhausted, ConfigError, ContractViolation
from .metrics import evaluate_point
from .oracle import batch_mean
from .trace import Recorder, RunTrace

__all__ = [
    "ExtragradientConfig",
    "eg_sample_size",
    "run_extragradient",
]


@dataclass(frozen=True)
class ExtragradientConfig:
    """Baseline parameters.

    ``stepsize`` must stay below 1/(sqrt(6) * L); the check runs at the
    start of a run, where the problem's Lipschitz constant is known.
    ``mu_shift`` offsets the batch schedule (it is unrelated to strong
    monotonicity) and must exceed 1 so the logarithm is positive.
    """

    stepsize: float
    theta: float = 1.0
    mu_shift: float = 2.001
    b: float = 1e-3
    max_iterations: int = 2**31
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


def eg_sample_size(k, theta, mu_shift, b):
    """Batch size ceil(theta * (k + mu) * ln(k + mu)^(1+b))."""
    if k < 0:
        raise ContractViolation("iteration index must be nonnegative")
    if not mu_shift > 1:
        raise ContractViolation(f"mu_shift must be > 1; got {mu_shift!r}")
    shifted = k + mu_shift
    return int(math.ceil(theta * shifted * math.log(shifted) ** (1.0 + b)))


def run_extragradient(problem, z0, config, budget, *, scheme="extragradient",
                      seed=0, recorder=Recorder()):
    """Run the baseline until ``max_iterations`` or budget exhaustion.

    Returns ``(point, trace)`` where ``point`` is the final iterate, or
    the running uniform average of the half-step points when
    ``config.averaged`` is set (the average is what the monotone-case
    gap guarantee covers). ``recorder`` sets the trace rows, evaluated
    on the same point that is returned; ``None`` records nothing.
    """
    oracle = problem.oracle.with_budget(budget)
    feasible_set = problem.feasible_set
    lip = problem.mean_map.lipschitz
    if lip > 0 and not config.stepsize < 1.0 / (math.sqrt(6.0) * lip):
        raise ConfigError(
            f"stepsize must be < 1/(sqrt(6)*L) = {1.0 / (math.sqrt(6.0) * lip):g};"
            f" got {config.stepsize:g}"
        )
    streams = (oracle.stream(0), oracle.stream(1))
    z = feasible_set.project(np.asarray(z0, dtype=np.float64))
    average = z.copy()
    trace = RunTrace(scheme, seed)
    calls_total = 0
    completed = 0
    for k in range(config.max_iterations):
        n_k = eg_sample_size(k, config.theta, config.mu_shift, config.b)
        try:
            estimate, c1 = batch_mean(oracle, z, n_k, streams[0])
            z_half = feasible_set.project(z - config.stepsize * estimate)
            estimate_half, c2 = batch_mean(oracle, z_half, n_k, streams[1])
        except BudgetExhausted:
            trace.truncated = True
            break
        z = feasible_set.project(z - config.stepsize * estimate_half)
        calls_total += c1 + c2
        # uniform running mean of the half-step points
        average += (z_half - average) / (k + 1)
        completed = k + 1
        if recorder is not None and recorder.due(completed):
            trace.add(evaluate_point(problem, average if config.averaged else z,
                                     recorder, completed, 0, calls_total))
    point = average if config.averaged else z
    if recorder is not None and trace.missing(completed):
        trace.add(evaluate_point(problem, point, recorder, completed, 0,
                                 calls_total))
    return point, trace
