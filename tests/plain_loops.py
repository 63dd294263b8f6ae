"""The solvers' loops written out with bare sample streams.

Each loop draws every batch with ``batch_mean(oracle, x, n, stream)``
from a bare ``oracle.stream(...)``, with Python floats and ints as the
scalar operands, and repeats its solver's arithmetic operation for
operation. A solver that reads its streams through feeds and passes 0-d
operands must therefore return the same bits. Batch sizes come from the
size rules, not from the configs' schedules, and every loop runs its
full iteration count, so a caller passes no budget to the solver.
"""

from __future__ import annotations

import numpy as np

from svilab.extragradient import eg_sample_size
from svilab.oracle import batch_mean
from svilab.ppawss import prox_subproblem, relaxation_step
from svilab.vs_ave import sample_size


def vs_ave_loop(problem, y0, config, streams):
    """``run_vs_ave``'s averaged point, on the pair ``streams``."""
    oracle = problem.oracle
    project = problem.feasible_set.project
    mu, lip = config.mu, config.lipschitz
    weight = mu / (mu + lip)
    y = project(np.asarray(y0, dtype=np.float64))
    presum = np.zeros_like(y)
    ysum = y.copy()
    gamma = Gamma = 1.0
    for k in range(config.max_iterations):
        n = sample_size(k, config.rho, config.min_batch)
        est = batch_mean(oracle, y, n, streams[0])
        est /= -mu
        est += y
        est *= gamma
        presum += est
        x = project(presum / Gamma)
        est = batch_mean(oracle, x, n, streams[1])
        est /= -lip
        est += x
        y = project(est)
        gamma = weight * Gamma
        Gamma += gamma
        ysum += gamma * y
    return ysum / Gamma


def ppawss_loop(problem, u0, config, seed):
    """``run_ppawss``'s last iterate: every subproblem continues one
    stream pair."""
    oracle = problem.oracle
    streams = (oracle.stream(seed, 0), oracle.stream(seed, 1))
    u = problem.feasible_set.project(np.asarray(u0, dtype=np.float64))
    for k in range(config.outer_iterations):
        inner = config.subproblem(k, problem.mean_map.lipschitz)
        sub = prox_subproblem(problem, u, config.lam)
        u = relaxation_step(u, vs_ave_loop(sub, u, inner, streams),
                            config.eta)
    return u


def extragradient_loop(problem, z0, config, seed):
    """``run_extragradient``'s last iterate and average of half steps."""
    oracle = problem.oracle
    project = problem.feasible_set.project
    streams = (oracle.stream(seed, 0), oracle.stream(seed, 1))
    z = project(np.asarray(z0, dtype=np.float64))
    average = z.copy()
    for k in range(1, config.max_iterations + 1):
        n = eg_sample_size(k - 1, config.theta, config.mu_shift, config.b)
        estimate = batch_mean(oracle, z, n, streams[0])
        z_half = project(z - config.stepsize * estimate)
        estimate_half = batch_mean(oracle, z_half, n, streams[1])
        z = project(z - config.stepsize * estimate_half)
        average += (z_half - average) / k
    return z, average
