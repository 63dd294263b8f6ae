"""The solvers' loops written out with bare sample streams and plain numpy.

Each loop forms every batch mean by hand from the values a bare
``oracle.stream(...)`` serves through ``SampleStream.take``, with the
arithmetic of the plain allocating form: scale the drawn values (for
payoff noise, sum the matrices first), take the products with the point,
divide by ``n``, then add ``F(x)`` written as plain products. Python
floats and ints are the scalar operands, and each loop repeats its
solver's arithmetic operation for operation. A solver that reads its
streams through feeds, writes into buffers and passes 0-d operands must
therefore return the same bits. Batch sizes come from the size rules,
not from the configs' schedules, and every loop runs its full iteration
count, so a caller passes no budget to the solver.

``projection_loop`` is the comparator of the condition-number claim: the
plain projection method on the mean map, with no sampling.
"""

from __future__ import annotations

import math

import numpy as np

from svilab.extragradient import eg_sample_size
from svilab.maps import BimatrixMap, ShiftedMap
from svilab.oracle import AdditiveGaussian, MatrixPerturbation
from svilab.ppawss import prox_subproblem, relaxation_step
from svilab.vs_ave import sample_size

# a batch of payoff matrices is summed in chunks of about this many
# entries (2 MB of doubles); its sum adds the chunks' sums in order, from
# the first chunk's sum
ENTRIES_PER_SUM = 262144


def mean_map(f, x):
    """``F(x)`` as plain products: ``A @ x + b``, ``(A^T y, -(A x))``, or
    a shifted base plus ``(x - center) / lam``."""
    if isinstance(f, ShiftedMap):
        return mean_map(f.base, x) + (x - f.center) / f.lam
    if isinstance(f, BimatrixMap):
        a, n = f.payoff, f.n
        return np.concatenate([a.T @ x[n:], -(a @ x[:n])])
    return f.matrix @ x + f.offset


def payoff_sum(stream, n, rows, cols):
    """The sum of the next ``n`` payoff perturbations of ``stream``: the
    axis-0 sum of each chunk's matrices drawn at once, added in order."""
    chunk = max(1, ENTRIES_PER_SUM // (rows * cols))
    e_sum = None
    for start in range(0, n, chunk):
        c = min(chunk, n - start)
        drawn = stream.take(c * rows * cols).reshape(c, rows, cols)
        part = drawn.sum(axis=0)
        e_sum = part if e_sum is None else e_sum + part
    return e_sum


def batch_mean(oracle, x, n, stream):
    """Mean of ``n`` samples at ``x`` from the bare ``stream``."""
    noise = oracle.noise_model
    if isinstance(noise, AdditiveGaussian):
        # one N(0, n sigma^2 I) draw is the sum of the batch's noise
        total = stream.take(x.size) * (noise.sigma * math.sqrt(n))
    elif isinstance(noise, MatrixPerturbation):
        cols = noise.cols
        e_sum = payoff_sum(stream, n, noise.rows, cols) * noise.scale
        total = np.concatenate([e_sum.T @ x[cols:], -(e_sum @ x[:cols])])
    else:
        total = np.zeros(x.size)
    if n > 1:
        total = total / n
    return total + mean_map(oracle.mean_map, x)


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
        presum = presum + (est / -mu + y) * gamma
        x = project(presum / Gamma)
        est = batch_mean(oracle, x, n, streams[1])
        y = project(est / -lip + x)
        gamma = weight * Gamma
        Gamma += gamma
        ysum = ysum + gamma * y
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


def projection_loop(problem, x0, mu, lipschitz):
    """The iterates ``x <- P(x - (mu / L^2) F(x))`` of the plain projection
    method on the mean map, from the projection of ``x0``, without end.
    Its squared distance to the solution contracts by ``1 - mu^2 / L^2``
    per step, so its iteration count to a fixed accuracy grows like
    ``kappa^2``."""
    project = problem.feasible_set.project
    step = mu / lipschitz**2
    x = project(np.asarray(x0, dtype=np.float64))
    while True:
        x = project(x - step * mean_map(problem.mean_map, x))
        yield x
