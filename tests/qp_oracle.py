"""Brute-force projection oracles for cross-checking the closed forms.

Each projection is solved by enumerating the KKT support structure and
taking the closest feasible candidate, which is exact in exact
arithmetic and independent of the sort-based implementations under
test. Intended for small dimensions only (the simplex enumerator is
exponential in the dimension). :func:`contains` and
:func:`random_point` test membership in and sample the sets of
:mod:`svilab.sets`.
"""

from __future__ import annotations

import itertools

import numpy as np

from svilab.errors import ContractViolation
from svilab.sets import Ball, Box, Product, Simplex


def _checked(v, dim):
    """Return ``v`` as a finite 1-D float64 array of length ``dim``."""
    arr = np.asarray(v, dtype=np.float64)
    if arr.ndim != 1 or arr.size != dim:
        raise ContractViolation(f"expected a vector of length {dim}, got shape"
                                f" {arr.shape}")
    if not np.isfinite(arr).all():
        raise ContractViolation("vector contains non-finite entries")
    return arr


def contains(feasible_set, v, tol=1e-12):
    """Whether ``v`` lies in ``feasible_set`` up to ``tol``."""
    v = _checked(v, feasible_set.dimension)
    if isinstance(feasible_set, Box):
        return bool(np.all(v >= feasible_set.lo - tol)
                    and np.all(v <= feasible_set.hi + tol))
    if isinstance(feasible_set, Ball):
        return bool(np.linalg.norm(v - feasible_set.center)
                    <= feasible_set.radius + tol)
    if isinstance(feasible_set, Simplex):
        return bool(np.all(v >= -tol) and abs(float(v.sum()) - 1.0) <= tol)
    if isinstance(feasible_set, Product):
        blocks = feasible_set.blocks
        cuts = np.cumsum([b.dimension for b in blocks])[:-1]
        return all(contains(b, part, tol)
                   for b, part in zip(blocks, np.split(v, cuts)))
    raise TypeError(feasible_set)


def random_point(feasible_set, rng):
    """A random point of ``feasible_set`` drawn from ``rng``: uniform
    over a box or ball, Dirichlet(1) on a simplex, blockwise on a
    product."""
    if isinstance(feasible_set, Box):
        return rng.uniform(feasible_set.lo, feasible_set.hi)
    if isinstance(feasible_set, Ball):
        d = rng.standard_normal(feasible_set.dimension)
        norm = np.linalg.norm(d)
        if norm == 0.0:
            return feasible_set.center.copy()
        # radius scaled by u^(1/n) gives a uniform draw over the ball
        r = feasible_set.radius * rng.uniform() ** (1.0 / feasible_set.dimension)
        return feasible_set.center + (r / norm) * d
    if isinstance(feasible_set, Simplex):
        return rng.dirichlet(np.ones(feasible_set.dimension))
    if isinstance(feasible_set, Product):
        return np.concatenate([random_point(b, rng) for b in feasible_set.blocks])
    raise TypeError(feasible_set)


def project_simplex_bruteforce(v):
    """Exact simplex projection via support enumeration.

    For every nonempty support S the equality-constrained minimizer is
    x_i = v_i - tau with tau = (sum_{i in S} v_i - 1)/|S|; the true
    projection is the closest candidate that is feasible and leaves out
    only coordinates with v_i <= tau. The second condition matters in
    floating point: two feasible candidates can differ in squared
    distance by less than its rounding, and the comparison alone then
    picks the wrong support.
    """
    v = np.asarray(v, dtype=np.float64)
    d = v.size
    best, best_dist = None, np.inf
    for r in range(1, d + 1):
        for support in itertools.combinations(range(d), r):
            idx = list(support)
            tau = (v[idx].sum() - 1.0) / r
            x = np.zeros(d)
            x[idx] = v[idx] - tau
            if np.any(x[idx] < -1e-12):
                continue
            if r < d and np.delete(v, idx).max() - tau > 1e-12:
                continue
            dist = float(np.dot(x - v, x - v))
            if dist < best_dist:
                best, best_dist = np.maximum(x, 0.0), dist
    return best


def project_box_bruteforce(v, lo, hi):
    """Exact box projection via face enumeration.

    Each coordinate is pinned to its lower bound, its upper bound, or
    left free; infeasible assignments are discarded and the closest
    survivor returned.
    """
    v = np.asarray(v, dtype=np.float64)
    lo = np.asarray(lo, dtype=np.float64)
    hi = np.asarray(hi, dtype=np.float64)
    d = v.size
    best, best_dist = None, np.inf
    for assign in itertools.product((0, 1, 2), repeat=d):
        x = np.empty(d)
        ok = True
        for i, a in enumerate(assign):
            if a == 0:
                x[i] = lo[i]
            elif a == 1:
                if not lo[i] <= v[i] <= hi[i]:
                    ok = False
                    break
                x[i] = v[i]
            else:
                x[i] = hi[i]
        if not ok:
            continue
        dist = float(np.dot(x - v, x - v))
        if dist < best_dist:
            best, best_dist = x, dist
    return best


def project_ball_bruteforce(v, center, radius):
    """Exact ball projection from its two KKT cases."""
    v = np.asarray(v, dtype=np.float64)
    center = np.asarray(center, dtype=np.float64)
    d = v - center
    dist = float(np.linalg.norm(d))
    if dist <= radius:
        return v.copy()
    return center + (radius / dist) * d


def project_product_bruteforce(v, block_projectors, block_dims):
    """Blockwise projection: apply each block's brute-force projector."""
    v = np.asarray(v, dtype=np.float64)
    parts = []
    start = 0
    for proj, dim in zip(block_projectors, block_dims):
        parts.append(proj(v[start:start + dim]))
        start += dim
    return np.concatenate(parts)
