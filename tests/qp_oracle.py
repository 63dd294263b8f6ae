"""Brute-force projection oracles for cross-checking the closed forms.

Each projection is solved by enumerating the KKT support structure and
taking the closest feasible candidate, which is exact in exact
arithmetic and independent of the sort-based implementations under
test. Intended for small dimensions only (the simplex enumerator is
exponential in the dimension).
"""

from __future__ import annotations

import itertools

import numpy as np


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
