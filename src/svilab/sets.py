"""Feasible sets and Euclidean projections.

Every set exposes ``dimension`` and ``project``; ``project`` is the one
public projection entry, so ``Simplex(v.size).project(v)`` projects onto
the simplex. Projections are exact (closed-form or sort-based), and
``project`` validates its input: a non-finite entry or a length mismatch
raises :class:`~svilab.errors.ContractViolation`. ``project(v,
out=buf)`` writes the projection into ``buf``, a float64 vector of the
set's dimension, and returns it; without ``out`` it returns a fresh
array.

The input check is cheap for a solver's own buffers: a ``v`` that is
exactly an ``ndarray`` of dtype float64 and of the set's shape goes
straight to the projection, since ``np.asarray`` would return it as it
is. Any other input (a list, another dtype, a subclass, another shape)
is converted and checked as before, with the same errors.

A solver projects into the same ``out`` on every step of a run, so a
:class:`Simplex` or a :class:`Product` of simplices keeps the vector of
its blocks' thresholds in one tuple with the last ``out`` a caller
passed, and reuses it while the caller passes that ``out``; a call
without ``out`` allocates it as if nothing were kept. The tuple is
replaced whole and read once per call, and the thresholds are scratch
of the call that writes ``out``, so they are shared between threads
exactly when ``out`` is."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation

__all__ = ["Box", "Ball", "Simplex", "Product"]

# the simplex clip's bound as a 0-d array: numpy converts a Python float
# operand on every call
_ZERO = np.array(0.0)
_FLOAT64 = np.dtype(np.float64)

# numpy's clip ufunc, looked up once: np.clip is the same ufunc behind a
# Python wrapper that costs more than the clip of a short vector. numpy 2
# has it in numpy._core (numpy.core warns there), 1.24-1.26 in numpy.core
try:
    from numpy._core.umath import clip as _clip
except ImportError:
    from numpy.core.umath import clip as _clip


def _vector(v, dim=None):
    """Return ``v`` as a 1-D float64 array of length ``dim``."""
    arr = np.asarray(v, dtype=np.float64)
    if arr.ndim != 1:
        raise ContractViolation(f"expected a 1-D vector, got shape {arr.shape}")
    if dim is not None and arr.size != dim:
        raise ContractViolation(f"expected length {dim}, got {arr.size}")
    return arr


def _require_finite(v):
    # Callers that hold a sum over the entries call this only when that
    # sum is not finite: any nan or inf entry makes the simplex pass's
    # running sum, or a box's or ball's squared norm, nan or inf, so a
    # finite sum already proves v finite. Finite entries that overflow
    # the sum reach the exact test here and pass. The squared norm is
    # np.vdot(v, v): ndarray.dot is a little faster, but numpy 2 warns
    # from it on overflow (finite entries above about 1.3e154) and on
    # inf - inf, and vdot does neither.
    if not np.isfinite(v).all():
        raise ContractViolation("vector contains non-finite entries")


def _projection(self, v, *, out=None):
    # every set's public project: validate, then one pass into out, or
    # into a fresh array. A set's _project(v, out, kept) writes the
    # projection of v into out and checks finiteness itself; kept says
    # whether out is the caller's, so that scratch may be kept with it.
    # An exact float64 ndarray of the set's shape is what _vector would
    # return unchanged.
    if (type(v) is not np.ndarray or v.dtype is not _FLOAT64
            or v.shape != self._shape):
        v = _vector(v, self.dimension)
    kept = out is not None
    if not kept:
        out = np.empty(v.size)
    self._project(v, out, kept)
    return out


def _taus(owner, v, out, kept):
    # the thresholds vector of a simplex pass: the one kept with the
    # caller's out, replaced whole when out changes, or a fresh one
    if not kept:
        return np.empty(v.size)
    memo = owner._taus
    if out is not memo[0]:
        memo = out, np.empty(v.size)
        object.__setattr__(owner, "_taus", memo)
    return memo[1]


def _threshold(u):
    # running sum and threshold of the sort-based projection over the
    # descending values u (see Simplex); the float counter k is
    # exact, so x * k and t / k round as they would with an integer k
    s = 0.0
    tau = 0.0
    k = 0.0
    for x in u:
        s += x
        k += 1.0
        t = s - 1.0
        if x * k > t:
            tau = t / k
    return s, tau


def _project_simplices(v, out, slices, taus):
    # Project v block by block onto the simplices whose coordinates are
    # the slices, in one pass: one tolist, each block's sort and
    # threshold pass on its list slice, each block's tau written into
    # taus, a vector of v's size, then one subtract and one clip over the
    # whole vector. Per element that is the subtraction and clip of a
    # block on its own, so the bits are the same. The threshold search
    # runs over Python floats: for the short blocks used throughout
    # (<= 20 coordinates) one interpreted pass costs less than the dozen
    # numpy dispatches of a sort/cumsum/nonzero form. It does the same
    # IEEE operations in the same order as that form (running sum, then
    # the test and the threshold at the last passing index), so results
    # are bit-identical.
    vals = v.tolist()
    shifted = []
    for sl in slices:
        u = vals[sl]  # a fresh list: sorted() would copy it once more
        u.sort(reverse=True)
        s, tau = _threshold(u)
        if not math.isfinite(s):
            _require_finite(v[sl])
        top = u[0]
        if abs(top) >= 2.0**53:
            # x - 1.0 rounds for every float x from 2**53 on, so
            # s - 1.0 is no longer exact: tau can be off by whole units,
            # or the k = 1 test can fail and leave tau at 0. The
            # projection commutes with a common shift, and w - top is
            # exact for every entry within 1 of top, so redo the pass on
            # w = block - top, kept apart from out (which may be v), and
            # write the block after the whole-vector pass. Entries far
            # below may overflow to -inf there; they project to 0 either
            # way.
            with np.errstate(over="ignore"):
                w = v[sl] - top
            u = w.tolist()
            u.sort(reverse=True)
            shifted.append((sl, w, _threshold(u)[1]))
            tau = 0.0
        taus[sl] = tau
    np.subtract(v, taus, out=out)
    np.maximum(out, _ZERO, out=out)
    for sl, w, tau in shifted:
        block = out[sl]
        np.subtract(w, tau, out=block)
        np.maximum(block, _ZERO, out=block)


@dataclass(frozen=True, eq=False)
class Box:
    """Axis-aligned box ``{x : lo <= x <= hi}``.

    ``project`` is one call of numpy's ``clip`` ufunc, after the entry
    check of a squared norm (see :func:`_require_finite`), so non-finite
    input raises before anything is written. For finite input the clip
    gives the bits of ``np.minimum(np.maximum(v, lo), hi)`` in one pass
    over the vector instead of two. The one exception seen (numpy 2.4)
    is the sign of a zero: a one-entry box projected in place
    (``out=v``) settles a tie of ``-0.0`` with a ``+0.0`` bound as
    ``-0.0``, where that pair gives ``+0.0``. No solver projects in
    place.
    """

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.lo, dtype=np.float64)
        hi = np.asarray(self.hi, dtype=np.float64)
        if lo.ndim != 1 or lo.shape != hi.shape:
            raise ValueError("lo and hi must be 1-D arrays of equal length")
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            raise ValueError("box bounds must be finite")
        if not np.all(lo < hi):
            raise ValueError("box requires lo < hi componentwise")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "_shape", lo.shape)

    @property
    def dimension(self):
        return self.lo.size

    project = _projection

    def _project(self, v, out, kept):
        if not math.isfinite(np.vdot(v, v)):
            _require_finite(v)
        _clip(v, self.lo, self.hi, out)


@dataclass(frozen=True, eq=False)
class Ball:
    """Euclidean ball with the given center and radius."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        c = np.asarray(self.center, dtype=np.float64)
        if c.ndim != 1 or not np.all(np.isfinite(c)):
            raise ValueError("center must be a finite 1-D array")
        if not (np.isfinite(self.radius) and self.radius > 0):
            raise ValueError("radius must be positive")
        object.__setattr__(self, "center", c)
        object.__setattr__(self, "radius", float(self.radius))
        object.__setattr__(self, "_shape", c.shape)

    @property
    def dimension(self):
        return self.center.size

    project = _projection

    def _project(self, v, out, kept):
        if not math.isfinite(np.vdot(v, v)):
            _require_finite(v)
        d = v - self.center
        dist = float(np.linalg.norm(d))
        if dist <= self.radius:
            out[...] = v
        else:
            out[...] = self.center + (self.radius / dist) * d


@dataclass(frozen=True)
class Simplex:
    """Probability simplex ``{x >= 0 : sum(x) = 1}`` in ``dim`` coordinates.

    ``project`` is the sort-based algorithm of Duchi et al. (ICML 2008),
    O(n log n): sort descending, find the largest prefix whose running
    threshold keeps its last entry positive, then shift and clip.

    The cost is one C-level sort of the entries as Python floats, one
    interpreted pass over them, and one shift and clip of the output.
    That is fast for the blocks of at most 20 coordinates that every
    shipped config, test and example uses (4.4 us at 20 on one vCPU of a
    shared Xeon VM, numpy 2.4.6). A :class:`Product` of simplices does
    it for all its blocks in one pass (see there), and a lone simplex is
    that pass with one block. The interpreted pass grows with the
    dimension: it is slower than a fully vectorised sort/cumsum form
    from between 50 and 100 coordinates and about 7x slower at 1000.
    Entries of magnitude 2**53 or more, where ``s - 1.0`` rounds, cost a
    second pass over the vector shifted by its maximum; the projection
    does not change under a common shift.
    """

    dim: int

    def __post_init__(self):
        if int(self.dim) < 1:
            raise ValueError("simplex dimension must be at least 1")
        object.__setattr__(self, "dim", int(self.dim))
        object.__setattr__(self, "_shape", (self.dim,))
        object.__setattr__(self, "_slices", (slice(0, self.dim),))
        # the caller's last out and the thresholds vector kept with it
        object.__setattr__(self, "_taus", (None, None))

    @property
    def dimension(self):
        return self.dim

    project = _projection

    def _project(self, v, out, kept):
        _project_simplices(v, out, self._slices, _taus(self, v, out, kept))


@dataclass(frozen=True, eq=False)
class Product:
    """Cartesian product of sets; projection acts blockwise.

    When every block is a :class:`Simplex`, as in a bimatrix game's
    strategy pair, ``project`` makes one pass over the whole vector: one
    ``tolist``, each block's sort and threshold pass on its slice of
    that list, then one subtraction of the blocks' thresholds and one
    clip over the whole output, with the bits of each block projected on
    its own: 5.8 us for a 20 + 10 pair against 6.9 us block by block
    (medians of 21 interleaved timings, same machine as the Simplex
    figure). A product with any other block hands each block its slice
    of the input and of the output.
    """

    blocks: tuple

    def __init__(self, *blocks):
        # accept Product(a, b) and Product([a, b])
        if len(blocks) == 1 and isinstance(blocks[0], (list, tuple)):
            blocks = tuple(blocks[0])
        if not blocks:
            raise ValueError("product needs at least one block")
        object.__setattr__(self, "blocks", tuple(blocks))
        # Python-int slices: numpy-int bounds would be converted on every
        # call of the projection
        slices = []
        start = 0
        for b in self.blocks:
            stop = start + int(b.dimension)
            slices.append(slice(start, stop))
            start = stop
        object.__setattr__(self, "_slices", tuple(slices))
        object.__setattr__(self, "_shape", (start,))
        object.__setattr__(self, "_simplices", all(
            type(b) is Simplex for b in self.blocks))
        # each block's _project, bound once: a block writes its slice of
        # the output from its slice of the input
        object.__setattr__(self, "_parts", tuple(
            (sl, b._project) for sl, b in zip(slices, self.blocks)))
        # the caller's last out and the thresholds vector kept with it
        object.__setattr__(self, "_taus", (None, None))

    @property
    def dimension(self):
        return self._slices[-1].stop

    project = _projection

    def _project(self, v, out, kept):
        if self._simplices:
            _project_simplices(v, out, self._slices,
                               _taus(self, v, out, kept))
            return
        # a block's slice of out is a new view on every call: nothing to
        # keep scratch with
        for sl, block in self._parts:
            block(v[sl], out[sl], False)
