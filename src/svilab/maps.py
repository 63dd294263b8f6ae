"""Monotone operators used as the mean maps of stochastic oracles.

Each map carries its monotonicity modulus ``mu`` (0 for merely monotone
maps) and Lipschitz constant ``lipschitz`` as verified metadata: affine
maps check the declared values against the matrix spectrum at
construction time, the bimatrix map derives them from the payoff matrix.

Every map here is affine, ``F(x) = matrix @ x + offset``, and exposes
``matrix`` and ``offset``: the exact finish of
:func:`~svilab.detsolve.solve_deterministic_vi` reads them. A
``ShiftedMap`` has them only when its base has them.

A map is called as ``F(x)``, which returns a fresh array, or as
``F(x, out=buf)``, which writes ``F(x)`` into ``buf``, a float64 vector
of the map's dimension that does not overlap ``x``, and returns it. Both
give the same bits. The maps here all take ``out``, and so must any
other map that is the base of a ``ShiftedMap`` or the mean map of a
:class:`~svilab.oracle.StochasticOracle`: those pass it ``out=``,
``None`` included.

A map keeps nothing between calls, so one map serves any number of runs
and threads. A run that passes the same point and output buffers on
every step may keep what a map builds from them on the run's own
:class:`~svilab.oracle.Feed`: :func:`~svilab.oracle.batch_mean` calls
the mean map as ``F(x, out=buf, feed=feed)``, so the mean map of a
``StochasticOracle`` must take ``feed`` too, and a ``ShiftedMap`` passes
the ``feed`` it is given on to its base. A ``BimatrixMap`` called with
both ``out`` and ``feed`` keeps the halves of ``x`` and of ``out`` in
``feed.views`` and reuses them while the run passes those two arrays;
the other maps here ignore ``feed``, and a ``ShiftedMap`` allocates its
one temporary, ``x - center``, on each call. A feed belongs to one run
of one oracle, so no other caller sees what is kept on it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation

__all__ = ["AffineMap", "BimatrixMap", "ShiftedMap"]

# slack allowed between declared and spectral (mu, L) metadata
_META_TOL = 1e-9
_FLOAT64 = np.dtype(np.float64)


def _halves(z, n):
    # (z, z[:n], z[n:]), the views a run may keep on its feed; a list or
    # an array of another dtype is converted first, as ndarray.dot would
    # convert it
    if type(z) is not np.ndarray or z.dtype is not _FLOAT64:
        z = np.asarray(z, dtype=np.float64)
    return z, z[:n], z[n:]


@dataclass(frozen=True, eq=False)
class AffineMap:
    """Map ``F(x) = A x + b`` with spectral monotonicity metadata.

    ``mu`` is the smallest eigenvalue of the symmetric part of ``A`` and
    must be nonnegative, ``lipschitz`` is the spectral norm of ``A``.
    Declared values are verified against the matrix within ``1e-9``;
    omitted values are computed.

    Parameters
    ----------
    matrix : numpy.ndarray
        Square matrix ``A``.
    offset : numpy.ndarray
        Vector ``b``.
    mu, lipschitz : float, optional
        Declared metadata. Leave ``None`` to compute from ``matrix``.
    """

    matrix: np.ndarray
    offset: np.ndarray
    mu: float = None
    lipschitz: float = None

    def __post_init__(self):
        A = np.asarray(self.matrix, dtype=np.float64)
        b = np.asarray(self.offset, dtype=np.float64)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError("matrix must be square")
        if b.shape != (A.shape[0],):
            raise ValueError("offset length must match matrix size")
        if not (np.all(np.isfinite(A)) and np.all(np.isfinite(b))):
            raise ValueError("matrix and offset must be finite")
        sym_eigs = np.linalg.eigvalsh(0.5 * (A + A.T))
        mu_true = float(sym_eigs[0])
        lip_true = float(np.linalg.norm(A, 2))
        if mu_true < -_META_TOL:
            raise ValueError(
                f"matrix is not monotone: min symmetric eigenvalue {mu_true:.3e}"
            )
        mu_true = max(mu_true, 0.0)
        if self.mu is not None and abs(float(self.mu) - mu_true) > _META_TOL:
            raise ValueError(
                f"declared mu {float(self.mu):.12g} does not match the "
                f"symmetric spectrum ({mu_true:.12g})"
            )
        if self.lipschitz is not None and abs(float(self.lipschitz) - lip_true) > _META_TOL:
            raise ValueError(
                f"declared lipschitz {float(self.lipschitz):.12g} does not match "
                f"the spectral norm ({lip_true:.12g})"
            )
        object.__setattr__(self, "matrix", A)
        object.__setattr__(self, "offset", b)
        object.__setattr__(self, "mu", mu_true if self.mu is None else float(self.mu))
        object.__setattr__(
            self, "lipschitz", lip_true if self.lipschitz is None else float(self.lipschitz)
        )

    @property
    def dimension(self):
        return self.offset.size

    def __call__(self, x, *, out=None, feed=None):
        # ndarray.dot is the same product as matmul, with less dispatch
        out = self.matrix.dot(x, out)
        out += self.offset
        return out


@dataclass(frozen=True, eq=False)
class BimatrixMap:
    """Saddle map of the expected-payoff game ``min_x max_y <A x, y>``.

    For ``z = (x, y)`` returns ``(A^T y, -A x)``. Skew by construction,
    so ``mu = 0`` and ``lipschitz`` equals the spectral norm of ``A``.
    ``A^T y`` is formed as ``y.dot(A)``, which gives the bits of
    ``A.T.dot(y)`` without a transposed view. A call with ``out`` and a
    run's ``feed`` reuses the halves of its input and of ``out`` that the
    feed keeps (see the module docstring).
    """

    payoff: np.ndarray

    def __post_init__(self):
        A = np.asarray(self.payoff, dtype=np.float64)
        if A.ndim != 2:
            raise ValueError("payoff must be a matrix")
        if not np.all(np.isfinite(A)):
            raise ValueError("payoff must be finite")
        object.__setattr__(self, "payoff", A)
        object.__setattr__(self, "_lip", float(np.linalg.norm(A, 2)))
        # -A x equals -(A x) bit for bit (negation is exact), so the
        # negated matrix saves negating every result
        object.__setattr__(self, "_neg", -A)
        # the column count and the dimension as Python ints, read on
        # every call
        object.__setattr__(self, "_n", A.shape[1])
        object.__setattr__(self, "_dim", A.shape[0] + A.shape[1])

    @property
    def n(self):
        return self.payoff.shape[1]

    @property
    def m(self):
        return self.payoff.shape[0]

    @property
    def dimension(self):
        return self._dim

    @property
    def mu(self):
        return 0.0

    @property
    def lipschitz(self):
        return self._lip

    @property
    def matrix(self):
        """Matrix ``[[0, A^T], [-A, 0]]`` of the map, built on each access."""
        n = self.n
        out = np.zeros((self.dimension, self.dimension))
        out[:n, n:] = self.payoff.T
        out[n:, :n] = self._neg
        return out

    @property
    def offset(self):
        return np.zeros(self.dimension)

    def __call__(self, z, *, out=None, feed=None):
        n = self._n
        if out is None or feed is None:
            _, head, tail = _halves(z, n)
            if out is None:
                out = np.empty(self._dim)
            out_head, out_tail = out[:n], out[n:]
        else:
            # the feed's views, split again when the run passes other
            # arrays
            kept = feed.views
            if z is not kept[0] or out is not kept[3]:
                kept = feed.views = (*_halves(z, n), out, out[:n], out[n:])
            _, head, tail, out, out_head, out_tail = kept
        # ndarray.dot is np.dot without its dispatch wrapper
        tail.dot(self.payoff, out_head)
        self._neg.dot(head, out_tail)
        return out


@dataclass(frozen=True, eq=False)
class ShiftedMap:
    """Tikhonov shift ``F(x) + (1/lam) (x - center)`` of a base map.

    The shift raises the monotonicity modulus by ``1/lam`` and the
    Lipschitz constant by the same amount. Used to form proximal
    subproblems. The base is called as ``base(x, out=out)``, so it must
    take ``out``, and with the ``feed`` of a call that passes one (see
    the module docstring).
    """

    base: object
    lam: float
    center: np.ndarray

    def __post_init__(self):
        if not (np.isfinite(self.lam) and self.lam > 0):
            raise ValueError("lam must be positive")
        c = np.asarray(self.center, dtype=np.float64)
        if c.shape != (self.base.dimension,):
            raise ContractViolation(
                f"center length {c.size} does not match map dimension "
                f"{self.base.dimension}"
            )
        if not np.all(np.isfinite(c)):
            raise ContractViolation("center must be finite")
        object.__setattr__(self, "lam", float(self.lam))
        object.__setattr__(self, "center", c)
        # a 0-d divisor: numpy converts a Python float operand on each call
        object.__setattr__(self, "_lam", np.array(self.lam))

    @property
    def dimension(self):
        return self.base.dimension

    @property
    def mu(self):
        return self.base.mu + 1.0 / self.lam

    @property
    def lipschitz(self):
        return self.base.lipschitz + 1.0 / self.lam

    @property
    def matrix(self):
        """The base's matrix plus ``I / lam``; AttributeError without one."""
        return self.base.matrix + np.eye(self.dimension) / self.lam

    @property
    def offset(self):
        return self.base.offset - self.center / self.lam

    def __call__(self, x, *, out=None, feed=None):
        # through __call__ itself, as batch_mean calls a map; a base that
        # takes no feed still serves the calls that pass none
        if feed is None:
            out = self.base.__call__(x, out=out)
        else:
            out = self.base.__call__(x, out=out, feed=feed)
        tmp = x - self.center
        tmp /= self._lam
        out += tmp
        return out
