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

A solver passes the same point and output buffers on every step of a
run, so some maps keep what they build from them between calls that
pass ``out``. A ``BimatrixMap`` keeps the two halves of the last input
and of the last ``out`` it split, each as one tuple ``(array, head,
tail)``; a call whose array is that tuple's first entry reuses its
views, which follow the array's contents. A ``ShiftedMap`` keeps its
scratch vector in a tuple with the caller's last ``out``. A call with
``out=None`` allocates as if nothing were kept and leaves what is kept
alone. Each kept tuple is replaced whole and read once per call, so
threads that share a map may miss it but never use views or scratch of
another thread's arrays; scratch kept with ``out`` is shared exactly
when ``out`` is.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation

__all__ = ["AffineMap", "BimatrixMap", "ShiftedMap"]

# slack allowed between declared and spectral (mu, L) metadata
_META_TOL = 1e-9
_FLOAT64 = np.dtype(np.float64)
# what a map keeps before its first call: no array is its first entry
_NOTHING = (object(), None, None)


def _halves(z, n):
    # (z, z[:n], z[n:]) as kept between calls; a list or an array of
    # another dtype is converted first, as ndarray.dot would convert it
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

    def __call__(self, x, *, out=None):
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
    ``A.T.dot(y)`` without a transposed view. A call with ``out`` keeps
    the halves of its input and of ``out`` (see the module docstring).
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
        # the halves of the last input and of the last output split
        object.__setattr__(self, "_z", _NOTHING)
        object.__setattr__(self, "_out", _NOTHING)

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

    def __call__(self, z, *, out=None):
        n = self._n
        if out is None:
            # a fresh result keeps nothing
            zs = _halves(z, n)
            out = np.empty(self._dim)
            outs = out, out[:n], out[n:]
        else:
            # each kept tuple is read once and replaced whole, so a
            # thread never mixes its arrays' views with another's
            zs = self._z
            if z is not zs[0]:
                zs = _halves(z, n)
                object.__setattr__(self, "_z", zs)
            outs = self._out
            if out is not outs[0]:
                outs = out, out[:n], out[n:]
                object.__setattr__(self, "_out", outs)
        # ndarray.dot is np.dot without its dispatch wrapper
        zs[2].dot(self.payoff, outs[1])
        self._neg.dot(zs[1], outs[2])
        return out


@dataclass(frozen=True, eq=False)
class ShiftedMap:
    """Tikhonov shift ``F(x) + (1/lam) (x - center)`` of a base map.

    The shift raises the monotonicity modulus by ``1/lam`` and the
    Lipschitz constant by the same amount. Used to form proximal
    subproblems. The base is called as ``base(x, out=out)``, so it must
    take ``out`` (see the module docstring). The scratch vector of
    ``x - center`` is kept with the last ``out`` a caller passed.
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
        # the caller's last out and the scratch vector kept with it
        object.__setattr__(self, "_scratch", _NOTHING)

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

    def __call__(self, x, *, out=None):
        if out is None:
            tmp = None
        else:
            kept = self._scratch
            if out is not kept[0]:
                kept = out, np.empty(self.center.size)
                object.__setattr__(self, "_scratch", kept)
            tmp = kept[1]
        # through __call__ itself, as batch_mean calls a map
        out = self.base.__call__(x, out=out)
        tmp = np.subtract(x, self.center, tmp)
        tmp /= self._lam
        out += tmp
        return out
