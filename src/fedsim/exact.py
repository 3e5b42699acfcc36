"""Correctly-rounded vector aggregation.

Server-side averaging rounds exact sums correctly, so any two algebraically
equal aggregations produce the identical double. This is what lets the
memory-efficient running-average server reproduce the naive update-array
server bit for bit: both reduce to the correctly rounded value of the same
exact real sum.

``fsum_columns`` sums a whole array per column with ``math.fsum``. The
running-average server instead keeps an *exact* running sum,
``ExactVectorSum``: device-side differences are transmitted as two-term
error-free expansions (``two_diff``) and added into a fixed-point
superaccumulator, after Neal's "small superaccumulator" (arXiv:1505.05571).
Every finite double is an integer multiple of 2**-1074 below 2**1024, so a
stack of int64 limbs, limb k weighing 2**(32k - 1074), holds any sum of
doubles exactly. Adding is integer arithmetic on whole blocks of vectors,
and ``rounded()`` reads the correctly rounded doubles off in one pass.
"""

from __future__ import annotations

import math

import numpy as np

LIMB_BITS = 32
# limbs 0..65 hold the bits of every finite double (2**-1074 up to 2**1023);
# the two above them take the carries of sums that outgrow 2**1024
N_LIMBS = 68
# one add call scatters at most this many rows at once: a float64 bincount
# of fewer than 2**21 chunks below 2**32 stays an exact integer
_SCATTER_ROWS = 1 << 20
# normalised limbs lie in [0, 2**32); each added row moves a limb by less
# than 2**32, so int64 limbs take 2**30 rows before carries must propagate
_ROWS_BEFORE_CARRY = 1 << 30
_LOW = np.int64((1 << LIMB_BITS) - 1)


def fsum_columns(rows: np.ndarray) -> np.ndarray:
    """Correctly rounded column sums of a 2-D array."""
    if rows.ndim != 2:
        raise ValueError("expected a 2-D array of row vectors")
    return np.array([math.fsum(col) for col in rows.T], dtype=np.float64)


def exact_mean(rows: np.ndarray, denom: int) -> np.ndarray:
    """Correctly rounded column sums divided by ``denom``.

    All server aggregation paths go through this helper so that equal
    multisets of update vectors always map to the identical average.
    """
    return fsum_columns(rows) / denom


def two_diff(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Error-free transformation of a - b: returns (hi, lo) with
    hi + lo == a - b exactly and hi == fl(a - b)."""
    b = -b
    hi = a + b
    bv = hi - a
    lo = (a - (hi - bv)) + (b - bv)
    return hi, lo


def _carry(limbs: np.ndarray) -> None:
    """Propagate carries upward in place, without changing the value: every
    row but the last ends in [0, 2**32), the last keeps the sign."""
    for k in range(len(limbs) - 1):
        limbs[k + 1] += limbs[k] >> LIMB_BITS
        limbs[k] &= _LOW


class ExactVectorSum:
    """Exact running sum of float64 vectors of length ``dim``.

    The state is an (N_LIMBS, dim) int64 array; column j holds
    sum_k limbs[k, j] * 2**(32k - 1074), the exact sum of every coordinate j
    added so far. Only limbs ``lo..hi`` have ever been touched (plus carry
    headroom), and carries are propagated over that window alone.

    ``rounded()`` returns the correctly rounded double for each coordinate,
    i.e. ``float(sum(map(Fraction, column)))`` over all added vectors.
    """

    def __init__(self, dim: int):
        self.dim = dim
        self._limbs = np.zeros((N_LIMBS, dim), dtype=np.int64)
        self._lo = N_LIMBS  # the used window is empty while lo > hi
        self._hi = -1
        self._rows = 0  # rows added since carries were last propagated

    def add(self, values: np.ndarray) -> None:
        """Add one vector (dim,) or every row of a block (rows, dim)."""
        values = np.asarray(values, dtype=np.float64)
        if values.ndim not in (1, 2) or values.shape[-1] != self.dim:
            raise ValueError(f"expected shape ({self.dim},) or (rows, {self.dim}), got {values.shape}")
        if not np.all(np.isfinite(values)):
            raise ValueError("an exact sum takes finite values only")
        rows = values.reshape(-1, self.dim)
        for start in range(0, len(rows), _SCATTER_ROWS):
            block = rows[start : start + _SCATTER_ROWS]
            if self._rows + len(block) > _ROWS_BEFORE_CARRY:
                self._normalise()
            self._scatter(block)
            self._rows += len(block)

    def _scatter(self, block: np.ndarray) -> None:
        entries = np.flatnonzero(block)
        if not len(entries):
            return
        x = block.ravel()[entries]
        # x = m * 2**e with 1/2 <= |m| < 1: the top bit of x is e + 1073 bits
        # above 2**-1074, so x's (at most 53) bits lie in limbs base..base+2
        base = np.maximum((np.frexp(x)[1] + 1073 - 2 * LIMB_BITS) // LIMB_BITS, 0)
        lo, top = int(base.min()), int(base.max())
        # base's unit scales x to an integer below 2**96, split exactly into
        # three signed 32-bit chunks
        c0 = np.ldexp(x, 1074 - LIMB_BITS * base)
        c2 = np.trunc(c0 * 2.0**-64)
        c0 -= c2 * 2.0**64
        c1 = np.trunc(c0 * 2.0**-32)
        c0 -= c1 * 2.0**32
        width = top - lo + 3
        index = (base - lo) * self.dim + entries % self.dim
        sums = np.bincount(
            (index + np.array([[0], [self.dim], [2 * self.dim]])).ravel(),
            weights=np.stack((c0, c1, c2)).ravel(),
            minlength=width * self.dim,
        )
        self._limbs[lo : lo + width] += sums.reshape(width, self.dim).astype(np.int64)
        self._lo = min(self._lo, lo)
        self._hi = max(self._hi, min(top + 4, N_LIMBS - 1))

    def _normalise(self) -> np.ndarray:
        """Propagate carries over the used window; returns that window."""
        window = self._limbs[self._lo : self._hi + 1]
        _carry(window)
        self._rows = 0
        return window

    def rounded(self) -> np.ndarray:
        """The correctly rounded double of each coordinate's exact sum: +0.0
        for a zero sum, +-inf for one that rounds past the largest double."""
        if self._lo > self._hi:
            return np.zeros(self.dim)
        window = self._normalise()
        negative = window[-1] < 0
        if negative.any():
            window = np.where(negative, -window, window)
            _carry(window)
        # two zero limbs below the window stand for the untouched limbs
        # there, so every column's top three limbs exist
        mag = np.zeros((len(window) + 2, self.dim), dtype=np.uint64)
        mag[2:] = window
        nonzero = mag != 0
        top = len(mag) - 1 - np.argmax(nonzero[::-1], axis=0)
        at = top * self.dim + np.arange(self.dim)
        a, b, c = (mag.ravel()[at - k * self.dim] for k in range(3))
        # w = a*2**64 + b*2**32 + c has a's bit length plus 64 bits; keep its
        # top 63 bits and round to odd: set the last kept bit when any
        # dropped bit (of w, or of a lower limb) is set
        shift = np.frexp(a.astype(np.float64))[1].astype(np.uint64) + np.uint64(1)
        high = (a << np.uint64(32)) | b
        over = shift > 32
        kept = np.where(over, high >> np.uint64(1), (high << (np.uint64(32) - np.minimum(shift, 32))) | (c >> shift))
        dropped = (c & ((np.uint64(1) << np.minimum(shift, 32)) - np.uint64(1))) | np.where(over, b & np.uint64(1), 0)
        sticky = (dropped != 0) | (np.argmax(nonzero, axis=0) < top - 2)
        # 63 bits rounded to odd round correctly to 53; the scaling by a
        # power of two is then exact (or overflows to inf)
        exponent = shift.astype(np.int64) + LIMB_BITS * (self._lo + top - 4) - 1074
        with np.errstate(over="ignore"):
            value = np.ldexp((kept | sticky).astype(np.float64), exponent)
        return np.where(nonzero.any(axis=0), np.where(negative, -value, value), 0.0)

    def state_dict(self) -> dict:
        """The used limb window, carried (which leaves the value unchanged)."""
        if self._lo > self._hi:
            return {"dim": self.dim, "lo": 0, "limbs": []}
        return {"dim": self.dim, "lo": self._lo, "limbs": self._normalise().tolist()}

    @classmethod
    def from_state_dict(cls, state: dict) -> "ExactVectorSum":
        out = cls(int(state["dim"]))
        if "partials" in state:
            # version-1 checkpoints hold Shewchuk partials per coordinate;
            # their exact sum is the coordinate's, so adding them is lossless
            partials = state["partials"]
            block = np.zeros((max(map(len, partials), default=0), out.dim))
            for j, column in enumerate(partials):
                block[: len(column), j] = column
            out.add(block)
            return out
        limbs = np.asarray(state["limbs"], dtype=np.int64).reshape(-1, out.dim)
        if len(limbs):
            out._lo = int(state["lo"])
            out._hi = out._lo + len(limbs) - 1
            out._limbs[out._lo : out._hi + 1] = limbs
        return out
