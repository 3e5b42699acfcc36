"""Correctly-rounded vector aggregation.

Server-side averaging rounds exact sums correctly, so any two algebraically
equal aggregations produce the identical double. This is what lets the
memory-efficient running-average server reproduce the naive update-array
server bit for bit: both reduce to the correctly rounded value of the same
exact real sum.

Every server sums through one accumulator, ``ExactVectorSum``, a fixed-point
superaccumulator after Neal's "small superaccumulator" (arXiv:1505.05571).
Every finite double is an integer multiple of 2**-1074 below 2**1024, so a
stack of int64 limbs, limb k weighing 2**(32k - 1074), holds any sum of
doubles exactly, also one that outgrows the largest double. Adding works on
whole blocks of vectors: each nonzero entry, over the unit of the limb that
holds its top bit, splits exactly into three 32-bit chunks by truncation,
and one bincount per chunk sums them into their limbs. ``rounded()``
propagates carries once and reads the correctly rounded doubles off in one
pass (+-inf for a sum past the largest double); a negative sum's magnitude
is read straight off its two's complement, with no negation and no second
carry pass. A sum may be wider than one vector: ``add`` takes a column
offset per row, so runs that each own a column window share one sum, one
``add`` and one ``rounded()`` per round, and ``clear`` zeroes chosen columns
alone. ``exact_mean`` sums one block afresh. A memory server's window runs
on: each round adds the new rows and the negated rows they replace; where
devices send only the difference, it arrives as a two-term error-free
expansion (``two_diff``).
"""

from __future__ import annotations

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
_U32 = np.uint64(32)
# the index of each row of a window of limbs, as a column of small integers
_ROW_INDEX = np.arange(N_LIMBS + 2, dtype=np.int8)[:, None]


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
    for row, above in zip(limbs[:-1], limbs[1:]):
        above += row >> LIMB_BITS
    limbs[:-1] &= _LOW


class ExactVectorSum:
    """Exact running sum of float64 vectors of length ``dim``.

    The state is an int64 array of N_LIMBS rows of ``dim`` limbs, below two
    rows that stay zero; column j holds sum_k limb[k, j] * 2**(32k - 1074),
    the exact sum of every coordinate j added so far. Only limbs ``lo..hi``
    have ever been touched (plus carry headroom), and carries are propagated
    over that window alone.

    ``add`` splits each nonzero entry, over the unit of the limb t that
    holds its top bit, into three signed 32-bit chunks for limbs t, t - 1
    and t - 2 with ``np.trunc`` and exact subtractions, and sums each chunk
    into its limbs with one bincount. ``rounded()`` returns the correctly
    rounded double for each coordinate, i.e.
    ``float(sum(map(Fraction, column)))`` over all added vectors. After one
    carry pass, a negative column's magnitude is its two's complement, read
    in one pass (zero below its lowest nonzero limb j, 2**32 - limb at j,
    the complement above), and its top limb is found in that magnitude.
    """

    def __init__(self, dim: int):
        self.dim = dim
        # limb k is row k + 2: the zero rows below limb 0 let every column
        # read three limbs at and below its top one
        self._limbs = np.zeros((N_LIMBS + 2, dim), dtype=np.int64)
        self._lo = N_LIMBS  # the used window is empty while lo > hi
        self._hi = -1
        self._rows = 0  # rows added since carries were last propagated
        self._columns = np.arange(dim)
        # the offsets of each column's limbs k, k - 1, k - 2 in a flattened window, less k dim
        self._below = self._columns - dim * np.arange(3)[:, None]

    def add(self, values: np.ndarray, offsets=None) -> None:
        """Add one vector (dim,) or every row of a block (rows, dim). With
        ``offsets``, the (rows,) column offsets of a block (rows, width), row
        r adds into columns offsets[r] .. offsets[r] + width - 1, so that
        several runs each own a column window of one sum."""
        values = np.asarray(values, dtype=np.float64)
        if offsets is None:
            if values.ndim not in (1, 2) or values.shape[-1] != self.dim:
                raise ValueError(f"expected shape ({self.dim},) or (rows, {self.dim}), got {values.shape}")
            values = values.reshape(-1, self.dim)
            offsets = np.zeros(len(values), dtype=np.intp)
        else:
            offsets = np.asarray(offsets, dtype=np.intp)
            if values.ndim != 2 or offsets.shape != values.shape[:1]:
                raise ValueError(f"expected a block (rows, width) and (rows,) offsets, got {values.shape} and {offsets.shape}")
            if len(offsets) and (offsets.min() < 0 or offsets.max() + values.shape[1] > self.dim):
                raise ValueError(f"a column window passes the sum's {self.dim} columns")
        if not np.all(np.isfinite(values)):
            raise ValueError("an exact sum takes finite values only")
        # row r's entries land in columns offsets[r] + 0 .. width - 1
        columns = offsets[:, None] + self._columns[: values.shape[1]]
        for start in range(0, len(values), _SCATTER_ROWS):
            block = values[start : start + _SCATTER_ROWS]
            if self._rows + len(block) > _ROWS_BEFORE_CARRY:
                self._normalise()
            self._scatter(block, columns[start : start + _SCATTER_ROWS])
            self._rows += len(block)

    def _scatter(self, block: np.ndarray, columns: np.ndarray) -> None:
        nonzero = block != 0
        x = block[nonzero]
        if not len(x):
            return
        # x = m * 2**e with 1/2 <= |m| < 1: the top bit of x is e + 1073 bits
        # above 2**-1074, in limb t = (e + 1073) >> 5, and x's (at most 53)
        # bits lie in limbs t - 2 .. t, of which limbs -2 and -1 (the zero
        # rows below limb 0) take only zero chunks
        mantissa, shift = np.frexp(x)
        shift += 1073
        limb = shift >> 5
        lo, top = int(limb.min()), int(limb.max())
        # over limb t's unit, x is y = m * 2**((e + 1073) % 32 + 1): below
        # 2**32, and a multiple of 2**-64
        shift &= LIMB_BITS - 1
        shift += 1
        y = np.ldexp(mantissa, shift)
        del mantissa, shift
        index = np.subtract(limb, lo, dtype=np.intp)
        del limb
        index *= self.dim
        index += columns[nonzero]
        # each array here is as long as the block's nonzero entries, every
        # run's rows of a batch together, so each is dropped once used
        del x, nonzero
        # split y exactly into three signed 32-bit chunks, the top one
        # first: a truncation and the subtraction of it are exact
        top_chunk = np.trunc(y)
        y -= top_chunk
        y *= 2.0**32
        mid_chunk = np.trunc(y)
        y -= mid_chunk
        y *= 2.0**32
        # one bincount per chunk, each shifted onto its limbs; a limb takes
        # at most one chunk of each row, so every sum is an exact integer
        size = (top - lo + 1) * self.dim
        sums = np.bincount(index, weights=y, minlength=size + 2 * self.dim)
        sums[self.dim :] += np.bincount(index, weights=mid_chunk, minlength=size + self.dim)
        sums[2 * self.dim :] += np.bincount(index, weights=top_chunk, minlength=size)
        self._limbs[lo : top + 3] += sums.reshape(-1, self.dim).astype(np.int64)
        self._lo = min(self._lo, max(lo - 2, 0))
        self._hi = max(self._hi, min(top + 2, N_LIMBS - 1))

    def clear(self, columns) -> None:
        """Reset the sums of ``columns`` (an index of columns) to zero, in the
        used window of limbs alone; the other columns keep theirs."""
        self._limbs[self._lo + 2 : self._hi + 3, columns] = 0

    def _normalise(self) -> np.ndarray:
        """Propagate carries over the used window; returns the window with
        the two limbs below it, which are zero."""
        window = self._limbs[self._lo : self._hi + 3]
        _carry(window[2:])
        self._rows = 0
        return window

    def rounded(self) -> np.ndarray:
        """The correctly rounded double of each coordinate's exact sum: +0.0
        for a zero sum, +-inf for one that rounds past the largest double."""
        if self._lo > self._hi:
            return np.zeros(self.dim)
        window = self._normalise()
        rows = _ROW_INDEX[: len(window)]
        # each column's lowest nonzero limb j, the same in its magnitude (the
        # top row for a zero column)
        low = (len(window) - 1) - ((window != 0) * rows[::-1]).max(axis=0)
        # a negative column's magnitude, read off its two's complement in one
        # pass: zero below j, 2**32 - limb at j, the complement above, and the
        # top row's ~limb = -limb - 1 unmasked (flip is -1 in negative columns)
        flip = window[-1] >> 63
        mag = window ^ flip
        mag += rows <= np.where(flip, low, -1)
        mag[:-1] &= _LOW
        # each column's top nonzero limb a, found after the flip (a zero
        # column reads the zero rows 0 to 2), and the two below it, b and c
        top = ((mag != 0) * rows).max(axis=0, initial=2).astype(np.intp)
        a, b, c = mag.view(np.uint64).ravel()[top * self.dim + self._below]
        # w = a*2**64 + b*2**32 + c has a's bit length plus 64 bits; u is its
        # top 64 bits, rounded to odd: the last bit is set when any dropped
        # bit (of w, or of a lower limb) is set
        bits = np.frexp(a.astype(np.float64))[1]
        shift = bits.astype(np.uint64)
        c_top = c >> shift
        u = (((a << _U32) | b) << (_U32 - shift)) | c_top
        u |= (c_top << shift != c) | (low < top - 2)
        # 64 bits rounded to odd round correctly to 53; the scaling by a
        # power of two is then exact (or overflows to inf), and a zero
        # column, whose u is 0 (its low lies above its top), stays 0
        exponent = bits + LIMB_BITS * top + (LIMB_BITS * (self._lo - 4) - 1074)
        with np.errstate(over="ignore"):
            value = np.ldexp(u.astype(np.float64), exponent)
        return np.copysign(value, flip, out=value)


def exact_mean(rows: np.ndarray, denom: int) -> np.ndarray:
    """Correctly rounded column sums of a 2-D array, divided by ``denom``,
    so that equal multisets of update vectors map to the identical average."""
    if rows.ndim != 2:
        raise ValueError("expected a 2-D array of row vectors")
    total = ExactVectorSum(rows.shape[1])
    total.add(rows)
    return total.rounded() / denom
