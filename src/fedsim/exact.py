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
doubles exactly, also one that outgrows the largest double. Adding is
integer arithmetic on whole blocks of vectors, and ``rounded()`` reads the
correctly rounded doubles off in one pass (+-inf for a sum past the largest
double). A sum may be wider than one vector: ``add`` takes a column offset
per row, so runs that each own a column window share one sum, one ``add`` and
one ``rounded()`` per round, and ``clear`` zeroes chosen columns alone.
``exact_mean`` sums one block afresh. A memory server's window runs on: each
round adds the new rows and the negated rows they replace; where devices send
only the difference, it arrives as a two-term error-free expansion
(``two_diff``).
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
_U1, _U32, _U64 = np.uint64(1), np.uint64(32), np.uint64(64)


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
        row &= _LOW


class ExactVectorSum:
    """Exact running sum of float64 vectors of length ``dim``.

    The state is an int64 array of N_LIMBS rows of ``dim`` limbs, below two
    rows that stay zero; column j holds sum_k limb[k, j] * 2**(32k - 1074),
    the exact sum of every coordinate j added so far. Only limbs ``lo..hi``
    have ever been touched (plus carry headroom), and carries are propagated
    over that window alone.

    ``rounded()`` returns the correctly rounded double for each coordinate,
    i.e. ``float(sum(map(Fraction, column)))`` over all added vectors.
    """

    def __init__(self, dim: int):
        self.dim = dim
        # limb k is row k + 2: the zero rows below limb 0 let every column
        # read three limbs at and below its top one
        self._limbs = np.zeros((N_LIMBS + 2, dim), dtype=np.int64)
        self._lo = N_LIMBS  # the used window is empty while lo > hi
        self._hi = -1
        self._rows = 0  # rows added since carries were last propagated
        # the offsets of a column's limbs k, k - 1, k - 2 in a flattened window
        self._three = -dim * np.arange(3)[:, None]
        self._columns = np.arange(dim)

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
        entries = np.flatnonzero(block)
        if not len(entries):
            return
        x = block.ravel()[entries]
        # x = m * 2**e with 1/2 <= |m| < 1: the top bit of x is e + 1073 bits
        # above 2**-1074, so x's (at most 53) bits lie in limbs base..base+2
        base = np.maximum((np.frexp(x)[1] + 1073 - 2 * LIMB_BITS) // LIMB_BITS, 0)
        lo, top = int(base.min()), int(base.max())
        width = top - lo + 3
        index = (base - lo + 2) * self.dim + columns.ravel()[entries]
        # each array here is as long as the block's nonzero entries, every
        # run's rows of a batch together, so each is dropped once used
        del entries
        # base's unit scales x to an integer below 2**96; split it exactly
        # into three signed 32-bit chunks, the top one first, and sum each
        # into its limb. A limb's chunks sum to an exact integer in any
        # order, so three bincounts, one per chunk, equal one over all three.
        frac, chunk = np.modf(np.ldexp(x, 1074 - 2 * LIMB_BITS - LIMB_BITS * base))
        del x, base
        size = width * self.dim
        sums = np.bincount(index, weights=chunk, minlength=size)
        frac, chunk = np.modf(frac * 2.0**32)
        sums += np.bincount(index - self.dim, weights=chunk, minlength=size)
        sums += np.bincount(index - 2 * self.dim, weights=frac * 2.0**32, minlength=size)
        self._limbs[lo + 2 : lo + 2 + width] += sums.reshape(width, self.dim).astype(np.int64)
        self._lo = min(self._lo, lo)
        self._hi = max(self._hi, min(top + 4, N_LIMBS - 1))

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
        negative = window[-1] < 0
        if negative.any():
            window = np.negative(window, out=window.copy(), where=negative)
            _carry(window[2:])
        mag = window.view(np.uint64)
        nonzero = mag != 0
        # each column's top nonzero limb a and the two below it, b and c
        top = len(mag) - 1 - np.argmax(nonzero[::-1], axis=0)
        a, b, c = mag.ravel()[top * self.dim + self._columns + self._three]
        # w = a*2**64 + b*2**32 + c has a's bit length plus 64 bits; u is its
        # top 64 bits and kept its top 63 bits, rounded to odd: the last bit
        # is set when any dropped bit (of w, or of a lower limb) is set
        bits = np.frexp(a.astype(np.float64))[1]
        shift = bits.astype(np.uint64)
        u = (((a << _U32) | b) << (_U32 - shift)) | (c >> shift)
        sticky = (c << (_U64 - shift) != 0) | (np.argmax(nonzero, axis=0) < top - 2)
        kept = (u >> _U1) | (u & _U1) | sticky
        # 63 bits rounded to odd round correctly to 53; the scaling by a
        # power of two is then exact (or overflows to inf)
        exponent = bits + LIMB_BITS * (self._lo + top - 4) - 1073
        with np.errstate(over="ignore"):
            value = np.ldexp(kept.astype(np.float64), exponent, out=np.zeros(self.dim), where=a != 0)
        return np.negative(value, out=value, where=negative)


def exact_mean(rows: np.ndarray, denom: int) -> np.ndarray:
    """Correctly rounded column sums of a 2-D array, divided by ``denom``,
    so that equal multisets of update vectors map to the identical average."""
    if rows.ndim != 2:
        raise ValueError("expected a 2-D array of row vectors")
    total = ExactVectorSum(rows.shape[1])
    total.add(rows)
    return total.rounded() / denom
