import json
import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedsim import exact as exact_module
from fedsim.algorithms import MifaDeltaServer, MifaServer
from fedsim.exact import ExactVectorSum, exact_mean, two_diff

MAX = sys.float_info.max
TINY = 5e-324  # the smallest subnormal


def exact_column_sums(rows: np.ndarray) -> list:
    """The correctly rounded sum of each column via exact rational arithmetic;
    a sum that rounds past the largest double is +-inf, as IEEE rounding has it."""
    out = []
    for column in np.asarray(rows).T:
        total = sum(map(Fraction, column))
        try:
            out.append(float(total))
        except OverflowError:
            out.append(math.inf if total > 0 else -math.inf)
    return out


def assert_bitwise_equal(got: np.ndarray, expected: list) -> None:
    assert len(got) == len(expected)
    for g, e in zip(got.tolist(), expected):
        assert g == e and math.copysign(1.0, g) == math.copysign(1.0, e), (g, e)


def test_exact_mean_matches_exact_rational_sums():
    rng = np.random.default_rng(0)
    rows = rng.standard_normal((40, 6)) * 10.0 ** rng.integers(-8, 8, size=(40, 6))
    assert_bitwise_equal(exact_mean(rows, 1), exact_column_sums(rows))
    assert_bitwise_equal(exact_mean(rows, 40), [x / 40 for x in exact_column_sums(rows)])


def test_two_diff_is_error_free():
    rng = np.random.default_rng(1)
    a = rng.standard_normal(1000) * 10.0 ** rng.integers(-6, 6, size=1000)
    b = rng.standard_normal(1000) * 10.0 ** rng.integers(-6, 6, size=1000)
    hi, lo = two_diff(a, b)
    # hi is the rounded difference, hi + lo the exact one
    assert np.array_equal(hi, a - b)

    for k in range(0, 1000, 97):
        exact = Fraction(a[k]) - Fraction(b[k])
        assert Fraction(hi[k]) + Fraction(lo[k]) == exact


def test_exact_vector_sum_equals_correctly_rounded_sum():
    rng = np.random.default_rng(2)
    vecs = [rng.standard_normal(4) * 10.0 ** rng.integers(-10, 10) for _ in range(300)]
    acc = ExactVectorSum(4)
    for v in vecs:
        acc.add(v)
    assert_bitwise_equal(acc.rounded(), exact_column_sums(np.stack(vecs)))


def test_exact_mean_rejects_bad_shapes():
    with pytest.raises(ValueError):
        exact_mean(np.zeros(3), 3)


# ---------------------------------------------------------------------------
# the limb accumulator against exact rational sums
# ---------------------------------------------------------------------------

# every finite double, plus draws concentrated where summation is hard
hard_floats = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(min_value=-1e-300, max_value=1e-300),  # subnormals and tiny normals
    st.floats(min_value=MAX / 4, max_value=MAX) | st.floats(min_value=-MAX, max_value=-MAX / 4),
    st.sampled_from([0.0, -0.0, TINY, -TINY, 2.0**-1022, MAX, -MAX, 1.0, -1.0, 2.0**-53]),
)


@st.composite
def summations(draw):
    """(rows, splits): a block of rows whose columns mix every exponent
    range, with some rows' negations added for heavy cancellation; the block
    is added in the given split sizes."""
    dim = draw(st.integers(1, 4))
    n = draw(st.integers(1, 12))
    rows = [draw(st.lists(hard_floats, min_size=dim, max_size=dim)) for _ in range(n)]
    negated = draw(st.lists(st.sampled_from(range(n)), max_size=n))
    rows += [[-x for x in rows[i]] for i in negated]
    rows = draw(st.permutations(rows))
    splits = []
    while sum(splits) < len(rows):
        splits.append(draw(st.integers(1, len(rows) - sum(splits))))
    return np.array(rows, dtype=np.float64), splits


@settings(max_examples=300, deadline=None)
@given(summations())
def test_rounded_equals_exact_rational_sum(case):
    rows, splits = case
    acc = ExactVectorSum(rows.shape[1])
    start = 0
    for size in splits:
        part = rows[start : start + size]
        acc.add(part[0] if size == 1 else part)  # one vector, or a block
        start += size
    assert_bitwise_equal(acc.rounded(), exact_column_sums(rows))


@settings(max_examples=300, deadline=None)
@given(
    x=st.floats(min_value=2.0**-1021, max_value=MAX / 2),
    below=st.integers(1, 1200),
    negative=st.booleans(),
    split=st.booleans(),
)
def test_near_ties_round_by_the_bits_below_the_tie(x, below, negative, split):
    # x + ulp(x)/2 is a tie; a tail `below` binades under the half ulp decides
    # the rounding, whether it lands in the kept limbs or far beneath them
    half = math.ulp(x) / 2
    tail = math.ldexp(half, -below)  # underflows to 0.0 for the deepest tails
    for sign in (1.0, -1.0):
        rows = np.array([[x], [half], [sign * tail]]) * (-1.0 if negative else 1.0)
        acc = ExactVectorSum(1)
        if split:
            acc.add(rows[2])
            acc.add(rows[:2])
        else:
            acc.add(rows)
        assert_bitwise_equal(acc.rounded(), exact_column_sums(rows))


def test_near_ties_at_every_limb_alignment():
    # sweep the tie's top bit over the 32 bit positions of a limb and the
    # deciding tail over the next 80 binades, so that the rounding boundary
    # and the first dropped bit fall at every offset within the top limbs
    for offset in range(32):
        for mantissa in (1.0, 1.0 + 2.0**-52):  # a tie rounds down, or up, to even
            x = math.ldexp(mantissa, 32 * 34 + offset - 1074)
            half = math.ulp(x) / 2
            for below in range(1, 81):
                for tail in (0.0, math.ldexp(half, -below), -math.ldexp(half, -below)):
                    rows = np.array([[x, -x], [half, -half], [tail, -tail]])
                    acc = ExactVectorSum(2)
                    acc.add(rows)
                    assert_bitwise_equal(acc.rounded(), exact_column_sums(rows))


@pytest.mark.parametrize("limb", [0, 1, 2, 33, 40, 64])
def test_carries_out_of_the_top_touched_limb(limb):
    # x's top bit is the top bit of its limb, so x + x carries into the limb
    # above every limb an add has touched
    x = math.ldexp(0.75, 32 * limb - 1042) if limb >= 2 else math.ldexp(2.0**31 - 1, 32 * limb - 1074)
    for n in (2, 3, 1000):
        rows = np.full((n, 2), x) * np.array([1.0, -1.0])
        acc = ExactVectorSum(2)
        acc.add(rows)
        assert_bitwise_equal(acc.rounded(), exact_column_sums(rows))
        acc.add(rows[0])
        assert_bitwise_equal(acc.rounded(), exact_column_sums(np.vstack([rows, rows[:1]])))


def test_sum_past_fsum_intermediate_overflow_is_exact():
    rows = np.array([[MAX, MAX], [MAX, -MAX], [-MAX, MAX], [-MAX / 2, -MAX]])
    with pytest.raises(OverflowError, match="intermediate overflow"):
        math.fsum(rows[:, 0])
    acc = ExactVectorSum(2)
    acc.add(rows)
    assert_bitwise_equal(acc.rounded(), [MAX / 2, 0.0])
    acc.add(np.array([MAX, MAX]))
    assert_bitwise_equal(acc.rounded(), [math.inf, MAX])


def test_carries_between_chunked_scatters_keep_the_sum_exact(monkeypatch):
    # shrink the scatter block and the carry headroom so that one add call
    # scatters in many pieces and propagates carries between them
    monkeypatch.setattr(exact_module, "_SCATTER_ROWS", 2)
    monkeypatch.setattr(exact_module, "_ROWS_BEFORE_CARRY", 3)
    rng = np.random.default_rng(4)
    rows = np.ldexp(rng.standard_normal((61, 5)), rng.integers(-1080, 1000, size=(61, 5)))
    rows = np.concatenate([rows, -rows[::3], np.full((4, 5), TINY)])
    acc = ExactVectorSum(5)
    acc.add(rows[:30])
    acc.add(rows[30:])
    assert_bitwise_equal(acc.rounded(), exact_column_sums(rows))


def test_zero_sums_round_to_positive_zero():
    acc = ExactVectorSum(3)
    assert_bitwise_equal(acc.rounded(), [0.0, 0.0, 0.0])
    acc.add(np.array([[-0.0, 1.5, TINY], [-0.0, -1.5, -TINY]]))
    assert_bitwise_equal(acc.rounded(), [0.0, 0.0, 0.0])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_input_is_rejected(bad):
    acc = ExactVectorSum(2)
    acc.add(np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        acc.add(np.array([bad, 0.0]))
    with pytest.raises(ValueError):
        acc.add(np.array([[0.0, 1.0], [2.0, bad]]))
    assert_bitwise_equal(acc.rounded(), [1.0, 2.0])  # nothing of either call was added


@pytest.mark.parametrize("shape", [(3,), (2, 3), (1, 2, 2), ()])
def test_add_rejects_shapes_other_than_a_vector_or_block(shape):
    with pytest.raises(ValueError):
        ExactVectorSum(2).add(np.zeros(shape))


@settings(max_examples=200, deadline=None)
@given(sums=st.lists(summations(), min_size=1, max_size=4), cleared=st.sets(st.integers(0, 3)), pad=st.integers(0, 2))
def test_column_windows_of_one_sum_equal_separate_sums(sums, cleared, pad):
    # several windows of one wide sum, each added in one call with a column
    # offset per row, round as separate sums do; clear(columns) zeroes the
    # windows ``cleared`` alone, and they sum afresh after it
    width = max(rows.shape[1] for rows, _ in sums)
    wide = ExactVectorSum(len(sums) * width + pad)

    def windows(total):
        assert_bitwise_equal(total[len(sums) * width :], [0.0] * pad)
        return [total[k * width : (k + 1) * width] for k in range(len(sums))]

    def expected(rows):
        return exact_column_sums(rows) + [0.0] * (width - rows.shape[1])

    for k, (rows, _) in enumerate(sums):  # windows narrower than the sum's width
        wide.add(rows, np.full(len(rows), k * width))
    cleared = sorted(k for k in cleared if k < len(sums))
    wide.clear([k * width + j for k in cleared for j in range(width)])
    for k, window in enumerate(windows(wide.rounded())):
        assert_bitwise_equal(window, [0.0] * width if k in cleared else expected(sums[k][0]))
    for k in cleared:
        wide.add(sums[k][0], np.full(len(sums[k][0]), k * width))
    for k, window in enumerate(windows(wide.rounded())):
        assert_bitwise_equal(window, expected(sums[k][0]))


@pytest.mark.parametrize("values, offsets", [
    (np.zeros((2, 2)), [0]), (np.zeros((2, 2)), [0, 3]), (np.zeros((2, 2)), [-1, 0]), (np.zeros(2), [0]),
])
def test_add_rejects_a_column_window_outside_the_sum(values, offsets):
    with pytest.raises(ValueError):
        ExactVectorSum(4).add(values, np.array(offsets))


# ---------------------------------------------------------------------------
# negative sums, read off the limbs' two's complement
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("digit", [1, 3, 2**31, 2**32 - 1])
def test_negative_sums_whose_lowest_limb_is_their_top_limb(digit):
    # -digit * 2**(32k - 1074) has one nonzero magnitude limb, k: the limb
    # that takes 2**32 - limb is also the top limb the rounding reads
    # every limb k whose x leaves room for 3x below the largest double
    column = np.array([-math.ldexp(digit, 32 * k - 1074) for k in range(66) if 32 * k - 1072 + digit.bit_length() <= 1024])
    single = column[None, :]
    cancelling = np.stack([-2.0 * column, 3.0 * column])  # -2x + 3x = x, added in one block
    for rows in (single, cancelling):
        acc = ExactVectorSum(len(column))
        acc.add(rows)
        assert_bitwise_equal(acc.rounded(), exact_column_sums(rows))
    acc = ExactVectorSum(len(column))
    for row in cancelling:  # in two calls
        acc.add(row)
    assert_bitwise_equal(acc.rounded(), exact_column_sums(cancelling))


def test_a_tiny_negative_remainder_under_a_cancelling_pair():
    # x - x - TINY: the magnitude's complement runs through every limb from
    # limb 0 up to x's, and the magnitude is TINY's one bit alone
    xs = np.array([MAX, 1.0, 2.0**1000, 2.0**-1000, 2.0**-1022, 3 * TINY])
    for tail in (TINY, 3 * TINY, 2.0**-1022):
        rows = np.stack([xs, -xs, np.full(len(xs), -tail)])
        acc = ExactVectorSum(len(xs))
        acc.add(rows)
        assert_bitwise_equal(acc.rounded(), exact_column_sums(rows))
        acc.add(rows[:2])  # the pair again, then a positive remainder
        acc.add(-rows[2:])
        assert_bitwise_equal(acc.rounded(), [0.0] * len(xs))
        acc.add(-rows[2:])
        assert_bitwise_equal(acc.rounded(), exact_column_sums(-rows[2:]))


@st.composite
def signed_rounds(draw):
    """(dim, rounds): each round clears a set of columns, then adds a block
    of rows of either sign, hard floats and their negations mixed."""
    dim = draw(st.integers(1, 4))
    rounds = []
    for _ in range(draw(st.integers(1, 5))):
        cleared = sorted(draw(st.sets(st.integers(0, dim - 1))))
        rows = [draw(st.lists(hard_floats, min_size=dim, max_size=dim)) for _ in range(draw(st.integers(1, 6)))]
        rows += [[-x for x in row] for row in draw(st.lists(st.sampled_from(rows), max_size=3))]
        rounds.append((cleared, np.array(rows, dtype=np.float64)))
    return dim, rounds


@settings(max_examples=200, deadline=None)
@given(signed_rounds())
def test_mixed_sign_blocks_over_several_adds_and_clears(case):
    dim, rounds = case
    acc = ExactVectorSum(dim)
    added = [[] for _ in range(dim)]  # each column's values since it was last cleared
    for cleared, rows in rounds:
        acc.clear(cleared)
        for j in cleared:
            added[j] = []
        acc.add(rows)
        for j in range(dim):
            added[j] += rows[:, j].tolist()
        expected = [exact_column_sums(np.array(values or [0.0])[:, None])[0] for values in added]
        assert_bitwise_equal(acc.rounded(), expected)

# ---------------------------------------------------------------------------
# the memory servers' running sums against their tables
# ---------------------------------------------------------------------------


@st.composite
def memory_traces(draw):
    """(n, dim, rounds, roundtrip_at): each round is the sorted active ids
    (all of them in round 1) with one row of values per active device, and
    the server goes through a JSON checkpoint after round ``roundtrip_at``."""
    n, dim = draw(st.integers(1, 5)), draw(st.integers(1, 3))
    # |values| <= 1e300 keeps every sum of n of them, and every step, finite
    values = st.one_of(st.floats(-1e300, 1e300), st.sampled_from([0.0, -0.0, TINY, -TINY, 1e300, -1e300, 1.0]))
    rounds = []
    for t in range(draw(st.integers(1, 8))):
        ids = list(range(n)) if t == 0 else sorted(draw(st.sets(st.integers(0, n - 1))))
        rows = [draw(st.lists(values, min_size=dim, max_size=dim)) for _ in ids]
        rounds.append((ids, np.array(rows, dtype=np.float64).reshape(len(ids), dim)))
    return n, dim, rounds, draw(st.integers(1, len(rounds)))


class UnitStep:
    def eta(self, t):
        return 1.0


@pytest.mark.parametrize("server_class", [MifaServer, MifaDeltaServer])
@settings(max_examples=150, deadline=None)
@given(case=memory_traces())
def test_memory_server_sum_is_the_exact_sum_of_its_table(server_class, case):
    # mifa adds fresh rows and the negated rows they replace, mifa_delta the
    # two_diff pairs of their differences; either way a running sum of the
    # rows that fold returns stays the table's exact column sums, also when
    # rebuilt from the table after a checkpoint round-trip
    n, dim, rounds, roundtrip_at = case
    server = server_class(server_class.spec_class(), n, np.zeros(dim), None)
    total = ExactVectorSum(dim)
    for t, (ids, values) in enumerate(rounds, start=1):
        row = np.zeros(n, dtype=bool)
        row[ids] = True
        assert server.needs(t, row).tolist() == ids
        rows, count = server.fold(ids, values)
        total.add(rows)
        server.step(total.rounded() / count, UnitStep())
        if t == roundtrip_at:
            state = json.loads(json.dumps(server.state_dict()))
            server = server_class(server_class.spec_class(), n, np.zeros(dim), None)
            server.load_state_dict(state, t)
            total = ExactVectorSum(dim)
            total.add(server.memory)
        assert_bitwise_equal(total.rounded(), exact_column_sums(server.memory))
