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
@given(sums=st.lists(summations(), min_size=1, max_size=4), cleared=st.integers(0, 4), pad=st.integers(0, 2))
def test_column_windows_of_one_sum_equal_separate_sums(sums, cleared, pad):
    # several windows of one wide sum, each added in one call with a column
    # offset per row, round as separate sums do; clear() zeroes them all
    width = max(rows.shape[1] for rows, _ in sums)
    wide = ExactVectorSum(len(sums) * width + pad)
    for attempt in range(2):
        blocks = [(rows, k * width) for k, (rows, _) in enumerate(sums) if attempt or k != cleared]
        for rows, offset in blocks:  # windows narrower than the sum's width
            wide.add(rows, np.full(len(rows), offset))
        if not attempt:
            wide.clear()
    total = wide.rounded()
    assert_bitwise_equal(total[len(sums) * width :], [0.0] * pad)
    for k, (rows, _) in enumerate(sums):
        window = total[k * width : (k + 1) * width]
        expected = exact_column_sums(rows) + [0.0] * (width - rows.shape[1])
        assert_bitwise_equal(window, expected)


@pytest.mark.parametrize("values, offsets", [
    (np.zeros((2, 2)), [0]), (np.zeros((2, 2)), [0, 3]), (np.zeros((2, 2)), [-1, 0]), (np.zeros(2), [0]),
])
def test_add_rejects_a_column_window_outside_the_sum(values, offsets):
    with pytest.raises(ValueError):
        ExactVectorSum(4).add(values, np.array(offsets))


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
    # two_diff pairs of their differences; either way the running sum stays
    # the table's exact column sums, also when rebuilt from a checkpoint
    n, dim, rounds, roundtrip_at = case
    server = server_class(server_class.spec_class(), n, np.zeros(dim), None)
    for t, (ids, values) in enumerate(rounds, start=1):
        row = np.zeros(n, dtype=bool)
        row[ids] = True
        assert server.needs(t, row).tolist() == ids
        server.aggregate(ids, values, UnitStep())
        if t == roundtrip_at:
            state = json.loads(json.dumps(server.state_dict()))
            server = server_class(server_class.spec_class(), n, np.zeros(dim), None)
            server.load_state_dict(state)
        table = server.memory
        assert_bitwise_equal(server.exact_sum.rounded(), exact_column_sums(table))
