import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fedsim
from fedsim import availability
from fedsim.availability import (
    AdversarialLinearParticipation,
    BernoulliParticipation,
    FullParticipation,
    ParticipationSampler,
    PeriodicParticipation,
    StalenessTracker,
    TraceExhaustedError,
    TraceReplay,
    bernoulli_staleness_bounds,
    bernoulli_staleness_tail,
    check_linear_delay_bound,
    read_trace,
    realized_staleness,
    write_trace,
)
from fedsim.rng import PARTICIPATION, substream


def collect_trace(model, seed, horizon):
    sampler = ParticipationSampler(model, seed, horizon)
    return [frozenset(np.flatnonzero(sampler.row(t)).tolist()) for t in range(1, horizon + 1)]


def mask_row(n_devices, members):
    row = np.zeros(n_devices, dtype=bool)
    row[list(members)] = True
    return row


def staleness_from_scratch(rounds, n_devices):
    """Recompute staleness directly from the last-active definition."""
    out = np.zeros((len(rounds), n_devices), dtype=np.int64)
    last = np.ones(n_devices, dtype=np.int64)
    for t, members in enumerate(rounds, start=1):
        for i in members:
            last[i] = t
        out[t - 1] = t - last
    return out


# ---------------------------------------------------------------------------
# models
# ---------------------------------------------------------------------------


def test_full_participation_every_round():
    rounds = collect_trace(FullParticipation(4), 0, 10)
    assert all(members == frozenset(range(4)) for members in rounds)


@pytest.mark.parametrize(
    "model",
    [
        FullParticipation(3),
        BernoulliParticipation([0.2, 0.5, 0.9]),
        PeriodicParticipation([2, 3, 5], [0, 1, 2]),
        AdversarialLinearParticipation(3, offset=2.0, slope_divisor=4.0),
        TraceReplay(3, [{0, 1, 2}, {1}, set()]),
    ],
    ids=["full", "bernoulli", "periodic", "adversarial", "replay"],
)
def test_first_round_is_total(model):
    assert model.mask(123, 1, 2).tolist() == [[True] * model.n_devices]


def test_bernoulli_probability_one_devices_always_active():
    rounds = collect_trace(BernoulliParticipation([1.0, 1.0]), 5, 20)
    assert all(members == frozenset({0, 1}) for members in rounds)


def test_bernoulli_marginal_frequency():
    model = BernoulliParticipation([0.35])
    draws = 100_000
    hits = int(model.mask(7, 2, draws + 2)[:, 0].sum())
    freq = hits / draws
    assert abs(freq - 0.35) <= 4 * math.sqrt(0.35 * 0.65 / draws)


def test_bernoulli_per_device_streams_are_independent():
    # changing device 1's probability must not perturb device 0's draws
    a = collect_trace(BernoulliParticipation([0.5, 0.9]), 3, 200)
    b = collect_trace(BernoulliParticipation([0.5, 0.2]), 3, 200)
    for sa, sb in zip(a, b):
        assert (0 in sa) == (0 in sb)


def test_periodic_pattern():
    model = PeriodicParticipation([2, 3], [0, 1])
    rounds = collect_trace(model, 0, 7)
    # device 0: t % 2 == 0; device 1: (t - 1) % 3 == 0; round 1 total
    assert rounds[0] == frozenset({0, 1})
    for t in range(2, 8):
        assert (0 in rounds[t - 1]) == (t % 2 == 0)
        assert (1 in rounds[t - 1]) == ((t - 1) % 3 == 0)


def test_adversarial_trace_respects_and_touches_its_envelope():
    model = AdversarialLinearParticipation(1, offset=2.0, slope_divisor=4.0)
    rounds = collect_trace(model, 0, 10_000)
    staleness = staleness_from_scratch(rounds, 1)[:, 0]
    limits = np.array([2.0 + t / 4.0 for t in range(1, 10_001)])
    assert np.all(staleness <= limits)
    assert np.any(staleness == np.floor(limits))


def test_trace_replay_exhaustion_is_signalled():
    model = TraceReplay(2, [{0, 1}, {0}])
    sampler = ParticipationSampler(model, 0, horizon=3)
    sampler.row(1)
    sampler.row(2)
    with pytest.raises(TraceExhaustedError):
        sampler.row(3)


def test_samplers_reject_out_of_order_rounds():
    sampler = ParticipationSampler(FullParticipation(2), 0, horizon=3)
    sampler.row(1)
    with pytest.raises(ValueError):
        sampler.row(3)


def reference_rows(model, seed, horizon, trace=None):
    """Rounds 1..horizon of ``model``'s mask for ``seed``, one round at a
    time, as the per-round samplers drew them: a Bernoulli device makes one
    ``random()`` call per round t >= 2, an adversarial device keeps its own
    last-active round, a replay reads the active sets ``trace``."""
    n = model.n_devices
    rows = [np.ones(n, dtype=bool)]
    gens = [substream(seed, PARTICIPATION, i) for i in range(n)]
    last_active = np.ones(n, dtype=np.int64)
    for t in range(2, horizon + 1):
        if isinstance(model, BernoulliParticipation):
            row = np.array([gens[i].random() < model.probs[i] for i in range(n)])
        elif isinstance(model, PeriodicParticipation):
            row = (t - model.phases) % model.periods == 0
        elif isinstance(model, AdversarialLinearParticipation):
            row = t - last_active > model.offset + t / model.slope_divisor
            last_active[row] = t
        elif isinstance(model, TraceReplay):
            if t > len(trace):
                raise TraceExhaustedError(f"trace ends at round {len(trace)}")
            row = np.isin(np.arange(n), list(trace[t - 1]))
        else:
            row = np.ones(n, dtype=bool)
        rows.append(np.asarray(row, dtype=bool))
    return np.array(rows)


@st.composite
def participation_models(draw):
    """(model, the active sets of a replayed trace, or None)."""
    n = draw(st.integers(1, 6))
    kind = draw(st.sampled_from(["full", "bernoulli", "periodic", "adversarial", "replay"]))
    if kind == "full":
        return FullParticipation(n), None
    if kind == "bernoulli":
        return BernoulliParticipation(draw(st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n))), None
    if kind == "periodic":
        periods = draw(st.lists(st.integers(1, 9), min_size=n, max_size=n))
        return PeriodicParticipation(periods, draw(st.lists(st.integers(-20, 20), min_size=n, max_size=n))), None
    if kind == "adversarial":
        return AdversarialLinearParticipation(n, draw(st.floats(0.0, 5.0)), draw(st.floats(1.01, 10.0))), None
    rounds = [set(range(n))] + draw(st.lists(st.sets(st.integers(0, n - 1)), min_size=0, max_size=60))
    return TraceReplay(n, rounds), rounds


@pytest.mark.parametrize("block_rows", [1, 3, 7])
@settings(max_examples=60, deadline=None)
@given(case=participation_models(), seed=st.integers(0, 2**32), horizon=st.integers(2, 60), data=st.data())
def test_mask_blocks_equal_the_per_round_reference(block_rows, case, seed, horizon, data):
    model, trace = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(availability, "MASK_BLOCK_CELLS", block_rows * model.n_devices)
        last = horizon if trace is None else min(horizon, len(trace))
        expected = reference_rows(model, seed, last, trace)
        sampler = ParticipationSampler(model, seed, horizon)
        assert np.array_equal(np.array([sampler.row(t) for t in range(1, last + 1)]), expected)
        start = data.draw(st.integers(1, last))
        stop = data.draw(st.integers(start, last + 1))
        assert np.array_equal(model.mask(seed, start, stop), expected[start - 1 : stop - 1])
        resumed = ParticipationSampler(model, seed, horizon, start=start)
        assert np.array_equal(np.array([resumed.row(t) for t in range(start, last + 1)]), expected[start - 1 :])
        if last < horizon:
            with pytest.raises(TraceExhaustedError):
                sampler.row(last + 1)
        if last >= 2:
            stale = staleness_from_scratch([np.flatnonzero(r) for r in expected], model.n_devices)[:-1]
            stats = realized_staleness(model, seed, last)
            assert stats.peak == stale.max() and stats.avg == stale.sum() / stale.size
            assert stats.device_peak_mean == stale.max(axis=0).mean()


@pytest.mark.parametrize("block_rows", [1, 4, 1000])
def test_short_trace_stops_a_run_at_the_round_after_its_end(block_rows, monkeypatch):
    monkeypatch.setattr(availability, "MASK_BLOCK_CELLS", 2 * block_rows)
    model = TraceReplay(2, [{0, 1}, {0}, set(), {1}, {0, 1}, {1}])
    inst = fedsim.make_quadratic_instance(2, 1, mu=1.0, smoothness=2.0, sigma=0.1, heterogeneity=1.0, seed=1)
    runner = fedsim.Runner(fedsim.MifaSpec(), inst, model, fedsim.InverseDecay(eta0=0.1), horizon=10, n_steps=1, seed=0)
    with pytest.raises(TraceExhaustedError):
        runner.run_rounds(10)
    assert runner.rounds_done == 6 and [row.t for row in runner.rows] == list(range(1, 7))
    with pytest.raises(TraceExhaustedError):
        realized_staleness(model, 0, 7)


# ---------------------------------------------------------------------------
# staleness tracking
# ---------------------------------------------------------------------------


def test_staleness_recursion_hand_trace():
    # rounds: all, {0}, {1}, {0,1} -> staleness rows (0,0), (0,1), (1,0), (0,0)
    tracker = StalenessTracker(2)
    rounds = [{0, 1}, {0}, {1}, {0, 1}]
    seen = []
    for t, members in enumerate(rounds, start=1):
        tracker.update(t, mask_row(2, members))
        seen.append(tracker.staleness.copy())
    assert np.array_equal(np.array(seen), np.array([[0, 0], [0, 1], [1, 0], [0, 0]]))
    total = sum(int(s.sum()) for s in seen)
    assert total == 2
    # stats cover rounds 1..3: mean = (0+0+0+1+1+0) / 6, peak = 1
    stats = tracker.stats()
    brute = np.array(seen)[:3]
    assert stats.avg == pytest.approx(brute.mean())
    assert stats.peak == brute.max()
    assert stats.device_peak_sq_mean == pytest.approx((brute.max(axis=0).astype(float) ** 2).mean())


def test_tracker_matches_from_scratch_recomputation():
    model = BernoulliParticipation([0.3, 0.6, 0.9, 1.0])
    rounds = collect_trace(model, 11, 200)
    expected = staleness_from_scratch(rounds, 4)
    tracker = StalenessTracker(4)
    for t, members in enumerate(rounds, start=1):
        tracker.update(t, mask_row(4, members))
        assert np.array_equal(tracker.staleness, expected[t - 1])


def test_stats_order_relations_on_random_traces():
    rng = np.random.default_rng(5)
    for trial in range(100):
        probs = rng.uniform(0.2, 1.0, size=3)
        model = BernoulliParticipation(probs)
        rounds = collect_trace(model, 1000 + trial, 30)
        tracker = StalenessTracker(3)
        for t, members in enumerate(rounds, start=1):
            tracker.update(t, mask_row(3, members))
        stats = tracker.stats()
        assert stats.avg <= stats.peak
        assert stats.device_peak_sq_mean <= stats.peak**2 + 1e-12


def test_full_participation_stats_are_zero():
    tracker = StalenessTracker(3)
    for t in range(1, 101):
        tracker.update(t, mask_row(3, {0, 1, 2}))
    stats = tracker.stats()
    assert stats.avg == 0.0 and stats.peak == 0


def test_tracker_rejects_out_of_order_and_partial_first_round():
    tracker = StalenessTracker(2)
    with pytest.raises(ValueError):
        tracker.update(2, mask_row(2, {0, 1}))
    with pytest.raises(ValueError):
        tracker.update(1, mask_row(2, {0}))
    tracker.update(1, mask_row(2, {0, 1}))
    with pytest.raises(ValueError):
        tracker.stats()


# ---------------------------------------------------------------------------
# linear-delay envelope check
# ---------------------------------------------------------------------------


def test_delay_bound_holds_for_full_participation():
    rounds = [frozenset({0, 1})] * 50
    holds, violation = check_linear_delay_bound(rounds, offset=0.0, smoothness=1.0, mu=1.0)
    assert holds and violation is None


def test_delay_bound_first_violation_round():
    # single device inactive from round 2 on: staleness t-1 vs 5 + t/4
    # violated first when t - 1 > 5 + t/4, i.e. t = 9
    rounds = [frozenset({0})] + [frozenset()] * 11
    b = 4.0
    mu = 1.0
    smoothness = (b / 40.0) ** (2.0 / 3.0) * mu  # makes 40 (L/mu)^1.5 == 4
    holds, violation = check_linear_delay_bound(rounds, offset=5.0, smoothness=smoothness, mu=mu)
    assert not holds
    assert violation == (9, 0)


def test_adversarial_generator_passes_its_own_envelope():
    # slope divisor 40 corresponds to smoothness == mu
    model = AdversarialLinearParticipation(2, offset=3.0, slope_divisor=40.0)
    rounds = collect_trace(model, 0, 2000)
    holds, _ = check_linear_delay_bound(rounds, offset=3.0, smoothness=1.0, mu=1.0)
    assert holds


# ---------------------------------------------------------------------------
# independent-participation staleness bounds
# ---------------------------------------------------------------------------


def test_staleness_tail_formula_values():
    assert bernoulli_staleness_tail(1.0, 1, 10) == 0.0
    assert bernoulli_staleness_tail(0.5, 3, 10) == pytest.approx(0.125)
    assert bernoulli_staleness_tail(0.5, 10, 10) == 0.0
    assert bernoulli_staleness_tail(0.5, 0, 10) == 1.0


def test_staleness_tail_matches_monte_carlo():
    p, horizon = 0.4, 30
    traces = 20_000
    counts = {k: 0 for k in (1, 2, 3, 5)}
    model = BernoulliParticipation([p])
    for trial in range(traces):
        sampler = ParticipationSampler(model, trial, horizon)
        tracker = StalenessTracker(1)
        for t in range(1, horizon + 1):
            tracker.update(t, sampler.row(t))
        tau = int(tracker.staleness[0])
        for k in counts:
            counts[k] += tau >= k
    for k, count in counts.items():
        expected = bernoulli_staleness_tail(p, k, horizon)
        stderr = math.sqrt(expected * (1 - expected) / traces)
        assert abs(count / traces - expected) <= 3 * stderr


def test_staleness_bounds_formula_evaluation():
    bounds = bernoulli_staleness_bounds([0.5], horizon=1000, delta=0.01)
    expected = 1.0 + 2.0 * (2.0 * math.log(1000.0) + math.log(1.0) + math.log(math.pi**2 / 0.06))
    assert bounds.peak_bound == pytest.approx(expected)
    assert bounds.avg_shape == pytest.approx(2.0)


def test_staleness_bounds_positive_even_for_certain_participation():
    bounds = bernoulli_staleness_bounds([1.0, 1.0], horizon=100, delta=0.5)
    assert bounds.peak_bound > 0.0
    assert bounds.avg_shape == 1.0


def test_staleness_bounds_validate_inputs():
    with pytest.raises(ValueError):
        bernoulli_staleness_bounds([0.0], 10, 0.1)
    with pytest.raises(ValueError):
        bernoulli_staleness_bounds([0.5], 10, 1.5)
    with pytest.raises(ValueError):
        bernoulli_staleness_tail(0.5, -1, 10)


# ---------------------------------------------------------------------------
# trace files
# ---------------------------------------------------------------------------


def test_trace_file_roundtrip(tmp_path):
    path = tmp_path / "trace.txt"
    rounds = [frozenset({0, 1, 2}), frozenset({1}), frozenset(), frozenset({0, 2})]
    write_trace(path, 3, rounds)
    n, loaded = read_trace(path)
    assert n == 3
    assert loaded == rounds


def test_trace_file_format_is_stable(tmp_path):
    path = tmp_path / "trace.txt"
    write_trace(path, 2, [frozenset({0, 1}), frozenset({1})])
    assert path.read_text() == "N=2 T=2\nt:1 active:0,1\nt:2 active:1\n"


def test_trace_replay_requires_total_first_round():
    with pytest.raises(ValueError):
        TraceReplay(2, [{0}, {1}])
