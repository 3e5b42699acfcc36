import functools
import json
import re
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fedsim
from fedsim.algorithms import (
    SERVERS,
    BiasedFedAvgServer,
    DivergenceError,
    ImportanceFedAvgServer,
    MifaDeltaServer,
    MifaServer,
    local_updates,
)
from fedsim.availability import (
    AdversarialLinearParticipation,
    BernoulliParticipation,
    FullParticipation,
    PeriodicParticipation,
    TraceReplay,
    realized_staleness,
)
from fedsim.exact import exact_mean
from fedsim.problems import (
    make_logistic_instance,
    make_nonconvex_instance,
    make_quadratic_instance,
    quadratic_instance_from_arrays,
    sphere_noise,
)
from fedsim.rng import GRADIENT_NOISE, generator_state, substream
from fedsim.schedules import InverseDecay, NonConvexConstant, StronglyConvexDecay


def two_center_instance(sigma=0.0):
    """d = 1, identity curvature, centers 0 and 2; optimum at 1."""
    return quadratic_instance_from_arrays(
        np.ones((2, 1, 1)), np.array([[0.0], [2.0]]), sigma=sigma
    )


def noise_rngs(seed, n):
    return [substream(seed, GRADIENT_NOISE, i) for i in range(n)]


class ConstantStep:
    """Schedule stand-in with the same step every round."""

    def __init__(self, eta):
        self.step = eta

    def eta(self, t):
        return self.step


def server(cls, n, w0, spec=None):
    """A fresh server of class ``cls`` for ``n`` devices starting at ``w0``."""
    return cls(spec or cls.spec_class(), n, np.asarray(w0, dtype=np.float64), None)


def play_round(server, t, members, eta, inst, n_steps, rngs):
    """Wall-round ``t`` with the devices ``members`` active, as Runner plays
    it from the round's mask row, at a constant step ``eta``: the server
    folds the updates in and steps by the exact mean of its table (memory)
    or of the folded rows (FedAvg), which its window of a batch's sum holds."""
    row = np.zeros(server.n_devices, dtype=bool)
    row[list(members)] = True
    ids = server.needs(t, row)
    values, _ = local_updates(inst, ids, server.w, eta, n_steps, [rngs[i] for i in ids])
    folded = server.fold(ids, values)
    if folded is not None:
        rows, count = folded
        server.step(exact_mean(rows if server.fresh else server.memory, count), ConstantStep(eta))


def device_update(inst, i, w, eta, n_steps, rng):
    """Device i's gradient sum alone: its one-device batch."""
    return local_updates(inst, [i], w, eta, n_steps, [rng])[0][0]


# ---------------------------------------------------------------------------
# local updates
# ---------------------------------------------------------------------------


def test_single_step_noiseless_update_is_the_gradient():
    inst = make_quadratic_instance(3, 4, mu=1.0, smoothness=3.0, sigma=0.0, heterogeneity=1.0, seed=1)
    rng = np.random.default_rng(0)
    w = np.array([0.5, -1.0, 2.0, 0.0])
    total = device_update(inst, 1, w, eta=0.01, n_steps=1, rng=rng)
    assert np.array_equal(total, inst.grad(1, w))


def test_two_step_manual_unroll():
    # f(w) = w^2/2 from w = 1 with eta = 0.1: gradients 1.0 then 0.9
    inst = quadratic_instance_from_arrays(np.ones((1, 1, 1)), np.zeros((1, 1)), sigma=0.0)
    total = device_update(inst, 0, np.array([1.0]), eta=0.1, n_steps=2, rng=np.random.default_rng(0))
    assert total[0] == pytest.approx(1.9, rel=1e-14)


def test_update_times_eta_equals_displacement():
    inst = make_quadratic_instance(2, 5, mu=1.0, smoothness=4.0, sigma=0.8, heterogeneity=1.0, seed=2)
    rng = np.random.default_rng(1)
    replica = np.random.default_rng(1)
    w = rng.standard_normal(5)
    replica.standard_normal(5)
    eta = 1e-4
    total = device_update(inst, 0, w, eta=eta, n_steps=6, rng=rng)
    # replay the iterates with the reference oracle to recover w_K
    noise = sphere_noise(replica.standard_normal((6, 5)), inst.constants.noise_std)
    w_k = w.copy()
    for k in range(6):
        w_k = w_k - eta * (inst.grad(0, w_k) + noise[k])
    assert np.allclose(eta * total, w - w_k, rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize(
    "inst",
    [
        make_quadratic_instance(4, 6, mu=1.0, smoothness=5.0, sigma=0.8, heterogeneity=2.0, seed=5),
        make_nonconvex_instance(4, 6, curvature=1.3, amplitude=0.7, sigma=0.5, heterogeneity=2.0, seed=5),
    ],
    ids=["quadratic", "trig"],
)
def test_local_update_replays_the_k_step_recurrence_bitwise(inst):
    # the gradient sum is the recurrence g_k = grad_i(w_k) + noise_k,
    # w_{k+1} = w_k - eta g_k, evaluated in the same order, to the last bit
    w = np.random.default_rng(3).standard_normal(inst.dim)
    for i in range(inst.n_devices):
        update = device_update(inst, i, w, eta=0.05, n_steps=7, rng=substream(9, GRADIENT_NOISE, i))
        noise = sphere_noise(substream(9, GRADIENT_NOISE, i).standard_normal((7, inst.dim)), inst.constants.noise_std)
        w_k, total = w.copy(), np.zeros(inst.dim)
        for k in range(7):
            g = inst.grad(i, w_k) + noise[k]
            total += g
            w_k -= 0.05 * g
        assert np.array_equal(update, total), i


def test_logistic_local_update_consumes_sample_indices():
    inst = make_logistic_instance(2, 3, samples_per_device=4, l2=1.0, label_skew=0.0, seed=3)
    rng = np.random.default_rng(5)
    replica = np.random.default_rng(5)
    w = np.zeros(3)
    update = device_update(inst, 0, w, eta=0.1, n_steps=3, rng=rng)
    picks = replica.integers(4, size=3)
    w_k = w.copy()
    total = np.zeros(3)
    for k in range(3):
        # the sampled row's loss gradient, -y sigmoid(-y x.w) x, plus the l2 term
        x, y = inst.stacked["features"][0, picks[k]], inst.stacked["labels"][0, picks[k]]
        g = -y * (0.5 * (1.0 + np.tanh(0.5 * (-y * float(x @ w_k))))) * x + inst.stacked["l2"] * w_k
        total += g
        w_k -= 0.1 * g
    assert np.array_equal(update, total)


@pytest.mark.filterwarnings("ignore:overflow encountered in multiply:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered in subtract:RuntimeWarning")
def test_local_update_signals_divergence():
    inst = make_quadratic_instance(1, 2, mu=1.0, smoothness=10.0, sigma=0.0, heterogeneity=1.0, seed=4)
    _, finite = local_updates(inst, [0], np.array([1e200, 1e200]), 1e200, 3, [np.random.default_rng(0)])
    assert finite.tolist() == [False]


@functools.lru_cache(maxsize=None)
def batch_instance(kind, dim):
    if kind == "quadratic":
        return make_quadratic_instance(6, dim, mu=1.0, smoothness=5.0, sigma=0.8, heterogeneity=2.0, seed=21)
    if kind == "trig":
        return make_nonconvex_instance(6, dim, curvature=1.3, amplitude=0.7, sigma=0.5, heterogeneity=2.0, seed=21)
    return make_logistic_instance(6, dim, samples_per_device=7, l2=0.5, label_skew=0.4, seed=21)


@settings(max_examples=120, deadline=None)
@given(
    kind=st.sampled_from(["quadratic", "trig", "logistic"]),
    dim=st.sampled_from([1, 2, 5, 17, 40]),
    ids=st.lists(st.integers(0, 5), min_size=1, max_size=6, unique=True),
    n_steps=st.integers(1, 4),
    seed=st.integers(0, 2**16),
)
def test_a_devices_row_does_not_depend_on_its_batch(kind, dim, ids, n_steps, seed):
    # each row of a batch, whatever its other ids and their order, is bitwise
    # the device's one-device batch
    inst = batch_instance(kind, dim)
    w = np.random.default_rng(seed).standard_normal(dim)
    block, finite = local_updates(inst, ids, w, 0.05, n_steps, [substream(seed, GRADIENT_NOISE, i) for i in ids])
    assert finite.all()
    for row, i in zip(block, ids):
        assert np.array_equal(row, device_update(inst, i, w, 0.05, n_steps, substream(seed, GRADIENT_NOISE, i)))


# the two curvature-1000 rows overflow on purpose
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_a_diverging_batch_names_its_lowest_diverging_device():
    # devices 1 and 3 have curvature 1000: from w = 1e300 at eta = 1 their
    # iterates pass the largest double within 3 steps, the others reach 0
    curvature = np.array([1.0, 1000.0, 1.0, 1000.0, 1.0])
    inst = quadratic_instance_from_arrays(curvature[:, None, None] * np.eye(2), np.zeros((5, 2)), sigma=0.0)
    w = np.full(2, 1e300)
    for ids in ([4, 3, 0, 1, 2], [3, 4, 2], [1, 3], [4, 0, 2]):
        values, finite = local_updates(inst, ids, w, 1.0, 4, [None] * len(ids))
        assert finite.tolist() == [i not in (1, 3) for i in ids]
        assert np.all(np.isfinite(values[finite]))
    # a run on this instance stops in round 1, naming the lowest of the two
    runner = fedsim.Runner(fedsim.BiasedFedAvgSpec(), inst, FullParticipation(5), InverseDecay(1.0), horizon=3,
                           n_steps=4, seed=0, w0=w)
    with pytest.raises(DivergenceError, match="device 1 produced"):
        runner.run_rounds(3)
    assert runner.rows == [] and runner.rounds_done == 0


def test_an_empty_batch_is_an_empty_block():
    inst = two_center_instance(sigma=0.5)
    values, finite = local_updates(inst, [], np.zeros(1), 0.1, 3, [])
    assert values.shape == (0, 1) and finite.shape == (0,)


@pytest.mark.parametrize(
    "changes, message",
    [
        ({"eta": np.nan}, "eta must be finite and > 0"),
        ({"eta": np.inf}, "eta must be finite and > 0"),
        ({"eta": np.array([0.1, 0.1, np.nan])}, "eta must be finite and > 0"),
        ({"eta": 0.0}, "eta must be finite and > 0"),
        ({"eta": np.full(2, 0.1)}, r"eta has shape \(2,\), expected one step size or one for each of the 3 ids"),
        ({"ids": [0, 5, 1]}, "ids holds device 5, the instance has 4 devices"),
        ({"ids": [0, -1, 1]}, "ids holds device -1, the instance has 4 devices"),
        ({"ids": [[0, 1, 2]]}, r"ids has shape \(1, 3\)"),
        ({"w": np.zeros(3)}, r"w has shape \(3,\), expected \(2,\) or \(3, 2\)"),
        ({"w": np.zeros((2, 2))}, r"w has shape \(2, 2\)"),
        ({"rngs": 2}, "rngs holds 2 streams for 3 ids"),
        ({"n_steps": 0}, "n_steps must be >= 1"),
    ],
    ids=["eta_nan", "eta_inf", "eta_row_nan", "eta_zero", "eta_length", "id_past_devices", "id_negative",
         "ids_nested", "w_dim", "w_rows", "rngs_few", "n_steps"],
)
def test_local_updates_names_a_malformed_argument(changes, message):
    inst = BATCH_INSTANCES["quadratic"]  # 4 devices in dimension 2
    args = {"ids": [0, 1, 2], "w": np.zeros(inst.dim), "eta": 0.1, "n_steps": 2, "rngs": 3}
    args.update(changes)
    rngs = noise_rngs(0, args.pop("rngs"))
    with pytest.raises(ValueError, match=message):
        local_updates(inst, args["ids"], args["w"], args["eta"], args["n_steps"], rngs)


# ---------------------------------------------------------------------------
# update-array server
# ---------------------------------------------------------------------------


def test_array_server_hand_unroll_with_stale_entry():
    inst = two_center_instance()
    rngs = noise_rngs(0, 2)
    state = server(MifaServer, 2, np.zeros(1))
    eta = 0.1
    play_round(state, 1, {0, 1}, eta, inst, 1, rngs)
    # gradients at 0 are (0, -2): w2 = 0 - 0.1 * (-1) = 0.1
    assert state.w[0] == pytest.approx(0.1, rel=1e-14)
    play_round(state, 2, {0}, eta, inst, 1, rngs)
    # device 1's stored round-1 value (-2) is reused alongside the fresh 0.1
    assert state.update_array[1, 0] == pytest.approx(-2.0)
    assert state.w[0] == pytest.approx(0.1 - 0.1 * (0.1 - 2.0) / 2.0, rel=1e-14)  # 0.195


def test_array_server_requires_total_first_round():
    inst = two_center_instance()
    state = server(MifaServer, 2, np.zeros(1))
    with pytest.raises(ValueError):
        play_round(state, 1, {0}, 0.1, inst, 1, noise_rngs(0, 2))


def test_array_server_reduces_to_parallel_sgd_under_full_participation():
    inst = make_quadratic_instance(4, 3, mu=1.0, smoothness=3.0, sigma=0.6, heterogeneity=1.0, seed=5)
    seed = 9
    model = FullParticipation(4)
    sched = InverseDecay(eta0=0.05)
    result = fedsim.run(fedsim.MifaSpec(), inst, model, sched, horizon=6, n_steps=1, seed=seed)
    # replay: w_{t+1} = w_t - (eta_t / N) sum_i g_i(w_t), with the stochastic
    # gradient g_i = grad_i + sphere noise drawn from device i's stream
    replicas = noise_rngs(seed, 4)
    w = np.zeros(3)
    for t in range(1, 7):
        noise = sphere_noise(np.stack([g.standard_normal(3) for g in replicas]), inst.constants.noise_std)
        grads = np.stack([inst.grad(i, w) for i in range(4)]) + noise
        w = w - sched.eta(t) * grads.mean(axis=0)
    assert np.allclose(result.final_w, w, rtol=1e-12, atol=1e-14)


def test_array_server_updates_even_on_empty_active_set():
    inst = two_center_instance()
    model = TraceReplay(2, [{0, 1}, set(), set()])
    sched = InverseDecay(eta0=0.1)
    result = fedsim.run(fedsim.MifaSpec(), inst, model, sched, horizon=3, n_steps=1, seed=0)
    rows = result.rounds
    # model moved in rounds 2 and 3 despite nobody computing
    assert rows[1].f_gap != rows[2].f_gap
    assert rows[-1].t_prime == 3
    assert rows[-1].oracle_calls == 2  # only round 1 computed


# ---------------------------------------------------------------------------
# running-average (delta) server
# ---------------------------------------------------------------------------


def test_delta_server_first_round_matches_array_server():
    inst = two_center_instance()
    a = server(MifaServer, 2, np.zeros(1))
    b = server(MifaDeltaServer, 2, np.zeros(1))
    play_round(a, 1, {0, 1}, 0.1, inst, 1, noise_rngs(3, 2))
    play_round(b, 1, {0, 1}, 0.1, inst, 1, noise_rngs(3, 2))
    assert np.array_equal(a.w, b.w)


@pytest.mark.parametrize("trial", range(6))
def test_delta_server_matches_array_server_on_random_traces(trial):
    rng = np.random.default_rng(100 + trial)
    n = int(rng.integers(2, 7))
    d = int(rng.integers(1, 5))
    k = int(rng.integers(1, 4))
    inst = make_quadratic_instance(
        n, d, mu=0.5, smoothness=4.0, sigma=0.5, heterogeneity=2.0, seed=trial
    )
    model = BernoulliParticipation(rng.uniform(0.2, 1.0, size=n))
    sched = StronglyConvexDecay(mu=0.5, smoothness=4.0, local_steps=k)
    seed = 1000 + trial
    ra = fedsim.run(fedsim.MifaSpec(), inst, model, sched, horizon=40, n_steps=k, seed=seed)
    rb = fedsim.run(fedsim.MifaDeltaSpec(), inst, model, sched, horizon=40, n_steps=k, seed=seed)
    assert np.array_equal(ra.final_w, rb.final_w)
    assert ra.rounds == rb.rounds


def test_delta_running_average_equals_memory_mean_exactly():
    inst = make_quadratic_instance(3, 2, mu=1.0, smoothness=2.0, sigma=0.4, heterogeneity=1.0, seed=7)
    state = server(MifaDeltaServer, 3, np.zeros(2))
    rngs = noise_rngs(5, 3)
    traces = [frozenset({0, 1, 2}), frozenset({2}), frozenset({0}), frozenset()]
    for t, members in enumerate(traces, start=1):
        play_round(state, t, members, 0.05, inst, 2, rngs)
        assert np.array_equal(state.running_average, exact_mean(state.device_memory, 3))


def test_delta_server_side_memory_is_one_vector():
    state = server(MifaDeltaServer, 5, np.zeros(3))
    # the server-side aggregate is a single length-d vector, the server's
    # window of the batch's sum; besides its model, the server holds only
    # the (N, d) array, which models device-side storage
    assert state.running_average.shape == (3,)
    arrays = {key: value.shape for key, value in vars(state).items() if isinstance(value, np.ndarray)}
    assert arrays == {"w": (3,), "memory": (5, 3)}


# ---------------------------------------------------------------------------
# fresh-update baselines
# ---------------------------------------------------------------------------


def test_biased_single_active_device_moves_toward_its_center():
    inst = two_center_instance()
    state = server(BiasedFedAvgServer, 2, np.zeros(1))
    state.t = 1
    is_empty_before = state.w.copy()
    play_round(state, 2, {0}, 0.1, inst, 1, noise_rngs(0, 2))
    # device 0's gradient at 0 is 0 (its center): no movement toward global optimum 1
    assert state.w[0] == pytest.approx(0.0)
    state2 = server(BiasedFedAvgServer, 2, np.zeros(1))
    state2.t = 1
    play_round(state2, 2, {1}, 0.1, inst, 1, noise_rngs(0, 2))
    # device 1's gradient at 0 is -2: w moves toward device 1's center
    assert state2.w[0] == pytest.approx(0.2, rel=1e-14)
    assert is_empty_before is not state.w


def test_biased_empty_active_set_is_noop():
    inst = two_center_instance()
    state = server(BiasedFedAvgServer, 2, [0.3])
    state.t = state.t_prime = 1
    play_round(state, 2, set(), 0.1, inst, 1, noise_rngs(0, 2))
    assert state.w[0] == 0.3
    assert state.t == 2 and state.t_prime == 1


def test_importance_weighting_with_unit_probs_equals_biased():
    inst = make_quadratic_instance(3, 2, mu=1.0, smoothness=2.0, sigma=0.5, heterogeneity=1.0, seed=8)
    a = server(BiasedFedAvgServer, 3, np.zeros(2))
    b = server(ImportanceFedAvgServer, 3, np.zeros(2), fedsim.ImportanceFedAvgSpec((1.0, 1.0, 1.0), "total_count"))
    full = {0, 1, 2}
    play_round(a, 1, full, 0.1, inst, 2, noise_rngs(4, 3))
    play_round(b, 1, full, 0.1, inst, 2, noise_rngs(4, 3))
    assert np.array_equal(a.w, b.w)


def _expected_importance_update(inst, probs, eta, normalization):
    """Brute-force expectation of the applied update over all active sets."""
    g = np.array([inst.grad(i, np.zeros(1))[0] for i in range(2)])
    exp = 0.0
    for bits in range(4):
        members = frozenset(i for i in range(2) if bits >> i & 1)
        p = 1.0
        for i in range(2):
            p *= probs[i] if i in members else 1.0 - probs[i]
        if not members:
            continue
        denom = len(members) if normalization == "active_count" else 2
        exp += p * (-eta / denom) * sum(g[i] / probs[i] for i in members)
    return exp


def test_importance_weighting_total_count_is_unbiased():
    inst = two_center_instance()
    probs = np.array([0.3, 0.7])
    eta = 0.1
    g = np.array([0.0, -2.0])
    expected = _expected_importance_update(inst, probs, eta, "total_count")
    # the unbiased form recovers the full-gradient step (eta/2)(g0 + g1)
    assert expected == pytest.approx(-eta * g.mean(), rel=1e-12)
    # the literal active-count form does not
    literal = _expected_importance_update(inst, probs, eta, "active_count")
    assert abs(literal - (-eta * g.mean())) > 1e-3


def test_importance_round_matches_enumerated_outcome():
    inst = two_center_instance()
    probs = np.array([0.3, 0.7])
    for members in [frozenset({0}), frozenset({1}), frozenset({0, 1})]:
        state = server(ImportanceFedAvgServer, 2, np.zeros(1), fedsim.ImportanceFedAvgSpec(tuple(probs)))
        state.t = 1
        play_round(state, 2, members, 0.1, inst, 1, noise_rngs(0, 2))
        g = [inst.grad(i, np.zeros(1))[0] / probs[i] for i in sorted(members)]
        assert state.w[0] == pytest.approx(-0.1 * np.mean(g), rel=1e-13)


# ---------------------------------------------------------------------------
# subset-sampling server
# ---------------------------------------------------------------------------


def test_sampling_with_full_subset_equals_biased_under_full_participation():
    inst = make_quadratic_instance(3, 2, mu=1.0, smoothness=2.0, sigma=0.3, heterogeneity=1.0, seed=9)
    model = FullParticipation(3)
    sched = InverseDecay(eta0=0.05)
    ra = fedsim.run(fedsim.SamplingFedAvgSpec(subset_size=3), inst, model, sched, horizon=8, n_steps=2, seed=3)
    rb = fedsim.run(fedsim.BiasedFedAvgSpec(), inst, model, sched, horizon=8, n_steps=2, seed=3)
    assert np.array_equal(ra.final_w, rb.final_w)
    assert [r.t_prime for r in ra.rounds] == [r.t_prime for r in rb.rounds]


def test_sampling_freezes_model_while_waiting():
    inst = make_quadratic_instance(2, 2, mu=1.0, smoothness=2.0, sigma=0.0, heterogeneity=1.0, seed=10)
    # device 1 responds only every 4th round
    model = TraceReplay(2, [{0, 1}, {0}, {0}, {1}, {0, 1}, {0}, {0}, {1}])
    sched = InverseDecay(eta0=0.05)
    runner = fedsim.Runner(
        fedsim.SamplingFedAvgSpec(subset_size=2), inst, model, sched, horizon=8, n_steps=1, seed=0
    )
    result = runner.run()
    gaps = [r.f_gap for r in result.rounds]
    # windows end at rounds 1, 4, 5 and 8; the model is frozen in between
    assert gaps[1] == gaps[2] == gaps[3]
    assert gaps[1] != gaps[4]
    assert runner.state.waits == [1, 3, 1, 3]
    assert sum(runner.state.waits) == 8
    t_primes = [r.t_prime for r in result.rounds]
    assert t_primes == [1, 1, 1, 2, 3, 3, 3, 4]
    assert all(r.t_prime <= r.t for r in result.rounds)


def test_sampling_oracle_calls_count_only_computing_devices():
    inst = make_quadratic_instance(4, 2, mu=1.0, smoothness=2.0, sigma=0.0, heterogeneity=1.0, seed=11)
    model = FullParticipation(4)
    sched = InverseDecay(eta0=0.05)
    res = fedsim.run(fedsim.SamplingFedAvgSpec(subset_size=2), inst, model, sched, horizon=5, n_steps=3, seed=1)
    assert res.rounds[-1].oracle_calls == 5 * 2 * 3  # S devices per round, K steps each


# ---------------------------------------------------------------------------
# runner-level contracts
# ---------------------------------------------------------------------------


def test_runs_are_bit_reproducible():
    inst = make_quadratic_instance(4, 3, mu=1.0, smoothness=4.0, sigma=1.0, heterogeneity=1.0, seed=12)
    model = BernoulliParticipation([0.4, 0.7, 0.9, 1.0])
    sched = StronglyConvexDecay(mu=1.0, smoothness=4.0, local_steps=2)
    a = fedsim.run(fedsim.MifaSpec(), inst, model, sched, horizon=30, n_steps=2, seed=5)
    b = fedsim.run(fedsim.MifaSpec(), inst, model, sched, horizon=30, n_steps=2, seed=5)
    assert a.rounds == b.rounds
    assert np.array_equal(a.final_w, b.final_w)


def test_all_three_memory_algorithms_coincide_under_full_participation():
    inst = make_quadratic_instance(5, 3, mu=1.0, smoothness=5.0, sigma=1.0, heterogeneity=2.0, seed=13)
    model = FullParticipation(5)
    sched = StronglyConvexDecay(mu=1.0, smoothness=5.0, local_steps=3)
    results = [
        fedsim.run(spec, inst, model, sched, horizon=25, n_steps=3, seed=2)
        for spec in (fedsim.MifaSpec(), fedsim.MifaDeltaSpec(), fedsim.BiasedFedAvgSpec())
    ]
    for other in results[1:]:
        assert results[0].rounds == other.rounds
        assert np.array_equal(results[0].final_w, other.final_w)


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_divergence_flags_partial_trajectory():
    inst = make_quadratic_instance(2, 2, mu=1.0, smoothness=10.0, sigma=0.0, heterogeneity=1.0, seed=14)
    model = FullParticipation(2)
    sched = InverseDecay(eta0=1e6)  # wildly unstable
    result = fedsim.run(fedsim.MifaSpec(), inst, model, sched, horizon=50, n_steps=5, seed=0)
    assert result.diverged
    assert len(result.rounds) < 50


# the gap and gradient norm overflow at these iterates
@pytest.mark.filterwarnings("ignore:overflow encountered in matmul:RuntimeWarning")
@pytest.mark.parametrize("w0, eta0, rounds_done", [(1.7e307, 1e-10, 0), (3.3e305, 1.0, 2)])
@pytest.mark.parametrize("name", list(SERVERS))
def test_finite_updates_whose_sum_overflows_flag_divergence(name, w0, eta0, rounds_done):
    # f_i(w) = 5 w^2, so with K = 1 each device sends 10 w: finite while
    # |w| < 1.8e307, yet two of them sum past the largest double from
    # |w| > 9e306 on. w reaches that at once, or after growing 9- then 4-fold.
    # Every server's exact sum rounds to inf there, and the run stops as
    # diverged in that round.
    inst = quadratic_instance_from_arrays(np.full((2, 1, 1), 10.0), np.zeros((2, 1)), sigma=0.0)
    model = FullParticipation(2)

    def run(spec):
        return fedsim.run(spec, inst, model, InverseDecay(eta0), horizon=5, n_steps=1, seed=0, w0=np.array([w0]))

    result = run(SERVERS[name].from_config({"subset_size": 2, "probs": [1.0, 1.0]}, model))
    assert result.diverged
    assert len(result.rounds) == rounds_done
    if name == "mifa":
        assert result.rounds == run(fedsim.MifaDeltaSpec()).rounds


# the gap, the gradient norm and the 1 / p weighting overflow at these iterates
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("normalization", ["active_count", "total_count"])
def test_importance_weighted_updates_that_overflow_flag_divergence(normalization):
    # each device sends a finite 10 w = 1e308, which the weight 1 / 0.5
    # takes past the largest double: the run stops as diverged in round 1
    inst = quadratic_instance_from_arrays(np.full((2, 1, 1), 10.0), np.zeros((2, 1)), sigma=0.0)
    spec = fedsim.ImportanceFedAvgSpec(probs=(0.5, 0.5), normalization=normalization)
    result = fedsim.run(
        spec, inst, FullParticipation(2), InverseDecay(1e-10), horizon=5, n_steps=1, seed=0, w0=np.array([1e307])
    )
    assert result.diverged
    assert result.rounds == []


# the gap and gradient norm overflow at these iterates
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_sign_flipping_updates_whose_difference_overflows_keep_mifa_delta_equal_to_mifa():
    # one device, f(w) = 5 w^2, K = 1 and eta_t = 0.5 / t: w is multiplied
    # by -4, then by -1.5, so the device sends 4e307, then -1.6e308. Both are
    # finite, but their difference is not a double; round 3's update, 2.4e308,
    # is not finite either, and both runs stop there.
    inst = quadratic_instance_from_arrays(np.full((1, 1, 1), 10.0), np.zeros((1, 1)), sigma=0.0)

    def run(spec):
        return fedsim.run(spec, inst, FullParticipation(1), InverseDecay(0.5), horizon=5, n_steps=1, seed=0,
                          w0=np.array([4e306]))

    mifa, delta = run(fedsim.MifaSpec()), run(fedsim.MifaDeltaSpec())
    assert mifa.diverged and delta.diverged
    assert len(mifa.rounds) == 2
    assert mifa.rounds == delta.rounds
    assert np.array_equal(mifa.final_w, delta.final_w)


# ---------------------------------------------------------------------------
# runs in a batch
# ---------------------------------------------------------------------------


BATCH_INSTANCES = {
    "quadratic": make_quadratic_instance(4, 2, mu=1.0, smoothness=5.0, sigma=0.6, heterogeneity=2.0, seed=31),
    "trig": make_nonconvex_instance(4, 3, curvature=1.0, amplitude=0.5, sigma=0.4, heterogeneity=2.0, seed=31),
}
BATCH_MODEL = BernoulliParticipation([0.9, 0.6, 0.4, 0.3])
BATCH_HORIZON = 12
# every server, plus two that diverge: a huge step overflows the local
# iterates within a few rounds, and tiny weights overflow is_fedavg's update
BATCH_RUNS = {
    **{name: (SERVERS[name].from_config({"subset_size": 2}, BATCH_MODEL), None) for name in SERVERS},
    "huge_step": (fedsim.BiasedFedAvgSpec(), InverseDecay(eta0=1e30)),
    "tiny_weights": (fedsim.ImportanceFedAvgSpec(probs=(1e-300,) * 4), None),
}


def batch_runner(kind, run, seed, n_steps):
    inst = BATCH_INSTANCES[kind]
    spec, schedule = BATCH_RUNS[run]
    if schedule is None:
        schedule = (StronglyConvexDecay(mu=1.0, smoothness=5.0, local_steps=n_steps) if kind == "quadratic"
                    else InverseDecay(eta0=0.05))
    return fedsim.Runner(spec, inst, BATCH_MODEL, schedule, horizon=BATCH_HORIZON, n_steps=n_steps, seed=seed)


# the diverging runs overflow their metrics and iterates on purpose
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(sorted(BATCH_INSTANCES)),
    runs=st.lists(st.tuples(st.sampled_from(sorted(BATCH_RUNS)), st.integers(0, 2)), min_size=1, max_size=6),
    n_steps=st.integers(1, 2),
    at=st.integers(0, BATCH_HORIZON),
)
def test_a_run_does_not_depend_on_its_batch(kind, runs, n_steps, at):
    # each run of a batch gives the result of the same run alone, whichever
    # runs share the batch and whether they diverge; a repeated (run, seed)
    # pair is a twin, whose rows the batch computes once
    results = fedsim.Batch([batch_runner(kind, run, seed, n_steps) for run, seed in runs]).run()
    for (run, seed), result in zip(runs, results):
        alone = batch_runner(kind, run, seed, n_steps).run()
        assert repr(result.rounds) == repr(alone.rounds)
        assert np.array_equal(result.final_w, alone.final_w, equal_nan=True)
        assert (result.diverged, result.staleness, result.final_avg_gap) == (
            alone.diverged, alone.staleness, alone.final_avg_gap)
    # and a batched run that reaches round ``at`` checkpoints as it would alone
    runners = [batch_runner(kind, run, seed, n_steps) for run, seed in runs]
    fedsim.Batch(runners).run_rounds(at)
    alones = [batch_runner(kind, run, seed, n_steps) for run, seed in runs]
    for runner, alone in zip(runners, alones):
        fedsim.Batch([alone]).run_rounds(at)
        assert str(runner.divergence) == str(alone.divergence)
        if runner.divergence is None:
            assert json.dumps(runner.checkpoint()) == json.dumps(alone.checkpoint())
    # split the batch: the first live run plays on alone to the horizon, which
    # leaves every other run's staleness at round ``at``, and each of them
    # then plays on alone as its solo run does
    live = [k for k, runner in enumerate(runners) if runner.divergence is None]
    if live:
        fedsim.Batch([runners[live[0]]]).run_rounds(BATCH_HORIZON)
    for k, (runner, alone) in enumerate(zip(runners, alones)):
        if live and k != live[0]:
            assert runner.result().staleness == alone.result().staleness
            fedsim.Batch([runner]).run_rounds(BATCH_HORIZON)
            fedsim.Batch([alone]).run_rounds(BATCH_HORIZON)
            assert repr(runner.rows) == repr(alone.rows) and str(runner.divergence) == str(alone.divergence)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("kind", sorted(BATCH_INSTANCES))
def test_a_diverged_run_reports_the_staleness_of_the_round_it_stopped_in(kind):
    # the huge step diverges in round r > 2; the run beside it plays on
    runners = [batch_runner(kind, "huge_step", 2, 1), batch_runner(kind, "mifa", 2, 1)]
    diverged, going = fedsim.Batch(runners).run()
    r = len(diverged.rounds) + 1
    assert diverged.diverged and r > 2 and [row.t for row in diverged.rounds] == list(range(1, r))
    assert diverged.staleness == realized_staleness(BATCH_MODEL, 2, r)
    assert going.staleness == realized_staleness(BATCH_MODEL, 2, BATCH_HORIZON)


def counting_kernels(monkeypatch):
    """Counts of the rows the K-step kernels compute ("rows") and of the
    ``local_update`` draws ("draws") made from here on."""
    counts = {"rows": 0, "draws": 0}
    for name in ("quad_local_sgd", "trig_local_sgd"):
        def counted(*args, kernel=getattr(fedsim._kernels, name)):
            counts["rows"] += len(args[-4])  # the (A, d) block of starting models
            return kernel(*args)
        monkeypatch.setattr(fedsim._kernels, name, counted)

    def counted_draw(*args, draw=fedsim.algorithms.local_update):
        counts["draws"] += 1
        return draw(*args)

    monkeypatch.setattr(fedsim.algorithms, "local_update", counted_draw)
    return counts


def assert_runs_alone_alike(results, runners):
    for result, runner in zip(results, runners):
        alone = runner.run()
        assert repr(result.rounds) == repr(alone.rounds)
        assert np.array_equal(result.final_w, alone.final_w, equal_nan=True)
        assert (result.diverged, result.staleness) == (alone.diverged, alone.staleness)


@pytest.mark.parametrize("kind", sorted(BATCH_INSTANCES))
def test_twin_runs_compute_each_local_update_once(monkeypatch, kind):
    # mifa and mifa_delta of one seed hold bitwise-equal models every round
    counts = counting_kernels(monkeypatch)
    runners = [batch_runner(kind, name, 1, 2) for name in ("mifa", "mifa_delta")]
    results = fedsim.Batch(runners).run()
    updates = runners[0].oracle_calls // 2
    assert runners[1].oracle_calls // 2 == updates
    assert counts == {"rows": updates, "draws": 2 * updates}
    assert_runs_alone_alike(results, [batch_runner(kind, name, 1, 2) for name in ("mifa", "mifa_delta")])


def test_twins_whose_draws_differ_compute_their_own_rows(monkeypatch):
    def pair():
        runners = [batch_runner("trig", "mifa", 1, 2) for _ in range(2)]
        runners[1].noise_rngs[0].standard_normal(1)  # device 0 of the second run draws other noise
        return runners

    counts = counting_kernels(monkeypatch)
    fedsim.Batch(pair()).run_rounds(1)
    # every device computes in round 1; device 0's draws differ, so the second run computes all its rows
    assert counts == {"rows": 2 * 4, "draws": 2 * 4}
    counts.update(rows=0, draws=0)
    results = fedsim.Batch(pair()).run()
    # from round 2 on the models differ too
    assert counts["rows"] == counts["draws"]
    assert_runs_alone_alike(results, pair())


@pytest.mark.parametrize("names", [("mifa", "mifa_delta"), ("mifa",)])
@pytest.mark.parametrize("kind", sorted(BATCH_INSTANCES))
def test_no_draw_block_is_alive_in_the_kernels_or_the_exact_sum(monkeypatch, kind, names):
    # a raw draw block kept alive past its normalisation slows the
    # allocations of the kernels and of the exact sum, with equal outputs
    blocks, calls = [], []

    def draw_block(*args, draw=fedsim.algorithms._draw_block):
        block = draw(*args)
        blocks.append(weakref.ref(block))
        return block

    def no_block_alive(owner, name):
        def checked(*args, original=getattr(owner, name)):
            calls.append(name)
            assert all(block() is None for block in blocks), f"a draw block is alive in {name}"
            return original(*args)
        monkeypatch.setattr(owner, name, checked)

    monkeypatch.setattr(fedsim.algorithms, "_draw_block", draw_block)
    no_block_alive(fedsim._kernels, "quad_local_sgd")
    no_block_alive(fedsim._kernels, "trig_local_sgd")
    no_block_alive(fedsim.algorithms.ExactVectorSum, "add")
    fedsim.Batch([batch_runner(kind, name, 1, 2) for name in names]).run()
    assert len(blocks) == BATCH_HORIZON
    assert calls.count("quad_local_sgd" if kind == "quadratic" else "trig_local_sgd") == BATCH_HORIZON
    assert calls.count("add") >= BATCH_HORIZON


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_diverging_twins_stop_with_the_solo_runs_message(monkeypatch):
    counts = counting_kernels(monkeypatch)
    runners = [batch_runner("quadratic", "huge_step", 0, 1) for _ in range(2)]
    results = fedsim.Batch(runners).run()
    assert 2 * counts["rows"] == counts["draws"]
    alone = batch_runner("quadratic", "huge_step", 0, 1)
    with pytest.raises(DivergenceError) as stopped:
        alone.run_rounds(BATCH_HORIZON)
    for runner in runners:
        assert str(runner.divergence) == str(stopped.value)
        assert runner.rounds_done == alone.rounds_done
    assert_runs_alone_alike(results, [batch_runner("quadratic", "huge_step", 0, 1) for _ in range(2)])


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_a_diverged_run_cannot_be_checkpointed():
    # its noise streams and server already hold the round it stopped in, so
    # a restore would replay that round from advanced streams
    runner = batch_runner("quadratic", "huge_step", 0, 1)
    with pytest.raises(DivergenceError):
        runner.run_rounds(BATCH_HORIZON)
    assert (runner.rounds_done, runner.state.t) == (10, 11)
    with pytest.raises(ValueError, match="divergence"):
        runner.checkpoint()


def test_a_batch_rejects_runs_it_cannot_play_in_lockstep():
    inst = BATCH_INSTANCES["quadratic"]
    first = batch_runner("quadratic", "mifa", 0, 1)
    others = [batch_runner("trig", "mifa", 0, 1), batch_runner("quadratic", "mifa", 0, 2),
              fedsim.Runner(fedsim.MifaSpec(), inst, FullParticipation(4), InverseDecay(0.1), BATCH_HORIZON, 1, 0)]
    for other in others:
        with pytest.raises(ValueError, match="share their instance"):
            fedsim.Batch([first, other])
    ahead = batch_runner("quadratic", "mifa", 1, 1)
    ahead.run_rounds(2)
    with pytest.raises(ValueError, match="same rounds"):
        fedsim.Batch([first, ahead])
    with pytest.raises(ValueError, match="at least one run"):
        fedsim.Batch([])


def test_a_batch_names_a_run_listed_twice():
    first, other = batch_runner("quadratic", "mifa", 0, 1), batch_runner("quadratic", "mifa", 1, 1)
    with pytest.raises(ValueError, match="the runs at positions 0 and 2 are one run"):
        fedsim.Batch([first, other, first])


def test_run_rounds_names_an_upto_past_the_horizon():
    runner = batch_runner("quadratic", "mifa", 0, 1)
    for advance in (runner.run_rounds, fedsim.Batch([runner]).run_rounds):
        with pytest.raises(ValueError, match=f"^upto {BATCH_HORIZON + 1} is past the horizon {BATCH_HORIZON}$"):
            advance(BATCH_HORIZON + 1)
    assert runner.rounds_done == 0
    assert len(runner.run_rounds(BATCH_HORIZON)) == BATCH_HORIZON


@pytest.mark.parametrize("w0, message", [(np.zeros(3), r"w0 has shape \(3,\), the instance's models have shape \(2,\)"),
                                         (np.zeros((1, 2)), r"w0 has shape \(1, 2\)"),
                                         (np.array([0.0, np.nan]), "w0 must be finite"),
                                         (np.array([np.inf, 0.0]), "w0 must be finite")])
def test_run_names_a_w0_of_another_shape_or_not_finite(w0, message):
    inst = make_quadratic_instance(3, 2, mu=1.0, smoothness=3.0, sigma=0.5, heterogeneity=1.0, seed=16)
    with pytest.raises(ValueError, match=message):
        fedsim.run(fedsim.MifaSpec(), inst, FullParticipation(3), InverseDecay(0.1), horizon=5, n_steps=1, seed=0, w0=w0)


def test_a_direct_is_fedavg_spec_for_another_device_count_is_a_value_error():
    inst = make_quadratic_instance(3, 2, mu=1.0, smoothness=3.0, sigma=0.5, heterogeneity=1.0, seed=16)
    with pytest.raises(ValueError, match="probs holds 1 probabilities for 3 devices"):
        fedsim.run(fedsim.ImportanceFedAvgSpec(probs=(1.0,)), inst, FullParticipation(3), InverseDecay(0.1),
                   horizon=5, n_steps=1, seed=0)


def test_update_array_matches_checkpoint_replay():
    # every stored update replays from a checkpoint taken before the round
    # in which its device last computed: the checkpoint holds w and the
    # device's noise stream
    inst = make_quadratic_instance(3, 2, mu=1.0, smoothness=3.0, sigma=0.7, heterogeneity=1.0, seed=15)
    model = BernoulliParticipation([0.5, 0.8, 1.0])
    sched = StronglyConvexDecay(mu=1.0, smoothness=3.0, local_steps=2)
    runner = fedsim.Runner(fedsim.MifaSpec(), inst, model, sched, horizon=20, n_steps=2, seed=6)
    mask = model.mask(6, 1, 21)
    last = {}
    for t in range(1, 21):
        snap = json.loads(json.dumps(runner.checkpoint()))
        last.update((i, (t, snap)) for i in np.flatnonzero(mask[t - 1]))
        runner.run_rounds(t)
    from fedsim.rng import restore_generator

    for i, (t, snap) in last.items():
        replayed = device_update(
            inst, i, np.asarray(snap["server"]["w"]), sched.eta(t), 2, restore_generator(snap["noise_rngs"][i])
        )
        assert np.array_equal(replayed, runner.state.update_array[i])


def checkpoint_runner(name):
    """A fresh 40-round runner of algorithm ``name`` on the checkpoint tests' setup."""
    inst = make_quadratic_instance(3, 2, mu=1.0, smoothness=3.0, sigma=0.5, heterogeneity=1.0, seed=16)
    model = BernoulliParticipation([0.5, 0.8, 1.0])
    sched = StronglyConvexDecay(mu=1.0, smoothness=3.0, local_steps=2)
    spec = SERVERS[name].from_config({"subset_size": 2}, model)
    return fedsim.Runner(spec, inst, model, sched, horizon=40, n_steps=2, seed=8)


@pytest.mark.parametrize("k", [1, 5])
def test_a_restored_run_reports_the_staleness_of_its_checkpoints_round(k):
    # restored into a run that played 9 rounds, and not yet advanced
    first, second = checkpoint_runner("mifa"), checkpoint_runner("mifa")
    first.run_rounds(k)
    second.run_rounds(9)
    second.restore(json.loads(json.dumps(first.checkpoint())))
    expected = realized_staleness(second.model, second.seed, k) if k >= 2 else None
    assert second.result().staleness == expected == first.result().staleness


@pytest.mark.parametrize("name", list(SERVERS))
def test_checkpoint_resume_reproduces_trajectory(name):
    def make_runner():
        return checkpoint_runner(name)

    full = make_runner()
    rows_full = list(full.run_rounds(40))

    first = make_runner()
    rows_head = list(first.run_rounds(17))
    snapshot = json.loads(json.dumps(first.checkpoint()))  # prove JSON-lossless

    second = make_runner()
    second.restore(snapshot)
    rows_tail = list(second.run_rounds(40))
    assert rows_head + rows_tail == rows_full
    assert np.array_equal(second.state.w, full.state.w)


@pytest.mark.parametrize("name", list(SERVERS))
def test_a_held_batch_resumes_a_restored_run_from_its_checkpoint(name):
    # the batch rebuilds a memory run's window from its table whenever it
    # starts to advance, so a run restored between two advances of one batch
    # plays on from the checkpoint's table, not from the batch's old window
    first = checkpoint_runner(name)
    first.run_rounds(3)
    snapshot = json.loads(json.dumps(first.checkpoint()))
    alone = checkpoint_runner(name)
    alone.restore(snapshot)
    rows = list(alone.run_rounds(12))
    held = checkpoint_runner(name)
    batch = fedsim.Batch([held])
    batch.run_rounds(6)
    held.restore(snapshot)
    batch.run_rounds(12)
    assert held.rows == rows
    assert np.array_equal(held.state.w, alone.state.w)


def test_a_held_batch_links_a_restored_run_to_its_seeds_tracker_again():
    # a restored run holds no participation sampler; the batch
    # gives the runs of each seed one sampler that stands at their round
    # whenever it starts to advance, so the other run of the seed keeps
    # counting its rounds
    inst = make_quadratic_instance(5, 2, mu=1.0, smoothness=3.0, sigma=0.5, heterogeneity=1.0, seed=16)
    model = BernoulliParticipation([0.3, 0.5, 0.7, 0.9, 1.0])
    sched = StronglyConvexDecay(mu=1.0, smoothness=3.0, local_steps=2)

    def runner(spec):
        return fedsim.Runner(spec, inst, model, sched, horizon=12, n_steps=2, seed=8)

    specs = (fedsim.MifaSpec(), fedsim.BiasedFedAvgSpec())
    held = [runner(spec) for spec in specs]
    batch = fedsim.Batch(held)
    batch.run_rounds(6)
    held[0].restore(json.loads(json.dumps(held[0].checkpoint())))
    batch.run_rounds(12)
    for spec, run in zip(specs, held):
        alone = runner(spec).run()
        result = run.result()
        assert result.staleness == alone.staleness
        assert result.rounds == alone.rounds[6:]
        assert np.array_equal(result.final_w, alone.final_w)

def resized(key, rows, cols=2):
    """An edit of a checkpoint that makes its server's ``key`` table rows x cols."""
    def edit(snapshot):
        snapshot["server"][key] = np.ones((rows, cols)).tolist()
    return edit


def ragged(key, row, length):
    """An edit of a checkpoint that makes row ``row`` of its server's ``key`` table ``length`` long."""
    def edit(snapshot):
        snapshot["server"][key][row] = [1.0] * length
    return edit


def drop_noise_stream(snapshot):
    snapshot["noise_rngs"].pop()


def lengthen_averaged(snapshot):
    snapshot["averaged"]["weighted_sum"].append(1.0)


def pend_device_3(snapshot):
    snapshot["server"]["pending"] = [0, 3]


def collect(device, value):
    """An edit of a sampling_fedavg checkpoint that adds a collected update."""
    def edit(snapshot):
        snapshot["server"]["collected"].insert(0, {"device": device, "value": value})
    return edit


ANOTHER_SIZE = [
    pytest.param(name, n_devices, dim, None, message, id=f"{n_devices}-{dim}-{message}-{name}")
    for n_devices, dim, message in ((4, 2, "holds 3 devices in dimension 2, this run has 4 devices"),
                                    (3, 5, "in dimension 2, this run has 3 devices in dimension 5"))
    for name in SERVERS
] + [
    # checkpoints edited to hold a per-device field of another size, restored
    # into the run of 3 devices in dimension 2 they were taken from
    *[(name, 3, 2, resized(key, *shape), rf"server.{key} has shape \({shape[0]}, {shape[1]}\), this run's has shape \(3, 2\)")
      for name, key in (("mifa", "update_array"), ("mifa_delta", "device_memory")) for shape in ((5, 2), (1, 2), (3, 3))],
    *[(name, 3, 2, drop_noise_stream, "holds 2 devices in dimension 2, this run has 3 devices") for name in SERVERS],
    *[(name, 3, 2, lengthen_averaged, r"averaged.weighted_sum has shape \(3,\), this run's has shape \(2,\)")
      for name in SERVERS],
    ("sampling_fedavg", 3, 2, pend_device_3, "server.pending holds device 3, this run has 3 devices"),
    ("sampling_fedavg", 3, 2, collect(7, [1.0, 2.0]), "server.collected holds device 7, this run has 3 devices"),
    ("sampling_fedavg", 3, 2, collect(0, [1.0, 2.0, 3.0]), r"server.collected has shape \(3,\), this run's has shape \(2,\)"),
    # a table whose rows differ in length, which numpy gives no shape
    *[(name, 3, 2, ragged(key, row, length), rf"server.{key} row {row} has length {length}, this run's rows have length 2")
      for name, key in (("mifa", "update_array"), ("mifa_delta", "device_memory")) for row, length in ((0, 1), (2, 3))],
]


@pytest.mark.parametrize("name, n_devices, dim, edit, message", ANOTHER_SIZE)
def test_restore_names_a_checkpoint_of_another_size(name, n_devices, dim, edit, message):
    first = checkpoint_runner(name)
    first.run_rounds(5)
    snapshot = json.loads(json.dumps(first.checkpoint()))
    if edit is not None:
        edit(snapshot)
    inst = make_quadratic_instance(n_devices, dim, mu=1.0, smoothness=3.0, sigma=0.5, heterogeneity=1.0, seed=16)
    # the checkpoint's own run when the sizes agree
    model = BernoulliParticipation(([0.5, 0.8, 1.0] + [0.5] * n_devices)[:n_devices])
    spec = SERVERS[name].from_config({"subset_size": 2}, model)
    other = fedsim.Runner(spec, inst, model, StronglyConvexDecay(mu=1.0, smoothness=3.0, local_steps=2),
                          horizon=40, n_steps=2, seed=8)
    with pytest.raises(ValueError, match=message):
        other.restore(snapshot)


DATA = Path(__file__).parent / "data"


def version_2_checkpoint(name):
    """Algorithm ``name``'s checkpoint at round 21, as the version-2 format
    wrote it: ``mifa_delta`` also stored its exact sum as limbs, and each
    entry ``sampling_fedavg`` had collected also held its producing round."""
    with open(DATA / "checkpoints_v2_round21.json") as fh:
        return json.load(fh)[name]


def assert_resumes_identically(name, snapshot, at):
    full = checkpoint_runner(name)
    rows_full = list(full.run_rounds(40))
    assert snapshot["rounds_done"] == at
    resumed = checkpoint_runner(name)
    resumed.restore(snapshot)
    assert list(resumed.run_rounds(40)) == rows_full[at:]
    assert np.array_equal(resumed.state.w, full.state.w)


@pytest.mark.parametrize("name", list(SERVERS))
def test_version_1_checkpoint_resumes_identically(name):
    if name == "mifa_delta":
        # written at round 17 by the version-1 format, which stored the exact
        # sum as per-coordinate Shewchuk partials
        with open(DATA / "mifa_delta_checkpoint_v1_round17.json") as fh:
            snapshot = json.load(fh)
        assert snapshot["server"]["exact_sum"]["partials"]
        at = 17
    else:
        # every other server's state is the same in versions 1 and 2
        snapshot, at = version_2_checkpoint(name), 21
        snapshot["version"] = 1
    assert snapshot["version"] == 1
    assert_resumes_identically(name, snapshot, at)


@pytest.mark.parametrize("name", list(SERVERS))
def test_version_2_checkpoint_resumes_identically(name):
    snapshot = version_2_checkpoint(name)
    assert snapshot["version"] == 2
    if name == "mifa_delta":
        assert snapshot["server"]["exact_sum"]["limbs"]
    if name == "sampling_fedavg":
        assert snapshot["server"]["collected"] and "produced_at" in snapshot["server"]["collected"][0]
    assert_resumes_identically(name, snapshot, 21)


@pytest.mark.parametrize("name", list(SERVERS))
def test_version_3_checkpoint_resumes_identically(name):
    # version 3 is version 2 without mifa_delta's exact sum and the
    # producing rounds of sampling_fedavg's collected entries
    snapshot = version_2_checkpoint(name)
    snapshot["version"] = 3
    snapshot["server"].pop("exact_sum", None)
    for entry in snapshot["server"].get("collected", []):
        del entry["produced_at"]
    assert_resumes_identically(name, snapshot, 21)


def version_5_checkpoint(name):
    """Algorithm ``name``'s checkpoint at round 21, as the version-5 format
    wrote it: it also held the staleness tracker, the server's round, the
    averaged iterate's shift, dimension and rounds seen, and the subset size
    of ``sampling_fedavg``."""
    with open(DATA / "checkpoints_v5_round21.json") as fh:
        return json.load(fh)[name]


def edit_version_5_copies(snapshot):
    """Set the copies a version-5 checkpoint holds to other values: its
    shift is that of delay offset 5, its round 6, and its staleness short."""
    snapshot["tracker"].update(round=6, staleness=[0], folded_sum=-1)
    snapshot["server"]["t"] = 6
    snapshot["averaged"].update(shift=1039.2304845413264, dim=5, rounds_seen=6)


@pytest.mark.parametrize("edit", [None, edit_version_5_copies])
@pytest.mark.parametrize("name", list(SERVERS))
def test_version_5_checkpoint_resumes_identically(name, edit):
    # the copies of the round, the staleness and the schedule are not read
    snapshot = version_5_checkpoint(name)
    assert snapshot["version"] == 5
    assert snapshot["tracker"]["round"] == snapshot["server"]["t"] == snapshot["averaged"]["rounds_seen"] == 21
    if edit is not None:
        edit(snapshot)
    assert_resumes_identically(name, snapshot, 21)


@pytest.mark.parametrize("name", list(SERVERS))
def test_checkpoints_are_version_6_holding_each_value_once(name):
    runner = checkpoint_runner(name)
    runner.run_rounds(21)
    snapshot = json.loads(json.dumps(runner.checkpoint()))
    assert snapshot["version"] == 6
    assert (snapshot["seed"], snapshot["horizon"], snapshot["n_steps"]) == (8, 40, 2)
    assert snapshot["spec"]["name"] == name
    assert snapshot["schedule"] == {"class": "StronglyConvexDecay", "mu": 1.0, "smoothness": 3.0, "local_steps": 2,
                                    "delay_offset": 0.0}
    assert "tracker" not in snapshot and "sampler" not in snapshot
    assert set(snapshot["averaged"]) == {"weighted_sum", "weight_total"}
    assert {"t", "subset_size", "exact_sum"}.isdisjoint(snapshot["server"])
    if name == "sampling_fedavg":
        assert snapshot["spec"]["subset_size"] == 2
        assert [set(entry) for entry in snapshot["server"]["collected"]] == [{"device", "value"}]
    # every value it holds is the version-5 checkpoint's, which held the dropped copies too
    older = version_5_checkpoint(name)
    del older["tracker"], older["server"]["t"]
    older["server"].pop("subset_size", None)
    for key in ("shift", "dim", "rounds_seen"):
        del older["averaged"][key]
    assert snapshot == {**older, "version": 6, "schedule": snapshot["schedule"]}
    assert_resumes_identically(name, snapshot, 21)


def round_21_checkpoints() -> dict:
    """Every server's checkpoint at round 21 on the checkpoint tests' setup,
    through JSON, keyed by algorithm."""
    snapshots = {}
    for name in SERVERS:
        runner = checkpoint_runner(name)
        runner.run_rounds(21)
        snapshots[name] = json.loads(json.dumps(runner.checkpoint()))
    return snapshots


@pytest.mark.parametrize("name", list(SERVERS))
def test_version_6_checkpoint_resumes_identically(name):
    # recorded by the version-6 format; the current format writes the same values
    with open(DATA / "checkpoints_v6_round21.json") as fh:
        snapshot = json.load(fh)[name]
    assert snapshot["version"] == 6
    assert_resumes_identically(name, snapshot, 21)


@pytest.mark.parametrize("name", list(SERVERS))
def test_version_4_checkpoint_resumes_identically(name):
    # version 4 is version 5 without the run's seed, horizon, steps and spec
    snapshot = version_5_checkpoint(name)
    for key in ("spec", "seed", "horizon", "n_steps"):
        del snapshot[key]
    snapshot["version"] = 4
    assert_resumes_identically(name, snapshot, 21)


def test_restore_names_a_round_past_the_horizon():
    snapshot = version_5_checkpoint("mifa")
    snapshot["rounds_done"] = 41
    with pytest.raises(ValueError, match="^checkpoint rounds_done is 41, this run's horizon is 40$"):
        checkpoint_runner("mifa").restore(snapshot)


def without(path):
    """An edit that deletes the dotted ``path`` from a checkpoint."""
    def edit(snapshot):
        *groups, key = path.split(".")
        for group in groups:
            snapshot = snapshot[group]
        del snapshot[key]
    return edit


def malformed_noise_stream(snapshot):
    snapshot["noise_rngs"][1] = {"bit_generator": "PCG64", "state": {"state": "x"}}


BAD_FIELDS = [
    *[("mifa", without(key), key) for key in ("version", "algorithm", "rounds_done", "oracle_calls", "min_grad_sq",
                                              "server", "noise_rngs", "subset_rng", "averaged", "server.w",
                                              "server.update_array")],
    ("mifa_delta", without("server.device_memory"), "server.device_memory"),
    ("sampling_fedavg", without("subset_rng"), "subset_rng"),
    ("sampling_fedavg", without("server.window_start"), "server.window_start"),
    ("biased_fedavg", without("averaged.weight_total"), "averaged.weight_total"),
    ("is_fedavg", malformed_noise_stream, "noise_rngs[1]"),
]


@functools.cache
def round_3_checkpoint(name):
    """Algorithm ``name``'s checkpoint at round 3, as JSON text, so that
    every test edits a copy of its own."""
    first = checkpoint_runner(name)
    first.run_rounds(3)
    return json.dumps(first.checkpoint())


def assert_refused_leaving_the_run_as_it_was(name, snapshot, message):
    """Restoring ``snapshot`` into a round-6 run of ``name`` raises a
    ``ValueError`` matching ``message``, and the run plays on as if it had
    not been tried."""
    runner, untouched = checkpoint_runner(name), checkpoint_runner(name)
    runner.run_rounds(6)
    untouched.run_rounds(6)
    with pytest.raises(ValueError, match=message):
        runner.restore(snapshot)
    assert json.dumps(runner.checkpoint()) == json.dumps(untouched.checkpoint())
    assert runner.run_rounds(40) == untouched.run_rounds(40)
    assert np.array_equal(runner.state.w, untouched.state.w)


@pytest.mark.parametrize("name, edit, field", BAD_FIELDS, ids=[f"{name}-{field}" for name, _, field in BAD_FIELDS])
def test_restore_names_a_missing_or_malformed_field_and_leaves_the_run_as_it_was(name, edit, field):
    snapshot = json.loads(round_3_checkpoint(name))
    edit(snapshot)
    assert_refused_leaving_the_run_as_it_was(name, snapshot, f"^checkpoint {re.escape(field)} is (missing|malformed)")


def setting(path, value):
    """An edit that sets the dotted ``path`` of a checkpoint to ``value``."""
    def edit(snapshot):
        *groups, key = path.split(".")
        for group in groups:
            snapshot = snapshot[group]
        snapshot[key] = value
    return edit


def pend_the_collected_device(snapshot):
    snapshot["server"]["pending"].append(snapshot["server"]["collected"][0]["device"])


def first_entry(key, value):
    """An edit that sets ``key`` of the first entry of ``server.update_array`` or ``server.w`` to ``value``."""
    def edit(snapshot):
        table = snapshot["server"][key]
        (table[0] if isinstance(table[0], list) else table)[0] = value
    return edit


REFUSED_VALUES = [
    ("mifa", setting("rounds_done", 3.7), "rounds_done"),
    ("mifa", setting("rounds_done", True), "rounds_done"),
    ("biased_fedavg", setting("oracle_calls", 2.5), "oracle_calls"),
    ("sampling_fedavg", setting("server.pending", [1.5]), "server.pending"),
    ("sampling_fedavg", setting("server.window_start", 2.9), "server.window_start"),
    ("sampling_fedavg", pend_the_collected_device, "server.collected"),
    ("mifa", setting("min_grad_sq", float("nan")), "min_grad_sq"),
    ("mifa", setting("min_grad_sq", "1e5"), "min_grad_sq"),
    ("mifa", first_entry("update_array", float("nan")), "server.update_array"),
    ("mifa", first_entry("w", True), "server.w"),  # numpy would promote a bool among numbers to 1.0 or 0.0
    ("mifa", lambda snapshot: snapshot["server"]["update_array"][1].__setitem__(1, False), "server.update_array"),
    ("is_fedavg", first_entry("w", float("inf")), "server.w"),
    ("mifa_delta", setting("spec", None), "spec"),
    ("mifa", setting("schedule", [1]), "schedule"),
    ("biased_fedavg", setting("averaged", [1]), "averaged"),
    ("biased_fedavg", setting("averaged.weight_total", -5.0), "averaged.weight_total"),
    ("mifa", setting("server", None), "server"),
    ("is_fedavg", setting("noise_rngs", None), "noise_rngs"),
    ("sampling_fedavg", lambda snapshot: snapshot["server"]["collected"][0].pop("value"), "server.collected"),
]


@pytest.mark.parametrize("name, edit, field", REFUSED_VALUES, ids=[f"{name}-{field}-{k}"
                                                                  for k, (name, _, field) in enumerate(REFUSED_VALUES)])
def test_restore_names_a_field_of_the_wrong_type_or_range_and_leaves_the_run_as_it_was(name, edit, field):
    snapshot = json.loads(round_3_checkpoint(name))
    edit(snapshot)
    assert_refused_leaving_the_run_as_it_was(name, snapshot, f"^checkpoint {re.escape(field)}[ .]")


def corruptible(snapshot):
    """The (path, field) pairs of a checkpoint that a corruption can target:
    a key of the checkpoint or of its groups (spec, schedule, server,
    averaged), then any list indices below it; ``field`` is its dotted key
    path. The generator states are numpy's, so only they, not their keys, are
    targets."""
    def below(path, field, value):
        yield path, field
        if isinstance(value, list):
            for i, item in enumerate(value):
                yield from below((*path, i), field, item)

    for key, value in snapshot.items():
        yield from below((key,), key, value)
        if isinstance(value, dict) and key != "subset_rng":
            for inner, item in value.items():
                yield from below((key, inner), f"{key}.{inner}", item)


DELETE = object()


def corruptions(value, deletable):
    """The corrupted values of ``value`` by kind: deleted, null, of another
    type, a bool (equal to a 0 or a 1), fractional, out of range, non-finite
    or too long."""
    out = {"delete": DELETE} if deletable else {}
    out.update(null=None, type=[1] if isinstance(value, dict) else "x" if isinstance(value, list) else
               1 if isinstance(value, str) else str(value))
    if isinstance(value, (int, float)):
        out["bool"] = bool(value)
    if isinstance(value, int):
        out.update(fractional=value + 0.5, negative=-1, huge=10**6)
    if isinstance(value, float):
        out.update(nan=float("nan"), minus_inf=-float("inf"))
    if isinstance(value, list) and value:
        out["too long"] = value + value[-1:]
    return out


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_restore_refuses_any_corrupted_field_and_leaves_the_run_as_it_was(data):
    name = data.draw(st.sampled_from(list(SERVERS)), label="server")
    snapshot = json.loads(round_3_checkpoint(name))
    path, field = data.draw(st.sampled_from(list(corruptible(snapshot))), label="target")
    *groups, last = path
    holder = functools.reduce(lambda node, key: node[key], groups, snapshot)
    kind, value = data.draw(st.sampled_from(list(corruptions(holder[last], isinstance(last, str)).items())),
                            label="corruption")
    if value is DELETE:
        del holder[last]
    else:
        holder[last] = value
    assert_refused_leaving_the_run_as_it_was(name, snapshot, f"^checkpoint {re.escape(field)}([ .\\[]|$)")


def mismatched_runner(name, **changes):
    """``checkpoint_runner(name)`` with one of its settings changed."""
    inst = make_quadratic_instance(3, 2, mu=1.0, smoothness=3.0, sigma=0.5, heterogeneity=1.0, seed=16)
    model = BernoulliParticipation([0.5, 0.8, 1.0])
    run = {"spec": SERVERS[name].from_config({"subset_size": 2}, model), "horizon": 40, "n_steps": 2, "seed": 8,
           "schedule": StronglyConvexDecay(mu=1.0, smoothness=3.0, local_steps=2), **changes}
    return fedsim.Runner(run["spec"], inst, model, run["schedule"], horizon=run["horizon"], n_steps=run["n_steps"],
                         seed=run["seed"])


@pytest.mark.parametrize("name, changes, field", [
    ("mifa", {"seed": 9}, "seed"),
    ("mifa_delta", {"horizon": 41}, "horizon"),
    ("biased_fedavg", {"n_steps": 3, "schedule": StronglyConvexDecay(mu=1.0, smoothness=3.0, local_steps=3)},
     "n_steps"),
    ("sampling_fedavg", {"spec": fedsim.SamplingFedAvgSpec(subset_size=3)}, "spec.subset_size"),
    ("is_fedavg", {"spec": fedsim.ImportanceFedAvgSpec(probs=(0.5, 0.8, 0.9))}, "spec.probs"),
    ("is_fedavg", {"spec": fedsim.ImportanceFedAvgSpec(probs=(0.5, 0.8, 1.0), normalization="total_count")},
     "spec.normalization"),
    ("mifa", {"schedule": InverseDecay(eta0=0.05)}, "averaged"),
    # the averaged iterate's shift is the schedule's: 519.6 at delay offset 0, 1039.2 at 5
    ("mifa", {"schedule": StronglyConvexDecay(mu=1.0, smoothness=3.0, local_steps=2, delay_offset=5)},
     "schedule.delay_offset"),
    ("biased_fedavg", {"schedule": StronglyConvexDecay(mu=1.0, smoothness=4.0, local_steps=2)}, "schedule.smoothness"),
    # a checkpoint's true is no number, though it equals the run's 1 and 1.0
    ("mifa", {"seed": 1, "edit": setting("seed", True)}, "seed"),
    ("mifa", {"edit": setting("schedule.mu", True)}, "schedule.mu"),
    ("is_fedavg", {"edit": lambda snapshot: snapshot["spec"]["probs"].__setitem__(2, True)}, "spec.probs"),
])
def test_restore_names_the_field_of_a_checkpoint_of_another_run(name, changes, field):
    # ``changes`` change the run restored into; its "edit", if any, edits the checkpoint
    first = checkpoint_runner(name)
    first.run_rounds(5)
    snapshot = json.loads(json.dumps(first.checkpoint()))
    changes.get("edit", lambda snapshot: None)(snapshot)
    with pytest.raises(ValueError, match=f"^checkpoint {field} "):
        mismatched_runner(name, **changes).restore(snapshot)


@pytest.mark.parametrize("changes, message", [
    ({"n_steps": 0}, "^n_steps must be >= 1$"),
    ({"seed": -1}, "^seed must be >= 0, got -1$"),
    ({"seed": 1.5}, "^seed must be an integer, got 1.5$"),
    ({"seed": True}, "^seed must be an integer, got True$"),
    ({"horizon": 10.5}, "^horizon must be an integer, got 10.5$"),
    ({"n_steps": 2.0}, "^n_steps must be an integer, got 2.0$"),
    ({"n_steps": True}, "^n_steps must be an integer, got True$"),
    ({"schedule": StronglyConvexDecay(mu=1.0, smoothness=3.0, local_steps=5)},
     "^schedule local_steps is 5, this run's n_steps is 2$"),
    ({"schedule": NonConvexConstant(3, local_steps=2, horizon=41, smoothness=3.0, staleness_cap_mean=1.0)},
     "^schedule horizon is 41, this run's horizon is 40$"),
    ({"schedule": NonConvexConstant(4, local_steps=2, horizon=40, smoothness=3.0, staleness_cap_mean=1.0)},
     "^schedule n_devices is 4, this run's device count is 3$"),
])
def test_a_runner_names_a_setting_it_cannot_run(changes, message):
    with pytest.raises(ValueError, match=message):
        mismatched_runner("mifa", **changes)


@pytest.mark.parametrize("version", [4, 5])
def test_restore_rejects_an_averaged_iterate_the_run_does_not_keep_and_back(version):
    # a strongly convex run keeps an averaged iterate, an inverse-decay run none
    averaging = checkpoint_runner("mifa")
    plain = mismatched_runner("mifa", schedule=InverseDecay(eta0=0.05))
    for source, target in ((averaging, plain), (plain, averaging)):
        source.run_rounds(3)
        snapshot = json.loads(json.dumps(source.checkpoint()))
        if version == 4:
            for key in ("spec", "seed", "horizon", "n_steps"):
                del snapshot[key]
            snapshot["version"] = 4
        with pytest.raises(ValueError, match="^checkpoint averaged is "):
            target.restore(snapshot)


def test_stored_participation_streams_equal_the_positioned_ones():
    # versions 1-3 stored each participation stream's state; restoring skips
    # it for a stream advanced to the next round, which is the same state
    with open(DATA / "mifa_delta_checkpoint_v1_round17.json") as fh:
        snapshots = [json.load(fh)] + [version_2_checkpoint(name) for name in SERVERS]
    model = checkpoint_runner("mifa").model
    for snapshot in snapshots:
        next_round = snapshot["rounds_done"] + 1
        assert snapshot["sampler"]["next_round"] == next_round
        positioned = model._position(8, next_round)
        assert [generator_state(g) for g in positioned] == snapshot["sampler"]["gens"]


PARTICIPATION_MODELS = {
    "full": FullParticipation(3),
    "bernoulli": BernoulliParticipation([0.5, 0.8, 0.3]),
    "periodic": PeriodicParticipation([2, 3, 1], [1, 0, 5]),
    "adversarial": AdversarialLinearParticipation(3, offset=1.0, slope_divisor=3.0),
    "replay": TraceReplay(3, [{0, 1, 2}] + [{t % 3} if t % 4 else set() for t in range(2, 20)]),
}


@pytest.mark.parametrize("block_rows", [1, 3, 1000])
@pytest.mark.parametrize("kind", list(PARTICIPATION_MODELS))
def test_checkpoint_at_any_round_resumes_identically(kind, block_rows, monkeypatch):
    monkeypatch.setattr(fedsim.availability, "MASK_BLOCK_CELLS", 3 * block_rows)
    model = PARTICIPATION_MODELS[kind]
    inst = make_quadratic_instance(3, 2, mu=1.0, smoothness=3.0, sigma=0.5, heterogeneity=1.0, seed=16)
    sched = StronglyConvexDecay(mu=1.0, smoothness=3.0, local_steps=2)

    def make_runner():
        return fedsim.Runner(SERVERS["sampling_fedavg"].from_config({"subset_size": 2}, model), inst, model, sched,
                             horizon=19, n_steps=2, seed=8)

    runner = make_runner()
    rows_full = runner.run_rounds(19)
    for at in range(1, 19):
        first = make_runner()
        first.run_rounds(at)
        resumed = make_runner()
        resumed.restore(json.loads(json.dumps(first.checkpoint())))
        assert resumed.run_rounds(19) == rows_full[at:]


def test_averaged_iterate_gap_decays_by_two_orders():
    # long strongly convex run: the averaged-iterate gap at T = 1e4 sits far
    # below its round-100 value
    inst = make_quadratic_instance(10, 5, mu=1.0, smoothness=2.0, sigma=1.0, heterogeneity=2.0, seed=19)
    model = FullParticipation(10)
    sched = StronglyConvexDecay(mu=1.0, smoothness=2.0, local_steps=5)
    res = fedsim.run(fedsim.MifaSpec(), inst, model, sched, horizon=10_000, n_steps=5, seed=3)
    gaps = {r.t: r.avg_gap for r in res.rounds}
    assert gaps[100] / gaps[10_000] >= 50.0


def test_importance_spec_through_runner():
    inst = make_quadratic_instance(3, 2, mu=1.0, smoothness=2.0, sigma=0.2, heterogeneity=1.0, seed=17)
    probs = (0.5, 0.9, 1.0)
    model = BernoulliParticipation(probs)
    sched = StronglyConvexDecay(mu=1.0, smoothness=2.0, local_steps=1)
    res = fedsim.run(
        fedsim.ImportanceFedAvgSpec(probs=probs, normalization="total_count"),
        inst,
        model,
        sched,
        horizon=30,
        n_steps=1,
        seed=4,
    )
    assert len(res.rounds) == 30
    assert res.rounds[-1].f_gap < res.rounds[0].f_gap


if __name__ == "__main__":
    # records the current checkpoint version's round-21 fixture, as
    # tests/data/checkpoints_v<version>_round21.json
    snapshots = round_21_checkpoints()
    path = DATA / f"checkpoints_v{snapshots['mifa']['version']}_round21.json"
    path.write_text(json.dumps(snapshots, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}", file=sys.stderr)
