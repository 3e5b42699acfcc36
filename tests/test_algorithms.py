import json
from pathlib import Path

import numpy as np
import pytest

import fedsim
from fedsim.algorithms import (
    SERVERS,
    BiasedFedAvgServer,
    DivergenceError,
    ImportanceFedAvgServer,
    MifaDeltaServer,
    MifaServer,
    local_update,
)
from fedsim.availability import ActiveSet, BernoulliParticipation, FullParticipation, TraceReplay
from fedsim.exact import exact_mean
from fedsim.problems import (
    logistic_sample_grad,
    make_logistic_instance,
    make_nonconvex_instance,
    make_quadratic_instance,
    quadratic_instance_from_arrays,
    sphere_noise,
)
from fedsim.rng import GRADIENT_NOISE, substream
from fedsim.schedules import InverseDecay, StronglyConvexDecay


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


def play_round(server, active, eta, inst, n_steps, rngs):
    """One wall-round as Runner plays it, at a constant step ``eta``."""
    updates = [
        local_update(inst, i, server.w, eta, n_steps, rngs[i], produced_at=active.round)
        for i in server.needs(active)
    ]
    server.aggregate(updates, ConstantStep(eta))


# ---------------------------------------------------------------------------
# local updates
# ---------------------------------------------------------------------------


def test_single_step_noiseless_update_is_the_gradient():
    inst = make_quadratic_instance(3, 4, mu=1.0, smoothness=3.0, sigma=0.0, heterogeneity=1.0, seed=1)
    rng = np.random.default_rng(0)
    w = np.array([0.5, -1.0, 2.0, 0.0])
    lu = local_update(inst, 1, w, eta=0.01, n_steps=1, rng=rng)
    assert np.array_equal(lu.value, inst.grad(1, w))


def test_two_step_manual_unroll():
    # f(w) = w^2/2 from w = 1 with eta = 0.1: gradients 1.0 then 0.9
    inst = quadratic_instance_from_arrays(np.ones((1, 1, 1)), np.zeros((1, 1)), sigma=0.0)
    lu = local_update(inst, 0, np.array([1.0]), eta=0.1, n_steps=2, rng=np.random.default_rng(0))
    assert lu.value[0] == pytest.approx(1.9, rel=1e-14)


def test_update_times_eta_equals_displacement():
    inst = make_quadratic_instance(2, 5, mu=1.0, smoothness=4.0, sigma=0.8, heterogeneity=1.0, seed=2)
    rng = np.random.default_rng(1)
    replica = np.random.default_rng(1)
    w = rng.standard_normal(5)
    replica.standard_normal(5)
    eta = 1e-4
    lu = local_update(inst, 0, w, eta=eta, n_steps=6, rng=rng)
    # replay the iterates with the reference oracle to recover w_K
    noise = sphere_noise(replica, 6, 5, inst.constants.noise_std)
    w_k = w.copy()
    for k in range(6):
        w_k = w_k - eta * (inst.grad(0, w_k) + noise[k])
    assert np.allclose(eta * lu.value, w - w_k, rtol=1e-10, atol=1e-12)


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
        lu = local_update(inst, i, w, eta=0.05, n_steps=7, rng=substream(9, GRADIENT_NOISE, i))
        noise = sphere_noise(substream(9, GRADIENT_NOISE, i), 7, inst.dim, inst.constants.noise_std)
        w_k, total = w.copy(), np.zeros(inst.dim)
        for k in range(7):
            g = inst.grad(i, w_k) + noise[k]
            total += g
            w_k -= 0.05 * g
        assert np.array_equal(lu.value, total), i


def test_logistic_local_update_consumes_sample_indices():
    inst = make_logistic_instance(2, 3, samples_per_device=4, l2=1.0, label_skew=0.0, seed=3)
    rng = np.random.default_rng(5)
    replica = np.random.default_rng(5)
    w = np.zeros(3)
    lu = local_update(inst, 0, w, eta=0.1, n_steps=3, rng=rng)
    picks = replica.integers(4, size=3)
    w_k = w.copy()
    total = np.zeros(3)
    for k in range(3):
        g = logistic_sample_grad(inst.stacked, 0, w_k, int(picks[k]))
        total += g
        w_k -= 0.1 * g
    assert np.array_equal(lu.value, total)


def test_local_update_signals_divergence():
    inst = make_quadratic_instance(1, 2, mu=1.0, smoothness=10.0, sigma=0.0, heterogeneity=1.0, seed=4)
    with pytest.raises(DivergenceError):
        local_update(inst, 0, np.array([1e200, 1e200]), eta=1e200, n_steps=3, rng=np.random.default_rng(0))


# ---------------------------------------------------------------------------
# update-array server
# ---------------------------------------------------------------------------


def test_array_server_hand_unroll_with_stale_entry():
    inst = two_center_instance()
    rngs = noise_rngs(0, 2)
    state = server(MifaServer, 2, np.zeros(1))
    eta = 0.1
    play_round(state, ActiveSet(1, frozenset({0, 1})), eta, inst, 1, rngs)
    # gradients at 0 are (0, -2): w2 = 0 - 0.1 * (-1) = 0.1
    assert state.w[0] == pytest.approx(0.1, rel=1e-14)
    play_round(state, ActiveSet(2, frozenset({0})), eta, inst, 1, rngs)
    # device 1's stored round-1 value (-2) is reused alongside the fresh 0.1
    assert state.update_array[1, 0] == pytest.approx(-2.0)
    assert state.w[0] == pytest.approx(0.1 - 0.1 * (0.1 - 2.0) / 2.0, rel=1e-14)  # 0.195


def test_array_server_requires_total_first_round():
    inst = two_center_instance()
    state = server(MifaServer, 2, np.zeros(1))
    with pytest.raises(ValueError):
        play_round(state, ActiveSet(1, frozenset({0})), 0.1, inst, 1, noise_rngs(0, 2))


def test_array_server_reduces_to_parallel_sgd_under_full_participation():
    inst = make_quadratic_instance(4, 3, mu=1.0, smoothness=3.0, sigma=0.6, heterogeneity=1.0, seed=5)
    seed = 9
    model = FullParticipation(4)
    sched = InverseDecay(eta0=0.05)
    result = fedsim.run(fedsim.MifaSpec(), inst, model, sched, horizon=6, n_steps=1, seed=seed)
    # replay: w_{t+1} = w_t - (eta_t / N) sum_i stoch_grad_i(w_t)
    replicas = noise_rngs(seed, 4)
    w = np.zeros(3)
    for t in range(1, 7):
        grads = np.stack([inst.stoch_grad(i, w, replicas[i]) for i in range(4)])
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
    play_round(a, ActiveSet(1, frozenset({0, 1})), 0.1, inst, 1, noise_rngs(3, 2))
    play_round(b, ActiveSet(1, frozenset({0, 1})), 0.1, inst, 1, noise_rngs(3, 2))
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
        play_round(state, ActiveSet(t, members), 0.05, inst, 2, rngs)
        assert np.array_equal(state.running_average, exact_mean(state.device_memory, 3))


def test_delta_server_side_memory_is_one_vector():
    state = server(MifaDeltaServer, 5, np.zeros(3))
    # the server-side aggregate is a single length-d accumulator; the (N, d)
    # array models device-side storage
    assert state.running_average.shape == (3,)
    assert state.exact_sum.dim == 3


# ---------------------------------------------------------------------------
# fresh-update baselines
# ---------------------------------------------------------------------------


def test_biased_single_active_device_moves_toward_its_center():
    inst = two_center_instance()
    state = server(BiasedFedAvgServer, 2, np.zeros(1))
    state.t = 1
    is_empty_before = state.w.copy()
    play_round(state, ActiveSet(2, frozenset({0})), 0.1, inst, 1, noise_rngs(0, 2))
    # device 0's gradient at 0 is 0 (its center): no movement toward global optimum 1
    assert state.w[0] == pytest.approx(0.0)
    state2 = server(BiasedFedAvgServer, 2, np.zeros(1))
    state2.t = 1
    play_round(state2, ActiveSet(2, frozenset({1})), 0.1, inst, 1, noise_rngs(0, 2))
    # device 1's gradient at 0 is -2: w moves toward device 1's center
    assert state2.w[0] == pytest.approx(0.2, rel=1e-14)
    assert is_empty_before is not state.w


def test_biased_empty_active_set_is_noop():
    inst = two_center_instance()
    state = server(BiasedFedAvgServer, 2, [0.3])
    state.t = state.t_prime = 1
    play_round(state, ActiveSet(2, frozenset()), 0.1, inst, 1, noise_rngs(0, 2))
    assert state.w[0] == 0.3
    assert state.t == 2 and state.t_prime == 1


def test_importance_weighting_with_unit_probs_equals_biased():
    inst = make_quadratic_instance(3, 2, mu=1.0, smoothness=2.0, sigma=0.5, heterogeneity=1.0, seed=8)
    a = server(BiasedFedAvgServer, 3, np.zeros(2))
    b = server(ImportanceFedAvgServer, 3, np.zeros(2), fedsim.ImportanceFedAvgSpec((1.0, 1.0, 1.0), "total_count"))
    full = ActiveSet(1, frozenset({0, 1, 2}))
    play_round(a, full, 0.1, inst, 2, noise_rngs(4, 3))
    play_round(b, full, 0.1, inst, 2, noise_rngs(4, 3))
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
        play_round(state, ActiveSet(2, members), 0.1, inst, 1, noise_rngs(0, 2))
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


def test_sampling_audit_snapshots_only_computing_devices():
    inst = make_quadratic_instance(2, 2, mu=1.0, smoothness=2.0, sigma=0.0, heterogeneity=1.0, seed=10)
    model = TraceReplay(2, [{0, 1}, {0}, {0}, {1}, {0, 1}, {0}, {0}, {1}])
    runner = fedsim.Runner(
        fedsim.SamplingFedAvgSpec(subset_size=2), inst, model, InverseDecay(eta0=0.05),
        horizon=8, n_steps=1, seed=0, audit=True,
    )
    runner.run()
    # device 0 last computes in round 6 (it is idle but active in round 7,
    # while the window waits for device 1), device 1 in round 8
    assert {i: snap["round"] for i, snap in runner.audit_log.items()} == {0: 6, 1: 8}


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


def test_update_array_matches_audit_replay():
    inst = make_quadratic_instance(3, 2, mu=1.0, smoothness=3.0, sigma=0.7, heterogeneity=1.0, seed=15)
    model = BernoulliParticipation([0.5, 0.8, 1.0])
    sched = StronglyConvexDecay(mu=1.0, smoothness=3.0, local_steps=2)
    runner = fedsim.Runner(fedsim.MifaSpec(), inst, model, sched, horizon=20, n_steps=2, seed=6, audit=True)
    runner.run()
    from fedsim.rng import restore_generator

    for i, snap in runner.audit_log.items():
        replayed = local_update(
            inst, i, snap["w"], snap["eta"], 2, restore_generator(snap["rng_state"])
        )
        assert np.array_equal(replayed.value, runner.state.update_array[i])


def checkpoint_runner(name):
    """A fresh 40-round runner of algorithm ``name`` on the checkpoint tests' setup."""
    inst = make_quadratic_instance(3, 2, mu=1.0, smoothness=3.0, sigma=0.5, heterogeneity=1.0, seed=16)
    model = BernoulliParticipation([0.5, 0.8, 1.0])
    sched = StronglyConvexDecay(mu=1.0, smoothness=3.0, local_steps=2)
    spec = SERVERS[name].from_config({"subset_size": 2}, model)
    return fedsim.Runner(spec, inst, model, sched, horizon=40, n_steps=2, seed=8)


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
def test_version_1_checkpoint_resumes_identically(name):
    full = checkpoint_runner(name)
    rows_full = list(full.run_rounds(40))
    if name == "mifa_delta":
        # written at round 17 by the version-1 format, which stored the exact
        # sum as per-coordinate Shewchuk partials
        with open(Path(__file__).parent / "data" / "mifa_delta_checkpoint_v1_round17.json") as fh:
            snapshot = json.load(fh)
        assert snapshot["server"]["exact_sum"]["partials"]
    else:
        # every other server's state is the same in both versions
        head = checkpoint_runner(name)
        head.run_rounds(17)
        snapshot = json.loads(json.dumps(head.checkpoint()))
        assert snapshot["version"] == 2
        snapshot["version"] = 1
    assert snapshot["version"] == 1 and snapshot["rounds_done"] == 17

    resumed = checkpoint_runner(name)
    resumed.restore(snapshot)
    assert list(resumed.run_rounds(40)) == rows_full[17:]
    assert np.array_equal(resumed.state.w, full.state.w)


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
