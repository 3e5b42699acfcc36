"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report. Every run here is deterministic in its frozen seeds.
"""

import json
import math

import numpy as np

import fedsim
from fedsim.experiment import fit_rate_slope, run_experiment, waiting_time_study


def report(num: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:02d}] {status} — {detail}")


def two_cluster_instance(n_devices=20, separation=2.0, sigma=0.5):
    centers = np.array([[0.0, 0.0], [separation, 0.0]])
    assignment = np.array([centers[i % 2] for i in range(n_devices)])
    hessians = np.array([np.eye(2) for _ in range(n_devices)])
    return fedsim.quadratic_instance_from_arrays(hessians, assignment, sigma=sigma)


# ---------------------------------------------------------------------------
# 1. full-participation degeneracy: the three memory algorithms coincide
# ---------------------------------------------------------------------------


def test_criterion_01_full_participation_degeneracy():
    inst = fedsim.make_quadratic_instance(
        10, 5, mu=1.0, smoothness=5.0, sigma=1.0, heterogeneity=2.0, seed=13
    )
    model = fedsim.FullParticipation(10)
    sched = fedsim.StronglyConvexDecay(mu=1.0, smoothness=5.0, local_steps=5)
    results = {
        name: fedsim.run(spec, inst, model, sched, horizon=500, n_steps=5, seed=42)
        for name, spec in [
            ("mifa", fedsim.MifaSpec()),
            ("mifa_delta", fedsim.MifaDeltaSpec()),
            ("biased_fedavg", fedsim.BiasedFedAvgSpec()),
        ]
    }
    base = results["mifa"]
    ok = all(
        res.rounds == base.rounds and np.array_equal(res.final_w, base.final_w)
        for res in results.values()
    )
    report(1, ok, "mifa, mifa_delta and biased_fedavg trajectories bit-identical over T=500")
    assert ok


# ---------------------------------------------------------------------------
# 2. delta-variant equivalence on random noisy configurations
# ---------------------------------------------------------------------------


def test_criterion_02_delta_variant_equivalence():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for trial in range(20):
        n = int(rng.integers(2, 9))
        d = int(rng.integers(1, 7))
        k = int(rng.integers(1, 5))
        sigma = float(rng.uniform(0.2, 1.0))
        inst = fedsim.make_quadratic_instance(
            n, d, mu=0.5, smoothness=3.0, sigma=sigma, heterogeneity=2.0, seed=trial
        )
        model = fedsim.BernoulliParticipation(rng.uniform(0.2, 1.0, size=n))
        sched = fedsim.StronglyConvexDecay(mu=0.5, smoothness=3.0, local_steps=k)
        seed = 500 + trial

        def runner(spec):
            return fedsim.Runner(spec, inst, model, sched, horizon=60, n_steps=k, seed=seed)

        ra, rb = runner(fedsim.MifaSpec()), runner(fedsim.MifaDeltaSpec())
        for t in range(1, 61):
            ra.run_rounds(t)
            rb.run_rounds(t)
            scale = np.maximum(np.abs(ra.state.w), 1e-30)
            worst = max(worst, float(np.max(np.abs(ra.state.w - rb.state.w) / scale)))
    ok = worst <= 1e-9
    report(2, ok, f"max per-coordinate relative deviation over 20 configs = {worst:.3e} (<= 1e-9)")
    assert ok


# ---------------------------------------------------------------------------
# 3. strongly convex rate shape
# ---------------------------------------------------------------------------


def test_criterion_03_strongly_convex_rate_shape():
    horizon = 10_000
    inst = fedsim.make_quadratic_instance(
        20, 10, mu=1.0, smoothness=10.0, sigma=1.0, heterogeneity=2.0, seed=11
    )
    probs_rng = np.random.default_rng(np.random.SeedSequence([5, 0x9B0B]))
    probs = probs_rng.uniform(0.3, 1.0, size=20)
    model = fedsim.BernoulliParticipation(probs)
    delay_offset = fedsim.bernoulli_staleness_bounds(probs, horizon, delta=0.01).peak_bound
    sched = fedsim.StronglyConvexDecay(
        mu=1.0, smoothness=10.0, local_steps=5, delay_offset=delay_offset
    )
    res = fedsim.run(fedsim.MifaSpec(), inst, model, sched, horizon=horizon, n_steps=5, seed=1)
    slope = fit_rate_slope([(r.t, r.avg_gap) for r in res.rounds], (1_000, 10_000))
    ok = -1.3 <= slope <= -0.7
    report(3, ok, f"averaged-iterate gap slope over [1e3, 1e4] = {slope:.3f} (target [-1.3, -0.7])")
    assert ok


# ---------------------------------------------------------------------------
# 4. bias demonstration on a two-cluster instance
# ---------------------------------------------------------------------------


def enumerated_biased_fixed_point(p_low: float, n_half: int, separation: float) -> float:
    """Fixed point of the expected biased update: all fast-cluster devices
    respond surely, Binomial(n_half, p_low) slow-cluster devices respond."""
    acc = 0.0
    for k in range(n_half + 1):
        weight = math.comb(n_half, k) * p_low**k * (1 - p_low) ** (n_half - k)
        acc += weight * (n_half * separation) / (k + n_half)
    return acc


def test_criterion_04_bias_demonstration():
    n, separation = 20, 2.0
    inst = two_cluster_instance(n, separation, sigma=0.5)
    # slow cluster holds labels (0, 0), fast cluster (9, 9): p = 0.9 and 1.0
    labels = [(0, 0) if i % 2 == 0 else (9, 9) for i in range(n)]
    probs = fedsim.label_correlated_probabilities(n, labels, p_min=0.1)
    model = fedsim.BernoulliParticipation(probs)
    sched = fedsim.StronglyConvexDecay(mu=1.0, smoothness=1.0, local_steps=5, delay_offset=5.0)

    fixed_point_x = enumerated_biased_fixed_point(0.9, n // 2, separation)
    predicted_bias_gap = 0.5 * (fixed_point_x - separation / 2.0) ** 2

    ratios, biased_x = [], []
    # every (seed, algorithm) run in one lockstep batch
    results = fedsim.Batch([
        fedsim.Runner(spec, inst, model, sched, horizon=10_000, n_steps=5, seed=seed)
        for seed in range(1, 6)
        for spec in (fedsim.BiasedFedAvgSpec(), fedsim.MifaSpec())
    ]).run()
    for rb, rm in zip(results[::2], results[1::2]):
        ratios.append(rb.rounds[-1].f_gap / rm.rounds[-1].f_gap)
        biased_x.append(rb.final_w[0])
    median_ratio = float(np.median(ratios))
    ok_ratio = median_ratio >= 5.0
    # the run should sit near the enumerated fixed point of the biased update
    ok_oracle = abs(np.median(biased_x) - fixed_point_x) <= 0.25 * abs(fixed_point_x - separation / 2.0)
    ok = ok_ratio and ok_oracle
    report(
        4,
        ok,
        f"median biased/mifa final-gap ratio = {median_ratio:.1f} (>= 5); "
        f"biased iterate near enumerated fixed point {fixed_point_x:.4f} "
        f"(predicted bias gap {predicted_bias_gap:.2e})",
    )
    assert ok


# ---------------------------------------------------------------------------
# 5. straggler resistance vs subset sampling
# ---------------------------------------------------------------------------


def test_criterion_05_straggler_resistance():
    n, t_ref, cap = 20, 2_000, 12_000
    inst = fedsim.make_quadratic_instance(
        n, 5, mu=1.0, smoothness=2.0, sigma=0.5, heterogeneity=2.0, seed=17
    )
    probs = np.ones(n)
    probs[0] = 0.05
    model = fedsim.BernoulliParticipation(probs)
    sched = fedsim.StronglyConvexDecay(mu=1.0, smoothness=2.0, local_steps=5, delay_offset=5.0)
    multiples = []
    for seed in range(1, 6):
        rm = fedsim.run(fedsim.MifaSpec(), inst, model, sched, horizon=t_ref, n_steps=5, seed=seed)
        target = rm.rounds[-1].f_gap
        rs = fedsim.run(
            fedsim.SamplingFedAvgSpec(subset_size=10), inst, model, sched, horizon=cap, n_steps=5, seed=seed
        )
        crossing = next((row.t for row in rs.rounds if row.f_gap <= target), cap + 1)
        multiples.append(crossing / t_ref)
    median_multiple = float(np.median(multiples))
    ok = median_multiple >= 3.0
    report(5, ok, f"median wall-round multiple for sampling fedavg = {median_multiple:.2f} (>= 3)")
    assert ok


# ---------------------------------------------------------------------------
# 6. waiting-time lower bound
# ---------------------------------------------------------------------------


def test_criterion_06_waiting_time_bound():
    rng = np.random.default_rng(6)
    failures = []
    for trial in range(50):
        n = int(rng.integers(2, 31))
        s = int(rng.integers(1, n + 1))
        probs = rng.uniform(0.05, 1.0, size=n)
        study = waiting_time_study(n, s, probs, trials=10_000, seed=trial)
        if study["mean_wait"] < study["lower_bound"] - 3.0 * study["stderr"]:
            failures.append((n, s))
    ok = not failures
    report(6, ok, f"Monte Carlo mean wait >= bound - 3 stderr on all 50 configs (failures: {failures})")
    assert ok


# ---------------------------------------------------------------------------
# 7. staleness tail and high-probability bounds
# ---------------------------------------------------------------------------


def test_criterion_07_staleness_tail_and_bounds():
    # geometric tail
    p, horizon, traces = 0.4, 30, 20_000
    model = fedsim.BernoulliParticipation([p])
    counts = {k: 0 for k in (1, 2, 3, 5)}
    for trial in range(traces):
        mask = model.mask(trial, 1, horizon + 1)
        tracker = fedsim.StalenessTracker(1)
        for t in range(1, horizon + 1):
            tracker.update(t, mask[t - 1])
        tau = int(tracker.staleness[0])
        for k in counts:
            counts[k] += tau >= k
    tail_ok = True
    for k, count in counts.items():
        expected = fedsim.bernoulli_staleness_tail(p, k, horizon)
        stderr = math.sqrt(expected * (1 - expected) / traces)
        tail_ok &= abs(count / traces - expected) <= 3 * stderr

    # peak bound coverage and average-shape ratio over 200 traces
    study = fedsim.staleness_study(
        np.linspace(0.1, 1.0, 20), horizon=2_000, n_traces=200, delta=0.01, seed=7
    )
    coverage_ok = study["peak_bound_coverage"] >= 0.99
    ratio_ok = study["avg_to_shape_ratio"] <= 3.0
    ok = tail_ok and coverage_ok and ratio_ok
    report(
        7,
        ok,
        f"tail within 3 stderr: {tail_ok}; peak-bound coverage = "
        f"{study['peak_bound_coverage']:.3f} (>= 0.99); mean avg/shape ratio = "
        f"{study['avg_to_shape_ratio']:.2f} (<= 3)",
    )
    assert ok


# ---------------------------------------------------------------------------
# 8. non-convex rate shape
# ---------------------------------------------------------------------------


def test_criterion_08_nonconvex_rate_shape():
    horizon = 10_000
    inst = fedsim.make_nonconvex_instance(
        10, 10, curvature=1.0, amplitude=0.5, sigma=0.5, heterogeneity=2.0, seed=5
    )
    model = fedsim.FullParticipation(10)
    sched = fedsim.NonConvexConstant(
        n_devices=10,
        local_steps=1,
        horizon=horizon,
        smoothness=inst.constants.smoothness,
        staleness_cap_mean=0.0,
    )
    slopes = []
    # every seed's run in one lockstep batch
    results = fedsim.Batch([
        fedsim.Runner(fedsim.MifaSpec(), inst, model, sched, horizon=horizon, n_steps=1, seed=seed)
        for seed in range(1, 6)
    ]).run()
    for res in results:
        slopes.append(
            fit_rate_slope([(r.t, r.min_grad_norm_sq) for r in res.rounds], (100, 10_000))
        )
    median_slope = float(np.median(slopes))
    ok = -0.75 <= median_slope <= -0.3
    report(8, ok, f"median running-min gradient-norm slope = {median_slope:.3f} (target [-0.75, -0.3])")
    assert ok


# ---------------------------------------------------------------------------
# 9. formula unit suite
# ---------------------------------------------------------------------------


def test_criterion_09_formula_suite():
    checks = []
    sched = fedsim.StronglyConvexDecay(mu=1.0, smoothness=1.0, local_steps=1)
    checks.append(sched.shift == 100.0 and abs(sched.eta(1) - 4.0 / 101.0) < 1e-15)
    checks.append(
        fedsim.StronglyConvexDecay(mu=1.0, smoothness=4.0, local_steps=1, delay_offset=5.0).shift == 1600.0
    )
    nc = fedsim.NonConvexConstant(
        n_devices=10, local_steps=5, horizon=1000, smoothness=2.0, staleness_cap_mean=3.0
    )
    checks.append(abs(nc.eta(1) - math.sqrt(10.0 / 40000.0)) < 1e-15)
    probs = fedsim.label_correlated_probabilities(2, [(0, 1), (9, 9)], p_min=0.1)
    checks.append(abs(probs[0] - 0.9) < 1e-15 and abs(probs[1] - 1.0) < 1e-15)
    avg = fedsim.AveragedIterate(2.0, 1)
    for t in (1, 2, 3):
        avg.observe(t, np.array([float(t)]))
    checks.append(abs(avg.weight_total - 20.0) < 1e-12 and abs(avg.weight_closed_form() - 20.0) < 1e-12)
    checks.append(abs(avg.current()[0] - 2.5) < 1e-14)
    tail = fedsim.bernoulli_staleness_tail(0.5, 3, 10)
    checks.append(tail == 0.125)
    ok = all(checks)
    report(9, ok, f"direct formula evaluations all exact ({sum(checks)}/{len(checks)})")
    assert ok


# ---------------------------------------------------------------------------
# 10. determinism: identical CSV bytes across reruns
# ---------------------------------------------------------------------------


def test_criterion_10_determinism(tmp_path):
    cfg = {
        "problem": {
            "family": "quadratic",
            "n_devices": 8,
            "dim": 4,
            "mu": 1.0,
            "smoothness": 6.0,
            "sigma": 1.0,
            "heterogeneity": 2.0,
            "seed": 21,
        },
        "availability": {"variant": "bernoulli", "uniform": {"low": 0.3, "high": 1.0, "seed": 4}},
        "algorithm": {"name": "mifa_delta"},
        "schedule": {"variant": "strongly_convex", "delay_offset": 2.0},
        "run": {"horizon": 120, "local_steps": 3, "seeds": [1, 2, 3]},
    }
    texts = []
    for attempt in ("a", "b"):
        res = run_experiment(json.loads(json.dumps(cfg)), out=str(tmp_path / attempt))
        texts.append((tmp_path / f"{attempt}.csv").read_bytes())
    ok = texts[0] == texts[1]
    report(10, ok, f"re-run CSV byte-identical ({len(texts[0])} bytes)")
    assert ok
