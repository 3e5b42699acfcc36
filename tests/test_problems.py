import dataclasses
import itertools
import math
import tracemalloc
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

from fedsim import problems
from fedsim.algorithms import local_updates
from fedsim.experiment import fit_rate_slope
from fedsim.problems import (
    MissingOptimumError,
    SpecError,
    logistic_sample_grads,
    make_logistic_instance,
    make_nonconvex_instance,
    make_quadratic_instance,
    quadratic_instance_from_arrays,
    sphere_noise,
)


def _instances():
    return [
        make_quadratic_instance(6, 4, mu=1.0, smoothness=8.0, sigma=0.7, heterogeneity=2.0, seed=1),
        make_logistic_instance(3, 3, samples_per_device=6, l2=1.0, label_skew=0.8, seed=2),
        make_nonconvex_instance(5, 4, curvature=2.0, amplitude=1.0, sigma=0.5, heterogeneity=1.5, seed=3),
    ]


# ---------------------------------------------------------------------------
# quadratic family
# ---------------------------------------------------------------------------


def test_single_centered_quadratic_is_trivial():
    inst = quadratic_instance_from_arrays(np.ones((1, 1, 1)), np.zeros((1, 1)), sigma=0.0)
    assert inst.w_star == pytest.approx([0.0])
    assert inst.f_star == 0.0
    assert inst.constants.dissimilarity == 0.0


def test_two_device_quadratic_hand_solve():
    # H1 = H2 = 1, centers -1 and +1: optimum at 0, and the device-mean
    # objective gives f(0) = (1/2)(1/2 + 1/2) = 1/2, D = (1 + 1)/2 = 1
    hess = np.ones((2, 1, 1))
    centers = np.array([[-1.0], [1.0]])
    inst = quadratic_instance_from_arrays(hess, centers, sigma=0.0)
    assert inst.w_star == pytest.approx([0.0])
    assert inst.f_star == pytest.approx(0.5)
    assert inst.constants.dissimilarity == pytest.approx(1.0)
    assert inst.grad(0, np.zeros(1)) == pytest.approx([1.0])
    assert inst.grad(1, np.zeros(1)) == pytest.approx([-1.0])
    assert inst.global_value(np.zeros(1)) == pytest.approx(0.5)
    assert inst.suboptimality(np.zeros(1)) == pytest.approx(0.0, abs=1e-12)


def test_quadratic_optimum_residual_is_tiny():
    inst = make_quadratic_instance(10, 5, mu=1.0, smoothness=10.0, sigma=0.0, heterogeneity=2.0, seed=7)
    residual = np.linalg.norm(inst.global_grad(inst.w_star))
    assert residual < 1e-10


def test_quadratic_eigenvalue_endpoints_attained():
    inst = make_quadratic_instance(4, 3, mu=2.0, smoothness=9.0, sigma=0.0, heterogeneity=1.0, seed=5)
    eigs = np.sort(np.linalg.eigvalsh(inst.stacked["hessians"][0]))
    assert eigs[0] == pytest.approx(2.0, rel=1e-9)
    assert eigs[-1] == pytest.approx(9.0, rel=1e-9)
    assert inst.constants.strong_convexity == pytest.approx(2.0, rel=1e-9)
    assert inst.constants.smoothness == pytest.approx(9.0, rel=1e-9)


def test_quadratic_dim_one_alternates_endpoints():
    inst = make_quadratic_instance(4, 1, mu=1.0, smoothness=3.0, sigma=0.0, heterogeneity=1.0, seed=5)
    values = [float(h[0, 0]) for h in inst.stacked["hessians"]]
    assert values == pytest.approx([1.0, 3.0, 1.0, 3.0])


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(n_devices=0, dim=2, mu=1.0, smoothness=2.0, sigma=0.0, heterogeneity=1.0, seed=0),
        dict(n_devices=2, dim=0, mu=1.0, smoothness=2.0, sigma=0.0, heterogeneity=1.0, seed=0),
        dict(n_devices=2, dim=2, mu=2.0, smoothness=1.0, sigma=0.0, heterogeneity=1.0, seed=0),
        dict(n_devices=2, dim=2, mu=np.inf, smoothness=np.inf, sigma=0.0, heterogeneity=1.0, seed=0),
        dict(n_devices=2, dim=2, mu=1.0, smoothness=2.0, sigma=-1.0, heterogeneity=1.0, seed=0),
    ],
)
def test_quadratic_rejects_bad_arguments(kwargs):
    with pytest.raises(ValueError):
        make_quadratic_instance(**kwargs)


# ---------------------------------------------------------------------------
# logistic family
# ---------------------------------------------------------------------------


def test_logistic_zero_features_optimum_is_origin():
    inst = make_logistic_instance(2, 3, samples_per_device=4, l2=1.0, label_skew=0.0, seed=3)
    zeroed = dataclasses.replace(
        inst, stacked={**inst.stacked, "features": np.zeros_like(inst.stacked["features"])}
    )
    # with zero features the gradient is exactly l2 * w
    for i in range(zeroed.n_devices):
        assert np.array_equal(zeroed.grad(i, np.array([1.0, -2.0, 3.0])), np.array([1.0, -2.0, 3.0]))


def test_logistic_oracle_optimum_has_small_gradient():
    inst = make_logistic_instance(2, 2, samples_per_device=4, l2=1.0, label_skew=1.0, seed=3)
    assert np.linalg.norm(inst.global_grad(inst.w_star)) <= 1e-8


def test_logistic_minibatch_variance_within_declared_bound():
    inst = make_logistic_instance(2, 3, samples_per_device=5, l2=1.0, label_skew=0.5, seed=9)
    w0 = np.zeros(3)
    rng = np.random.default_rng(0)
    draws = 100_000
    exact = inst.grad(0, w0)
    picks = rng.integers(inst.stacked["labels"].shape[1], size=draws)
    noise = logistic_sample_grads(inst.stacked, np.zeros(draws, int), np.broadcast_to(w0, (draws, 3)), picks) - exact
    sq_norms = np.sum(noise**2, axis=1)
    mean = sq_norms.mean()
    stderr = sq_norms.std(ddof=1) / math.sqrt(draws)
    assert mean <= inst.constants.noise_std**2 + 3 * stderr


def test_logistic_rejects_zero_l2():
    with pytest.raises(ValueError):
        make_logistic_instance(2, 2, samples_per_device=3, l2=0.0, label_skew=0.0, seed=0)


# ---------------------------------------------------------------------------
# nonconvex trig family
# ---------------------------------------------------------------------------


def test_trig_amplitude_zero_reduces_to_quadratic():
    inst = make_nonconvex_instance(3, 2, curvature=2.0, amplitude=0.0, sigma=0.0, heterogeneity=1.0, seed=4)
    assert inst.constants.hessian_lipschitz == 0.0
    w = np.array([0.3, -0.7])
    for i, center in enumerate(inst.stacked["centers"]):
        expected = 2.0 * (w - center)
        assert np.allclose(inst.grad(i, w), expected)


def _trig_hessian(inst, w):
    """Every trig device's Hessian at w: curvature * I - amplitude * diag(cos w)."""
    return inst.stacked["curvature"] * np.eye(len(w)) - inst.stacked["amplitude"] * np.diag(np.cos(w))


def test_trig_hand_derivatives_at_origin():
    # d=1, center 0, curvature 2, amplitude 1: grad(0) = 0, hessian(0) = 1
    inst = make_nonconvex_instance(1, 1, curvature=2.0, amplitude=1.0, sigma=0.0, heterogeneity=0.0, seed=0)
    assert inst.grad(0, np.zeros(1)) == pytest.approx([0.0])
    assert _trig_hessian(inst, np.zeros(1))[0, 0] == pytest.approx(1.0)


def test_trig_hessian_difference_bounded_by_declared_constant():
    inst = make_nonconvex_instance(4, 3, curvature=2.0, amplitude=1.5, sigma=0.0, heterogeneity=1.0, seed=6)
    rho = inst.constants.hessian_lipschitz
    rng = np.random.default_rng(11)
    for _ in range(100):
        w = rng.standard_normal(3) * 3
        v = rng.standard_normal(3) * 3
        gap = np.linalg.norm(_trig_hessian(inst, w) - _trig_hessian(inst, v), ord=2)
        assert gap <= rho * np.linalg.norm(w - v) + 1e-12


def test_trig_rejects_amplitude_above_curvature():
    with pytest.raises(ValueError):
        make_nonconvex_instance(2, 2, curvature=1.0, amplitude=1.5, sigma=0.0, heterogeneity=1.0, seed=0)


def test_trig_optimum_gradient_vanishes():
    inst = make_nonconvex_instance(5, 3, curvature=1.0, amplitude=1.0, sigma=0.0, heterogeneity=2.0, seed=8)
    assert np.linalg.norm(inst.global_grad(inst.w_star)) <= 1e-8 * max(
        1.0, np.linalg.norm(inst.global_grad(np.zeros(3)))
    )


# ---------------------------------------------------------------------------
# oracles shared by every family
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("inst", _instances(), ids=lambda i: i.kind)
def test_gradients_match_finite_differences(inst):
    rng = np.random.default_rng(13)
    h = 1e-5
    for _ in range(50):
        i = int(rng.integers(inst.n_devices))
        w = rng.standard_normal(inst.dim)
        g = inst.grad(i, w)
        fd = np.zeros_like(w)
        for j in range(inst.dim):
            e = np.zeros_like(w)
            e[j] = h
            fd[j] = (inst.value(i, w + e) - inst.value(i, w - e)) / (2 * h)
        assert np.linalg.norm(fd - g) <= 1e-5 * max(1.0, np.linalg.norm(g))


@pytest.mark.parametrize("inst", _instances(), ids=lambda i: i.kind)
def test_smoothness_certificate(inst):
    rng = np.random.default_rng(17)
    L = inst.constants.smoothness
    for _ in range(100):
        i = int(rng.integers(inst.n_devices))
        w = rng.standard_normal(inst.dim) * 2
        v = rng.standard_normal(inst.dim) * 2
        lhs = np.linalg.norm(inst.grad(i, w) - inst.grad(i, v))
        assert lhs <= L * np.linalg.norm(w - v) * (1 + 1e-9)


@pytest.mark.parametrize("inst", _instances()[:2], ids=["quadratic", "logistic"])
def test_strong_convexity_certificate(inst):
    rng = np.random.default_rng(19)
    mu = inst.constants.strong_convexity
    assert mu > 0
    for _ in range(100):
        i = int(rng.integers(inst.n_devices))
        w = rng.standard_normal(inst.dim) * 2
        v = rng.standard_normal(inst.dim) * 2
        lhs = float((inst.grad(i, w) - inst.grad(i, v)) @ (w - v))
        assert lhs >= mu * np.linalg.norm(w - v) ** 2 * (1 - 1e-9)


@pytest.mark.parametrize("inst", _instances(), ids=lambda i: i.kind)
def test_dissimilarity_recomputes_from_stored_optimum(inst):
    recomputed = inst.recompute_dissimilarity()
    stored = inst.constants.dissimilarity
    assert recomputed == pytest.approx(stored, rel=1e-10, abs=1e-300)


@pytest.mark.parametrize("inst", _instances(), ids=lambda i: i.kind)
def test_dissimilarity_bound_holds_on_fresh_samples(inst):
    rng = np.random.default_rng(23)
    alpha = inst.constants.alpha
    beta = inst.constants.beta_i
    for _ in range(100):
        w = rng.standard_normal(inst.dim)
        g_global = inst.global_grad(w)
        bound = alpha * float(g_global @ g_global)
        for i in range(inst.n_devices):
            g = inst.grad(i, w)
            assert float(g @ g) <= bound + beta[i] + 1e-9


@pytest.mark.parametrize("seed", [9, 10, 11])
def test_closed_form_quadratic_certificate_bounds_the_sampled_sup(seed):
    # beta_i is the exact sup of g_i(w) = ||grad_i(w)||^2 - alpha ||grad(w)||^2,
    # so it bounds the sup over the 0xBE7A sample ball earlier builds took
    quad = make_quadratic_instance(3, 2, mu=1.0, smoothness=3.0, sigma=0.1, heterogeneity=1.0, seed=seed)
    hessians, centers = quad.stacked["hessians"], quad.stacked["centers"]
    alpha, beta_i = quad.constants.alpha, quad.constants.beta_i
    radius = max(1.0, 10.0 * float(np.linalg.norm(centers, axis=1).max()))
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xBE7A]))
    points = problems._ball_points(rng, 10_000, 2, radius)
    grads = np.einsum("nij,snj->sni", hessians, points[:, None, :] - centers[None, :, :])
    per_dev_sq = np.sum(grads**2, axis=2)
    global_sq = np.sum(grads.mean(axis=1) ** 2, axis=1)
    sampled = problems.DISSIMILARITY_MARGIN * np.maximum(0.0, (per_dev_sq - alpha * global_sq[:, None]).max(axis=0))
    assert np.all(beta_i >= sampled) and np.all(beta_i > 0.0)

    # the gradient of g_i vanishes at the maximiser, and g_i there is beta_i / margin
    h_bar, b_bar = quad.aggregates["h_bar"], quad.aggregates["b_bar"]
    for i in range(quad.n_devices):
        m = hessians[i] @ hessians[i] - alpha * h_bar @ h_bar
        w = np.linalg.solve(m, hessians[i] @ hessians[i] @ centers[i] - alpha * h_bar @ b_bar)
        g_i, g = quad.grad(i, w), quad.global_grad(w)
        gradient = 2.0 * hessians[i] @ g_i - 2.0 * alpha * h_bar @ g
        assert np.linalg.norm(gradient) <= 1e-10 * max(1.0, np.linalg.norm(hessians[i] @ g_i))
        assert float(g_i @ g_i) - alpha * float(g @ g) == pytest.approx(beta_i[i] / problems.DISSIMILARITY_MARGIN)


def test_quadratic_certificate_rejects_a_non_concave_gap():
    quad = make_quadratic_instance(3, 2, mu=1.0, smoothness=3.0, sigma=0.1, heterogeneity=1.0, seed=9)
    args = (quad.stacked["hessians"], quad.stacked["centers"], quad.aggregates["h_bar"], quad.aggregates["b_bar"])
    with pytest.raises(ArithmeticError):
        problems._beta_quadratic(*args, 0.5)


@pytest.mark.parametrize("seed", [9, 10, 11])
def test_trig_certificate_is_the_exact_sup(seed):
    heterogeneity, c, a = 1.0, 1.0, 0.5
    trig = make_nonconvex_instance(3, 2, curvature=c, amplitude=a, sigma=0.1, heterogeneity=heterogeneity, seed=seed)
    centers, mean_center = trig.stacked["centers"], trig.aggregates["mean_center"]
    alpha, beta_i = trig.constants.alpha, trig.constants.beta_i
    assert alpha == 2.0 and np.all(beta_i > 0.0)

    # the bound holds on 10,000 points of the ball ten times wider than the centers
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xD155]))
    points = problems._ball_points(rng, 10_000, 2, max(1.0, 10.0 * heterogeneity))
    grads = c * (points[:, None, :] - centers[None, :, :]) - a * np.sin(points)[:, None, :]
    per_dev_sq = np.sum(grads**2, axis=2)
    global_sq = np.sum(grads.mean(axis=1) ** 2, axis=1)
    assert np.all(per_dev_sq - alpha * global_sq[:, None] <= beta_i + 1e-9)

    # grad(w) = c (mean_center - c_i) is the trig optimum of the shifted mean
    # 2 mean_center - c_i, and there the gap attains beta_i
    for i in range(trig.n_devices):
        w = problems._trig_optimum(2.0 * mean_center - centers[i], c, a)
        g_i, g = trig.grad(i, w), trig.global_grad(w)
        assert np.linalg.norm(g - c * (mean_center - centers[i])) <= 1e-12
        assert float(g_i @ g_i) - alpha * float(g @ g) == pytest.approx(beta_i[i], rel=1e-9)


@pytest.mark.parametrize("ratio", [0.0, 0.5, 1.0])
def test_trig_optimum_beats_the_grid_and_zeroes_the_gradient(ratio):
    c = 1.0
    a = ratio * c
    m = np.random.default_rng(200).standard_normal(200) * 2.0
    w = problems._trig_optimum(m, c, a)

    def phi(x, m):
        return 0.5 * c * (x - m) ** 2 + a * np.cos(x)

    r = a / c + np.pi
    for j in range(len(m)):
        grid = np.linspace(m[j] - r, m[j] + r, 4001)
        assert phi(w[j], m[j]) <= phi(grid, m[j]).min()
    grad, grad_at_zero = c * (w - m) - a * np.sin(w), -c * m
    assert np.linalg.norm(grad) <= 1e-8 * max(1.0, np.linalg.norm(grad_at_zero))
    if a == 0.0:
        assert w.tobytes() == m.tobytes()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_builders_reject_non_finite_heterogeneity(bad):
    with pytest.raises(ValueError, match="heterogeneity must be finite"):
        make_quadratic_instance(3, 2, mu=1.0, smoothness=2.0, sigma=0.1, heterogeneity=bad, seed=1)
    with pytest.raises(ValueError, match="heterogeneity must be finite"):
        make_nonconvex_instance(3, 2, curvature=1.0, amplitude=0.5, sigma=0.1, heterogeneity=bad, seed=1)


def _traced_peak_bytes(build):
    tracemalloc.start()
    try:
        build()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_instance_build_memory_is_bounded():
    # no build samples points: the quadratic certificate's batched solve
    # holds O(N * d^2) floats and the trig build O(N * d)
    mb = 2**20
    quad_peak = _traced_peak_bytes(
        lambda: make_quadratic_instance(100, 20, mu=1.0, smoothness=4.0, sigma=0.5, heterogeneity=1.0, seed=3)
    )
    assert quad_peak <= 32 * mb
    trig_peak = _traced_peak_bytes(
        lambda: make_nonconvex_instance(20, 200, curvature=1.0, amplitude=0.5, sigma=0.5, heterogeneity=2.0, seed=3)
    )
    assert trig_peak <= 64 * mb


def test_global_grad_is_mean_of_device_grads():
    for inst in _instances():
        rng = np.random.default_rng(29)
        w = rng.standard_normal(inst.dim)
        mean = np.mean([inst.grad(i, w) for i in range(inst.n_devices)], axis=0)
        assert np.allclose(inst.global_grad(w), mean, rtol=1e-12, atol=1e-12)


def test_suboptimality_at_optimum_and_signalling():
    inst = make_quadratic_instance(4, 3, mu=1.0, smoothness=4.0, sigma=0.0, heterogeneity=1.0, seed=2)
    assert -1e-9 <= inst.suboptimality(inst.w_star) <= 1e-9
    broken = dataclasses.replace(inst, f_star=None)
    with pytest.raises(MissingOptimumError):
        broken.suboptimality(inst.w_star)


def _values_over_devices(inst, w):
    """Every device's f_i(w) at once, from the family formulas over all rows."""
    s = inst.stacked
    if inst.kind == "quadratic":
        diffs = w - s["centers"]
        return 0.5 * np.einsum("ni,nij,nj->n", diffs, s["hessians"], diffs)
    if inst.kind == "logistic":
        return np.logaddexp(0.0, -s["labels"] * (s["features"] @ w)).mean(axis=1) + 0.5 * s["l2"] * (w @ w)
    diffs = w - s["centers"]
    return 0.5 * s["curvature"] * np.sum(diffs * diffs, axis=1) + s["amplitude"] * np.sum(np.cos(w))


def test_global_value_matches_the_device_loop():
    for inst in _instances():
        w = np.random.default_rng(31).standard_normal(inst.dim)
        loop = math.fsum(inst.value(i, w) for i in range(inst.n_devices)) / inst.n_devices
        assert inst.global_value(w) == pytest.approx(loop, rel=1e-13)
        reference = _values_over_devices(inst, w)
        assert np.allclose([inst.value(i, w) for i in range(inst.n_devices)], reference, rtol=1e-13, atol=0.0)
        assert inst.global_value(w) == pytest.approx(math.fsum(reference) / inst.n_devices, rel=1e-13)


def test_instance_arrays_are_read_only():
    hessians = np.stack([np.eye(2), 2.0 * np.eye(2)])
    centers = np.array([[1.0, 0.0], [0.0, 1.0]])
    from_arrays = quadratic_instance_from_arrays(hessians, centers, sigma=0.0)
    assert not np.shares_memory(from_arrays.stacked["hessians"], hessians)
    assert hessians.flags.writeable and centers.flags.writeable  # the caller's arrays stay writable
    for inst in (*_instances(), from_arrays):
        arrays = {f"stacked[{k!r}]": v for k, v in inst.stacked.items() if isinstance(v, np.ndarray)}
        arrays.update({f"aggregates[{k!r}]": v for k, v in inst.aggregates.items() if isinstance(v, np.ndarray)})
        arrays.update(w_star=inst.w_star, beta_i=inst.constants.beta_i)
        for name, array in arrays.items():
            with pytest.raises(ValueError, match="read-only"):
                array.flat[0] = 1.0


def _unit(rng, dim):
    v = rng.standard_normal(dim)
    return v / np.linalg.norm(v)


@pytest.fixture(scope="module")
def quad_workload_instance():
    # the compare benchmark's quad_many_devices instance at workload seed 7
    return make_quadratic_instance(200, 10, mu=1.0, smoothness=10.0, sigma=1.0, heterogeneity=2.0, seed=578950829)


def test_quadratic_gap_matches_exact_rational_near_the_optimum(quad_workload_instance):
    inst = quad_workload_instance
    hessians = inst.stacked["hessians"]
    h_bar = [[sum(map(Fraction, hessians[:, i, j])) / inst.n_devices for j in range(inst.dim)] for i in range(inst.dim)]
    v = _unit(np.random.default_rng(37), inst.dim)
    for k in range(2, 10):
        w = inst.w_star + 10.0**-k * v
        e = [Fraction(x) for x in w - inst.w_star]
        exact = sum(e[i] * h_bar[i][j] * e[j] for i in range(inst.dim) for j in range(inst.dim)) / 2
        gap = inst.suboptimality(w)
        assert gap > 0.0
        assert abs(Fraction(gap) - exact) <= Fraction(1, 10**10) * exact, k


def _softplus(x):
    return (1 + x.exp()).ln() if x < 0 else x + (1 + (-x).exp()).ln()


def test_logistic_gap_matches_50_digit_decimal():
    inst = _instances()[1]
    features, labels = inst.stacked["features"], inst.stacked["labels"]
    x_max = float(np.linalg.norm(features, axis=2).max())
    lam = Decimal(inst.stacked["l2"])
    rng = np.random.default_rng(41)

    def value(w):
        wd = [Decimal(x) for x in w]
        total = Decimal(0)
        for x, y in zip(features.reshape(-1, inst.dim), labels.ravel()):
            total += _softplus(-Decimal(y) * sum(Decimal(a) * b for a, b in zip(x, wd)))
        return total / labels.size + lam / 2 * sum(b * b for b in wd)

    with localcontext() as ctx:
        ctx.prec = 50
        f_star = value(inst.w_star)
        # from 1e3, where the margins move by more than exp() can represent,
        # down to 1e-9 next to the optimum
        for k in range(-3, 10):
            s = 10.0**-k
            w = inst.w_star + s * _unit(rng, inst.dim)
            exact = value(w) - f_star
            gap = inst.suboptimality(w)
            assert exact > 0 and gap > 0.0 and math.isfinite(gap)
            err = abs(Decimal(gap) - exact)
            # each sample's margin change x.(w - w*) is rounded once, so double
            # precision leaves an error of order eps * ||x|| * ||w - w*||,
            # first order in s while the gap is second order
            assert err <= Decimal(1e-10) * exact + Decimal(4 * np.finfo(float).eps * x_max * s), k
            if s >= 1e-6:
                assert err <= Decimal(1e-10) * exact, k


def test_rate_fit_near_the_optimum_recovers_the_quadratic_order(quad_workload_instance):
    inst = quad_workload_instance
    v = _unit(np.random.default_rng(43), inst.dim)
    steps = np.logspace(-2, -9, 15)
    gaps = [(s, inst.suboptimality(inst.w_star + s * v)) for s in steps]
    assert fit_rate_slope(gaps, (1e-9, 1e-2)) == pytest.approx(2.0, abs=1e-6)


# ---------------------------------------------------------------------------
# stochastic oracle / noise contract
# ---------------------------------------------------------------------------


def test_sphere_noise_norm_is_exact_and_centered():
    rng = np.random.default_rng(31)
    draws = sphere_noise(rng.standard_normal((20_000, 4)), sigma=0.7)
    norms = np.linalg.norm(draws, axis=1)
    assert np.allclose(norms, 0.7, rtol=1e-12)
    mean = draws.mean(axis=0)
    assert np.all(np.abs(mean) <= 5 * 0.7 / math.sqrt(20_000))


def test_sphere_noise_normalises_every_vector_of_a_block_as_alone():
    raw = np.random.default_rng(32).standard_normal((3, 5, 7))
    block = sphere_noise(raw, 0.4)
    for a in range(3):
        for k in range(5):
            assert np.array_equal(block[a, k], sphere_noise(raw[a, k], 0.4))
    assert np.array_equal(sphere_noise(np.zeros((2, 3)), 0.0), np.zeros((2, 3)))


def one_step_updates(inst, i, w, rng, count):
    """``count`` one-step local updates of device i at w, drawn in turn from
    ``rng`` as one batch: each row is one stochastic gradient."""
    return local_updates(inst, [i] * count, w, 0.1, 1, [rng] * count)


def test_one_step_update_with_zero_sigma_equals_grad_and_draws_nothing():
    inst = make_quadratic_instance(3, 3, mu=1.0, smoothness=2.0, sigma=0.0, heterogeneity=1.0, seed=3)
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    w = np.array([0.5, -1.0, 2.0])
    assert np.array_equal(one_step_updates(inst, 0, w, rng, 1)[0], inst.grad(0, w))
    assert rng.bit_generator.state == state


def test_one_step_update_monte_carlo_mean_matches_grad():
    inst = make_quadratic_instance(2, 3, mu=1.0, smoothness=2.0, sigma=1.0, heterogeneity=1.0, seed=4)
    rng = np.random.default_rng(5)
    w = np.array([1.0, 0.0, -1.0])
    draws = 100_000
    mean = one_step_updates(inst, 0, w, rng, draws).mean(axis=0)
    assert np.all(np.abs(mean - inst.grad(0, w)) <= 4 * 1.0 / math.sqrt(draws))


def test_one_step_update_norm_deviation_is_sigma_exactly():
    inst = make_nonconvex_instance(2, 4, curvature=2.0, amplitude=1.0, sigma=0.9, heterogeneity=1.0, seed=5)
    rng = np.random.default_rng(6)
    w = np.zeros(4)
    for dev in one_step_updates(inst, 0, w, rng, 50) - inst.grad(0, w):
        assert np.linalg.norm(dev) == pytest.approx(0.9, rel=1e-12)


def test_grad_rejects_bad_device_and_nonfinite_w():
    inst = make_quadratic_instance(2, 2, mu=1.0, smoothness=2.0, sigma=0.0, heterogeneity=1.0, seed=6)
    with pytest.raises(IndexError):
        inst.grad(5, np.zeros(2))
    with pytest.raises(ValueError):
        inst.grad(0, np.array([np.nan, 0.0]))


@pytest.mark.parametrize("call", [
    lambda inst, w: inst.value(0, w),
    lambda inst, w: inst.grad(0, w),
    lambda inst, w: inst.global_value(w),
    lambda inst, w: inst.global_grad(w),
    lambda inst, w: inst.suboptimality(w),
])
@pytest.mark.parametrize("w", [np.array([np.nan, 0.0]), np.array([0.0, np.inf]), np.zeros(3), np.zeros((1, 2))])
def test_every_method_rejects_a_bad_w_by_name(call, w):
    for inst in (make_quadratic_instance(2, 2, mu=1.0, smoothness=2.0, sigma=0.0, heterogeneity=1.0, seed=6),
                 make_logistic_instance(2, 2, samples_per_device=3, l2=1.0, label_skew=0.5, seed=6),
                 make_nonconvex_instance(2, 2, curvature=1.0, amplitude=0.5, sigma=0.0, heterogeneity=1.0, seed=6)):
        with pytest.raises(ValueError, match="^w must"):
            call(inst, w)


# ---------------------------------------------------------------------------
# stacked family formulas against the one-device formulas
# ---------------------------------------------------------------------------


def _quadratic_value_one(s, i, w):
    diff = w - s["centers"][i]
    return 0.5 * float(diff @ s["hessians"][i] @ diff)


def _quadratic_grad_one(s, i, w):
    return s["hessians"][i] @ (w - s["centers"][i])


def _logistic_value_one(s, i, w):
    margins = s["labels"][i] * (s["features"][i] @ w)
    loss = float(np.mean(np.logaddexp(0.0, -margins)))
    return loss + 0.5 * s["l2"] * float(w @ w)


def _logistic_grad_one(s, i, w):
    features, labels = s["features"][i], s["labels"][i]
    margins = labels * (features @ w)
    g = -(features * (labels * problems._sigmoid(-margins))[:, None]).mean(axis=0)
    return g + s["l2"] * w


def _trig_value_one(s, i, w):
    diff = w - s["centers"][i]
    return 0.5 * s["curvature"] * float(diff @ diff) + s["amplitude"] * float(np.sum(np.cos(w)))


def _trig_grad_one(s, i, w):
    return s["curvature"] * (w - s["centers"][i]) - s["amplitude"] * np.sin(w)


ONE_DEVICE = {
    "quadratic": (_quadratic_value_one, _quadratic_grad_one),
    "logistic": (_logistic_value_one, _logistic_grad_one),
    "trig": (_trig_value_one, _trig_grad_one),
}


def _shaped_instances(n, d):
    return [
        make_quadratic_instance(n, d, mu=0.5, smoothness=7.0, sigma=0.0, heterogeneity=2.0, seed=n + d),
        make_logistic_instance(n, d, samples_per_device=1 + (n + d) % 9, l2=0.3, label_skew=0.7, seed=n * d),
        make_nonconvex_instance(n, d, curvature=1.5, amplitude=1.0, sigma=0.0, heterogeneity=2.0, seed=n + 3 * d),
    ]


def _same_bits(a, b):
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("n,d", [(1, 1), (1, 5), (2, 1), (4, 3), (5, 3), (9, 1), (12, 17), (40, 2)])
def test_stacked_rows_equal_the_one_device_formulas(n, d):
    rng = np.random.default_rng(100 * n + d)
    for inst in _shaped_instances(n, d):
        s, rows = inst.stacked, problems.FAMILIES[inst.kind]
        value_one, grad_one = ONE_DEVICE[inst.kind]
        for scale in (0.0, 1.0, 30.0):
            w = scale * rng.standard_normal(d)
            values = [value_one(s, i, w) for i in range(n)]
            grads = [grad_one(s, i, w) for i in range(n)]
            if n <= 4:  # every ordered subset
                blocks = [np.array(p) for k in range(1, n + 1) for p in itertools.permutations(range(n), k)]
            else:
                blocks = [np.arange(n), np.arange(n)[::-1], rng.permutation(n)]
                blocks += [rng.choice(n, size=k, replace=False) for k in range(1, n + 1)]
            blocks.append(rng.choice(n, size=3 * n))  # repeated ids
            for ids in blocks:
                got_values, got_grads = rows.value(s, ids, w), rows.grad(s, ids, w)
                assert got_values.shape == (len(ids),) and got_grads.shape == (len(ids), d)
                for r, i in enumerate(ids):
                    assert _same_bits(got_values[r], values[i]), (inst.kind, i)
                    assert _same_bits(got_grads[r], grads[i]), (inst.kind, i)
            assert _same_bits(rows.value(s, slice(None), w), values)
            assert _same_bits(rows.grad(s, slice(None), w), grads)
            assert _same_bits([inst.value(i, w) for i in range(n)], values)
            assert _same_bits([inst.grad(i, w) for i in range(n)], grads)
            assert _same_bits(inst.global_value(w), math.fsum(values) / n)


def _hessians_one_device_loop(n_devices, dim, mu, smoothness, heterogeneity, seed):
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0x5EED]))
    hessians = np.empty((n_devices, dim, dim))
    centers = problems._ball_points(rng, n_devices, dim, heterogeneity)
    for i in range(n_devices):
        if dim == 1:
            eigs = np.array([mu if i % 2 == 0 else smoothness])
        else:
            eigs = np.linspace(mu, smoothness, dim)
        q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
        hessians[i] = (q * eigs) @ q.T
        hessians[i] = 0.5 * (hessians[i] + hessians[i].T)
    return hessians, centers


@pytest.mark.parametrize("n", [1, 7, 200])
@pytest.mark.parametrize("d", [1, 2, 10])
def test_batched_quadratic_build_equals_the_one_device_qr_loop(n, d):
    inst = make_quadratic_instance(n, d, mu=0.7, smoothness=6.0, sigma=0.0, heterogeneity=1.5, seed=n * d)
    hessians, centers = _hessians_one_device_loop(n, d, 0.7, 6.0, 1.5, n * d)
    assert _same_bits(inst.stacked["hessians"], hessians)
    assert _same_bits(inst.stacked["centers"], centers)
    w_star = inst.w_star
    grads = [_quadratic_grad_one(inst.stacked, i, w_star) for i in range(n)]
    assert _same_bits(inst.f_star, math.fsum(_quadratic_value_one(inst.stacked, i, w_star) for i in range(n)) / n)
    assert _same_bits(inst.constants.dissimilarity, math.fsum(float(np.dot(g, g)) for g in grads) / n)


def _logistic_mean_grad_one_device_loop(s, w):
    n = len(s["labels"])
    return sum((_logistic_grad_one(s, i, w) for i in range(n)), np.zeros(len(w))) / n


@pytest.mark.parametrize("n,d,samples", [(1, 1, 1), (4, 1, 6), (7, 3, 5), (6, 5, 1), (19, 1, 3)])
def test_logistic_build_equals_the_one_device_loops(n, d, samples):
    inst = make_logistic_instance(n, d, samples_per_device=samples, l2=0.4, label_skew=0.5, seed=n + d)
    s, features = inst.stacked, inst.stacked["features"]
    max_curv = max(float(np.linalg.eigvalsh(x.T @ x).max()) for x in features)
    assert _same_bits(inst.constants.smoothness, 0.4 + max_curv / (4.0 * samples))
    max_x = max(float(np.linalg.norm(x, axis=1).max()) for x in features)
    assert _same_bits(inst.constants.noise_std, max_x)
    rng = np.random.default_rng(n * d)
    for w in (inst.w_star, np.zeros(d), *rng.standard_normal((5, d))):
        assert _same_bits(problems._logistic_mean_grad(s, w), _logistic_mean_grad_one_device_loop(s, w))
    grads = [_logistic_grad_one(s, i, inst.w_star) for i in range(n)]
    assert _same_bits(inst.constants.dissimilarity, math.fsum(float(np.dot(g, g)) for g in grads) / n)


def test_logistic_mean_grad_of_negative_zeros_is_positive_zero():
    inst = make_logistic_instance(5, 1, samples_per_device=2, l2=1.0, label_skew=0.0, seed=1)
    s = {**inst.stacked, "features": np.zeros_like(inst.stacked["features"])}
    w = np.array([-0.0])
    assert _same_bits(_logistic_grad_one(s, 0, w), w)  # every device row is -0.0
    assert _same_bits(problems._logistic_mean_grad(s, w), _logistic_mean_grad_one_device_loop(s, w))
    assert _same_bits(problems._logistic_mean_grad(s, w), [0.0])


def test_quadratic_build_decomposes_the_hessian_stack_once(monkeypatch):
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(np.array(a)) or eigvalsh(a))
    inst = make_quadratic_instance(6, 3, mu=1.0, smoothness=5.0, sigma=0.0, heterogeneity=1.0, seed=8)
    on_stack = [a for a in calls if a.shape == inst.stacked["hessians"].shape
                and np.array_equal(a, inst.stacked["hessians"])]
    assert len(on_stack) == 1 and len(calls) == 2  # the other call is the certificate's, on M_i


def test_positive_definiteness_errors():
    with pytest.raises(SpecError) as err:
        make_quadratic_instance(4, 6, mu=1.0, smoothness=1e17, sigma=0.0, heterogeneity=1.0, seed=3)
    assert err.value.key == "smoothness"
    indefinite = np.stack([np.eye(2), np.diag([1.0, -1.0])])
    with pytest.raises(ValueError, match="positive definite"):
        quadratic_instance_from_arrays(indefinite, np.zeros((2, 2)), sigma=0.0)
    with pytest.raises(ValueError, match="positive definite"):
        quadratic_instance_from_arrays(np.zeros((1, 1, 1)), np.zeros((1, 1)), sigma=0.0)


def test_from_arrays_rejects_an_asymmetric_hessian():
    # eigvalsh reads one triangle and sees mu = L = 1; the objective's
    # symmetric part has eigenvalues -1.5 and 3.5
    hessians = np.array([[[1.0, 5.0], [0.0, 1.0]], np.eye(2)])
    with pytest.raises(ValueError, match="hessians must be exactly symmetric"):
        quadratic_instance_from_arrays(hessians, np.zeros((2, 2)), sigma=0.0)


@pytest.mark.parametrize("hessians_shape, centers_shape", [((2, 3, 3), (2, 2)), ((2, 2, 3), (2, 2)),
                                                            ((3, 2, 2), (2, 2)), ((2, 2), (2, 2)),
                                                            ((2, 2, 2), (2,))])
def test_from_arrays_names_mismatched_shapes(hessians_shape, centers_shape):
    with pytest.raises(ValueError, match=r"expected hessians \(N, d, d\) and centers \(N, d\)"):
        quadratic_instance_from_arrays(np.ones(hessians_shape), np.zeros(centers_shape), sigma=0.0)


def test_logistic_build_without_an_optimum(monkeypatch):
    monkeypatch.setattr(problems, "_logistic_optimum", lambda s, dim, smooth: (None, None))
    inst = make_logistic_instance(3, 2, samples_per_device=4, l2=1.0, label_skew=0.5, seed=4)
    assert inst.w_star is None and inst.f_star is None
    assert inst.constants.dissimilarity is None and inst.aggregates == {}
    with pytest.raises(MissingOptimumError):
        inst.suboptimality(np.zeros(2))
    with pytest.raises(MissingOptimumError):
        inst.recompute_dissimilarity()
