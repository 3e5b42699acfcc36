"""Synthetic per-device objective families with machine-checkable constants.

Three families are provided, each exposing exact and stochastic gradient
oracles plus certified smoothness/convexity/noise constants:

- quadratic:      f_i(w) = 0.5 (w - c_i)^T H_i (w - c_i)
- logistic:       binary logistic loss + (lam/2) ||w||^2 per device
- nonconvex trig: f_i(w) = (curvature/2) ||w - c_i||^2 + amplitude * sum_j cos(w_j)

Parameter vectors are plain 1-D float64 numpy arrays. Instances are
immutable after construction and safe to share across concurrent runs;
random streams are always caller-owned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

DISSIMILARITY_SAMPLES = 10_000
DISSIMILARITY_MARGIN = 1.1
# Certificate checks walk their sample points in row blocks of about this
# many float64 values per (rows, N, d) temporary, so building an instance
# needs O(samples * d) memory rather than O(samples * N * d).
CERTIFICATE_BLOCK_FLOATS = 1 << 18


class MissingOptimumError(RuntimeError):
    """Raised when suboptimality is requested but no certified f* exists."""


def _check_finite(name, value):
    arr = np.asarray(value, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    return arr


def sphere_noise(rng: np.random.Generator, steps: int, dim: int, sigma: float) -> np.ndarray:
    """Draw ``steps`` noise vectors uniform on the radius-``sigma`` sphere.

    Mean zero by symmetry, ||noise|| == sigma exactly, so the noise meets a
    variance bound of sigma^2 and an almost-sure norm bound of sigma at the
    same time. ``sigma == 0`` consumes no randomness.
    """
    if sigma == 0.0:
        return np.zeros((steps, dim))
    raw = rng.standard_normal((steps, dim))
    norms = np.linalg.norm(raw, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    return raw * (sigma / norms)


@dataclass(frozen=True)
class QuadraticDevice:
    hessian: np.ndarray
    center: np.ndarray

    def value(self, w):
        diff = w - self.center
        return 0.5 * float(diff @ self.hessian @ diff)

    def grad(self, w):
        return self.hessian @ (w - self.center)


@dataclass(frozen=True)
class LogisticDevice:
    features: np.ndarray  # (n_samples, dim)
    labels: np.ndarray    # (n_samples,), entries in {-1, +1}
    l2: float

    def value(self, w):
        margins = self.labels * (self.features @ w)
        loss = float(np.mean(np.logaddexp(0.0, -margins)))
        return loss + 0.5 * self.l2 * float(w @ w)

    def grad(self, w):
        margins = self.labels * (self.features @ w)
        s = _sigmoid(-margins)
        g = -(self.features * (self.labels * s)[:, None]).mean(axis=0)
        return g + self.l2 * w

    def sample_grad(self, w, j):
        x = self.features[j]
        y = self.labels[j]
        s = _sigmoid(-y * float(x @ w))
        return -y * s * x + self.l2 * w


@dataclass(frozen=True)
class TrigDevice:
    center: np.ndarray
    curvature: float
    amplitude: float

    def value(self, w):
        diff = w - self.center
        return 0.5 * self.curvature * float(diff @ diff) + self.amplitude * float(np.sum(np.cos(w)))

    def grad(self, w):
        return self.curvature * (w - self.center) - self.amplitude * np.sin(w)

    def hessian(self, w):
        return self.curvature * np.eye(len(w)) - self.amplitude * np.diag(np.cos(w))


def _sigmoid(z):
    return 0.5 * (1.0 + np.tanh(0.5 * z))


@dataclass(frozen=True)
class ProblemConstants:
    smoothness: float          # every f_i is smoothness-smooth
    strong_convexity: float    # 0 for the trig family
    noise_std: float           # bound on E||noise||^2 is noise_std^2
    noise_bound: float         # almost-sure bound on ||noise||
    hessian_lipschitz: float
    alpha: float               # gradient-dissimilarity slope
    beta_i: np.ndarray         # per-device gradient-dissimilarity offsets
    beta: float                # mean of beta_i
    dissimilarity: float       # mean_i ||grad_i(w*)||^2


@dataclass(frozen=True)
class ProblemInstance:
    """N per-device objectives plus certified constants and optimum.

    ``stacked`` holds the per-device parameters as (N, ...) arrays; each
    device object holds views of them, so the data is stored once.
    ``aggregates`` holds what the closed-form metrics need, computed once
    when the instance is built:

    - quadratic: ``h_bar`` = mean H_i and ``b_bar`` = mean H_i c_i;
    - logistic: ``l2`` and, at w*, the negated margins' sigmoid ``p_star``
      and the logs ``log_p_star``, ``log_q_star`` of sigmoid(+-margin);
    - trig: ``mean_center``.
    """

    kind: str                  # "quadratic" | "logistic" | "trig"
    devices: tuple
    dim: int
    constants: ProblemConstants
    w_star: np.ndarray | None
    f_star: float | None
    strongly_convex: bool
    stacked: dict = field(default_factory=dict, repr=False)
    aggregates: dict = field(default_factory=dict, repr=False)

    @property
    def n_devices(self) -> int:
        return len(self.devices)

    def _check_device(self, i):
        if not 0 <= i < self.n_devices:
            raise IndexError(f"device id {i} out of range [0, {self.n_devices})")

    def value(self, i: int, w: np.ndarray) -> float:
        self._check_device(i)
        return self.devices[i].value(w)

    def grad(self, i: int, w: np.ndarray) -> np.ndarray:
        self._check_device(i)
        w = _check_finite("w", w)
        return self.devices[i].grad(w)

    def stoch_grad(self, i: int, w: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Unbiased gradient estimate for device i.

        Quadratic/trig families add uniform-sphere noise of radius
        ``noise_std``; the logistic family draws a single-sample gradient.
        """
        self._check_device(i)
        w = _check_finite("w", w)
        if self.kind == "logistic":
            dev = self.devices[i]
            j = int(rng.integers(len(dev.labels), size=1)[0])
            return dev.sample_grad(w, j)
        noise = sphere_noise(rng, 1, self.dim, self.constants.noise_std)[0]
        return self.devices[i].grad(w) + noise

    def global_value(self, w: np.ndarray) -> float:
        """f(w) = mean_i f_i(w), the per-device values summed exactly."""
        w = _check_finite("w", w)
        if self.kind == "quadratic":
            diffs = w - self.stacked["centers"]
            values = 0.5 * np.einsum("ni,nij,nj->n", diffs, self.stacked["hessians"], diffs)
        elif self.kind == "logistic":
            margins = self.stacked["labels"] * (self.stacked["features"] @ w)
            values = np.logaddexp(0.0, -margins).mean(axis=1) + 0.5 * self.aggregates["l2"] * float(w @ w)
        else:
            values = (dev.value(w) for dev in self.devices)
        return math.fsum(values) / self.n_devices

    def global_grad(self, w: np.ndarray) -> np.ndarray:
        w = _check_finite("w", w)
        agg = self.aggregates
        if self.kind == "quadratic":
            return agg["h_bar"] @ w - agg["b_bar"]
        if self.kind == "trig":
            return self.stacked["curvature"] * (w - agg["mean_center"]) - self.stacked["amplitude"] * np.sin(w)
        features, labels = self.stacked["features"], self.stacked["labels"]
        weights = labels * _sigmoid(-labels * (features @ w))  # (N, S)
        return -np.einsum("ns,nsd->d", weights, features) / weights.size + agg["l2"] * w

    def suboptimality(self, w: np.ndarray) -> float:
        """f(w) - f(w*), measured against the stored optimum w*.

        The quadratic and logistic gaps are closed forms in e = w - w*, so
        they keep their relative accuracy as w approaches w* instead of
        cancelling to zero; the trig gap is f(w) - f_star.
        """
        if self.f_star is None:
            raise MissingOptimumError("instance has no certified optimum value")
        w = _check_finite("w", w)
        if self.kind == "trig":
            return self.global_value(w) - self.f_star
        agg = self.aggregates
        e = w - self.w_star
        if self.kind == "quadratic":
            return 0.5 * float(e @ (agg["h_bar"] @ e))
        # per sample, softplus(b + d) - softplus(b) = log(q + p e^d) with the
        # negated margin b at w*, d its change and p = sigmoid(b) = 1 - q
        d = -self.stacked["labels"] * (self.stacked["features"] @ e)
        near = np.log1p(agg["p_star"] * np.expm1(np.clip(d, -1.0, 1.0)))
        far = np.logaddexp(agg["log_q_star"], agg["log_p_star"] + d)
        loss_gap = float(np.where(np.abs(d) <= 1.0, near, far).mean())
        return loss_gap + 0.5 * agg["l2"] * float(e @ (w + self.w_star))

    def recompute_dissimilarity(self) -> float:
        """mean_i ||grad_i(w*)||^2 recomputed from the stored optimum."""
        if self.w_star is None:
            raise MissingOptimumError("instance has no certified optimum")
        return _dissimilarity_of(self.devices, self.w_star)


def _dissimilarity_of(devices, w_star):
    return math.fsum(float(np.dot(g, g)) for g in (dev.grad(w_star) for dev in devices)) / len(devices)


def _ball_points(rng, count, dim, radius):
    directions = rng.standard_normal((count, dim))
    norms = np.linalg.norm(directions, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    radii = radius * rng.random((count, 1)) ** (1.0 / dim)
    return directions / norms * radii


def _row_blocks(points, floats_per_row):
    """Consecutive row slices of ``points``, each expanding to at most
    CERTIFICATE_BLOCK_FLOATS values at ``floats_per_row`` per row (at least
    one row per slice)."""
    rows = max(1, CERTIFICATE_BLOCK_FLOATS // floats_per_row)
    for start in range(0, len(points), rows):
        yield points[start : start + rows]


def _sampled_beta_quadratic(hessians, centers, alpha, radius, seed):
    """Per-device sampled sup of ||grad_i||^2 - alpha ||grad||^2 over a ball."""
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0xBE7A]))
    n_devices, dim = centers.shape
    points = _ball_points(rng, DISSIMILARITY_SAMPLES, dim, radius)
    beta = np.zeros(n_devices)
    for block in _row_blocks(points, n_devices * dim):
        diffs = block[:, None, :] - centers[None, :, :]
        grads = np.einsum("nij,snj->sni", hessians, diffs)  # (rows, N, d)
        per_dev_sq = np.sum(grads**2, axis=2)               # (rows, N)
        global_sq = np.sum(grads.mean(axis=1) ** 2, axis=1) # (rows,)
        np.maximum(beta, (per_dev_sq - alpha * global_sq[:, None]).max(axis=0), out=beta)
    return DISSIMILARITY_MARGIN * beta


def make_quadratic_instance(
    n_devices: int,
    dim: int,
    mu: float,
    smoothness: float,
    sigma: float,
    heterogeneity: float,
    seed: int,
) -> ProblemInstance:
    """Random quadratic family with exact optimum and exact (mu, L).

    Each Hessian is a random orthogonal conjugation of eigenvalues linearly
    spaced in [mu, smoothness], so both endpoints are attained exactly
    (alternating per device when dim == 1). Centers are drawn uniformly in
    the ball of radius ``heterogeneity``.
    """
    _validate_family_args(n_devices, dim, sigma)
    for name, v in (("mu", mu), ("smoothness", smoothness), ("heterogeneity", heterogeneity)):
        if not np.isfinite(v):
            raise ValueError(f"{name} must be finite")
    if mu <= 0 or smoothness < mu:
        raise ValueError("need 0 < mu <= smoothness")
    if heterogeneity < 0:
        raise ValueError("heterogeneity must be >= 0")

    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0x5EED]))
    hessians = np.empty((n_devices, dim, dim))
    centers = _ball_points(rng, n_devices, dim, heterogeneity)
    for i in range(n_devices):
        if dim == 1:
            eigs = np.array([mu if i % 2 == 0 else smoothness])
        else:
            eigs = np.linspace(mu, smoothness, dim)
        q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
        hessians[i] = (q * eigs) @ q.T
        hessians[i] = 0.5 * (hessians[i] + hessians[i].T)
    return quadratic_instance_from_arrays(hessians, centers, sigma, seed=seed)


def quadratic_instance_from_arrays(
    hessians: np.ndarray, centers: np.ndarray, sigma: float, seed: int = 0
) -> ProblemInstance:
    """Quadratic instance from explicit per-device (H_i, c_i) arrays.

    The instance keeps its own copy of the arrays; each device holds views
    of that copy.
    """
    hessians = np.array(_check_finite("hessians", hessians))
    centers = np.array(_check_finite("centers", centers))
    if hessians.ndim != 3 or centers.ndim != 2 or hessians.shape[0] != centers.shape[0]:
        raise ValueError("expected hessians (N, d, d) and centers (N, d)")
    n_devices, dim = centers.shape
    _validate_family_args(n_devices, dim, sigma)

    devices = tuple(QuadraticDevice(hessians[i], centers[i]) for i in range(n_devices))
    eigs = np.concatenate([np.linalg.eigvalsh(h) for h in hessians])
    mu_eff = float(eigs.min())
    l_eff = float(eigs.max())
    if mu_eff <= 0:
        raise ValueError("all Hessians must be positive definite")

    h_sum = hessians.sum(axis=0)
    rhs = np.einsum("nij,nj->i", hessians, centers)
    w_star = np.linalg.solve(h_sum, rhs)
    f_star = math.fsum(dev.value(w_star) for dev in devices) / n_devices

    grad_residual = np.linalg.norm(np.einsum("nij,nj->i", hessians, w_star[None, :] - centers) / n_devices)
    grad_at_zero = np.linalg.norm(rhs / n_devices)
    if grad_residual > 1e-8 * max(1.0, grad_at_zero):
        raise ArithmeticError("optimum solve failed the gradient-residual check")

    alpha = 2.0 * (l_eff / mu_eff) ** 2
    radius = max(1.0, 10.0 * float(np.linalg.norm(centers, axis=1).max(initial=0.0)))
    beta_i = _sampled_beta_quadratic(hessians, centers, alpha, radius, seed)
    constants = ProblemConstants(
        smoothness=l_eff,
        strong_convexity=mu_eff,
        noise_std=float(sigma),
        noise_bound=float(sigma),
        hessian_lipschitz=0.0,
        alpha=alpha,
        beta_i=beta_i,
        beta=float(beta_i.mean()),
        dissimilarity=_dissimilarity_of(devices, w_star),
    )
    return ProblemInstance(
        kind="quadratic",
        devices=devices,
        dim=dim,
        constants=constants,
        w_star=w_star,
        f_star=f_star,
        strongly_convex=True,
        stacked={"hessians": hessians, "centers": centers},
        aggregates={"h_bar": h_sum / n_devices, "b_bar": rhs / n_devices},
    )


def make_logistic_instance(
    n_devices: int,
    dim: int,
    samples_per_device: int,
    l2: float,
    label_skew: float,
    seed: int,
) -> ProblemInstance:
    """Binary l2-regularized logistic regression with a non-iid label split.

    ``label_skew`` in [0, 1] moves each device from a balanced label mix
    (0) to holding a single class (1), devices alternating the majority
    class. The optimum is computed by a deterministic full-gradient descent
    oracle run to ||grad|| <= 1e-10 * max(1, ||grad(0)||).
    """
    _validate_family_args(n_devices, dim, 0.0)
    if samples_per_device < 1:
        raise ValueError("samples_per_device must be >= 1")
    if not 0.0 <= label_skew <= 1.0:
        raise ValueError("label_skew must lie in [0, 1]")
    if not np.isfinite(l2) or l2 <= 0:
        raise ValueError("l2 must be > 0 (strong convexity)")

    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0x10C1]))
    class_shift = rng.standard_normal(dim)
    class_shift /= max(1.0, np.linalg.norm(class_shift))
    features = np.empty((n_devices, samples_per_device, dim))
    labels = np.empty((n_devices, samples_per_device))
    for i in range(n_devices):
        p_pos = 0.5 + 0.5 * label_skew * (1 if i % 2 == 0 else -1)
        labels[i] = np.where(rng.random(samples_per_device) < p_pos, 1.0, -1.0)
        features[i] = rng.standard_normal((samples_per_device, dim)) + labels[i][:, None] * class_shift
    devices = tuple(LogisticDevice(features[i], labels[i], float(l2)) for i in range(n_devices))

    max_curv = max(
        float(np.linalg.eigvalsh(dev.features.T @ dev.features).max()) for dev in devices
    )
    smooth = l2 + max_curv / (4.0 * samples_per_device)
    w_star, f_star = _logistic_optimum(devices, dim, smooth)

    max_x = max(float(np.linalg.norm(dev.features, axis=1).max()) for dev in devices)
    beta_i = np.full(n_devices, 8.0 * max_x**2)
    constants = ProblemConstants(
        smoothness=smooth,
        strong_convexity=float(l2),
        noise_std=max_x,
        noise_bound=2.0 * max_x,
        hessian_lipschitz=0.0,
        alpha=2.0,
        beta_i=beta_i,
        beta=float(beta_i.mean()),
        dissimilarity=_dissimilarity_of(devices, w_star),
    )
    aggregates = {"l2": float(l2)}
    if w_star is not None:
        neg_margins = -labels * (features @ w_star)
        aggregates.update(
            p_star=_sigmoid(neg_margins),
            log_p_star=-np.logaddexp(0.0, -neg_margins),
            log_q_star=-np.logaddexp(0.0, neg_margins),
        )
    return ProblemInstance(
        kind="logistic",
        devices=devices,
        dim=dim,
        constants=constants,
        w_star=w_star,
        f_star=f_star,
        strongly_convex=True,
        stacked={"features": features, "labels": labels},
        aggregates=aggregates,
    )


def _logistic_optimum(devices, dim, smooth, tol_scale=1e-10, max_iters=1_000_000):
    # Deterministic full-batch gradient descent with step 1/L. Independent
    # of every simulated optimizer path, so suboptimality curves stay honest.
    n = len(devices)

    def full_grad(w):
        acc = np.zeros(dim)
        for dev in devices:
            acc += dev.grad(w)
        return acc / n

    w = np.zeros(dim)
    g = full_grad(w)
    target = tol_scale * max(1.0, float(np.linalg.norm(g)))
    step = 1.0 / smooth
    for _ in range(max_iters):
        if np.linalg.norm(g) <= target:
            break
        w = w - step * g
        g = full_grad(w)
    else:
        return None, None
    if np.linalg.norm(g) > target:
        return None, None
    f_star = math.fsum(dev.value(w) for dev in devices) / n
    return w, f_star


def make_nonconvex_instance(
    n_devices: int,
    dim: int,
    curvature: float,
    amplitude: float,
    sigma: float,
    heterogeneity: float,
    seed: int,
) -> ProblemInstance:
    """Quadratic-plus-cosine family with a Lipschitz Hessian.

    f_i(w) = (curvature/2) ||w - c_i||^2 + amplitude * sum_j cos(w_j), so
    smoothness = curvature + amplitude and the Hessian-Lipschitz constant is
    exactly ``amplitude``. Requires amplitude <= curvature to keep the
    landscape usable for slope checks.
    """
    _validate_family_args(n_devices, dim, sigma)
    if not np.isfinite(curvature) or curvature <= 0:
        raise ValueError("curvature must be > 0")
    if not np.isfinite(amplitude) or amplitude < 0:
        raise ValueError("amplitude must be >= 0")
    if amplitude > curvature:
        raise ValueError("amplitude must not exceed curvature")
    if heterogeneity < 0:
        raise ValueError("heterogeneity must be >= 0")

    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0x7819]))
    centers = _ball_points(rng, n_devices, dim, heterogeneity)
    devices = tuple(TrigDevice(centers[i], float(curvature), float(amplitude)) for i in range(n_devices))

    mean_center = centers.mean(axis=0)
    w_star = _trig_optimum(mean_center, curvature, amplitude)
    f_star = math.fsum(dev.value(w_star) for dev in devices) / n_devices

    # grad_i - grad = curvature * (mean_center - c_i) exactly, so alpha = 2
    # with the algebraic beta_i below is a global certificate; the sampled
    # check below re-verifies it.
    beta_i = 2.0 * curvature**2 * np.sum((centers - mean_center) ** 2, axis=1)
    _verify_dissimilarity_trig(centers, curvature, amplitude, 2.0, beta_i, heterogeneity, seed)

    constants = ProblemConstants(
        smoothness=float(curvature + amplitude),
        strong_convexity=0.0,
        noise_std=float(sigma),
        noise_bound=float(sigma),
        hessian_lipschitz=float(amplitude),
        alpha=2.0,
        beta_i=beta_i,
        beta=float(beta_i.mean()),
        dissimilarity=_dissimilarity_of(devices, w_star),
    )
    return ProblemInstance(
        kind="trig",
        devices=devices,
        dim=dim,
        constants=constants,
        w_star=w_star,
        f_star=f_star,
        strongly_convex=False,
        stacked={"centers": centers, "curvature": float(curvature), "amplitude": float(amplitude)},
        aggregates={"mean_center": mean_center},
    )


def _trig_optimum(mean_center, curvature, amplitude):
    """Per-coordinate global minimizer of (c/2)(x-m)^2 + a*cos(x).

    The objective separates across coordinates; every stationary point has
    |x - m| <= amplitude/curvature, so a dense grid plus bisection on the
    derivative finds the global coordinate minimum.
    """
    if amplitude == 0.0:
        return mean_center.copy()
    out = np.empty_like(mean_center)
    for j, m in enumerate(mean_center):
        r = amplitude / curvature + np.pi
        xs = np.linspace(m - r, m + r, 4001)
        vals = 0.5 * curvature * (xs - m) ** 2 + amplitude * np.cos(xs)
        k = int(np.argmin(vals))
        lo = xs[max(k - 1, 0)]
        hi = xs[min(k + 1, len(xs) - 1)]

        def dphi(x, m=m):
            return curvature * (x - m) - amplitude * np.sin(x)

        if dphi(lo) <= 0.0 <= dphi(hi):
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                if dphi(mid) <= 0.0:
                    lo = mid
                else:
                    hi = mid
            out[j] = 0.5 * (lo + hi)
        else:
            out[j] = xs[k]
    return out


def _verify_dissimilarity_trig(centers, curvature, amplitude, alpha, beta_i, heterogeneity, seed):
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0xD155]))
    n_devices, dim = centers.shape
    radius = max(1.0, 10.0 * heterogeneity)
    points = _ball_points(rng, DISSIMILARITY_SAMPLES, dim, radius)
    mean_center = centers.mean(axis=0)
    for block in _row_blocks(points, n_devices * dim):
        trig = -amplitude * np.sin(block)                                # (rows, d)
        grads = curvature * (block[:, None, :] - centers[None, :, :]) + trig[:, None, :]
        per_dev_sq = np.sum(grads**2, axis=2)
        global_grads = curvature * (block - mean_center) + trig
        global_sq = np.sum(global_grads**2, axis=1)
        slack = per_dev_sq - alpha * global_sq[:, None] - beta_i[None, :]
        if float(slack.max()) > 1e-9:
            raise ArithmeticError("gradient-dissimilarity certificate failed")


def _validate_family_args(n_devices, dim, sigma):
    if n_devices < 1:
        raise ValueError("need at least one device")
    if dim < 1:
        raise ValueError("dimension must be >= 1")
    if not np.isfinite(sigma) or sigma < 0:
        raise ValueError("sigma must be finite and >= 0")
