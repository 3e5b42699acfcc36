"""Synthetic per-device objective families with machine-checkable constants.

Three families are provided, each exposing exact gradient oracles plus
certified smoothness/convexity/noise constants. The stochastic oracle is
the local update in ``algorithms``; its noise comes from ``sphere_noise``
(quadratic, trig) or from sampled data rows, ``logistic_sample_grads``:

- quadratic:      f_i(w) = 0.5 (w - c_i)^T H_i (w - c_i)
- logistic:       binary logistic loss + (lam/2) ||w||^2 per device
- nonconvex trig: f_i(w) = (curvature/2) ||w - c_i||^2 + amplitude * sum_j cos(w_j)

Parameter vectors are plain 1-D float64 numpy arrays. Instances are
immutable after construction and safe to share across concurrent runs;
random streams are always caller-owned.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

DISSIMILARITY_SAMPLES = 10_000
DISSIMILARITY_MARGIN = 1.1
# Certificate checks walk their sample points in row blocks of about this
# many float64 values per (rows, N, d) temporary, so building an instance
# needs O(samples * d) memory rather than O(samples * N * d).
CERTIFICATE_BLOCK_FLOATS = 1 << 18


class MissingOptimumError(RuntimeError):
    """Raised when suboptimality is requested but no certified f* exists."""


class SpecError(ValueError):
    """A builder rejects the value of its argument ``key``, the same key in
    the config section it builds: a value an algorithm's spec rules out, or
    a problem family's value that passes its range check but that the build
    cannot carry in double precision. A builder whose argument comes from
    another section (the schedule's ``mu``) is re-keyed by its caller."""

    def __init__(self, key: str, message: str):
        self.key = key
        super().__init__(message)


def _check_scale(smoothness_key, smoothness, log_alpha, heterogeneity, dim):
    """Name the argument that would overflow the dissimilarity certificate:
    it squares gradients of norm below 2 * smoothness * radius * sqrt(dim),
    on the ball of radius max(1, 10 * heterogeneity), and scales them by
    alpha, so that product must stay below the largest double."""
    for key, radius in ((smoothness_key, 1.0), ("heterogeneity", max(1.0, 10.0 * heterogeneity))):
        if log_alpha + math.log(dim) + 2.0 * math.log(2.0 * smoothness * radius) > math.log(sys.float_info.max):
            raise SpecError(key, f"{key} is too large: the dissimilarity certificate overflows double precision")


def _check_finite(name, value):
    arr = np.asarray(value, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    return arr


def sphere_noise(raw: np.ndarray, sigma: float) -> np.ndarray:
    """Scale every length-d vector along the last axis of ``raw``, a block
    of standard normal draws of any shape (..., d), onto the radius-``sigma``
    sphere.

    Mean zero by symmetry, ||noise|| == sigma exactly, so the noise meets a
    variance bound of sigma^2 and an almost-sure norm bound of sigma at the
    same time. A zero vector stays zero, so ``sigma == 0`` needs no draws.
    """
    norms = np.linalg.norm(raw, axis=-1, keepdims=True)
    norms[norms == 0.0] = 1.0
    return raw * (sigma / norms)


# Each family's per-device formulas, written once on the instance's stacked
# parameters ``s``: device i is row i of every array in ``s``.


def _quadratic_value(s, i, w):
    diff = w - s["centers"][i]
    return 0.5 * float(diff @ s["hessians"][i] @ diff)


def _quadratic_grad(s, i, w):
    return s["hessians"][i] @ (w - s["centers"][i])


def _logistic_value(s, i, w):
    margins = s["labels"][i] * (s["features"][i] @ w)
    loss = float(np.mean(np.logaddexp(0.0, -margins)))
    return loss + 0.5 * s["l2"] * float(w @ w)


def _logistic_grad(s, i, w):
    features, labels = s["features"][i], s["labels"][i]
    margins = labels * (features @ w)
    g = -(features * (labels * _sigmoid(-margins))[:, None]).mean(axis=0)
    return g + s["l2"] * w


def logistic_sample_grads(s, ids, w, picks):
    """Row r: the gradient of device ids[r]'s loss on its sample picks[r]
    alone, at w[r], plus the l2 term. The margins are one matmul per row,
    which computes each as the one-device ``x @ w`` does."""
    x, y = s["features"][ids, picks], s["labels"][ids, picks]
    sig = _sigmoid(-y * np.matmul(x[:, None, :], w[:, :, None])[:, 0, 0])
    return (-y * sig)[:, None] * x + s["l2"] * w


def _trig_value(s, i, w):
    diff = w - s["centers"][i]
    return 0.5 * s["curvature"] * float(diff @ diff) + s["amplitude"] * float(np.sum(np.cos(w)))


def _trig_grad(s, i, w):
    return s["curvature"] * (w - s["centers"][i]) - s["amplitude"] * np.sin(w)


class _Rows(NamedTuple):
    value: Callable   # (s, i, w) -> f_i(w)
    grad: Callable    # (s, i, w) -> grad f_i(w)
    per_device: str   # a key of ``s`` with one row per device


FAMILIES = {
    "quadratic": _Rows(_quadratic_value, _quadratic_grad, "centers"),
    "logistic": _Rows(_logistic_value, _logistic_grad, "labels"),
    "trig": _Rows(_trig_value, _trig_grad, "centers"),
}


def _mean_value(kind, s, w):
    """f(w) = mean_i f_i(w), the per-device values summed exactly."""
    rows = FAMILIES[kind]
    n = len(s[rows.per_device])
    return math.fsum(rows.value(s, i, w) for i in range(n)) / n


def _dissimilarity_of(kind, s, w_star):
    """mean_i ||grad_i(w*)||^2, summed exactly."""
    rows = FAMILIES[kind]
    n = len(s[rows.per_device])
    return math.fsum(float(np.dot(g, g)) for g in (rows.grad(s, i, w_star) for i in range(n))) / n


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

    ``stacked`` holds the family's parameters: per-device data as (N, ...)
    arrays, whose row i is device i, and shared scalars as floats:

    - quadratic: ``hessians`` (N, d, d) and ``centers`` (N, d);
    - logistic: ``features`` (N, S, d), ``labels`` (N, S) and ``l2``;
    - trig: ``centers`` (N, d), ``curvature`` and ``amplitude``.

    ``aggregates`` holds what the closed-form metrics need, computed once
    when the instance is built:

    - quadratic: ``h_bar`` = mean H_i and ``b_bar`` = mean H_i c_i;
    - logistic: at w*, the negated margins' sigmoid ``p_star`` and the logs
      ``log_p_star``, ``log_q_star`` of sigmoid(+-margin);
    - trig: ``mean_center``.

    Every array of ``stacked`` and ``aggregates``, ``w_star`` and
    ``constants.beta_i`` is read-only, so runs can share one instance.
    """

    kind: str                  # "quadratic" | "logistic" | "trig"
    dim: int
    constants: ProblemConstants
    w_star: np.ndarray | None
    f_star: float | None
    strongly_convex: bool
    stacked: dict = field(default_factory=dict, repr=False)
    aggregates: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        for a in (*self.stacked.values(), *self.aggregates.values(), self.w_star, self.constants.beta_i):
            if isinstance(a, np.ndarray):
                a.flags.writeable = False

    @property
    def n_devices(self) -> int:
        return len(self.stacked[FAMILIES[self.kind].per_device])

    def _check_device(self, i):
        if not 0 <= i < self.n_devices:
            raise IndexError(f"device id {i} out of range [0, {self.n_devices})")

    def value(self, i: int, w: np.ndarray) -> float:
        self._check_device(i)
        return FAMILIES[self.kind].value(self.stacked, i, w)

    def grad(self, i: int, w: np.ndarray) -> np.ndarray:
        self._check_device(i)
        w = _check_finite("w", w)
        return FAMILIES[self.kind].grad(self.stacked, i, w)

    def global_value(self, w: np.ndarray) -> float:
        """f(w) = mean_i f_i(w), the per-device values summed exactly."""
        return _mean_value(self.kind, self.stacked, _check_finite("w", w))

    def global_grad(self, w: np.ndarray) -> np.ndarray:
        w = _check_finite("w", w)
        s, agg = self.stacked, self.aggregates
        if self.kind == "quadratic":
            return agg["h_bar"] @ w - agg["b_bar"]
        if self.kind == "trig":
            return s["curvature"] * (w - agg["mean_center"]) - s["amplitude"] * np.sin(w)
        features, labels = s["features"], s["labels"]
        weights = labels * _sigmoid(-labels * (features @ w))  # (N, S)
        return -np.einsum("ns,nsd->d", weights, features) / weights.size + s["l2"] * w

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
        return loss_gap + 0.5 * self.stacked["l2"] * float(e @ (w + self.w_star))

    def recompute_dissimilarity(self) -> float:
        """mean_i ||grad_i(w*)||^2 recomputed from the stored optimum."""
        if self.w_star is None:
            raise MissingOptimumError("instance has no certified optimum")
        return _dissimilarity_of(self.kind, self.stacked, self.w_star)


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
    _check_scale("smoothness", smoothness, math.log(2.0) + 2.0 * math.log(smoothness / mu), heterogeneity, dim)

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
    if np.linalg.eigvalsh(hessians).min() <= 0.0:
        raise SpecError("smoothness", f"smoothness / mu = {smoothness / mu:.3g} is too large for double "
                        "precision to keep the Hessians positive definite")
    return quadratic_instance_from_arrays(hessians, centers, sigma, seed=seed)


def quadratic_instance_from_arrays(
    hessians: np.ndarray, centers: np.ndarray, sigma: float, seed: int = 0
) -> ProblemInstance:
    """Quadratic instance from explicit per-device (H_i, c_i) arrays.

    The instance keeps its own read-only copy of the arrays.
    """
    hessians = np.array(_check_finite("hessians", hessians))
    centers = np.array(_check_finite("centers", centers))
    if hessians.ndim != 3 or centers.ndim != 2 or hessians.shape[0] != centers.shape[0]:
        raise ValueError("expected hessians (N, d, d) and centers (N, d)")
    n_devices, dim = centers.shape
    _validate_family_args(n_devices, dim, sigma)

    stacked = {"hessians": hessians, "centers": centers}
    eigs = np.concatenate([np.linalg.eigvalsh(h) for h in hessians])
    mu_eff = float(eigs.min())
    l_eff = float(eigs.max())
    if mu_eff <= 0:
        raise ValueError("all Hessians must be positive definite")

    h_sum = hessians.sum(axis=0)
    rhs = np.einsum("nij,nj->i", hessians, centers)
    w_star = np.linalg.solve(h_sum, rhs)
    f_star = _mean_value("quadratic", stacked, w_star)

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
        dissimilarity=_dissimilarity_of("quadratic", stacked, w_star),
    )
    return ProblemInstance(
        kind="quadratic",
        dim=dim,
        constants=constants,
        w_star=w_star,
        f_star=f_star,
        strongly_convex=True,
        stacked=stacked,
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
    stacked = {"features": features, "labels": labels, "l2": float(l2)}

    max_curv = max(float(np.linalg.eigvalsh(x.T @ x).max()) for x in features)
    smooth = l2 + max_curv / (4.0 * samples_per_device)
    w_star, f_star = _logistic_optimum(stacked, dim, smooth)

    max_x = max(float(np.linalg.norm(x, axis=1).max()) for x in features)
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
        dissimilarity=_dissimilarity_of("logistic", stacked, w_star),
    )
    aggregates = {}
    if w_star is not None:
        neg_margins = -labels * (features @ w_star)
        aggregates.update(
            p_star=_sigmoid(neg_margins),
            log_p_star=-np.logaddexp(0.0, -neg_margins),
            log_q_star=-np.logaddexp(0.0, neg_margins),
        )
    return ProblemInstance(
        kind="logistic",
        dim=dim,
        constants=constants,
        w_star=w_star,
        f_star=f_star,
        strongly_convex=True,
        stacked=stacked,
        aggregates=aggregates,
    )


def _logistic_optimum(s, dim, smooth, tol_scale=1e-10, max_iters=1_000_000):
    # Deterministic full-batch gradient descent with step 1/L. Independent
    # of every simulated optimizer path, so suboptimality curves stay honest.
    n = len(s["labels"])

    def full_grad(w):
        return sum((_logistic_grad(s, i, w) for i in range(n)), np.zeros(dim)) / n

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
    return w, _mean_value("logistic", s, w)


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
    _check_scale("curvature", curvature + amplitude, math.log(2.0), heterogeneity, dim)

    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0x7819]))
    centers = _ball_points(rng, n_devices, dim, heterogeneity)
    stacked = {"centers": centers, "curvature": float(curvature), "amplitude": float(amplitude)}

    mean_center = centers.mean(axis=0)
    w_star = _trig_optimum(mean_center, curvature, amplitude)
    f_star = _mean_value("trig", stacked, w_star)

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
        dissimilarity=_dissimilarity_of("trig", stacked, w_star),
    )
    return ProblemInstance(
        kind="trig",
        dim=dim,
        constants=constants,
        w_star=w_star,
        f_star=f_star,
        strongly_convex=False,
        stacked=stacked,
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
