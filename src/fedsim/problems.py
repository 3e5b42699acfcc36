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

DISSIMILARITY_MARGIN = 1.1


class MissingOptimumError(RuntimeError):
    """Raised when suboptimality is requested but no certified f* exists."""


class SpecError(ValueError):
    """The value under ``key`` is rejected. Either a builder rejects its
    argument ``key``, the same key in the config section it builds: a value
    an algorithm's spec rules out, or a problem family's value that passes
    its range check but that the build cannot carry in double precision. Or
    an object rejects checkpoint field ``key`` of its own state, read with
    ``read_floats``, ``read_int`` or ``read_device_ids``. A builder whose
    argument comes from another section (the schedule's ``mu``) is re-keyed
    by its caller; a checkpoint field is re-keyed by the run that restores
    it, as ``checkpoint <owner>.<key>``."""

    def __init__(self, key: str, message: str):
        self.key = key
        super().__init__(message)


def is_int(value) -> bool:
    """Whether ``value`` is an integer: a Python or numpy int, not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def read_int(key: str, value, lo: int, hi: int | None = None) -> int:
    """Checkpoint field ``key``'s ``value``, an integer in [lo, hi], or at
    least ``lo`` where ``hi`` is None; anything else, a bool or a float too,
    raises ``SpecError`` naming ``key``."""
    if not is_int(value) or value < lo or (hi is not None and value > hi):
        bounds = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
        raise SpecError(key, f"is {value!r}, expected an integer {bounds}")
    return int(value)


def read_floats(key: str, value, shape: tuple) -> np.ndarray:
    """Checkpoint field ``key``'s ``value``, nested lists of numbers, as a
    float64 array of ``shape`` whose entries are all finite; anything else
    raises ``SpecError`` naming ``key``. A table whose rows differ in length
    has no shape, so its first row of another length is named."""
    if len(shape) == 2 and isinstance(value, list):
        lengths = [len(row) if isinstance(row, list) else None for row in value]
        if len(set(lengths)) > 1:
            k = next(k for k, length in enumerate(lengths) if length != shape[1])
            raise SpecError(key, f"row {k} has length {lengths[k]}, this run's rows have length {shape[1]}")
    try:
        array = np.array(value)
    except ValueError as err:  # rows of rows that differ in length
        raise SpecError(key, f"is no array: {err}") from err
    if array.shape != shape:
        raise SpecError(key, f"has shape {array.shape}, this run's has shape {shape}")
    if array.dtype.kind not in "iuf":
        raise SpecError(key, f"holds {array.dtype} entries, expected numbers")
    if any(isinstance(entry, bool) for entry in np.array(value, dtype=object).flat):  # numbers promote a bool
        raise SpecError(key, "holds a bool, expected numbers")
    if not np.isfinite(array).all():
        raise SpecError(key, "holds a value that is not finite")
    return array.astype(np.float64, copy=False)


def read_device_ids(key: str, value, n_devices: int) -> list:
    """Checkpoint field ``key``'s ``value``, a list of distinct device ids
    below ``n_devices``; anything else raises ``SpecError`` naming ``key``."""
    if not isinstance(value, list):
        raise SpecError(key, f"is {value!r}, expected a list of device ids")
    seen = set()
    for i in value:
        if not is_int(i):
            raise SpecError(key, f"holds {i!r}, which is no device id")
        if not 0 <= i < n_devices:
            raise SpecError(key, f"holds device {i}, this run has {n_devices} devices")
        if i in seen:
            raise SpecError(key, f"holds device {i} twice")
        seen.add(i)
    return [int(i) for i in value]


def _check_scale(smoothness_key, smoothness, log_alpha, heterogeneity, dim):
    """Name the argument that would put the dissimilarity certificate past
    double precision: on the ball of radius max(1, 10 * heterogeneity), which
    holds every center, gradients have norm below 2 * smoothness * radius *
    sqrt(dim), and alpha times their square stays below the largest double,
    so beta_i and alpha ||grad(w)||^2 are finite there."""
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


# Each family's formulas, written once on the instance's stacked parameters
# ``s``, whose row i of every array is device i. value and grad take a block
# of device ids (an index array or a slice of rows) and one w, and return one
# row per device: a stacked matmul computes each row as the one-device call
# does, so a device's row is the same whichever devices share its block.


def _row_dots(a, b):
    """Row r: a[r] @ b[r], one dot per row."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def _quadratic_value(s, ids, w):
    diff = w - s["centers"][ids]
    return 0.5 * _row_dots(np.matmul(diff[:, None, :], s["hessians"][ids])[:, 0], diff)


def _quadratic_grad(s, ids, w):
    return np.matmul(s["hessians"][ids], (w - s["centers"][ids])[:, :, None])[:, :, 0]


def _logistic_value(s, ids, w):
    margins = s["labels"][ids] * (s["features"][ids] @ w)
    loss = np.mean(np.logaddexp(0.0, -margins), axis=1)
    return loss + 0.5 * s["l2"] * float(w @ w)


def _logistic_grad(s, ids, w):
    features, labels = s["features"][ids], s["labels"][ids]
    margins = labels * (features @ w)
    g = -(features * (labels * _sigmoid(-margins))[:, :, None]).mean(axis=1)
    return g + s["l2"] * w


def logistic_sample_grads(s, ids, w, picks):
    """Row r: the gradient of device ids[r]'s loss on its sample picks[r]
    alone, at w[r], plus the l2 term. The margins are one matmul per row,
    which computes each as the one-device ``x @ w`` does."""
    x, y = s["features"][ids, picks], s["labels"][ids, picks]
    sig = _sigmoid(-y * _row_dots(x, w))
    return (-y * sig)[:, None] * x + s["l2"] * w


def _trig_value(s, ids, w):
    diff = w - s["centers"][ids]
    return 0.5 * s["curvature"] * _row_dots(diff, diff) + s["amplitude"] * float(np.sum(np.cos(w)))


def _trig_grad(s, ids, w):
    return s["curvature"] * (w - s["centers"][ids]) - s["amplitude"] * np.sin(w)


class _Rows(NamedTuple):
    value: Callable   # (s, ids, w) -> f_i(w) for i in ids, shape (len(ids),)
    grad: Callable    # (s, ids, w) -> grad f_i(w) for i in ids, shape (len(ids), d)
    per_device: str   # a key of ``s`` with one row per device


FAMILIES = {
    "quadratic": _Rows(_quadratic_value, _quadratic_grad, "centers"),
    "logistic": _Rows(_logistic_value, _logistic_grad, "labels"),
    "trig": _Rows(_trig_value, _trig_grad, "centers"),
}
_ALL = slice(None)


def _mean_value(kind, s, w):
    """f(w) = mean_i f_i(w), the per-device values summed exactly."""
    values = FAMILIES[kind].value(s, _ALL, w)
    return math.fsum(values) / len(values)


def _dissimilarity_of(kind, s, w_star):
    """mean_i ||grad_i(w*)||^2, summed exactly."""
    g = FAMILIES[kind].grad(s, _ALL, w_star)
    return math.fsum(_row_dots(g, g)) / len(g)


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
    dissimilarity: float | None  # mean_i ||grad_i(w*)||^2; None without a certified w*


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

    def _check_w(self, w):
        w = _check_finite("w", w)
        if w.shape != (self.dim,):
            raise ValueError(f"w must have shape ({self.dim},), got {w.shape}")
        return w

    def _check_models(self, models):
        models = np.asarray(models, dtype=np.float64)
        if models.ndim != 2 or models.shape[1] != self.dim:
            raise ValueError(f"models must have shape (R, {self.dim}), got {models.shape}")
        if not np.isfinite(models).all():
            raise ValueError("models must be finite")
        return models

    def value(self, i: int, w: np.ndarray) -> float:
        self._check_device(i)
        return float(FAMILIES[self.kind].value(self.stacked, [i], self._check_w(w))[0])

    def grad(self, i: int, w: np.ndarray) -> np.ndarray:
        self._check_device(i)
        return FAMILIES[self.kind].grad(self.stacked, [i], self._check_w(w))[0]

    def global_value(self, w: np.ndarray) -> float:
        """f(w) = mean_i f_i(w), the per-device values summed exactly."""
        return _mean_value(self.kind, self.stacked, self._check_w(w))

    def global_grad(self, w: np.ndarray) -> np.ndarray:
        return self.global_grad_rows(self._check_w(w)[None])[0]

    def global_grad_rows(self, models: np.ndarray) -> np.ndarray:
        """The global gradient at each row of the (R, d) block ``models``.
        Every product is one matmul per row, so a row is the same whichever
        rows share its block, and ``global_grad`` is the block of one row."""
        models = self._check_models(models)
        s, agg = self.stacked, self.aggregates
        if self.kind == "quadratic":
            return np.matmul(agg["h_bar"], models[:, :, None])[:, :, 0] - agg["b_bar"]
        if self.kind == "trig":
            return s["curvature"] * (models - agg["mean_center"]) - s["amplitude"] * np.sin(models)
        features, labels = s["features"], s["labels"]
        margins = np.matmul(features, models[:, None, :, None])[..., 0]  # (R, N, S)
        weights = labels * _sigmoid(-labels * margins)
        return -np.einsum("rns,nsd->rd", weights, features) / labels.size + s["l2"] * models

    def suboptimality(self, w: np.ndarray) -> float:
        """f(w) - f(w*), measured against the stored optimum w*."""
        if self.f_star is None:
            raise MissingOptimumError("instance has no certified optimum value")
        return float(self.suboptimality_rows(self._check_w(w)[None])[0])

    def suboptimality_rows(self, models: np.ndarray) -> np.ndarray:
        """f(w) - f(w*) at each row w of the (R, d) block ``models``, each
        row computed alone, as ``global_grad_rows`` computes its rows.

        The quadratic and logistic gaps are closed forms in e = w - w*, so
        they keep their relative accuracy as w approaches w* instead of
        cancelling to zero; the trig gap is f(w) - f_star, its device values
        summed exactly.
        """
        if self.f_star is None:
            raise MissingOptimumError("instance has no certified optimum value")
        models = self._check_models(models)
        if self.kind == "trig":
            return np.array([_mean_value("trig", self.stacked, w) for w in models]) - self.f_star
        agg = self.aggregates
        e = models - self.w_star
        if self.kind == "quadratic":
            return 0.5 * _row_dots(e, np.matmul(agg["h_bar"], e[:, :, None])[:, :, 0])
        # per sample, softplus(b + d) - softplus(b) = log(q + p e^d) with the
        # negated margin b at w*, d its change and p = sigmoid(b) = 1 - q
        d = -self.stacked["labels"] * np.matmul(self.stacked["features"], e[:, None, :, None])[..., 0]
        near = np.log1p(agg["p_star"] * np.expm1(np.clip(d, -1.0, 1.0)))
        far = np.logaddexp(agg["log_q_star"], agg["log_p_star"] + d)
        loss_gap = np.where(np.abs(d) <= 1.0, near, far).mean(axis=(1, 2))
        return loss_gap + 0.5 * self.stacked["l2"] * _row_dots(e, models + self.w_star)

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


def _beta_quadratic(hessians, centers, h_bar, b_bar, alpha):
    """Per-device sup over all w of g_i(w) = ||grad_i(w)||^2 - alpha ||grad(w)||^2,
    times DISSIMILARITY_MARGIN and floored at 0.

    With grad_i(w) = H_i (w - c_i) and grad(w) = H_bar w - b_bar, g_i has the
    Hessian 2 M_i, M_i = H_i^2 - alpha H_bar^2, which alpha = 2 (L/mu)^2 makes
    negative definite (M_i <= -L^2 I). So g_i is strongly concave and its
    maximiser solves M_i w = H_i^2 c_i - alpha H_bar b_bar.
    """
    h_sq = hessians @ hessians
    m = h_sq - alpha * (h_bar @ h_bar)
    if np.linalg.eigvalsh(m).max() >= 0.0:
        raise ArithmeticError("dissimilarity certificate: some H_i^2 - alpha H_bar^2 is not negative definite")
    rhs = np.einsum("nij,nj->ni", h_sq, centers) - alpha * (h_bar @ b_bar)
    w = np.linalg.solve(m, rhs[:, :, None])[:, :, 0]
    per_dev_sq = np.sum(np.einsum("nij,nj->ni", hessians, w - centers) ** 2, axis=1)
    global_sq = np.sum((w @ h_bar.T - b_bar) ** 2, axis=1)
    return DISSIMILARITY_MARGIN * np.maximum(0.0, per_dev_sq - alpha * global_sq)


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
    centers = _ball_points(rng, n_devices, dim, heterogeneity)
    if dim == 1:
        spectrum = np.where(np.arange(n_devices) % 2 == 0, mu, smoothness)[:, None, None]
    else:
        spectrum = np.linspace(mu, smoothness, dim)
    q, _ = np.linalg.qr(rng.standard_normal((n_devices, dim, dim)))
    hessians = np.matmul(q * spectrum, q.transpose(0, 2, 1))
    hessians = 0.5 * (hessians + hessians.transpose(0, 2, 1))
    eigs = np.linalg.eigvalsh(hessians)
    if eigs.min() <= 0.0:
        raise SpecError("smoothness", f"smoothness / mu = {smoothness / mu:.3g} is too large for double "
                        "precision to keep the Hessians positive definite")
    return _quadratic_instance(hessians, centers, sigma, eigs)


def quadratic_instance_from_arrays(
    hessians: np.ndarray, centers: np.ndarray, sigma: float
) -> ProblemInstance:
    """Quadratic instance from explicit per-device (H_i, c_i) arrays; each
    H_i must be exactly symmetric and positive definite.

    The instance keeps its own read-only copy of the arrays.
    """
    hessians = np.array(_check_finite("hessians", hessians))
    centers = np.array(_check_finite("centers", centers))
    if centers.ndim != 2 or hessians.shape != (*centers.shape, centers.shape[1]):
        raise ValueError("expected hessians (N, d, d) and centers (N, d)")
    _validate_family_args(*centers.shape, sigma)
    if not np.array_equal(hessians, hessians.transpose(0, 2, 1)):
        raise ValueError("hessians must be exactly symmetric")
    eigs = np.linalg.eigvalsh(hessians)
    if eigs.min() <= 0:
        raise ValueError("all Hessians must be positive definite")
    return _quadratic_instance(hessians, centers, sigma, eigs)


def _quadratic_instance(hessians, centers, sigma, eigs):
    """The instance of positive definite ``hessians`` with eigenvalues ``eigs``."""
    n_devices, dim = centers.shape
    stacked = {"hessians": hessians, "centers": centers}
    mu_eff = float(eigs.min())
    l_eff = float(eigs.max())

    h_sum = hessians.sum(axis=0)
    rhs = np.einsum("nij,nj->i", hessians, centers)
    w_star = np.linalg.solve(h_sum, rhs)
    f_star = _mean_value("quadratic", stacked, w_star)

    grad_residual = np.linalg.norm(np.einsum("nij,nj->i", hessians, w_star[None, :] - centers) / n_devices)
    grad_at_zero = np.linalg.norm(rhs / n_devices)
    if grad_residual > 1e-8 * max(1.0, grad_at_zero):
        raise ArithmeticError("optimum solve failed the gradient-residual check")

    alpha = 2.0 * (l_eff / mu_eff) ** 2
    h_bar, b_bar = h_sum / n_devices, rhs / n_devices
    beta_i = _beta_quadratic(hessians, centers, h_bar, b_bar, alpha)
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
        aggregates={"h_bar": h_bar, "b_bar": b_bar},
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

    max_curv = float(np.linalg.eigvalsh(np.matmul(features.transpose(0, 2, 1), features)).max())
    smooth = l2 + max_curv / (4.0 * samples_per_device)
    w_star, f_star = _logistic_optimum(stacked, dim, smooth)

    max_x = float(np.linalg.norm(features, axis=2).max())
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
        dissimilarity=None if w_star is None else _dissimilarity_of("logistic", stacked, w_star),
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


def _logistic_mean_grad(s, w):
    """mean_i grad_i(w), the device rows summed in device order from +0.0.
    A running sum differs from that only in the sign of an all-zero total."""
    return (np.cumsum(_logistic_grad(s, _ALL, w), axis=0)[-1] + 0.0) / len(s["labels"])


def _logistic_optimum(s, dim, smooth, tol_scale=1e-10, max_iters=1_000_000):
    # Deterministic full-batch gradient descent with step 1/L. Independent
    # of every simulated optimizer path, so suboptimality curves stay honest.
    w = np.zeros(dim)
    g = _logistic_mean_grad(s, w)
    target = tol_scale * max(1.0, float(np.linalg.norm(g)))
    step = 1.0 / smooth
    for _ in range(max_iters):
        if np.linalg.norm(g) <= target:
            break
        w = w - step * g
        g = _logistic_mean_grad(s, w)
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
    exactly ``amplitude``. Requires amplitude <= curvature, which makes every
    coordinate of f convex; the optimum w* relies on that.
    """
    _validate_family_args(n_devices, dim, sigma)
    if not np.isfinite(curvature) or curvature <= 0:
        raise ValueError("curvature must be > 0")
    if not np.isfinite(amplitude) or amplitude < 0:
        raise ValueError("amplitude must be >= 0")
    if amplitude > curvature:
        raise ValueError("amplitude must not exceed curvature")
    if not np.isfinite(heterogeneity) or heterogeneity < 0:
        raise ValueError("heterogeneity must be finite and >= 0")
    _check_scale("curvature", curvature + amplitude, math.log(2.0), heterogeneity, dim)

    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0x7819]))
    centers = _ball_points(rng, n_devices, dim, heterogeneity)
    stacked = {"centers": centers, "curvature": float(curvature), "amplitude": float(amplitude)}

    mean_center = centers.mean(axis=0)
    w_star = _trig_optimum(mean_center, curvature, amplitude)
    f_star = _mean_value("trig", stacked, w_star)

    # grad_i(w) - grad(w) = curvature * (mean_center - c_i) exactly, and
    # ||x + y||^2 <= 2 ||x||^2 + 2 ||y||^2, so alpha = 2 with the beta_i below
    # bounds ||grad_i(w)||^2 - alpha ||grad(w)||^2 at every w. Equality holds
    # where grad(w) = curvature * (mean_center - c_i), so beta_i is the sup.
    beta_i = 2.0 * curvature**2 * np.sum((centers - mean_center) ** 2, axis=1)

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
    """Global minimizer of f, by one bisection on all coordinates at once.

    Coordinate j minimises phi(x) = (c/2)(x - m_j)^2 + a cos(x). As
    phi'' = c - a cos(x) >= c - a >= 0, phi' is increasing, and its one root
    lies in [m_j - a/c, m_j + a/c]; with a = 0 that bracket is just m_j.
    """
    half_width = amplitude / curvature
    lo, hi = mean_center - half_width, mean_center + half_width
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        below = curvature * (mid - mean_center) - amplitude * np.sin(mid) <= 0.0
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    return 0.5 * (lo + hi)


def _validate_family_args(n_devices, dim, sigma):
    if n_devices < 1:
        raise ValueError("need at least one device")
    if dim < 1:
        raise ValueError("dimension must be >= 1")
    if not np.isfinite(sigma) or sigma < 0:
        raise ValueError("sigma must be finite and >= 0")
