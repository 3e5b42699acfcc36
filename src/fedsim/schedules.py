"""Learning-rate schedules and the weighted averaged iterate.

The strongly convex schedule is eta_t = 4 / (mu * K * (t + a)) with
a = max(100, 40 * delay_offset) * (smoothness / mu)^1.5, which keeps
eta_t <= 1 / (25 * K * smoothness) for every t >= 1. The non-convex
schedule is the constant c0 * sqrt(N / (K * T * L * (1 + mean_staleness_cap))).

The averaged iterate weights round t's model by (t + a - 1)(t + a - 2);
the weight normalizer after T rounds has the closed form
T^3/3 + (a-1) T^2 + (a^2 - 2a + 2/3) T.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .problems import SpecError, read_floats


class LrSchedule:
    def eta(self, t: int) -> float:
        raise NotImplementedError

    def _checked(self, value: float) -> float:
        if not np.isfinite(value) or value <= 0.0:
            raise ValueError(f"step size must be finite and positive, got {value}")
        return value


@dataclass(frozen=True)
class StronglyConvexDecay(LrSchedule):
    """Inverse-time decay for strongly convex problems."""

    mu: float
    smoothness: float
    local_steps: int
    delay_offset: float = 0.0

    def __post_init__(self):
        if self.mu <= 0 or self.smoothness < self.mu:
            raise ValueError("need 0 < mu <= smoothness")
        if self.local_steps < 1:
            raise ValueError("local_steps must be >= 1")
        if self.delay_offset < 0:
            raise ValueError("delay_offset must be >= 0")
        if not 100.0 * self._condition < math.inf:
            raise SpecError("mu", f"smoothness / mu = {self.smoothness / self.mu:.3g} overflows the step-size shift")
        if not 4.0 / (self.mu * self.local_steps * (1.0 + self.shift)) > 0.0:
            raise SpecError("delay_offset", f"{self.delay_offset:.3g} leaves no positive step size")
        if self.eta(1) > 1.0 / (25.0 * self.local_steps * self.smoothness) + 1e-15:
            raise ValueError("schedule violates eta_1 <= 1/(25 K L)")

    @property
    def _condition(self) -> float:
        """(smoothness / mu)^1.5, inf where it passes the largest double."""
        try:
            return (self.smoothness / self.mu) ** 1.5
        except OverflowError:
            return math.inf

    @property
    def shift(self) -> float:
        """The additive shift a in eta_t = 4 / (mu K (t + a))."""
        return max(100.0, 40.0 * self.delay_offset) * self._condition

    def eta(self, t: int) -> float:
        if t < 1:
            raise ValueError("rounds are 1-indexed")
        return self._checked(4.0 / (self.mu * self.local_steps * (t + self.shift)))


@dataclass(frozen=True)
class NonConvexConstant(LrSchedule):
    """Constant step tuned to a fixed horizon for non-convex problems."""

    n_devices: int
    local_steps: int
    horizon: int
    smoothness: float
    staleness_cap_mean: float
    scale: float = 1.0  # c0 in (0, 1]

    def __post_init__(self):
        if self.n_devices < 1 or self.local_steps < 1 or self.horizon < 1:
            raise ValueError("n_devices, local_steps and horizon must be >= 1")
        if self.smoothness <= 0:
            raise ValueError("smoothness must be > 0")
        if self.staleness_cap_mean < 0:
            raise ValueError("staleness_cap_mean must be >= 0")
        if not 0.0 < self.scale <= 1.0:
            raise ValueError("scale must lie in (0, 1]")

    def eta(self, t: int) -> float:
        if t < 1:
            raise ValueError("rounds are 1-indexed")
        value = self.scale * np.sqrt(
            self.n_devices
            / (self.local_steps * self.horizon * self.smoothness * (1.0 + self.staleness_cap_mean))
        )
        return self._checked(float(value))


@dataclass(frozen=True)
class InverseDecay(LrSchedule):
    """eta_t = eta0 / t, the decay used in the experimental protocol."""

    eta0: float

    def __post_init__(self):
        if not np.isfinite(self.eta0) or self.eta0 <= 0:
            raise ValueError("eta0 must be finite and positive")

    def eta(self, t: int) -> float:
        if t < 1:
            raise ValueError("rounds are 1-indexed")
        return self._checked(self.eta0 / t)


class AveragedIterate:
    """Running (t + a - 1)(t + a - 2)-weighted average of the iterates."""

    def __init__(self, shift: float, dim: int):
        if shift < 0:
            raise ValueError("shift must be >= 0")
        self.shift = float(shift)
        self.dim = dim
        self.weighted_sum = np.zeros(dim)
        self.weight_total = 0.0
        self.rounds_seen = 0

    def observe(self, t: int, w: np.ndarray) -> None:
        if t != self.rounds_seen + 1:
            raise ValueError(f"rounds must be observed in order; expected {self.rounds_seen + 1}")
        weight = (t + self.shift - 1.0) * (t + self.shift - 2.0)
        self.weighted_sum += weight * w
        self.weight_total += weight
        self.rounds_seen = t

    def current(self) -> np.ndarray:
        if self.rounds_seen == 0:
            raise ValueError("no rounds observed yet")
        return self.weighted_sum / self.weight_total

    def weight_closed_form(self) -> float:
        """Closed form of the weight normalizer after the observed rounds."""
        t = float(self.rounds_seen)
        a = self.shift
        return t**3 / 3.0 + (a - 1.0) * t**2 + (a * a - 2.0 * a + 2.0 / 3.0) * t

    def state_dict(self) -> dict:
        """The sums alone: the shift and dimension come from the run's
        schedule and instance, the rounds seen from its rounds played."""
        return {"weighted_sum": self.weighted_sum.tolist(), "weight_total": self.weight_total}

    def load_state_dict(self, state: dict, rounds_seen: int) -> None:
        """Restore the sums; a missing or malformed one raises ``KeyError``
        or ``SpecError`` naming it."""
        self.weighted_sum = read_floats("weighted_sum", state["weighted_sum"], (self.dim,))
        self.weight_total = float(read_floats("weight_total", state["weight_total"], ()))
        if self.weight_total < 0.0:  # a sum of positive weights
            raise SpecError("weight_total", f"is {self.weight_total!r}, expected a number >= 0")
        self.rounds_seen = rounds_seen
