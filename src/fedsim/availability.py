"""Device-participation models and inactive-round bookkeeping.

A participation model is an immutable spec; ``model.sampler(seed)`` yields a
single-writer stateful sampler producing the active set for rounds
t = 1, 2, ... in order. Every model returns the full device set at round 1.

Staleness of device i at round t is the number of rounds since it last
appeared in an active set: 0 when active at t, previous value + 1 otherwise.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from . import rng as rngmod


class TraceExhaustedError(RuntimeError):
    """Raised when a trace-replay sampler runs past the stored rounds."""


@dataclass(frozen=True)
class ActiveSet:
    round: int
    members: frozenset

    def __post_init__(self):
        if self.round < 1:
            raise ValueError("rounds are 1-indexed")


def _as_active(round_, ids):
    return ActiveSet(round_, frozenset(int(i) for i in ids))


class ParticipationModel:
    """Base class; subclasses define deterministic or seeded active sets."""

    n_devices: int

    def sampler(self, seed: int) -> "ParticipationSampler":
        raise NotImplementedError


class ParticipationSampler:
    def __init__(self, n_devices: int):
        self.n_devices = n_devices
        self._next_round = 1

    def _check_round(self, t: int):
        if t != self._next_round:
            raise ValueError(f"rounds must be sampled in order; expected {self._next_round}, got {t}")
        self._next_round += 1

    def active_set(self, t: int) -> ActiveSet:
        raise NotImplementedError

    def state_dict(self) -> dict:
        return {"next_round": self._next_round}

    def restore(self, state: dict) -> None:
        self._next_round = int(state["next_round"])


class FullParticipation(ParticipationModel):
    def __init__(self, n_devices: int):
        if n_devices < 1:
            raise ValueError("need at least one device")
        self.n_devices = n_devices

    def sampler(self, seed: int = 0) -> ParticipationSampler:
        return _FullSampler(self.n_devices)


class _FullSampler(ParticipationSampler):
    def active_set(self, t):
        self._check_round(t)
        return _as_active(t, range(self.n_devices))


class BernoulliParticipation(ParticipationModel):
    """Independent per-round activation with per-device probabilities.

    Each device draws from its own dedicated substream, so changing one
    device's probability never perturbs another device's realized pattern.
    Round 1 is always fully active.
    """

    def __init__(self, probs):
        probs = np.asarray(probs, dtype=np.float64)
        if probs.ndim != 1 or len(probs) < 1:
            raise ValueError("probs must be a non-empty 1-D array")
        if np.any(probs <= 0.0) or np.any(probs > 1.0):
            raise ValueError("each probability must lie in (0, 1]")
        self.probs = probs
        self.n_devices = len(probs)

    def sampler(self, seed: int) -> ParticipationSampler:
        return _BernoulliSampler(self.probs, seed)


class _BernoulliSampler(ParticipationSampler):
    def __init__(self, probs, seed):
        super().__init__(len(probs))
        self.probs = probs
        self._gens = [rngmod.substream(seed, rngmod.PARTICIPATION, i) for i in range(len(probs))]

    def active_set(self, t):
        self._check_round(t)
        if t == 1:
            return _as_active(t, range(self.n_devices))
        members = [i for i in range(self.n_devices) if self._gens[i].random() < self.probs[i]]
        return _as_active(t, members)

    def state_dict(self):
        state = super().state_dict()
        state["gens"] = [rngmod.generator_state(g) for g in self._gens]
        return state

    def restore(self, state):
        super().restore(state)
        self._gens = [rngmod.restore_generator(s) for s in state["gens"]]


class PeriodicParticipation(ParticipationModel):
    """Device i is active at round 1 and whenever (t - phase_i) % period_i == 0."""

    def __init__(self, periods, phases):
        periods = np.asarray(periods, dtype=np.int64)
        phases = np.asarray(phases, dtype=np.int64)
        if periods.shape != phases.shape or periods.ndim != 1 or len(periods) < 1:
            raise ValueError("periods and phases must be matching non-empty 1-D arrays")
        if np.any(periods < 1):
            raise ValueError("periods must be >= 1")
        self.periods = periods
        self.phases = phases
        self.n_devices = len(periods)

    def sampler(self, seed: int = 0) -> ParticipationSampler:
        return _PeriodicSampler(self.periods, self.phases)


class _PeriodicSampler(ParticipationSampler):
    def __init__(self, periods, phases):
        super().__init__(len(periods))
        self.periods = periods
        self.phases = phases

    def active_set(self, t):
        self._check_round(t)
        if t == 1:
            return _as_active(t, range(self.n_devices))
        members = np.nonzero((t - self.phases) % self.periods == 0)[0]
        return _as_active(t, members)


class AdversarialLinearParticipation(ParticipationModel):
    """Deterministic maximal-delay schedule under a linear staleness envelope.

    Every device stays inactive for the longest run permitted by
    staleness(t, i) <= offset + t / slope_divisor, then is active for one
    round, and repeats. This stresses the worst staleness the convergence
    analysis tolerates.
    """

    def __init__(self, n_devices: int, offset: float, slope_divisor: float):
        if n_devices < 1:
            raise ValueError("need at least one device")
        if offset < 0:
            raise ValueError("offset must be >= 0")
        if not slope_divisor > 1.0:
            raise ValueError("slope_divisor must be > 1")
        self.n_devices = n_devices
        self.offset = float(offset)
        self.slope_divisor = float(slope_divisor)

    def sampler(self, seed: int = 0) -> ParticipationSampler:
        return _AdversarialSampler(self.n_devices, self.offset, self.slope_divisor)


class _AdversarialSampler(ParticipationSampler):
    def __init__(self, n_devices, offset, slope_divisor):
        super().__init__(n_devices)
        self.offset = offset
        self.slope_divisor = slope_divisor
        self._last_active = np.ones(n_devices, dtype=np.int64)

    def active_set(self, t):
        self._check_round(t)
        if t == 1:
            self._last_active[:] = 1
            return _as_active(t, range(self.n_devices))
        would_be = t - self._last_active
        active = would_be > self.offset + t / self.slope_divisor
        self._last_active[active] = t
        return _as_active(t, np.nonzero(active)[0])

    def state_dict(self):
        state = super().state_dict()
        state["last_active"] = self._last_active.tolist()
        return state

    def restore(self, state):
        super().restore(state)
        self._last_active = np.asarray(state["last_active"], dtype=np.int64)


class TraceReplay(ParticipationModel):
    """Replays a recorded sequence of active sets."""

    def __init__(self, n_devices: int, rounds):
        sets = [frozenset(int(i) for i in s) for s in rounds]
        if not sets:
            raise ValueError("trace must contain at least one round")
        if sets[0] != frozenset(range(n_devices)):
            raise ValueError("trace round 1 must list all devices")
        for s in sets:
            if any(i < 0 or i >= n_devices for i in s):
                raise ValueError("trace contains an out-of-range device id")
        self.n_devices = n_devices
        self.rounds = sets

    def sampler(self, seed: int = 0) -> ParticipationSampler:
        return _ReplaySampler(self.n_devices, self.rounds)


class _ReplaySampler(ParticipationSampler):
    def __init__(self, n_devices, rounds):
        super().__init__(n_devices)
        self.rounds = rounds

    def active_set(self, t):
        if t > len(self.rounds):
            raise TraceExhaustedError(f"trace ends at round {len(self.rounds)}")
        self._check_round(t)
        return ActiveSet(t, self.rounds[t - 1])


@dataclass(frozen=True)
class StalenessStats:
    """Aggregates over rounds 1..T-1 of a T-round run.

    ``avg`` is the grand mean of staleness, ``peak`` its maximum (which is
    also the largest per-device peak), ``device_peak_mean`` the mean of
    per-device peaks, and ``device_peak_sq_mean`` the mean of their squares.
    """

    rounds: int
    avg: float
    peak: int
    device_peak_mean: float
    device_peak_sq_mean: float


class StalenessTracker:
    """Incremental staleness recursion plus running aggregates.

    ``update`` consumes active sets in round order. Aggregate statistics are
    reported over rounds 1..T-1 where T is the latest observed round, which
    matches the summation limits of the convergence analysis.
    """

    def __init__(self, n_devices: int):
        if n_devices < 1:
            raise ValueError("need at least one device")
        self.n_devices = n_devices
        self.round = 0
        self.staleness = np.zeros(n_devices, dtype=np.int64)
        self._folded_sum = 0
        self._folded_dev_peak = np.zeros(n_devices, dtype=np.int64)

    def update(self, active: ActiveSet) -> None:
        if active.round != self.round + 1:
            raise ValueError(f"expected round {self.round + 1}, got {active.round}")
        if active.round == 1:
            if active.members != frozenset(range(self.n_devices)):
                raise ValueError("round 1 must activate all devices")
            self.round = 1
            return
        # fold the previous round into the 1..T-1 aggregates
        self._folded_sum += int(self.staleness.sum())
        np.maximum(self._folded_dev_peak, self.staleness, out=self._folded_dev_peak)
        mask = np.zeros(self.n_devices, dtype=bool)
        mask[list(active.members)] = True
        self.staleness = np.where(mask, 0, self.staleness + 1)
        self.round = active.round

    def stats(self) -> StalenessStats:
        if self.round < 2:
            raise ValueError("stats need at least two observed rounds")
        span = self.round - 1
        peaks = self._folded_dev_peak
        return StalenessStats(
            rounds=self.round,
            avg=self._folded_sum / (self.n_devices * span),
            peak=int(peaks.max()),
            device_peak_mean=float(peaks.mean()),
            device_peak_sq_mean=float((peaks.astype(np.float64) ** 2).mean()),
        )

    # Running values over all observed rounds 1..T, for per-round metrics.
    @property
    def running_avg(self) -> float:
        if self.round == 0:
            return 0.0
        return (self._folded_sum + int(self.staleness.sum())) / (self.n_devices * self.round)

    @property
    def running_peak(self) -> int:
        if self.round == 0:
            return 0
        return int(max(self._folded_dev_peak.max(), self.staleness.max()))

    def state_dict(self) -> dict:
        return {
            "n_devices": self.n_devices,
            "round": self.round,
            "staleness": self.staleness.tolist(),
            "folded_sum": self._folded_sum,
            "folded_dev_peak": self._folded_dev_peak.tolist(),
        }

    def load_state_dict(self, state: dict) -> None:
        self.n_devices = int(state["n_devices"])
        self.round = int(state["round"])
        self.staleness = np.asarray(state["staleness"], dtype=np.int64)
        self._folded_sum = int(state["folded_sum"])
        self._folded_dev_peak = np.asarray(state["folded_dev_peak"], dtype=np.int64)


def realized_staleness(model: ParticipationModel, seed: int, horizon: int) -> StalenessStats:
    """Staleness statistics of the trace ``model`` realizes for ``seed`` over ``horizon`` >= 2 rounds."""
    sampler, tracker = model.sampler(seed), StalenessTracker(model.n_devices)
    for t in range(1, horizon + 1):
        tracker.update(sampler.active_set(t))
    return tracker.stats()


def check_linear_delay_bound(rounds, offset: float, smoothness: float, mu: float):
    """Replay a trace and test staleness(t, i) <= offset + t/b with
    b = 40 (smoothness/mu)^1.5.

    ``rounds`` is a sequence of member sets starting at round 1 with all
    devices. Returns (holds, first_violation) where first_violation is a
    (round, device) pair or None.
    """
    sets = [frozenset(int(i) for i in s) for s in rounds]
    if not sets:
        raise ValueError("empty trace")
    n_devices = max((max(s) for s in sets if s), default=-1) + 1
    if sets[0] != frozenset(range(n_devices)) or n_devices < 1:
        raise ValueError("trace round 1 must list all devices")
    b = 40.0 * (smoothness / mu) ** 1.5
    staleness = np.zeros(n_devices, dtype=np.int64)
    for t, members in enumerate(sets, start=1):
        if t > 1:
            mask = np.zeros(n_devices, dtype=bool)
            mask[list(members)] = True
            staleness = np.where(mask, 0, staleness + 1)
        limit = offset + t / b
        bad = np.nonzero(staleness > limit)[0]
        if len(bad):
            return False, (t, int(bad[0]))
    return True, None


def bernoulli_staleness_tail(p: float, k: int, t: int) -> float:
    """P(staleness(t, i) >= k) for independent per-round activation: the
    staleness is a geometric variable truncated at t - 1, so the tail is
    (1 - p)^k for k < t and exactly 0 for k >= t."""
    if not 0.0 < p <= 1.0:
        raise ValueError("p must lie in (0, 1]")
    if k < 0:
        raise ValueError("k must be >= 0")
    if t < 1:
        raise ValueError("t must be >= 1")
    if k >= t:
        return 0.0
    return (1.0 - p) ** k


@dataclass(frozen=True)
class BernoulliStalenessBounds:
    peak_bound: float   # high-probability bound on the maximum staleness
    avg_shape: float    # leading factor of the average-staleness bound


def bernoulli_staleness_bounds(probs, horizon: int, delta: float) -> BernoulliStalenessBounds:
    """Non-asymptotic staleness bounds for independent participation.

    peak_bound = 1 + (1/p_min) (2 log T + log N + log(pi^2 / (6 delta)))
    holds for all rounds t <= T and all devices simultaneously with
    probability at least 1 - delta. avg_shape = mean_i 1/p_i is the leading
    factor of the average-staleness bound; its universal constant is checked
    empirically rather than asserted.
    """
    probs = np.asarray(probs, dtype=np.float64)
    if np.any(probs <= 0.0) or np.any(probs > 1.0):
        raise ValueError("each probability must lie in (0, 1]")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    p_min = float(probs.min())
    n = len(probs)
    peak = 1.0 + (2.0 * math.log(horizon) + math.log(n) + math.log(math.pi**2 / (6.0 * delta))) / p_min
    return BernoulliStalenessBounds(peak_bound=peak, avg_shape=float(np.mean(1.0 / probs)))


def write_trace(path, n_devices: int, rounds) -> None:
    """Write a trace file: header ``N=<int> T=<int>`` then one line per
    round ``t:<int> active:<comma-separated device ids>``. UTF-8, LF."""
    sets = [sorted(int(i) for i in s) for s in rounds]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"N={n_devices} T={len(sets)}\n")
        for t, members in enumerate(sets, start=1):
            fh.write(f"t:{t} active:{','.join(str(i) for i in members)}\n")


_TRACE_HEADER = re.compile(r"N=(\d+)\s+T=(\d+)")
_TRACE_ROUND = re.compile(r"t:(\d+)\s+active:(\d+(?:,\d+)*)?")


def read_trace(path):
    """Parse a trace file written by ``write_trace``; returns (n_devices,
    list of member frozensets). A malformed or missing header or round line
    raises ``ValueError`` naming the file and the line number."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()

    def malformed(number: int, expected: str) -> ValueError:
        got = repr(lines[number - 1]) if number <= len(lines) else "end of file"
        return ValueError(f"trace {path} line {number}: expected {expected}, got {got}")

    header = _TRACE_HEADER.fullmatch(lines[0].strip()) if lines else None
    if header is None:
        raise malformed(1, "header 'N=<int> T=<int>'")
    n_devices, n_rounds = int(header[1]), int(header[2])
    rounds = []
    for t in range(1, n_rounds + 1):
        line = _TRACE_ROUND.fullmatch(lines[t].strip()) if t < len(lines) else None
        if line is None or int(line[1]) != t:
            raise malformed(t + 1, f"'t:{t} active:<comma-separated device ids>'")
        members = frozenset(int(i) for i in line[2].split(",")) if line[2] else frozenset()
        if any(i >= n_devices for i in members):
            raise ValueError(f"trace {path} line {t + 1}: device id out of range for N={n_devices}")
        rounds.append(members)
    if rounds and rounds[0] != frozenset(range(n_devices)):
        raise ValueError(f"trace {path} line 2: round 1 must list all devices")
    return n_devices, rounds
