"""Device-participation models and inactive-round bookkeeping.

A participation model is an immutable spec of one boolean mask per seed:
row t - 1 of the mask says which devices are active at round t = 1, 2, ...,
and row 0, round 1, is all true. ``model.mask(seed, start, stop)`` returns
the (stop - start, N) block of rounds start .. stop - 1, so the active set
of a round is a function of (seed, round) alone. A ``ParticipationSampler``
hands out one seed's rows in round order, drawing them a block of at most
``MASK_BLOCK_CELLS`` cells at a time. A run's ``StalenessStats`` are thus a
function of (model, seed, rounds observed): ``realized_staleness`` replays them.

Staleness of device i at round t is the number of rounds since it last
appeared in an active set: 0 when active at t, previous value + 1 otherwise.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from . import rng as rngmod

# The most (round, device) cells a sampler holds at once, so memory is
# bounded for any horizon.
MASK_BLOCK_CELLS = 1 << 16


def _block_rows(n_devices: int) -> int:
    return max(1, MASK_BLOCK_CELLS // n_devices)


class TraceExhaustedError(RuntimeError):
    """Raised when a trace-replay sampler runs past the stored rounds."""


class ParticipationModel:
    """Base class; subclasses define deterministic or seeded masks.

    A subclass fills blocks in ``_fill(position, start, stop)``, which
    continues from ``position``, the per-seed draw state that ``_position``
    gives for round ``start`` (None for a model that draws nothing), and
    advances it to round ``stop``. ``last_round`` is the last round the
    model defines, None when it has no end.
    """

    n_devices: int
    last_round: int | None = None

    def mask(self, seed: int, start: int, stop: int) -> np.ndarray:
        """The (stop - start, N) boolean mask of rounds start .. stop - 1."""
        if not 1 <= start <= stop:
            raise ValueError(f"need 1 <= start <= stop, got start={start}, stop={stop}")
        return self._fill(self._position(seed, start), start, stop)

    def _position(self, seed: int, start: int):
        return None

    def _fill(self, position, start: int, stop: int) -> np.ndarray:
        raise NotImplementedError


class ParticipationSampler:
    """One seed's mask rows and their staleness, handed out in round order.

    The sampler keeps one block of rows and the model's draw state between
    blocks. A block stops at the ``horizon`` (unless already past it) and at
    the model's last round, so it draws no row a run does not reach, and a
    replayed trace raises ``TraceExhaustedError`` at the first round past its
    end, not before. Each block extends the seed's ``tracker`` once, and
    ``running(t)`` answers for any round t of the block. ``round`` is the
    last round handed out: ``played``, from 0, when built.
    """

    def __init__(self, model: ParticipationModel, seed: int, horizon: int, played: int = 0):
        self.model = model
        self.horizon = horizon
        self._rows = _block_rows(model.n_devices)
        self._position = model._position(seed, 1)
        self.tracker = StalenessTracker(model.n_devices)
        self._block = np.ones((0, model.n_devices), dtype=bool)
        self._block_start = 1
        self._sums = self._peaks = [0]  # running sum and peak of staleness; entry k: rounds 1 .. _block_start - 1 + k
        while self._block_start + len(self._block) <= played:
            self.next_block()
        self.round = played

    def next_block(self) -> None:
        """Draw the rows that follow the last block, and extend the tracker by them."""
        start = self._block_start + len(self._block)
        stop = min(start + self._rows, max(start, self.horizon) + 1)
        if self.model.last_round is not None:
            stop = min(stop, max(start, self.model.last_round) + 1)
        self._block, self._block_start = self.model._fill(self._position, start, stop), start
        staleness = self.tracker.extend(start, self._block)
        self._sums = np.cumsum(np.concatenate((self._sums[-1:], staleness.sum(axis=1))))
        self._peaks = np.maximum.accumulate(np.concatenate((self._peaks[-1:], staleness.max(axis=1))))

    def row(self, t: int) -> np.ndarray:
        """The (N,) mask row of round ``t``, the round after the last one asked for."""
        if t != self.round + 1:
            raise ValueError(f"rounds must be sampled in order; expected {self.round + 1}, got {t}")
        if t - self._block_start >= len(self._block):
            self.next_block()
        self.round = t
        return self._block[t - self._block_start]

    def running(self, t: int) -> tuple[float, int]:
        """The mean and the peak staleness over rounds 1 .. ``t``, off the block's cumulative integer sums."""
        if not 0 <= t - self._block_start < len(self._block):
            raise ValueError(f"round {t} is not in the block of {len(self._block)} rounds from {self._block_start}")
        k = t - self._block_start + 1
        return int(self._sums[k]) / (self.model.n_devices * t), int(self._peaks[k])


class FullParticipation(ParticipationModel):
    def __init__(self, n_devices: int):
        if n_devices < 1:
            raise ValueError("need at least one device")
        self.n_devices = n_devices

    def _fill(self, position, start, stop):
        return np.ones((stop - start, self.n_devices), dtype=bool)


class BernoulliParticipation(ParticipationModel):
    """Independent per-round activation with per-device probabilities.

    Device i draws one uniform from its own substream
    ``substream(seed, PARTICIPATION, i)`` per round t >= 2 and is active when
    it falls below p_i, so changing one device's probability never perturbs
    another device's realized pattern. Draw t - 2 of a stream decides round
    t, so a stream is positioned at any round by advancing it. Round 1 is
    always fully active.
    """

    def __init__(self, probs):
        probs = np.asarray(probs, dtype=np.float64)
        if probs.ndim != 1 or len(probs) < 1:
            raise ValueError("probs must be a non-empty 1-D array")
        if np.any(probs <= 0.0) or np.any(probs > 1.0):
            raise ValueError("each probability must lie in (0, 1]")
        self.probs = probs
        self.n_devices = len(probs)

    def _position(self, seed, start):
        gens = [rngmod.substream(seed, rngmod.PARTICIPATION, i) for i in range(self.n_devices)]
        for g in gens:
            g.bit_generator.advance(max(start - 2, 0))  # one random() is one step of the stream
        return gens

    def _fill(self, gens, start, stop):
        block = np.ones((stop - start, self.n_devices), dtype=bool)
        drawn = block[1:] if start == 1 else block
        for i, g in enumerate(gens):
            np.less(g.random(len(drawn)), self.probs[i], out=drawn[:, i])
        return block


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

    def _fill(self, position, start, stop):
        rounds = np.arange(start, stop, dtype=np.int64)[:, None]
        block = (rounds - self.phases) % self.periods == 0
        block[rounds[:, 0] == 1] = True
        return block


class AdversarialLinearParticipation(ParticipationModel):
    """Deterministic maximal-delay schedule under a linear staleness envelope.

    Every device stays inactive for the longest run permitted by
    staleness(t, i) <= offset + t / slope_divisor, then is active for one
    round, and repeats. This stresses the worst staleness the convergence
    analysis tolerates. All devices follow the one schedule, so the draw
    state is the round the devices were last active, and positioning it at
    a round replays the rounds before it.
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

    def _position(self, seed, start):
        last_active = [1]
        rows = _block_rows(self.n_devices)
        for begin in range(1, start, rows):
            self._fill(last_active, begin, min(begin + rows, start))
        return last_active

    def _fill(self, last_active, start, stop):
        active = np.ones(stop - start, dtype=bool)
        for row, t in enumerate(range(start, stop)):
            if t == 1:
                last_active[0] = 1
            elif t - last_active[0] > self.offset + t / self.slope_divisor:
                last_active[0] = t
            else:
                active[row] = False
        return np.repeat(active[:, None], self.n_devices, axis=1)


class TraceReplay(ParticipationModel):
    """Replays a recorded sequence of active sets."""

    def __init__(self, n_devices: int, rounds):
        sets = [frozenset(int(i) for i in s) for s in rounds]
        if not sets:
            raise ValueError("trace must contain at least one round")
        for s in sets:
            if any(i < 0 or i >= n_devices for i in s):
                raise ValueError("trace contains an out-of-range device id")
        if len(sets[0]) != n_devices:  # its ids are distinct and in range
            raise ValueError("trace round 1 must list all devices")
        self.n_devices = n_devices
        self.last_round = len(sets)
        self.table = np.zeros((len(sets), n_devices), dtype=bool)
        for row, s in zip(self.table, sets):
            row[list(s)] = True

    def _fill(self, position, start, stop):
        if stop > self.last_round + 1:
            raise TraceExhaustedError(f"trace ends at round {self.last_round}")
        return self.table[start - 1 : stop - 1].copy()


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
    """Incremental staleness recursion plus the aggregates of ``stats``.

    ``update`` consumes mask rows, ``extend`` blocks of them, in round order. Aggregate statistics are
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

    def update(self, t: int, row: np.ndarray) -> None:
        """Observe round ``t``, whose (N,) mask row is ``row``."""
        self.extend(t, row[None])

    def extend(self, start: int, block: np.ndarray) -> np.ndarray:
        """Observe rounds start, start + 1, ... of the (rounds, N) mask ``block``; returns their staleness."""
        if start != self.round + 1:
            raise ValueError(f"expected round {self.round + 1}, got {start}")
        if start == 1 and not block[0].all():
            raise ValueError("round 1 must activate all devices")
        rounds = np.arange(start, start + len(block))[:, None]
        # the round each device was last active, carried in from the current staleness
        last_active = np.where(block, rounds, self.round - self.staleness)
        np.maximum.accumulate(last_active, axis=0, out=last_active)
        staleness = np.subtract(rounds, last_active, out=last_active)
        # fold every round before the last into the 1..T-1 aggregates; round 0's zeros fold to nothing
        folded = staleness[:-1]
        self._folded_sum += int(self.staleness.sum()) + int(folded.sum())
        np.maximum(self._folded_dev_peak, self.staleness, out=self._folded_dev_peak)
        if len(folded):
            np.maximum(self._folded_dev_peak, folded.max(axis=0), out=self._folded_dev_peak)
        self.staleness = staleness[-1].copy()
        self.round = start + len(block) - 1
        return staleness

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


def realized_staleness(model: ParticipationModel, seed: int, horizon: int) -> StalenessStats:
    """Staleness statistics of the trace ``model`` realizes for ``seed`` over ``horizon`` >= 2 rounds."""
    return ParticipationSampler(model, seed, horizon, horizon).tracker.stats()


def check_linear_delay_bound(rounds, offset: float, smoothness: float, mu: float):
    """Replay a trace and test staleness(t, i) <= offset + t/b with
    b = 40 (smoothness/mu)^1.5.

    ``rounds`` is a sequence of member sets starting at round 1 with all
    devices, checked as ``TraceReplay`` checks it. Returns (holds,
    first_violation) where first_violation is the (round, device) pair of
    the earliest round, lowest device, or None.
    """
    rounds = list(rounds)
    model = TraceReplay(len(set(rounds[0])) if rounds else 0, rounds)
    staleness = StalenessTracker(model.n_devices).extend(1, model.table)
    b = 40.0 * (smoothness / mu) ** 1.5
    bad = np.argwhere(staleness > offset + np.arange(1, model.last_round + 1)[:, None] / b)
    return (False, (int(bad[0, 0]) + 1, int(bad[0, 1]))) if len(bad) else (True, None)


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
        ids = [int(i) for i in line[2].split(",")] if line[2] else []
        members = frozenset(ids)
        if len(members) < len(ids):
            raise ValueError(f"trace {path} line {t + 1}: a device id is repeated")
        if any(i >= n_devices for i in members):
            raise ValueError(f"trace {path} line {t + 1}: device id out of range for N={n_devices}")
        rounds.append(members)
    if rounds and len(rounds[0]) != n_devices:  # its ids are distinct and in range
        raise ValueError(f"trace {path} line 2: round 1 must list all devices")
    return n_devices, rounds
