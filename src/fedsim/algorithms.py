"""Federated optimization servers with faithful unavailability semantics.

Each algorithm is a server object that owns the model ``w``, the wall-round
counter ``t``, the global-update counter ``t_prime`` and whatever memory the
algorithm keeps. ``Runner`` plays every wall-round the same way:

1. ``server.needs(t, row)`` checks that ``t`` is the next round and returns
   the sorted ids of the devices that compute in it, given the round's
   participation mask ``row``;
2. ``local_updates`` runs those devices' K local SGD steps from
   ``server.w`` as one batch and returns the round's (A, d) block
   ``values`` of their summed sampled gradients: each device draws its
   randomness from its own noise stream into its row of a draw block
   (``local_update``), then each step is one expression over the block.
   A device's row does not depend on which devices share its batch;
3. ``server.aggregate(ids, values, schedule)`` folds that block in and steps
   the model.

``state_dict``/``load_state_dict`` checkpoint a server. The five servers
differ only in steps 1 and 3:

- ``mifa``: keeps every device's latest update in an array and averages the
  whole array each round, reusing stale entries for inactive devices.
- ``mifa_delta``: the memory-lean variant; devices transmit the difference
  against their own stored previous update and the server keeps only a
  running average. Differences travel as two-term error-free expansions
  (``hi``, ``lo``), or as (new, -old) where the difference is no double.
- ``biased_fedavg``: averages fresh updates from the active devices only.
- ``is_fedavg``: reweights fresh updates by inverse participation
  probability, normalizing by the active count (literal form) or by the
  device count (unbiased form).
- ``sampling_fedavg``: samples a device subset and blocks the global update
  until every selected device has responded.

``SERVERS`` maps each algorithm name to its server class. A server's
``from_config`` turns a config's ``algorithm`` section into the algorithm's
spec, the frozen parameter holder that ``Runner`` and ``run`` take.

Every server sums through one exact accumulator, ``exact.ExactVectorSum``,
and rounds the sum correctly, so algebraically equal updates are bitwise
equal. The FedAvg servers sum each aggregated block afresh
(``exact.exact_mean``). The two memory servers keep the exact sum of their
(N, d) table and add each round's new rows and the negated rows they
replace, in O(A d); the running average of ``mifa_delta`` thus equals the
array average of ``mifa`` bit for bit. The sum is derived state: a
checkpoint holds the table alone, and restoring rebuilds the sum from it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .availability import BernoulliParticipation, ParticipationSampler, StalenessTracker
from .exact import ExactVectorSum, exact_mean, two_diff
from .problems import ProblemInstance, SpecError, logistic_sample_grads, sphere_noise
from .records import RoundMetrics, RunResult
from .rng import (
    SUBSET_SAMPLING,
    device_noise_streams,
    generator_state,
    restore_generator,
    substream,
)
from .schedules import AveragedIterate, LrSchedule, StronglyConvexDecay


class DivergenceError(RuntimeError):
    """A local iterate or the server model became non-finite."""


def local_update(instance: ProblemInstance, rng: np.random.Generator, out: np.ndarray) -> None:
    """Draw one device's randomness for its K local steps from its own
    stream ``rng`` into ``out``, the device's row of the round's draw block:
    K sample indices (logistic) or K standard normal vectors, which
    ``local_updates`` then scales onto the noise sphere. Noise of radius 0
    draws nothing and leaves ``out`` zero."""
    if instance.kind == "logistic":
        out[:] = rng.integers(instance.stacked["labels"].shape[1], size=len(out))
    elif instance.constants.noise_std != 0.0:
        rng.standard_normal(out=out)


def local_updates(
    instance: ProblemInstance,
    ids,
    w: np.ndarray,
    eta: float,
    n_steps: int,
    rngs,
) -> np.ndarray:
    """Run K local SGD steps from ``w`` on each device of ``ids`` and return
    the (A, d) block of their gradient sums, row r for device ``ids[r]``.

    Device ``ids[r]`` draws from its own stream ``rngs[r]``; then the noise
    (quadratic, trig) is normalised, and each of the K steps runs, once over
    the whole block. A row is bitwise what the one-device call ``[ids[r]]``
    returns, whatever the other ids and their order. A row times eta equals
    the local displacement w - w_K exactly in real arithmetic; it is
    accumulated as a running sum of the sampled gradients so small steps
    lose no precision to cancellation.
    """
    if eta <= 0:
        raise ValueError("eta must be > 0")
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    ids = np.asarray(ids, dtype=np.intp)
    if not len(ids):
        return np.empty((0, instance.dim))
    s = instance.stacked
    logistic = instance.kind == "logistic"
    draws = np.empty((len(ids), n_steps), np.int64) if logistic else np.zeros((len(ids), n_steps, instance.dim))
    for row, rng in zip(draws, rngs, strict=True):
        local_update(instance, rng, row)
    w0 = np.broadcast_to(w, (len(ids), instance.dim))
    if logistic:
        total, w_final = _kernels.local_sgd(
            lambda v, k: logistic_sample_grads(s, ids, v, draws[:, k]), w0, eta, n_steps
        )
    else:
        noise = sphere_noise(draws, instance.constants.noise_std)
        if instance.kind == "quadratic":
            total, w_final = _kernels.quad_local_sgd(s["hessians"][ids], s["centers"][ids], w0, eta, n_steps, noise)
        else:
            total, w_final = _kernels.trig_local_sgd(
                s["centers"][ids], s["curvature"], s["amplitude"], w0, eta, n_steps, noise
            )
    finite = np.isfinite(total).all(axis=1) & np.isfinite(w_final).all(axis=1)
    if not finite.all():
        raise DivergenceError(f"device {ids[~finite].min()} produced a non-finite local iterate")
    return total


# --------------------------------------------------------------------------
# Algorithm specs: the parameters of a run's server
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class MifaSpec:
    name: str = "mifa"


@dataclass(frozen=True)
class MifaDeltaSpec:
    name: str = "mifa_delta"


@dataclass(frozen=True)
class BiasedFedAvgSpec:
    name: str = "biased_fedavg"


@dataclass(frozen=True)
class ImportanceFedAvgSpec:
    probs: tuple
    normalization: str = "active_count"
    name: str = "is_fedavg"

    def __post_init__(self):
        if self.normalization not in ("active_count", "total_count"):
            raise SpecError("normalization", f"{self.normalization!r} is not 'active_count' or 'total_count'")
        if not all(p > 0.0 for p in self.probs):
            raise SpecError("probs", "participation probabilities must be positive")


@dataclass(frozen=True)
class SamplingFedAvgSpec:
    subset_size: int
    name: str = "sampling_fedavg"


# --------------------------------------------------------------------------
# Servers
# --------------------------------------------------------------------------


class Server:
    """One algorithm's server for one run; see the module docstring.

    ``subset_rng`` is the run's subset-sampling stream; only the servers
    that draw device subsets use it.
    """

    spec_class: type  # the spec this server runs; its default name keys SERVERS

    def __init__(self, spec, n_devices: int, w0: np.ndarray, subset_rng: np.random.Generator):
        self.spec = spec
        self.n_devices = n_devices
        self.w = w0.copy()
        self.t = 0
        self.t_prime = 0

    @classmethod
    def from_config(cls, section: dict, model):
        """This algorithm's spec from a config's type-checked ``algorithm``
        section and the built participation model. A missing key raises
        ``KeyError(key)``, a value the model rules out ``SpecError(key, message)``."""
        return cls.spec_class()

    def needs(self, t: int, row: np.ndarray) -> np.ndarray:
        """Open round ``t``, whose (N,) participation mask is ``row``, and
        return the sorted ids of the devices that compute in it: every
        active device, by default."""
        if t != self.t + 1:
            raise ValueError(f"expected round {self.t + 1}, got {t}")
        if t == 1 and not row.all():
            raise ValueError("round 1 requires all devices to be active")
        self.t = t
        return np.flatnonzero(row)

    def aggregate(self, ids: np.ndarray, values: np.ndarray, schedule: LrSchedule) -> None:
        """Fold in the (A, d) block ``values`` of the local updates (gradient
        sums) of the devices ``ids`` that ``needs`` returned, row by row, and
        step the model."""
        raise NotImplementedError

    def _step(self, eta: float, direction: np.ndarray) -> None:
        # single shared expression so equal (eta, direction) pairs give equal models
        self.w = self.w - eta * direction
        self.t_prime += 1

    def state_dict(self) -> dict:
        return {"w": self.w.tolist(), "t": self.t, "t_prime": self.t_prime}

    def load_state_dict(self, state: dict) -> None:
        self.w = np.asarray(state["w"], dtype=np.float64)
        self.t = int(state["t"])
        # servers that step every round do not store t_prime
        self.t_prime = int(state.get("t_prime", self.t))


class MemoryServer(Server):
    """A server that remembers every device's latest update in the (N, d)
    table ``memory`` and keeps ``exact_sum``, the exact sum of the table's
    rows. The sum is derived state: a checkpoint holds the table alone, under
    the key ``table_key``, and restoring rebuilds the sum from it, exactly."""

    table_key: str

    def __init__(self, spec, n_devices, w0, subset_rng):
        super().__init__(spec, n_devices, w0, subset_rng)
        self.memory = np.zeros((n_devices, len(w0)))
        self.exact_sum = ExactVectorSum(len(w0))

    def state_dict(self):
        return {"w": self.w.tolist(), self.table_key: self.memory.tolist(), "t": self.t}

    def load_state_dict(self, state):
        # checkpoint versions 1 and 2 also held mifa_delta's exact sum, which is not read
        super().load_state_dict(state)
        self.memory = np.asarray(state[self.table_key], dtype=np.float64)
        self.exact_sum = ExactVectorSum(self.memory.shape[1])
        self.exact_sum.add(self.memory)


class MifaServer(MemoryServer):
    """Overwrites the active devices' stored updates, then steps by the
    full-array average. Inactive entries are reused untouched; an empty
    active set still steps, since the array is complete after round 1.
    A round adds the fresh rows and the negated rows they replace."""

    spec_class = MifaSpec
    table_key = "update_array"

    @property
    def update_array(self) -> np.ndarray:
        return self.memory

    def aggregate(self, ids, values, schedule):
        self.exact_sum.add(np.concatenate((values, -self.memory[ids])))
        self.memory[ids] = values
        self._step(schedule.eta(self.t), self.exact_sum.rounded() / self.n_devices)


class MifaDeltaServer(MemoryServer):
    """Server keeps one running-average vector; each device keeps its own
    previous update (``device_memory``, the device-side storage). A round
    adds every active device's (hi, lo) difference pair in one (2A, d)
    block, so the running average never drifts from the array average.
    Where a difference of two finite updates passes the largest double, the
    device sends the pair (new, -old) instead, which sums to the same value."""

    spec_class = MifaDeltaSpec
    table_key = "device_memory"

    @property
    def device_memory(self) -> np.ndarray:
        return self.memory

    @property
    def running_average(self) -> np.ndarray:
        return self.exact_sum.rounded() / self.n_devices

    def aggregate(self, ids, values, schedule):
        if len(ids):
            old = self.memory[ids]
            with np.errstate(over="ignore", invalid="ignore"):
                hi, lo = two_diff(values, old)
            spilled = np.isinf(hi)
            if spilled.any():
                hi, lo = np.where(spilled, values, hi), np.where(spilled, -old, lo)
            self.exact_sum.add(np.concatenate((hi, lo)))
            self.memory[ids] = values
        self._step(schedule.eta(self.t), self.running_average)


class BiasedFedAvgServer(Server):
    """Averages fresh updates from the active devices only. An empty active
    set leaves the model unchanged (no-op round)."""

    spec_class = BiasedFedAvgSpec

    def aggregate(self, ids, values, schedule):
        if len(ids):
            self._step(schedule.eta(self.t), exact_mean(values, len(ids)))


class ImportanceFedAvgServer(Server):
    """Importance-weighted averaging of fresh updates.

    ``active_count`` divides by |A(t)| (the literal algorithm box);
    ``total_count`` divides by the device count, which makes the expected
    update unbiased under independent participation.
    """

    spec_class = ImportanceFedAvgSpec

    def __init__(self, spec, n_devices, w0, subset_rng):
        super().__init__(spec, n_devices, w0, subset_rng)
        self.probs = np.asarray(spec.probs, dtype=np.float64)

    @classmethod
    def from_config(cls, section, model):
        # a bernoulli model supplies the probabilities the section leaves out
        if "probs" in section or not isinstance(model, BernoulliParticipation):
            probs = section["probs"]
        else:
            probs = model.probs
        probs = tuple(float(p) for p in probs)
        if len(probs) != model.n_devices:
            raise SpecError("probs", f"{len(probs)} probabilities for {model.n_devices} devices")
        return cls.spec_class(probs=probs, normalization=section.get("normalization", "active_count"))

    def aggregate(self, ids, values, schedule):
        if len(ids):
            weighted = values / self.probs[ids, None]
            if not np.all(np.isfinite(weighted)):
                raise DivergenceError(f"an importance-weighted update passed the largest double in round {self.t}")
            denom = len(ids) if self.spec.normalization == "active_count" else self.n_devices
            self._step(schedule.eta(self.t), exact_mean(weighted, denom))


class SamplingFedAvgServer(Server):
    """Blocking subset-sampling server.

    The model is frozen while any selected device has not yet responded; a
    pending device computes its update at its first active wall-round within
    the window. The global step uses the schedule indexed by the
    global-update counter, while devices step with the wall-round rate.
    """

    spec_class = SamplingFedAvgSpec

    def __init__(self, spec, n_devices, w0, subset_rng):
        super().__init__(spec, n_devices, w0, subset_rng)
        if not 1 <= spec.subset_size <= n_devices:
            raise ValueError("subset size must lie in [1, n_devices]")
        self.subset_rng = subset_rng
        self.pending = np.zeros(n_devices, dtype=bool)  # the selected devices yet to respond
        self.collected: dict = {}  # device -> its update, in completion order
        self.window_start = 0
        self.waits: list = []  # wall-rounds consumed per update

    @classmethod
    def from_config(cls, section, model):
        subset_size = section["subset_size"]
        if not 1 <= subset_size <= model.n_devices:
            raise SpecError("subset_size", f"{subset_size} is not in [1, {model.n_devices}], the device count")
        return cls.spec_class(subset_size=subset_size)

    def needs(self, t, row):
        super().needs(t, row)
        if not self.pending.any():
            chosen = self.subset_rng.choice(self.n_devices, size=self.spec.subset_size, replace=False)
            self.pending[chosen] = True
            self.window_start = self.t
        return np.flatnonzero(self.pending & row)

    def aggregate(self, ids, values, schedule):
        self.collected.update(zip(map(int, ids), values))
        self.pending[ids] = False
        if not self.pending.any():
            collected = np.array(list(self.collected.values()))
            self._step(schedule.eta(self.t_prime + 1), exact_mean(collected, self.spec.subset_size))
            self.waits.append(self.t - self.window_start + 1)
            self.collected = {}

    def state_dict(self):
        return {
            "w": self.w.tolist(),
            "subset_size": self.spec.subset_size,
            "pending": np.flatnonzero(self.pending).tolist(),
            "collected": [{"device": int(i), "value": value.tolist()} for i, value in self.collected.items()],
            "t": self.t,
            "t_prime": self.t_prime,
            "window_start": self.window_start,
            "waits": list(self.waits),
        }

    def load_state_dict(self, state):
        super().load_state_dict(state)
        self.pending = np.zeros(self.n_devices, dtype=bool)
        self.pending[[int(i) for i in state["pending"]]] = True
        # version-2 entries also carry the round that produced them, which nothing reads
        self.collected = {int(d["device"]): np.asarray(d["value"], dtype=np.float64) for d in state["collected"]}
        self.window_start = int(state["window_start"])
        self.waits = [int(x) for x in state["waits"]]


SERVERS = {
    cls.spec_class.name: cls
    for cls in (MifaServer, MifaDeltaServer, BiasedFedAvgServer, ImportanceFedAvgServer, SamplingFedAvgServer)
}


# --------------------------------------------------------------------------
# The round-loop runner
# --------------------------------------------------------------------------


class Runner:
    """Deterministic wall-round loop for one (algorithm, seed) pair.

    Participation, gradient noise, and subset sampling each draw from
    dedicated substreams of the seed, so every algorithm sees the identical
    active-set sequence and per-device noise for a fixed seed.
    """

    def __init__(
        self,
        algo_spec,
        instance: ProblemInstance,
        model,
        schedule: LrSchedule,
        horizon: int,
        n_steps: int,
        seed: int,
        w0: np.ndarray | None = None,
    ):
        if horizon < 2:
            raise ValueError("horizon must be >= 2")
        if model.n_devices != instance.n_devices:
            raise ValueError("participation model and instance disagree on device count")
        self.algo_spec = algo_spec
        self.instance = instance
        self.model = model
        self.schedule = schedule
        self.horizon = horizon
        self.n_steps = n_steps
        self.seed = seed

        dim = instance.dim
        self.w0 = np.zeros(dim) if w0 is None else np.asarray(w0, dtype=np.float64).copy()
        self.sampler = ParticipationSampler(model, seed, horizon)
        self.noise_rngs = device_noise_streams(seed, instance.n_devices)
        self.subset_rng = substream(seed, SUBSET_SAMPLING, 0)
        self.tracker = StalenessTracker(instance.n_devices)
        self.oracle_calls = 0
        self.min_grad_sq = np.inf
        self.rounds_done = 0
        self.rows: list = []

        self.averaged = None
        if isinstance(schedule, StronglyConvexDecay):
            self.averaged = AveragedIterate(schedule.shift, dim)

        self.state = SERVERS[algo_spec.name](algo_spec, instance.n_devices, self.w0, self.subset_rng)

    def _round_once(self, t: int) -> None:
        row = self.sampler.row(t)
        self.tracker.update(t, row)
        if self.averaged is not None:
            self.averaged.observe(t, self.state.w)
        w_before = self.state.w

        f_gap = None
        if self.instance.strongly_convex and self.instance.f_star is not None:
            f_gap = self.instance.suboptimality(w_before)
        g = self.instance.global_grad(w_before)
        grad_sq = float(g @ g)
        if not self.instance.strongly_convex:
            f_gap = grad_sq
        self.min_grad_sq = min(self.min_grad_sq, grad_sq)
        avg_gap = None
        if self.averaged is not None and self.instance.f_star is not None:
            avg_gap = self.instance.suboptimality(self.averaged.current())

        computing = self.state.needs(t, row)
        rngs = [self.noise_rngs[i] for i in computing]
        values = local_updates(self.instance, computing, self.state.w, self.schedule.eta(t), self.n_steps, rngs)
        self.state.aggregate(computing, values, self.schedule)
        self.oracle_calls += self.n_steps * len(computing)
        if not np.all(np.isfinite(self.state.w)):
            raise DivergenceError(f"server model non-finite after round {t}")

        self.rows.append(
            RoundMetrics(
                t=t,
                t_prime=self.state.t_prime,
                f_gap=f_gap,
                avg_gap=avg_gap,
                grad_norm_sq=grad_sq,
                min_grad_norm_sq=self.min_grad_sq,
                tau_bar=self.tracker.running_avg,
                tau_max=self.tracker.running_peak,
                oracle_calls=self.oracle_calls,
            )
        )
        self.rounds_done = t

    def run(self) -> RunResult:
        diverged = False
        try:
            self.run_rounds(self.horizon)
        except DivergenceError:
            diverged = True
        final_avg = self.rows[-1].avg_gap if self.rows else None
        stats = self.tracker.stats() if self.tracker.round >= 2 else None
        return RunResult(
            rounds=self.rows,
            diverged=diverged,
            final_avg_gap=final_avg,
            staleness=stats,
            final_w=self.state.w.copy(),
        )

    def run_rounds(self, upto: int) -> list:
        """Advance to round ``upto`` (inclusive); returns the new rows."""
        self.rows = []
        for t in range(self.rounds_done + 1, upto + 1):
            self._round_once(t)
        return self.rows

    # ---- lossless mid-run checkpointing -----------------------------------
    # Version 4 stores no derived state. The memory servers rebuild their
    # exact sum from their table (versions 1 and 2 also stored mifa_delta's,
    # as Shewchuk partials, then as limbs). The participation sampler is a
    # function of (seed, round), so restoring positions a fresh one at the
    # next round (versions 1 to 3 also stored its generators or last-active
    # rounds, which equal the positioned ones and are not read).

    def checkpoint(self) -> dict:
        state = {
            "version": 4,
            "algorithm": self.algo_spec.name,
            "rounds_done": self.rounds_done,
            "oracle_calls": self.oracle_calls,
            "min_grad_sq": self.min_grad_sq,
            "server": self.state.state_dict(),
            "tracker": self.tracker.state_dict(),
            "noise_rngs": [generator_state(g) for g in self.noise_rngs],
            "subset_rng": generator_state(self.subset_rng),
            "averaged": self.averaged.state_dict() if self.averaged is not None else None,
        }
        return state

    def restore(self, state: dict) -> None:
        if state["version"] not in (1, 2, 3, 4):
            raise ValueError(f"unsupported checkpoint version {state['version']}")
        if state["algorithm"] != self.algo_spec.name:
            raise ValueError("checkpoint belongs to a different algorithm")
        shape = (state["tracker"]["n_devices"], len(state["server"]["w"]))
        expected = (self.instance.n_devices, self.instance.dim)
        if shape != expected:
            raise ValueError(f"checkpoint holds {shape[0]} devices in dimension {shape[1]}, "
                             f"this run has {expected[0]} devices in dimension {expected[1]}")
        self.rounds_done = int(state["rounds_done"])
        self.oracle_calls = int(state["oracle_calls"])
        self.min_grad_sq = float(state["min_grad_sq"])
        self.state.load_state_dict(state["server"])
        self.sampler = ParticipationSampler(self.model, self.seed, self.horizon, start=self.rounds_done + 1)
        self.tracker.load_state_dict(state["tracker"])
        self.noise_rngs = [restore_generator(s) for s in state["noise_rngs"]]
        # restored in place: the server draws its subsets from this generator
        self.subset_rng.bit_generator.state = state["subset_rng"]
        if state["averaged"] is not None:
            self.averaged.load_state_dict(state["averaged"])


def run(
    algo_spec,
    instance: ProblemInstance,
    model,
    schedule: LrSchedule,
    horizon: int,
    n_steps: int,
    seed: int,
    w0: np.ndarray | None = None,
) -> RunResult:
    """Run one algorithm for ``horizon`` wall-rounds; deterministic in all
    arguments plus the seed."""
    runner = Runner(algo_spec, instance, model, schedule, horizon, n_steps, seed, w0=w0)
    return runner.run()
