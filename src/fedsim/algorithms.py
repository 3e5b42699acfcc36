"""Federated optimization servers with faithful unavailability semantics.

Each algorithm is a server object that owns the model ``w``, the wall-round
counter ``t``, the global-update counter ``t_prime`` and whatever memory the
algorithm keeps. ``Runner`` plays every wall-round the same way:

1. ``server.needs(active)`` checks that ``active`` is the next round and
   returns the sorted ids of the devices that compute in it;
2. each of those devices runs ``local_update`` (K local SGD steps whose
   sampled gradients are summed) from ``server.w`` on its own noise stream;
3. ``server.aggregate(updates, schedule)`` folds those updates in and steps
   the model.

``state_dict``/``load_state_dict`` checkpoint a server. The five servers
differ only in steps 1 and 3:

- ``mifa``: keeps every device's latest update in an array and averages the
  whole array each round, reusing stale entries for inactive devices.
- ``mifa_delta``: the memory-lean variant; devices transmit the difference
  against their own stored previous update and the server keeps only a
  running average. Differences travel as two-term error-free expansions
  (``hi``, ``lo``) into an exact fixed-point limb accumulator
  (``exact.ExactVectorSum``), so the running average equals the array
  average bit for bit.
- ``biased_fedavg``: averages fresh updates from the active devices only.
- ``is_fedavg``: reweights fresh updates by inverse participation
  probability, normalizing by the active count (literal form) or by the
  device count (unbiased form).
- ``sampling_fedavg``: samples a device subset and blocks the global update
  until every selected device has responded.

``SERVERS`` maps each algorithm name to its server class. A server's
``from_config`` turns a config's ``algorithm`` section into the algorithm's
spec, the frozen parameter holder that ``Runner`` and ``run`` take.

All server aggregation rounds an exact sum correctly (``exact.exact_mean``,
or ``ExactVectorSum.rounded`` for ``mifa_delta``), so algebraically equal
updates are bitwise equal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .availability import ActiveSet, BernoulliParticipation, StalenessTracker
from .exact import ExactVectorSum, exact_mean, two_diff
from .problems import ProblemInstance, SpecError, logistic_sample_grad, sphere_noise
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


@dataclass(frozen=True)
class LocalUpdate:
    device: int
    value: np.ndarray  # sum of the K sampled gradients
    produced_at: int


def local_update(
    instance: ProblemInstance,
    i: int,
    w: np.ndarray,
    eta: float,
    n_steps: int,
    rng: np.random.Generator,
    produced_at: int = 0,
) -> LocalUpdate:
    """Run K local SGD steps from ``w`` and return the gradient sum.

    The returned value times eta equals the local displacement w - w_K
    exactly in real arithmetic; it is accumulated as a running sum of the
    sampled gradients so small steps lose no precision to cancellation.
    """
    if eta <= 0:
        raise ValueError("eta must be > 0")
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    s = instance.stacked
    if instance.kind == "logistic":
        picks = rng.integers(s["labels"].shape[1], size=n_steps).tolist()
        total, w_final = _kernels.local_sgd(lambda v, k: logistic_sample_grad(s, i, v, picks[k]), w, eta, n_steps)
    else:
        noise = sphere_noise(rng, n_steps, instance.dim, instance.constants.noise_std)
        if instance.kind == "quadratic":
            total, w_final = _kernels.quad_local_sgd(s["hessians"][i], s["centers"][i], w, eta, n_steps, noise)
        else:
            total, w_final = _kernels.trig_local_sgd(
                s["centers"][i], s["curvature"], s["amplitude"], w, eta, n_steps, noise
            )
    if not (np.all(np.isfinite(total)) and np.all(np.isfinite(w_final))):
        raise DivergenceError(f"device {i} produced a non-finite local iterate")
    return LocalUpdate(device=i, value=total, produced_at=produced_at)


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

    def needs(self, active: ActiveSet) -> list:
        """Open round ``active.round`` and return the sorted ids of the
        devices that compute in it: every active device, by default."""
        if active.round != self.t + 1:
            raise ValueError(f"expected round {self.t + 1}, got {active.round}")
        if active.round == 1 and active.members != frozenset(range(self.n_devices)):
            raise ValueError("round 1 requires all devices to be active")
        self.t = active.round
        return sorted(active.members)

    def aggregate(self, updates: list, schedule: LrSchedule) -> None:
        """Fold in the ``LocalUpdate``s of the devices ``needs`` returned, in
        that order, and step the model."""
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


class MifaServer(Server):
    """Overwrites the active devices' stored updates, then steps by the
    full-array average. Inactive entries are reused untouched; an empty
    active set still steps, since the array is complete after round 1."""

    spec_class = MifaSpec

    def __init__(self, spec, n_devices, w0, subset_rng):
        super().__init__(spec, n_devices, w0, subset_rng)
        self.update_array = np.zeros((n_devices, len(w0)))

    def aggregate(self, updates, schedule):
        for lu in updates:
            self.update_array[lu.device] = lu.value
        self._step(schedule.eta(self.t), exact_mean(self.update_array, self.n_devices))

    def state_dict(self):
        return {"w": self.w.tolist(), "update_array": self.update_array.tolist(), "t": self.t}

    def load_state_dict(self, state):
        super().load_state_dict(state)
        self.update_array = np.asarray(state["update_array"], dtype=np.float64)


class MifaDeltaServer(Server):
    """Server keeps one running-average vector; each device keeps its own
    previous update. ``exact_sum`` carries the exact real sum of the stored
    updates, so the running average never drifts from the array average.
    A round adds every active device's (hi, lo) difference pair in one
    (2A, d) block."""

    spec_class = MifaDeltaSpec

    def __init__(self, spec, n_devices, w0, subset_rng):
        super().__init__(spec, n_devices, w0, subset_rng)
        self.device_memory = np.zeros((n_devices, len(w0)))  # device-side stored previous updates
        self.exact_sum = ExactVectorSum(len(w0))

    @property
    def running_average(self) -> np.ndarray:
        return self.exact_sum.rounded() / self.n_devices

    def aggregate(self, updates, schedule):
        if updates:
            devices = [lu.device for lu in updates]
            values = np.stack([lu.value for lu in updates])
            hi, lo = two_diff(values, self.device_memory[devices])
            self.exact_sum.add(np.concatenate((hi, lo)))
            self.device_memory[devices] = values
        self._step(schedule.eta(self.t), self.running_average)

    def state_dict(self):
        return {
            "w": self.w.tolist(),
            "device_memory": self.device_memory.tolist(),
            "exact_sum": self.exact_sum.state_dict(),
            "t": self.t,
        }

    def load_state_dict(self, state):
        super().load_state_dict(state)
        self.device_memory = np.asarray(state["device_memory"], dtype=np.float64)
        self.exact_sum = ExactVectorSum.from_state_dict(state["exact_sum"])


class BiasedFedAvgServer(Server):
    """Averages fresh updates from the active devices only. An empty active
    set leaves the model unchanged (no-op round)."""

    spec_class = BiasedFedAvgSpec

    def aggregate(self, updates, schedule):
        if updates:
            values = np.stack([lu.value for lu in updates])
            self._step(schedule.eta(self.t), exact_mean(values, len(updates)))


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

    def aggregate(self, updates, schedule):
        if updates:
            values = np.stack([lu.value / self.probs[lu.device] for lu in updates])
            denom = len(updates) if self.spec.normalization == "active_count" else self.n_devices
            self._step(schedule.eta(self.t), exact_mean(values, denom))


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
        self.pending: set = set()
        self.collected: list = []  # LocalUpdate, completion order
        self.window_start = 0
        self.waits: list = []  # wall-rounds consumed per update

    @classmethod
    def from_config(cls, section, model):
        subset_size = section["subset_size"]
        if not 1 <= subset_size <= model.n_devices:
            raise SpecError("subset_size", f"{subset_size} is not in [1, {model.n_devices}], the device count")
        return cls.spec_class(subset_size=subset_size)

    def needs(self, active):
        super().needs(active)
        if not self.pending:
            chosen = self.subset_rng.choice(self.n_devices, size=self.spec.subset_size, replace=False)
            self.pending = set(int(i) for i in chosen)
            self.window_start = self.t
        return sorted(self.pending & active.members)

    def aggregate(self, updates, schedule):
        self.collected += updates
        self.pending -= {lu.device for lu in updates}
        if not self.pending:
            values = np.stack([lu.value for lu in self.collected])
            self._step(schedule.eta(self.t_prime + 1), exact_mean(values, self.spec.subset_size))
            self.waits.append(self.t - self.window_start + 1)
            self.collected = []

    def state_dict(self):
        return {
            "w": self.w.tolist(),
            "subset_size": self.spec.subset_size,
            "pending": sorted(self.pending),
            "collected": [
                {"device": lu.device, "value": lu.value.tolist(), "produced_at": lu.produced_at}
                for lu in self.collected
            ],
            "t": self.t,
            "t_prime": self.t_prime,
            "window_start": self.window_start,
            "waits": list(self.waits),
        }

    def load_state_dict(self, state):
        super().load_state_dict(state)
        self.pending = set(int(i) for i in state["pending"])
        self.collected = [
            LocalUpdate(
                device=int(d["device"]),
                value=np.asarray(d["value"], dtype=np.float64),
                produced_at=int(d["produced_at"]),
            )
            for d in state["collected"]
        ]
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
        audit: bool = False,
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
        self.audit = audit
        self.audit_log: dict = {}

        dim = instance.dim
        self.w0 = np.zeros(dim) if w0 is None else np.asarray(w0, dtype=np.float64).copy()
        self.sampler = model.sampler(seed)
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
        active = self.sampler.active_set(t)
        self.tracker.update(active)
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

        computing = self.state.needs(active)
        if self.audit:
            self._snapshot_rng_states(computing, t)
        eta_t = self.schedule.eta(t)
        updates = [
            local_update(self.instance, i, self.state.w, eta_t, self.n_steps, self.noise_rngs[i], produced_at=t)
            for i in computing
        ]
        self.state.aggregate(updates, self.schedule)
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

    def _snapshot_rng_states(self, devices: list, t: int) -> None:
        for i in devices:
            self.audit_log[i] = {
                "round": t,
                "w": self.state.w.copy(),
                "eta": self.schedule.eta(t),
                "rng_state": generator_state(self.noise_rngs[i]),
            }

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
    # Version 2 stores mifa_delta's exact sum as limbs; version 1 stored it as
    # Shewchuk partials, which ``ExactVectorSum.from_state_dict`` still folds
    # in exactly. Every other server state is the same in both versions.

    def checkpoint(self) -> dict:
        state = {
            "version": 2,
            "algorithm": self.algo_spec.name,
            "rounds_done": self.rounds_done,
            "oracle_calls": self.oracle_calls,
            "min_grad_sq": self.min_grad_sq,
            "server": self.state.state_dict(),
            "sampler": self.sampler.state_dict(),
            "tracker": self.tracker.state_dict(),
            "noise_rngs": [generator_state(g) for g in self.noise_rngs],
            "subset_rng": generator_state(self.subset_rng),
            "averaged": self.averaged.state_dict() if self.averaged is not None else None,
        }
        return state

    def restore(self, state: dict) -> None:
        if state["version"] not in (1, 2):
            raise ValueError(f"unsupported checkpoint version {state['version']}")
        if state["algorithm"] != self.algo_spec.name:
            raise ValueError("checkpoint belongs to a different algorithm")
        self.rounds_done = int(state["rounds_done"])
        self.oracle_calls = int(state["oracle_calls"])
        self.min_grad_sq = float(state["min_grad_sq"])
        self.state.load_state_dict(state["server"])
        self.sampler.restore(state["sampler"])
        self.tracker = StalenessTracker.from_state_dict(state["tracker"])
        self.noise_rngs = [restore_generator(s) for s in state["noise_rngs"]]
        # restored in place: the server draws its subsets from this generator
        self.subset_rng.bit_generator.state = state["subset_rng"]
        if state["averaged"] is not None:
            self.averaged = AveragedIterate.from_state_dict(state["averaged"])


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
