"""Federated optimization servers with faithful unavailability semantics.

Each algorithm is a server object that owns the model ``w``, the wall-round
counter ``t``, the global-update counter ``t_prime`` and whatever memory the
algorithm keeps. A ``Batch`` of runs on one instance and one participation
model plays every wall-round the same way, for all its runs at once:

1. each seed's participation mask row is drawn once and handed to every run
   of that seed; ``server.needs(t, row)`` checks that ``t`` is the next round
   and returns the sorted ids of the devices that compute in it;
2. every run's devices, from their runs' models, run their K local steps
   as one (A, d) block of summed sampled gradients, as ``local_updates``
   runs them: each device draws its randomness from its own noise stream
   into its row of one draw block (``local_update``), then each step is
   one expression over the block. A device's row does not depend on which
   devices share its batch, and a run whose rows left the doubles stops
   alone, as diverged. Rows with bitwise-equal inputs are computed once: a
   run whose seed, model, step and computing ids equal an earlier run's in
   the round (``mifa`` and ``mifa_delta``, say) is its twin, and reuses
   that run's rows whole if all its draws, which every run still makes
   from its own streams, are bitwise equal to that run's;
3. ``server.fold(ids, values)`` folds each run's slice of that block in and
   returns the rows it adds to its window of the batch's exact sum; every
   run's rows go in with one ``add``, one ``rounded()`` gives every run's
   window, and ``server.step`` steps each model by its window over its count.

A ``Runner`` is one run, and advancing it alone is the batch of one.
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

A server keeps no sum: the batch owns one exact accumulator,
``exact.ExactVectorSum``, with a window of d columns per run, and rounds it
correctly, so algebraically equal updates are bitwise equal, whichever runs
share it. The FedAvg servers (``fresh``) sum each aggregated block afresh:
the batch zeroes their windows every round. A memory server's window is the
exact sum of its (N, d) table, rebuilt from the table each time the batch
starts to advance, and each round adds the new rows and the negated rows
they replace, in O(A d); the running average of ``mifa_delta`` thus equals
the array average of ``mifa`` bit for bit. The sum is derived state: a
checkpoint holds the table alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from . import _kernels
from .availability import BernoulliParticipation, ParticipationSampler
from .exact import ExactVectorSum, exact_mean, two_diff
from .problems import (ProblemInstance, SpecError, _row_dots, is_int, logistic_sample_grads, read_device_ids,
                       read_floats, read_int, sphere_noise)
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


def _draw_block(instance: ProblemInstance, rngs, n_steps: int) -> np.ndarray:
    """The draw block of one row per stream of ``rngs``, row r drawn from
    ``rngs[r]`` by ``local_update``: (A, K) sample indices (logistic) or
    (A, K, d) standard normals."""
    if instance.kind == "logistic":
        block = np.zeros((len(rngs), n_steps), np.int64)
    else:
        block = np.zeros((len(rngs), n_steps, instance.dim))
    for row, rng in zip(block, rngs):
        local_update(instance, rng, row)
    return block


def _normalised(instance: ProblemInstance, draws: np.ndarray) -> np.ndarray:
    """The draw block as the K steps read it: the noise scaled onto the
    sphere (quadratic, trig), or the sample indices as drawn (logistic)."""
    return draws if instance.kind == "logistic" else sphere_noise(draws, instance.constants.noise_std)


def _check_block(instance: ProblemInstance, ids, w, eta, n_steps: int, rngs):
    """``local_updates``'s arguments as arrays; a malformed one raises a
    ``ValueError`` that names it."""
    ids = np.asarray(ids, dtype=np.intp)
    if ids.ndim != 1:
        raise ValueError(f"ids has shape {ids.shape}, expected one flat list of device ids")
    n, dim, rows = instance.n_devices, instance.dim, len(ids)
    outside = ids[(ids < 0) | (ids >= n)]
    if len(outside):
        raise ValueError(f"ids holds device {outside[0]}, the instance has {n} devices")
    eta = np.asarray(eta, dtype=np.float64)
    if eta.shape not in ((), (rows,)):
        raise ValueError(f"eta has shape {eta.shape}, expected one step size or one for each of the {rows} ids")
    if not (np.isfinite(eta) & (eta > 0)).all():
        raise ValueError("eta must be finite and > 0")
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    if np.shape(w) not in ((dim,), (rows, dim)):
        raise ValueError(f"w has shape {np.shape(w)}, expected {(dim,)} or {(rows, dim)}")
    if len(rngs) != rows:
        raise ValueError(f"rngs holds {len(rngs)} streams for {rows} ids")
    return ids, eta


def local_updates(
    instance: ProblemInstance,
    ids,
    w: np.ndarray,
    eta,
    n_steps: int,
    rngs,
) -> tuple[np.ndarray, np.ndarray]:
    """Run K local SGD steps on each device of ``ids``. Returns the (A, d)
    block of their gradient sums, row r for device ``ids[r]``, and the (A,)
    mask of the rows whose local iterates stayed finite.

    Row r starts from ``w``, one model (d,) or row r of an (A, d) block, and
    steps by ``eta``, one step size or row r's of an (A,) array. Device
    ``ids[r]`` draws from its own stream ``rngs[r]``; then the noise
    (quadratic, trig) is normalised, and each of the K steps runs, once over
    the whole block. A row is bitwise what the one-device call ``[ids[r]]``
    returns, whatever the other rows and their order. A row times eta equals
    the local displacement w - w_K exactly in real arithmetic; it is
    accumulated as a running sum of the sampled gradients so small steps
    lose no precision to cancellation. A malformed argument raises a
    ``ValueError`` that names it.
    """
    ids, eta = _check_block(instance, ids, w, eta, n_steps, rngs)
    # the raw draws are freed once normalised: a batch's blocks are large
    return _k_steps(instance, ids, w, eta, n_steps, _normalised(instance, _draw_block(instance, rngs, n_steps)))


def _k_steps(instance: ProblemInstance, ids, w, eta, n_steps: int, draws) -> tuple[np.ndarray, np.ndarray]:
    """``local_updates``'s K steps on checked arguments, from the normalised
    draw block ``draws``."""
    if not len(ids):
        return np.empty((0, instance.dim)), np.ones(0, dtype=bool)
    s = instance.stacked
    w0 = np.broadcast_to(w, (len(ids), instance.dim))
    step = eta[..., None]  # one step per row, or one for all
    if instance.kind == "logistic":
        total, w_final = _kernels.local_sgd(
            lambda v, k: logistic_sample_grads(s, ids, v, draws[:, k]), w0, step, n_steps
        )
    elif instance.kind == "quadratic":
        total, w_final = _kernels.quad_local_sgd(s["hessians"][ids], s["centers"][ids], w0, step, n_steps, draws)
    else:
        total, w_final = _kernels.trig_local_sgd(
            s["centers"][ids], s["curvature"], s["amplitude"], w0, step, n_steps, draws
        )
    return total, np.isfinite(total).all(axis=1) & np.isfinite(w_final).all(axis=1)


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
    that draw device subsets use it. ``fresh`` says whether the server's
    window of the batch's exact sum restarts every round (FedAvg) or runs on
    (memory).
    """

    spec_class: type  # the spec this server runs; its default name keys SERVERS
    fresh = True

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

    def fold(self, ids: np.ndarray, values: np.ndarray):
        """Fold in the (A, d) block ``values`` of the local updates (gradient
        sums) of the devices ``ids`` that ``needs`` returned, row by row.
        Returns None when the model does not step this round, else (rows,
        count): the rows this round adds to the server's window of the exact
        sum, and the count that divides the rounded window into the step's
        direction."""
        raise NotImplementedError

    def step(self, direction: np.ndarray, schedule: LrSchedule) -> None:
        self._step(schedule.eta(self.t), direction)

    def _step(self, eta: float, direction: np.ndarray) -> None:
        # single shared expression so equal (eta, direction) pairs give equal models
        self.w = self.w - eta * direction
        self.t_prime += 1

    def state_dict(self) -> dict:
        return {"w": self.w.tolist(), "t_prime": self.t_prime}

    def load_state_dict(self, state: dict, t: int) -> None:
        """Take ``state_dict()``'s state at the run's round ``t``; a bad field raises ``KeyError`` or ``SpecError``."""
        self.w = read_floats("w", state["w"], self.w.shape)
        self.t = t
        self.t_prime = read_int("t_prime", state["t_prime"], 0, t)


class MemoryServer(Server):
    """A server that remembers every device's latest update in the (N, d)
    table ``memory``, whose rows its window of the batch's exact sum adds up.
    A checkpoint holds the table alone, under the key ``table_key``. The
    model steps every round, by the table's average."""

    table_key: str
    fresh = False

    def __init__(self, spec, n_devices, w0, subset_rng):
        super().__init__(spec, n_devices, w0, subset_rng)
        self.memory = np.zeros((n_devices, len(w0)))

    def state_dict(self):
        return {"w": self.w.tolist(), self.table_key: self.memory.tolist()}

    def load_state_dict(self, state, t):
        super().load_state_dict({**state, "t_prime": t}, t)  # the model steps every round
        self.memory = read_floats(self.table_key, state[self.table_key], self.memory.shape)


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

    def fold(self, ids, values):
        rows = np.concatenate((values, -self.memory[ids]))
        self.memory[ids] = values
        return rows, self.n_devices


class MifaDeltaServer(MemoryServer):
    """The server's state is its window of the batch's exact sum, one
    vector; each device keeps its own previous update (``device_memory``,
    the device-side storage), from which ``running_average`` recomputes the
    window's average. A round adds every active device's (hi, lo)
    difference pair in one (2A, d) block, so the running average never
    drifts from the array average.
    Where a difference of two finite updates passes the largest double, the
    device sends the pair (new, -old) instead, which sums to the same value."""

    spec_class = MifaDeltaSpec
    table_key = "device_memory"

    @property
    def device_memory(self) -> np.ndarray:
        return self.memory

    @property
    def running_average(self) -> np.ndarray:
        return exact_mean(self.memory, self.n_devices)

    def fold(self, ids, values):
        old = self.memory[ids]
        with np.errstate(over="ignore", invalid="ignore"):
            hi, lo = two_diff(values, old)
        spilled = np.isinf(hi)
        if spilled.any():
            hi, lo = np.where(spilled, values, hi), np.where(spilled, -old, lo)
        self.memory[ids] = values
        return np.concatenate((hi, lo)), self.n_devices


class BiasedFedAvgServer(Server):
    """Averages fresh updates from the active devices only. An empty active
    set leaves the model unchanged (no-op round)."""

    spec_class = BiasedFedAvgSpec

    def fold(self, ids, values):
        return (values, len(ids)) if len(ids) else None


class ImportanceFedAvgServer(Server):
    """Importance-weighted averaging of fresh updates.

    ``active_count`` divides by |A(t)| (the literal algorithm box);
    ``total_count`` divides by the device count, which makes the expected
    update unbiased under independent participation.
    """

    spec_class = ImportanceFedAvgSpec

    def __init__(self, spec, n_devices, w0, subset_rng):
        super().__init__(spec, n_devices, w0, subset_rng)
        if len(spec.probs) != n_devices:
            raise ValueError(f"probs holds {len(spec.probs)} probabilities for {n_devices} devices")
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

    def fold(self, ids, values):
        if not len(ids):
            return None
        weighted = values / self.probs[ids, None]
        if not np.all(np.isfinite(weighted)):
            raise DivergenceError(f"an importance-weighted update passed the largest double in round {self.t}")
        return weighted, len(ids) if self.spec.normalization == "active_count" else self.n_devices


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

    def fold(self, ids, values):
        # copied, so that the round's whole block is not kept alive
        self.collected.update(zip(map(int, ids), values.copy()))
        self.pending[ids] = False
        if self.pending.any():
            return None
        collected = np.array(list(self.collected.values()))
        self.waits.append(self.t - self.window_start + 1)
        self.collected = {}
        return collected, self.spec.subset_size

    def step(self, direction, schedule):
        self._step(schedule.eta(self.t_prime + 1), direction)

    def state_dict(self):
        return {
            **super().state_dict(),
            "pending": np.flatnonzero(self.pending).tolist(),
            "collected": [{"device": int(i), "value": value.tolist()} for i, value in self.collected.items()],
            "window_start": self.window_start,
            "waits": list(self.waits),
        }

    def load_state_dict(self, state, t):
        super().load_state_dict(state, t)
        entries, waits = state["collected"], state["waits"]
        # version-2 entries also carry the round that produced them, which nothing reads
        if not isinstance(entries, list) or not all(
                isinstance(entry, dict) and {"device", "value"} <= entry.keys() for entry in entries):
            raise SpecError("collected", "must be a list of {device, value} entries")
        pending = read_device_ids("pending", state["pending"], self.n_devices)
        collected = read_device_ids("collected", [entry["device"] for entry in entries], self.n_devices)
        values = [read_floats("collected", entry["value"], self.w.shape) for entry in entries]
        both = set(pending).intersection(collected)
        if both:
            raise SpecError("collected", f"holds device {min(both)}, which is still pending")
        # a window's subset is pending or collected, and its last update empties both
        if (len(pending) + len(collected) != self.spec.subset_size) if pending else collected:
            raise SpecError("collected", f"holds {len(collected)} updates and {len(pending)} pending: not one window")
        self.pending = np.zeros(self.n_devices, dtype=bool)
        self.pending[pending] = True
        self.collected = dict(zip(collected, values))
        self.window_start = read_int("window_start", state["window_start"], 0, t)
        if not isinstance(waits, list) or len(waits) != self.t_prime:
            raise SpecError("waits", f"must list one wait for each of the {self.t_prime} global updates")
        self.waits = [read_int("waits", wait, 1, t) for wait in waits]


SERVERS = {
    cls.spec_class.name: cls
    for cls in (MifaServer, MifaDeltaServer, BiasedFedAvgServer, ImportanceFedAvgServer, SamplingFedAvgServer)
}


# --------------------------------------------------------------------------
# Runs and the lockstep round engine
# --------------------------------------------------------------------------


def _parsed(field: str, parse, *args):
    """``parse(*args)``, which reads checkpoint field ``field``: the
    ``SpecError`` of a field of it, a key missing from it or a malformed
    value raises ``SpecError`` keyed by its path in the checkpoint."""
    try:
        return parse(*args)
    except SpecError as err:
        raise SpecError(f"{field}.{err.key}", str(err)) from err
    except KeyError as err:
        raise SpecError(f"{field}.{err.args[0]}", "is missing") from err
    except (TypeError, ValueError, IndexError) as err:
        raise SpecError(field, f"is malformed: {err}") from err


def _run_fields(state: dict) -> dict:
    """A checkpoint's fields that identify its run, keyed by name; a group
    that is no object holds none."""
    return {**{key: state.get(key) for key in ("seed", "horizon", "n_steps")},
            **{f"{group}.{key}": value for group in ("spec", "schedule") if isinstance(state.get(group), dict)
               for key, value in state[group].items()}}


def _same(stored, value) -> bool:
    """Whether checkpoint field ``stored`` is the run's ``value``; a bool matches only a bool, also in a list."""
    if isinstance(stored, list) and isinstance(value, list):
        return len(stored) == len(value) and all(map(_same, stored, value))
    return isinstance(stored, bool) == isinstance(value, bool) and stored == value


class Runner:
    """One (algorithm, seed) run: its server, noise and subset streams,
    counters and metric rows.

    Participation and gradient noise draw from dedicated per-device
    substreams of the seed, so every algorithm sees the identical active-set
    sequence and per-device noise for a fixed seed; subset sampling draws from
    one stream of the run, ``substream(seed, SUBSET_SAMPLING, 0)``. A
    ``Batch`` advances runs; advancing one runner alone is the batch of that one.
    ``sampler`` is positioned when the run advances, and ``divergence`` holds the error that stopped it.
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
        for name, value in (("horizon", horizon), ("n_steps", n_steps), ("seed", seed)):
            if not is_int(value):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if horizon < 2:
            raise ValueError("horizon must be >= 2")
        if n_steps < 1:
            raise ValueError("n_steps must be >= 1")
        if seed < 0:
            raise ValueError(f"seed must be >= 0, got {seed}")
        if model.n_devices != instance.n_devices:
            raise ValueError("participation model and instance disagree on device count")
        for field, name, value in (("local_steps", "n_steps", n_steps), ("horizon", "horizon", horizon),
                                   ("n_devices", "device count", instance.n_devices)):
            if getattr(schedule, field, value) != value:  # a schedule tuned to another run
                raise ValueError(f"schedule {field} is {getattr(schedule, field)}, this run's {name} is {value}")
        self.algo_spec = algo_spec
        self.instance = instance
        self.model = model
        self.schedule = schedule
        self.horizon = horizon
        self.n_steps = n_steps
        self.seed = seed

        dim = instance.dim
        self.w0 = np.zeros(dim) if w0 is None else np.asarray(w0, dtype=np.float64).copy()
        if self.w0.shape != (dim,):
            raise ValueError(f"w0 has shape {self.w0.shape}, the instance's models have shape {(dim,)}")
        if not np.isfinite(self.w0).all():
            raise ValueError("w0 must be finite")
        self.sampler = None
        self.noise_rngs = device_noise_streams(seed, instance.n_devices)
        self.subset_rng = substream(seed, SUBSET_SAMPLING, 0)
        self.oracle_calls = 0
        self.min_grad_sq = np.inf
        self.rounds_done = 0
        self.rows: list = []
        self.divergence = None

        self.averaged = None
        if isinstance(schedule, StronglyConvexDecay):
            self.averaged = AveragedIterate(schedule.shift, dim)

        self.state = SERVERS[algo_spec.name](algo_spec, instance.n_devices, self.w0, self.subset_rng)

    def run(self) -> RunResult:
        return Batch([self]).run()[0]

    def run_rounds(self, upto: int) -> list:
        """Advance to round ``upto`` (inclusive); returns the new rows. A
        diverging run raises its ``DivergenceError``."""
        Batch([self]).run_rounds(upto)
        if self.divergence is not None:
            raise self.divergence
        return self.rows

    def result(self) -> RunResult:
        """The run's result: the rows of its last advance, and what its
        staleness over the rounds it observed is derived from; a run that
        diverged observed the round it stopped in."""
        return RunResult(
            rounds=self.rows,
            diverged=self.divergence is not None,
            final_avg_gap=self.rows[-1].avg_gap if self.rows else None,
            final_w=self.state.w.copy(),
            model=self.model,
            seed=self.seed,
            rounds_observed=self.rounds_done + (self.divergence is not None),
        )

    # ---- lossless mid-run checkpointing -----------------------------------
    # Version 6 stores what the run cannot rebuild, each value once, with the
    # run's seed, horizon, local steps, spec and schedule, which restoring
    # checks. The round is ``rounds_done`` alone; the next advance positions
    # the sampler, whose rows and staleness are functions of (model, seed, round);
    # the averaged iterate's shift is the schedule's; the next batch rebuilds a
    # memory server's exact sum from its table. Older copies are not read:
    # the tracker, server round, subset size and averaged shift, dim and
    # rounds (versions 1-5), sampler states (1-3), mifa_delta's sum (1, 2).

    def _identity(self) -> dict:
        """What a checkpoint stores of the run's settings; tuples as lists."""
        spec, schedule = ({key: list(value) if isinstance(value, tuple) else value for key, value in vars(obj).items()}
                          for obj in (self.algo_spec, self.schedule))
        return {"spec": spec, "schedule": {"class": type(self.schedule).__name__, **schedule},
                "seed": self.seed, "horizon": self.horizon, "n_steps": self.n_steps}

    def checkpoint(self) -> dict:
        if self.divergence is not None:  # its streams and server already hold the round it stopped in
            raise ValueError(f"a run stopped by divergence cannot be checkpointed: {self.divergence}")
        return {
            "version": 6,
            "algorithm": self.algo_spec.name,
            **self._identity(),
            "rounds_done": self.rounds_done,
            "oracle_calls": self.oracle_calls,
            "min_grad_sq": self.min_grad_sq,
            "server": self.state.state_dict(),
            "noise_rngs": [generator_state(g) for g in self.noise_rngs],
            "subset_rng": generator_state(self.subset_rng),
            "averaged": self.averaged.state_dict() if self.averaged is not None else None,
        }

    def restore(self, state: dict) -> None:
        """Resume from ``checkpoint()``'s state, of any version 1 to 6. A checkpoint
        of another run, or a missing or malformed field, raises ``ValueError``
        naming the field, and the run is left as it was: every field is parsed
        into fresh objects before any is assigned. The run checks its own fields;
        the server and the averaged iterate check theirs in ``load_state_dict``."""
        try:
            version = read_int("version", state["version"], 1, 6)
            if state["algorithm"] != self.algo_spec.name:
                raise SpecError("algorithm", f"is {state['algorithm']!r}, this run's is {self.algo_spec.name!r}")
            n_devices, dim = self.instance.n_devices, self.instance.dim
            sizes = (_parsed("noise_rngs", len, state["noise_rngs"]),
                     _parsed("server.w", len, _parsed("server", itemgetter("w"), state["server"])))
            if sizes != (n_devices, dim):
                raise SpecError("noise_rngs" if sizes[0] != n_devices else "server.w",
                                f"is of another size: the checkpoint holds {sizes[0]} devices in dimension {sizes[1]}, "
                                f"this run has {n_devices} devices in dimension {dim}")
            averaged = state["averaged"]
            if (averaged is None) != (self.averaged is None):
                held, kept = ("absent", "one") if averaged is None else ("present", "none")
                raise SpecError("averaged", f"is {held}, this run's schedule keeps {kept}")
            if version >= 5:
                stored, identity = _run_fields(state), self._identity()
                if version == 5:
                    del identity["schedule"]  # version 5 holds no schedule
                for key, value in _run_fields(identity).items():
                    if not _same(stored.get(key), value):
                        raise SpecError(key, f"is {stored.get(key)!r}, this run's is {value!r}")
            rounds_done = read_int("rounds_done", state["rounds_done"], 0)
            if rounds_done > self.horizon:
                raise SpecError("rounds_done", f"is {rounds_done}, this run's horizon is {self.horizon}")
            oracle_calls = read_int("oracle_calls", state["oracle_calls"], 0, rounds_done * n_devices * self.n_steps)
            min_grad_sq = state["min_grad_sq"]
            if not ((is_int(min_grad_sq) or isinstance(min_grad_sq, float)) and min_grad_sq >= 0):
                raise SpecError("min_grad_sq", f"is {min_grad_sq!r}, expected a number >= 0 or Infinity")
            # parsed into fresh objects; the server draws its subsets from the restored generator
            noise_rngs = [_parsed(f"noise_rngs[{i}]", restore_generator, g) for i, g in enumerate(state["noise_rngs"])]
            subset_rng = _parsed("subset_rng", restore_generator, state["subset_rng"])
            restored = SERVERS[self.algo_spec.name](self.algo_spec, n_devices, self.w0, subset_rng)
            _parsed("server", restored.load_state_dict, state["server"], rounds_done)
            iterate = None if averaged is None else AveragedIterate(self.averaged.shift, dim)
            if iterate is not None:
                _parsed("averaged", iterate.load_state_dict, averaged, rounds_done)
        except KeyError as err:  # a field of the checkpoint itself; _parsed names the fields of a field
            raise ValueError(f"checkpoint {err.args[0]} is missing") from err
        except SpecError as err:
            raise ValueError(f"checkpoint {err.key} {err}") from err
        self.rounds_done, self.oracle_calls, self.min_grad_sq = rounds_done, oracle_calls, float(min_grad_sq)
        self.state, self.noise_rngs, self.subset_rng, self.averaged = restored, noise_rngs, subset_rng, iterate
        self.sampler = self.divergence = None


class Batch:
    """Runs that share an instance, a participation model, a horizon and a
    local step count, advanced round by round in lockstep.

    The runs of one seed share one participation sampler, which draws their
    equal masks and tracks their staleness. The batch
    keeps the one exact sum of its runs, R d columns wide: run k owns
    columns k d .. (k + 1) d - 1.
    A memory run's window is rebuilt from its table each time the batch
    starts to advance, and a FedAvg run's window is zeroed every round. A
    round thus draws one block, runs one K-step pass over its rows, makes
    one metric pass over the (R, d) block of models, and one ``add`` and
    one ``rounded()``. A later run whose seed, model bytes, step and
    computing ids equal an earlier run's in a round is its twin: if its
    slice of the draw block is bitwise the earlier run's, its rows are not
    computed, and it folds the earlier run's. A run that diverges stops
    alone; a run's rows, checkpoint and result equal those of the same run
    advanced alone.
    """

    def __init__(self, runners: list):
        if not runners:
            raise ValueError("a batch needs at least one run")
        first, seen = runners[0], {}
        for k, runner in enumerate(runners):
            if seen.setdefault(runner, k) != k:
                raise ValueError(f"the runs at positions {seen[runner]} and {k} are one run: a batch plays each run once")
            if (runner.instance is not first.instance or runner.model is not first.model
                    or (runner.horizon, runner.n_steps) != (first.horizon, first.n_steps)):
                raise ValueError("the runs of a batch share their instance, participation model, horizon and local steps")
        self.runners = runners
        self._live()
        self.instance, self.n_steps = first.instance, first.n_steps
        dim = self.instance.dim
        self._sum = ExactVectorSum(len(runners) * dim)
        self._column = {runner: k * dim for k, runner in enumerate(runners)}
        self._fresh = np.repeat([runner.state.fresh for runner in runners], dim)

    def _live(self) -> list:
        """The runs still going, checked to have played the same rounds. Each
        time the batch starts to advance, the runs of one seed share the first
        one's sampler if it stands at their round, else a fresh one positioned
        there: a run restored meanwhile holds none, and one advanced elsewhere moved its own."""
        live = [runner for runner in self.runners if runner.divergence is None]
        if len({runner.rounds_done for runner in live}) > 1:
            raise ValueError("the runs of a batch must have played the same rounds")
        leads = {}
        for runner in live:
            lead = leads.setdefault(runner.seed, runner)
            if lead.sampler is None or lead.sampler.round != lead.rounds_done:
                lead.sampler = ParticipationSampler(lead.model, lead.seed, lead.horizon, lead.rounds_done)
            runner.sampler = lead.sampler
        return live

    def run(self) -> list:
        """Run every run to the horizon; returns their ``RunResult``s, in order."""
        self.run_rounds(self.runners[0].horizon)
        return [runner.result() for runner in self.runners]

    def run_rounds(self, upto: int) -> None:
        """Advance every run still going to round ``upto`` (inclusive). Each
        runner's ``rows`` holds the rows of this call. A run that diverges
        keeps its ``DivergenceError`` in ``divergence`` and stops."""
        if upto > self.runners[0].horizon:
            raise ValueError(f"upto {upto} is past the horizon {self.runners[0].horizon}")
        live = self._live()
        for runner in self.runners:
            runner.rows = []
        # the memory windows, rebuilt from their tables, also after a restore
        memory = [runner for runner in live if not runner.state.fresh]
        if memory:
            self._sum.clear(~self._fresh)
            self._sum.add(
                np.concatenate([runner.state.memory for runner in memory]),
                np.repeat([self._column[runner] for runner in memory], self.instance.n_devices),
            )
        for t in range(live[0].rounds_done + 1 if live else upto + 1, upto + 1):
            live = self._round(t, live)
            if not live:
                break

    def _round(self, t: int, live: list) -> list:
        """Play round ``t`` for the runs ``live``; returns those still going."""
        inst = self.instance
        # seed -> (mask row, running mean and peak staleness)
        seeds = {}
        # (seed, model bytes, step, computing ids) -> the first run with them; run -> its earlier twin
        starts, twins = {}, {}
        models, ids, etas, rngs, averaged = [], [], [], [], []
        for k, runner in enumerate(live):
            if runner.seed not in seeds:
                seeds[runner.seed] = (runner.sampler.row(t), *runner.sampler.running(t))
            if runner.averaged is not None:
                runner.averaged.observe(t, runner.state.w)
                if inst.f_star is not None:
                    averaged.append(k)
            models.append(runner.state.w)
            run_ids = runner.state.needs(t, seeds[runner.seed][0])
            ids.append(run_ids)
            etas.append(runner.schedule.eta(t))
            rngs += map(runner.noise_rngs.__getitem__, run_ids)
            first = starts.setdefault((runner.seed, runner.state.w.tobytes(), etas[-1], run_ids.tobytes()), k)
            if first != k:
                twins[k] = first

        # the metrics of the models broadcast at the start of the round, and
        # of the averaged iterates, in one pass over their rows
        models = np.array(models)
        grads = inst.global_grad_rows(models)
        grad_sq = _row_dots(grads, grads).tolist()
        gapped = models if inst.strongly_convex and inst.f_star is not None else models[:0]
        gaps = []
        if len(gapped) or averaged:
            current = [live[k].averaged.current() for k in averaged]
            gaps = inst.suboptimality_rows(np.concatenate((gapped, current)) if current else gapped).tolist()
        f_gap = grad_sq if not inst.strongly_convex else gaps[: len(gapped)] or [None] * len(live)
        avg_gap = [None] * len(live)
        for k, gap in zip(averaged, gaps[len(gapped) :]):
            avg_gap[k] = gap

        counts = list(map(len, ids))
        draws = _draw_block(inst, rngs, self.n_steps)
        reused = {}
        if twins:  # a twin reuses its earlier twin's rows only if its draws are bitwise theirs
            offsets = np.cumsum([0] + counts)
            reused = {k: j for k, j in twins.items()
                      if np.array_equal(*(draws[offsets[i] : offsets[i + 1]].view(np.int64) for i in (k, j)))}
        computed = [0 if k in reused else count for k, count in enumerate(counts)]  # rows each run computes
        row_ids = np.concatenate(ids)
        if reused:
            keep = np.repeat(np.array(computed, dtype=bool), counts)
            row_ids, draws = row_ids[keep], draws[keep]
        # the raw draws are freed once normalised, and the noise once stepped: a batch's blocks are large
        draws = _normalised(inst, draws)
        values, finite = _k_steps(
            inst, row_ids, models.repeat(computed, axis=0), np.array(etas).repeat(computed), self.n_steps, draws
        )
        del draws
        start = np.cumsum([0] + computed)

        going, steps = [], []
        for k, (runner, run_ids, count) in enumerate(zip(live, ids, counts)):
            runner.min_grad_sq = min(runner.min_grad_sq, grad_sq[k])
            lo = start[reused.get(k, k)]
            hi = lo + count
            if not finite[lo:hi].all():
                lowest = run_ids[~finite[lo:hi]].min()
                runner.divergence = DivergenceError(f"device {lowest} produced a non-finite local iterate")
                continue
            try:
                folded = runner.state.fold(run_ids, values[lo:hi])
            except DivergenceError as err:
                runner.divergence = err
                continue
            runner.oracle_calls += self.n_steps * count
            if folded is not None:
                steps.append((runner, *folded))
            going.append(k)
        if steps:
            # each stepping run's rows go into its window; a fresh window restarts
            self._sum.clear(self._fresh)
            blocks = [rows for _, rows, _ in steps]
            columns = [self._column[runner] for runner, _, _ in steps]
            self._sum.add(np.concatenate(blocks), np.repeat(columns, list(map(len, blocks))))
            total = self._sum.rounded()
            for (runner, _, count), column in zip(steps, columns):
                runner.state.step(total[column : column + inst.dim] / count, runner.schedule)

        still = []
        for k in going:
            runner = live[k]
            if not np.isfinite(runner.state.w).all():
                runner.divergence = DivergenceError(f"server model non-finite after round {t}")
                continue
            _, tau_bar, tau_max = seeds[runner.seed]
            runner.rows.append(RoundMetrics(
                t=t, t_prime=runner.state.t_prime, f_gap=f_gap[k], avg_gap=avg_gap[k], grad_norm_sq=grad_sq[k],
                min_grad_norm_sq=runner.min_grad_sq, tau_bar=tau_bar, tau_max=tau_max, oracle_calls=runner.oracle_calls,
            ))
            runner.rounds_done = t
            still.append(runner)
        return still


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
