"""Experiment configuration: a strict nested JSON document.

Sections mirror the library layout (problem / availability / algorithm /
schedule / run). ``SCHEMA`` gives every key's type, range and default once
and drives both ``validate_config`` and the ``build_*`` functions, so every
malformed value, missing key or unknown key is a ``ConfigError`` naming it."""

from __future__ import annotations

import json
import os
import sys

import numpy as np

from . import availability as av
from . import problems, schedules
from .algorithms import SERVERS


class ConfigError(ValueError):
    def __init__(self, key: str, message: str):
        self.key = key
        super().__init__(f"config key '{key}': {message}")


REQUIRED = object()  # the default of a key the config must give


class Key:
    """A JSON ``int`` (integers only), ``float`` (any finite number, read as a
    float) or ``str``, never a bool, with numbers in ``interval``. Values in
    ``choices`` pass as they are, and are the only strings that pass when
    given. ``shape`` nests the value in non-empty lists, one length per level:
    an int, ``"n"`` for one entry per device, or ``None`` for any length."""

    def __init__(self, kind, interval="(-inf, inf)", choices=(), shape=(), default=REQUIRED):
        self.kind, self.interval, self.choices, self.shape, self.default = kind, interval, choices, shape, default
        self.lo, self.hi = (float(bound) for bound in interval[1:-1].split(","))

    def parse(self, value, path, n, level=0):
        if level < len(self.shape):
            length = n if self.shape[level] == "n" else self.shape[level]
            if not isinstance(value, list) or not value or length not in (None, len(value)):
                raise ConfigError(path, f"expected a list of {length or 'one or more'} entries, got {value!r}")
            return [self.parse(entry, path, n, level + 1) for entry in value]
        if isinstance(value, str) and (value in self.choices or self.kind is str and not self.choices):
            return value
        if (self.kind is str or type(value) not in (int, self.kind)
                or self.kind is float and not abs(value) <= sys.float_info.max):
            wanted = [repr(choice) for choice in self.choices]
            if self.kind is not str or not wanted:
                wanted.insert(0, {int: "an integer", float: "a finite number", str: "a string"}[self.kind])
            raise ConfigError(path, f"expected {' or '.join(wanted)}, got {value!r}")
        value = self.kind(value)
        above = self.lo < value if self.interval[0] == "(" else self.lo <= value
        below = value < self.hi if self.interval[-1] == ")" else value <= self.hi
        if not (above and below):
            raise ConfigError(path, f"must lie in {self.interval}, got {value!r}")
        return value


class Obj:
    """A JSON object holding only the keys of its table, whose named checks
    ``(key, holds, message)`` relate the parsed keys. A tagged object's
    ``tag`` key instead picks one of its ``variants``, an ``Obj`` that names
    its ``builder`` and the ``context`` values the builder takes first."""

    def __init__(self, keys=None, checks=(), builder=None, context=(), tag=None, variants=None, default=REQUIRED):
        self.keys, self.checks, self.builder, self.context = keys, checks, builder, context
        self.tag, self.variants, self.default = tag, variants, default

    def parse(self, value, path, n):
        """The parsed keys with their defaults filled in; ``value`` is not changed."""
        if not isinstance(value, dict):
            raise ConfigError(path or "<root>", f"expected an object, got {value!r}")
        prefix = f"{path}." if path else ""
        if self.tag:
            variant = Key(str, choices=tuple(self.variants)).parse(value.get(self.tag), prefix + self.tag, n)
            rest = {key: v for key, v in value.items() if key != self.tag}
            return {self.tag: variant, **self.variants[variant].parse(rest, path, n)}
        unknown = value.keys() - self.keys.keys()
        if unknown:
            raise ConfigError(prefix + min(unknown), "unknown key")
        parsed = {}
        for key, spec in self.keys.items():
            if key in value:
                parsed[key] = spec.parse(value[key], prefix + key, n)
            elif spec.default is REQUIRED:
                raise ConfigError(prefix + key, "missing required key")
            elif spec.default is not None:
                parsed[key] = spec.default
        for key, holds, message in self.checks:
            if not holds(parsed):
                raise ConfigError(prefix + key, message)
        return parsed


_COUNT = Key(int, "[1, inf)")
_SEED = Key(int, "[0, inf)")
_POSITIVE = Key(float, "(0, inf)")
_NONNEGATIVE = Key(float, "[0, inf)")
_PROBABILITY = Key(float, "(0, 1]")

SCHEMA = Obj({
    "problem": Obj(tag="family", variants={
        "quadratic": Obj(
            {"n_devices": _COUNT, "dim": _COUNT, "mu": _POSITIVE, "smoothness": _POSITIVE,
             "sigma": _NONNEGATIVE, "heterogeneity": _NONNEGATIVE, "seed": _SEED},
            checks=[("smoothness", lambda k: k["smoothness"] >= k["mu"], "must be >= mu")],
            builder="problems.make_quadratic_instance"),
        "logistic": Obj(
            {"n_devices": _COUNT, "dim": _COUNT, "samples_per_device": _COUNT, "l2": _POSITIVE,
             "label_skew": Key(float, "[0, 1]"), "seed": _SEED},
            builder="problems.make_logistic_instance"),
        "trig": Obj(
            {"n_devices": _COUNT, "dim": _COUNT, "curvature": _POSITIVE, "amplitude": _NONNEGATIVE,
             "sigma": _NONNEGATIVE, "heterogeneity": _NONNEGATIVE, "seed": _SEED},
            checks=[("amplitude", lambda k: k["amplitude"] <= k["curvature"], "must be <= curvature")],
            builder="problems.make_nonconvex_instance"),
        "quadratic_clusters": Obj(
            {"n_devices": _COUNT, "dim": _COUNT, "mu": _POSITIVE, "sigma": _NONNEGATIVE,
             "cluster_centers": Key(float, shape=[None, None]), "seed": _SEED},
            checks=[("cluster_centers", lambda k: {len(c) for c in k["cluster_centers"]} == {k["dim"]},
                     "every center needs dim coordinates")],
            builder="_clustered_quadratic"),
    }),
    # per-device lists ("n") are checked against the instance's device count when it is known
    "availability": Obj(tag="variant", variants={
        "full": Obj({}, builder="av.FullParticipation", context=["n_devices"]),
        "bernoulli": Obj(
            {"probs": Key(float, "(0, 1]", shape=["n"], default=None),
             "uniform": Obj({"low": _PROBABILITY, "high": _PROBABILITY, "seed": _SEED}, default=None,
                            checks=[("low", lambda k: k["low"] <= k["high"], "must be <= high")]),
             # p = p_min * min(j, k) / 9 + (1 - p_min) is 0 exactly when p_min = 1 and min(j, k) = 0
             "label_correlated": Obj(
                 {"labels": Key(int, "[0, 9]", shape=["n", 2]), "p_min": _PROBABILITY}, default=None,
                 checks=[("labels", lambda k: k["p_min"] < 1 or min(map(min, k["labels"])) > 0,
                          "with p_min = 1 a label 0 gives participation probability 0")])},
            checks=[("probs", lambda k: len(k.keys() & {"probs", "uniform", "label_correlated"}) == 1,
                     "bernoulli needs exactly one of probs | uniform | label_correlated")],
            builder="_bernoulli", context=["n_devices"]),
        # bounded so that every entry fits an int64 array
        "periodic": Obj({"periods": Key(int, "[1, 1e18]", shape=["n"]),
                         "phases": Key(int, "[-1e18, 1e18]", shape=["n"])}, builder="av.PeriodicParticipation"),
        "adversarial_linear": Obj({"offset": _NONNEGATIVE, "slope_divisor": Key(float, "(1, inf)")},
                                  builder="av.AdversarialLinearParticipation", context=["n_devices"]),
        "trace_replay": Obj({"path": Key(str)}, builder="_trace_replay", context=["n_devices", "base_dir"]),
    }),
    # every algorithm tolerates the optional keys, so one config serves `compare --algorithms ...`
    "algorithm": Obj({
        "name": Key(str, choices=tuple(SERVERS)),
        "subset_size": Key(int, "[1, inf)", default=None),
        "normalization": Key(str, choices=("active_count", "total_count"), default="active_count"),
        "probs": Key(float, "(0, 1]", shape=["n"], default=None)}),
    "schedule": Obj(tag="variant", variants={
        "strongly_convex": Obj({"delay_offset": Key(float, "[0, inf)", default=0.0)},
                               builder="_strongly_convex", context=["instance", "run"]),
        "nonconvex_constant": Obj({"staleness_cap_mean": Key(float, "[0, inf)", choices=("measure",)),
                                   "scale": Key(float, "(0, 1]", default=1.0)},
                                  builder="_nonconvex_constant", context=["instance", "model", "seed", "run"]),
        "inverse_decay": Obj({"eta0": _POSITIVE}, builder="schedules.InverseDecay"),
    }),
    "run": Obj({"horizon": Key(int, "[2, inf)"), "local_steps": _COUNT,
                "seeds": Key(int, "[0, inf)", shape=[None]), "out": Key(str, default=None)}),
})


def _section(cfg: dict, name: str, n_devices: int | None = None) -> dict:
    """Section ``name`` parsed, its per-device lists checked against ``n_devices`` when given."""
    return SCHEMA.keys[name].parse(cfg.get(name), name, n_devices)


def _build(cfg: dict, name: str, **context):
    """Call the builder of section ``name``'s variant with the ``context`` values it names and
    the parsed keys, looked up now, not at import, so a patched module attribute takes effect."""
    keys = _section(cfg, name, context.get("n_devices"))
    section = SCHEMA.keys[name]
    variant = section.variants[keys.pop(section.tag)]
    module, _, function = variant.builder.rpartition(".")
    builder = getattr(globals()[module], function) if module else globals()[function]
    try:
        return builder(*(context[c] for c in variant.context), **keys)
    except problems.SpecError as exc:
        raise ConfigError(f"{name}.{exc.key}", str(exc)) from None


def validate_config(cfg: dict) -> dict:
    """Check ``cfg`` against ``SCHEMA``; returns it unchanged (defaults are never written in)."""
    SCHEMA.parse(cfg, "", None)
    return cfg


def load_config(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            cfg = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError("<root>", f"invalid JSON: {exc}") from None
    return validate_config(cfg)


def label_correlated_probabilities(n_devices: int, label_pairs, p_min: float):
    """Participation probability from a device's two held label ids (j, k):
    p = p_min * min(j, k) / 9 + (1 - p_min). Rejects any degenerate p = 0."""
    pairs = np.asarray(label_pairs)
    if not 0.0 < p_min <= 1.0 or pairs.shape != (n_devices, 2) or np.any((pairs < 0) | (pairs > 9)):
        raise ValueError("need p_min in (0, 1] and one (j, k) pair of label ids in 0..9 per device")
    probs = p_min * pairs.min(axis=1) / 9.0 + (1.0 - p_min)
    if np.any(probs <= 0.0):
        raise ValueError(f"device {np.argmin(probs)} would get participation probability 0")
    return probs


def build_instance(cfg: dict) -> problems.ProblemInstance:
    return _build(cfg, "problem")


def _clustered_quadratic(n_devices, dim, mu, sigma, cluster_centers, seed):
    # identical-curvature devices split across explicit cluster centers
    centers = np.asarray(cluster_centers, dtype=np.float64)
    assignment = np.array([centers[i % len(centers)] for i in range(n_devices)])
    hessians = np.array([np.eye(dim) * mu for _ in range(n_devices)])
    return problems.quadratic_instance_from_arrays(hessians, assignment, sigma, seed=seed)


def build_model(cfg: dict, instance, base_dir: str = ".") -> av.ParticipationModel:
    return _build(cfg, "availability", n_devices=instance.n_devices, base_dir=base_dir)


def _bernoulli(n, probs=None, uniform=None, label_correlated=None):
    if uniform is not None:
        rng = np.random.default_rng(np.random.SeedSequence([uniform["seed"], 0x9B0B]))
        probs = rng.uniform(uniform["low"], uniform["high"], size=n)
    elif label_correlated is not None:
        probs = label_correlated_probabilities(n, label_correlated["labels"], label_correlated["p_min"])
    return av.BernoulliParticipation(probs)


def _trace_replay(n, base_dir, path):
    # the trace file's own faults (unreadable, a malformed line, its device count) name its key
    try:
        n_trace, rounds = av.read_trace(os.path.join(base_dir, path))
        if n_trace != n:
            raise ValueError(f"trace has {n_trace} devices, instance has {n}")
        return av.TraceReplay(n_trace, rounds)
    except (OSError, ValueError) as exc:
        raise ConfigError("availability.path", str(exc)) from None


def measured_staleness_cap_mean(model, horizon: int, seed: int) -> float:
    """Mean per-device staleness peak of the realized trace for this seed."""
    return av.realized_staleness(model, seed, horizon).device_peak_mean if horizon >= 2 else 0.0


def build_schedule(cfg: dict, instance, model, seed: int) -> schedules.LrSchedule:
    return _build(cfg, "schedule", instance=instance, model=model, seed=seed, run=_section(cfg, "run"))


def _strongly_convex(instance, run, delay_offset):
    c = instance.constants
    if c.strong_convexity <= 0:
        raise ConfigError("schedule.variant", "strongly_convex schedule needs mu > 0")
    try:
        return schedules.StronglyConvexDecay(c.strong_convexity, c.smoothness, run["local_steps"], delay_offset)
    except problems.SpecError as exc:
        if exc.key != "mu":
            raise
        # mu is the problem's: its own key, or the logistic l2 weight
        raise ConfigError("problem.l2" if instance.kind == "logistic" else "problem.mu", str(exc)) from None


def _nonconvex_constant(instance, model, seed, run, staleness_cap_mean, scale):
    if staleness_cap_mean == "measure":
        staleness_cap_mean = measured_staleness_cap_mean(model, run["horizon"], seed)
    n, smoothness = instance.n_devices, instance.constants.smoothness
    return schedules.NonConvexConstant(n, run["local_steps"], run["horizon"], smoothness, staleness_cap_mean, scale)


def build_algo_spec(cfg: dict, model, name: str | None = None):
    """The spec of algorithm ``name`` (default ``algorithm.name``), built by
    its server's ``from_config`` from the parsed ``algorithm`` section."""
    algo = _section(cfg, "algorithm", model.n_devices)
    name = SCHEMA.keys["algorithm"].keys["name"].parse(name or algo["name"], "algorithm.name", None)
    try:
        return SERVERS[name].from_config(algo, model)
    except KeyError as exc:
        raise ConfigError(f"algorithm.{exc.args[0]}", f"missing required key for {name}") from None
    except problems.SpecError as exc:
        raise ConfigError(f"algorithm.{exc.key}", str(exc)) from None
