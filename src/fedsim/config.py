"""Experiment configuration: a strict nested JSON document.

Sections mirror the library layout (problem / availability / algorithm /
schedule / run). Unknown keys are errors so a typo can never silently
corrupt an experiment. A config plus a seed fully determines a run.
"""

from __future__ import annotations

import json
import os

import numpy as np

from . import availability as av
from . import problems, schedules
from .algorithms import SERVERS, SpecError


class ConfigError(ValueError):
    def __init__(self, key: str, message: str):
        self.key = key
        super().__init__(f"config key '{key}': {message}")


_SECTIONS = {"problem", "availability", "algorithm", "schedule", "run"}

_PROBLEM_KEYS = {
    "quadratic": {"family", "n_devices", "dim", "mu", "smoothness", "sigma", "heterogeneity", "seed"},
    "logistic": {"family", "n_devices", "dim", "samples_per_device", "l2", "label_skew", "seed"},
    "trig": {"family", "n_devices", "dim", "curvature", "amplitude", "sigma", "heterogeneity", "seed"},
    "quadratic_clusters": {
        "family",
        "n_devices",
        "dim",
        "mu",
        "sigma",
        "cluster_centers",
        "seed",
    },
}

_AVAILABILITY_KEYS = {
    "full": {"variant"},
    "bernoulli": {"variant", "probs", "uniform", "label_correlated"},
    "periodic": {"variant", "periods", "phases"},
    "adversarial_linear": {"variant", "offset", "slope_divisor"},
    "trace_replay": {"variant", "path"},
}

# optional keys are tolerated for every algorithm so one config can be
# reused across `compare --algorithms ...`
_ALGORITHM_KEYS = {"name", "subset_size", "normalization", "probs"}

_SCHEDULE_KEYS = {
    "strongly_convex": {"variant", "delay_offset"},
    "nonconvex_constant": {"variant", "staleness_cap_mean", "scale"},
    "inverse_decay": {"variant", "eta0"},
}

_RUN_KEYS = {"horizon", "local_steps", "seeds", "out"}


def _require(section: dict, section_name: str, key: str):
    if key not in section:
        raise ConfigError(f"{section_name}.{key}", "missing required key")
    return section[key]


def _check_keys(section: dict, section_name: str, allowed: set):
    for key in section:
        if key not in allowed:
            raise ConfigError(f"{section_name}.{key}", "unknown key")


def validate_config(cfg: dict) -> dict:
    """Structural validation; returns the config unchanged on success."""
    if not isinstance(cfg, dict):
        raise ConfigError("<root>", "config must be a JSON object")
    for key in cfg:
        if key not in _SECTIONS:
            raise ConfigError(key, "unknown section")
    for section in _SECTIONS:
        if section not in cfg:
            raise ConfigError(section, "missing required section")
        if not isinstance(cfg[section], dict):
            raise ConfigError(section, "section must be an object")

    prob = cfg["problem"]
    family = _require(prob, "problem", "family")
    if family not in _PROBLEM_KEYS:
        raise ConfigError("problem.family", f"unknown family {family!r}")
    _check_keys(prob, "problem", _PROBLEM_KEYS[family])
    for key in _PROBLEM_KEYS[family] - {"family"}:
        _require(prob, "problem", key)

    avail = cfg["availability"]
    variant = _require(avail, "availability", "variant")
    if variant not in _AVAILABILITY_KEYS:
        raise ConfigError("availability.variant", f"unknown variant {variant!r}")
    _check_keys(avail, "availability", _AVAILABILITY_KEYS[variant])
    if variant == "bernoulli":
        given = [k for k in ("probs", "uniform", "label_correlated") if k in avail]
        if len(given) != 1:
            raise ConfigError(
                "availability.probs",
                "bernoulli needs exactly one of probs | uniform | label_correlated",
            )

    algo = cfg["algorithm"]
    name = _require(algo, "algorithm", "name")
    if name not in SERVERS:
        raise ConfigError("algorithm.name", f"unknown algorithm {name!r}")
    _check_keys(algo, "algorithm", _ALGORITHM_KEYS)

    sched = cfg["schedule"]
    variant = _require(sched, "schedule", "variant")
    if variant not in _SCHEDULE_KEYS:
        raise ConfigError("schedule.variant", f"unknown variant {variant!r}")
    _check_keys(sched, "schedule", _SCHEDULE_KEYS[variant])

    run = cfg["run"]
    _check_keys(run, "run", _RUN_KEYS)
    for key in ("horizon", "local_steps", "seeds"):
        _require(run, "run", key)
    if not isinstance(run["seeds"], list) or not run["seeds"]:
        raise ConfigError("run.seeds", "must be a non-empty list of integers")
    if int(run["horizon"]) < 2:
        raise ConfigError("run.horizon", "must be >= 2")
    if int(run["local_steps"]) < 1:
        raise ConfigError("run.local_steps", "must be >= 1")
    return cfg


def load_config(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            cfg = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError("<root>", f"invalid JSON: {exc}") from None
    return validate_config(cfg)


def dump_config(cfg: dict) -> str:
    return json.dumps(cfg, indent=2, sort_keys=True)


def label_correlated_probabilities(n_devices: int, label_pairs, p_min: float):
    """Participation probability from a device's two held label ids (j, k):
    p = p_min * min(j, k) / 9 + (1 - p_min). Rejects any degenerate p = 0."""
    if not 0.0 < p_min <= 1.0:
        raise ValueError("p_min must lie in (0, 1]")
    if len(label_pairs) != n_devices:
        raise ValueError("need one (j, k) label pair per device")
    probs = np.empty(n_devices)
    for i, (j, k) in enumerate(label_pairs):
        if not (0 <= j <= 9 and 0 <= k <= 9):
            raise ValueError("label ids must lie in 0..9")
        probs[i] = p_min * min(j, k) / 9.0 + (1.0 - p_min)
        if probs[i] <= 0.0:
            raise ValueError(f"device {i} would get participation probability 0")
    return probs


def build_instance(cfg: dict) -> problems.ProblemInstance:
    prob = cfg["problem"]
    family = prob["family"]
    if family == "quadratic":
        return problems.make_quadratic_instance(
            int(prob["n_devices"]),
            int(prob["dim"]),
            float(prob["mu"]),
            float(prob["smoothness"]),
            float(prob["sigma"]),
            float(prob["heterogeneity"]),
            int(prob["seed"]),
        )
    if family == "logistic":
        return problems.make_logistic_instance(
            int(prob["n_devices"]),
            int(prob["dim"]),
            int(prob["samples_per_device"]),
            float(prob["l2"]),
            float(prob["label_skew"]),
            int(prob["seed"]),
        )
    if family == "trig":
        return problems.make_nonconvex_instance(
            int(prob["n_devices"]),
            int(prob["dim"]),
            float(prob["curvature"]),
            float(prob["amplitude"]),
            float(prob["sigma"]),
            float(prob["heterogeneity"]),
            int(prob["seed"]),
        )
    # identical-curvature devices split across explicit cluster centers
    n = int(prob["n_devices"])
    dim = int(prob["dim"])
    centers = np.asarray(prob["cluster_centers"], dtype=np.float64)
    if centers.ndim != 2 or centers.shape[1] != dim:
        raise ConfigError("problem.cluster_centers", "expected shape (n_clusters, dim)")
    assignment = np.array([centers[i % len(centers)] for i in range(n)])
    hessians = np.array([np.eye(dim) * float(prob["mu"]) for _ in range(n)])
    return problems.quadratic_instance_from_arrays(
        hessians, assignment, float(prob["sigma"]), seed=int(prob["seed"])
    )


def build_model(cfg: dict, instance, base_dir: str = ".") -> av.ParticipationModel:
    avail = cfg["availability"]
    n = instance.n_devices
    variant = avail["variant"]
    if variant == "full":
        return av.FullParticipation(n)
    if variant == "bernoulli":
        if "probs" in avail:
            probs = np.asarray(avail["probs"], dtype=np.float64)
        elif "uniform" in avail:
            spec = avail["uniform"]
            rng = np.random.default_rng(np.random.SeedSequence([int(spec["seed"]), 0x9B0B]))
            probs = rng.uniform(float(spec["low"]), float(spec["high"]), size=n)
        else:
            spec = avail["label_correlated"]
            probs = label_correlated_probabilities(n, spec["labels"], float(spec["p_min"]))
        if len(probs) != n:
            raise ConfigError("availability.probs", f"need {n} probabilities")
        return av.BernoulliParticipation(probs)
    if variant == "periodic":
        for key in ("periods", "phases"):
            if np.shape(_require(avail, "availability", key)) != (n,):
                raise ConfigError(f"availability.{key}", f"need {n} {key}")
        return av.PeriodicParticipation(avail["periods"], avail["phases"])
    if variant == "adversarial_linear":
        return av.AdversarialLinearParticipation(n, float(avail["offset"]), float(avail["slope_divisor"]))
    n_trace, rounds = av.read_trace(os.path.join(base_dir, avail["path"]))
    if n_trace != n:
        raise ConfigError("availability.path", f"trace has {n_trace} devices, instance has {n}")
    return av.TraceReplay(n_trace, rounds)


def measured_staleness_cap_mean(model, horizon: int, seed: int) -> float:
    """Mean per-device staleness peak of the realized trace for this seed."""
    sampler = model.sampler(seed)
    tracker = av.StalenessTracker(model.n_devices)
    for t in range(1, horizon + 1):
        tracker.update(sampler.active_set(t))
    if horizon < 2:
        return 0.0
    return tracker.stats().device_peak_mean


def build_schedule(cfg: dict, instance, model, seed: int) -> schedules.LrSchedule:
    sched = cfg["schedule"]
    run = cfg["run"]
    variant = sched["variant"]
    if variant == "strongly_convex":
        if instance.constants.strong_convexity <= 0:
            raise ConfigError("schedule.variant", "strongly_convex schedule needs mu > 0")
        return schedules.StronglyConvexDecay(
            mu=instance.constants.strong_convexity,
            smoothness=instance.constants.smoothness,
            local_steps=int(run["local_steps"]),
            delay_offset=float(sched.get("delay_offset", 0.0)),
        )
    if variant == "nonconvex_constant":
        cap = _require(sched, "schedule", "staleness_cap_mean")
        if cap == "measure":
            cap = measured_staleness_cap_mean(model, int(run["horizon"]), seed)
        return schedules.NonConvexConstant(
            n_devices=instance.n_devices,
            local_steps=int(run["local_steps"]),
            horizon=int(run["horizon"]),
            smoothness=instance.constants.smoothness,
            staleness_cap_mean=float(cap),
            scale=float(sched.get("scale", 1.0)),
        )
    return schedules.InverseDecay(eta0=float(_require(sched, "schedule", "eta0")))


def build_algo_spec(cfg: dict, model, name: str | None = None):
    """The spec of algorithm ``name`` (default ``algorithm.name``), built by
    its server's ``from_config``."""
    name = name or cfg["algorithm"]["name"]
    if name not in SERVERS:
        raise ConfigError("algorithm.name", f"unknown algorithm {name!r}")
    try:
        return SERVERS[name].from_config(cfg["algorithm"], model)
    except KeyError as exc:
        raise ConfigError(f"algorithm.{exc.args[0]}", f"missing required key for {name}") from None
    except SpecError as exc:
        raise ConfigError(f"algorithm.{exc.key}", str(exc)) from None
