"""Experiment orchestration: multi-seed runs, CSV emission, aggregation,
rate-slope fitting, and the waiting-time / staleness Monte Carlo studies.

Every CSV is written by ``_csv``: a header row, then one line per record,
with ints as digits, floats with 17 significant digits, an unavailable value
as an empty field, and LF line ends. The per-seed file has a ``seed`` column
followed by the fields of ``RoundMetrics``. The aggregate file keys rows by
wall-round and adds _mean/_stderr suffixed columns for every later field
plus a ``partial`` flag set when any seed diverged.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from dataclasses import dataclass, fields

import numpy as np

from . import availability as av
from .algorithms import Batch, Runner
from .config import (
    build_algo_spec,
    build_instance,
    build_model,
    build_schedule,
    validate_config,
)
from .records import RoundMetrics, RunResult
from .schedules import StronglyConvexDecay
from ._kernels import BACKEND

_ROUND_COLUMNS = tuple(f.name for f in fields(RoundMetrics))
_METRIC_COLUMNS = _ROUND_COLUMNS[1:]


def _fmt(value) -> str:
    if value is None:
        return ""
    if type(value) is float:  # most fields; checked first, as every CSV cell passes here
        return format(value, ".17g")
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def _csv(header, rows) -> str:
    """The CSV text of ``header`` (column names) and ``rows`` (value sequences)."""
    lines = [",".join(header)]
    lines += [",".join(map(_fmt, row)) for row in rows]
    return "\n".join(lines) + "\n"


def _atomic_write(path: str, text: str) -> None:
    # partial results never overwrite complete outputs
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(path: str, records: list) -> None:
    """Write ``records``, dicts with the same keys, as a CSV under a header of those keys."""
    _atomic_write(path, _csv(records[0], (record.values() for record in records)))


def rows_to_csv(per_seed: dict) -> str:
    # a frozen dataclass's __dict__ holds its fields in declaration order
    rows = ((seed, *vars(row).values()) for seed in sorted(per_seed) for row in per_seed[seed].rounds)
    return _csv(("seed", *_ROUND_COLUMNS), rows)


def aggregate_to_csv(per_seed: dict) -> str:
    header = ["t", *(f"{col}_{stat}" for col in _METRIC_COLUMNS for stat in ("mean", "stderr")), "partial"]
    results = [per_seed[seed] for seed in sorted(per_seed)]
    partial = int(any(res.diverged for res in results))
    n_rounds = min(len(res.rounds) for res in results)
    # one (round, column) cell per row of seeds, contiguous along the last
    # axis, so each cell reduces in the order of a 1-D call on its values
    values = np.empty((n_rounds, len(_METRIC_COLUMNS), len(results)))
    missing = np.zeros((n_rounds, len(_METRIC_COLUMNS)), dtype=bool)
    for c, col in enumerate(_METRIC_COLUMNS):
        for s, res in enumerate(results):
            column = [getattr(row, col) for row in res.rounds[:n_rounds]]
            missing[:, c] |= np.array([v is None for v in column], dtype=bool)
            values[:, c, s] = np.array(column, dtype=np.float64)  # None reads as nan
    means = values.mean(axis=-1)
    if len(results) < 2:
        stderrs = np.zeros_like(means)
    else:
        stderrs = values.std(axis=-1, ddof=1) / math.sqrt(len(results))
    # (mean, stderr) pairs as Python floats, both None where a seed lacks the value
    cells = np.stack([means, stderrs], axis=-1).astype(object)
    cells[missing] = None
    rows = zip(results[0].rounds, cells.reshape(n_rounds, 2 * len(_METRIC_COLUMNS)).tolist())
    return _csv(header, ((row.t, *pairs, partial) for row, pairs in rows))


@dataclass
class ExperimentResult:
    per_seed: dict           # seed -> RunResult
    csv_path: str | None
    aggregate_path: str | None
    meta_path: str | None


def run_experiment(
    cfg: dict,
    out: str | None = None,
    seeds=None,
    base_dir: str = ".",
) -> ExperimentResult:
    """Run every seed of a config independently and write CSV outputs.

    ``out`` overrides run.out; ``seeds`` overrides run.seeds. Omitting all
    output paths keeps results in memory only.
    """
    validate_config(cfg)
    instance = build_instance(cfg)
    model = build_model(cfg, instance, base_dir=base_dir)
    algo_spec = build_algo_spec(cfg, model)
    out = out if out is not None else cfg["run"].get("out")
    seeds = seeds if seeds is not None else cfg["run"]["seeds"]
    return _run_algorithms(cfg, instance, model, [(algo_spec, out)], seeds)[algo_spec.name]


def _run_algorithms(cfg: dict, instance, model, runs: list, seeds) -> dict:
    """Run each (spec, output path base) of ``runs`` for every seed on a
    built instance and participation model, and write the spec's per-seed,
    aggregate and meta files under its path base (none when it is empty).

    Each seed's schedule and the horizon conditions are computed once and
    shared by every spec, and every (spec, seed) run advances in one
    ``Batch``. Returns {algorithm: ExperimentResult}.
    """
    run_cfg = cfg["run"]
    horizon = run_cfg["horizon"]
    n_steps = run_cfg["local_steps"]
    seeds = [int(s) for s in seeds]
    schedules = {seed: build_schedule(cfg, instance, model, seed) for seed in seeds}
    schedule_echo = _schedule_echo(schedules[seeds[0]], horizon)
    conditions = None
    if any(out for _, out in runs):
        conditions = _horizon_conditions(cfg, instance, model, horizon, n_steps, seeds[0])

    # the runners, and the streams they hold, are freed before any file is written
    run_results = iter(Batch([
        Runner(algo_spec, instance, model, schedules[seed], horizon, n_steps, seed)
        for algo_spec, _ in runs
        for seed in seeds
    ]).run())
    results = {}
    for algo_spec, out in runs:
        per_seed: dict[int, RunResult] = {seed: next(run_results) for seed in seeds}
        csv_path = aggregate_path = meta_path = None
        if out:
            csv_path = f"{out}.csv"
            aggregate_path = f"{out}_aggregate.csv"
            meta_path = f"{out}_meta.json"
            _atomic_write(csv_path, rows_to_csv(per_seed))
            _atomic_write(aggregate_path, aggregate_to_csv(per_seed))
            meta = {
                "config": cfg,
                "algorithm": algo_spec.name,
                "seeds": seeds,
                "backend": BACKEND,
                "schedule": schedule_echo,
                "diverged_seeds": [s for s, res in per_seed.items() if res.diverged],
                "horizon_conditions": conditions,
            }
            _atomic_write(meta_path, json.dumps(meta, indent=2, sort_keys=True) + "\n")
        results[algo_spec.name] = ExperimentResult(per_seed, csv_path, aggregate_path, meta_path)
    return results


def _schedule_echo(schedule, horizon: int) -> dict:
    echo = {"variant": type(schedule).__name__, "eta_1": schedule.eta(1), "eta_T": schedule.eta(horizon)}
    if isinstance(schedule, StronglyConvexDecay):
        echo["shift"] = schedule.shift
    return echo


def _horizon_conditions(cfg, instance, model, horizon, n_steps, seed) -> dict | None:
    """Record (without enforcing) the minimum-horizon conditions attached to
    the non-convex constant-step guarantee."""
    if cfg["schedule"]["variant"] != "nonconvex_constant":
        return None
    c = instance.constants
    n = instance.n_devices
    peak = av.realized_staleness(model, seed, horizon).peak
    lhs = float(horizon)
    return {
        "T >= 32 alpha L N K": lhs >= 32.0 * c.alpha * c.smoothness * n * n_steps,
        "T >= 16 L N K": lhs >= 16.0 * c.smoothness * n * n_steps,
        "T >= 8 K N peak^2 (L^2 + rho delta) / L": lhs
        >= 8.0
        * n_steps
        * n
        * peak**2
        * (c.smoothness**2 + c.hessian_lipschitz * c.noise_bound)
        / c.smoothness,
        "measured_staleness_peak": peak,
    }


def compare_experiment(cfg: dict, algorithms, out: str | None = None, base_dir: str = ".") -> dict:
    """Run several algorithms on identical availability streams.

    Every algorithm sees the same realized active sets per seed because
    participation draws depend only on (seed, device), never the algorithm.
    The instance, participation model, schedules and every algorithm's spec
    are built once, before any run writes a file, and shared, since no run
    writes to them. Returns {algorithm: ExperimentResult}; CSVs are written
    per algorithm as <out>_<algorithm>.csv, where ``out`` overrides run.out.
    An algorithm listed twice raises ``ValueError``.
    """
    algorithms = list(algorithms)
    repeated = [name for k, name in enumerate(algorithms) if name in algorithms[:k]]
    if repeated:
        raise ValueError(f"algorithm {repeated[0]} is listed twice: compare plays each algorithm once")
    validate_config(cfg)
    out = out if out is not None else cfg["run"].get("out")
    instance = build_instance(cfg)
    model = build_model(cfg, instance, base_dir=base_dir)
    runs = [(build_algo_spec(cfg, model, name=name), f"{out}_{name}" if out else None) for name in algorithms]
    return _run_algorithms(cfg, instance, model, runs, cfg["run"]["seeds"])


def fit_rate_slope(stream, window) -> float:
    """Least-squares slope of log(value) against log(t) inside the window.

    ``stream`` is an iterable of (t, value) pairs; the window is an
    inclusive [t_lo, t_hi] interval. Requires at least 10 points, all with
    positive values.
    """
    t_lo, t_hi = window
    points = [(t, v) for t, v in stream if t_lo <= t <= t_hi]
    if len(points) < 10:
        raise ValueError(f"need at least 10 points in the window, found {len(points)}")
    ts = np.array([p[0] for p in points], dtype=np.float64)
    vs = np.array([p[1] for p in points], dtype=np.float64)
    if np.any(vs <= 0.0):
        raise ValueError("values must be positive within the window")
    slope, _ = np.polyfit(np.log(ts), np.log(vs), 1)
    return float(slope)


def waiting_time_study(n_devices: int, subset_size: int, probs, trials: int, seed: int) -> dict:
    """Monte Carlo wall-rounds per global update for subset-sampling
    aggregation, against the lower bound (S/N) / p_min.

    A window's wait is the number of rounds until every selected device has
    been active at least once, with device i active each round independently
    with probability p_i (so per-device waits are geometric).
    """
    probs = np.asarray(probs, dtype=np.float64)
    if len(probs) != n_devices:
        raise ValueError("need one probability per device")
    if np.any(probs <= 0.0) or np.any(probs > 1.0):
        raise ValueError("each probability must lie in (0, 1]")
    if not 1 <= subset_size <= n_devices:
        raise ValueError("subset size must lie in [1, n_devices]")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0x3A17]))
    waits = np.empty(trials)
    for trial in range(trials):
        chosen = rng.choice(n_devices, size=subset_size, replace=False)
        waits[trial] = rng.geometric(probs[chosen]).max()
    mean_wait = float(waits.mean())
    stderr = 0.0 if trials < 2 else float(waits.std(ddof=1) / math.sqrt(trials))
    lower = (subset_size / n_devices) / float(probs.min())
    return {"mean_wait": mean_wait, "stderr": stderr, "lower_bound": lower}


def staleness_study(probs, horizon: int, n_traces: int, delta: float, seed: int) -> dict:
    """Monte Carlo check of the independent-participation staleness bounds.

    Simulates ``n_traces`` traces, comparing each realized staleness peak
    against the high-probability bound and the realized average staleness
    against its leading shape factor mean_i 1/p_i.
    """
    probs = np.asarray(probs, dtype=np.float64)
    model = av.BernoulliParticipation(probs)
    bounds = av.bernoulli_staleness_bounds(probs, horizon, delta)
    rows = []
    for trace_id in range(n_traces):
        stats = av.realized_staleness(model, seed + trace_id, horizon)
        rows.append(
            {
                "trace": trace_id,
                "tau_max": stats.peak,
                "tau_bar": stats.avg,
                "tau_max_bound": bounds.peak_bound,
                "tau_bar_shape": bounds.avg_shape,
            }
        )
    peak_cover = float(np.mean([r["tau_max"] <= r["tau_max_bound"] for r in rows]))
    avg_ratio = float(np.mean([r["tau_bar"] / r["tau_bar_shape"] for r in rows]))
    return {
        "rows": rows,
        "peak_bound_coverage": peak_cover,
        "avg_to_shape_ratio": avg_ratio,
        "peak_bound": bounds.peak_bound,
        "avg_shape": bounds.avg_shape,
    }
