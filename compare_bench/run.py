"""End-to-end benchmark of ``fedsim compare``, run from the repository root:

    python3 compare_bench/run.py --workload quad_many_devices --seed 1 --seconds 30 --trace 0

One operation is one in-process ``fedsim.compare_experiment`` pass: it
builds the instance for each algorithm, runs every (algorithm, seed) and
writes the per-seed CSV, aggregate CSV and ``_meta.json`` of each algorithm.
Passes repeat for about ``--seconds`` (at least three), and every pass's
files are read back and checked.

``--trace 0`` reports the end-to-end metrics: medians over passes of the
wall time and device-updates per second, the median cold set-up time of
seven fresh processes taken between passes, the process's peak RSS, and
the share of (algorithm, seed) runs that passed every check. ``--trace 1``
alternates untraced passes with passes traced by ``tracing.install`` and
reports per-layer self times and counts, the medians over traced passes.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The lines before it
list the environment and every metric with its unit; spans of the last
traced pass and the result go to ``.compare_bench_out/`` in the checkout.
"""

from __future__ import annotations

import os

# Single-threaded BLAS, fixed before numpy is first imported, so that
# passes do not compete for the two cores with BLAS worker threads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np
import tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".compare_bench_out"
REFERENCES = BENCH_DIR / "references.json"
with open(ROOT / "BENCHMARK.json", encoding="utf-8") as _fh:
    _SPEC = json.load(_fh)
UNITS = {m["name"]: m["unit"] for m in _SPEC["end_to_end"] + _SPEC["per_layer"]}

MIN_PASSES = 3
# Cold set-up times of one config vary by about 20% between processes.
SETUP_REPEATS = 7
# Relative tolerance of each final-row value against its reference. A
# summation-order change moves the floats by about 1e-16 relative; a 0.1%
# change to the local step moves them by about 1e-6. Counts must be exact.
REFERENCE_TOL = {"t_prime": 0.0, "oracle_calls": 0.0, "f_gap": 1e-9, "grad_norm_sq": 1e-9}
CSV_HEADER = "seed,t,t_prime,f_gap,avg_gap,grad_norm_sq,min_grad_norm_sq,tau_bar,tau_max,oracle_calls"


class CheckoutError(RuntimeError):
    """The directory this script runs in holds no fedsim sources."""


def load_fedsim():
    """Import fedsim from this checkout's ``src/``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "fedsim" / "__init__.py").is_file():
        raise CheckoutError(f"no fedsim sources under {src}")
    sys.path.insert(0, str(src))
    import fedsim

    if Path(fedsim.__file__).resolve().parent != (src / "fedsim").resolve():
        raise CheckoutError(f"imported fedsim from {fedsim.__file__}, not from {src}")
    return fedsim


def environment(fedsim) -> dict:
    """Information recorded next to each result; never a gated metric."""
    commit = "unknown"
    if (ROOT / ".git").exists():
        probe = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
        if probe.returncode == 0:
            commit = probe.stdout.strip()
    src_lines = 0
    for path in sorted((ROOT / "src").rglob("*")):
        if path.suffix in (".py", ".pyx"):
            with open(path, "rb") as fh:
                src_lines += sum(1 for _ in fh)
    return {
        "commit": commit,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "fedsim_backend": fedsim.BACKEND,
        "src_python_lines": src_lines,
    }


def cold_setup_s(workload: str, seed: int, tiny: bool) -> float:
    """Cold set-up time in a fresh process (see setup_probe.py)."""
    cmd = [sys.executable, str(BENCH_DIR / "setup_probe.py"), "--workload", workload, "--seed", str(seed)]
    if tiny:
        cmd.append("--tiny")
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=50)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    return float(proc.stdout.strip().splitlines()[-1])


def read_outputs(prefix: Path, algorithms) -> dict:
    """Per algorithm: {seed: per-seed CSV lines}, aggregate lines, meta dict."""
    outputs = {}
    for algo in algorithms:
        with open(f"{prefix}_{algo}.csv", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        if not lines or lines[0] != CSV_HEADER:
            raise ValueError(f"{algo}: unexpected CSV header")
        per_seed: dict = {}
        for line in lines[1:]:
            per_seed.setdefault(int(line.split(",", 1)[0]), []).append(line)
        with open(f"{prefix}_{algo}_aggregate.csv", encoding="utf-8") as fh:
            aggregate = fh.read().splitlines()
        with open(f"{prefix}_{algo}_meta.json", encoding="utf-8") as fh:
            meta = json.load(fh)
        outputs[algo] = {"per_seed": per_seed, "aggregate": aggregate, "meta": meta}
    return outputs


def final_row(lines: list) -> dict:
    cells = lines[-1].split(",")
    return {
        "t": int(cells[1]),
        "t_prime": int(cells[2]),
        "f_gap": float(cells[3]),
        "grad_norm_sq": float(cells[5]),
        "oracle_calls": int(cells[9]),
    }


def final_values(outputs, cfg) -> dict:
    """The reference entry of one pass: algorithm -> run seed -> final row."""
    return {
        algo: {
            str(seed): {k: v for k, v in final_row(out["per_seed"][seed]).items() if k != "t"}
            for seed in cfg["run"]["seeds"]
        }
        for algo, out in outputs.items()
    }


def check_outputs(outputs, cfg, reference, baseline) -> tuple[dict, int, float]:
    """Check one pass's files.

    Returns ({(algorithm, seed): [failure reasons]}, device-updates, share of
    wall-rounds that produced a global update). ``reference`` maps algorithm
    -> seed -> final-row values, or is None for seeds without stored values;
    ``baseline`` is an earlier pass's outputs that this pass must equal.
    """
    horizon = cfg["run"]["horizon"]
    steps = cfg["run"]["local_steps"]
    failures: dict = {}
    device_updates = 0
    rounds = useful = 0
    for algo, out in outputs.items():
        aggregate_ok = len(out["aggregate"]) == horizon + 1 and all(
            line.endswith(",0") for line in out["aggregate"][1:]
        )
        for seed in cfg["run"]["seeds"]:
            reasons = []
            lines = out["per_seed"].get(seed, [])
            if len(lines) != horizon:
                failures[(algo, seed)] = [f"{len(lines)} rows, expected {horizon}"]
                continue
            row = final_row(lines)
            device_updates += row["oracle_calls"] // steps
            rounds += row["t"]
            useful += row["t_prime"]
            if seed in out["meta"].get("diverged_seeds", []):
                reasons.append("diverged")
            if not aggregate_ok:
                reasons.append("aggregate CSV has wrong rows or a partial flag")
            if not all(math.isfinite(row[k]) for k in ("f_gap", "grad_norm_sq")):
                reasons.append("non-finite final metrics")
            if reference is not None:
                ref = reference.get(algo, {}).get(str(seed), {})
                for key, rel_tol in REFERENCE_TOL.items():
                    if key not in ref:
                        reasons.append(f"no reference {key} stored")
                    elif not math.isclose(row[key], ref[key], rel_tol=rel_tol, abs_tol=0.0):
                        reasons.append(f"{key} {row[key]!r} != reference {ref[key]!r}")
            if baseline is not None and lines != baseline[algo]["per_seed"].get(seed):
                reasons.append("CSV rows differ from the first untraced pass")
            if algo == "mifa_delta" and "mifa" in outputs and lines != outputs["mifa"]["per_seed"].get(seed):
                reasons.append("mifa_delta CSV rows differ from mifa")
            if reasons:
                failures[(algo, seed)] = reasons
    return failures, device_updates, (useful / rounds if rounds else 0.0)


class Bench:
    """One workload at one workload seed, measured pass by pass."""

    def __init__(self, fedsim, workload: str, seed: int, tiny: bool):
        self.fedsim = fedsim
        self.workload = workload
        self.seed = seed
        self.tiny = tiny
        self.cfg, self.algorithms = workloads.make_workload(workload, seed, tiny=tiny)
        references = {}
        if not tiny and REFERENCES.is_file():
            with open(REFERENCES, encoding="utf-8") as fh:
                references = json.load(fh)
        self.reference = references.get(workload, {}).get(str(seed))
        self.work = OUT_DIR / f"work_{workload}_{seed}_{os.getpid()}"
        self.attempted = 0
        self.failed = 0
        self.baseline = None
        self.failure_log: list = []
        self.pass_log: list = []  # (traced, wall seconds) of every pass, in order

    def run_pass(self, tracer=None) -> tuple[float, int, float] | None:
        """One compare pass plus its checks; returns (wall seconds,
        device-updates, useful-round share), or None when the pass raised."""
        runs = len(self.algorithms) * len(self.cfg["run"]["seeds"])
        self.attempted += runs
        if self.work.exists():
            shutil.rmtree(self.work)
        self.work.mkdir(parents=True)
        prefix = self.work / "compare"
        try:
            if tracer is None:
                start = time.perf_counter()
                self.fedsim.compare_experiment(self.cfg, self.algorithms, out=str(prefix))
                wall = time.perf_counter() - start
            else:
                with tracing.install(tracer, self.fedsim):
                    start = time.perf_counter()
                    tracer.call(
                        "experiment.compare",
                        self.fedsim.compare_experiment,
                        (self.cfg, self.algorithms),
                        {"out": str(prefix)},
                    )
                    wall = time.perf_counter() - start
            outputs = read_outputs(prefix, self.algorithms)
        except Exception:
            # a raising pass counts every one of its runs as failed
            self.failed += runs
            self.failure_log.append(traceback.format_exc())
            return None
        finally:
            shutil.rmtree(self.work, ignore_errors=True)
        failures, device_updates, useful_frac = check_outputs(
            outputs, self.cfg, self.reference, self.baseline
        )
        if self.baseline is None and tracer is None:
            self.baseline = outputs
        self.pass_log.append((tracer is not None, wall))
        self.failed += len(failures)
        for (algo, seed), reasons in sorted(failures.items()):
            self.failure_log.append(f"{algo} seed {seed}: {'; '.join(reasons)}")
        return wall, device_updates, useful_frac

    def end_to_end(self, seconds: float) -> dict:
        # Set-up probes and passes take turns and share the ``seconds``:
        # another turn starts only while more than half of one fits into the
        # time left after the probes still to come.
        start = time.perf_counter()
        walls, rates, setups = [], [], []
        probe_s = 0.0
        passes = 0
        while True:
            turn_start = time.perf_counter()
            if len(setups) < SETUP_REPEATS:
                setups.append(cold_setup_s(self.workload, self.seed, self.tiny))
                probe_s = time.perf_counter() - turn_start
            passes += 1
            result = self.run_pass()
            if result is not None:
                wall, device_updates, _ = result
                walls.append(wall)
                rates.append(device_updates / wall)
            turn_s = time.perf_counter() - turn_start
            left = seconds - (time.perf_counter() - start) - (SETUP_REPEATS - len(setups)) * probe_s
            if passes >= MIN_PASSES and left < 0.5 * turn_s:
                break
        if not walls:
            raise RuntimeError("every pass raised")
        while len(setups) < SETUP_REPEATS:
            setups.append(cold_setup_s(self.workload, self.seed, self.tiny))
        return {
            "wall_s": statistics.median(walls),
            "updates_per_s": statistics.median(rates),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_frac": (self.attempted - self.failed) / self.attempted,
        }

    def per_layer(self, seconds: float) -> tuple[dict, tracing.Tracer]:
        # The first pass is the baseline every traced pass's CSVs must equal;
        # it pays first-call costs, so it is left out of the overhead ratio.
        start = time.perf_counter()
        self.run_pass()
        untraced, traced, layer_runs = [], [], []
        tracer = None
        # like end_to_end, a pass starts only while more than half of one fits
        while not traced or not untraced or seconds - (time.perf_counter() - start) > 0.5 * max(traced):
            candidate = tracing.Tracer() if len(traced) <= len(untraced) else None
            result = self.run_pass(candidate)
            if result is None:
                if len(self.failure_log) > 20:
                    raise RuntimeError("passes keep raising")
                continue
            wall, device_updates, useful_frac = result
            if candidate is None:
                untraced.append(wall)
                continue
            tracer = candidate
            metrics = tracing.layer_metrics(tracer)
            if metrics["algorithms.device_updates"] != device_updates:
                self.failure_log.append(
                    f"trace counted {metrics['algorithms.device_updates']} device-updates, "
                    f"CSV says {device_updates}"
                )
                self.failed += 1
            metrics["algorithms.useful_round_frac"] = useful_frac
            metrics["trace.spans"] = len(tracer.spans)
            traced.append(wall)
            layer_runs.append(metrics)
        out = {name: statistics.median(run[name] for run in layer_runs) for name in layer_runs[0]}
        out["trace.wall_s"] = statistics.median(traced)
        out["trace.untraced_wall_s"] = statistics.median(untraced)
        out["trace.overhead_frac"] = out["trace.wall_s"] / out["trace.untraced_wall_s"] - 1.0
        return out, tracer


def layer_shares(metrics: dict) -> list:
    """Lines giving each layer's self time as a share of traced wall time."""
    total = metrics["trace.wall_s"]
    lines = []
    for layer in sorted(tracing.LAYERS, key=lambda l: -metrics[f"{l}.self_s"]):
        lines.append(f"  {layer:<12} {metrics[f'{layer}.self_s']:10.4f} s  {100 * metrics[f'{layer}.self_s'] / total:5.1f}%")
    local = (
        metrics["algorithms.local_update_self_s"] + metrics["kernels.self_s"] + metrics["problems.noise_s"]
    )
    lines.append(f"  local update (algorithms.local_update + kernels + problems.noise): {100 * local / total:.1f}%")
    for name in ("problems.metrics_s", "problems.build_s"):
        lines.append(f"  {name}: {100 * metrics[name] / total:.1f}%")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="shrink the workload for a smoke test")
    args = parser.parse_args(argv)

    try:
        fedsim = load_fedsim()
    except CheckoutError as exc:
        print(f"compare_bench: {exc}", file=sys.stderr)
        return 2

    OUT_DIR.mkdir(exist_ok=True)
    bench = Bench(fedsim, args.workload, args.seed, args.tiny)
    env = environment(fedsim)
    env.update(workload=args.workload, seed=args.seed, tiny=args.tiny,
               reference_checked=bench.reference is not None)
    print("environment " + json.dumps(env, sort_keys=True))

    tag = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    if args.trace:
        values, tracer = bench.per_layer(args.seconds)
        tracer.write(str(OUT_DIR / f"spans_{tag}.csv"))
        print("layer self time, share of traced wall:")
        print("\n".join(layer_shares(values)))
    else:
        values = bench.end_to_end(args.seconds)
    for line in bench.failure_log:
        print(f"FAILED {line}", file=sys.stderr)

    metrics = {name: {"value": value, "unit": UNITS[name]} for name, value in sorted(values.items())}
    for name, metric in metrics.items():
        print(f"{name} {metric['value']!r} {metric['unit']}")
    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }
    with open(OUT_DIR / f"result_{tag}.json", "w", encoding="utf-8") as fh:
        json.dump({"environment": env, "passes": bench.pass_log, **result}, fh, indent=2, sort_keys=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
