"""Workload configs for the ``compare`` benchmark, generated from a seed.

Each workload is one ``fedsim compare`` invocation: a strict config plus the
algorithm list. The workload seed fixes every seed the config carries (the
problem instance, the participation probabilities and the run seeds), so the
same seed always gives the same inputs.

Participation probabilities are a stratified draw from U[low, high]: one
uniform draw inside each of N equal slices, shuffled across devices. Each
device's probability is still uniform on [low, high], but the mean
participation, and with it the work per round, is the same for every seed.
"""

from __future__ import annotations

import zlib

import numpy as np

# Full horizons are long enough that per-round work outweighs the instance
# rebuild `compare` does per algorithm (on quad_many_devices the local update
# must stay the largest layer, on trig_high_dim_memory exact aggregation must
# stay above a quarter of the traced time) and short enough for several
# passes per run. The tiny shapes let the smoke test run each workload in
# seconds. Why each workload was chosen is in BENCHMARK.json.
WORKLOADS = {
    "quad_many_devices": {
        "algorithms": ["mifa", "biased_fedavg", "sampling_fedavg"],
        "full": {"n_devices": 200, "dim": 10, "horizon": 250},
        "tiny": {"n_devices": 12, "dim": 4, "horizon": 6},
    },
    "trig_high_dim_memory": {
        "algorithms": ["mifa", "mifa_delta"],
        "full": {"n_devices": 20, "dim": 200, "horizon": 200},
        "tiny": {"n_devices": 6, "dim": 8, "horizon": 6},
    },
}

RUN_SEEDS_PER_CONFIG = 2
LOCAL_STEPS = 5


def _stratified_uniform(rng: np.random.Generator, n: int, low: float, high: float) -> list:
    slots = rng.permutation(n) + rng.random(n)
    return [float(p) for p in low + (high - low) * slots / n]


def make_workload(name: str, seed: int, tiny: bool = False) -> tuple[dict, list]:
    """Return (config, algorithms) for workload ``name`` and workload ``seed``."""
    spec = WORKLOADS[name]
    size = spec["tiny" if tiny else "full"]
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), zlib.crc32(name.encode())]))
    problem_seed = int(rng.integers(2**31))
    run_seeds = [int(s) for s in rng.integers(2**31, size=RUN_SEEDS_PER_CONFIG)]
    n = size["n_devices"]
    run = {"horizon": size["horizon"], "local_steps": LOCAL_STEPS, "seeds": run_seeds}

    if name == "quad_many_devices":
        problem = {
            "family": "quadratic", "n_devices": n, "dim": size["dim"], "mu": 1.0,
            "smoothness": 10.0, "sigma": 1.0, "heterogeneity": 2.0, "seed": problem_seed,
        }
        probs = _stratified_uniform(rng, n, 0.05, 0.5)
        algorithm = {"name": "mifa", "subset_size": max(1, n // 10)}
        schedule = {"variant": "strongly_convex"}
    else:
        problem = {
            "family": "trig", "n_devices": n, "dim": size["dim"], "curvature": 1.0,
            "amplitude": 0.5, "sigma": 0.5, "heterogeneity": 2.0, "seed": problem_seed,
        }
        probs = _stratified_uniform(rng, n, 0.2, 1.0)
        algorithm = {"name": "mifa"}
        schedule = {"variant": "nonconvex_constant", "staleness_cap_mean": "measure"}

    cfg = {
        "problem": problem,
        "availability": {"variant": "bernoulli", "probs": probs},
        "algorithm": algorithm,
        "schedule": schedule,
        "run": run,
    }
    return cfg, list(spec["algorithms"])
