"""Span recorder for the traced ``compare`` pass, installed from outside fedsim.

Every wrapped function is patched where its caller looks it up: a module
that did ``from .exact import exact_mean`` holds its own reference, so the
patch goes on ``fedsim.algorithms.exact_mean``, not ``fedsim.exact``. Methods
are patched on their class, which every caller shares. ``install`` undoes
every patch on exit, so untraced passes run the unmodified program.

A span is (name, start, end, parent index); the layer is the name's first
dotted component, named after the fedsim module that owns the function.
Self time is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import defaultdict

LAYERS = (
    "algorithms", "kernels", "problems", "exact", "availability",
    "config", "schedules", "experiment", "rng",
)
ALGORITHMS = ("mifa", "mifa_delta", "biased_fedavg", "sampling_fedavg")


class Tracer:
    """Spans and counters kept in memory until the pass ends."""

    def __init__(self):
        self.spans: list = []
        self.counters: dict = defaultdict(float)
        self._stack: list = []

    def call(self, name, fn, args, kwargs):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent)

    def self_times(self) -> tuple[dict, dict]:
        """Per span name: (summed self seconds, call count)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: dict = defaultdict(float)
        calls: dict = defaultdict(int)
        for index, (name, start, end, _) in enumerate(self.spans):
            self_s[name] += (end - start) - child[index]
            calls[name] += 1
        return self_s, calls

    def inclusive(self, span_name: str) -> float:
        """Summed duration of the spans called ``span_name``, children included."""
        return sum(end - start for name, start, end, _ in self.spans if name == span_name)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,name,start_s,end_s,parent\n")
            for index, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{index},{name},{start!r},{end!r},{parent}\n")


def _wrap(tracer, name, fn, count=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        result = tracer.call(name, fn, args, kwargs)
        if count is not None:
            count(tracer.counters, args, result)
        return result

    return traced


def _count_kernel(kind):
    # Operation and byte counts are computed from argument shapes, not
    # measured: per step the quadratic kernel does a d x d matvec (2d^2)
    # plus 5d vector flops; the trig kernel does 9d, counting sin as one.
    # Bytes: every input array read once and both outputs written once.
    def count(counters, args, result):
        w0, n_steps, noise = args[-4], args[-2], args[-1]
        d = w0.shape[0]
        if kind == "quad":
            hessian = args[0]
            flops = n_steps * (2 * d * d + 5 * d)
            nbytes = hessian.nbytes + d * 8
        else:
            flops = n_steps * 9 * d
            nbytes = d * 8
        counters["kernels.flops_computed"] += flops
        counters["kernels.bytes_computed"] += nbytes + w0.nbytes + noise.nbytes + 2 * d * 8

    return count


def _count_active(counters, args, result):
    sampler = args[0]
    counters["availability.active_members"] += len(result.members)
    counters["availability.active_slots"] += sampler.n_devices


def _count_bytes(counters, args, result):
    counters["experiment.bytes_written"] += len(args[1].encode("utf-8"))


def _traced_run(tracer, fn):
    @functools.wraps(fn)
    def traced(self):
        return tracer.call(f"algorithms.run.{self.algo_spec.name}", fn, (self,), {})

    return traced


@contextlib.contextmanager
def install(tracer: Tracer, fedsim):
    """Patch every traced lookup site of the imported ``fedsim`` package."""
    alg = fedsim.algorithms
    exp = fedsim.experiment
    av = fedsim.availability
    patches = [
        (exp, "run_experiment", "experiment.run_experiment", None),
        (exp, "rows_to_csv", "experiment.csv", None),
        (exp, "aggregate_to_csv", "experiment.csv", None),
        (exp, "_atomic_write", "experiment.write", _count_bytes),
        (exp, "_horizon_conditions", "experiment.horizon_conditions", None),
        (exp, "validate_config", "config.validate", None),
        (exp, "build_instance", "config.build_instance", None),
        (exp, "build_model", "config.build_model", None),
        (exp, "build_algo_spec", "config.build_algo_spec", None),
        (exp, "build_schedule", "config.build_schedule", None),
        (fedsim.config, "measured_staleness_cap_mean", "config.measured_staleness", None),
        (fedsim.problems, "make_quadratic_instance", "problems.build", None),
        (fedsim.problems, "make_nonconvex_instance", "problems.build", None),
        (fedsim.problems, "quadratic_instance_from_arrays", "problems.build", None),
        (fedsim.problems.ProblemInstance, "suboptimality", "problems.metrics", None),
        (fedsim.problems.ProblemInstance, "global_grad", "problems.metrics", None),
        (alg, "sphere_noise", "problems.noise", None),
        (alg, "local_update", "algorithms.local_update", None),
        (alg.Runner, "__init__", "algorithms.runner_init", None),
        (fedsim._kernels, "quad_local_sgd", "kernels.local_sgd", _count_kernel("quad")),
        (fedsim._kernels, "trig_local_sgd", "kernels.local_sgd", _count_kernel("trig")),
        (alg, "exact_mean", "exact.mean", None),
        (alg, "two_diff", "exact.two_diff", None),
        (alg.ExactVectorSum, "add", "exact.vecsum_add", None),
        (alg.ExactVectorSum, "rounded", "exact.rounded", None),
        (alg, "device_noise_streams", "rng.device_noise_streams", None),
        (alg, "substream", "rng.substream", None),
        (fedsim.rng, "substream", "rng.substream", None),
        (av.StalenessTracker, "update", "availability.staleness_update", None),
        (fedsim.schedules.AveragedIterate, "observe", "schedules.averaged_observe", None),
    ]
    patches += [
        (cls, "active_set", "availability.active_set", _count_active)
        for cls in av.ParticipationSampler.__subclasses__()
        if "active_set" in vars(cls)
    ]
    saved = []
    try:
        for owner, attr, name, count in patches:
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, _wrap(tracer, name, original, count))
        original = vars(alg.Runner)["run"]
        saved.append((alg.Runner, "run", original))
        alg.Runner.run = _traced_run(tracer, original)
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metric values of one traced pass, keyed by metric name."""
    self_s, calls = tracer.self_times()  # defaultdicts: an absent span reads 0
    c = tracer.counters

    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(v for k, v in self_s.items() if k.split(".", 1)[0] == layer)
    out.update({
        "algorithms.local_update_self_s": self_s["algorithms.local_update"],
        "algorithms.device_updates": calls["algorithms.local_update"],
        "kernels.local_sgd_s": self_s["kernels.local_sgd"],
        "kernels.calls": calls["kernels.local_sgd"],
        "kernels.flops_computed": c["kernels.flops_computed"],
        "kernels.bytes_computed": c["kernels.bytes_computed"],
        "problems.noise_s": self_s["problems.noise"],
        "problems.noise_calls": calls["problems.noise"],
        "problems.metrics_s": self_s["problems.metrics"],
        "problems.metric_calls": calls["problems.metrics"],
        "problems.build_s": self_s["problems.build"],
        "exact.mean_s": self_s["exact.mean"],
        "exact.mean_calls": calls["exact.mean"],
        "exact.vecsum_add_s": self_s["exact.vecsum_add"],
        "exact.vecsum_add_calls": calls["exact.vecsum_add"],
        "exact.rounded_s": self_s["exact.rounded"],
        "availability.active_set_s": self_s["availability.active_set"],
        "availability.active_frac": (
            c["availability.active_members"] / c["availability.active_slots"]
            if c["availability.active_slots"] else 0.0
        ),
        "availability.staleness_update_s": self_s["availability.staleness_update"],
        "config.build_instance_s": tracer.inclusive("config.build_instance"),
        "config.build_instance_calls": calls["config.build_instance"],
        "schedules.averaged_observe_s": self_s["schedules.averaged_observe"],
        "experiment.csv_s": self_s["experiment.csv"],
        "experiment.write_s": self_s["experiment.write"],
        "experiment.bytes_written": c["experiment.bytes_written"],
        "rng.substream_s": self_s["rng.substream"],
        "rng.substream_calls": calls["rng.substream"],
    })
    for algo in ALGORITHMS:
        out[f"algorithms.run_s.{algo}"] = tracer.inclusive(f"algorithms.run.{algo}")
    return out
