"""Byte-for-byte pins on the outputs of small ``compare`` runs.

``tests/data/golden_digests.json`` holds the sha256 digest of every CSV and
``_meta.json`` file that ``compare_experiment`` writes for all five
algorithms under each participation model and on each problem family
(quadratic, trig and logistic), and of the CSVs that the ``tau-study`` and
``wait-study`` commands write. A seed fixes every output byte,
so a change that moves any digest changes a result.

``tests/data/golden_instances.json`` pins the instance builds the same way:
one digest per instance over the bytes of its optimum, every constant, its
stacked arrays and its aggregates. To record the digests of the current code,
run ``PYTHONPATH=src python tests/test_golden.py``.

The bytes depend on the host's numeric kernels as well: OpenBLAS picks a
kernel for the CPU, and numpy its SIMD loops. ``tests/data/golden_fingerprint.json``
records those of the host the digests were recorded on, and a test whose
digests moved prints both fingerprints, so a moved digest says whether the
kernels changed too. The test fails either way.
"""

import ctypes
import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

try:
    from numpy._core import _multiarray_umath
except ImportError:  # numpy 1.x
    from numpy.core import _multiarray_umath

import fedsim
from fedsim import cli
from fedsim.availability import write_trace

DIGESTS = Path(__file__).parent / "data" / "golden_digests.json"
INSTANCE_DIGESTS = Path(__file__).parent / "data" / "golden_instances.json"
FINGERPRINT = Path(__file__).parent / "data" / "golden_fingerprint.json"
ALGORITHMS = ["mifa", "mifa_delta", "biased_fedavg", "is_fedavg", "sampling_fedavg"]
N, HORIZON = 5, 40

QUADRATIC = {"family": "quadratic", "n_devices": N, "dim": 3, "mu": 1.0, "smoothness": 4.0,
             "sigma": 0.5, "heterogeneity": 1.0, "seed": 11}
TRIG = {"family": "trig", "n_devices": N, "dim": 3, "curvature": 1.0, "amplitude": 0.5,
        "sigma": 0.3, "heterogeneity": 1.0, "seed": 12}
LOGISTIC = {"family": "logistic", "n_devices": N, "dim": 3, "samples_per_device": 8, "l2": 1.0,
            "label_skew": 0.6, "seed": 13}
MEASURED = {"variant": "nonconvex_constant", "staleness_cap_mean": "measure"}

CASES = {
    "full": (QUADRATIC, {"variant": "full"}, {"variant": "strongly_convex", "delay_offset": 1.0}),
    "bernoulli": (QUADRATIC, {"variant": "bernoulli", "probs": [0.9, 0.6, 0.4, 0.25, 0.15]},
                  {"variant": "strongly_convex"}),
    "periodic": (TRIG, {"variant": "periodic", "periods": [1, 2, 3, 5, 7], "phases": [0, 1, 2, 0, 4]}, MEASURED),
    "adversarial": (TRIG, {"variant": "adversarial_linear", "offset": 1.5, "slope_divisor": 4.0}, MEASURED),
    "logistic": (LOGISTIC, {"variant": "bernoulli", "probs": [0.9, 0.7, 0.5, 0.3, 0.2]},
                 {"variant": "strongly_convex"}),
    "trace_replay": (QUADRATIC, {"variant": "trace_replay", "path": "trace.txt"},
                     {"variant": "inverse_decay", "eta0": 0.05}),
}

# the two benchmark shapes, the dim-1 quadratic's endpoint alternation and
# the logistic problem of the compare cases above
INSTANCES = {
    "quadratic_200x10": {"family": "quadratic", "n_devices": 200, "dim": 10, "mu": 1.0, "smoothness": 10.0,
                         "sigma": 1.0, "heterogeneity": 2.0, "seed": 21},
    "trig_20x200": {"family": "trig", "n_devices": 20, "dim": 200, "curvature": 1.0, "amplitude": 0.5,
                    "sigma": 0.5, "heterogeneity": 2.0, "seed": 22},
    "quadratic_7x1": {"family": "quadratic", "n_devices": 7, "dim": 1, "mu": 0.5, "smoothness": 3.0,
                      "sigma": 0.0, "heterogeneity": 1.5, "seed": 23},
    "logistic": LOGISTIC,
}


def instance_digest(inst) -> str:
    """sha256 over the bytes of every field that a build computes, by name."""
    c = inst.constants
    fields = {"w_star": inst.w_star, "f_star": inst.f_star,
              **{f"constants.{k}": v for k, v in vars(c).items()},
              **{f"stacked.{k}": v for k, v in inst.stacked.items()},
              **{f"aggregates.{k}": v for k, v in inst.aggregates.items()}}
    h = hashlib.sha256()
    for name in sorted(fields):
        value = fields[name]
        h.update(name.encode())
        h.update(b"None" if value is None else np.ascontiguousarray(value, dtype=np.float64).tobytes())
    return h.hexdigest()


def instance_digests() -> dict:
    return {name: instance_digest(fedsim.build_instance({"problem": problem}))
            for name, problem in INSTANCES.items()}


def golden_digests(directory: Path) -> dict:
    """Run every case under ``directory``; returns {file name: sha256}."""
    # the trace ends exactly at the horizon, with one empty round
    rounds = [range(N)] + [[i for i in range(N) if (t + i) % (i + 2) == 0] for t in range(2, HORIZON + 1)]
    rounds[9] = []
    write_trace(directory / "trace.txt", N, rounds)
    digests = {}
    for case, (problem, availability, schedule) in CASES.items():
        cfg = {
            "problem": problem,
            "availability": availability,
            "algorithm": {"name": "mifa", "subset_size": 2, "probs": [0.8, 0.6, 0.5, 0.4, 0.3]},
            "schedule": schedule,
            "run": {"horizon": HORIZON, "local_steps": 2, "seeds": [1, 2]},
        }
        fedsim.compare_experiment(cfg, ALGORITHMS, out=str(directory / case), base_dir=str(directory))
        for algo in ALGORITHMS:
            for suffix in (".csv", "_aggregate.csv", "_meta.json"):
                name = f"{case}_{algo}{suffix}"
                digests[name] = hashlib.sha256((directory / name).read_bytes()).hexdigest()
    # the study commands, each keyed by its --out path base; tau-study runs on the bernoulli case
    problem, availability, schedule = CASES["bernoulli"]
    study_cfg = {"problem": problem, "availability": availability, "algorithm": {"name": "mifa"},
                 "schedule": schedule, "run": {"horizon": HORIZON, "local_steps": 2, "seeds": [1]}}
    (directory / "study.json").write_text(json.dumps(study_cfg))
    studies = {
        "tau_study": ["tau-study", str(directory / "study.json"), "--traces", "20", "--delta", "0.05", "--seed", "4"],
        "wait_study": ["wait-study", "--devices", "5", "--subset-size", "3", "--p", "0.9,0.6,0.4,0.25,0.15",
                       "--trials", "200", "--seed", "5"],
    }
    for study, argv in studies.items():
        assert cli.main([*argv, "--out", str(directory / study)]) == 0
        name = f"{study}.csv"
        digests[name] = hashlib.sha256((directory / name).read_bytes()).hexdigest()
    return digests


def openblas_core() -> str | None:
    """The kernel OpenBLAS picked for this CPU, from the library that numpy
    ships in ``numpy.libs``; None for a numpy without it."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas64_*.so*")):
        corename = ctypes.CDLL(str(path)).scipy_openblas_get_corename64_
        corename.restype, corename.argtypes = ctypes.c_char_p, []
        return corename().decode()
    return None


def fingerprint() -> dict:
    """What the bytes depend on besides the code: the numpy version, the SIMD
    targets its loops were built for and those this process enables, and
    the OpenBLAS kernel."""
    dispatch = _multiarray_umath.__cpu_dispatch__
    return {
        "numpy": np.__version__,
        "cpu_dispatch": list(dispatch),
        "cpu_dispatch_enabled": [t for t in dispatch if _multiarray_umath.__cpu_features__.get(t)],
        "openblas_core": openblas_core(),
    }


def assert_digests_match(kind, expected, got):
    assert sorted(got) == sorted(expected)
    changed = [name for name in expected if got[name] != expected[name]]
    if changed:
        recorded, current = json.loads(FINGERPRINT.read_text()), fingerprint()
        kernels = "the same" if recorded == current else "different"
        raise AssertionError(f"{kind} bytes changed: {changed}\nkernels are {kernels}: recorded "
                             f"{json.dumps(recorded, sort_keys=True)}, current {json.dumps(current, sort_keys=True)}")


def test_compare_outputs_match_golden_digests(tmp_path):
    assert_digests_match("output", json.loads(DIGESTS.read_text()), golden_digests(tmp_path))


def test_instance_builds_match_golden_digests():
    assert_digests_match("instance", json.loads(INSTANCE_DIGESTS.read_text()), instance_digests())


def test_a_moved_digest_names_both_fingerprints():
    recorded = json.loads(FINGERPRINT.read_text())
    assert set(recorded) == set(fingerprint())
    with pytest.raises(AssertionError, match=r"instance bytes changed: \['logistic'\]\nkernels are .*recorded .*current "):
        assert_digests_match("instance", {"logistic": "0" * 64}, {"logistic": "1" * 64})


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        DIGESTS.write_text(json.dumps(golden_digests(Path(tmp)), indent=1, sort_keys=True) + "\n")
    INSTANCE_DIGESTS.write_text(json.dumps(instance_digests(), indent=1, sort_keys=True) + "\n")
    FINGERPRINT.write_text(json.dumps(fingerprint(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {DIGESTS}, {INSTANCE_DIGESTS} and {FINGERPRINT}", file=sys.stderr)
