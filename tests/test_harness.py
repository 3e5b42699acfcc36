import contextlib
import importlib.util
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fedsim
import fedsim.cli
from fedsim.config import ConfigError, label_correlated_probabilities, validate_config
from fedsim.experiment import (
    fit_rate_slope,
    run_experiment,
    staleness_study,
    waiting_time_study,
)


def base_config(**overrides):
    cfg = {
        "problem": {
            "family": "quadratic",
            "n_devices": 4,
            "dim": 3,
            "mu": 1.0,
            "smoothness": 4.0,
            "sigma": 0.5,
            "heterogeneity": 1.0,
            "seed": 3,
        },
        "availability": {"variant": "bernoulli", "uniform": {"low": 0.4, "high": 1.0, "seed": 9}},
        "algorithm": {"name": "mifa"},
        "schedule": {"variant": "strongly_convex", "delay_offset": 0.0},
        "run": {"horizon": 25, "local_steps": 2, "seeds": [1, 2, 3]},
    }
    cfg.update(overrides)
    return cfg


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------


def test_unknown_keys_are_rejected_with_their_path():
    cfg = base_config()
    cfg["problem"]["heterogeneityy"] = 1.0
    with pytest.raises(ConfigError) as err:
        validate_config(cfg)
    assert "problem.heterogeneityy" in str(err.value)


def test_missing_sections_and_keys_are_named():
    cfg = base_config()
    del cfg["schedule"]
    with pytest.raises(ConfigError) as err:
        validate_config(cfg)
    assert "schedule" in str(err.value)
    cfg = base_config()
    del cfg["run"]["horizon"]
    with pytest.raises(ConfigError) as err:
        validate_config(cfg)
    assert "run.horizon" in str(err.value)


def test_bernoulli_needs_exactly_one_probability_source():
    cfg = base_config()
    cfg["availability"]["probs"] = [0.5, 0.5, 0.5, 0.5]
    with pytest.raises(ConfigError):
        validate_config(cfg)


def test_label_correlated_probability_formula():
    probs = label_correlated_probabilities(2, [(0, 1), (9, 9)], p_min=0.1)
    assert probs[0] == pytest.approx(0.9)
    assert probs[1] == pytest.approx(1.0)


def test_label_correlated_rejects_degenerate_probability():
    with pytest.raises(ValueError):
        label_correlated_probabilities(1, [(0, 1)], p_min=1.0)


# ---------------------------------------------------------------------------
# run_experiment / aggregation
# ---------------------------------------------------------------------------


def aggregate_per_cell(per_seed):
    """The aggregate CSV with one 1-D mean and std call per (round, column) cell."""
    from fedsim.experiment import _METRIC_COLUMNS, _fmt

    header = ["t"] + [f"{col}_{stat}" for col in _METRIC_COLUMNS for stat in ("mean", "stderr")] + ["partial"]
    lines = [",".join(header)]
    results = [per_seed[seed] for seed in sorted(per_seed)]
    partial = any(res.diverged for res in results)
    for idx in range(min(len(res.rounds) for res in results)):
        cells = [str(results[0].rounds[idx].t)]
        for col in _METRIC_COLUMNS:
            values = [getattr(res.rounds[idx], col) for res in results]
            if any(v is None for v in values):
                cells += ["", ""]
                continue
            values = np.asarray(values, dtype=np.float64)
            stderr = 0.0 if len(values) < 2 else float(values.std(ddof=1) / math.sqrt(len(values)))
            cells += [_fmt(float(values.mean())), _fmt(stderr)]
        cells.append("1" if partial else "0")
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("n_seeds", [1, 2, 9, 17])
def test_aggregate_csv_equals_the_per_cell_reduction(n_seeds):
    from fedsim.experiment import aggregate_to_csv
    from fedsim.records import RoundMetrics, RunResult

    rng = np.random.default_rng(n_seeds)
    per_seed = {}
    for seed in range(n_seeds):
        n_rounds = 30 - seed % 3  # the shortest run sets the row count
        scale = 10.0 ** rng.integers(-150, 150, size=(n_rounds, 5))
        floats = rng.standard_normal((n_rounds, 5)) * scale
        rounds = [
            RoundMetrics(t=t + 1, t_prime=int(rng.integers(0, 2**60)), f_gap=float(f[0]),
                         avg_gap=None if seed == 3 or t == 7 else float(f[1]), grad_norm_sq=float(f[2]),
                         min_grad_norm_sq=float(f[3]), tau_bar=float(f[4]), tau_max=int(rng.integers(0, 50)),
                         oracle_calls=int(rng.integers(0, 10**6)))
            for t, f in enumerate(floats)
        ]
        per_seed[seed] = RunResult(rounds, seed == 5, None, None, None)
    text = aggregate_to_csv(per_seed)
    assert text == aggregate_per_cell(per_seed)
    assert text.count(",,") > 0


def test_aggregate_of_runs_without_a_round_is_its_header():
    # a run that diverges in round 1 records no round
    from fedsim.experiment import aggregate_to_csv
    from fedsim.records import RunResult

    text = aggregate_to_csv({seed: RunResult([], True, None, None, None) for seed in (1, 2)})
    assert text == aggregate_per_cell({1: RunResult([], True, None, None, None)})
    assert text.startswith("t,t_prime_mean,t_prime_stderr,f_gap_mean,") and text.endswith(",partial\n")


def test_single_seed_aggregate_has_zero_stderr(tmp_path):
    cfg = base_config()
    cfg["run"]["seeds"] = [5]
    res = run_experiment(cfg, out=str(tmp_path / "one"))
    agg = (tmp_path / "one_aggregate.csv").read_text().splitlines()
    header = agg[0].split(",")
    idx = header.index("f_gap_stderr")
    assert all(line.split(",")[idx] == "0" for line in agg[1:])


def test_deterministic_config_gives_identical_streams_across_seeds(tmp_path):
    cfg = base_config()
    cfg["problem"]["sigma"] = 0.0
    cfg["availability"] = {"variant": "full"}
    res = run_experiment(cfg)
    streams = [[(r.t, r.f_gap) for r in result.rounds] for result in res.per_seed.values()]
    assert streams[0] == streams[1] == streams[2]


def test_noisy_runs_have_positive_stderr_and_mean_in_envelope():
    cfg = base_config()
    res = run_experiment(cfg)
    final = {seed: result.rounds[-1].f_gap for seed, result in res.per_seed.items()}
    values = np.array(list(final.values()))
    assert values.std(ddof=1) > 0
    assert values.min() <= values.mean() <= values.max()


def test_config_roundtrip_reproduces_identical_csv(tmp_path):
    cfg = base_config()
    first = run_experiment(cfg, out=str(tmp_path / "a"))
    reloaded = json.loads(json.dumps(cfg))
    second = run_experiment(reloaded, out=str(tmp_path / "b"))
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    assert (tmp_path / "a_aggregate.csv").read_bytes() == (tmp_path / "b_aggregate.csv").read_bytes()


def test_csv_golden_layout(tmp_path):
    cfg = base_config()
    cfg["problem"] = {
        "family": "quadratic",
        "n_devices": 2,
        "dim": 1,
        "mu": 1.0,
        "smoothness": 1.0,
        "sigma": 0.0,
        "heterogeneity": 0.0,
        "seed": 0,
    }
    cfg["availability"] = {"variant": "full"}
    cfg["run"] = {"horizon": 2, "local_steps": 1, "seeds": [0]}
    res = run_experiment(cfg, out=str(tmp_path / "golden"))
    text = (tmp_path / "golden.csv").read_text()
    lines = text.splitlines()
    assert lines[0] == "seed,t,t_prime,f_gap,avg_gap,grad_norm_sq,min_grad_norm_sq,tau_bar,tau_max,oracle_calls"
    # centers at the origin: the model starts at the optimum and stays there
    assert lines[1] == "0,1,1,0,0,0,0,0,0,2"
    assert lines[2] == "0,2,2,0,0,0,0,0,0,4"


def test_nonconvex_f_gap_column_is_gradient_norm(tmp_path):
    cfg = base_config()
    cfg["problem"] = {
        "family": "trig",
        "n_devices": 3,
        "dim": 2,
        "curvature": 1.0,
        "amplitude": 0.5,
        "sigma": 0.2,
        "heterogeneity": 1.0,
        "seed": 4,
    }
    cfg["schedule"] = {"variant": "nonconvex_constant", "staleness_cap_mean": "measure"}
    res = run_experiment(cfg)
    rows = next(iter(res.per_seed.values())).rounds
    assert all(r.f_gap == r.grad_norm_sq for r in rows)
    assert all(r.avg_gap is None for r in rows)
    mins = [r.min_grad_norm_sq for r in rows]
    assert all(a >= b for a, b in zip(mins, mins[1:]))


def test_compare_shares_availability_across_algorithms(tmp_path):
    cfg = base_config()
    cfg["algorithm"] = {"name": "mifa", "subset_size": 2}
    out = str(tmp_path / "cmp")
    results = fedsim.compare_experiment(cfg, ["mifa", "biased_fedavg", "sampling_fedavg"], out=out)
    availability_cols = {}
    for name in results:
        lines = (tmp_path / f"cmp_{name}.csv").read_text().splitlines()
        header = lines[0].split(",")
        i_tb, i_tm = header.index("tau_bar"), header.index("tau_max")
        availability_cols[name] = [
            (line.split(",")[0], line.split(",")[1], line.split(",")[i_tb], line.split(",")[i_tm])
            for line in lines[1:]
        ]
    assert availability_cols["mifa"] == availability_cols["biased_fedavg"]
    assert availability_cols["mifa"] == availability_cols["sampling_fedavg"]


def test_compare_names_an_algorithm_listed_twice(tmp_path):
    with pytest.raises(ValueError, match="algorithm mifa is listed twice"):
        fedsim.compare_experiment(base_config(), ["mifa", "biased_fedavg", "mifa"], out=str(tmp_path / "cmp"))
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("seeds, message", [
    ([3, 4, 3], "seed 3 is listed twice"),
    ([1.5], "expected an integer, got 1.5"),
])
@pytest.mark.parametrize("override", [False, True])
def test_run_names_a_malformed_seed_list(tmp_path, override, seeds, message):
    # a seeds argument is checked as the config's run.seeds is
    cfg = base_config()
    if not override:
        cfg["run"]["seeds"] = seeds
    with pytest.raises(fedsim.ConfigError, match=f"^config key 'run.seeds': {message}"):
        run_experiment(cfg, out=str(tmp_path / "run"), seeds=seeds if override else None)
    assert list(tmp_path.iterdir()) == []


def test_compare_builds_instance_once_and_matches_single_runs(tmp_path, monkeypatch):
    cfg = base_config()
    cfg["algorithm"] = {"name": "mifa", "subset_size": 2}
    builds = []
    original = fedsim.experiment.build_instance

    def counting_build(config):
        builds.append(config)
        return original(config)

    monkeypatch.setattr(fedsim.experiment, "build_instance", counting_build)
    algorithms = ["mifa", "biased_fedavg", "sampling_fedavg"]
    fedsim.compare_experiment(cfg, algorithms, out=str(tmp_path / "cmp"))
    assert len(builds) == 1

    for name in algorithms:
        single = json.loads(json.dumps(cfg))
        single["algorithm"]["name"] = name
        run_experiment(single, out=str(tmp_path / f"one_{name}"))
        compared = (tmp_path / f"cmp_{name}.csv").read_bytes()
        assert compared == (tmp_path / f"one_{name}.csv").read_bytes()


def test_compare_measures_staleness_once_per_seed(tmp_path, monkeypatch):
    cfg = base_config()
    cfg["problem"] = {
        "family": "trig",
        "n_devices": 3,
        "dim": 2,
        "curvature": 1.0,
        "amplitude": 0.5,
        "sigma": 0.2,
        "heterogeneity": 1.0,
        "seed": 4,
    }
    cfg["schedule"] = {"variant": "nonconvex_constant", "staleness_cap_mean": "measure"}
    measured, conditions = [], []
    measure = fedsim.config.measured_staleness_cap_mean
    horizon_conditions = fedsim.experiment._horizon_conditions

    def counting_measure(model, horizon, seed):
        measured.append(seed)
        return measure(model, horizon, seed)

    def counting_conditions(*args):
        conditions.append(args)
        return horizon_conditions(*args)

    monkeypatch.setattr(fedsim.config, "measured_staleness_cap_mean", counting_measure)
    monkeypatch.setattr(fedsim.experiment, "_horizon_conditions", counting_conditions)
    algorithms = ["mifa", "mifa_delta"]
    fedsim.compare_experiment(cfg, algorithms, out=str(tmp_path / "cmp"))
    assert sorted(measured) == cfg["run"]["seeds"]
    assert len(conditions) == 1

    monkeypatch.undo()
    for name in algorithms:
        single = json.loads(json.dumps(cfg))
        single["algorithm"]["name"] = name
        run_experiment(single, out=str(tmp_path / f"one_{name}"))
        for suffix in (".csv", "_aggregate.csv"):
            compared = (tmp_path / f"cmp_{name}{suffix}").read_bytes()
            assert compared == (tmp_path / f"one_{name}{suffix}").read_bytes()
        metas = [json.loads((tmp_path / f"{p}_{name}_meta.json").read_text()) for p in ("cmp", "one")]
        assert metas[0]["schedule"] == metas[1]["schedule"]
        assert metas[0]["horizon_conditions"] == metas[1]["horizon_conditions"]


def test_trace_replay_config_runs_and_checks_device_count(tmp_path):
    from fedsim.availability import write_trace

    trace_path = tmp_path / "trace.txt"
    rounds = [frozenset({0, 1, 2, 3})] + [frozenset({i % 4}) for i in range(24)]
    write_trace(trace_path, 4, rounds)
    cfg = base_config()
    cfg["availability"] = {"variant": "trace_replay", "path": "trace.txt"}
    cfg["run"]["seeds"] = [1]
    res = run_experiment(cfg, base_dir=str(tmp_path))
    assert len(next(iter(res.per_seed.values())).rounds) == 25

    cfg["problem"]["n_devices"] = 5  # mismatch with the 4-device trace
    with pytest.raises(ConfigError):
        run_experiment(cfg, base_dir=str(tmp_path))


def test_meta_file_echoes_schedule_and_backend(tmp_path):
    cfg = base_config()
    res = run_experiment(cfg, out=str(tmp_path / "m"))
    meta = json.loads((tmp_path / "m_meta.json").read_text())
    assert meta["backend"] == "python"
    assert meta["schedule"]["variant"] == "StronglyConvexDecay"
    assert meta["schedule"]["shift"] >= 100.0
    assert meta["schedule"]["eta_1"] > meta["schedule"]["eta_T"] > 0
    assert meta["config"] == cfg
    assert meta["diverged_seeds"] == []


def test_the_benchmark_tracer_finds_every_name_it_patches():
    # compare_bench/tracing.py looks each name it patches up with
    # vars(owner)[attr], and compare_bench/run.py reads fedsim.BACKEND, so a
    # renamed or deleted name fails every traced benchmark pass
    path = Path(__file__).resolve().parent.parent / "compare_bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("benchmark_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    original = vars(fedsim.algorithms.ExactVectorSum)["add"]
    with tracing.install(tracing.Tracer(), fedsim):
        assert vars(fedsim.algorithms.ExactVectorSum)["add"] is not original
    assert vars(fedsim.algorithms.ExactVectorSum)["add"] is original
    assert fedsim.BACKEND == "python"


def test_meta_records_nonconvex_horizon_conditions(tmp_path):
    cfg = base_config()
    cfg["problem"] = {
        "family": "trig",
        "n_devices": 3,
        "dim": 2,
        "curvature": 1.0,
        "amplitude": 0.5,
        "sigma": 0.2,
        "heterogeneity": 1.0,
        "seed": 4,
    }
    cfg["schedule"] = {"variant": "nonconvex_constant", "staleness_cap_mean": "measure"}
    cfg["run"]["seeds"] = [1]
    res = run_experiment(cfg, out=str(tmp_path / "nc"))
    meta = json.loads((tmp_path / "nc_meta.json").read_text())
    conditions = meta["horizon_conditions"]
    # conditions are recorded, not enforced: small horizons simply report False
    assert set(map(type, conditions.values())) <= {bool, int}
    assert "measured_staleness_peak" in conditions


# ---------------------------------------------------------------------------
# slope fitting and studies
# ---------------------------------------------------------------------------


def test_fit_rate_slope_exact_power_laws():
    ts = range(1, 2001)
    inv_t = [(t, 7.0 / t) for t in ts]
    inv_sqrt = [(t, 2.0 / math.sqrt(t)) for t in ts]
    assert fit_rate_slope(inv_t, (10, 2000)) == pytest.approx(-1.0, abs=1e-6)
    assert fit_rate_slope(inv_sqrt, (10, 2000)) == pytest.approx(-0.5, abs=1e-6)


def test_fit_rate_slope_input_validation():
    with pytest.raises(ValueError):
        fit_rate_slope([(t, 1.0 / t) for t in range(1, 8)], (1, 7))
    with pytest.raises(ValueError):
        fit_rate_slope([(t, -1.0) for t in range(1, 30)], (1, 29))


def test_waiting_time_study_certain_participation():
    study = waiting_time_study(4, 2, np.ones(4), trials=2000, seed=1)
    assert study["mean_wait"] == 1.0
    assert study["lower_bound"] == pytest.approx(0.5)


def test_waiting_time_study_matches_exhaustive_expectation():
    # N=2, S=1, p = (0.5, 1): expected wait = 0.5 * 2 + 0.5 * 1 = 1.5
    study = waiting_time_study(2, 1, [0.5, 1.0], trials=200_000, seed=2)
    assert study["mean_wait"] == pytest.approx(1.5, abs=4 * study["stderr"] + 1e-9)
    assert study["lower_bound"] == pytest.approx(1.0)


def test_staleness_study_outputs_bounds_and_coverage():
    study = staleness_study([0.4, 0.8], horizon=200, n_traces=20, delta=0.05, seed=3)
    assert 0.0 <= study["peak_bound_coverage"] <= 1.0
    assert study["avg_shape"] == pytest.approx((1 / 0.4 + 1 / 0.8) / 2)
    assert len(study["rows"]) == 20


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "fedsim.cli", *args], capture_output=True, text=True
    )


def test_cli_run_bundled_config(tmp_path):
    from pathlib import Path

    bundled = Path(__file__).resolve().parents[1] / "configs" / "quickstart.json"
    out = run_cli("run", str(bundled), "--out", str(tmp_path / "quick"), "--seed", "1")
    assert out.returncode == 0, out.stderr
    assert (tmp_path / "quick.csv").exists()


def test_cli_run_produces_csv(tmp_path):
    cfg = base_config()
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = run_cli("run", str(path), "--out", str(tmp_path / "res"))
    assert out.returncode == 0, out.stderr
    assert (tmp_path / "res.csv").exists()
    assert (tmp_path / "res_aggregate.csv").exists()


def test_cli_validate_names_violated_constraint(tmp_path):
    cfg = base_config()
    cfg["problem"]["mu"] = 5.0  # mu > smoothness
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    out = run_cli("validate", str(path))
    assert out.returncode != 0
    assert "mu" in out.stderr


def test_cli_rejects_unknown_config_key(tmp_path):
    cfg = base_config()
    cfg["run"]["horizonn"] = 10
    path = tmp_path / "typo.json"
    path.write_text(json.dumps(cfg))
    out = run_cli("run", str(path))
    assert out.returncode == 2
    assert "run.horizonn" in out.stderr


def test_cli_periodic_device_count_mismatch_names_key(tmp_path):
    from pathlib import Path

    bundled = Path(__file__).resolve().parents[1] / "configs" / "quickstart.json"
    cfg = json.loads(bundled.read_text())
    cfg["availability"] = {"variant": "periodic", "periods": [1, 2], "phases": [0, 1]}
    path = tmp_path / "periodic.json"
    path.write_text(json.dumps(cfg))
    out = run_cli("run", str(path), "--out", str(tmp_path / "p"), "--seed", "1")
    assert out.returncode == 2
    assert "availability.periods" in out.stderr
    assert not (tmp_path / "p.csv").exists()

    cfg["availability"]["periods"] = [1] * cfg["problem"]["n_devices"]
    with pytest.raises(ConfigError) as err:
        fedsim.build_model(cfg, fedsim.build_instance(cfg))
    assert "availability.phases" in str(err.value)


def test_cli_compare_builds_every_spec_before_writing(tmp_path):
    cfg = base_config()
    cfg["run"]["seeds"] = [1]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = run_cli("compare", str(path), "--algorithms", "mifa,sampling_fedavg", "--out", str(tmp_path / "c"))
    assert out.returncode == 2
    assert "algorithm.subset_size" in out.stderr
    assert "Traceback" not in out.stderr
    assert list(tmp_path.iterdir()) == [path]

    cfg["availability"] = {"variant": "full"}
    path.write_text(json.dumps(cfg))
    out = run_cli("compare", str(path), "--algorithms", "mifa,is_fedavg", "--out", str(tmp_path / "c"))
    assert out.returncode == 2
    assert "algorithm.probs" in out.stderr
    assert list(tmp_path.iterdir()) == [path]


def test_cli_compare_rejects_subset_size_above_device_count(tmp_path):
    from pathlib import Path

    bundled = Path(__file__).resolve().parents[1] / "configs" / "quickstart.json"
    cfg = json.loads(bundled.read_text())
    cfg["algorithm"]["subset_size"] = 99  # the quickstart has 10 devices
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = run_cli("compare", str(path), "--algorithms", "mifa,sampling_fedavg", "--out", str(tmp_path / "c"))
    assert out.returncode == 2
    assert "algorithm.subset_size" in out.stderr
    assert "Traceback" not in out.stderr
    assert list(tmp_path.iterdir()) == [path]

    cfg["algorithm"]["subset_size"] = 0
    with pytest.raises(ConfigError, match="algorithm.subset_size"):
        fedsim.compare_experiment(cfg, ["sampling_fedavg"], out=str(tmp_path / "c"))


@pytest.mark.parametrize(
    "field, value",
    [
        ("normalization", "bogus"),
        ("probs", [0.5, 0.0, 0.5, 0.5]),
        ("probs", [0.5, -0.1, 0.5, 0.5]),
        ("probs", [0.5, 0.5]),  # base_config has 4 devices
        ("probs", ["x", 0.5, 0.5, 0.5]),
    ],
    ids=["normalization", "zero_prob", "negative_prob", "short_probs", "non_numeric_probs"],
)
@pytest.mark.parametrize("command", ["run", "compare"])
def test_cli_names_bad_is_fedavg_key(tmp_path, command, field, value):
    cfg = base_config(algorithm={"name": "is_fedavg", field: value})
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    extra = ["--algorithms", "mifa,is_fedavg"] if command == "compare" else []
    out = run_cli(command, str(path), *extra, "--out", str(tmp_path / "r"))
    assert out.returncode == 2
    assert f"algorithm.{field}" in out.stderr
    assert "Traceback" not in out.stderr
    assert list(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize(
    "schedule, key",
    [
        ({"variant": "inverse_decay"}, "schedule.eta0"),
        ({"variant": "nonconvex_constant"}, "schedule.staleness_cap_mean"),
    ],
    ids=["eta0", "staleness_cap_mean"],
)
def test_cli_run_names_missing_schedule_key(tmp_path, schedule, key):
    cfg = base_config(schedule=schedule)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = run_cli("run", str(path), "--out", str(tmp_path / "s"))
    assert out.returncode == 2
    assert key in out.stderr
    assert "Traceback" not in out.stderr
    assert list(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize(
    "text, line",
    [
        ("N=4\nt:1 active:0,1,2,3\n", 1),  # header without T=
        ("T=1\nt:1 active:0,1,2,3\n", 1),  # header without N=
        ("", 1),
        ("N=4 T=2\nt:1 active:0,1,2,3\n", 3),  # round line missing
        ("N=4 T=2\nt:1 active:0,1,2,3\nt:2 active:1;2\n", 3),
        ("N=4 T=2\nt:1 active:0,1,2,3\nt:3 active:1\n", 3),
        ("N=4 T=2\nt:1 active:0,1,2,3\nactive:1\n", 3),
        ("N=4 T=2\nt:1 active:0,1,2,3\nt:2 active:4\n", 3),  # device id out of range
        ("N=4 T=2\nt:1 active:0,1,2,3\nt:2 active:0,0\n", 3),
    ],
    ids=["no_T", "no_N", "empty", "missing_round", "bad_ids", "out_of_order", "no_t", "id_range", "repeated_id"],
)
def test_cli_run_names_malformed_trace_line(tmp_path, text, line):
    (tmp_path / "trace.txt").write_text(text)
    with pytest.raises(ValueError, match=f"line {line}:"):
        fedsim.read_trace(tmp_path / "trace.txt")

    cfg = base_config()
    cfg["availability"] = {"variant": "trace_replay", "path": "trace.txt"}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = run_cli("run", str(path), "--out", str(tmp_path / "r"))
    assert out.returncode == 2
    assert f"line {line}:" in out.stderr
    assert "Traceback" not in out.stderr
    assert not (tmp_path / "r.csv").exists()


def test_cli_validate_builds_the_algorithm(tmp_path):
    cfg = base_config()
    cfg["availability"] = {"variant": "full"}
    cfg["algorithm"] = {"name": "is_fedavg"}
    path = tmp_path / "is.json"
    path.write_text(json.dumps(cfg))
    out = run_cli("validate", str(path))
    assert out.returncode == 2
    assert "algorithm.probs" in out.stderr

    cfg["algorithm"]["probs"] = [0.5, 0.5, 1.0, 1.0]
    path.write_text(json.dumps(cfg))
    out = run_cli("validate", str(path))
    assert out.returncode == 0, out.stderr
    assert "algorithm: is_fedavg" in out.stdout


def test_cli_compare_and_wait_study(tmp_path):
    cfg = base_config()
    cfg["run"]["seeds"] = [1]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = run_cli("compare", str(path), "--algorithms", "mifa,biased_fedavg", "--out", str(tmp_path / "c"))
    assert out.returncode == 0, out.stderr
    assert (tmp_path / "c_mifa.csv").exists()
    assert (tmp_path / "c_biased_fedavg.csv").exists()

    out = run_cli("wait-study", "--devices", "3", "--subset-size", "2", "--p", "0.5,0.8,1.0", "--trials", "500")
    assert out.returncode == 0
    assert "lower_bound" in out.stdout

    out = run_cli("wait-study", "--devices", "2", "--subset-size", "1", "--p", "0.5,x")
    assert out.returncode == 2
    assert "argument --p" in out.stderr


def test_cli_tau_study(tmp_path):
    cfg = base_config()
    cfg["availability"] = {"variant": "bernoulli", "probs": [0.5, 0.7, 0.9, 1.0]}
    cfg["run"]["horizon"] = 50
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = run_cli("tau-study", str(path), "--traces", "10", "--out", str(tmp_path / "tau"))
    assert out.returncode == 0, out.stderr
    lines = (tmp_path / "tau.csv").read_text().splitlines()
    assert lines[0] == "trace,tau_max,tau_bar,tau_max_bound,tau_bar_shape"
    assert len(lines) == 11

    cfg["availability"] = {"variant": "full"}
    path.write_text(json.dumps(cfg))
    out = run_cli("tau-study", str(path), "--traces", "10")
    assert out.returncode == 2
    assert "config key 'availability.variant'" in out.stderr


# ---------------------------------------------------------------------------
# malformed configs through the CLI, in process
# ---------------------------------------------------------------------------

QUICKSTART = Path(__file__).resolve().parents[1] / "configs" / "quickstart.json"
DELETE = object()


def quickstart_config():
    return json.loads(QUICKSTART.read_text())


def set_key(cfg, path, value):
    """``cfg`` with the dotted key ``path`` set to ``value`` (removed for DELETE)."""
    *parents, last = path.split(".")
    node = cfg
    for key in parents:
        node = node[key]
    if value is DELETE:
        del node[last]
    else:
        node[last] = value
    return cfg


def run_main(tmp_dir, cfg, command):
    """Run ``fedsim <command>`` in process on ``cfg`` written to ``tmp_dir``;
    returns (exit code, stderr)."""
    path = Path(tmp_dir) / "cfg.json"
    path.write_text(json.dumps(cfg))
    extra = {
        "run": ["--out", str(Path(tmp_dir) / "r")],
        "compare": ["--algorithms", "mifa,biased_fedavg", "--out", str(Path(tmp_dir) / "c")],
    }
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = fedsim.cli.main([command, str(path), *extra.get(command, [])])
    return code, err.getvalue()


def below(bound):
    return st.one_of(st.floats(max_value=bound, exclude_max=True), st.integers(max_value=math.ceil(bound) - 1))


def at_most(bound):
    return st.one_of(st.floats(max_value=bound), st.integers(max_value=math.floor(bound)))


def not_in(choices):
    return st.text(max_size=12).filter(lambda text: text not in choices)


NOT_FINITE = st.sampled_from([math.inf, -math.inf, math.nan])
OUTSIDE_UNIT = st.one_of(at_most(0.0), st.floats(min_value=1.0, exclude_min=True), NOT_FINITE)
SMALL_LISTS = st.lists(st.integers(), max_size=2)
WRONG_TYPE = {
    "int": st.one_of(st.floats(), st.booleans(), st.text(), st.none(), SMALL_LISTS),
    "float": st.one_of(st.booleans(), st.text(), st.none(), SMALL_LISTS, st.dictionaries(st.text(), st.integers())),
    "str": st.one_of(st.integers(), st.floats(), st.booleans(), st.none(), st.lists(st.text(), max_size=2)),
    "object": st.one_of(st.integers(), st.text(), st.booleans(), st.none(), SMALL_LISTS),
    "int list": st.one_of(
        st.integers(), st.text(), st.none(),
        st.lists(st.one_of(st.floats(), st.text(), st.booleans(), st.none()), min_size=1, max_size=3),
    ),
}
# every key of base_config() and of the quickstart config: (type, values out
# of its range or None, whether the config must give it)
CONFIG_KEYS = {
    "problem": ("object", None, True),
    "problem.family": ("str", not_in({"quadratic", "logistic", "trig", "quadratic_clusters"}), True),
    "problem.n_devices": ("int", st.integers(max_value=0), True),
    "problem.dim": ("int", st.integers(max_value=0), True),
    "problem.mu": ("float", st.one_of(at_most(0.0), NOT_FINITE), True),
    "problem.smoothness": ("float", st.one_of(at_most(0.0), NOT_FINITE), True),
    "problem.sigma": ("float", st.one_of(below(0.0), NOT_FINITE), True),
    "problem.heterogeneity": ("float", st.one_of(below(0.0), NOT_FINITE), True),
    "problem.seed": ("int", st.integers(max_value=-1), True),
    "availability": ("object", None, True),
    "availability.variant": (
        "str", not_in({"full", "bernoulli", "periodic", "adversarial_linear", "trace_replay"}), True
    ),
    "availability.uniform": ("object", None, False),
    "availability.uniform.low": ("float", OUTSIDE_UNIT, True),
    "availability.uniform.high": ("float", OUTSIDE_UNIT, True),
    "availability.uniform.seed": ("int", st.integers(max_value=-1), True),
    "algorithm": ("object", None, True),
    "algorithm.name": ("str", not_in(set(fedsim.algorithms.SERVERS)), True),
    "algorithm.subset_size": ("int", st.integers(max_value=0), False),
    "schedule": ("object", None, True),
    "schedule.variant": ("str", not_in({"strongly_convex", "nonconvex_constant", "inverse_decay"}), True),
    "schedule.delay_offset": ("float", st.one_of(below(0.0), NOT_FINITE), False),
    "run": ("object", None, True),
    "run.horizon": ("int", st.integers(max_value=1), True),
    "run.local_steps": ("int", st.integers(max_value=0), True),
    "run.seeds": (
        "int list", st.one_of(st.just([]), st.lists(st.integers(max_value=-1), min_size=1, max_size=3)), True
    ),
    "run.out": ("str", None, False),
}


def key_paths(node, prefix=""):
    for key, value in node.items():
        yield prefix + key
        if isinstance(value, dict):
            yield from key_paths(value, f"{prefix}{key}.")


def mutations():
    """(config, path, mutation) for every key of both configs and every
    mutation that applies to it; "unknown" adds a key inside an object."""
    for name, cfg in (("base", base_config()), ("quickstart", quickstart_config())):
        for path in ["", *key_paths(cfg)]:
            kind, out_of_range, required = CONFIG_KEYS[path] if path else ("object", None, True)
            applicable = {
                "wrong_type": path != "",
                "out_of_range": out_of_range is not None,
                "missing": required and path != "",
                "unknown": kind == "object",
            }
            for mutation, applies in applicable.items():
                if applies:
                    yield pytest.param(cfg, path, mutation, id=f"{name}-{path or 'root'}-{mutation}")


@pytest.mark.parametrize("cfg, path, mutation", mutations())
@settings(max_examples=5, deadline=None, derandomize=True)
@given(data=st.data())
def test_every_single_key_mutation_exits_2_naming_the_key(cfg, path, mutation, data):
    cfg = json.loads(json.dumps(cfg))
    if mutation == "unknown":
        key = "x_" + data.draw(st.text(alphabet="abcdefghijklmnopqrstuvwxyz_", max_size=8))
        path = f"{path}.{key}" if path else key
        value = data.draw(st.one_of(st.integers(), st.text(), st.none()))
    else:
        kind, out_of_range, _ = CONFIG_KEYS[path]
        value = {"wrong_type": WRONG_TYPE[kind], "out_of_range": out_of_range, "missing": st.just(DELETE)}[mutation]
        value = data.draw(value)
    set_key(cfg, path, value)
    command = data.draw(st.sampled_from(["validate", "run", "compare"]))
    with tempfile.TemporaryDirectory() as tmp_dir:
        code, err = run_main(tmp_dir, cfg, command)
        assert code == 2, err
        assert f"config key '{path}'" in err
        assert os.listdir(tmp_dir) == ["cfg.json"]


@pytest.mark.parametrize(
    "edits, message",
    [
        ({"problem.mu": None}, "config key 'problem.mu'"),
        ({"problem.heterogeneity": [1]}, "config key 'problem.heterogeneity'"),
        ({"availability.uniform.seed": DELETE}, "config key 'availability.uniform.seed'"),
        ({"availability.uniform": "x"}, "config key 'availability.uniform'"),
        ({"availability": {"variant": "adversarial_linear", "offset": 1.0}},
         "config key 'availability.slope_divisor'"),
        ({"run.horizon": "abc"}, "config key 'run.horizon'"),
        ({"problem.dim": "ten"}, "config key 'problem.dim'"),
        ({"run.seeds": ["x"]}, "config key 'run.seeds'"),
        ({"problem.n_devices": -3}, "config key 'problem.n_devices'"),
        ({"schedule.delay_offset": "big"}, "config key 'schedule.delay_offset'"),
        ({"availability": {"variant": "bernoulli", "probs": [1.5] + [0.5] * 9}},
         "config key 'availability.probs'"),
        ({"availability.uniform.low": 0.9, "availability.uniform.high": 0.5},
         "config key 'availability.uniform.low'"),
        ({"availability": {"variant": "periodic", "periods": [0] + [1] * 9, "phases": [0] * 10}},
         "config key 'availability.periods'"),
        ({"availability": {"variant": "adversarial_linear", "offset": 1.0, "slope_divisor": 0.5}},
         "config key 'availability.slope_divisor'"),
        ({"schedule": {"variant": "inverse_decay", "eta0": -1}}, "config key 'schedule.eta0'"),
        ({"schedule": {"variant": "nonconvex_constant", "staleness_cap_mean": 1.0, "scale": -1}},
         "config key 'schedule.scale'"),
        ({"problem.mu": 0}, "config key 'problem.mu'"),
        ({"problem.smoothness": 0.5}, "config key 'problem.smoothness'"),
        ({"problem.dim": 2.5}, "config key 'problem.dim'"),
        ({"run.horizon": 20.7}, "config key 'run.horizon'"),
        ({"run.seeds": [1.5]}, "config key 'run.seeds'"),
        ({"run.local_steps": "5"}, "config key 'run.local_steps'"),
        ({"algorithm.subset_size": "x"}, "config key 'algorithm.subset_size'"),
        ({"run.out": 5}, "config key 'run.out'"),
        ({"run.horizon": True}, "config key 'run.horizon': expected an integer, got True"),
        ({"problem.heterogeneity": 1e300}, "config key 'problem.heterogeneity'"),
        ({"problem.smoothness": 1e300}, "config key 'problem.smoothness'"),
        ({"problem": {"family": "logistic", "n_devices": 10, "dim": 5, "samples_per_device": 20,
                      "l2": 1e-300, "label_skew": 0.0, "seed": 7}}, "config key 'problem.l2'"),
        ({"schedule.delay_offset": 1e308}, "config key 'schedule.delay_offset'"),
        ({"run.seeds": [3, 3]}, "config key 'run.seeds': seed 3 is listed twice"),
    ],
    ids=[
        "mu_null", "heterogeneity_list", "uniform_without_seed", "uniform_string",
        "adversarial_without_slope_divisor", "horizon_string", "dim_string", "seed_string",
        "negative_devices", "delay_offset_string", "probability_above_one", "uniform_low_above_high",
        "zero_period", "slope_divisor_below_one", "negative_eta0", "negative_scale", "zero_mu",
        "smoothness_below_mu", "fractional_dim", "fractional_horizon", "fractional_seed",
        "local_steps_string", "subset_size_string", "numeric_out", "bool_horizon",
        "overflowing_heterogeneity", "overflowing_smoothness", "logistic_l2_overflowing_the_shift",
        "delay_offset_overflowing_the_shift", "repeated_seed",
    ],
)
def test_cli_run_names_each_malformed_quickstart_key(tmp_path, monkeypatch, edits, message):
    cfg = set_key(quickstart_config(), "run.horizon", 20)
    for path, value in edits.items():
        set_key(cfg, path, value)
    monkeypatch.chdir(tmp_path)  # run.out is relative to the working directory
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = fedsim.cli.main(["run", "cfg.json"])
    assert code == 2
    assert message in err.getvalue()
    assert os.listdir(tmp_path) == ["cfg.json"]


WAIT = ["wait-study", "--devices", "2", "--subset-size", "1", "--p", "0.5,0.5", "--out", "w"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["run", "cfg.json", "--seed", "-1"], "argument --seed: expected int in [0, inf), got '-1'"),
        (["compare", "cfg.json", "--algorithms", "mifa", "--seed", "-1"], "argument --seed"),
        (["tau-study", "cfg.json", "--seed", "-1", "--out", "tau"], "argument --seed"),
        (WAIT + ["--seed", "-1"], "argument --seed"),
        (["tau-study", "cfg.json", "--traces", "0", "--out", "tau"], "argument --traces"),
        (WAIT + ["--trials", "0"], "argument --trials"),
        (["tau-study", "cfg.json", "--delta", "1.5", "--out", "tau"], "argument --delta: expected float in (0, 1)"),
        (["tau-study", "cfg.json", "--delta", "0", "--out", "tau"], "argument --delta"),
        (["validate", "cfg.json", "--seed", "1"], "unrecognized arguments: --seed"),
        (["validate", "cfg.json", "--out", "v"], "unrecognized arguments: --out"),
        (WAIT + ["--devices", "0"], "argument --devices: expected int in [1, inf), got '0'"),
        (WAIT + ["--p", "0.5"], "argument --p: 1 probabilities for --devices 2"),
        (WAIT + ["--subset-size", "3"], "argument --subset-size: 3 exceeds --devices 2"),
        (WAIT + ["--p", "0.5,1.5"], "argument --p: expected float in (0, 1], got '1.5'"),
        (["compare", "cfg.json", "--algorithms", ","],
         "argument --algorithms: expected a comma-separated list of algorithm names, got ','"),
        (["compare", "cfg.json", "--algorithms", "mifa,biased_fedavg,mifa", "--out", "c"],
         "argument --algorithms: mifa is listed twice"),
    ],
    ids=["run_seed", "compare_seed", "tau_seed", "wait_seed", "traces", "trials", "delta_above_one",
         "delta_zero", "validate_seed", "validate_out", "wait_zero_devices", "wait_too_few_probabilities",
         "wait_subset_above_devices", "wait_probability_above_one", "compare_no_algorithms",
         "compare_repeated_algorithm"],
)
def test_cli_flags_name_themselves(tmp_path, monkeypatch, argv, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(json.dumps(set_key(quickstart_config(), "run.horizon", 20)))
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        with pytest.raises(SystemExit) as exit_:
            fedsim.cli.main(argv)
    assert exit_.value.code == 2
    assert message in err.getvalue()
    assert os.listdir(tmp_path) == ["cfg.json"]
