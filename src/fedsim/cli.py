"""Command-line interface.

Subcommands:
  run <config>        run one experiment, write per-seed + aggregate CSV
  compare <config> --algorithms a,b,c
                      run several algorithms on identical availability
  tau-study <config>  Monte Carlo staleness bounds for the config's
                      bernoulli availability
  wait-study          Monte Carlo waiting time for subset sampling
  validate <config>   check a config without running it
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import availability as av
from .config import (
    ConfigError,
    Key,
    build_algo_spec,
    build_instance,
    build_model,
    build_schedule,
    load_config,
)
from .experiment import (
    compare_experiment,
    run_experiment,
    staleness_study,
    waiting_time_study,
    write_csv,
)


def bounded(kind, interval: str):
    """An argparse ``type``: a ``kind`` number in ``interval``, checked by the
    config schema's ``Key``, so a bad value exits 2 naming its flag."""

    def parse(text: str):
        try:
            return Key(kind, interval).parse(kind(text), "", None)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected {kind.__name__} in {interval}, got {text!r}") from None

    return parse


def algorithm_list(text: str) -> list:
    """An argparse ``type``: a comma-separated list of distinct algorithm
    names, so an empty or repeated list exits 2 naming its flag."""
    names = [name.strip() for name in text.split(",") if name.strip()]
    if not names:
        raise argparse.ArgumentTypeError(f"expected a comma-separated list of algorithm names, got {text!r}")
    repeated = [name for k, name in enumerate(names) if name in names[:k]]
    if repeated:
        raise argparse.ArgumentTypeError(f"{repeated[0]} is listed twice")
    return names


def _add_common(parser):
    parser.add_argument("--seed", type=bounded(int, "[0, inf)"), help="override run.seeds with one seed")
    parser.add_argument("--out", default=None, help="override the output path base")


def cmd_run(args) -> int:
    cfg = load_config(args.config)
    seeds = None if args.seed is None else [args.seed]
    result = run_experiment(cfg, out=args.out, seeds=seeds, base_dir=os.path.dirname(os.path.abspath(args.config)))
    if result.csv_path:
        print(f"wrote {result.csv_path}")
        print(f"wrote {result.aggregate_path}")
        print(f"wrote {result.meta_path}")
    diverged = [s for s, res in result.per_seed.items() if res.diverged]
    if diverged:
        print(f"warning: diverged seeds {diverged} (partial trajectories)")
    return 0


def cmd_compare(args) -> int:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg = dict(cfg, run=dict(cfg["run"], seeds=[args.seed]))
    out = args.out if args.out is not None else cfg["run"].get("out")
    if not out:
        print("error: compare needs an output path (run.out or --out)", file=sys.stderr)
        return 2
    results = compare_experiment(
        cfg, args.algorithms, out=out, base_dir=os.path.dirname(os.path.abspath(args.config))
    )
    for name, res in results.items():
        print(f"wrote {res.csv_path}")
    return 0


def cmd_tau_study(args) -> int:
    cfg = load_config(args.config)
    instance = build_instance(cfg)
    model = build_model(cfg, instance, base_dir=os.path.dirname(os.path.abspath(args.config)))
    if not isinstance(model, av.BernoulliParticipation):
        raise ConfigError("availability.variant", "tau-study needs a bernoulli availability section")
    seed = args.seed if args.seed is not None else cfg["run"]["seeds"][0]
    study = staleness_study(model.probs, cfg["run"]["horizon"], args.traces, args.delta, seed)
    print(
        f"traces={args.traces} peak_bound={study['peak_bound']:.3f} "
        f"coverage={study['peak_bound_coverage']:.3f} "
        f"avg_to_shape_ratio={study['avg_to_shape_ratio']:.3f}"
    )
    return _write_study(args.out, study["rows"])


def cmd_wait_study(args) -> int:
    if len(args.p) != args.devices:
        args.error(f"argument --p: {len(args.p)} probabilities for --devices {args.devices}")
    if args.subset_size > args.devices:
        args.error(f"argument --subset-size: {args.subset_size} exceeds --devices {args.devices}")
    study = waiting_time_study(args.devices, args.subset_size, args.p, args.trials, args.seed or 0)
    print(
        f"mean_wait={study['mean_wait']:.6f} stderr={study['stderr']:.6f} "
        f"lower_bound={study['lower_bound']:.6f}"
    )
    return _write_study(args.out, [study])


def _write_study(out: str | None, records: list) -> int:
    if out:
        write_csv(f"{out}.csv", records)
        print(f"wrote {out}.csv")
    return 0


def cmd_validate(args) -> int:
    cfg = load_config(args.config)
    instance = build_instance(cfg)
    model = build_model(cfg, instance, base_dir=os.path.dirname(os.path.abspath(args.config)))
    schedule = build_schedule(cfg, instance, model, cfg["run"]["seeds"][0])
    algo_spec = build_algo_spec(cfg, model)
    c = instance.constants
    print(f"problem: {cfg['problem']['family']} n={instance.n_devices} d={instance.dim}")
    print(f"algorithm: {algo_spec.name}")
    print(f"constants: L={c.smoothness:.6g} mu={c.strong_convexity:.6g} sigma={c.noise_std:.6g}")
    print(f"schedule: eta_1={schedule.eta(1):.6g} eta_T={schedule.eta(cfg['run']['horizon']):.6g}")
    print("ok")
    return 0


def probability_list(text: str) -> np.ndarray:
    return np.array([bounded(float, "(0, 1]")(p) for p in text.split(",")])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="fedsim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment")
    p_run.add_argument("config")
    _add_common(p_run)
    p_run.set_defaults(func=cmd_run)

    p_cmp = sub.add_parser("compare", help="run several algorithms on shared availability")
    p_cmp.add_argument("config")
    p_cmp.add_argument("--algorithms", type=algorithm_list, required=True, help="comma-separated algorithm names")
    _add_common(p_cmp)
    p_cmp.set_defaults(func=cmd_compare)

    p_tau = sub.add_parser("tau-study", help="Monte Carlo staleness bounds")
    p_tau.add_argument("config")
    p_tau.add_argument("--traces", type=bounded(int, "[1, inf)"), default=200)
    p_tau.add_argument("--delta", type=bounded(float, "(0, 1)"), default=0.01)
    _add_common(p_tau)
    p_tau.set_defaults(func=cmd_tau_study)

    p_wait = sub.add_parser("wait-study", help="Monte Carlo waiting time for subset sampling")
    p_wait.add_argument("--devices", type=bounded(int, "[1, inf)"), required=True)
    p_wait.add_argument("--subset-size", type=bounded(int, "[1, inf)"), required=True)
    p_wait.add_argument(
        "--p", type=probability_list, required=True, help="comma-separated per-device probabilities"
    )
    p_wait.add_argument("--trials", type=bounded(int, "[1, inf)"), default=10000)
    _add_common(p_wait)
    p_wait.set_defaults(func=cmd_wait_study, error=p_wait.error)

    p_val = sub.add_parser("validate", help="check a config without running")
    p_val.add_argument("config")
    p_val.set_defaults(func=cmd_validate)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
