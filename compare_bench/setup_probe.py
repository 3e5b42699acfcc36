"""Time one cold set-up of a workload config in this fresh process.

Set-up is ``build_instance`` + ``build_model`` + ``build_schedule`` for the
workload's config and its first run seed, the first calls in the process
after import. Prints the seconds as the last line. ``run.py`` starts this
script several times and reports the median.
"""

from __future__ import annotations

import argparse
import sys
import time

import run
import workloads


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()
    fedsim = run.load_fedsim()
    cfg, _ = workloads.make_workload(args.workload, args.seed, tiny=args.tiny)
    start = time.perf_counter()
    instance = fedsim.build_instance(cfg)
    model = fedsim.build_model(cfg, instance)
    fedsim.build_schedule(cfg, instance, model, cfg["run"]["seeds"][0])
    print(repr(time.perf_counter() - start))
    return 0


if __name__ == "__main__":
    sys.exit(main())
