"""Regenerate ``references.json``: the final-row values of every
(algorithm, run seed) of each workload, for workload seeds 0..SEEDS-1.

Run from the repository root after a change that is meant to alter the
trajectories, and say so where the change is recorded:

    python3 compare_bench/make_references.py
"""

from __future__ import annotations

import json
import shutil

import run
import workloads

SEEDS = 32


def main() -> None:
    fedsim = run.load_fedsim()
    work = run.OUT_DIR / "references_work"
    references: dict = {}
    for workload in sorted(workloads.WORKLOADS):
        for seed in range(SEEDS):
            cfg, algorithms = workloads.make_workload(workload, seed)
            work.mkdir(parents=True, exist_ok=True)
            try:
                fedsim.compare_experiment(cfg, algorithms, out=str(work / "compare"))
                outputs = run.read_outputs(work / "compare", algorithms)
            finally:
                shutil.rmtree(work)
            references.setdefault(workload, {})[str(seed)] = run.final_values(outputs, cfg)
            print(f"{workload} seed {seed}", flush=True)
    with open(run.REFERENCES, "w", encoding="utf-8") as fh:
        json.dump(references, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
