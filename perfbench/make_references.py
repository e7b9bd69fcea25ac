"""Regenerate references.json: the stored outcome of every workload per seed.

    python3 perfbench/make_references.py

Runs each workload serially for seeds 0 .. workloads.REFERENCE_SEEDS - 1,
one task per core, and stores its steady-state MSD and per-agent MSD. Run it
only when a workload's definition changes, on a commit whose results are
trusted.
"""

from __future__ import annotations

import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import workloads  # noqa: E402


def _digits(value: float) -> float:
    # 13 significant digits are far inside workloads.REFERENCE_RTOL
    return float(f"{value:.12e}")


def outcome(name: str, seed: int) -> dict:
    from adaptnets import run_experiment

    result = run_experiment(workloads.config(name, seed), parallel=1)
    return {"steady": _digits(result.steady_wo.value),
            "per_agent": [_digits(v) for v in result.per_agent_msd]}


def main() -> None:
    # spawned workers inherit the pinned threads of the benchmark
    os.environ.update({var: "1" for var in run.THREAD_VARS})
    tasks = [(name, seed) for name in workloads.WORKLOADS
             for seed in range(workloads.REFERENCE_SEEDS)]
    with ProcessPoolExecutor(mp_context=get_context("spawn")) as ex:
        results = list(ex.map(outcome, *zip(*tasks)))
    doc = {name: {"definition": workloads.definition_hash(name), "seeds": {}}
           for name in workloads.WORKLOADS}
    for (name, seed), out in zip(tasks, results):
        doc[name]["seeds"][str(seed)] = out
    with open(workloads.REFERENCES, "w") as fh:
        json.dump(doc, fh, separators=(",", ":"))
        fh.write("\n")


if __name__ == "__main__":
    main()
