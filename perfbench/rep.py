"""One timed repetition of a benchmark workload, in a fresh interpreter.

    python3 perfbench/rep.py WORKLOAD SEED MODE OUTDIR

MODE is "plain" (the workload's own worker count, tracing off), "serial"
(one process, tracing off), "traced" (one process, spans recorded and
written to OUTDIR) or "gate" (the workload's full-size experiment, serial,
checked against the closed form). A fresh interpreter per repetition keeps every cache,
lazy attribute and resident-memory peak of one repetition out of the next,
and forked workers inherit nothing warm. Prints one JSON object as the last
line of standard output. Exits with code 3 if adaptnets cannot be imported
from the checkout's src directory.
"""

from __future__ import annotations

import contextlib
import json
import os
import platform
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))

try:
    import adaptnets
except ImportError as exc:
    print(f"cannot import adaptnets from {SRC}: {exc}", file=sys.stderr)
    sys.exit(3)
if Path(adaptnets.__file__).resolve().parent != SRC / "adaptnets":
    print(f"adaptnets imported from {adaptnets.__file__}, not {SRC}",
          file=sys.stderr)
    sys.exit(3)

import numpy as np  # noqa: E402

from adaptnets import (  # noqa: E402
    DivergenceError,
    check_feasibility,
    compare_theory,
    parse_config,
    resolve,
    run_experiment,
    save_result,
)

import tracing  # noqa: E402
import workloads  # noqa: E402


def _environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def _peak_rss_mb() -> tuple[float, float]:
    """Peak resident memory of this process and of its largest waited-for
    child (the experiment's workers), in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return own / 1024.0, child / 1024.0


def repetition(name: str, seed: int, mode: str, outdir: Path) -> dict:
    gate = mode == "gate"
    cfg = parse_config(workloads.gate_config(name, seed) if gate
                       else workloads.config(name, seed))
    tracer = tracing.Tracer() if mode == "traced" else None
    run, save, setup = run_experiment, save_result, resolve
    if tracer is not None:
        run = tracer.wrap("harness.run_experiment", run_experiment)
        save = tracer.wrap("harness.save_result", save_result)
        setup = tracer.wrap("config.resolve", resolve)
    out = {"env": _environment()}
    with tracer.installed() if tracer else contextlib.nullcontext():
        t0 = time.perf_counter()
        resolved = setup(cfg)
        out["setup_s"] = time.perf_counter() - t0
        strategy = resolved.strategy
        if tracer is not None:
            feasibility_s = 0.0
            if strategy.subspace is not None and strategy.combination is not None:
                t0 = time.perf_counter()
                check_feasibility(strategy.combination, strategy.subspace,
                                  resolved.graph)
                feasibility_s = time.perf_counter() - t0
        del resolved, strategy
        workdir = tempfile.mkdtemp(dir=outdir, prefix=f"{name}-{mode}-")
        try:
            t0 = time.perf_counter()
            result = run(cfg, parallel=None if mode == "plain" else 1)
            paths = save(result, workdir)
            out["run_wall_s"] = time.perf_counter() - t0
            result_bytes = sum(os.path.getsize(p) for p in paths)
        except DivergenceError as exc:
            out["outcome"] = {"error": f"diverged: {exc}"}
            return out
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    steps = cfg.runs * cfg.iters
    out["us_per_agent_step"] = result.wall_time / (steps * result.n_agents) * 1e6
    out["rss_self_mb"], out["rss_worker_mb"] = _peak_rss_mb()
    out["peak_rss_mb"] = max(out["rss_self_mb"], out["rss_worker_mb"])
    theory_rel_err = theory_passed = None
    if gate:
        predicted = result.theory["msd"]
        theory_rel_err = abs(result.steady_wo.value - predicted) / predicted
        theory_passed = compare_theory(result).passed
    out["outcome"] = {
        "error": None,
        "steady": result.steady_wo.value,
        "settled": result.steady_wo.settled,
        "per_agent": result.per_agent_msd.tolist(),
        "theory_rel_err": theory_rel_err,
        "theory_passed": theory_passed,
    }
    if tracer is not None:
        layers = tracing.layer_metrics(tracer.spans, result.wall_time, steps,
                                       result.n_agents)
        layers["graphs.feasibility_s"] = feasibility_s
        layers["streaming.draw_bytes"] = tracer.draw_bytes
        layers["harness.result_bytes"] = result_bytes
        out["layers"] = layers
        tracer.write_jsonl(outdir / f"trace-{name}-seed{seed}.jsonl")
    return out


if __name__ == "__main__":
    name, seed, mode, outdir = sys.argv[1:5]
    print(json.dumps(repetition(name, int(seed), mode, Path(outdir))))
