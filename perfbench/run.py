"""Benchmark of adaptnets: one workload, timed in fresh interpreters.

    python3 perfbench/run.py --workload smooth --seed 0 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from its src
directory. Load is closed-loop: one experiment at a time from this process,
each repetition in a fresh interpreter, with at most the workload's own
worker count (2) of worker processes. BLAS and OpenMP threads are pinned to
one per process. Repetitions continue until --seconds have been spent
(three at least); aggregate() says which figure of the repetitions is
reported.

--trace 0 reports the end-to-end metrics; --trace 1 alternates untraced
and traced serial repetitions and reports the per-layer metrics. Human
readable lines come first; the last line of standard output is one JSON
object with keys correct, attempted, failed and metrics. attempted and
failed count Monte Carlo runs. A full record, with the environment and every
repetition, goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
MIN_REPS = 3
# a run ends within this many seconds even if a repetition hangs
DEADLINE_S = 170
TIME_UNITS = ("s", "us")


def metric_units(section: str) -> dict:
    """{name: unit} of the "end_to_end" or "per_layer" metrics."""
    with open(ROOT / "BENCHMARK.json") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


class BenchmarkError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    # the worker count comes from the workload, not from the caller's shell
    env.pop("ADAPTNETS_PARALLEL", None)
    return env


def run_rep(workload: str, seed: int, mode: str, env: dict,
            timeout: float) -> dict:
    """One repetition in a fresh interpreter; its JSON report.

    A repetition that crashes is reported as {"outcome": {"error": ...}};
    one that times out also carries "timed_out": True.
    """
    cmd = [sys.executable, "-s", str(HERE / "rep.py"), workload, str(seed),
           mode, str(OUT)]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return {"timed_out": True,
                "outcome": {"error": f"{mode} repetition timed out after "
                                     f"{timeout:.0f} s"}}
    finally:
        # workers the repetition may have left behind share its group
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode == 3:
        raise BenchmarkError(stderr.strip())
    if proc.returncode != 0:
        tail = stderr.strip().splitlines()[-1:] or ["no message"]
        return {"outcome": {"error": f"{mode} repetition exited with "
                                     f"{proc.returncode}: {tail[0]}"}}
    return json.loads(stdout.strip().splitlines()[-1])


def aggregate(values: list[float], unit: str) -> float:
    """One figure from the repetitions of a run.

    A timing is the fastest repetition: on a shared machine, neighbours slow
    single repetitions by up to 2x for seconds at a time, and the fastest
    one is the estimate they disturb least. Memory, counts and bytes are the
    median, which for counts and bytes is the exact value.
    """
    return min(values) if unit in TIME_UNITS else statistics.median(values)


def measure(workload: str, seed: int, seconds: float, trace: bool,
            references: dict) -> dict:
    """Repeat the workload for `seconds` and check every repetition."""
    reference = references[workload].get(str(seed))
    modes = ("serial", "traced") if trace else ("plain",)
    env = child_env()
    OUT.mkdir(exist_ok=True)
    reps = {mode: [] for mode in modes}
    load_before = os.getloadavg()
    start = time.monotonic()
    gate = None
    if workloads.gate_config(workload, seed) is not None:
        gate = run_rep(workload, seed, "gate", env, DEADLINE_S)
    durations = []
    while True:
        t0 = time.monotonic()
        for mode in modes:
            left = start + DEADLINE_S - time.monotonic()
            if left <= 0:
                break
            reps[mode].append(run_rep(workload, seed, mode, env, left))
        durations.append(time.monotonic() - t0)
        elapsed = time.monotonic() - start
        if elapsed >= DEADLINE_S or (
                len(durations) >= MIN_REPS
                and elapsed + statistics.median(durations) > seconds):
            break

    # A repetition cut at the deadline says nothing about correctness: it is
    # left out of attempted and failed, and counted apart.
    timed_out = sum(r.get("timed_out", False) for mode in modes
                    for r in reps[mode])
    attempted = failed = 0
    failures = []

    def check(outcome, runs, reference=None, first=None):
        nonlocal attempted, failed
        found = workloads.problems(outcome, reference, first)
        attempted += runs
        if found:
            failed += runs
            failures.extend(found)

    if gate is not None and not gate.get("timed_out"):
        check(gate["outcome"], workloads.gate_config(workload, seed)["runs"])
    runs = workloads.config(workload, seed)["runs"]
    first = None
    for rep in (r for mode in modes for r in reps[mode]
                if not r.get("timed_out")):
        check(rep["outcome"], runs, reference, first)
        if first is None and rep["outcome"]["error"] is None:
            first = rep["outcome"]
    done = {mode: [r for r in reps[mode] if r["outcome"]["error"] is None]
            for mode in modes}
    if not all(done.values()):
        errors = [r["outcome"]["error"] for mode in modes for r in reps[mode]]
        raise BenchmarkError(f"no repetition of {workload} completed within "
                             f"{DEADLINE_S} s: {(failures or errors)[:1]}")

    if trace:
        units = metric_units("per_layer")
        samples = {name: [r["layers"][name] for r in done["traced"]]
                   for name in units if name != "trace.overhead_frac"}
    else:
        units = metric_units("end_to_end")
        samples = {name: [r[name] for r in done["plain"]] for name in units}
    metrics = {name: aggregate(values, units[name])
               for name, values in samples.items()}
    if trace:
        speed = {mode: min(r["us_per_agent_step"] for r in done[mode])
                 for mode in modes}
        metrics["trace.overhead_frac"] = speed["traced"] / speed["serial"] - 1
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "config": workloads.config(workload, seed),
        "reference": "stored" if reference is not None else "none for this seed",
        "environment": {
            **done[modes[0]][0]["env"],
            "python_executable": sys.executable,
            "platform": platform.platform(),
            "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "threads": {var: env[var] for var in THREAD_VARS},
            "loadavg_before": load_before,
            "loadavg_after": os.getloadavg(),
        },
        "elapsed_s": time.monotonic() - start,
        "repetitions": {mode: len(reps[mode]) for mode in modes},
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
        "samples": samples,
        "gate": gate,
        "attempted": attempted,
        "failed": failed,
        "timed_out": timed_out,
        "failures": sorted(set(failures)),
        "reps": reps,
    }


def _summary(record: dict) -> list[str]:
    env = record["environment"]
    lines = [
        f"workload {record['workload']} seed {record['seed']} "
        f"trace {int(record['trace'])}: "
        + ", ".join(f"{n} {mode} repetitions"
                    for mode, n in record["repetitions"].items())
        + f" in {record['elapsed_s']:.1f} s; reference "
        f"{record['reference']}",
        f"environment: python {env['python']}, numpy {env['numpy']}, "
        f"{env['blas']}, nproc {env['nproc']}, threads pinned to 1, load "
        f"average {env['loadavg_before'][0]:.2f} before, "
        f"{env['loadavg_after'][0]:.2f} after",
    ]
    for name, m in record["metrics"].items():
        line = f"  {name:<40} {m['value']:.6g} {m['unit']}"
        values = record["samples"].get(name)
        if values and m["unit"] in TIME_UNITS:
            line += (f"  ({len(values)} repetitions: fastest "
                     f"{min(values):.6g}, median "
                     f"{statistics.median(values):.6g}, slowest "
                     f"{max(values):.6g})")
        lines.append(line)
    if not record["trace"]:
        gate = (record["gate"] or {}).get("outcome", {})
        rel = gate.get("theory_rel_err")
        lines.append(f"  {'theory_rel_err':<40} "
                     + ("n/a (no settled closed form)" if rel is None
                        else f"{rel:.6g} ratio (full-size run, settled "
                             f"{gate['settled']})"))
    frac = record["failed"] / record["attempted"]
    lines.append(f"  {'failed_frac':<40} {frac:.6g} ratio "
                 f"({record['failed']} of {record['attempted']} Monte Carlo "
                 f"runs)")
    if record["timed_out"]:
        lines.append(f"  {record['timed_out']} repetition(s) cut at the "
                     f"{DEADLINE_S} s deadline, not counted")
    lines.extend(f"  failure: {f}" for f in record["failures"])
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    try:
        if not (ROOT / "src" / "adaptnets" / "__init__.py").is_file():
            raise BenchmarkError(f"no adaptnets sources under {ROOT / 'src'}")
        record = measure(args.workload, args.seed, args.seconds,
                         bool(args.trace), workloads.load_references())
    except (BenchmarkError, workloads.StaleReferences) as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
    print("\n".join(_summary(record)))
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
