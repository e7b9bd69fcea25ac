"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

from __future__ import annotations

import copy
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import adaptnets.strategies as strategies_mod  # noqa: E402
from adaptnets import parse_config, run_experiment, save_result  # noqa: E402

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "schema": 1, "seed": 4, "iters": 60, "runs": 2,
    "graph": {"kind": "ring", "n": 8},
    "model": {"kind": "mse", "m": 2, "noise_var": 0.1,
              "truth": {"kind": "smooth", "modes": 3, "scale": 0.5}},
    "strategy": {"kind": "laplacian_reg", "mu": 0.01, "eta": 1.0},
}


def _outcome(**changes) -> dict:
    base = {"error": None, "steady": 1.0, "per_agent": [0.5, 1.5],
            "theory_rel_err": None, "theory_passed": None}
    return {**base, **changes}


def test_references_match_the_workload_definitions():
    references = workloads.load_references()
    assert set(references) == set(workloads.WORKLOADS)
    stored = {str(s) for s in range(workloads.REFERENCE_SEEDS)}
    for seeds in references.values():
        assert stored <= set(seeds)


def test_problems_accepts_a_matching_outcome():
    ref = {"steady": 1.0, "per_agent": [0.5, 1.5 * (1 + 1e-12)]}
    assert workloads.problems(_outcome(), ref, _outcome()) == []


@pytest.mark.parametrize("outcome, first, expected", [
    (_outcome(steady=math.nan), None, "non-finite"),
    (_outcome(error="diverged: at iteration 3"), None, "diverged"),
    (_outcome(theory_rel_err=0.2, theory_passed=False), None, "theory"),
    (_outcome(per_agent=[0.5, 1.5 + 1e-6]), None, "stored reference"),
    (_outcome(), _outcome(steady=1.0 + 1e-15), "first repetition"),
])
def test_problems_flags_each_kind_of_failure(outcome, first, expected):
    ref = {"steady": 1.0, "per_agent": [0.5, 1.5]}
    found = workloads.problems(outcome, ref, first)
    assert any(expected in f for f in found)


def test_perturbed_reference_drives_failed_frac_above_zero():
    references = workloads.load_references()
    clean = run.measure("smooth", 0, 0.0, False, references)
    assert clean["attempted"] > 0 and clean["failed"] == 0

    perturbed = copy.deepcopy(references)
    perturbed["smooth"]["0"]["per_agent"][7] *= 1.0 + 1e-6
    record = run.measure("smooth", 0, 0.0, False, perturbed)
    assert record["failed"] / record["attempted"] > 0
    assert any("stored reference" in f for f in record["failures"])


def test_repetition_cut_at_the_deadline_is_not_a_failure(monkeypatch):
    real_run_rep = run.run_rep
    calls = []

    def last_one_times_out(workload, seed, mode, env, timeout):
        calls.append(mode)
        if len(calls) < run.MIN_REPS:
            return real_run_rep(workload, seed, mode, env, timeout)
        return {"timed_out": True, "outcome": {"error": "timed out"}}

    monkeypatch.setattr(run, "run_rep", last_one_times_out)
    record = run.measure("sparse_prox", 0, 0.0, False,
                         workloads.load_references())
    assert record["timed_out"] == 1
    assert record["failed"] == 0 and record["attempted"] > 0


def test_traced_run_splits_time_and_changes_no_number(tmp_path):
    plain = run_experiment(parse_config(TINY), parallel=1)
    # the worker count is part of the canonical config but changes no
    # number, so this config meets a cold resolve cache in the harness
    cfg = parse_config({**TINY, "parallel": 3})
    original = strategies_mod.self_learn
    tracer = tracing.Tracer()
    with tracer.installed():
        assert strategies_mod.self_learn is not original
        tracer.wrap("config.resolve", tracing.config_mod.resolve)(cfg)
        traced = tracer.wrap("harness.run_experiment", run_experiment)(
            cfg, parallel=1)
        tracer.wrap("harness.save_result", save_result)(traced, tmp_path)
    assert strategies_mod.self_learn is original

    assert np.array_equal(plain.msd_wo, traced.msd_wo)
    assert np.array_equal(plain.per_agent_msd, traced.per_agent_msd)
    steps = TINY["runs"] * TINY["iters"]
    layers = tracing.layer_metrics(tracer.spans, traced.wall_time, steps, 8)
    assert layers["strategies.step_calls"] == steps
    assert layers["harness.resolve_calls"] == 2
    assert layers["harness.record_us_per_step"] >= 0.0
    assert layers["harness.save_s"] > 0.0
    assert tracer.draw_bytes == TINY["iters"] * 8 * (2 + 1) * 8

    path = tmp_path / "trace.jsonl"
    tracer.write_jsonl(path)
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(rows) == len(tracer.names)
    assert {"id", "name", "start", "end", "parent", "run"} == set(rows[0])
    assert {r["run"] for r in rows if r["name"] == "strategies.social"} == {0, 1}


def test_without_sources_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "smooth",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
