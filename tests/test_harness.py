"""Monte Carlo harness: windows, aggregation, determinism, persistence."""

import dataclasses
import json
import math
import multiprocessing
import os
import pickle
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from adaptnets import (config as config_mod, graphs as graphs_mod, harness,
                       strategies, streaming)
from adaptnets.config import (
    ConfigError,
    data_stream,
    parse_config,
    resolve,
    run_checks,
)
from adaptnets.graphs import (
    CombinationMatrix,
    metropolis_weights,
    random_geometric_graph,
    ring_graph,
)
from adaptnets.harness import (
    DIVERGENCE_FACTOR,
    DivergenceError,
    compare_theory,
    eta_sweep,
    run_experiment,
    save_result,
    save_sweep,
    steady_state,
)
from adaptnets.strategies import StrategyConfig, build_strategy
from adaptnets.streaming import _draw_agent_block, draw_horizon, sigmoid

MC_RTOL = 0.3


def base_config(**overrides):
    doc = {
        "schema": 1,
        "seed": 11,
        "iters": 2000,
        "runs": 4,
        "graph": {"kind": "ring", "n": 10},
        "model": {"kind": "mse", "m": 2, "noise_var": 0.1,
                  "truth": {"kind": "smooth", "modes": 3, "scale": 0.1}},
        "strategy": {"kind": "noncooperative", "mu": 0.01},
    }
    doc.update(overrides)
    return doc


# ---------------------------------------------------------------------------
# Steady-state windows
# ---------------------------------------------------------------------------

def test_steady_state_constant():
    s = steady_state(np.full(100, 3.5))
    assert s.value == pytest.approx(3.5)
    assert s.stderr == pytest.approx(0.0, abs=1e-15)
    assert s.n_points == 10
    assert s.settled


def test_steady_state_ramp_not_settled():
    # flat for 90 points, then climbs by two thirds of its level
    traj = np.concatenate([np.ones(90), np.linspace(1.0, 2.0, 10)])
    s = steady_state(traj)
    assert not s.settled
    assert s.drift_ratio > 0.1


def test_steady_state_across_runs():
    traj = np.vstack([np.full(50, 1.0), np.full(50, 2.0)])
    s = steady_state(traj)
    assert s.value == pytest.approx(1.5)
    # stderr across the two per-run means
    assert s.stderr == pytest.approx(np.std([1.0, 2.0], ddof=1) / np.sqrt(2))


def test_steady_state_window_size():
    s = steady_state(np.arange(95, dtype=float), fraction=0.2)
    assert s.n_points == 19


def test_steady_state_of_one_point_is_not_settled():
    # one point has no slope to measure: drift_ratio stays 0.0, and the
    # window does not read as settled
    s = steady_state(np.arange(10, dtype=float))
    assert (s.value, s.stderr, s.n_points, s.drift_ratio) == (9.0, 0.0, 1, 0.0)
    assert not s.settled
    assert steady_state(np.arange(20, dtype=float), fraction=0.1).settled


def test_one_point_window_warns_and_compare_theory_notes_it():
    # 10 steps and the default steady_window of 0.1 leave one point, far
    # from the consensus MSD the closed form predicts
    cfg = base_config(iters=10, runs=1, graph={"kind": "ring", "n": 6},
                      model={"kind": "mse", "m": 2, "noise_var": 0.1,
                             "truth": {"kind": "piecewise", "sizes": [6]}},
                      strategy={"kind": "diffusion", "mu": 0.01})
    res = run_experiment(cfg)
    steady = res.steady_wo
    assert (steady.value, steady.stderr, steady.n_points, steady.drift_ratio) \
        == (float(res.msd_wo[-1]), 0.0, 1, 0.0)
    assert steady.value > 1000 * res.theory["msd"]
    assert not steady.settled
    assert res.warnings == (
        "steady-state window holds 1 recorded point: drift not measured; "
        "increase iters or steady_window",)
    assert "window not settled; comparison may be premature" in \
        compare_theory(res).notes


def test_steady_state_validation():
    with pytest.raises(ValueError):
        steady_state(np.empty((3, 0)))
    with pytest.raises(ValueError):
        steady_state(np.ones(10), fraction=0.0)
    with pytest.raises(ValueError):
        steady_state(np.ones(10), fraction=1.5)
    with pytest.raises(ValueError):
        steady_state(np.ones((2, 3, 4)))


# ---------------------------------------------------------------------------
# Running experiments
# ---------------------------------------------------------------------------

def test_run_deterministic():
    cfg = base_config(iters=400, runs=2)
    a = run_experiment(cfg)
    b = run_experiment(cfg)
    assert np.array_equal(a.msd_wo, b.msd_wo)
    assert np.array_equal(a.per_agent_msd, b.per_agent_msd)
    assert a.config_hash == b.config_hash


def test_serial_matches_parallel():
    cfg = base_config(iters=300, runs=3)
    serial = run_experiment(cfg, parallel=1)
    parallel = run_experiment(cfg, parallel=3)
    assert np.array_equal(serial.msd_wo, parallel.msd_wo)
    assert np.array_equal(serial.stderr, parallel.stderr)


def test_serial_run_resolves_once(monkeypatch):
    calls = []
    real = harness.resolve

    def counted(config):
        calls.append(config)
        return real(config)

    monkeypatch.setattr(harness, "resolve", counted)
    result = run_experiment(base_config(iters=50, runs=3), parallel=1)
    assert result.n_runs == 3
    assert len(calls) == 1


def test_infeasible_config_fails_before_any_run(monkeypatch):
    def no_run(*args, **kwargs):
        raise AssertionError("a run started")

    monkeypatch.setattr(harness, "_simulate_runs", no_run)
    monkeypatch.setattr(multiprocessing, "Process", no_run)
    cfg = base_config(runs=2, strategy={
        "kind": "subspace_projection", "mu": 0.01,
        "weights": np.eye(10).tolist()})
    for parallel in (1, 2):
        with pytest.raises(ConfigError, match="infeasible"):
            run_experiment(cfg, parallel=parallel)


def test_result_shapes_and_metadata():
    cfg = base_config(iters=500, runs=3, record_every=5)
    res = run_experiment(cfg)
    assert res.msd_wo.shape == (100,)
    assert np.array_equal(res.iterations, np.arange(1, 101) * 5)
    assert res.n_runs == 3
    assert res.n_agents == 10
    assert res.per_agent_msd.shape == (10,)
    assert res.seed == 11
    assert len(res.config_hash) == 64
    assert res.theory["msd_nc"] == pytest.approx(1e-3, rel=1e-12)


def test_record_every_decimates_exactly():
    full = run_experiment(base_config(iters=200, runs=2))
    thin = run_experiment(base_config(iters=200, runs=2, record_every=10))
    assert np.array_equal(full.msd_wo[9::10], thin.msd_wo)


def test_stderr_zero_single_run():
    res = run_experiment(base_config(iters=200, runs=1))
    assert np.all(res.stderr == 0.0)


def _assert_names_worst_agents(err, n_agents):
    errors = err.agent_errors
    assert errors.shape == (n_agents,)
    assert err.value == float(errors.mean())
    worst = np.argsort(errors)[::-1][:3]
    named = str(err).split("worst agents: ")[1]
    assert named == ", ".join(f"{k} ({errors[k]:.3e})" for k in worst)
    assert errors[worst[0]] == np.max(errors)


def test_divergence_raises_with_context():
    cfg = base_config(iters=500, runs=1,
                      strategy={"kind": "noncooperative", "mu": 5.0})
    with pytest.raises(DivergenceError) as info:
        run_experiment(cfg)
    err = info.value
    assert err.iteration > 0
    assert err.value > err.threshold
    assert "mu=5" in str(err)
    _assert_names_worst_agents(err, 10)


def test_parallel_divergence_reaches_the_caller():
    # a worker's DivergenceError crosses the process boundary whole
    cfg = base_config(iters=500, runs=2,
                      strategy={"kind": "noncooperative", "mu": 5.0})
    with pytest.raises(DivergenceError) as info:
        run_experiment(cfg, parallel=2)
    _assert_names_worst_agents(info.value, 10)


def test_parallel_starts_one_worker_fewer_than_processes(monkeypatch):
    # the calling process steps the first group of runs itself
    started = []

    class Recorded(multiprocessing.Process):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(multiprocessing, "Process", Recorded)
    cfg = base_config(iters=100, runs=3)
    run_experiment(cfg, parallel=1)
    assert started == []
    for parallel in (2, 3):
        started.clear()
        run_experiment(cfg, parallel=parallel)
        assert len(started) == parallel - 1


# ---------------------------------------------------------------------------
# Worker processes: the first error stops the rest, and none outlives a call
# ---------------------------------------------------------------------------

fork_only = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="workers see the patched harness only when forked")


def _patched_groups(monkeypatch, worker_group):
    """Group 0 (runs 0..1) runs for real; any other group calls
    worker_group(first, stop) in its worker."""
    real = harness._simulate_runs

    def simulate(res, first, stop):
        if first == 0:
            return real(res, first, stop)
        return worker_group(first, stop)

    monkeypatch.setattr(harness, "_simulate_runs", simulate)


@fork_only
def test_forked_workers_inherit_the_one_resolve(monkeypatch, tmp_path):
    # every process that resolves appends its pid to one file
    log = tmp_path / "resolves"
    real = harness.resolve

    def counted(config):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        return real(config)

    monkeypatch.setattr(harness, "resolve", counted)
    cfg = base_config(iters=50, runs=3)
    serial = run_experiment(cfg, parallel=1)
    log.unlink()
    result = run_experiment(cfg, parallel=2)
    assert log.read_text().split() == [str(os.getpid())]
    assert np.array_equal(result.msd_wo, serial.msd_wo)


@fork_only
def test_first_error_stops_and_reaps_the_other_workers(monkeypatch):
    def simulate(res, first, stop):
        if first == 0:
            raise ValueError("group 0 failed")
        time.sleep(60)

    monkeypatch.setattr(harness, "_simulate_runs", simulate)
    t0 = time.monotonic()
    with pytest.raises(ValueError, match="group 0 failed"):
        run_experiment(base_config(iters=50, runs=4), parallel=2)
    assert time.monotonic() - t0 < 10
    assert multiprocessing.active_children() == []


@fork_only
def test_a_worker_that_dies_without_a_reply_is_named(monkeypatch):
    _patched_groups(monkeypatch, lambda first, stop: os._exit(7))
    with pytest.raises(RuntimeError,
                       match=r"worker for runs 2\.\.3 exited with code 7 "):
        run_experiment(base_config(iters=50, runs=4), parallel=2)
    assert multiprocessing.active_children() == []


class _Unpicklable(Exception):
    def __init__(self, message):
        super().__init__(message)
        self.hook = lambda: None


@fork_only
def test_an_error_that_will_not_pickle_reaches_the_caller(monkeypatch):
    def fail(first, stop):
        raise _Unpicklable(f"runs {first}..{stop - 1} failed")

    _patched_groups(monkeypatch, fail)
    with pytest.raises(RuntimeError,
                       match=r"_Unpicklable: runs 2\.\.3 failed"):
        run_experiment(base_config(iters=50, runs=4), parallel=2)
    assert multiprocessing.active_children() == []


def _in_fresh_interpreter(code: str) -> str:
    source = os.path.dirname(os.path.dirname(harness.__file__))
    path = filter(None, [source, os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip().splitlines()[-1]


@pytest.mark.parametrize("parallel, loaded", [
    (1, []), (2, ["multiprocessing"])])
def test_worker_modules_load_only_for_parallel_runs(parallel, loaded):
    cfg = json.dumps(base_config(iters=50, runs=2))
    found = _in_fresh_interpreter(
        "import json, sys\n"
        "from adaptnets import run_experiment\n"
        f"run_experiment(json.loads({cfg!r}), parallel={parallel})\n"
        "print(json.dumps([m for m in ('multiprocessing', "
        "'concurrent.futures') if m in sys.modules]))\n")
    assert json.loads(found) == loaded


@pytest.mark.parametrize("method", ["spawn", "forkserver"])
def test_spawned_workers_give_the_serial_numbers(method):
    cfg = json.dumps(base_config(iters=200, runs=3))
    found = _in_fresh_interpreter(
        "import json, multiprocessing\n"
        "import numpy as np\n"
        "from adaptnets import run_experiment\n"
        f"multiprocessing.set_start_method({method!r})\n"
        f"cfg = json.loads({cfg!r})\n"
        "serial = run_experiment(cfg, parallel=1)\n"
        "spawned = run_experiment(cfg, parallel=2)\n"
        "print(json.dumps([np.array_equal(serial.msd_wo, spawned.msd_wo), "
        "np.array_equal(serial.per_agent_msd, spawned.per_agent_msd), "
        "multiprocessing.active_children() == []]))\n")
    assert json.loads(found) == [True, True, True]


_PATH4 = {"n": 4, "edges": [[0, 1, 1.0], [1, 2, 1.0], [2, 3, 1.0]]}
_TRUTH4 = {"M": 2, "blocks": [[0.0, 1.0]] * 4}
_EDITED_FILES = pytest.mark.parametrize("name, edited", [
    ("graph.json", {"n": 4, "edges": _PATH4["edges"] + [[3, 0, 1.0],
                                                        [0, 2, 1.0]]}),
    ("truth.json", {"M": 2, "blocks": [[5.0, -3.0]] * 4}),
])


def _file_config(tmp_path, runs=2):
    """The path of a diffusion config on graph.json and truth.json, both
    written afresh."""
    doc = base_config(iters=100, runs=runs,
                      graph={"kind": "file", "path": "graph.json"},
                      strategy={"kind": "diffusion", "mu": 0.01})
    doc["model"]["truth"] = {"kind": "file", "path": "truth.json"}
    cfg_path = tmp_path / "experiment.json"
    cfg_path.write_text(json.dumps(doc))
    (tmp_path / "graph.json").write_text(json.dumps(_PATH4))
    (tmp_path / "truth.json").write_text(json.dumps(_TRUTH4))
    return cfg_path


@_EDITED_FILES
def test_a_run_reads_the_files_its_config_names_as_they_are_now(
        tmp_path, name, edited):
    cfg_path = _file_config(tmp_path)
    cfg = config_mod.load_config(cfg_path)
    before = run_experiment(cfg).msd_wo
    (tmp_path / name).write_text(json.dumps(edited))
    fresh = np.array(json.loads(_in_fresh_interpreter(
        "import json\n"
        "from adaptnets import run_experiment\n"
        f"print(json.dumps(run_experiment({str(cfg_path)!r}).msd_wo.tolist()))"
        "\n")))
    assert not np.array_equal(before, fresh)
    # the same parsed config, and the file loaded again
    for config in (cfg, config_mod.load_config(cfg_path)):
        assert np.array_equal(run_experiment(config).msd_wo, fresh)


@pytest.mark.parametrize("method", ["spawn", "forkserver"])
@_EDITED_FILES
def test_workers_step_the_files_the_parent_read(tmp_path, method, name,
                                                edited):
    # the file is rewritten after the parent's resolve, before any worker
    # starts: every worker steps the experiment the parent resolved
    cfg_path = _file_config(tmp_path, runs=4)
    found = _in_fresh_interpreter(
        "import json, multiprocessing, pathlib\n"
        "import numpy as np\n"
        "from adaptnets import harness, run_experiment\n"
        f"multiprocessing.set_start_method({method!r})\n"
        f"cfg = {str(cfg_path)!r}\n"
        "serial = run_experiment(cfg, parallel=1)\n"
        "run_groups = harness._run_groups\n"
        "def rewritten(groups, bounds):\n"
        f"    pathlib.Path({str(tmp_path / name)!r}).write_text("
        f"{json.dumps(edited)!r})\n"
        "    return run_groups(groups, bounds)\n"
        "harness._run_groups = rewritten\n"
        "parallel = run_experiment(cfg, parallel=2)\n"
        "harness._run_groups = run_groups\n"
        "edited = run_experiment(cfg, parallel=1)\n"
        "print(json.dumps([np.array_equal(serial.msd_wo, parallel.msd_wo), "
        "np.array_equal(serial.per_agent_msd, parallel.per_agent_msd), "
        "serial.config_hash == parallel.config_hash, "
        "np.array_equal(serial.msd_wo, edited.msd_wo), "
        "multiprocessing.active_children() == []]))\n")
    assert json.loads(found) == [True, True, True, False, True]


def test_overlapping_divergence_names_worst_agents():
    cfg = base_config(iters=500, runs=1, model={
        "kind": "mse", "noise_var": 0.1,
        "truth": {"kind": "global_random", "n_variables": 10}},
        strategy={"kind": "overlapping", "mu": 2.0,
                  "interests": [[k, (k + 1) % 10] if k % 2 else [k]
                                for k in range(10)]})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DivergenceError) as info:
            run_experiment(cfg)
    err = info.value
    assert err.value > err.threshold
    _assert_names_worst_agents(err, 10)
    assert _divergence_alone(cfg, err)


def _divergence_alone(cfg, err):
    """Whether the per-run loop, which silences no floating-point warning,
    meets no warning on its way to the same divergence as err."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ref, _ = _oracle_divergence(resolve(parse_config(cfg)))
    return _same_divergence(err, ref)


def test_prox_divergence_is_pinned():
    # far past stability the error crosses the threshold at iteration 30,
    # as it did when the prox minimized over every interval candidate (the
    # oracle in test_strategies.py); the finite states on the way raise no
    # floating-point warnings, in the engine or stepped alone
    cfg = base_config(
        seed=3, iters=50, runs=1, graph={"kind": "ring", "n": 8},
        model={"kind": "mse", "m": 2, "noise_var": 0.1,
               "truth": {"kind": "piecewise", "sizes": [4, 4]}},
        strategy={"kind": "prox_l1", "mu": 1.5, "eta": 1.0, "rho": 0.1})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DivergenceError) as info:
            run_experiment(cfg)
    assert info.value.iteration == 30
    assert info.value.value == 2256932.850029656
    assert _divergence_alone(cfg, info.value)


def test_logistic_divergence_raises_no_warnings():
    # a ridge step past stability (mu * reg = 2.5) grows every run's error
    # geometrically until the first crosses, in the engine and alone
    cfg = base_config(
        iters=300, runs=3, graph={"kind": "ring", "n": 8},
        model={"kind": "logistic", "m": 2, "reg": 0.5,
               "truth": {"kind": "piecewise", "sizes": [4, 4]}},
        strategy={"kind": "diffusion", "mu": 5.0})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DivergenceError) as info:
            run_experiment(cfg)
    _assert_names_worst_agents(info.value, 8)
    assert _divergence_alone(cfg, info.value)


def test_noiseless_convergence():
    cfg = base_config(
        iters=3000, runs=1,
        model={"kind": "mse", "m": 2, "noise_var": 0.0,
               "truth": {"kind": "smooth", "modes": 3, "scale": 1.0}},
        strategy={"kind": "noncooperative", "mu": 0.05},
    )
    res = run_experiment(cfg)
    assert res.msd_wo[-1] <= 1e-10 * res.msd_wo[0]


def test_msd_scales_with_noise_power():
    quiet = run_experiment(base_config(iters=4000, runs=6, seed=3))
    loud_cfg = base_config(iters=4000, runs=6, seed=3)
    loud_cfg["model"]["noise_var"] = 0.2
    loud = run_experiment(loud_cfg)
    ratio = loud.steady_wo.value / quiet.steady_wo.value
    assert ratio == pytest.approx(2.0, rel=MC_RTOL)


def test_diffusion_beats_noncooperative_on_common_task():
    n = 8
    common = {"kind": "constant", "scale": 0.5}
    alone = run_experiment(base_config(
        iters=4000, runs=4,
        graph={"kind": "complete", "n": n},
        model={"kind": "mse", "m": 2, "noise_var": 0.1, "truth": common},
    ))
    together = run_experiment(base_config(
        iters=4000, runs=4,
        graph={"kind": "complete", "n": n},
        model={"kind": "mse", "m": 2, "noise_var": 0.1, "truth": common},
        strategy={"kind": "diffusion", "mu": 0.01},
    ))
    gain = together.steady_wo.value / alone.steady_wo.value
    assert 0.5 / n < gain < 2.5 / n


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------

def test_eta_sweep_zero_point_reduces_to_noncooperative():
    cfg = base_config(iters=600, runs=2,
                      strategy={"kind": "laplacian_reg", "mu": 0.01,
                                "eta": 1.0})
    points = eta_sweep(cfg, etas=[0.0, 0.5])
    nc = run_experiment(base_config(iters=600, runs=2))
    assert points[0].eta == 0.0
    assert points[0].bias_theory == pytest.approx(0.0, abs=1e-20)
    assert points[0].var_theory == pytest.approx(1e-3, rel=1e-9)
    assert points[0].msd_sim == pytest.approx(nc.steady_wo.value, rel=1e-12)


def test_eta_sweep_uses_config_grid():
    cfg = base_config(iters=400, runs=2,
                      strategy={"kind": "laplacian_reg", "mu": 0.01,
                                "eta": 1.0},
                      eta_grid=[0.0, 0.5, 2.0])
    points = eta_sweep(cfg)
    assert [p.eta for p in points] == [0.0, 0.5, 2.0]
    assert all(np.isfinite(p.var_theory) for p in points)


def test_eta_sweep_runs_models_without_closed_forms():
    # a logistic model gets no closed form: its simulated MSD is still
    # swept, and the theory columns are NaN
    cfg = base_config(iters=300, runs=2, graph={"kind": "ring", "n": 8},
                      model={"kind": "logistic", "m": 2,
                             "truth": {"kind": "smooth", "modes": 3,
                                       "scale": 0.5}},
                      strategy={"kind": "laplacian_reg", "mu": 0.01,
                                "eta": 1.0})
    points = eta_sweep(cfg, etas=[0.0, 0.5])
    assert [p.eta for p in points] == [0.0, 0.5]
    assert all(np.isfinite(p.msd_sim) for p in points)
    assert all(np.isnan(p.var_theory) and np.isnan(p.bias_theory)
               for p in points)


def test_eta_sweep_rejects_wrong_strategy():
    with pytest.raises(ConfigError):
        eta_sweep(base_config(), etas=[0.0, 1.0])


def test_eta_sweep_needs_grid():
    cfg = base_config(strategy={"kind": "laplacian_reg", "mu": 0.01,
                                "eta": 1.0})
    with pytest.raises(ConfigError):
        eta_sweep(cfg)


# ---------------------------------------------------------------------------
# Theory comparison
# ---------------------------------------------------------------------------

def test_compare_theory_tolerance_arithmetic():
    res = run_experiment(base_config(iters=300, runs=2))
    level = res.steady_wo.value
    close = compare_theory(res, tolerance=0.10,
                           predictions={"msd": level * 1.05})
    assert close.passed
    assert close.entries[0].rel_error == pytest.approx(0.05 / 1.05, rel=1e-9)
    far = compare_theory(res, tolerance=0.10,
                         predictions={"msd": level * 1.3})
    assert not far.passed


def test_compare_theory_uses_attached_predictions():
    res = run_experiment(base_config(iters=6000, runs=6))
    comp = compare_theory(res, tolerance=0.15)
    names = [e.name for e in comp.entries]
    assert "msd" in names
    assert comp.passed


def test_compare_theory_compares_the_variance_around_the_limit_point():
    res = run_experiment(base_config(
        iters=300, runs=2,
        strategy={"kind": "laplacian_reg", "mu": 0.01, "eta": 1.0}))
    comp = compare_theory(res)
    assert [e.name for e in comp.entries] == ["msd", "variance"]
    variance = comp.entries[1]
    simulated = res.steady_wstar.value
    predicted = res.theory["variance"]["total"]
    assert (variance.simulated, variance.predicted) == (simulated, predicted)
    assert variance.rel_error == abs(simulated - predicted) / abs(predicted)


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------

def test_save_result_roundtrip(tmp_path):
    res = run_experiment(base_config(iters=300, runs=2))
    csv_path, json_path = save_result(res, tmp_path)
    rows = np.genfromtxt(csv_path, delimiter=",", names=True)
    assert rows.dtype.names == ("iter", "msd_wo", "msd_wstar", "stderr")
    assert np.allclose(rows["msd_wo"], res.msd_wo)
    doc = json.loads(Path(json_path).read_text())
    assert doc["config_hash"] == res.config_hash
    assert doc["steady"]["msd_wo"]["value"] == res.steady_wo.value
    assert doc["config"]["seed"] == 11


def test_wstar_equals_wo_without_regularization():
    # no coupling: the limit point is the truth itself
    res = run_experiment(base_config(iters=50, runs=1))
    assert np.allclose(res.msd_wstar, res.msd_wo, rtol=1e-12, atol=0)


def test_save_result_empty_wstar_column(tmp_path):
    # no closed-form limit point for the proximal strategy
    cfg = base_config(iters=50, runs=1,
                      strategy={"kind": "prox_l1", "mu": 0.01, "eta": 0.2,
                                "rho": 0.5})
    res = run_experiment(cfg)
    assert res.msd_wstar is None
    csv_path, _ = save_result(res, tmp_path)
    line = Path(csv_path).read_text().splitlines()[1]
    fields = line.strip().split(",")
    assert fields[2] == ""


def test_save_result_records_wstar_for_regularized(tmp_path):
    cfg = base_config(iters=300, runs=2,
                      strategy={"kind": "laplacian_reg", "mu": 0.01,
                                "eta": 0.5})
    res = run_experiment(cfg)
    assert res.msd_wstar is not None
    csv_path, json_path = save_result(res, tmp_path)
    rows = np.genfromtxt(csv_path, delimiter=",", names=True)
    assert np.allclose(rows["msd_wstar"], res.msd_wstar)
    doc = json.loads(Path(json_path).read_text())
    assert doc["steady"]["msd_wstar"]["value"] == res.steady_wstar.value


def _result_csv_by_rows(result) -> str:
    """result.csv as save_result wrote it one row at a time, through
    repr(float(value)) per entry: the oracle of its one-join writer."""
    lines = ["iter,msd_wo,msd_wstar,stderr\n"]
    for i in range(len(result.iterations)):
        wstar = ("" if result.msd_wstar is None
                 else repr(float(result.msd_wstar[i])))
        lines.append(f"{int(result.iterations[i])},"
                     f"{repr(float(result.msd_wo[i]))},"
                     f"{wstar},{repr(float(result.stderr[i]))}\n")
    return "".join(lines)


@pytest.mark.parametrize("strategy", [
    {"kind": "laplacian_reg", "mu": 0.01, "eta": 0.5},
    {"kind": "prox_l1", "mu": 0.01, "eta": 0.2, "rho": 0.5},
])
def test_save_result_csv_bytes_match_the_row_writer(tmp_path, strategy):
    # with msd_wstar (laplacian_reg) and without (prox_l1); then with
    # values whose repr is unusual: subnormal, huge, signed zero, inf, nan
    res = run_experiment(base_config(iters=120, runs=2, strategy=strategy))
    assert (res.msd_wstar is None) == (strategy["kind"] == "prox_l1")
    odd = np.array([5e-324, 1e308, -0.0, np.inf, np.nan, 0.1 + 0.2])
    edited = res.msd_wo.copy()
    edited[:odd.size] = odd
    for result in (res, dataclasses.replace(res, msd_wo=edited,
                                            stderr=edited[::-1].copy())):
        csv_path, _ = save_result(result, tmp_path)
        written = Path(csv_path).read_bytes()
        assert written == _result_csv_by_rows(result).encode()
    assert written.count(b"\n") == len(res.iterations) + 1
    assert all(f",{v!r},".encode() in written for v in odd.tolist())


def test_save_sweep_roundtrip(tmp_path):
    cfg = base_config(iters=300, runs=2,
                      strategy={"kind": "laplacian_reg", "mu": 0.01,
                                "eta": 1.0})
    points = eta_sweep(cfg, etas=[0.0, 1.0, 4.0])
    csv_path, json_path = save_sweep(points, tmp_path)
    header = Path(csv_path).read_text().splitlines()[0].strip()
    assert header == "eta,msd_sim,var_sim,var_theory,bias_theory"
    doc = json.loads(Path(json_path).read_text())
    assert len(doc["points"]) == 3
    assert doc["argmin_eta"] in [0.0, 1.0, 4.0]
    assert doc["min_msd_sim"] == min(p.msd_sim for p in points)


def _refuse_constant(token):
    raise ValueError(f"bare {token} token in JSON")


@pytest.mark.parametrize("strategy", [
    {"kind": "prox_l1", "mu": 0.01, "eta": 1.0},
    {"kind": "laplacian_reg", "mu": 0.01, "eta": 1.0},
])
def test_sweep_json_is_strict_json(tmp_path, strategy):
    # prox_l1 has no variance or bias closed form and no W*, so four
    # columns have no value: sweep.json holds null there, the points NaN
    cfg = base_config(iters=200, runs=2, graph={"kind": "ring", "n": 6},
                      strategy=strategy)
    points = eta_sweep(cfg, etas=[0.0, 1.0])
    _, json_path = save_sweep(points, tmp_path)
    doc = json.loads(Path(json_path).read_text(),
                     parse_constant=_refuse_constant)
    columns = ("var_sim", "var_stderr", "var_theory", "bias_theory")
    for point, row in zip(points, doc["points"]):
        for name in columns:
            value = getattr(point, name)
            assert row[name] == (None if np.isnan(value) else value)
    empty = strategy["kind"] == "prox_l1"
    assert all((row[name] is None) == empty
               for row in doc["points"] for name in columns)


def test_run_accepts_parsed_config():
    cfg = parse_config(base_config(iters=100, runs=1))
    res = run_experiment(cfg)
    assert res.msd_wo.shape == (100,)


def test_run_of_a_parsed_config_parses_nothing(monkeypatch):
    calls = []
    real = config_mod.parse_config

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    cfg = parse_config(base_config(iters=50, runs=3))
    monkeypatch.setattr(harness, "parse_config", counted)
    monkeypatch.setattr(config_mod, "parse_config", counted)
    run_experiment(cfg, parallel=1)
    assert calls == []


def test_results_share_no_state_with_each_other_or_the_config():
    cfg = parse_config(base_config(
        iters=200, runs=2, graph={"kind": "geometric", "n": 10, "radius": 0.6},
        strategy={"kind": "laplacian_reg", "mu": 0.01, "eta": 0.5}))
    key = hash(cfg)
    r1 = run_experiment(cfg)
    theory = json.loads(json.dumps(r1.theory))
    r1.theory["msd"] = -1.0
    r1.theory["variance"]["modes"].clear()
    r2 = run_experiment(cfg)
    assert r2.theory == theory
    r2.effective_config["graph"]["radius"] = 0.9
    r2.effective_config["strategy"]["eta"] = 2.0
    assert cfg.graph["radius"] == 0.6 and cfg.strategy["eta"] == 0.5
    assert hash(cfg) == key
    assert run_experiment(cfg).effective_config == cfg.canonical()


def test_the_parsed_document_does_not_reach_the_config():
    doc = base_config(iters=50, runs=1)
    cfg = parse_config(doc)
    key, before = hash(cfg), run_experiment(cfg)
    doc["model"]["truth"]["modes"] = 6
    doc["strategy"]["mu"] = 0.5
    assert cfg.model["truth"]["modes"] == 3 and cfg.strategy["mu"] == 0.01
    assert hash(cfg) == key
    assert np.array_equal(run_experiment(cfg).msd_wo, before.msd_wo)


# ---------------------------------------------------------------------------
# The reduction lattice on non-normal weights
# ---------------------------------------------------------------------------

def _assert_projection_runs_as_diffusion(weights, assume_mixing=False):
    """subspace_projection on the consensus subspace with scalar weights A
    runs bit for bit as diffusion with A, wherever diffusion's condition
    rows and its semi_convergent self-test pass."""
    base = {"schema": 1, "seed": 3, "iters": 60, "runs": 2,
            "graph": {"kind": "complete", "n": len(weights)},
            "model": {"kind": "mse", "m": 2, "noise_var": 0.1,
                      "truth": {"kind": "constant"}}}
    diffusion = {"kind": "diffusion", "mu": 0.05, "weights": weights.tolist()}
    projection = dict(diffusion, kind="subspace_projection",
                      subspace="consensus")
    failed = [name for name, ok, _ in
              run_checks(parse_config(dict(base, strategy=diffusion)))
              if not ok]
    if assume_mixing:
        assume(not failed)
    assert not failed
    ref = run_experiment(dict(base, strategy=diffusion))
    got = run_experiment(dict(base, strategy=projection))
    assert np.array_equal(got.msd_wo, ref.msd_wo)
    assert np.array_equal(got.per_agent_msd, ref.per_agent_msd)


def test_projection_runs_non_normal_weights_as_diffusion():
    # A is not normal: rho(A - P_U) = 0.79, yet ||A - P_U|| = 0.94 and
    # ||A^50 - P_U|| = 9.7e-5 > 10 * 0.94 * 0.79^49, so the powers decay
    # slower than rho^i at first; A^i -> P_U all the same
    p = [0, 3, 2, 5, 6, 7, 4, 1]
    q = [7, 1, 3, 0, 2, 4, 6, 5]
    eye = np.eye(8)
    _assert_projection_runs_as_diffusion(0.75 * eye[p] + 0.25 * eye[q])


@settings(max_examples=30, deadline=None)
@given(n=st.integers(3, 9), data=st.data())
def test_projection_runs_permutation_mixtures_as_diffusion(n, data):
    # convex combinations of 2-3 permutation matrices: doubly stochastic,
    # and mostly not normal
    shares = data.draw(st.lists(st.integers(1, 6), min_size=2, max_size=3))
    eye = np.eye(n)
    weights = sum(share / sum(shares)
                  * eye[data.draw(st.permutations(range(n)))]
                  for share in shares)
    _assert_projection_runs_as_diffusion(weights, assume_mixing=True)


# ---------------------------------------------------------------------------
# The zero-padded overlapping state against the tuple-of-blocks run loop
# ---------------------------------------------------------------------------

def _agent_gradient(model, w_k, u, d):
    """One agent's stochastic gradient, written out per agent."""
    if model.kind == "mse":
        return -u * (d - u @ w_k)
    return model.reg * w_k - d * u * sigmoid(-d * (u @ w_k))


def _tuple_of_blocks_run(res, run):
    """One Monte Carlo run with the state kept as a tuple of per-agent
    vectors, as the harness ran overlapping strategies before the network
    state became one zero-padded (N, M_max) array: per-agent draws,
    gradients and errors, and the per-variable combination W_v @ psi_v.
    The oracle of the padded path."""
    cfg = res.config
    strategy, model = res.strategy, res.model
    interest, var_weights = strategy.interest, strategy.var_weights
    n = res.graph.n_agents
    horizon, every = cfg.iters, cfg.record_every
    mu = strategy.mu

    streams = [data_stream(cfg.seed, run, k) for k in range(n)]
    resp = np.empty((horizon, n))
    regs_blocks = []
    for k in range(n):
        r_k, resp[:, k] = _draw_agent_block(model, k, streams[k], horizon)
        regs_blocks.append(r_k)

    def social(psi):
        out = [np.empty_like(b) for b in psi]
        positions = interest.positions
        for v, agents in enumerate(interest.by_variable):
            vals = np.array([psi[k][positions[k][v]] for k in agents])
            mixed = var_weights[v] @ vals
            for j, k in enumerate(agents):
                out[k][positions[k][v]] = mixed[j]
        return tuple(out)

    def sq_errors(w, reference):
        return np.array([float(np.dot(b - r, b - r))
                         for b, r in zip(w, reference)])

    truth_ref = model.truth.blocks
    w = tuple(np.zeros(m) for m in strategy.block_sizes)
    start_err = sq_errors(w, truth_ref)
    threshold = DIVERGENCE_FACTOR * max(float(start_err.mean()), 1.0)

    traj_wo = np.empty(horizon // every)
    window_start = horizon - math.ceil(cfg.steady_window * horizon)
    agent_acc = np.zeros(n)
    agent_count = 0
    rec = 0
    for i in range(horizon):
        psi = tuple(w[k] - mu * _agent_gradient(model, w[k], regs_blocks[k][i],
                                                float(resp[i, k]))
                    for k in range(n))
        w = social(psi)
        in_window = i >= window_start
        record = (i + 1) % every == 0
        if not (in_window or record):
            continue
        sq = sq_errors(w, truth_ref)
        if in_window:
            agent_acc += sq
            agent_count += 1
        if record:
            msd = float(sq.mean())
            traj_wo[rec] = msd
            rec += 1
            assert np.isfinite(msd) and msd <= threshold
    return {"msd_wo": traj_wo, "per_agent": agent_acc / max(agent_count, 1)}


def _random_interests(adjacency, rng, max_block=4):
    """Interests in which every variable's agents are connected in the
    graph, 1 to max_block variables per agent, and the first shared variable
    grown towards 5 agents."""
    n = adjacency.shape[0]
    groups = [[k] for k in range(n) if rng.random() < 0.5]
    load = np.zeros(n, dtype=int)
    for g in groups:
        load[g] += 1
    for s in range(int(rng.integers(n // 2, n + 1))):
        room = np.flatnonzero(load < max_block)
        if room.size == 0:
            break
        group = [int(rng.choice(room))]
        target = 5 if s == 0 else int(rng.integers(2, 5))
        while len(group) < target:
            frontier = sorted({int(l) for k in group
                               for l in np.flatnonzero(adjacency[k])
                               if l not in group and load[l] < max_block})
            if not frontier:
                break
            group.append(int(rng.choice(frontier)))
        load[group] += 1
        groups.append(group)
    groups += [[k] for k in np.flatnonzero(load == 0)]
    interests = [[] for _ in range(n)]
    for v, group in enumerate(groups):
        for k in group:
            interests[k].append(v)
    for row in interests:
        rng.shuffle(row)
    return [[int(v) for v in row] for row in interests], len(groups)


def _ragged_case(seed):
    rng = np.random.default_rng((2024, seed))
    n = int(rng.integers(5, 13))
    if seed % 2:
        graph = random_geometric_graph(n, 0.5, rng)
    else:
        graph = ring_graph(n)
    adj = graph.adjacency
    edges = [[int(k), int(l), float(adj[k, l])]
             for k, l in zip(*np.nonzero(np.triu(adj)))]
    interests, n_vars = _random_interests(adj, rng)
    truth = {"kind": "global_random", "n_variables": n_vars}
    model = ({"kind": "mse", "noise_var": 0.1, "truth": truth}
             if seed % 4 < 2 else
             {"kind": "logistic", "reg": 0.05, "truth": truth})
    return parse_config({
        "schema": 1, "seed": seed, "iters": 120, "runs": 1,
        "record_every": int(rng.integers(1, 4)), "steady_window": 0.25,
        "graph": {"kind": "edges", "n": n, "edges": edges},
        "model": model,
        "strategy": {"kind": "overlapping", "mu": 0.05,
                     "interests": interests}})


RAGGED_CASES = 56
RAGGED_RTOL = 1e-12


def test_padded_overlapping_matches_tuple_of_blocks_oracle():
    sizes_seen, kinds_seen, graphs_seen, widest = set(), set(), set(), 0
    for seed in range(RAGGED_CASES):
        cfg = _ragged_case(seed)
        res = resolve(cfg)
        strategy, model = res.strategy, res.model
        sizes_seen.update(strategy.block_sizes)
        kinds_seen.add(model.kind)
        graphs_seen.add(seed % 2)
        widest = max(widest, max(map(len, strategy.interest.by_variable)))

        got = harness._simulate_runs(res, 0, 1)
        ref = _tuple_of_blocks_run(res, 0)
        assert got["msd_wstar"] is None
        for key in ("msd_wo", "per_agent"):
            np.testing.assert_allclose(got[key][0], ref[key], rtol=RAGGED_RTOL,
                                       atol=0.0, err_msg=f"seed {seed} {key}")

        # pad entries stay exactly 0 after every step
        pad = np.arange(model.truth.padded.shape[1]) >= \
            np.array(strategy.block_sizes)[:, None]
        streams = [data_stream(cfg.seed, 0, k) for k in range(res.graph.n_agents)]
        block = draw_horizon(model, [streams], cfg.iters).run(0)
        assert np.all(block.regressors[:, pad] == 0.0)
        w = np.zeros(model.truth.padded.shape)
        for i in range(cfg.iters):
            w = strategy.social(strategies.self_learn(
                w, model, block.regressors[i], block.responses[i], strategy.mu))
            assert np.all(w[pad] == 0.0), f"seed {seed} step {i}"
    assert sizes_seen == {1, 2, 3, 4}
    assert kinds_seen == {"mse", "logistic"}
    assert graphs_seen == {0, 1}
    assert widest > 3


# ---------------------------------------------------------------------------
# The batched engine against the per-run loop
# ---------------------------------------------------------------------------

def _per_run_oracle(res, run):
    """One Monte Carlo run stepped alone on its (N, M_max) state, with its
    errors computed after every step: the harness's run loop before runs
    were stepped in chunks, kept as the oracle of the batched engine."""
    cfg = res.config
    strategy, model = res.strategy, res.model
    n = res.graph.n_agents
    horizon, every = cfg.iters, cfg.record_every

    streams = [data_stream(cfg.seed, run, k) for k in range(n)]
    block = draw_horizon(model, [streams], horizon).run(0)

    # the state starts at 0; pad entries are 0 on both sides and add nothing
    truth, wstar_ref = model.truth.padded, res.w_star
    w = np.zeros(truth.shape)
    start_err = np.einsum("km,km->k", truth, truth)
    threshold = DIVERGENCE_FACTOR * max(float(start_err.mean()), 1.0)

    n_rec = horizon // every
    traj_wo = np.empty(n_rec)
    traj_ws = np.empty(n_rec) if wstar_ref is not None else None
    window_start = horizon - math.ceil(cfg.steady_window * horizon)
    agent_acc = np.zeros(n)
    agent_count = 0

    rec = 0
    for i in range(horizon):
        w = strategy.social(strategies.self_learn(
            w, model, block.regressors[i], block.responses[i], strategy.mu))
        in_window = i >= window_start
        record = (i + 1) % every == 0
        if not (in_window or record):
            continue
        diff = w - truth
        sq = np.einsum("km,km->k", diff, diff)
        if in_window:
            agent_acc += sq
            agent_count += 1
        if record:
            msd = float(sq.mean())
            traj_wo[rec] = msd
            if traj_ws is not None:
                d2 = w - wstar_ref
                traj_ws[rec] = float(np.einsum("km,km->", d2, d2) / n)
            rec += 1
            if not np.isfinite(msd) or msd > threshold:
                raise DivergenceError(i + 1, msd, threshold,
                                      strategy.mu, strategy.eta, sq, run)
    return {
        "msd_wo": traj_wo,
        "msd_wstar": traj_ws,
        "per_agent": agent_acc / max(agent_count, 1),
    }


ENGINE_STRATEGIES = {
    "noncooperative": {"kind": "noncooperative", "mu": 0.05},
    "diffusion": {"kind": "diffusion", "mu": 0.05},
    "laplacian_reg": {"kind": "laplacian_reg", "mu": 0.05, "eta": 0.5},
    "spectral_reg": {"kind": "spectral_reg", "mu": 0.05, "eta": 0.2,
                     "kernel": {"kind": "polynomial",
                                "coefficients": [0.0, 1.0, 0.3]}},
    "prox_l1": {"kind": "prox_l1", "mu": 0.05, "eta": 1.0, "rho": 0.1},
    "subspace_projection": {"kind": "subspace_projection", "mu": 0.05,
                            "subspace": {"clusters": [6, 6]}},
    "clustered_l1": {"kind": "clustered", "mu": 0.05, "eta": 1.0,
                     "clusters": [6, 6], "rho": 0.1},
    "clustered_quadratic": {"kind": "clustered", "mu": 0.05, "eta": 0.5,
                            "clusters": [6, 6], "penalty": "quadratic"},
    "clustered_eta0": {"kind": "clustered", "mu": 0.05, "clusters": [6, 6]},
}
ENGINE_MODELS = {
    # every step recorded, and one record every 3 steps
    "mse": ({"kind": "mse", "m": 2, "noise_var": 0.1}, 1),
    "logistic": ({"kind": "logistic", "m": 2, "reg": 0.05}, 3),
}
ENGINE_GRAPHS = {
    "ring": {"kind": "ring", "n": 12},
    "geometric": {"kind": "geometric", "n": 12, "radius": 0.6},
}
ENGINE_RUNS = 3


def _engine_case(strategy, model, graph):
    spec, every = ENGINE_MODELS[model]
    # 150 steps: two full record blocks and a part, the window across one;
    # seed 6 lays the geometric graph out with both clusters connected
    return parse_config({
        "schema": 1, "seed": 6, "iters": 150, "runs": ENGINE_RUNS,
        "record_every": every, "steady_window": 0.3,
        "graph": ENGINE_GRAPHS[graph],
        "model": {**spec, "truth": {"kind": "piecewise", "sizes": [6, 6],
                                    "scale": 0.5}},
        "strategy": ENGINE_STRATEGIES[strategy]})


def _chunk_budget(cfg, runs_per_chunk):
    """CHUNK_BYTES that cuts cfg's runs into chunks of runs_per_chunk."""
    n, m = cfg.graph["n"], cfg.model["m"]
    return runs_per_chunk * cfg.iters * n * (m + 1) * 8


def _chunked(res, chunks):
    """The engine's output for runs stepped in the given chunks."""
    parts = [harness._simulate_chunk(res, runs) for runs in chunks]
    return {key: None if parts[0][key] is None
            else np.concatenate([part[key] for part in parts])
            for key in parts[0]}


def _assert_runs_equal(got, refs, compare=np.array_equal):
    for key in ("msd_wo", "msd_wstar", "per_agent"):
        if refs[0][key] is None:
            assert got[key] is None
            continue
        assert got[key].shape == (len(refs),) + refs[0][key].shape
        for r, ref in enumerate(refs):
            assert compare(got[key][r], ref[key]), (key, r)


@pytest.mark.parametrize("graph", sorted(ENGINE_GRAPHS))
@pytest.mark.parametrize("model", sorted(ENGINE_MODELS))
@pytest.mark.parametrize("strategy", sorted(ENGINE_STRATEGIES))
def test_engine_matches_per_run_oracle(strategy, model, graph, monkeypatch):
    cfg = _engine_case(strategy, model, graph)
    res = resolve(cfg)
    refs = [_per_run_oracle(res, r) for r in range(ENGINE_RUNS)]
    chunks = []
    chunk = harness._simulate_chunk
    monkeypatch.setattr(harness, "_simulate_chunk", lambda res, runs: (
        chunks.append(len(runs)) or chunk(res, runs)))
    for per_chunk in (None, 1, 2):
        if per_chunk is not None:
            monkeypatch.setattr(harness, "CHUNK_BYTES",
                                _chunk_budget(cfg, per_chunk))
        got = harness._simulate_runs(res, 0, ENGINE_RUNS)
        _assert_runs_equal(got, refs)
    assert chunks == [3, 1, 1, 1, 2, 1]


def _block_weight_case():
    """The ring subspace_projection case, its strategy replaced by one on a
    block combination matrix (not kron(A, I_M) by declaration) where the
    config's weights are scalar."""
    res = resolve(_engine_case("subspace_projection", "mse", "ring"))
    weights = CombinationMatrix(
        np.kron(metropolis_weights(res.graph).matrix, np.eye(2)),
        block_sizes=(2,) * 12)
    strategy = build_strategy(
        StrategyConfig(kind="subspace_projection", mu=0.05,
                       payload={"weights": weights}), res.graph, res.model)
    assert not strategy.combination.is_scalar
    return dataclasses.replace(res, strategy=strategy)


def test_engine_matches_oracle_with_block_weights():
    # a block combination matrix, mixed as one matmul per run
    res = _block_weight_case()
    refs = [_per_run_oracle(res, r) for r in range(ENGINE_RUNS)]
    for chunks in ([range(3)], [range(1), range(1, 3)],
                   [range(r, r + 1) for r in range(3)]):
        _assert_runs_equal(_chunked(res, chunks), refs)


def _assert_same_parts(got, want):
    assert got.keys() == want.keys()
    for key, value in want.items():
        assert (got[key] is None if value is None
                else np.array_equal(got[key], value)), key


_PICKLED = sorted(ENGINE_STRATEGIES) + ["overlapping"]


@pytest.mark.parametrize("strategy", _PICKLED)
def test_a_pickled_experiment_steps_with_the_same_bits(strategy, monkeypatch):
    # what a spawned or forkserver worker receives: the experiment's own
    # pieces, its strategy rebuilt by its kind's builder, with no file read
    # and no decomposition; once more after a step, where the plans the
    # closures hold are filled
    assert {ENGINE_STRATEGIES.get(name, {"kind": name})["kind"]
            for name in _PICKLED} == set(strategies.STRATEGY_KINDS)
    cfg = (_ragged_case(1) if strategy == "overlapping"
           else _engine_case(strategy, "mse", "geometric"))
    res = resolve(cfg)

    def arrive():
        with monkeypatch.context() as patched:
            for module, name in ((config_mod, "resolve_pieces"),
                                 (graphs_mod, "build_laplacian")):
                patched.setattr(module, name, None)
            return pickle.loads(pickle.dumps(res))

    fresh = arrive()
    want = harness._simulate_runs(res, 0, cfg.runs)
    stepped = arrive()
    for arrived in (fresh, stepped):
        assert arrived.strategy is not res.strategy
        assert arrived.strategy.graph is arrived.graph
        assert arrived.strategy.model is arrived.model
        assert arrived.config == cfg and arrived.theory == res.theory
        _assert_same_parts(harness._simulate_runs(arrived, 0, cfg.runs), want)
    _assert_same_parts(harness._simulate_runs(res, 0, cfg.runs), want)


def test_a_pickled_strategy_keeps_the_weights_it_was_built_with():
    # a strategy placed on an experiment by hand travels as its own build,
    # not as the config's
    res = _block_weight_case()
    arrived = pickle.loads(pickle.dumps(res))
    assert not arrived.strategy.combination.is_scalar
    assert np.array_equal(arrived.strategy.combination.matrix,
                          res.strategy.combination.matrix)
    _assert_same_parts(harness._simulate_runs(arrived, 0, ENGINE_RUNS),
                       harness._simulate_runs(res, 0, ENGINE_RUNS))


_FROZEN = (graphs_mod.Graph, graphs_mod.Spectrum, graphs_mod.SpectralKernel,
           graphs_mod.CombinationMatrix, graphs_mod.Subspace,
           streaming.TaskField, streaming.StreamModel)
# a smooth truth on the graph's spectrum, a kernel on it and a shared r_u
_SPECTRAL_R_U = {
    "schema": 1, "seed": 3, "iters": 60, "runs": 2,
    "graph": {"kind": "ring", "n": 6},
    "model": {"kind": "mse", "m": 2, "noise_var": 0.1,
              "r_u": [[1.0, 0.2], [0.2, 1.0]],
              "truth": {"kind": "smooth", "modes": 2, "scale": 0.5}},
    "strategy": ENGINE_STRATEGIES["spectral_reg"]}


def _frozen_pieces(res):
    """The frozen pieces an experiment carries: its graph, the spectrum the
    graph cached, its model and truth, and what its strategy's payload
    holds of them."""
    pieces = [res.graph, vars(res.graph).get("spectrum"), res.model,
              res.model.truth, *res.strategy.config.payload.values()]
    return [piece for piece in pieces if isinstance(piece, _FROZEN)]


def _payload_case():
    """_block_weight_case with its subspace in the payload too."""
    res = _block_weight_case()
    config = res.strategy.config
    payload = {**config.payload, "subspace": res.strategy.subspace}
    return dataclasses.replace(res, strategy=build_strategy(
        dataclasses.replace(config, payload=payload), res.graph, res.model))


def _read_only_case(case):
    """The experiment of a read-only case: a kind of _PICKLED on its engine
    case, _SPECTRAL_R_U, or _payload_case, with the graph's degrees and
    neighbor lists cached."""
    if case == "payload":
        res = _payload_case()
    else:
        res = resolve(parse_config(_SPECTRAL_R_U) if case == "spectral_r_u"
                      else _ragged_case(1) if case == "overlapping"
                      else _engine_case(case, "mse", "geometric"))
    res.graph.weighted_degrees, res.graph.neighbor_lists
    return res


def _assert_frozen_arrays_read_only(res):
    """Every array of res's frozen pieces, cached ones and the arrays of a
    tuple too, is read-only."""
    for piece in _frozen_pieces(res):
        for name, value in vars(piece).items():
            for array in value if isinstance(value, tuple) else (value,):
                if isinstance(array, np.ndarray):
                    assert not array.flags.writeable, (piece, name)


_READ_ONLY_CASES = _PICKLED + ["spectral_r_u", "payload"]


@pytest.mark.parametrize("case", _READ_ONLY_CASES)
def test_a_resolved_experiment_keeps_its_arrays_read_only(case):
    # as resolve builds them, before any pickle: the model's Cholesky
    # factor of r_u included
    res = _read_only_case(case)
    _assert_frozen_arrays_read_only(res)
    if case == "spectral_r_u":
        assert "_chol" in vars(res.model) and res.model._chol is not None


@pytest.mark.parametrize("case", _READ_ONLY_CASES)
def test_a_pickled_experiment_keeps_its_arrays_read_only(case, monkeypatch):
    # numpy's pickling drops the read-only flag and copies views: every
    # frozen piece arrives with its arrays, cached ones too, read-only, and
    # a task field's blocks views of its padded rows again. The degrees
    # travel in the pickle, the neighbor lists are built again on arrival
    res = _read_only_case(case)
    with monkeypatch.context() as patched:
        for module, name in ((config_mod, "resolve_pieces"),
                             (graphs_mod, "build_laplacian")):
            patched.setattr(module, name, None)
        arrived = pickle.loads(pickle.dumps(res))
    assert list(map(type, _frozen_pieces(arrived))) == \
        list(map(type, _frozen_pieces(res)))
    _assert_frozen_arrays_read_only(arrived)
    truth = arrived.model.truth
    assert all(np.shares_memory(block, truth.padded) for block in truth.blocks)
    assert list(map(list, arrived.graph.neighbor_lists)) == \
        list(map(list, res.graph.neighbor_lists))
    with pytest.raises(ValueError, match="read-only"):
        arrived.graph.adjacency[0, 1] = 1.0
    assert arrived.strategy.graph is arrived.graph
    assert arrived.strategy.model is arrived.model
    runs = res.config.runs
    _assert_same_parts(harness._simulate_runs(arrived, 0, runs),
                       harness._simulate_runs(res, 0, runs))


def test_every_w_star_is_read_only():
    # resolve freezes W* for every kind that has one (a closed form needs
    # a shared r_u), and a pickled experiment's arrives read-only too
    kinds = set()
    for name, strategy in ENGINE_STRATEGIES.items():
        cfg = _engine_case(name, "mse", "geometric").canonical()
        cfg["model"]["r_u"] = _SPECTRAL_R_U["model"]["r_u"]
        res = resolve(parse_config(cfg))
        if res.w_star is None:
            continue
        kinds.add(strategy["kind"])
        for w_star in (res.w_star, pickle.loads(pickle.dumps(res)).w_star):
            assert not w_star.flags.writeable, name
    assert kinds == {"noncooperative", "laplacian_reg", "spectral_reg",
                     "subspace_projection", "clustered"}


def test_engine_overlapping_within_tolerance_and_pads_stay_zero(monkeypatch):
    cfg = parse_config({**_ragged_case(1).canonical(), "runs": ENGINE_RUNS})
    res = resolve(cfg)
    refs = [_per_run_oracle(res, r) for r in range(ENGINE_RUNS)]
    pad = np.arange(res.model.truth.padded.shape[1]) >= \
        np.array(res.strategy.block_sizes)[:, None]
    assert pad.any()
    social = res.strategy.social
    outputs = []

    def recorded(psi, out=None):
        out = social(psi, out=out)
        outputs.append(out[..., pad])
        return out

    checked = dataclasses.replace(
        res, strategy=dataclasses.replace(res.strategy, social=recorded))

    def close(a, b):
        return np.allclose(a, b, rtol=RAGGED_RTOL, atol=0.0)

    for chunks in ([range(3)], [range(2), range(2, 3)]):
        _assert_runs_equal(_chunked(checked, chunks), refs, compare=close)
    assert len(outputs) == 3 * cfg.iters
    assert all(np.all(out == 0.0) for out in outputs)


def _oracle_divergence(res):
    """The error the per-run loop raises, and each run's first crossing."""
    crossings, first = [], None
    for r in range(res.config.runs):
        try:
            _per_run_oracle(res, r)
            crossings.append(None)
        except DivergenceError as exc:
            crossings.append(exc.iteration)
            first = first or exc
    return first, crossings


def _same_divergence(got, ref):
    return (got.run, got.iteration, got.value, got.threshold, str(got)) == (
        ref.run, ref.iteration, ref.value, ref.threshold, str(ref)) and \
        np.array_equal(got.agent_errors, ref.agent_errors)


@pytest.mark.parametrize("mu, seed, crossings", [
    # run 0 never crosses, run 1 crosses a record block after run 3
    (0.8, 6, [None, 109, 135, 55, 82, 303]),
    # run 0 crosses last, record blocks after runs 1, 2 and 4
    (0.75, 0, [391, 233, 188, None, 245, None]),
])
def test_engine_divergence_matches_oracle(mu, seed, crossings, monkeypatch):
    # the error to raise is the lowest diverging run's, as the per-run loop
    # met it first, though runs after it cross earlier
    cfg = parse_config(base_config(seed=seed, iters=400, runs=6, strategy={
        "kind": "noncooperative", "mu": mu}))
    ref, found = _oracle_divergence(resolve(cfg))
    assert found == crossings
    run = ref.run
    settings = [(None, 1), (None, 2), (1, 1), (2, 1), (4, 1)]
    for per_chunk, parallel in settings:
        if per_chunk is not None:
            monkeypatch.setattr(harness, "CHUNK_BYTES",
                                _chunk_budget(cfg, per_chunk))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergenceError) as info:
                run_experiment(cfg, parallel=parallel)
        assert _same_divergence(info.value, ref), (per_chunk, parallel)
        assert f"run {run} " in str(info.value)
        assert _same_divergence(pickle.loads(pickle.dumps(info.value)), ref)


def test_a_worker_divergence_reaches_the_caller():
    # the caller steps run 0, which never crosses; run 1 crosses in the
    # worker, and its error arrives whole, as the per-run loop raises it
    cfg = parse_config(base_config(seed=6, iters=400, runs=2, strategy={
        "kind": "noncooperative", "mu": 0.8}))
    ref, found = _oracle_divergence(resolve(cfg))
    assert found == [None, 109]
    with pytest.raises(DivergenceError) as info:
        run_experiment(cfg, parallel=2)
    assert info.value.run == 1
    assert _same_divergence(info.value, ref)
    # the worker's traceback comes along as the cause
    cause = str(info.value.__cause__)
    assert cause.startswith("in the worker for runs 1..1:")
    assert "in _simulate_chunk" in cause


def test_runs_stepped_past_divergence_raise_no_warnings():
    # run 1 is pushed to overflow from the first step on; the chunk steps it
    # to the horizon, as run 0 might still diverge, and its overflows and
    # nans stay silent
    res = resolve(parse_config(base_config(iters=100, runs=2)))
    social = res.strategy.social

    def exploding(psi, out=None):
        out = social(psi, out=out)
        out[1] *= 1e300
        return out

    res = dataclasses.replace(
        res, strategy=dataclasses.replace(res.strategy, social=exploding))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DivergenceError) as info:
            harness._simulate_chunk(res, range(2))
    assert (info.value.run, info.value.iteration) == (1, 1)


def _with_overflow(res, explode=None):
    """res with a social step that overflows once in a scratch product at
    every step, leaving the state as it is, and with run `explode` pushed
    to overflow a few steps after it crosses."""
    social = res.strategy.social
    overflowed = []

    def noisy(psi, out=None):
        np.multiply(np.full(1, 1e300), 1e300)
        out = social(psi, out=out)
        if explode is not None:
            # 0.5, 5, 50, 2500, ...: squared once past 10
            out[explode] *= max(10.0, float(np.abs(out[explode]).max()))
            overflowed.append(not np.all(np.isfinite(out[explode])))
        return out

    return dataclasses.replace(
        res, strategy=dataclasses.replace(res.strategy, social=noisy)), \
        overflowed


def test_engine_shows_the_warnings_of_healthy_steps():
    # 100 steps in two record blocks, each step warning once, as when the
    # runs are stepped alone; the numbers are untouched
    res = resolve(parse_config(base_config(iters=100, runs=2)))
    noisy, _ = _with_overflow(res)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = harness._simulate_chunk(noisy, range(2))
    assert [str(w.message) for w in caught] == \
        ["overflow encountered in multiply"] * 100
    _assert_runs_equal(got, [_per_run_oracle(res, r) for r in range(2)])
    # np.seterr's setting holds too
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        harness._simulate_chunk(noisy, range(2))


def test_engine_shows_warnings_up_to_the_first_crossing():
    # run 1 crosses a few steps in and overflows some steps later, inside
    # the same record block; the warnings of the steps up to the crossing
    # show (one per step), the later ones, run 1's own overflow among
    # them, stay silent
    res = resolve(parse_config(base_config(iters=100, runs=2)))
    noisy, overflowed = _with_overflow(res, explode=1)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(DivergenceError) as info:
            harness._simulate_chunk(noisy, range(2))
    crossing = info.value.iteration
    assert info.value.run == 1
    assert any(overflowed) and not any(overflowed[:crossing])
    assert crossing < overflowed.index(True) + 1 <= 64
    assert [str(w.message) for w in caught] == \
        ["overflow encountered in multiply"] * crossing


GUARD_STRATEGIES = {**ENGINE_STRATEGIES, "overlapping": {
    "kind": "overlapping", "mu": 0.05,
    "interests": [[k, (k + 1) % 12] for k in range(12)]}}


def _guard_config(name):
    model = {"kind": "mse", "noise_var": 0.1, "m": 2,
             "truth": {"kind": "piecewise", "sizes": [6, 6]}}
    if name == "overlapping":
        model = {"kind": "mse", "noise_var": 0.1,
                 "truth": {"kind": "global_random", "n_variables": 12}}
    return base_config(iters=70, runs=2, graph={"kind": "ring", "n": 12},
                       model=model, strategy=GUARD_STRATEGIES[name])


def test_engine_makes_no_per_step_objects(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("a per-step object was made")

    monkeypatch.setattr(streaming.SampleBlock, "at", forbidden)
    learn, buffers, rows = strategies.self_learn, [], []

    def learned(*args, out=None):
        buffers.append(out)
        return learn(*args, out=out)

    monkeypatch.setattr(strategies, "self_learn", learned)
    for name in GUARD_STRATEGIES:
        res = run_experiment(_guard_config(name))
        assert np.all(np.isfinite(res.msd_wo)), name
        # every step writes psi into the chunk's one buffer and the new
        # state into its row of one 64-step record block, views made once
        res = resolve(parse_config(_guard_config(name)))
        social = res.strategy.social

        def spied(psi, out=None):
            rows.append(out)
            return social(psi, out=out)

        spy = dataclasses.replace(
            res, strategy=dataclasses.replace(res.strategy, social=spied))
        buffers.clear()
        harness._simulate_chunk(spy, range(2))
        psi = buffers[0]
        assert len(buffers) == len(rows) == 70, name
        assert all(buffer is psi for buffer in buffers), name
        record = rows[0].base
        assert record.shape == (64,) + psi.shape, name
        assert all(row.base is record and row is rows[i % 64]
                   for i, row in enumerate(rows)), name
        assert len({id(row) for row in rows}) == 64, name
        assert not np.shares_memory(psi, record), name
        rows.clear()


def _nan_out(shape):
    """An out buffer of NaNs with the sign bit set, which no step may read."""
    return np.full(shape, -np.nan)


@pytest.mark.parametrize("name", sorted(GUARD_STRATEGIES))
def test_social_step_writes_out_in_full_and_returns_it(name):
    res = resolve(parse_config(_guard_config(name)))
    rng = np.random.default_rng(5)
    for shape in ((3,) + res.model.truth.padded.shape,
                  res.model.truth.padded.shape):
        psi = rng.standard_normal(shape)
        want = res.strategy.social(psi)
        out = _nan_out(shape)
        assert res.strategy.social(psi, out=out) is out, name
        assert out.tobytes() == want.tobytes(), name


@pytest.mark.parametrize("model", sorted(ENGINE_MODELS))
def test_self_learn_writes_out_in_full_and_returns_it(model):
    res = resolve(_engine_case("diffusion", model, "ring"))
    streams = config_mod.data_streams(6, range(3), res.graph.n_agents)
    block = draw_horizon(res.model, streams, 4)
    rng = np.random.default_rng(6)
    for i in range(4):
        w = rng.standard_normal(block.regressors.shape[1:])
        args = (res.model, block.regressors[i], block.responses[i], 0.05)
        want = strategies.self_learn(w, *args)
        out = _nan_out(w.shape)
        assert strategies.self_learn(w, *args, out=out) is out
        assert out.tobytes() == want.tobytes()
        # one run's (N, M_max) state takes the same path
        out = _nan_out(w.shape[1:])
        strategies.self_learn(w[0], res.model, block.regressors[i][0],
                              block.responses[i][0], 0.05, out=out)
        assert out.tobytes() == want[0].tobytes()


@pytest.mark.parametrize("strategy", [
    {"kind": "prox_l1", "mu": 0.01, "eta": 1.0, "rho": 0.1},
    {"kind": "clustered", "mu": 0.01, "eta": 1.0, "clusters": [5, 5],
     "rho": 0.1},
])
def test_prox_plans_are_built_by_steps_once_per_row_count(strategy,
                                                          monkeypatch):
    # resolve builds no plan (it is set-up time the step may never need);
    # the first chunk builds one for its runs x M rows, the same chunk
    # again builds none, and a shorter last chunk builds its own
    res = resolve(parse_config(base_config(iters=50, runs=3,
                                           strategy=strategy)))
    plans = res.strategy.regularizer.prox_plans
    assert plans == {}
    built = []
    plan = strategies.ProxPlan
    monkeypatch.setattr(strategies, "ProxPlan",
                        lambda *args: built.append(args[-1]) or plan(*args))
    harness._simulate_chunk(res, range(3))
    first = plans[6]
    harness._simulate_chunk(res, range(3))
    assert built == [6] and plans[6] is first
    harness._simulate_chunk(res, range(2, 3))
    assert built == [6, 2] and sorted(plans) == [2, 6]


# the kinds that read the Laplacian's spectrum; of the truths, "smooth" does
_SPECTRAL_KINDS = {"laplacian_reg", "spectral_reg"}


def _count_decompositions(monkeypatch, cfg) -> tuple[list[int], int]:
    """Laplacian decompositions made by a resolve(cfg), by a
    run_experiment(cfg) and by a run_checks(cfg), each
    counted apart, and the resolves they make."""
    decompositions, resolves = [], []
    real_decompose, real_resolve = graphs_mod.build_laplacian, harness.resolve

    def decompose(graph):
        decompositions.append(graph)
        return real_decompose(graph)

    def counted_resolve(config):
        resolves.append(config)
        return real_resolve(config)

    monkeypatch.setattr(graphs_mod, "build_laplacian", decompose)
    monkeypatch.setattr(harness, "resolve", counted_resolve)
    counts = []
    for call in (counted_resolve,
                 lambda config: run_experiment(config, parallel=1),
                 run_checks):
        before = len(decompositions)
        call(cfg)
        counts.append(len(decompositions) - before)
    return counts, len(resolves)


@pytest.mark.parametrize("truth", ["piecewise", "smooth"])
@pytest.mark.parametrize("strategy", sorted(ENGINE_STRATEGIES))
def test_only_spectral_kinds_and_truths_decompose(strategy, truth,
                                                  monkeypatch):
    # check reads the spectrum exactly where run does
    doc = _engine_case(strategy, "mse", "geometric").canonical()
    if truth == "smooth":
        doc["model"] = {**doc["model"], "truth": {"kind": "smooth", "modes": 3}}
    counts, resolves = _count_decompositions(monkeypatch, parse_config(doc))
    assert resolves == 2
    spectral = truth == "smooth" or strategy in _SPECTRAL_KINDS
    assert counts == [int(spectral)] * 3


def test_overlapping_never_decomposes(monkeypatch):
    assert _count_decompositions(monkeypatch, _ragged_case(1)) == ([0] * 3, 2)
