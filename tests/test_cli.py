"""Command-line interface: exit codes, stdout JSON contracts, artifacts."""

import argparse
import itertools
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from adaptnets import cli, config as config_mod, strategies
from adaptnets.cli import main
from adaptnets.strategies import STRATEGY_KINDS
from adaptnets.graphs import load_graph, metropolis_weights, ring_graph
from adaptnets.streaming import load_tasks

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGENCE = 3
EXIT_IO = 4
EXIT_CHECK = 5


def write_config(tmp_path, name="experiment.json", **overrides):
    base = {
        "schema": 1,
        "seed": 5,
        "iters": 400,
        "runs": 2,
        "graph": {"kind": "ring", "n": 8},
        "model": {"kind": "mse", "m": 2, "noise_var": 0.1,
                  "truth": {"kind": "smooth", "modes": 3, "scale": 0.5}},
        "strategy": {"kind": "laplacian_reg", "mu": 0.01, "eta": 1.0},
    }
    base.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(base))
    return str(path)


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

def test_run_writes_artifacts(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    rc = main(["run", "--config", cfg, "--out", str(out)])
    assert rc == EXIT_OK
    assert (out / "result.csv").exists()
    assert (out / "result.json").exists()
    # stdout stays silent without --json
    assert capsys.readouterr().out == ""


def test_run_json_summary(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    rc = main(["run", "--config", cfg, "--out", str(out), "--json"])
    assert rc == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["steady_msd_wo"] > 0
    assert doc["steady_msd_wo_stderr"] >= 0
    assert doc["csv"].endswith("result.csv")
    assert len(doc["config_hash"]) == 64


def test_run_flag_overrides_reach_the_sidecar(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    rc = main(["run", "--config", cfg, "--out", str(out),
               "--seed", "42", "--mu", "0.02", "--eta", "0.5",
               "--iters", "200", "--runs", "1"])
    assert rc == EXIT_OK
    doc = json.loads((out / "result.json").read_text())
    assert doc["config"]["seed"] == 42
    assert doc["config"]["strategy"]["mu"] == 0.02
    assert doc["config"]["strategy"]["eta"] == 0.5
    assert doc["config"]["iters"] == 200
    assert doc["n_runs"] == 1


def test_run_requires_out_somewhere(tmp_path):
    cfg = write_config(tmp_path)
    assert main(["run", "--config", cfg]) == EXIT_CONFIG
    # config-level out works without the flag
    cfg2 = write_config(tmp_path, name="with_out.json",
                        out=str(tmp_path / "outdir"))
    assert main(["run", "--config", cfg2]) == EXIT_OK
    assert (tmp_path / "outdir" / "result.csv").exists()


def test_run_missing_config_is_io_error(tmp_path):
    rc = main(["run", "--config", str(tmp_path / "nope.json"),
               "--out", str(tmp_path / "o")])
    assert rc == EXIT_IO


def test_run_invalid_config_exits_2(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"schema": 1, "seed": 1}))
    rc = main(["run", "--config", str(path), "--out", str(tmp_path / "o")])
    assert rc == EXIT_CONFIG


def test_run_non_string_kind_exits_2(tmp_path, capsys):
    for overrides in ({"strategy": {"kind": ["diffusion"], "mu": 0.01}},
                      {"graph": {"kind": {"ring": 8}, "n": 8}}):
        cfg = write_config(tmp_path, name="kind.json", **overrides)
        rc = main(["run", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == EXIT_CONFIG
        assert "kind" in capsys.readouterr().err


def test_run_unstable_coupling_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, strategy={"kind": "laplacian_reg",
                                           "mu": 0.5, "eta": 100.0})
    rc = main(["run", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == EXIT_CONFIG
    assert "unstable" in capsys.readouterr().err


def test_run_global_weights_on_clusters_exits_2(tmp_path, capsys):
    # global Metropolis weights do not fix a cluster subspace; at 1001 rows
    # the check still takes one eigvals and names the failed row
    cfg = write_config(
        tmp_path, graph={"kind": "ring", "n": 1001},
        model={"kind": "mse", "m": 1, "noise_var": 0.1,
               "truth": {"kind": "piecewise", "sizes": [500, 501]}},
        strategy={"kind": "subspace_projection", "mu": 0.01,
                  "weights": "metropolis",
                  "subspace": {"clusters": [500, 501]}})
    rc = main(["run", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == EXIT_CONFIG
    assert "feasibility_right_fixed" in capsys.readouterr().err


def test_asymmetric_edge_weights_or_covariance_exit_2(tmp_path, capsys):
    # 1e-6 relative asymmetry: far past the 1e-12 that graphs are held to
    rho = 0.5 * ring_graph(8).adjacency
    rho[0, 1] *= 1.0 + 1e-6
    r_u = [[1.0, 0.2], [0.2 * (1.0 + 1e-6), 1.0]]
    cases = [
        ({"strategy": {"kind": "prox_l1", "mu": 0.01, "eta": 0.2,
                       "rho": rho.tolist()}}, "weights must be symmetric"),
        ({"model": {"kind": "mse", "m": 2, "noise_var": 0.1, "r_u": r_u,
                    "truth": {"kind": "constant"}}}, "r_u must be symmetric"),
    ]
    for overrides, message in cases:
        cfg = write_config(tmp_path, name="asym.json", **overrides)
        for command in (["check"], ["run", "--out", str(tmp_path / "o")]):
            assert main(command + ["--config", cfg]) == EXIT_CONFIG
            assert message in capsys.readouterr().err


@pytest.mark.parametrize("rho", ["1e309", "-1e309", "-0.5", "NaN"])
@pytest.mark.parametrize("kind", ["prox_l1", "clustered"])
def test_non_finite_or_negative_scalar_rho_exits_2_naming_the_key(
        tmp_path, capsys, rho, kind):
    # JSON's 1e309 reads as inf, and inf * 0 on the non-edges would warn;
    # the refusal comes at parse time, before any regularizer is built
    strategy = {"kind": kind, "mu": 0.01, "eta": 0.2, "rho": 0.5}
    if kind == "clustered":
        strategy["clusters"] = [4, 4]
    cfg = Path(write_config(tmp_path, name="rho.json", strategy=strategy))
    cfg.write_text(cfg.read_text().replace('"rho": 0.5', f'"rho": {rho}'))
    for command in (["check"], ["run", "--out", str(tmp_path / "o")]):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(command + ["--config", str(cfg)]) == EXIT_CONFIG
        assert "strategy.rho must be finite and >= 0" in capsys.readouterr().err


def test_run_divergence_exits_3(tmp_path, capsys):
    cfg = write_config(tmp_path, strategy={"kind": "noncooperative",
                                           "mu": 5.0})
    # a divergence inside a worker process exits 3 as well
    for parallel in ([], ["--parallel", "2"]):
        rc = main(["run", "--config", cfg, "--out", str(tmp_path / "o")]
                  + parallel)
        assert rc == EXIT_DIVERGENCE
        assert "worst agents" in capsys.readouterr().err


def test_run_missing_required_flag_exits_2(tmp_path):
    rc = main(["run", "--out", str(tmp_path / "o")])
    assert rc == EXIT_CONFIG


def test_run_parallel_matches_serial(tmp_path):
    cfg = write_config(tmp_path)
    out1 = tmp_path / "serial"
    out2 = tmp_path / "parallel"
    assert main(["run", "--config", cfg, "--out", str(out1),
                 "--parallel", "1"]) == EXIT_OK
    assert main(["run", "--config", cfg, "--out", str(out2),
                 "--parallel", "2"]) == EXIT_OK
    assert (out1 / "result.csv").read_bytes() == \
        (out2 / "result.csv").read_bytes()


# ---------------------------------------------------------------------------
# theory
# ---------------------------------------------------------------------------

def test_theory_json_contract(tmp_path, capsys):
    cfg = write_config(tmp_path)
    rc = main(["theory", "--config", cfg])
    assert rc == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert isinstance(doc["msd_nc"], float)
    assert doc["msd_nc"] == pytest.approx(1e-3, rel=1e-9)
    assert set(doc["variance"]) >= {"total", "modes"}
    assert set(doc["bias"]) >= {"total", "modes"}
    assert len(doc["variance"]["modes"]) == 8


def test_theory_zero_eta_variance_equals_noncoop(tmp_path, capsys):
    cfg = write_config(tmp_path)
    rc = main(["theory", "--config", cfg, "--eta", "0"])
    assert rc == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["variance"]["total"] == pytest.approx(doc["msd_nc"], rel=1e-12)
    assert doc["bias"]["total"] == pytest.approx(0.0, abs=1e-20)


def test_theory_mu_override_doubles_the_noncooperative_msd(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["theory", "--config", cfg]) == EXIT_OK
    base = json.loads(capsys.readouterr().out)["msd_nc"]
    assert main(["theory", "--config", cfg, "--mu", "0.02"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["msd_nc"] == \
        pytest.approx(2.0 * base, rel=1e-12)


def test_theory_consensus_projection(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        model={"kind": "mse", "m": 2, "noise_var": 0.1,
               "truth": {"kind": "constant", "scale": 1.0}},
        strategy={"kind": "subspace_projection", "mu": 0.01},
    )
    rc = main(["theory", "--config", cfg])
    assert rc == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["msd_projection"] == pytest.approx(doc["msd_nc"] / 8.0,
                                                  rel=1e-9)


def test_theory_without_closed_form_reports_baseline_only(tmp_path, capsys):
    # prox_l1 has no variance/bias expansion; the baseline msd_nc still applies
    cfg = write_config(tmp_path, strategy={"kind": "prox_l1", "mu": 0.01,
                                           "eta": 0.1, "rho": 0.3})
    rc = main(["theory", "--config", cfg, "--json"])
    assert rc == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["msd_nc"] > 0
    assert "variance" not in doc
    assert "bias" not in doc


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def test_sweep_writes_grid(tmp_path, capsys):
    cfg = write_config(tmp_path, iters=300, eta_grid=[0.0, 0.5, 2.0])
    out = tmp_path / "sweep"
    rc = main(["sweep", "--config", cfg, "--out", str(out)])
    assert rc == EXIT_OK
    lines = (out / "sweep.csv").read_text().strip().splitlines()
    assert lines[0] == "eta,msd_sim,var_sim,var_theory,bias_theory"
    assert len(lines) == 4
    assert [float(l.split(",")[0]) for l in lines[1:]] == [0.0, 0.5, 2.0]
    doc = json.loads((out / "sweep.json").read_text())
    assert doc["argmin_eta"] in (0.0, 0.5, 2.0)


def test_sweep_runs_override_changes_the_stderr(tmp_path):
    cfg = write_config(tmp_path, iters=100, eta_grid=[0.0, 1.0])
    stderrs = []
    for extra in ([], ["--runs", "3"]):
        out = tmp_path / f"sweep{len(extra)}"
        assert main(["sweep", "--config", cfg, "--out", str(out)] + extra) \
            == EXIT_OK
        doc = json.loads((out / "sweep.json").read_text())
        stderrs.append([point["msd_stderr"] for point in doc["points"]])
    assert all(a != b for a, b in zip(*stderrs))


def test_sweep_needs_grid(tmp_path):
    cfg = write_config(tmp_path)
    rc = main(["sweep", "--config", cfg, "--out", str(tmp_path / "s")])
    assert rc == EXIT_CONFIG


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_sweep_refuses_a_non_finite_eta_before_any_runs(tmp_path, capsys,
                                                        monkeypatch, bad):
    from adaptnets import harness
    ran = []
    monkeypatch.setattr(harness, "run_experiment",
                        lambda config: ran.append(config))
    cfg = write_config(tmp_path, eta_grid=[0.5, bad])
    rc = main(["sweep", "--config", cfg, "--out", str(tmp_path / "s")])
    assert rc == EXIT_CONFIG
    assert "eta_grid entries must be finite" in capsys.readouterr().err
    assert ran == []


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def test_gen_graph_roundtrip(tmp_path):
    cfg = write_config(tmp_path, graph={"kind": "geometric", "n": 12,
                                        "radius": 0.5})
    out = tmp_path / "net.json"
    rc = main(["gen-graph", "--config", cfg, "--out", str(out)])
    assert rc == EXIT_OK
    g = load_graph(out)
    assert g.n_agents == 12
    assert g.is_connected


def test_gen_tasks_roundtrip(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "tasks.json"
    rc = main(["gen-tasks", "--config", cfg, "--out", str(out)])
    assert rc == EXIT_OK
    field = load_tasks(out)
    assert field.n_agents == 8
    assert field.uniform_size == 2


def test_gen_graph_seed_override_lays_out_other_edges(tmp_path):
    cfg = write_config(tmp_path, graph={"kind": "geometric", "n": 12,
                                        "radius": 0.5})
    first, second = tmp_path / "net5.json", tmp_path / "net6.json"
    assert main(["gen-graph", "--config", cfg, "--out", str(first)]) == EXIT_OK
    assert main(["gen-graph", "--config", cfg, "--out", str(second),
                 "--seed", "6"]) == EXIT_OK
    assert not np.array_equal(load_graph(first).adjacency != 0,
                              load_graph(second).adjacency != 0)


def test_gen_tasks_seed_override_writes_other_blocks(tmp_path):
    cfg = write_config(tmp_path)
    first, second = tmp_path / "tasks5.json", tmp_path / "tasks6.json"
    assert main(["gen-tasks", "--config", cfg, "--out", str(first)]) == EXIT_OK
    assert main(["gen-tasks", "--config", cfg, "--out", str(second),
                 "--seed", "6"]) == EXIT_OK
    assert not np.array_equal(load_tasks(first).padded,
                              load_tasks(second).padded)


def test_generated_pieces_match_run_resolution(tmp_path):
    """A run against the exported graph/tasks files reproduces the original."""
    cfg = write_config(tmp_path)
    net = tmp_path / "net.json"
    tasks = tmp_path / "tasks.json"
    assert main(["gen-graph", "--config", cfg, "--out", str(net)]) == EXIT_OK
    assert main(["gen-tasks", "--config", cfg, "--out", str(tasks)]) == EXIT_OK
    out1 = tmp_path / "o1"
    assert main(["run", "--config", cfg, "--out", str(out1)]) == EXIT_OK
    cfg2 = write_config(
        tmp_path, name="from_files.json",
        graph={"kind": "file", "path": "net.json"},
        model={"kind": "mse", "m": 2, "noise_var": 0.1,
               "truth": {"kind": "file", "path": "tasks.json"}},
    )
    out2 = tmp_path / "o2"
    assert main(["run", "--config", cfg2, "--out", str(out2)]) == EXIT_OK
    a = np.genfromtxt(out1 / "result.csv", delimiter=",", names=True)
    b = np.genfromtxt(out2 / "result.csv", delimiter=",", names=True)
    assert np.array_equal(a["msd_wo"], b["msd_wo"])


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------

_SHARED_MODEL = {"kind": "mse", "noise_var": 0.1,
                 "truth": {"kind": "global_random", "n_variables": 8}}
_VALID_STRATEGIES = (
    {"kind": "noncooperative", "mu": 0.01},
    {"kind": "laplacian_reg", "mu": 0.01, "eta": 1.0},
    {"kind": "spectral_reg", "mu": 0.005, "eta": 0.5,
     "kernel": {"kind": "power", "exponent": 3}},
    {"kind": "prox_l1", "mu": 0.01, "eta": 0.2, "rho": 0.5},
    {"kind": "diffusion", "mu": 0.01},
    {"kind": "subspace_projection", "mu": 0.01},
    {"kind": "subspace_projection", "mu": 0.01,
     "subspace": {"clusters": [3, 5]}},
    {"kind": "overlapping", "mu": 0.01,
     "interests": [[k, (k + 1) % 8] for k in range(8)]},
    {"kind": "clustered", "mu": 0.01, "eta": 0.2, "clusters": [4, 4],
     "penalty": "l1", "rho": 0.2},
    {"kind": "clustered", "mu": 0.01, "eta": 0.2, "clusters": [4, 4],
     "penalty": "quadratic", "rho": 0.2},
)


def _write_valid_config(tmp_path, strategy):
    model = ({"model": _SHARED_MODEL} if strategy["kind"] == "overlapping"
             else {})
    return write_config(tmp_path, name="chk.json", strategy=strategy, **model)


def test_check_passes_for_valid_setups(tmp_path, capsys):
    for strategy in _VALID_STRATEGIES:
        cfg = _write_valid_config(tmp_path, strategy)
        rc = main(["check", "--config", cfg])
        err = capsys.readouterr().err
        assert rc == EXIT_OK, f"{strategy['kind']} failed:\n{err}"
        assert "FAIL" not in err


def _readme_rows(header):
    """{kind: [the row names each of its lines names]} of the README table
    headed `| kind | <header> |`; a kind has a line per variant of its
    rows."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    lines = readme.read_text().splitlines()
    start = lines.index(f"| kind | {header} |") + 2
    table = {}
    for line in itertools.takewhile(lambda l: l.startswith("|"),
                                    lines[start:]):
        kinds, rows = re.split(r"(?<!\\)\|", line)[1:3]
        names = set(re.findall(r"`(\w+)`", rows)) - {"combination_shape"}
        for kind in re.findall(r"`(\w+)`", kinds):
            table.setdefault(kind, []).append(names)
    return table


def test_readme_tables_list_the_rows_check_reports(tmp_path):
    # combination_shape is left out: only a misshaped matrix produces it
    conditions = _readme_rows("condition rows")
    self_tests = _readme_rows("self-tests")
    assert {s["kind"] for s in _VALID_STRATEGIES} == set(STRATEGY_KINDS)
    assert set(conditions) | set(self_tests) <= set(STRATEGY_KINDS)
    assert all(len(lines) == 1 for lines in self_tests.values())
    matched = set()
    for strategy in _VALID_STRATEGIES:
        kind = strategy["kind"]
        cfg = config_mod.load_config(_write_valid_config(tmp_path, strategy))
        rows = [name for name, _, _ in config_mod.run_checks(cfg)]
        # the kind's condition rows, as the longest of its lines that
        # names them, then its self-tests
        variants = conditions.get(kind, [set()])
        fits = [i for i, names in enumerate(variants)
                if set(rows[:len(names)]) == names]
        assert fits, kind
        line = max(fits, key=lambda i: len(variants[i]))
        if kind in conditions:
            matched.add((kind, line))
        documented = variants[line]
        assert set(rows[len(documented):]) == \
            self_tests.get(kind, [set()])[0], kind
    # every line is the rows of some valid setup
    assert matched == {(kind, i) for kind, lines in conditions.items()
                       for i in range(len(lines))}


def test_check_parses_the_config_once(tmp_path, monkeypatch):
    # with no override given, the loaded config is the one checked
    calls = []
    real = config_mod.parse_config

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(config_mod, "parse_config", counted)
    cfg = write_config(tmp_path)
    assert main(["check", "--config", cfg]) == EXIT_OK
    assert len(calls) == 1
    calls.clear()
    assert main(["check", "--config", cfg, "--seed", "6"]) == EXIT_OK
    assert len(calls) == 2


def test_check_eta_override_past_the_bound_fails_stability(tmp_path, capsys):
    # the ring of 8 has lambda_max = 4: mu*eta = 0.6 is past 2/4
    cfg = write_config(tmp_path)
    assert main(["check", "--config", cfg]) == EXIT_OK
    assert "check stability: PASS" in capsys.readouterr().err
    assert main(["check", "--config", cfg, "--eta", "60"]) == EXIT_CHECK
    assert "check stability: FAIL (unstable social step" in \
        capsys.readouterr().err


def test_missing_strategy_keys_exit_2(tmp_path, capsys):
    for strategy in ({"kind": "clustered", "mu": 0.01},
                     {"kind": "overlapping", "mu": 0.01}):
        cfg = write_config(tmp_path, name="missing.json", strategy=strategy)
        for command in ("theory", "check"):
            assert main([command, "--config", cfg]) == EXIT_CONFIG
            assert "missing keys in strategy" in capsys.readouterr().err


def test_module_entry_point_runs_check(tmp_path, capsys):
    # `python -m adaptnets` is main() in a fresh interpreter
    cfg = write_config(tmp_path, graph={"kind": "ring", "n": 6},
                       model=_CONSTANT_MODEL,
                       strategy={"kind": "diffusion", "mu": 0.01})
    source = str(Path(__file__).resolve().parents[1] / "src")
    path = filter(None, [source, os.environ.get("PYTHONPATH")])
    done = subprocess.run(
        [sys.executable, "-m", "adaptnets", "check", "--config", cfg],
        env={**os.environ, "PYTHONPATH": os.pathsep.join(path)},
        capture_output=True, text=True, timeout=120)
    assert done.returncode == EXIT_OK, done.stderr
    assert main(["check", "--config", cfg]) == EXIT_OK
    rows = capsys.readouterr().err
    assert rows.startswith("check nonnegative_weights: PASS")
    assert (done.stdout, done.stderr) == ("", rows)


def test_check_json_document(tmp_path, capsys):
    cfg = write_config(tmp_path)
    rc = main(["check", "--config", cfg, "--json"])
    assert rc == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["passed"]
    names = [c["name"] for c in doc["checks"]]
    assert names == ["stability", "smooth_matches_dense"]
    assert all(c["passed"] for c in doc["checks"])


@pytest.mark.parametrize("kind", ["noncooperative", "overlapping"])
def test_check_reports_no_rows_where_a_kind_has_none(tmp_path, capsys, kind):
    strategy = next(s for s in _VALID_STRATEGIES if s["kind"] == kind)
    cfg = _write_valid_config(tmp_path, strategy)
    assert main(["check", "--config", cfg, "--json"]) == EXIT_OK
    captured = capsys.readouterr()
    assert json.loads(captured.out) == {"passed": True, "checks": []}
    assert "check " not in captured.err


def test_check_flags_infeasible_combination(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        model={"kind": "mse", "m": 2, "noise_var": 0.1,
               "truth": {"kind": "constant", "scale": 1.0}},
        strategy={"kind": "subspace_projection", "mu": 0.01,
                  "weights": [[1.0 if i == j else 0.0 for j in range(8)]
                              for i in range(8)]},
    )
    rc = main(["check", "--config", cfg])
    assert rc == EXIT_CHECK
    err = capsys.readouterr().err
    assert "feasibility_spectral" in err
    assert "FAIL" in err


# ---------------------------------------------------------------------------
# conditions: run refuses exactly what check fails
# ---------------------------------------------------------------------------

def test_check_and_run_agree_on_weights_off_the_graph(tmp_path, capsys):
    dense = np.full((8, 8), 1.0 / 8.0).tolist()
    cfg = write_config(tmp_path, strategy={"kind": "diffusion", "mu": 0.01,
                                           "weights": dense})
    assert main(["check", "--config", cfg]) == EXIT_CHECK
    assert "graph_sparsity: FAIL" in capsys.readouterr().err
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) \
        == EXIT_CONFIG
    assert "graph_sparsity" in capsys.readouterr().err


def test_check_and_run_agree_on_sums_off_by_5e_6(tmp_path, capsys):
    a = metropolis_weights(ring_graph(8)).matrix.copy()
    a[0, 0] += 5e-6
    a[1, 1] -= 5e-6
    cfg = write_config(tmp_path, strategy={"kind": "diffusion", "mu": 0.01,
                                           "weights": a.tolist()})
    assert main(["check", "--config", cfg]) == EXIT_CHECK
    err = capsys.readouterr().err
    assert "rows_sum_to_one: FAIL" in err
    assert "columns_sum_to_one: FAIL" in err
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) \
        == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "rows_sum_to_one" in err and "columns_sum_to_one" in err


def test_check_and_run_accept_laplacian_reg_without_edges(tmp_path, capsys):
    cfg = write_config(tmp_path, graph={"kind": "edges", "n": 3, "edges": []})
    assert main(["check", "--config", cfg]) == EXIT_OK
    assert "stability: PASS" in capsys.readouterr().err
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) \
        == EXIT_OK


@pytest.mark.parametrize("eta, rho", [(24.0, "1"), (30.0, "1.18718")])
def test_check_and_run_bound_clustered_quadratic_by_its_composed_step(
        tmp_path, capsys, eta, rho):
    # mu*eta = 1.2 exceeds 2 / lambda_max(L_inter) = 1, yet the intra-cluster
    # averaging keeps rho((I - mu*eta*L_inter) A) at 1; 1.5 raises it past 1
    cfg = write_config(
        tmp_path, graph={"kind": "ring", "n": 10},
        model={"kind": "mse", "m": 2, "noise_var": 0.1,
               "truth": {"kind": "piecewise", "sizes": [5, 5]}},
        strategy={"kind": "clustered", "mu": 0.05, "eta": eta,
                  "clusters": [5, 5], "rho": 1.0, "penalty": "quadratic"})
    detail = f"rho((I - mu*eta*L_inter) A) = {rho}"
    stable = rho == "1"
    assert main(["check", "--config", cfg]) == (EXIT_OK if stable
                                                else EXIT_CHECK)
    assert (f"stability: PASS ({detail})" if stable else
            f"stability: FAIL (unstable social step: {detail})") in \
        capsys.readouterr().err
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) \
        == (EXIT_OK if stable else EXIT_CONFIG)
    if not stable:
        assert ("strategy: clustered step fails its conditions: stability "
                f"(unstable social step: {detail})") in capsys.readouterr().err


def test_check_and_run_accept_laplacian_weights_on_one_agent(tmp_path):
    cfg = write_config(
        tmp_path, graph={"kind": "edges", "n": 1, "edges": []},
        model={"kind": "mse", "m": 2, "noise_var": 0.1,
               "truth": {"kind": "constant"}},
        strategy={"kind": "diffusion", "mu": 0.01, "weights": "laplacian"})
    assert main(["check", "--config", cfg]) == EXIT_OK
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) \
        == EXIT_OK


def test_check_and_run_agree_on_a_kernel_within_the_sign_tolerance(tmp_path):
    # r(0) = -1e-7 is within the one sign rule's tolerance,
    # 1e-12 * max |r(lambda)| = 4e-6 below zero on ring N=8
    cfg = write_config(tmp_path, strategy={
        "kind": "spectral_reg", "mu": 0.01, "eta": 1e-5,
        "kernel": {"kind": "polynomial", "coefficients": [-1e-7, 1e6]}})
    assert main(["check", "--config", cfg]) == EXIT_OK
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) \
        == EXIT_OK


def test_check_reads_the_diffusion_mixing_rate_run_reads(tmp_path, capsys):
    # directed-ring averaging, a_kk = a_k,k+1 = 1/2, is doubly stochastic
    # but not symmetric: check's semi_convergent and run's closed form read
    # the same lazy feasibility report of the step
    weights = 0.5 * (np.eye(8) + np.roll(np.eye(8), 1, axis=1))
    cfg = write_config(tmp_path, strategy={"kind": "diffusion", "mu": 0.01,
                                           "weights": weights.tolist()})
    assert main(["check", "--config", cfg]) == EXIT_OK
    assert "semi_convergent: PASS" in capsys.readouterr().err
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) \
        == EXIT_OK


def test_ragged_field_fails_run_and_check_on_one_row(tmp_path, capsys):
    # a kind that needs uniform blocks meets a ragged field: check reports
    # the uniform_blocks row, and run refuses the step naming that row
    blocks = [[1.0] * (1 + k % 2) for k in range(6)]
    cfg = write_config(tmp_path, graph=_RING, model={
        "kind": "mse", "noise_var": 0.1,
        "truth": {"kind": "explicit", "blocks": blocks}},
        strategy={"kind": "diffusion", "mu": 0.01})
    assert main(["check", "--config", cfg, "--json"]) == EXIT_CHECK
    rows = json.loads(capsys.readouterr().out)["checks"]
    failed = [(row["name"], row["detail"]) for row in rows
              if not row["passed"]]
    assert failed == [("uniform_blocks", "strategy needs uniform block sizes")]
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) \
        == EXIT_CONFIG
    name, detail = failed[0]
    assert (f"config: strategy: diffusion step fails its conditions: "
            f"{name} ({detail})") in capsys.readouterr().err


_CONSTANT_MODEL = {"kind": "mse", "m": 2, "noise_var": 0.1,
                   "truth": {"kind": "constant"}}
# unit weight on every edge of a 6-ring, inside its clusters [3, 3] too
_RING6_EDGES = ring_graph(6).adjacency.tolist()


@pytest.mark.parametrize("graph, model, strategy, error", [
    pytest.param({"kind": "ring", "n": 4}, _CONSTANT_MODEL,
                 {"kind": "clustered", "mu": 0.01, "clusters": [2, 3]},
                 "partition does not cover all agents",
                 id="partial_partition"),
    pytest.param({"kind": "geometric", "n": 6, "radius": 0.4}, _CONSTANT_MODEL,
                 {"kind": "clustered", "mu": 0.01, "clusters": [3, 3]},
                 "cluster 0 inside the graph is not connected",
                 id="disconnected_cluster"),
    pytest.param({"kind": "geometric", "n": 14, "radius": 0.6},
                 {"kind": "mse", "noise_var": 0.1,
                  "truth": {"kind": "global_random", "n_variables": 14}},
                 {"kind": "overlapping", "mu": 0.01,
                  "interests": [[k, (k + 1) % 14] for k in range(14)]},
                 "the subgraph of agents interested in variable 0 is not "
                 "connected",
                 id="disconnected_interest"),
    pytest.param({"kind": "ring", "n": 6}, _CONSTANT_MODEL,
                 {"kind": "diffusion", "mu": 0.01, "weights": "foo"},
                 "unknown combination rule 'foo'", id="unknown_rule"),
    pytest.param({"kind": "ring", "n": 6}, _CONSTANT_MODEL,
                 {"kind": "clustered", "mu": 0.01, "eta": 0.1,
                  "clusters": [3, 3], "rho": _RING6_EDGES},
                 "regularizer weights on intra-cluster edges",
                 id="intra_cluster_rho"),
])
def test_check_and_run_refuse_a_step_its_builder_refuses_alike(
        tmp_path, capsys, graph, model, strategy, error):
    cfg = write_config(tmp_path, seed=0, graph=graph, model=model,
                       strategy=strategy)
    _assert_check_and_run_refuse(tmp_path, capsys, cfg,
                                 f"error: config: strategy: {error}\n")


def _assert_check_and_run_refuse(tmp_path, capsys, cfg, line):
    assert main(["check", "--config", cfg]) == EXIT_CONFIG
    assert capsys.readouterr().err == line
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) \
        == EXIT_CONFIG
    assert capsys.readouterr().err == line


_GLOBAL_TRUTH = {"kind": "global_random", "n_variables": 6}
_PAIRS = [[k, (k + 1) % 6] for k in range(6)]


@pytest.mark.parametrize("overrides, error", [
    pytest.param({"model": {"kind": "mse", "noise_var": 0.1,
                            "truth": _GLOBAL_TRUTH}},
                 "model.truth: global_random truth requires the overlapping "
                 "strategy", id="global_truth_without_overlapping"),
    pytest.param({"model": {"kind": "mse", "noise_var": 0.1,
                            "truth": _GLOBAL_TRUTH},
                  "strategy": {"kind": "overlapping", "mu": 0.01,
                               "interests": _PAIRS[:5]}},
                 "model.truth: interests must list one row per agent",
                 id="interests_short_of_agents"),
    pytest.param({"model": {"kind": "mse", "m": 1, "noise_var": 0.1,
                            "truth": {"kind": "explicit",
                                      "blocks": [[1.0]] * 5}}},
                 "truth has 5 blocks but the graph has 6 agents",
                 id="explicit_truth_short_of_agents"),
    pytest.param({"out": 5}, "out must be a string path", id="out_not_string"),
    pytest.param({"model": {"kind": "mse", "noise_var": 0.1,
                            "r_u": np.eye(2).tolist(), "truth": _GLOBAL_TRUTH},
                  "strategy": {"kind": "overlapping", "mu": 0.01,
                               "interests": [pair if k % 2 else pair[:1]
                                             for k, pair in enumerate(_PAIRS)]}},
                 "model: shared r_u requires uniform block sizes",
                 id="shared_r_u_on_ragged_blocks"),
])
def test_check_and_run_refuse_an_inconsistent_config_alike(
        tmp_path, capsys, overrides, error):
    cfg = write_config(tmp_path, **{
        "seed": 0, "graph": {"kind": "ring", "n": 6}, "model": _CONSTANT_MODEL,
        "strategy": {"kind": "diffusion", "mu": 0.01}, **overrides})
    _assert_check_and_run_refuse(tmp_path, capsys, cfg,
                                 f"error: config: {error}\n")


def test_theory_refuses_a_config_without_closed_forms(tmp_path, capsys):
    cfg = write_config(tmp_path, model={"kind": "logistic", "m": 2,
                                        "truth": {"kind": "constant"}})
    assert main(["theory", "--config", cfg]) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        "error: config: closed-form predictions need an mse model with a "
        "shared regressor covariance\n")


def test_check_and_run_agree_on_a_misshaped_combination(tmp_path, capsys):
    cfg = write_config(tmp_path, graph={"kind": "ring", "n": 4}, model={
        "kind": "mse", "m": 2, "noise_var": 0.1,
        "truth": {"kind": "constant"}},
        strategy={"kind": "diffusion", "mu": 0.01,
                  "weights": np.full((3, 3), 1.0 / 3.0).tolist()})
    assert main(["check", "--config", cfg]) == EXIT_CHECK
    assert "combination_shape: FAIL (3x3 weights on 4 agents)" in \
        capsys.readouterr().err
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) \
        == EXIT_CONFIG
    assert ("strategy: diffusion step fails its conditions: "
            "combination_shape (3x3 weights on 4 agents)") in \
        capsys.readouterr().err


def _no_draw(*args, **kwargs):
    raise AssertionError("data was drawn")


_RING = {"kind": "ring", "n": 6}
_GEOMETRIC = {"kind": "geometric", "n": 6, "radius": 0.8}
_EDGES = {"kind": "edges", "n": 3, "edges": [[0, 1, 1.0], [1, 2, 1.0]]}
_MODEL = {"kind": "mse", "m": 2, "noise_var": 0.1}


@pytest.mark.parametrize("key, overrides", [
    ("graph.n", {"graph": {"kind": "ring", "n": "6"}}),
    ("graph.n", {"graph": {"kind": "ring", "n": 6.5}}),
    ("graph.n", {"graph": {"kind": "star", "n": [6]}}),
    ("graph.n", {"graph": {"kind": "ring", "n": True}}),
    ("graph.radius", {"graph": {**_GEOMETRIC, "radius": "x"}}),
    ("graph.max_tries", {"graph": {**_GEOMETRIC, "max_tries": "a"}}),
    ("graph.require_connected",
     {"graph": {**_GEOMETRIC, "require_connected": "no"}}),
    ("graph.path", {"graph": {"kind": "file", "path": 5}}),
    ("graph.edges", {"graph": {"kind": "edges", "n": 3, "edges": 5}}),
    ("graph.n", {"graph": {**_EDGES, "n": "3"}}),
    ("model.truth.scale",
     {"model": {**_MODEL, "truth": {"kind": "constant", "scale": "a"}}}),
    ("model.truth.sizes",
     {"model": {**_MODEL, "truth": {"kind": "piecewise", "sizes": 6}}}),
    ("model.truth.blocks",
     {"model": {**_MODEL, "truth": {"kind": "explicit", "blocks": 3}}}),
    ("model.truth.path",
     {"model": {**_MODEL, "truth": {"kind": "file", "path": 3}}}),
    ("model.noise_var", {"model": {**_MODEL, "noise_var": {"a": 1},
                                   "truth": {"kind": "constant"}}}),
    ("strategy.interests",
     {"strategy": {"kind": "overlapping", "mu": 0.01, "interests": 5}}),
    ("strategy.interests",
     {"strategy": {"kind": "overlapping", "mu": 0.01,
                   "interests": [0, 1, 2]}}),
    ("strategy.clusters",
     {"strategy": {"kind": "clustered", "mu": 0.01, "clusters": 6}}),
    ("strategy.subspace.clusters",
     {"strategy": {"kind": "subspace_projection", "mu": 0.01,
                   "subspace": {"clusters": 6}}}),
    ("strategy.weights",
     {"strategy": {"kind": "diffusion", "mu": 0.01, "weights": {"a": 1}}}),
])
def test_wrong_json_types_exit_2_and_name_the_key(tmp_path, capsys,
                                                  monkeypatch, key,
                                                  overrides):
    from adaptnets import harness
    monkeypatch.setattr(harness, "draw_horizon", _no_draw)
    cfg = write_config(tmp_path, **{"graph": _RING, **overrides})
    assert main(["check", "--config", cfg]) == EXIT_CONFIG
    assert key in capsys.readouterr().err
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) \
        == EXIT_CONFIG
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("strategy", [
    {"kind": "prox_l1", "mu": 0.01, "eta": 0.1, "rho": [[1.0]]},
    {"kind": "clustered", "mu": 0.01, "eta": 0.1, "clusters": [3, 3],
     "rho": [[1.0]]},
])
def test_misshaped_rho_exits_2_before_any_draw(tmp_path, capsys, monkeypatch,
                                               strategy):
    from adaptnets import harness
    monkeypatch.setattr(harness, "draw_horizon", _no_draw)
    cfg = write_config(tmp_path, graph=_RING, strategy=strategy)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) \
        == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "rho" in err and "6x6" in err


_SPECTRAL = {"kind": "spectral_reg", "mu": 0.01, "eta": 0.5}
_LOGISTIC = {"kind": "logistic", "m": 2, "truth": {"kind": "constant"}}
# json.dumps writes these as the NaN and Infinity tokens json.load reads
_NAN, _INF = float("nan"), float("inf")


@pytest.mark.parametrize("key, overrides", [
    ("model.r_u", {"model": {**_MODEL, "r_u": {"a": 1},
                             "truth": {"kind": "constant"}}}),
    ("strategy.kernel.coefficients",
     {"strategy": {**_SPECTRAL, "kernel": {"kind": "polynomial",
                                           "coefficients": {"a": 1}}}}),
    ("model.truth.modes",
     {"model": {**_MODEL, "truth": {"kind": "smooth", "modes": "3"}}}),
    ("model.m", {"model": {**_MODEL, "m": 2.5,
                           "truth": {"kind": "constant"}}}),
    ("model.truth.n_variables",
     {"model": {"kind": "mse", "noise_var": 0.1,
                "truth": {"kind": "global_random", "n_variables": "3"}},
      "strategy": {"kind": "overlapping", "mu": 0.01,
                   "interests": [[k, (k + 1) % 6] for k in range(6)]}}),
    ("['reg']", {"model": {**_MODEL, "reg": 0.1,
                           "truth": {"kind": "constant"}}}),
    ("graph.n", {"graph": {**_GEOMETRIC, "n": 0}}),
    ("strategy.interests[1][0]",
     {"strategy": {"kind": "overlapping", "mu": 0.01,
                   "interests": [[0, 1], ["1", 2]]}}),
    ("graph.max_tries must be at least 1, got 0",
     {"graph": {**_GEOMETRIC, "max_tries": 0}}),
    ("graph.max_tries must be at least 1, got -3",
     {"graph": {**_GEOMETRIC, "max_tries": -3}}),
    ("agent 1 estimates no variables",
     {"graph": {"kind": "ring", "n": 4},
      "model": {"kind": "mse", "noise_var": 0.1,
                "truth": {"kind": "explicit",
                          "blocks": [[1.0, 2.0], [1.0], [1.0, 2.0], [1.0]]}},
      "strategy": {"kind": "overlapping", "mu": 0.01,
                   "interests": [[0, 1], [], [0, 1], [0]]}}),
    # built once, by its kind, before the strategy: named once
    ("config: strategy.kernel: kernel is negative on the spectrum",
     {"strategy": {**_SPECTRAL, "kernel": {"kind": "heat", "rate": -1.0,
                                           "degree": 3}}}),
    # JSON's NaN and Infinity fail the range check where its rule lives
    ("eta_grid entries must be finite", {"eta_grid": [0.5, _NAN]}),
    ("eta_grid entries must be finite", {"eta_grid": [0.5, _INF]}),
    ("model: logistic ridge coefficient must be finite",
     {"model": {**_LOGISTIC, "reg": _NAN}}),
    ("model: logistic ridge coefficient must be finite",
     {"model": {**_LOGISTIC, "reg": _INF}}),
    ("model: r_u entries must be finite",
     {"model": {**_MODEL, "r_u": [[1.0, 0.0], [0.0, _NAN]],
                "truth": {"kind": "constant"}}}),
    ("model.truth: bandwidth must be nonnegative",
     {"model": {**_MODEL, "truth": {"kind": "smooth", "bandwidth": _NAN}}}),
    ("graph: radius must be positive", {"graph": {**_GEOMETRIC, "radius": _NAN}}),
    ("graph: kernel_width must be positive",
     {"graph": {**_GEOMETRIC, "kernel_width": _NAN}}),
    # finite weights whose symmetrized adjacency or degrees overflow
    ("config: graph: edge weights overflow: the weighted degree of agent 0",
     {"graph": {"kind": "ring", "n": 4, "weight": 1e308},
      "model": {**_MODEL, "truth": {"kind": "constant"}}}),
    ("config: graph: edge weights overflow: the weighted degree of agent 0",
     {"graph": {"kind": "ring", "n": 4, "weight": 1e308},
      "model": {**_MODEL, "truth": {"kind": "constant"}},
      "strategy": {"kind": "noncooperative", "mu": 0.01}}),
    ("config: graph: edge weights overflow: the weighted degree of agent 0",
     {"graph": {"kind": "complete", "n": 4, "weight": 6e307},
      "model": {**_MODEL, "truth": {"kind": "constant"}}}),
    # a complete graph of weight 0 has no edges
    ("config: graph: edge weight must be positive and finite, got 0.0",
     {"graph": {"kind": "complete", "n": 4, "weight": 0},
      "model": {**_MODEL, "truth": {"kind": "constant"}}}),
])
def test_keys_checked_at_parse_exit_2_and_name_the_key(tmp_path, capsys,
                                                       monkeypatch, key,
                                                       overrides):
    from adaptnets import harness
    monkeypatch.setattr(harness, "draw_horizon", _no_draw)
    cfg = write_config(tmp_path, **{"graph": _RING, **overrides})
    assert main(["check", "--config", cfg]) == EXIT_CONFIG
    assert key in capsys.readouterr().err
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) \
        == EXIT_CONFIG
    assert key in capsys.readouterr().err


def test_non_integral_agents_exit_2(tmp_path, capsys):
    # an agent index of 0.5 or an agent count of 6.5 is refused, not
    # truncated to edge 0-1 or to 6 agents
    cfg = write_config(tmp_path, graph={
        "kind": "edges", "n": 3, "edges": [[0.5, 1, 1], [1, 2, 1]]})
    assert main(["check", "--config", cfg]) == EXIT_CONFIG
    assert "[0.5, 1, 1]" in capsys.readouterr().err
    (tmp_path / "net.json").write_text(json.dumps(
        {"n": 6.5, "edges": [[k, (k + 1) % 6, 1.0] for k in range(6)]}))
    cfg = write_config(tmp_path, graph={"kind": "file", "path": "net.json"})
    assert main(["check", "--config", cfg]) == EXIT_CONFIG
    assert "n must be an integer, got 6.5" in capsys.readouterr().err


@pytest.mark.parametrize("section, document, message", [
    ("graph", {"n": 4, "edges": 5}, "edges must be a list"),
    ("graph", {"n": 4, "edges": {"0": [1, 1.0]}}, "edges must be a list"),
    ("graph", {"n": 0, "edges": []}, "n must be at least 1, got 0"),
    ("graph", {"n": -2, "edges": []}, "n must be at least 1, got -2"),
    ("tasks", {"M": 2, "blocks": 5}, "blocks must be a list"),
    ("tasks", {"M": 2, "blocks": "12"}, "blocks must be a list"),
])
def test_misshaped_graph_and_task_files_exit_2(tmp_path, capsys, monkeypatch,
                                                section, document, message):
    # a graph or task file whose edges, blocks or n have the wrong shape
    # exits 2 naming the key, from check and from run, before any draw
    from adaptnets import harness
    monkeypatch.setattr(harness, "draw_horizon", _no_draw)
    (tmp_path / "data.json").write_text(json.dumps(document))
    file_kind = {"kind": "file", "path": "data.json"}
    if section == "graph":
        cfg = write_config(tmp_path, graph=file_kind)
    else:
        cfg = write_config(tmp_path, graph=_RING, model={**_MODEL,
                                                         "truth": file_kind})
    assert main(["check", "--config", cfg]) == EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) \
        == EXIT_CONFIG
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("section, document, key", [
    ("graph", {"n": True, "edges": []}, "n must be an integer, got True"),
    ("graph", {"n": 3, "edges": [[0, True, 1.0], [1, 2, 1.0]]},
     "edges[0][1] must be a number"),
    ("graph", {"n": 3, "edges": [[0, 1, True], [1, 2, 1.0]]},
     "edges[0][2] must be a number"),
    ("tasks", {"M": True, "blocks": [[1.0]] * 6},
     "M must be an integer, got True"),
    ("tasks", {"M": 1, "blocks": [[True]] + [[1.0]] * 5},
     "blocks[0][0] must be a number"),
])
def test_json_booleans_in_graph_and_task_files_exit_2(tmp_path, capsys,
                                                      monkeypatch, section,
                                                      document, key):
    # a file's keys are checked as an inline document's are, so a JSON
    # true is not taken for the count or the number 1; the message names
    # the key and the file
    from adaptnets import harness
    monkeypatch.setattr(harness, "draw_horizon", _no_draw)
    (tmp_path / "data.json").write_text(json.dumps(document))
    file_kind = {"kind": "file", "path": "data.json"}
    if section == "graph":
        cfg = write_config(tmp_path, graph=file_kind, model={
            **_MODEL, "truth": {"kind": "constant"}})
    else:
        cfg = write_config(tmp_path, graph=_RING, model={
            **_MODEL, "m": 1, "truth": file_kind})
    for args in (["check", "--config", cfg],
                 ["run", "--config", cfg, "--out", str(tmp_path / "o")]):
        assert main(args) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert key in err and "data.json" in err


# ---------------------------------------------------------------------------
# flags: each subcommand takes only the flags it reads
# ---------------------------------------------------------------------------

# each optional flag: its tokens and the value its handler reads
_FLAG_VALUES = {
    "--out": (["OUT"], None),
    "--seed": (["3"], 3),
    "--mu": (["0.02"], 0.02),
    "--eta": (["0.5"], 0.5),
    "--iters": (["50"], 50),
    "--runs": (["2"], 2),
    "--parallel": (["2"], 2),
    "--json": ([], True),
}
_TAKES = {
    "run": {"--out", "--seed", "--mu", "--eta", "--iters", "--runs",
            "--parallel", "--json"},
    "sweep": {"--out", "--seed", "--mu", "--iters", "--runs", "--parallel",
              "--json"},
    "theory": {"--seed", "--mu", "--eta", "--json"},
    "check": {"--seed", "--mu", "--eta", "--json"},
    "gen-graph": {"--out", "--seed", "--json"},
    "gen-tasks": {"--out", "--seed", "--json"},
}


class _Reached(Exception):
    pass


@pytest.mark.parametrize("flag", _FLAG_VALUES)
@pytest.mark.parametrize("command", _TAKES)
def test_a_subcommand_takes_only_the_flags_it_reads(tmp_path, capsys,
                                                    monkeypatch, command,
                                                    flag):
    # a flag the subcommand reads reaches its handler; any other is
    # argparse's usage error, before the config is read or a file written
    cfg = write_config(tmp_path, eta_grid=[0.0, 1.0])
    out = str(tmp_path / "out")
    tokens, value = _FLAG_VALUES[flag]
    tokens = [out if token == "OUT" else token for token in tokens]
    argv = ["--config", cfg, flag, *tokens]
    if command.startswith("gen-") and flag != "--out":
        argv += ["--out", out]
    seen = []

    def reached(args):
        seen.append(args)
        raise _Reached

    monkeypatch.setattr(cli, "_load_with_overrides", reached)
    if flag in _TAKES[command]:
        with pytest.raises(_Reached):
            main([command, *argv])
        (args,) = seen
        assert args.handler.__name__ == "_cmd_" + command.replace("-", "_")
        assert getattr(args, flag[2:]) == (out if value is None else value)
    else:
        assert main([command, *argv]) == EXIT_CONFIG
        assert seen == []
        assert (f"error: unrecognized arguments: {' '.join([flag, *tokens])}"
                in capsys.readouterr().err)
        assert [path.name for path in tmp_path.iterdir()] == \
            ["experiment.json"]


def test_the_readme_cli_table_matches_the_parser():
    # README's table lists, per subcommand, the flags its parser declares
    # besides --config and --json, marking the required ones
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## CLI\n")[1].split("\n## ")[0]
    rows = dict(re.findall(r"^\| `([a-z-]+)` \| (.*) \|$", section, re.M))
    parser = cli._build_parser()
    (subparsers,) = [action for action in parser._actions
                     if isinstance(action, argparse._SubParsersAction)]
    assert rows.keys() == subparsers.choices.keys()
    for command, sub in subparsers.choices.items():
        declared = [
            f"`{option}`" + (" (required)" if action.required else "")
            for action in sub._actions for option in action.option_strings
            if option not in ("-h", "--help", "--config", "--json")]
        assert rows[command].split(", ") == declared, command
