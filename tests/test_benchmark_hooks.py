"""The benchmark's tracer still finds the names it patches.

perfbench/tracing.py replaces public names of the package with timing
wrappers from outside, so a rename here would break `perfbench/run.py
--trace 1` without failing any test of the package. These tests run the
tracer itself on a diffusion and a subspace_projection experiment.
"""

import importlib
from pathlib import Path

import pytest

from adaptnets import config as config_mod
from adaptnets import harness as harness_mod
from adaptnets import strategies as strategies_mod
from adaptnets import streaming as streaming_mod
from adaptnets import theory as theory_mod
from adaptnets.config import parse_config
from adaptnets.harness import run_experiment

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

SPANS = {"config.resolve", "config.resolve_pieces", "strategies.social",
         "strategies.self_learn", "streaming.draw_horizon",
         "theory.msd_projection"}


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("tracing")


def _patched(tracing):
    """Every (owner, name) the tracer replaces while installed."""
    return ([(harness_mod, "resolve"), (config_mod, "resolve_pieces"),
             (config_mod, "build_strategy"), (harness_mod, "draw_horizon"),
             (streaming_mod.SampleBlock, "at"), (strategies_mod, "self_learn")]
            + [(theory_mod, name) for name in tracing.THEORY_PREDICTORS])


@pytest.mark.parametrize("seed, strategy", [
    # run_experiment resolves its config on every call, so the tracer sees
    # the resolve layers whatever other tests ran before
    (918_273, {"kind": "diffusion", "mu": 0.01}),
    (918_274, {"kind": "subspace_projection", "mu": 0.01,
               "subspace": {"clusters": [3, 3]}}),
])
def test_tracer_records_every_layer_and_restores_every_name(tracing, seed,
                                                            strategy):
    cfg = parse_config({
        "schema": 1, "seed": seed, "iters": 20, "runs": 2,
        "graph": {"kind": "ring", "n": 6},
        "model": {"kind": "mse", "m": 2, "noise_var": 0.1,
                  "truth": {"kind": "constant"}},
        "strategy": strategy})
    patched = _patched(tracing)
    before = [getattr(owner, name) for owner, name in patched]
    tracer = tracing.Tracer()
    with tracer.installed():
        assert all(getattr(owner, name) is not old
                   for (owner, name), old in zip(patched, before))
        result = run_experiment(cfg, parallel=1)
    assert [getattr(owner, name) for owner, name in patched] == before
    assert "msd_projection" in result.theory
    names = {name for name, *_ in tracer.spans}
    assert SPANS <= names, SPANS - names
