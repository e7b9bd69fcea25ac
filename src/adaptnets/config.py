"""Experiment configuration: schema, validation, and deterministic resolution.

A configuration document is plain JSON with a version marker:

    {
      "schema": 1,
      "seed": 7, "iters": 5000, "runs": 20,
      "graph":    {"kind": "geometric", "n": 50, "radius": 0.3},
      "model":    {"kind": "mse", "m": 2, "noise_var": 0.1,
                   "truth": {"kind": "smooth", "modes": 5}},
      "strategy": {"kind": "laplacian_reg", "mu": 0.005, "eta": 1.0}
    }

Unknown keys are rejected everywhere. Resolution is deterministic: the graph
and the true task field are derived from dedicated random streams spawned
from the base seed, so every process reconstructs the identical experiment.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from typing import Any

import numpy as np

from . import theory as theory_mod
from .graphs import (
    Graph,
    ClusterPartition,
    Spectrum,
    build_laplacian,
    complete_graph,
    load_graph,
    random_geometric_graph,
    ring_graph,
    star_graph,
)
from .streaming import StreamModel, TaskField, load_tasks, synth_smooth_tasks
from .strategies import (
    STRATEGY_KINDS,
    InterestMap,
    Strategy,
    StrategyConfig,
    build_strategy,
)

__all__ = [
    "SCHEMA_VERSION",
    "ConfigError",
    "ExperimentConfig",
    "ResolvedExperiment",
    "parse_config",
    "load_config",
    "resolve",
    "resolve_pieces",
    "run_checks",
    "setup_stream",
    "data_stream",
]

SCHEMA_VERSION = 1

# Stream namespaces: per-(run, agent) data streams live under namespace 0,
# experiment setup (graph layout, task synthesis) under namespace 1.
_NS_DATA = 0
_NS_SETUP = 1
_SETUP_GRAPH = 0
_SETUP_TASKS = 1


class ConfigError(ValueError):
    """Invalid or inconsistent experiment configuration."""


def data_stream(seed: int, run: int, agent: int) -> np.random.Generator:
    """The independent stream feeding agent `agent` during run `run`."""
    return np.random.default_rng(
        np.random.SeedSequence(seed, spawn_key=(_NS_DATA, run, agent))
    )


def setup_stream(seed: int, which: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence(seed, spawn_key=(_NS_SETUP, which))
    )


def _require_keys(doc: dict, allowed: set[str], required: set[str], where: str):
    if not isinstance(doc, dict):
        raise ConfigError(f"{where} must be an object")
    unknown = set(doc) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")
    missing = required - set(doc)
    if missing:
        raise ConfigError(f"missing keys in {where}: {sorted(missing)}")


def _kind(doc: dict, kinds, where: str) -> str:
    """doc's "kind", which must be a string naming one of kinds."""
    kind = doc.get("kind")
    if not isinstance(kind, str) or kind not in kinds:
        raise ConfigError(
            f"unknown {where} kind {kind!r}; expected one of {sorted(kinds)}")
    return kind


def _as_int(value, where: str, minimum: int | None = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where} must be an integer")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{where} must be >= {minimum}")
    return value


def _as_number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where} must be a number")
    return float(value)


def _as_string(value, where: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{where} must be a string")
    return value


def _as_bool(value, where: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{where} must be true or false")
    return value


def _as_list(value, where: str, item=None) -> list:
    """value, which must be a list; item(entry, where) checks each entry."""
    if not isinstance(value, list):
        raise ConfigError(f"{where} must be a list")
    if item is not None:
        for entry in value:
            item(entry, f"{where} entry")
    return value


def _as_int_list(value, where: str) -> list:
    return _as_list(value, where, _as_int)


def _as_matrix(value, where: str) -> list:
    """A list of rows, each a list of numbers (rows may differ in length)."""
    return _as_list(value, where, lambda row, at: _as_list(row, at, _as_number))


def _as_numbers(value, where: str):
    """A number, or a list of numbers."""
    if isinstance(value, list):
        return _as_list(value, where, _as_number)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where} must be a number or a list of numbers")
    return value


def _as_number_or_matrix(value, where: str):
    if isinstance(value, list):
        return _as_matrix(value, where)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where} must be a number or a matrix")
    return value


def _as_name_or_matrix(value, where: str):
    if isinstance(value, list):
        return _as_matrix(value, where)
    if not isinstance(value, str):
        raise ConfigError(f"{where} must be a rule name or a matrix")
    return value


def _check_types(doc: dict, checks: dict, where: str) -> None:
    """Run checks[key](value, "where.key") on each key doc has: the JSON
    type of every value, checked before anything is built from it."""
    for key, check in checks.items():
        if key in doc:
            check(doc[key], f"{where}.{key}")


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description.

    The sub-specifications (graph, model, strategy) stay as plain dicts and
    are interpreted by resolve(). base_dir anchors relative file paths and
    is excluded from the canonical form and the hash; parallel and out stay
    in the canonical form (round-trip) but not in the hash.
    """

    seed: int
    iters: int
    runs: int
    graph: dict
    model: dict
    strategy: dict
    parallel: int = 1
    record_every: int = 1
    steady_window: float = 0.1
    eta_grid: tuple[float, ...] | None = None
    out: str | None = None
    base_dir: str | None = None

    def canonical(self) -> dict:
        doc: dict[str, Any] = {
            "schema": SCHEMA_VERSION,
            "seed": self.seed,
            "iters": self.iters,
            "runs": self.runs,
            "parallel": self.parallel,
            "record_every": self.record_every,
            "steady_window": self.steady_window,
            "graph": self.graph,
            "model": self.model,
            "strategy": self.strategy,
        }
        if self.eta_grid is not None:
            doc["eta_grid"] = list(self.eta_grid)
        if self.out is not None:
            doc["out"] = self.out
        return doc

    def canonical_json(self) -> str:
        return json.dumps(self.canonical(), sort_keys=True,
                          separators=(",", ":"))

    def __hash__(self) -> int:
        # the dict fields are unhashable; equal configs share a canonical form
        return hash(self.canonical_json())

    def config_hash(self) -> str:
        # worker count and artifact location never change the numbers, so
        # they are not part of the experiment's identity
        doc = self.canonical()
        doc.pop("parallel", None)
        doc.pop("out", None)
        payload = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode()).hexdigest()

    def with_overrides(self, **overrides) -> "ExperimentConfig":
        doc = self.canonical()
        strategy = dict(doc["strategy"])
        for key in ("mu", "eta"):
            if key in overrides and overrides[key] is not None:
                strategy[key] = overrides.pop(key)
        doc["strategy"] = strategy
        for key in ("seed", "iters", "runs", "parallel"):
            if key in overrides and overrides[key] is not None:
                doc[key] = overrides.pop(key)
        overrides = {k: v for k, v in overrides.items() if v is not None}
        if overrides:
            raise ConfigError(f"unknown overrides: {sorted(overrides)}")
        return parse_config(doc, base_dir=self.base_dir)


_GRAPH_KEYS = {
    "ring": {"n", "weight"},
    "star": {"n", "weight"},
    "complete": {"n", "weight"},
    "geometric": {"n", "radius", "kernel_width", "require_connected", "max_tries"},
    "file": {"path"},
    "edges": {"n", "edges"},
}

_TRUTH_KEYS = {
    "smooth": {"modes", "bandwidth", "scale"},
    "constant": {"scale"},
    "piecewise": {"sizes", "scale"},
    "explicit": {"blocks"},
    "file": {"path"},
    "global_random": {"n_variables", "scale"},
}

_GRAPH_TYPES = {
    "n": _as_int, "weight": _as_number, "radius": _as_number,
    "kernel_width": _as_number, "require_connected": _as_bool,
    "max_tries": _as_int, "path": _as_string, "edges": _as_matrix,
}

_TRUTH_TYPES = {
    "scale": _as_number, "path": _as_string, "blocks": _as_matrix,
    "sizes": _as_int_list,
}

_STRATEGY_TYPES = {
    "weights": _as_name_or_matrix,
    "rho": _as_number_or_matrix,
    "penalty": _as_string,
    "clusters": _as_int_list,
    "interests": lambda value, where: _as_list(value, where, _as_int_list),
}

_KERNEL_KEYS = {
    "polynomial": {"coefficients"},
    "power": {"exponent"},
    "heat": {"rate", "degree"},
}


def _validate_graph_spec(doc: dict) -> None:
    _require_keys(doc, set().union(*_GRAPH_KEYS.values()) | {"kind"}, {"kind"},
                  "graph")
    kind = _kind(doc, _GRAPH_KEYS, "graph")
    _require_keys(doc, _GRAPH_KEYS[kind] | {"kind"},
                  {"kind"} | ({"path"} if kind == "file" else
                              {"n", "edges"} if kind == "edges" else
                              {"n", "radius"} if kind == "geometric" else {"n"}),
                  f"graph ({kind})")
    _check_types(doc, _GRAPH_TYPES, "graph")


def _validate_truth_spec(doc: dict) -> None:
    _require_keys(doc, set().union(*_TRUTH_KEYS.values()) | {"kind"}, {"kind"},
                  "model.truth")
    kind = _kind(doc, _TRUTH_KEYS, "truth")
    required = {
        "smooth": set(), "constant": set(), "piecewise": {"sizes"},
        "explicit": {"blocks"}, "file": {"path"},
        "global_random": {"n_variables"},
    }[kind]
    _require_keys(doc, _TRUTH_KEYS[kind] | {"kind"}, {"kind"} | required,
                  f"model.truth ({kind})")
    if kind == "smooth" and "modes" in doc and "bandwidth" in doc:
        raise ConfigError("model.truth: give either modes or bandwidth, not both")
    _check_types(doc, _TRUTH_TYPES, "model.truth")


def _validate_model_spec(doc: dict) -> None:
    _require_keys(doc, {"kind", "m", "r_u", "noise_var", "reg", "truth"},
                  {"kind", "truth"}, "model")
    kind = _kind(doc, ("mse", "logistic"), "model")
    if kind == "mse" and "noise_var" not in doc:
        raise ConfigError("mse model requires noise_var")
    if kind == "logistic" and "noise_var" in doc:
        raise ConfigError("logistic model does not take noise_var")
    _check_types(doc, {"noise_var": _as_numbers, "reg": _as_number}, "model")
    _validate_truth_spec(doc["truth"])


def _strategy_config(spec: dict) -> StrategyConfig:
    """The StrategyConfig of a strategy object: its kind's keys are the
    payload."""
    return StrategyConfig(
        kind=spec.get("kind"),
        mu=float(spec["mu"]),
        eta=float(spec.get("eta", 0.0)),
        payload={k: v for k, v in spec.items() if k not in ("kind", "mu", "eta")},
    )


def _validate_strategy_spec(doc: dict) -> None:
    if not isinstance(doc, dict):
        raise ConfigError("strategy must be an object")
    _require_keys(doc, set(doc), {"kind", "mu"}, "strategy")
    _as_number(doc["mu"], "strategy.mu")
    _as_number(doc.get("eta", 0.0), "strategy.eta")
    try:
        _strategy_config(doc)
    except ValueError as exc:
        raise ConfigError(str(exc))
    _check_types(doc, _STRATEGY_TYPES, "strategy")
    subspace = doc.get("subspace")
    if isinstance(subspace, dict) and "clusters" in subspace:
        _as_int_list(subspace["clusters"], "strategy.subspace.clusters")
    if "kernel" in doc:
        kernel = doc["kernel"]
        if not isinstance(kernel, dict):
            raise ConfigError("strategy.kernel must be an object")
        kind = _kind(kernel, _KERNEL_KEYS, "strategy.kernel")
        _require_keys(kernel, _KERNEL_KEYS[kind] | {"kind"},
                      {"kind"} | _KERNEL_KEYS[kind],
                      f"strategy.kernel ({kind})")
        if kind == "power":
            _as_int(kernel["exponent"], "kernel.exponent", minimum=1)
        if kind == "heat":
            _as_number(kernel["rate"], "kernel.rate")
            _as_int(kernel["degree"], "kernel.degree", minimum=1)


def parse_config(doc: dict, base_dir: str | None = None) -> ExperimentConfig:
    """Validate a configuration document. Raises ConfigError on any problem."""
    allowed = {"schema", "seed", "iters", "runs", "parallel", "record_every",
               "steady_window", "graph", "model", "strategy", "eta_grid", "out"}
    _require_keys(doc, allowed,
                  {"schema", "seed", "iters", "runs", "graph", "model",
                   "strategy"}, "config")
    if doc["schema"] != SCHEMA_VERSION:
        raise ConfigError(
            f"unsupported schema version {doc['schema']!r}; this build reads "
            f"schema {SCHEMA_VERSION}"
        )
    seed = _as_int(doc["seed"], "seed", minimum=0)
    iters = _as_int(doc["iters"], "iters", minimum=1)
    runs = _as_int(doc["runs"], "runs", minimum=1)
    parallel = _as_int(doc.get("parallel", 1), "parallel", minimum=1)
    record_every = _as_int(doc.get("record_every", 1), "record_every", minimum=1)
    if record_every > iters:
        raise ConfigError("record_every must not exceed iters")
    window = _as_number(doc.get("steady_window", 0.1), "steady_window")
    if not (0.0 < window <= 1.0):
        raise ConfigError("steady_window must be in (0, 1]")
    _validate_graph_spec(doc["graph"])
    _validate_model_spec(doc["model"])
    _validate_strategy_spec(doc["strategy"])
    eta_grid = None
    if "eta_grid" in doc:
        grid = doc["eta_grid"]
        if not isinstance(grid, list) or not grid:
            raise ConfigError("eta_grid must be a non-empty list")
        eta_grid = tuple(_as_number(v, "eta_grid entry") for v in grid)
        if any(v < 0.0 for v in eta_grid):
            raise ConfigError("eta_grid entries must be >= 0")
    out = doc.get("out")
    if out is not None and not isinstance(out, str):
        raise ConfigError("out must be a string path")
    return ExperimentConfig(
        seed=seed, iters=iters, runs=runs,
        graph=dict(doc["graph"]), model=dict(doc["model"]),
        strategy=dict(doc["strategy"]),
        parallel=parallel, record_every=record_every, steady_window=window,
        eta_grid=eta_grid, out=out, base_dir=base_dir,
    )


def load_config(path) -> ExperimentConfig:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")
    return parse_config(doc, base_dir=os.path.dirname(os.path.abspath(path)))


# ---------------------------------------------------------------------------
# Resolution
# ---------------------------------------------------------------------------

@dataclass
class ResolvedExperiment:
    """Concrete experiment pieces built deterministically from a config."""

    config: ExperimentConfig
    graph: Graph
    spectrum: Spectrum
    model: StreamModel
    strategy: Strategy
    theory: dict | None
    w_star: np.ndarray | None


def _resolve_path(path: str, base_dir: str | None) -> str:
    if os.path.isabs(path) or base_dir is None:
        return path
    return os.path.join(base_dir, path)


def _build_graph(spec: dict, seed: int, base_dir: str | None) -> Graph:
    kind = spec["kind"]
    try:
        if kind == "ring":
            return ring_graph(spec["n"], spec.get("weight", 1.0))
        if kind == "star":
            return star_graph(spec["n"], spec.get("weight", 1.0))
        if kind == "complete":
            return complete_graph(spec["n"], spec.get("weight", 1.0))
        if kind == "geometric":
            return random_geometric_graph(
                spec["n"], spec["radius"],
                rng=setup_stream(seed, _SETUP_GRAPH),
                kernel_width=spec.get("kernel_width"),
                require_connected=spec.get("require_connected", True),
                max_tries=spec.get("max_tries", 100),
            )
        if kind == "file":
            return load_graph(_resolve_path(spec["path"], base_dir))
        if kind == "edges":
            return Graph.from_edges(spec["n"], spec["edges"])
    except OSError:
        raise
    except ValueError as exc:
        raise ConfigError(f"graph: {exc}")
    raise ConfigError(f"unknown graph kind {kind!r}")


def _build_truth(model_spec: dict, strategy_spec: dict, graph: Graph,
                 spectrum: Spectrum, seed: int,
                 base_dir: str | None) -> TaskField:
    spec = model_spec["truth"]
    kind = spec["kind"]
    n = graph.n_agents
    rng = setup_stream(seed, _SETUP_TASKS)
    scale = spec.get("scale", 1.0)
    try:
        if kind == "smooth":
            m = _as_int(model_spec.get("m", 1), "model.m", minimum=1)
            if "modes" in spec:
                modes = _as_int(spec["modes"], "truth.modes", minimum=1)
                if modes > n:
                    raise ConfigError(f"modes={modes} exceeds N={n}")
                bandwidth = float(spectrum.eigenvalues[modes - 1])
            else:
                bandwidth = _as_number(spec.get("bandwidth", np.inf),
                                       "truth.bandwidth")
            field = synth_smooth_tasks(spectrum, m, bandwidth, rng)
            return TaskField(tuple(scale * b for b in field.blocks))
        if kind == "constant":
            m = _as_int(model_spec.get("m", 1), "model.m", minimum=1)
            shared = scale * rng.standard_normal(m)
            return TaskField(tuple(shared.copy() for _ in range(n)))
        if kind == "piecewise":
            m = _as_int(model_spec.get("m", 1), "model.m", minimum=1)
            part = ClusterPartition(tuple(spec["sizes"]))
            if part.n_agents != n:
                raise ConfigError("truth.sizes must sum to the agent count")
            blocks = []
            for size in part.sizes:
                shared = scale * rng.standard_normal(m)
                blocks.extend(shared.copy() for _ in range(size))
            return TaskField(tuple(blocks))
        if kind == "explicit":
            return TaskField(tuple(np.asarray(b, dtype=float)
                                   for b in spec["blocks"]))
        if kind == "file":
            return load_tasks(_resolve_path(spec["path"], base_dir))
        if kind == "global_random":
            if strategy_spec.get("kind") != "overlapping":
                raise ConfigError(
                    "global_random truth requires the overlapping strategy"
                )
            n_vars = _as_int(spec["n_variables"], "truth.n_variables", minimum=1)
            interest = InterestMap(
                n_vars, tuple(tuple(v) for v in strategy_spec["interests"])
            )
            if interest.n_agents != n:
                raise ConfigError("interests must list one row per agent")
            values = scale * rng.standard_normal(n_vars)
            return TaskField(interest.blocks_from_global(values))
    except OSError:
        raise
    except ValueError as exc:
        raise ConfigError(f"model.truth: {exc}")
    raise ConfigError(f"unknown truth kind {kind!r}")


def _build_model(model_spec: dict, truth: TaskField) -> StreamModel:
    kind = model_spec["kind"]
    m = truth.uniform_size
    if "m" in model_spec:
        declared = _as_int(model_spec["m"], "model.m", minimum=1)
        if m is not None and declared != m:
            raise ConfigError(f"model.m = {declared} but blocks have length {m}")
    r_u_spec = model_spec.get("r_u", "identity")
    try:
        if r_u_spec is None:
            r_u = None
        elif isinstance(r_u_spec, str):
            if r_u_spec != "identity":
                raise ConfigError(f"unknown r_u rule {r_u_spec!r}")
            r_u = None if m is None else np.eye(m)
        else:
            r_u = np.asarray(r_u_spec, dtype=float)
        if kind == "mse":
            noise = model_spec["noise_var"]
            noise_arr = (np.full(truth.n_agents, float(noise))
                         if np.isscalar(noise) else
                         np.asarray(noise, dtype=float))
            return StreamModel(kind="mse", truth=truth, r_u=r_u,
                               noise_var=noise_arr)
        return StreamModel(kind="logistic", truth=truth, r_u=r_u,
                           reg=float(model_spec.get("reg", 0.0)))
    except ValueError as exc:
        raise ConfigError(f"model: {exc}")


def _attach_theory(config: ExperimentConfig, graph: Graph, spectrum: Spectrum,
                   model: StreamModel,
                   strategy: Strategy) -> tuple[dict | None, np.ndarray | None]:
    """Closed-form predictions where they apply, plus the reference point W*
    used for variance-type trajectories."""
    if model.kind != "mse" or model.r_u is None:
        return None, None
    m = model.truth.uniform_size
    truth_mat = model.truth.as_matrix()
    base = dict(mu=strategy.mu, eta=strategy.eta, m=m,
                noise_var=model.noise_var, r_u=model.r_u, spectrum=spectrum,
                truth=truth_mat)
    noncoop = theory_mod.msd_noncooperative(
        theory_mod.TheoryInputs(**{**base, "eta": 0.0})
    )
    theory: dict[str, Any] = {
        "msd_nc": noncoop.network,
        "msd_nc_per_agent": noncoop.per_agent.tolist(),
    }
    w_star: np.ndarray | None = None
    closed_form = STRATEGY_KINDS[strategy.kind].theory
    if closed_form == "noncooperative":
        theory["msd"] = noncoop.network
        w_star = truth_mat
    elif closed_form == "smoothness":
        inputs = theory_mod.TheoryInputs(**base, kernel=strategy.kernel)
        var = theory_mod.variance_smoothness(inputs)
        bias = theory_mod.bias_smoothness(inputs)
        theory["variance"] = {"total": var.total,
                              "modes": var.per_mode.tolist()}
        theory["bias"] = {"total": bias.total,
                          "modes": bias.per_mode.tolist()}
        theory["msd"] = var.total + bias.total / graph.n_agents
        w_star = bias.w_star
        if strategy.kernel is not None:
            try:
                bound = theory_mod.filter_bound(inputs)
                theory["filter_ratios"] = bound.ratios.tolist()
            except ValueError:
                pass
    elif closed_form == "projection" and strategy.subspace is not None:
        sub = strategy.subspace
        flat = truth_mat.reshape(-1)
        # the projection residual without forming the (M_t x M_t) projector
        coeffs = np.linalg.solve(sub.basis.T @ sub.basis, sub.basis.T @ flat)
        residual = np.linalg.norm(flat - sub.basis @ coeffs)
        if residual <= 1e-8 * max(1.0, np.linalg.norm(flat)):
            inputs = theory_mod.TheoryInputs(**base, subspace=sub)
            theory["msd"] = theory_mod.msd_projection(inputs)
            theory["msd_projection"] = theory["msd"]
            w_star = truth_mat
    return theory, w_star


def resolve_pieces(
    config: ExperimentConfig,
) -> tuple[Graph, Spectrum, StreamModel]:
    """Graph, spectrum, and stream model only (no strategy construction).

    Lets callers inspect user-supplied strategy ingredients (for example a
    combination matrix that may violate feasibility) before the strict
    validation in build_strategy runs.
    """
    graph = _build_graph(config.graph, config.seed, config.base_dir)
    spectrum = build_laplacian(graph)
    truth = _build_truth(config.model, config.strategy, graph, spectrum,
                         config.seed, config.base_dir)
    if truth.n_agents != graph.n_agents:
        raise ConfigError(
            f"truth has {truth.n_agents} blocks but the graph has "
            f"{graph.n_agents} agents"
        )
    model = _build_model(config.model, truth)
    return graph, spectrum, model


def resolve(config: ExperimentConfig) -> ResolvedExperiment:
    """Build the concrete experiment (graph, tasks, model, strategy, theory).

    Deterministic in the config alone; raises ConfigError for any
    inconsistency the schema-level validation cannot see.
    """
    graph, spectrum, model = resolve_pieces(config)
    try:
        strategy = build_strategy(_strategy_config(config.strategy), graph,
                                  model, spectrum=spectrum)
    except ValueError as exc:
        raise ConfigError(f"strategy: {exc}")
    theory, w_star = _attach_theory(config, graph, spectrum, model, strategy)
    return ResolvedExperiment(
        config=config, graph=graph, spectrum=spectrum, model=model,
        strategy=strategy, theory=theory, w_star=w_star,
    )


def run_checks(config: ExperimentConfig) -> list[tuple[str, bool, str]]:
    """The self-tests of `adaptnets check`, as (name, passed, detail).

    Checks the Laplacian eigendecomposition, then reports the strategy
    kind's condition rows on the pieces its builder assembles: the rows
    resolve refuses a step on, computed by the same functions. Where every
    condition holds, the kind's own self-tests follow; they only report.
    """
    graph, spectrum, model = resolve_pieces(config)
    residual = np.linalg.norm(
        spectrum.laplacian @ spectrum.eigenvectors
        - spectrum.eigenvectors * spectrum.eigenvalues
    )
    checks = [("spectrum_residual",
               residual <= 1e-10 * max(1.0, spectrum.lam_max) * graph.n_agents,
               f"residual={residual:.2e}")]
    entry = STRATEGY_KINDS[config.strategy["kind"]]
    if model.truth.uniform_size is None and not entry.blockwise:
        checks.append(("uniform_blocks", False,
                       "strategy needs uniform block sizes"))
    else:
        strategy = entry.build(_strategy_config(config.strategy), graph, model,
                               spectrum)
        conditions = entry.conditions(strategy, spectrum)
        checks += conditions
        if all(ok for _, ok, _ in conditions):
            checks += entry.checks(strategy, spectrum, np.random.default_rng(0))
    return [(name, bool(passed), detail) for name, passed, detail in checks]
