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

Each section that has a kind declares its kinds once, in one table of their
keys, the JSON type of each and their builders; parse_config checks every
key against it. Resolution is deterministic: the graph
and the true task field are derived from dedicated random streams spawned
from the base seed, so every process reconstructs the identical experiment.
theory.closed_forms decides which closed forms resolve attaches, from the
form the strategy's kind names in strategies.STRATEGY_KINDS.
"""

from __future__ import annotations

import copy
import hashlib
import json
import os
from dataclasses import dataclass, field as dc_field
from functools import cache, cached_property, lru_cache, partial
from typing import Any, Callable

import numpy as np

from .graphs import (
    Graph,
    ClusterPartition,
    SpectralKernel,
    Spectrum,
    complete_graph,
    random_geometric_graph,
    readonly_setstate,
    ring_graph,
    star_graph,
)
from .streaming import StreamModel, TaskField, synth_smooth_tasks
from .strategies import (
    STRATEGY_KINDS,
    InterestMap,
    Strategy,
    StrategyConfig,
    assess_strategy,
    build_strategy,
)
from .theory import closed_forms

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
    "data_streams",
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


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx), on 32-bit words
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4


def _uint32_words(value: int) -> list[int]:
    """An int as SeedSequence reads it: its 32-bit words, lowest first."""
    if value < 0:
        raise ValueError(f"seeds and spawn keys must be non-negative, "
                         f"got {value}")
    words = [value & _MASK32]
    while value := value >> 32:
        words.append(value & _MASK32)
    return words


def _running(const: int, mult: int):
    """The hash constant before and after each step: a hashed word is xored
    with the one and multiplied by the other."""
    while True:
        before, const = const, const * mult & _MASK32
        yield before, const


def _hashmix(value, xor, mul):
    value = (value ^ xor) * mul & _MASK32
    return value ^ (value >> 16)


def _mix(x, y):
    result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return result ^ (result >> 16)


def _const_pairs(pairs, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The next `count` (xor, mul) pairs, as uint32 columns along axis 0."""
    table = np.array([next(pairs) for _ in range(count)], dtype=np.uint32)
    return table[:, 0, None, None], table[:, 1, None, None]


# generate_state hashes the pool, cycled, to 8 words with its own constants
_STATE_XOR, _STATE_MUL = _const_pairs(_running(_INIT_B, _MULT_B),
                                      2 * _POOL_SIZE)


class _StateWords:
    """PCG64's four uint64 state words, handed over as a seed sequence would
    hand them to PCG64, the one caller; registered with numpy's
    ISeedSequence on first use."""

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


@cache
def _pcg64_generator():
    # numpy.random is loaded here, on the first stream, not on import
    from numpy.random import PCG64, Generator, bit_generator
    bit_generator.ISeedSequence.register(_StateWords)
    return PCG64, Generator


@lru_cache(maxsize=16)
def _seed_pool(seed: int, prefix: tuple):
    """SeedSequence's pool after every entropy word of seed and prefix, as
    uint32 words along axis 0, and the hash constants that then mix in the
    row word and the column word."""
    entropy = _uint32_words(seed)
    # a spawned sequence pads its entropy to the pool size
    entropy += [0] * (_POOL_SIZE - len(entropy))
    for key in prefix:
        entropy += _uint32_words(key)
    pairs = _running(_INIT_A, _MULT_A)
    pool = [_hashmix(word, *next(pairs)) for word in entropy[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], *next(pairs)))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], _hashmix(word, *next(pairs)))
    return (np.array(pool, dtype=np.uint32)[:, None, None],
            _const_pairs(pairs, _POOL_SIZE), _const_pairs(pairs, _POOL_SIZE))


def _streams(seed: int, prefix: tuple, rows, cols) -> list[list]:
    """default_rng(SeedSequence(seed, spawn_key=prefix + (r, c))) for every
    r in rows and c in cols, one list per row, bit for bit.

    The pool words that depend only on the seed and the prefix are mixed
    once, as ints. Then r and c, each one word below 2**32, are mixed into
    all four pool words at once as uint32 arrays, whose products wrap as
    the hash needs, and the state words of every stream come out together.
    """
    pool, row_consts, col_consts = _seed_pool(seed, prefix)
    rows = np.asarray(rows, dtype=np.uint32)[None, :, None]
    cols = np.asarray(cols, dtype=np.uint32)[None, None, :]
    pool = _mix(pool, _hashmix(rows, *row_consts))
    pool = _mix(pool, _hashmix(cols, *col_consts))
    state = _hashmix(np.concatenate([pool, pool]), _STATE_XOR, _STATE_MUL)
    # pairs of words read as little-endian uint64s, as generate_state does
    state = state.transpose(1, 2, 0).astype("<u4", order="C")
    state = state.view("<u8").astype(np.uint64)
    pcg64, generator = _pcg64_generator()
    return [[generator(pcg64(_StateWords(words))) for words in row]
            for row in state]


def data_streams(seed: int, runs, n: int) -> list[list]:
    """The streams of agents 0 .. n - 1 in each run of `runs`, one list per
    run: row i, entry k is data_stream(seed, runs[i], k)."""
    return _streams(seed, (_NS_DATA,), runs, range(n))


def data_stream(seed: int, run: int, agent: int) -> np.random.Generator:
    """The independent stream feeding agent `agent` during run `run`."""
    return _streams(seed, (_NS_DATA,), [run], [agent])[0][0]


def setup_stream(seed: int, which: int) -> np.random.Generator:
    return _streams(seed, (), [_NS_SETUP], [which])[0][0]


def _require_keys(doc: dict, allowed: set[str], required: set[str], where: str):
    if not isinstance(doc, dict):
        raise ConfigError(f"{where} must be an object")
    unknown = set(doc) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")
    missing = required - set(doc)
    if missing:
        raise ConfigError(f"missing keys in {where}: {sorted(missing)}")


def _as_int(value, where: str, minimum: int | None = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{where} must be at least {minimum}, got {value}")
    return value


_as_count = partial(_as_int, minimum=1)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _as_number(value, where: str) -> float:
    # _is_number's test, inline: it runs once per entry of a matrix
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where} must be a number")
    return float(value)


def _as_list(value, where: str, item=None) -> list:
    """value, which must be a list; item(entry, where) checks each entry,
    and an entry that fails is checked again to name it "where[i]"."""
    if not isinstance(value, list):
        raise ConfigError(f"{where} must be a list")
    if item is not None:
        for i, entry in enumerate(value):
            try:
                item(entry, where)
            except ConfigError:
                item(entry, f"{where}[{i}]")
    return value


def _as_int_list(value, where: str) -> list:
    return _as_list(value, where, _as_int)


def _as_number_list(value, where: str) -> list:
    return _as_list(value, where, _as_number)


def _as_matrix(value, where: str) -> list:
    """A list of rows, each a list of numbers (rows may differ in length)."""
    return _as_list(value, where, _as_number_list)


def _checker(single, expected: str, many=None):
    """The check of a value for which single(value) holds or, given many,
    of a list, which many(value, where) checks."""
    def check(value, where: str):
        if many is not None and isinstance(value, list):
            return many(value, where)
        if not single(value):
            raise ConfigError(f"{where} must be {expected}")
        return value
    return check


_as_string = _checker(lambda value: isinstance(value, str), "a string")
_as_bool = _checker(lambda value: isinstance(value, bool), "true or false")
_as_numbers = _checker(_is_number, "a number or a list of numbers",
                       _as_number_list)
_as_number_or_matrix = _checker(_is_number, "a number or a matrix", _as_matrix)
_as_name_or_matrix = _checker(lambda value: isinstance(value, str),
                              "a rule name or a matrix", _as_matrix)
# null: no shared regressor covariance
_as_r_u = _checker(lambda value: value in (None, "identity"),
                   '"identity", null or a matrix', _as_matrix)


def _as_subspace(value, where: str) -> None:
    """"consensus" or {"clusters": [sizes]}."""
    if value == "consensus":
        return
    if not isinstance(value, dict):
        raise ConfigError(
            f'{where} must be "consensus" or {{"clusters": [sizes]}}')
    _require_keys(value, {"clusters"}, {"clusters"}, where)
    _as_int_list(value["clusters"], f"{where}.clusters")


def _check_types(doc: dict, checks: dict, where: str) -> None:
    """Run checks[key](value, "where.key") on each key doc has ("key" where
    where is empty): the JSON type of every value, checked before anything
    is built from it."""
    for key, check in checks.items():
        if key in doc:
            check(doc[key], f"{where}.{key}" if where else key)


@dataclass(frozen=True, eq=False)
class _Kind:
    """One kind of a config section, declared once: {key: type check} of
    the keys besides "kind" that an object of the kind must have and may
    have, and what resolve builds from it."""

    build: Callable
    required: dict = dc_field(default_factory=dict)
    optional: dict = dc_field(default_factory=dict)


def _check_kind(doc, kinds: dict[str, _Kind], where: str) -> None:
    """Check doc against its entry in kinds: an object naming a known kind,
    with the entry's required keys and no others, each of its declared
    JSON type."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{where} must be an object")
    kind = doc.get("kind")
    if not isinstance(kind, str) or kind not in kinds:
        raise ConfigError(
            f"unknown {where} kind {kind!r}; expected one of {sorted(kinds)}")
    entry = kinds[kind]
    _require_keys(doc, {"kind", *entry.required, *entry.optional},
                  {"kind", *entry.required}, f"{where} ({kind})")
    _check_types(doc, {**entry.required, **entry.optional}, where)


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description.

    The sub-specifications (graph, model, strategy) stay as plain dicts and
    are interpreted by resolve(). base_dir anchors relative file paths and
    is excluded from the canonical form and the hash; parallel and out stay
    in the canonical form (round-trip) but not in the hash. parse_config
    copies the dicts, which must not change: each form is serialized once.
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

    @cached_property
    def _forms(self) -> tuple[str, str]:
        # the canonical JSON, and the digest of it without the two keys
        # that never change the numbers
        doc = self.canonical()
        identity = {k: v for k, v in doc.items() if k not in ("parallel", "out")}
        dump = partial(json.dumps, sort_keys=True, separators=(",", ":"))
        return dump(doc), hashlib.sha256(dump(identity).encode()).hexdigest()

    def canonical_json(self) -> str:
        return self._forms[0]

    def __hash__(self) -> int:
        # the dict fields are unhashable; equal configs share a canonical form
        return hash(self._forms[0])

    def config_hash(self) -> str:
        return self._forms[1]

    def with_overrides(self, **overrides) -> "ExperimentConfig":
        if all(value is None for value in overrides.values()):
            # nothing to change, and this config was parsed already
            return self
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


# ---------------------------------------------------------------------------
# The kinds of each config section
# ---------------------------------------------------------------------------

def _resolve_path(path: str, base_dir: str | None) -> str:
    if os.path.isabs(path) or base_dir is None:
        return path
    return os.path.join(base_dir, path)


def _file_document(spec: dict, config: ExperimentConfig, checks: dict,
                   sources: list) -> dict:
    """The JSON document of spec's graph or task file, each key checked as
    the same key of an inline document is; a refusal names the file. The
    file is read once, as bytes, and the sha256 hex digest of those bytes
    is appended to sources."""
    path = _resolve_path(spec["path"], config.base_dir)
    with open(path, "rb") as fh:
        data = fh.read()
    doc = json.loads(data)
    if isinstance(doc, dict):
        try:
            _check_types(doc, checks, "")
        except ConfigError as exc:
            raise ConfigError(f"file {path}: {exc}") from None
    sources.append(hashlib.sha256(data).hexdigest())
    return doc


def _geometric_graph(spec: dict, config: ExperimentConfig) -> Graph:
    return random_geometric_graph(
        spec["n"], spec["radius"],
        rng=setup_stream(config.seed, _SETUP_GRAPH),
        kernel_width=spec.get("kernel_width"),
        require_connected=spec.get("require_connected", True),
        max_tries=spec.get("max_tries", 100),
    )


def _uniform_graph(generator) -> _Kind:
    """The kind of generator(n, weight): one weight on every edge."""
    return _Kind(lambda spec, config: generator(spec["n"],
                                                spec.get("weight", 1.0)),
                 {"n": _as_count}, {"weight": _as_number})


# a graph file holds the keys of an inline "edges" graph
_EDGES_KEYS = {"n": _as_count, "edges": _as_matrix}

# build(spec, config) -> Graph
_GRAPH_KINDS = {
    "ring": _uniform_graph(ring_graph),
    "star": _uniform_graph(star_graph),
    "complete": _uniform_graph(complete_graph),
    "geometric": _Kind(_geometric_graph,
                       {"n": _as_count, "radius": _as_number},
                       {"kernel_width": _as_number,
                        "require_connected": _as_bool, "max_tries": _as_count}),
    "file": _Kind(lambda spec, config, sources: Graph.from_json_dict(
                      _file_document(spec, config, _EDGES_KEYS, sources)),
                  {"path": _as_string}),
    "edges": _Kind(lambda spec, config: Graph.from_edges(spec["n"],
                                                         spec["edges"]),
                   _EDGES_KEYS),
}


def _smooth_truth(spec: dict, config: ExperimentConfig,
                  graph: Graph) -> TaskField:
    if "modes" in spec:
        modes = spec["modes"]
        if modes > graph.n_agents:
            raise ConfigError(f"modes={modes} exceeds N={graph.n_agents}")
        # lambda_0 of a connected graph can round below 0; the cutoff keeps
        # the modes up to a bandwidth of 0 all the same
        bandwidth = max(float(graph.spectrum.eigenvalues[modes - 1]), 0.0)
    else:
        bandwidth = float(spec.get("bandwidth", np.inf))
    field = synth_smooth_tasks(graph.spectrum, config.model.get("m", 1),
                               bandwidth, setup_stream(config.seed, _SETUP_TASKS))
    return TaskField.from_matrix(spec.get("scale", 1.0) * field.padded)


def _piecewise_truth(spec: dict, config: ExperimentConfig,
                     graph: Graph) -> TaskField:
    """One task per contiguous cluster of `sizes` agents; "constant" is the
    one cluster of every agent."""
    part = ClusterPartition(tuple(spec.get("sizes", (graph.n_agents,))))
    if part.n_agents != graph.n_agents:
        raise ConfigError("truth.sizes must sum to the agent count")
    rng = setup_stream(config.seed, _SETUP_TASKS)
    shared = spec.get("scale", 1.0) * rng.standard_normal(
        (part.n_clusters, config.model.get("m", 1)))
    return TaskField.from_matrix(np.repeat(shared, part.sizes, axis=0))


def _global_random_truth(spec: dict, config: ExperimentConfig,
                         graph: Graph) -> TaskField:
    strategy = config.strategy
    if strategy["kind"] != "overlapping":
        raise ConfigError("global_random truth requires the overlapping strategy")
    n_vars = spec["n_variables"]
    interest = InterestMap(n_vars, tuple(tuple(v) for v in strategy["interests"]))
    if interest.n_agents != graph.n_agents:
        raise ConfigError("interests must list one row per agent")
    rng = setup_stream(config.seed, _SETUP_TASKS)
    values = spec.get("scale", 1.0) * rng.standard_normal(n_vars)
    return TaskField(interest.blocks_from_global(values))


# a task file holds the keys of TaskField.to_json_dict
_TASK_FILE_KEYS = {"M": _as_count, "blocks": _as_matrix}

# build(spec, config, graph) -> TaskField; only "smooth" reads graph.spectrum
_TRUTH_KINDS = {
    "smooth": _Kind(_smooth_truth, {}, {"modes": _as_count,
                                        "bandwidth": _as_number,
                                        "scale": _as_number}),
    "constant": _Kind(_piecewise_truth, {}, {"scale": _as_number}),
    "piecewise": _Kind(_piecewise_truth, {"sizes": _as_int_list},
                       {"scale": _as_number}),
    "explicit": _Kind(lambda spec, config, graph: TaskField(spec["blocks"]),
                      {"blocks": _as_matrix}),
    "file": _Kind(lambda spec, config, graph, sources: TaskField.from_json_dict(
                      _file_document(spec, config, _TASK_FILE_KEYS, sources)),
                  {"path": _as_string}),
    "global_random": _Kind(_global_random_truth, {"n_variables": _as_count},
                           {"scale": _as_number}),
}


def _as_truth(value, where: str) -> None:
    _check_kind(value, _TRUTH_KINDS, where)
    if "modes" in value and "bandwidth" in value:
        raise ConfigError(f"{where}: give either modes or bandwidth, not both")


def _shared_r_u(spec: dict, truth: TaskField) -> np.ndarray | None:
    """The model's regressor covariance, or None for per-agent identity."""
    r_u = spec.get("r_u", "identity")
    if r_u == "identity":
        return None if truth.uniform_size is None else np.eye(truth.uniform_size)
    return None if r_u is None else np.asarray(r_u, dtype=float)


# build(spec, truth) -> StreamModel
_MODEL_KINDS = {
    "mse": _Kind(lambda spec, truth: StreamModel(
                     kind="mse", truth=truth, r_u=_shared_r_u(spec, truth),
                     noise_var=spec["noise_var"]),
                 {"truth": _as_truth, "noise_var": _as_numbers},
                 {"m": _as_count, "r_u": _as_r_u}),
    "logistic": _Kind(lambda spec, truth: StreamModel(
                          kind="logistic", truth=truth,
                          r_u=_shared_r_u(spec, truth),
                          reg=float(spec.get("reg", 0.0))),
                      {"truth": _as_truth},
                      {"m": _as_count, "r_u": _as_r_u, "reg": _as_number}),
}

# build(spec, graph) -> SpectralKernel, validated on graph.spectrum
_KERNEL_KINDS = {
    "polynomial": _Kind(lambda spec, graph: SpectralKernel.polynomial(
                            spec["coefficients"], graph.spectrum),
                        {"coefficients": _as_number_list}),
    "power": _Kind(lambda spec, graph: SpectralKernel.polynomial(
                       [0.0] * spec["exponent"] + [1.0], graph.spectrum),
                   {"exponent": _as_count}),
    "heat": _Kind(lambda spec, graph: SpectralKernel.from_function(
                      lambda lam: np.expm1(float(spec["rate"]) * lam),
                      graph.spectrum, degree=spec["degree"]),
                  {"rate": _as_number, "degree": _as_count}),
}

_STRATEGY_TYPES = {
    "weights": _as_name_or_matrix,
    "rho": _as_number_or_matrix,
    "penalty": _as_string,
    "clusters": _as_int_list,
    "interests": partial(_as_list, item=_as_int_list),
    "subspace": _as_subspace,
    "kernel": lambda value, where: _check_kind(value, _KERNEL_KINDS, where),
}


def _strategy_config(spec: dict, graph: Graph | None = None) -> StrategyConfig:
    """The StrategyConfig of a strategy object: its kind's keys are the
    payload, with a kernel object built on the graph's spectrum where a
    graph is given."""
    payload = {k: v for k, v in spec.items() if k not in ("kind", "mu", "eta")}
    if graph is not None and "kernel" in payload:
        payload["kernel"] = _build(_KERNEL_KINDS, payload["kernel"],
                                   "strategy.kernel", graph)
    return StrategyConfig(
        kind=spec.get("kind"),
        mu=float(spec["mu"]),
        eta=float(spec.get("eta", 0.0)),
        payload=payload,
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


def parse_config(doc: dict, base_dir: str | None = None) -> ExperimentConfig:
    """Validate a configuration document. Raises ConfigError on any problem."""
    allowed = {"schema", "seed", "iters", "runs", "parallel", "record_every",
               "steady_window", "graph", "model", "strategy", "eta_grid", "out"}
    _require_keys(doc, allowed,
                  {"schema", "seed", "iters", "runs", "graph", "model",
                   "strategy"}, "config")
    if _as_int(doc["schema"], "schema") != SCHEMA_VERSION:
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
    _check_kind(doc["graph"], _GRAPH_KINDS, "graph")
    _check_kind(doc["model"], _MODEL_KINDS, "model")
    _validate_strategy_spec(doc["strategy"])
    eta_grid = None
    if "eta_grid" in doc:
        grid = _as_list(doc["eta_grid"], "eta_grid", _as_number)
        if not grid:
            raise ConfigError("eta_grid must be a non-empty list")
        eta_grid = tuple(float(v) for v in grid)
        if any(v < 0.0 for v in eta_grid):
            raise ConfigError("eta_grid entries must be >= 0")
        if not all(np.isfinite(eta_grid)):
            raise ConfigError("eta_grid entries must be finite")
    out = doc.get("out")
    if out is not None and not isinstance(out, str):
        raise ConfigError("out must be a string path")
    return ExperimentConfig(
        seed=seed, iters=iters, runs=runs, graph=copy.deepcopy(doc["graph"]),
        model=copy.deepcopy(doc["model"]),
        strategy=copy.deepcopy(doc["strategy"]),
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
    """Concrete experiment pieces built deterministically from a config.
    It pickles as its fields, its strategy as its build (see Strategy), and
    w_star arrives read-only, as resolve made it."""

    config: ExperimentConfig
    graph: Graph
    model: StreamModel
    strategy: Strategy
    theory: dict | None
    w_star: np.ndarray | None
    # sha256 hex digests of the graph and task files read, in that order
    sources: tuple[str, ...] = ()

    __setstate__ = readonly_setstate

    @property
    def spectrum(self) -> Spectrum:
        return self.graph.spectrum

    @property
    def config_hash(self) -> str:
        """The config's hash, with the bytes of every file it names folded
        in: the config's own hash where it names none."""
        if not self.sources:
            return self.config.config_hash()
        joined = ",".join((self.config.config_hash(),) + self.sources)
        return hashlib.sha256(joined.encode()).hexdigest()


def _build(kinds: dict[str, _Kind], spec: dict, where: str, *args,
           sources: list | None = None):
    """What spec's kind builds from it, a ValueError as a ConfigError. A
    "file" kind also takes sources (see _file_document)."""
    if spec["kind"] == "file":
        args += (sources,)
    try:
        return kinds[spec["kind"]].build(spec, *args)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}")


def resolve_pieces(config: ExperimentConfig,
                   sources: list | None = None) -> tuple[Graph, StreamModel]:
    """Graph and stream model only (no strategy construction).

    Lets callers inspect user-supplied strategy ingredients (for example a
    combination matrix that may violate feasibility) before the strict
    validation in build_strategy runs. Only a "smooth" truth reads
    graph.spectrum here, which decomposes the Laplacian on first read.
    Each graph or task file is read once, now; where sources is a list,
    the sha256 hex digest of each file's bytes is appended to it, the
    graph file's first.
    """
    sources = [] if sources is None else sources
    graph = _build(_GRAPH_KINDS, config.graph, "graph", config, sources=sources)
    truth = _build(_TRUTH_KINDS, config.model["truth"], "model.truth", config,
                   graph, sources=sources)
    if truth.n_agents != graph.n_agents:
        raise ConfigError(
            f"truth has {truth.n_agents} blocks but the graph has "
            f"{graph.n_agents} agents"
        )
    m = config.model.get("m", truth.uniform_size)
    if truth.uniform_size not in (None, m):
        raise ConfigError(
            f"model.m = {m} but blocks have length {truth.uniform_size}")
    model = _build(_MODEL_KINDS, config.model, "model", truth)
    return graph, model


def resolve(config: ExperimentConfig) -> ResolvedExperiment:
    """Build the concrete experiment (graph, tasks, model, strategy, theory).

    Deterministic in the config alone; raises ConfigError for any
    inconsistency the schema-level validation cannot see.
    """
    sources = []
    graph, model = resolve_pieces(config, sources)
    strategy_config = _strategy_config(config.strategy, graph)
    try:
        strategy = build_strategy(strategy_config, graph, model)
    except ValueError as exc:
        raise ConfigError(f"strategy: {exc}")
    theory, w_star = closed_forms(strategy, model)
    if w_star is not None:
        w_star.flags.writeable = False
    return ResolvedExperiment(config=config, graph=graph, model=model,
                              strategy=strategy, theory=theory, w_star=w_star,
                              sources=tuple(sources))


def run_checks(config: ExperimentConfig) -> list[tuple[str, bool, str]]:
    """The rows of `adaptnets check`, as (name, passed, detail).

    The condition rows of strategies.assess_strategy come first: the rows
    resolve refuses a step on, from the same call. Where every condition
    holds, the kind's own self-tests follow; they only report. A step
    its builder refuses raises the ConfigError resolve raises.
    """
    graph, model = resolve_pieces(config)
    strategy_config = _strategy_config(config.strategy, graph)
    try:
        strategy, checks = assess_strategy(strategy_config, graph, model)
    except ValueError as exc:
        raise ConfigError(f"strategy: {exc}")
    if all(ok for _, ok, _ in checks):
        checks += STRATEGY_KINDS[strategy.kind].checks(
            strategy, np.random.default_rng(0))
    return [(name, bool(passed), detail) for name, passed, detail in checks]
