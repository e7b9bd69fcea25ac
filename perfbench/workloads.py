"""The benchmark's workloads and its correctness gate.

Each workload is an adaptnets configuration document built from the
benchmark seed, which becomes the experiment seed: the graph layout of
geometric graphs, the task field and every data stream follow from it.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

REFERENCES = Path(__file__).with_name("references.json")

# Stored steady-state and per-agent MSD must match to this relative
# tolerance. It admits reordered floating-point sums (a vectorised or
# batched path) and rejects any change to what is computed.
REFERENCE_RTOL = 1e-9
# references.json holds every workload for seeds 0 .. REFERENCE_SEEDS - 1
REFERENCE_SEEDS = 64


def _ring_interests(n: int) -> list[list[int]]:
    """Agent k estimates variables {k, k+1}, or {k, k+1, k+2} for odd k."""
    return [[(k + j) % n for j in range(3 if k % 2 else 2)] for k in range(n)]


def _geometric_edges(n: int, radius: float, layout_seed: int = 0) -> list:
    """Edge list [k, l, weight] of a geometric graph on the unit square, with
    the library's Gaussian weights of width radius / 2, from a fixed layout.

    This repeats the position draw, radius test and weights of
    adaptnets.graphs.random_geometric_graph on purpose: the benchmark's input
    must not change when the program under test does, or a change to the
    library's graph code would change this workload and stale its stored
    references. For n=30, radius 0.35 and layout seed 0 the first draw is
    connected, so the edges equal the library's, whose connectivity redraw
    is not needed.
    """
    pos = np.random.default_rng(layout_seed).random((n, 2))
    dist = np.sqrt(((pos[:, None, :] - pos[None, :, :]) ** 2).sum(axis=-1))
    width = radius / 2.0
    return [[k, l, float(np.exp(-dist[k, l] ** 2 / (2.0 * width * width)))]
            for k in range(n) for l in range(k + 1, n) if dist[k, l] <= radius]


def _doc(seed: int, iters: int, runs: int, graph: dict, model: dict,
         strategy: dict, **extra) -> dict:
    return {"schema": 1, "seed": seed, "iters": iters, "runs": runs,
            "graph": graph, "model": model, "strategy": strategy, **extra}


# A timed repetition simulates for about 0.2 s. The machine's speed changes
# from one second to the next, and the fastest of many short repetitions
# varied half as much from run to run as the fastest of fewer 1 s ones.

def _smooth(seed: int) -> dict:
    return _doc(seed, 3000, 2,
                {"kind": "geometric", "n": 50, "radius": 0.3},
                {"kind": "mse", "m": 2, "noise_var": 0.1,
                 "truth": {"kind": "smooth", "modes": 5, "scale": 0.1}},
                {"kind": "laplacian_reg", "mu": 0.002, "eta": 1.0},
                steady_window=0.5)


def _smooth_gate(seed: int) -> dict:
    # steady_window 0.5 averages 3000 points per run, enough for the
    # closed-form comparison to hold at the default 15% tolerance
    return {**_smooth(seed), "iters": 6000, "runs": 4}


def _sparse_prox(seed: int) -> dict:
    # The prox costs O(D^2) per agent of degree D, so a layout drawn per seed
    # moves the timing with the edge count: 108-156 edges over seeds 0-4 gave
    # a 20% spread. The layout is fixed; the seed varies tasks and data.
    return _doc(seed, 100, 1,
                {"kind": "edges", "n": 30,
                 "edges": _geometric_edges(30, 0.35)},
                {"kind": "mse", "m": 2, "noise_var": 0.1,
                 "truth": {"kind": "piecewise", "sizes": [15, 15]}},
                {"kind": "prox_l1", "mu": 0.005, "eta": 2.0, "rho": 0.01})


def _subspace_setup(seed: int) -> dict:
    return _doc(seed, 200, 2,
                {"kind": "ring", "n": 200},
                {"kind": "mse", "m": 2, "noise_var": 0.1,
                 "truth": {"kind": "piecewise", "sizes": [100, 100]}},
                {"kind": "subspace_projection", "mu": 0.005,
                 "subspace": {"clusters": [100, 100]}},
                parallel=2)


def _ragged_overlap(seed: int) -> dict:
    return _doc(seed, 400, 2,
                {"kind": "ring", "n": 20},
                {"kind": "mse", "noise_var": 0.1,
                 "truth": {"kind": "global_random", "n_variables": 20}},
                {"kind": "overlapping", "mu": 0.01,
                 "interests": _ring_interests(20)})


# name -> (timed config, full-size config that must pass compare_theory)
WORKLOADS = {
    "smooth": (_smooth, _smooth_gate),
    "sparse_prox": (_sparse_prox, None),
    "subspace_setup": (_subspace_setup, None),
    "ragged_overlap": (_ragged_overlap, None),
}


def config(name: str, seed: int) -> dict:
    """The configuration document of workload `name` for benchmark seed `seed`."""
    return WORKLOADS[name][0](seed)


def gate_config(name: str, seed: int) -> dict | None:
    """The experiment whose steady state must match the closed form, or None
    where the workload has no settled closed form."""
    gate = WORKLOADS[name][1]
    return None if gate is None else gate(seed)


def definition_hash(name: str) -> str:
    """Fingerprint of a workload's timed config, stored with its references
    so that editing a workload without regenerating them is caught."""
    doc = config(name, 0)
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


class StaleReferences(RuntimeError):
    """The stored references were made for another workload definition."""


def load_references(path: Path = REFERENCES) -> dict:
    """Stored outcomes, {workload: {seed string: outcome}}."""
    with open(path) as fh:
        doc = json.load(fh)
    for name, entry in doc.items():
        if entry["definition"] != definition_hash(name):
            raise StaleReferences(
                f"references for {name!r} were made for another definition: "
                "regenerate them with perfbench/make_references.py")
    return {name: entry["seeds"] for name, entry in doc.items()}


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REFERENCE_RTOL * max(abs(a), abs(b))


def problems(outcome: dict, reference: dict | None,
             first: dict | None) -> list[str]:
    """Reasons one repetition's outcome is wrong; empty when it is correct.

    outcome holds the steady-state MSD, the per-agent MSD, the theory check
    (None where the workload has none) and the error the run raised, if any.
    reference is the stored outcome for this seed; first is the outcome of
    the run's first repetition, which every later one must repeat exactly.
    """
    if outcome["error"] is not None:
        return [outcome["error"]]
    found = []
    values = [outcome["steady"], *outcome["per_agent"]]
    if not all(math.isfinite(v) for v in values):
        found.append("non-finite steady-state or per-agent MSD")
    if outcome["theory_passed"] is False:
        found.append(f"simulation misses theory: relative error "
                     f"{outcome['theory_rel_err']:.4g}")
    if reference is not None:
        ref = [reference["steady"], *reference["per_agent"]]
        if len(ref) != len(values) or not all(map(_close, values, ref)):
            found.append("steady-state or per-agent MSD differs from the "
                         "stored reference")
    if first is not None and (outcome["steady"], outcome["per_agent"]) != (
            first["steady"], first["per_agent"]):
        found.append("outcome differs from the first repetition")
    return found
