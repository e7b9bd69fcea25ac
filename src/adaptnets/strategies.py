"""Per-agent stochastic-gradient strategies with pluggable social steps.

Every strategy follows the same two-phase iteration: a self-learning step

    psi_k = w_k - mu * grad_k(w_k; sample_k)

followed by a social-learning step that maps the intermediate network state
{psi_k} to the new iterate {w_k}. The social steps implemented here:

    noncooperative        w_k = psi_k
    diffusion             w_k = sum_l a_{kl} psi_l
    laplacian_reg         w = (I - mu*eta * L x I) psi
    spectral_reg          w = (I - mu*eta * r(L) x I) psi, distributed S-hop
    prox_l1               w_k = prox of weighted l1 neighbor differences
    subspace_projection   w = A_block psi (feasible combination matrix)
    overlapping           per-variable combination over interested agents
    clustered             intra-cluster diffusion + inter-cluster penalty

All social steps read psi and write a fresh state; aggregation within an
iteration always uses the pre-step values.

Reductions (special cases that must agree bit-identically under a shared
RNG stream, or to 1e-12 where the float path differs):

    spectral_reg, r(lambda)=lambda      == laplacian_reg
    laplacian_reg, eta=0                == noncooperative
    clustered, one cluster, eta=0       == diffusion
    subspace_projection, consensus U,
        scalar combination weights      == diffusion
    clustered, singleton clusters,
        l1 regularizer                  == prox_l1
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import cached_property
from typing import Callable, Mapping, Sequence

import numpy as np

from .graphs import (
    CombinationMatrix,
    ClusterPartition,
    Graph,
    SpectralKernel,
    Spectrum,
    Subspace,
    build_laplacian,
    check_feasibility,
    cluster_subspace,
    consensus_subspace,
    metropolis_weights,
    laplacian_weights,
)
from .streaming import NetworkSample, StreamModel, instantaneous_gradient

__all__ = [
    "STRATEGY_KINDS",
    "StrategyConfig",
    "StrategyState",
    "EdgeRegularizer",
    "InterestMap",
    "Strategy",
    "build_strategy",
    "self_learn",
    "step",
    "social_noncooperative",
    "social_smooth",
    "social_spectral",
    "social_prox_l1",
    "social_diffusion",
    "social_subspace",
    "social_overlapping",
    "social_clustered",
    "overlap_metropolis",
    "cluster_metropolis",
]

STRATEGY_KINDS = (
    "noncooperative",
    "diffusion",
    "laplacian_reg",
    "spectral_reg",
    "prox_l1",
    "subspace_projection",
    "overlapping",
    "clustered",
)

_ETA_FREE_KINDS = ("noncooperative", "diffusion", "subspace_projection", "overlapping")

_STABILITY_SLACK = 1e-12
_STOCHASTIC_ATOL = 1e-10

_ALLOWED_PAYLOAD_KEYS = {
    "noncooperative": set(),
    "diffusion": {"weights", "rule"},
    "laplacian_reg": set(),
    "spectral_reg": {"kernel"},
    "prox_l1": {"rho", "regularizer"},
    "subspace_projection": {"subspace", "weights", "clusters"},
    "overlapping": {"interests", "weights"},
    "clustered": {"partition", "penalty", "rho", "weights", "regularizer"},
}


# ---------------------------------------------------------------------------
# Configuration and state
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StrategyConfig:
    """Declarative description of a strategy.

    mu > 0 is the gradient step-size, eta >= 0 the regularization strength
    (must be 0 for kinds that have no regularizer). payload carries
    kind-specific pieces, see build_strategy.
    """

    kind: str
    mu: float
    eta: float = 0.0
    payload: dict = dc_field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in STRATEGY_KINDS:
            raise ValueError(
                f"unknown strategy kind {self.kind!r}; expected one of {STRATEGY_KINDS}"
            )
        if not (self.mu > 0.0 and np.isfinite(self.mu)):
            raise ValueError("mu must be positive and finite")
        if not (self.eta >= 0.0 and np.isfinite(self.eta)):
            raise ValueError("eta must be >= 0 and finite")
        if self.kind in _ETA_FREE_KINDS and self.eta != 0.0:
            raise ValueError(f"kind {self.kind!r} does not use eta; set it to 0")
        unknown = set(self.payload) - _ALLOWED_PAYLOAD_KEYS[self.kind]
        if unknown:
            raise ValueError(
                f"unknown payload keys for {self.kind!r}: {sorted(unknown)}"
            )


@dataclass
class StrategyState:
    """Iterate {w_k} plus the iteration counter.

    w is an (N, M) array for uniform block sizes, otherwise a tuple of
    per-agent vectors. The intermediates psi produced during a step are
    transient and never aliased into the state.
    """

    w: np.ndarray | tuple[np.ndarray, ...]
    iteration: int = 0


@dataclass(frozen=True)
class EdgeRegularizer:
    """Symmetric nonnegative edge weights rho_{kl} with a penalty kind."""

    weights: np.ndarray
    kind: str = "l1"

    def __post_init__(self):
        if self.kind not in ("l1", "quadratic"):
            raise ValueError(f"unknown penalty kind {self.kind!r}")
        w = np.array(self.weights, dtype=float)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise ValueError("regularizer weights must be square")
        if not np.all(np.isfinite(w)) or np.any(w < 0.0):
            raise ValueError("regularizer weights must be finite and >= 0")
        if not np.allclose(w, w.T, atol=1e-12):
            raise ValueError("regularizer weights must be symmetric")
        w = 0.5 * (w + w.T)
        np.fill_diagonal(w, 0.0)
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)

    @cached_property
    def neighbor_table(self) -> tuple[np.ndarray, np.ndarray]:
        """Every agent's neighbors (rho_{kl} > 0) padded to the largest degree D.

        Returns index and weight arrays of shape (N, D). Row k lists its
        neighbors in ascending order, the order np.flatnonzero(rho[k]) gives;
        padded slots hold index N and weight 0.
        """
        n = self.weights.shape[0]
        rows, cols = np.nonzero(self.weights)
        degrees = np.bincount(rows, minlength=n)
        width = int(degrees.max()) if rows.size else 0
        slots = np.arange(rows.size) - (np.cumsum(degrees) - degrees)[rows]
        index = np.full((n, width), n, dtype=np.intp)
        weight = np.zeros((n, width))
        index[rows, slots] = cols
        weight[rows, slots] = self.weights[rows, cols]
        return index, weight


@dataclass(frozen=True)
class InterestMap:
    """Which global variables each agent estimates.

    interests[k] lists agent k's variables; the position of a variable in
    that list is its index inside the agent's parameter block. Every
    variable must be estimated by at least one agent.
    """

    n_variables: int
    interests: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        cleaned = []
        covered = set()
        for k, ints in enumerate(self.interests):
            ints = tuple(int(v) for v in ints)
            if not ints:
                raise ValueError(f"agent {k} estimates no variables")
            if len(set(ints)) != len(ints):
                raise ValueError(f"agent {k} lists a variable twice")
            if any(v < 0 or v >= self.n_variables for v in ints):
                raise ValueError(f"agent {k} interest out of range")
            covered.update(ints)
            cleaned.append(ints)
        if covered != set(range(self.n_variables)):
            missing = sorted(set(range(self.n_variables)) - covered)
            raise ValueError(f"variables {missing} have no interested agent")
        object.__setattr__(self, "interests", tuple(cleaned))

    @property
    def n_agents(self) -> int:
        return len(self.interests)

    @property
    def block_sizes(self) -> tuple[int, ...]:
        return tuple(len(ints) for ints in self.interests)

    @cached_property
    def by_variable(self) -> tuple[tuple[int, ...], ...]:
        """For each variable, the agents interested in it (ascending)."""
        groups: list[list[int]] = [[] for _ in range(self.n_variables)]
        for k, ints in enumerate(self.interests):
            for v in ints:
                groups[v].append(k)
        return tuple(tuple(g) for g in groups)

    @cached_property
    def positions(self) -> tuple[dict, ...]:
        return tuple({v: j for j, v in enumerate(ints)} for ints in self.interests)

    def blocks_from_global(self, values) -> tuple[np.ndarray, ...]:
        """Slice a global variable vector into per-agent blocks."""
        vec = np.asarray(values, dtype=float).ravel()
        if vec.size != self.n_variables:
            raise ValueError(f"expected {self.n_variables} values, got {vec.size}")
        return tuple(vec[list(ints)] for ints in self.interests)


# ---------------------------------------------------------------------------
# Self-learning step
# ---------------------------------------------------------------------------

def self_learn(w, model: StreamModel, samples: NetworkSample, mu: float):
    """Apply one stochastic-gradient step per agent: psi = w - mu * grad."""
    regs = samples.regressors
    if isinstance(w, tuple) or isinstance(regs, tuple):
        return tuple(
            w[k] - mu * instantaneous_gradient(model, k, w[k], samples.agent(k))
            for k in range(len(w))
        )
    w = np.asarray(w, dtype=float)
    resp = samples.responses
    if model.kind == "mse":
        err = resp - np.einsum("km,km->k", regs, w)
        grad = -regs * err[:, None]
    else:
        t = resp * np.einsum("km,km->k", regs, w)
        sig = 0.5 * (1.0 + np.tanh(-0.5 * t))
        grad = model.reg * w - (resp * sig)[:, None] * regs
    return w - mu * grad


# ---------------------------------------------------------------------------
# Social-learning steps
# ---------------------------------------------------------------------------

def _laplacian_apply(adjacency: np.ndarray, degrees: np.ndarray, x: np.ndarray):
    """Neighbor-difference sums: (L x)_k = sum_l c_{kl} (x_k - x_l)."""
    return degrees[:, None] * x - adjacency @ x


def social_noncooperative(psi):
    return psi


def social_smooth(psi, graph: Graph, mu_eta: float):
    """w = psi - mu*eta * sum_l c_{kl} (psi_k - psi_l), i.e. (I - mu*eta*L)psi."""
    psi = np.asarray(psi, dtype=float)
    return psi - mu_eta * _laplacian_apply(graph.adjacency, graph.weighted_degrees, psi)


def social_spectral(psi, graph: Graph, coefficients, mu_eta: float):
    """Distributed S-hop social step for a polynomial kernel.

    Runs the neighbor-difference recursion

        acc^0 = beta_S psi,   acc^s = beta_{S-s} psi + L acc^{s-1}

    whose final value is r(L) psi, then returns psi - mu*eta * acc^S.
    """
    psi = np.asarray(psi, dtype=float)
    beta = np.asarray(coefficients, dtype=float).ravel()
    adjacency = graph.adjacency
    degrees = graph.weighted_degrees
    hops = beta.size - 1
    acc = beta[hops] * psi
    for s in range(1, hops + 1):
        acc = beta[hops - s] * psi + _laplacian_apply(adjacency, degrees, acc)
    return psi - mu_eta * acc


def _prox_l1(x: np.ndarray, regularizer: EdgeRegularizer, gamma: float) -> np.ndarray:
    """Exact weighted-l1 prox of every agent and coordinate at once:

        w_k = argmin_w  (w - x_k)^2 / (2 gamma) + sum_l rho_{kl} |w - x_l|

    for x of shape (N, M). Per coordinate the objective is piecewise
    quadratic with breakpoints at the sorted neighbor values
    b_0 <= ... <= b_{D-1}. On interval j = [b_{j-1}, b_j] (b_{-1} = -inf,
    b_D = +inf) its stationary point is

        c_j = x_k - gamma * (2 P_j - P_D),   P_j = sum of the j smallest
                                             breakpoints' weights,

    and c_j decreases while b_j increases, so the minimizer lies in interval
    j* = #{j : c_j > b_j}, the first j with c_j <= b_j, at
    clip(c_{j*}, b_{j*-1}, b_{j*}). The sort costs O(D log D) and the rest
    O(D) per coordinate.

    Exact in real arithmetic; in floating point the rounded c_{j*} can land
    a few ulps beside a breakpoint that is the true minimizer, and an agent
    that should fuse onto a neighbor's value would miss it. So the objective
    is also evaluated at the two bracketing breakpoints, summed neighbor by
    neighbor, and the lowest of the three wins, the lower one on a tie.

    Agreement with minimizing the objective over all D + 1 clipped interval
    candidates: bit for bit, ties included, provided numpy's sort orders
    tied values the same with or without +inf padding after them (that
    order fixes the rounding of the prefix sums; checked with numpy 2.4 on
    x86-64 with AVX-512). The exception is an agent whose neighbor values differ by less
    than about 1e-12 of their scale: the minimizer is then only located to
    rounding, and the two can return points that far apart.

    Layout: the neighbor table pads every agent to the largest degree D
    with value +inf and weight 0, so padded slots sort last, add exactly
    +0.0 to every prefix sum and are never the chosen interval. An isolated
    agent passes through unchanged.

    Non-finite values: an agent whose own value is +-inf or nan stays
    non-finite, so divergence checks still see it. A neighbor at +-inf is a
    breakpoint at the far end; the agents next to it stay finite. gamma = 0
    is the identity; gamma < 0 raises ValueError.
    """
    if gamma < 0.0:
        raise ValueError("mu_eta must be >= 0")
    if gamma == 0.0:
        return x.copy()
    if regularizer.kind != "l1":
        raise ValueError("the l1 prox needs an l1 regularizer")
    index, weight = regularizer.neighbor_table
    n, d = index.shape
    if x.shape[0] != n:
        raise ValueError(f"expected {n} agents, got {x.shape[0]}")
    m = x.shape[1]
    # coordinates lead, so every agent's D neighbor values are contiguous
    padded = np.concatenate([x.T, np.full((m, 1), np.inf)], axis=1)
    values = padded.take(index, axis=1)                        # (M, N, D)
    order = np.argsort(values, axis=-1)
    order += np.arange(n)[:, None] * d
    r = weight.take(order)
    b = values.take(order + np.arange(m)[:, None, None] * (n * d))
    prefix = np.zeros((m, n, d + 1))
    np.cumsum(r, axis=-1, out=prefix[..., 1:])
    c = x.T[..., None] - gamma * (2.0 * prefix - prefix[..., -1:])
    edge = np.full((m, n, 1), np.inf)
    bounds = np.concatenate([-edge, b, edge], axis=-1)        # b_{-1} .. b_D
    j = np.argmax(c <= bounds[..., 1:], axis=-1)               # (M, N)
    row = np.arange(m * n).reshape(m, n)
    at = row * (d + 2) + j
    lo = bounds.take(at)
    hi = bounds.take(at + 1)
    mid = np.clip(c.take(row * (d + 1) + j), lo, hi)
    cand = np.stack([lo, mid, hi])                             # (3, M, N)
    # slots outside the agents, so pen.sum adds neighbor by neighbor
    slots = padded.take(index.T, axis=1)                       # (M, D, N)
    # inf - inf and 0 * inf (padded slots) give nan, zeroed or never chosen
    with np.errstate(invalid="ignore", over="ignore"):
        pen = weight.T * np.abs(cand[:, :, None, :] - slots)   # (3, M, D, N)
        np.copyto(pen, 0.0, where=index.T == n)
        f_lo, f_mid, f_hi = (cand - x.T) ** 2 / (2.0 * gamma) + pen.sum(axis=2)
    finite = np.isfinite(f_mid)
    out = np.where(finite & (f_lo <= f_mid) & (f_lo <= f_hi), lo,
                   np.where(finite & (f_hi < f_mid), hi, mid))
    return out.T.copy()


def social_prox_l1(psi, graph: Graph, regularizer: EdgeRegularizer, mu_eta: float):
    """w_k = prox of the weighted l1 neighbor-difference penalty at psi_k.

    Solves argmin_w sum_l rho_{kl} ||w - psi_l||_1 + ||w - psi_k||^2 / (2 mu eta)
    exactly, for all agents and coordinates in one pass over the
    regularizer's padded neighbor table: O(D log D) per coordinate for an
    agent of degree D. See _prox_l1 for the interval rule, the bitwise
    agreement with minimizing over every interval candidate and what
    non-finite inputs give. mu_eta = 0 is the identity; mu_eta < 0 raises
    ValueError.
    """
    return _prox_l1(np.asarray(psi, dtype=float), regularizer, mu_eta)


def social_diffusion(psi, weights: np.ndarray):
    """w_k = sum_l a_{kl} psi_l with scalar combination weights."""
    return np.asarray(weights) @ np.asarray(psi, dtype=float)


def social_subspace(psi, block_matrix: np.ndarray,
                    block_sizes: Sequence[int] | None = None):
    """Block combination w = A psi on the stacked network vector.

    psi may be an (N, M) array (uniform blocks) or a tuple of per-agent
    vectors with block_sizes giving the split.
    """
    if isinstance(psi, tuple):
        stacked = np.concatenate(psi)
        mixed = block_matrix @ stacked
        sizes = [len(b) for b in psi] if block_sizes is None else list(block_sizes)
        bounds = np.cumsum(sizes)[:-1]
        return tuple(np.split(mixed, bounds))
    psi = np.asarray(psi, dtype=float)
    n, m = psi.shape
    return (block_matrix @ psi.reshape(-1)).reshape(n, m)


def overlap_metropolis(graph: Graph, interest: InterestMap) -> dict[int, np.ndarray]:
    """Per-variable Metropolis weights over each variable's interested agents.

    For variable n the neighborhood of agent k is the set of its graph
    neighbors that also estimate n, plus k itself; that subgraph must be
    connected.
    """
    if interest.n_agents != graph.n_agents:
        raise ValueError("interest map and graph disagree on the agent count")
    weights: dict[int, np.ndarray] = {}
    for n, agents in enumerate(interest.by_variable):
        idx = {k: j for j, k in enumerate(agents)}
        size = len(agents)
        nbrs = [
            [l for l in graph.neighbors(k) if l in idx]
            for k in agents
        ]
        # Connectivity of the interest subgraph.
        seen = {agents[0]}
        stack = [agents[0]]
        while stack:
            k = stack.pop()
            for l in nbrs[idx[k]]:
                if l not in seen:
                    seen.add(l)
                    stack.append(l)
        if len(seen) != size:
            raise ValueError(f"agents interested in variable {n} are not connected")
        counts = np.array([len(nb) + 1 for nb in nbrs], dtype=float)
        mat = np.zeros((size, size))
        for k in agents:
            for l in nbrs[idx[k]]:
                mat[idx[k], idx[l]] = 1.0 / max(counts[idx[k]], counts[idx[l]])
        np.fill_diagonal(mat, 1.0 - mat.sum(axis=1))
        weights[n] = mat
    return weights


def social_overlapping(psi: tuple[np.ndarray, ...], interest: InterestMap,
                       var_weights: Mapping[int, np.ndarray]):
    """Per-variable combination: for every global variable, the interested
    agents average their copies with that variable's weights; variables with
    a single interested agent pass through unchanged."""
    out = [np.empty_like(b) for b in psi]
    positions = interest.positions
    for n, agents in enumerate(interest.by_variable):
        vals = np.array([psi[k][positions[k][n]] for k in agents])
        mixed = var_weights[n] @ vals
        for j, k in enumerate(agents):
            out[k][positions[k][n]] = mixed[j]
    return tuple(out)


def cluster_metropolis(graph: Graph, partition: ClusterPartition) -> CombinationMatrix:
    """Block-diagonal Metropolis weights on each cluster's induced subgraph."""
    if partition.n_agents != graph.n_agents:
        raise ValueError("partition and graph disagree on the agent count")
    n = graph.n_agents
    assign = partition.assignment
    weights = np.zeros((n, n))
    for start, stop in partition.slices:
        members = range(start, stop)
        nbrs = {
            k: [l for l in graph.neighbors(k) if start <= l < stop]
            for k in members
        }
        seen = {start}
        stack = [start]
        while stack:
            k = stack.pop()
            for l in nbrs[k]:
                if l not in seen:
                    seen.add(l)
                    stack.append(l)
        if len(seen) != stop - start:
            raise ValueError(
                f"cluster {assign[start]} is not connected inside the graph"
            )
        counts = {k: len(nbrs[k]) + 1 for k in members}
        for k in members:
            for l in nbrs[k]:
                weights[k, l] = 1.0 / max(counts[k], counts[l])
            weights[k, k] = 1.0 - weights[k].sum()
    return CombinationMatrix(weights)


def social_clustered(psi, partition: ClusterPartition, intra_weights: np.ndarray,
                     regularizer: EdgeRegularizer | None, mu_eta: float):
    """Intra-cluster diffusion followed by an inter-cluster penalty step.

    phi = A psi with block-diagonal (per-cluster) weights; then either the
    proximal step of the weighted l1 difference penalty or a quadratic
    neighbor-difference correction, both restricted to inter-cluster edges.
    The l1 step is the same exact, vectorised prox as social_prox_l1
    (_prox_l1) applied to phi, so singleton clusters reproduce prox_l1 bit
    for bit; it rejects mu_eta < 0 with ValueError.
    """
    psi = np.asarray(psi, dtype=float)
    phi = intra_weights @ psi
    if mu_eta == 0.0 or regularizer is None:
        return phi
    rho = regularizer.weights
    if regularizer.kind == "quadratic":
        deg = rho.sum(axis=1)
        return phi - mu_eta * _laplacian_apply(rho, deg, phi)
    return _prox_l1(phi, regularizer, mu_eta)


# ---------------------------------------------------------------------------
# Strategy assembly
# ---------------------------------------------------------------------------

class Strategy:
    """A configured adaptation rule: self-learning plus one social step."""

    def __init__(self, config: StrategyConfig, graph: Graph, social: Callable,
                 block_sizes: tuple[int, ...], blockwise: bool,
                 kernel: SpectralKernel | None = None,
                 subspace: Subspace | None = None,
                 combination: CombinationMatrix | None = None,
                 partition: ClusterPartition | None = None,
                 interest: InterestMap | None = None):
        self.config = config
        self.graph = graph
        self.social = social
        self.block_sizes = block_sizes
        self.blockwise = blockwise
        self.kernel = kernel
        self.subspace = subspace
        self.combination = combination
        self.partition = partition
        self.interest = interest

    @property
    def kind(self) -> str:
        return self.config.kind

    @property
    def mu(self) -> float:
        return self.config.mu

    @property
    def eta(self) -> float:
        return self.config.eta

    def init_state(self, initial=None) -> StrategyState:
        """Fresh state; the default initializer is all zeros."""
        if initial is not None:
            if self.blockwise:
                w = tuple(np.array(b, dtype=float) for b in initial)
            else:
                w = np.array(initial, dtype=float)
            return StrategyState(w=w, iteration=0)
        if self.blockwise:
            w = tuple(np.zeros(m) for m in self.block_sizes)
        else:
            w = np.zeros((len(self.block_sizes), self.block_sizes[0]))
        return StrategyState(w=w, iteration=0)

    def step(self, state: StrategyState, model: StreamModel,
             samples: NetworkSample) -> StrategyState:
        psi = self_learn(state.w, model, samples, self.config.mu)
        w = self.social(psi)
        return StrategyState(w=w, iteration=state.iteration + 1)


def step(state: StrategyState, model: StreamModel, samples: NetworkSample,
         strategy: Strategy) -> StrategyState:
    """Functional form of one full iteration."""
    return strategy.step(state, model, samples)


def _validate_doubly_stochastic(weights: np.ndarray, graph: Graph) -> None:
    n = graph.n_agents
    if weights.shape != (n, n):
        raise ValueError(f"combination matrix must be ({n}, {n})")
    if np.any(weights < -_STOCHASTIC_ATOL):
        raise ValueError("combination weights must be nonnegative")
    if not np.allclose(weights.sum(axis=1), 1.0, atol=_STOCHASTIC_ATOL):
        raise ValueError("combination matrix rows must sum to 1")
    if not np.allclose(weights.sum(axis=0), 1.0, atol=_STOCHASTIC_ATOL):
        raise ValueError("combination matrix columns must sum to 1")
    for k in range(n):
        allowed = set(graph.neighbors(k).tolist()) | {k}
        bad = [l for l in range(n) if l not in allowed and weights[k, l] != 0.0]
        if bad:
            raise ValueError(
                f"combination weight from non-neighbor {bad[0]} to agent {k}"
            )


def _resolve_combination(payload_weights, graph: Graph) -> CombinationMatrix:
    if payload_weights is None:
        return metropolis_weights(graph)
    if isinstance(payload_weights, str):
        if payload_weights == "metropolis":
            return metropolis_weights(graph)
        if payload_weights == "laplacian":
            return laplacian_weights(graph)
        raise ValueError(f"unknown combination rule {payload_weights!r}")
    if isinstance(payload_weights, CombinationMatrix):
        return payload_weights
    return CombinationMatrix(np.asarray(payload_weights, dtype=float))


def _edge_regularizer_from(value, graph: Graph, kind: str,
                           mask: np.ndarray | None = None) -> EdgeRegularizer:
    """Uniform rho on (masked) graph edges, or a user matrix, as a regularizer."""
    if isinstance(value, EdgeRegularizer):
        reg = value
    else:
        if value is None:
            value = 1.0
        if np.isscalar(value):
            support = (graph.adjacency > 0.0).astype(float)
            weights = float(value) * support
        else:
            weights = np.asarray(value, dtype=float)
        if mask is not None and np.isscalar(value):
            weights = weights * mask
        reg = EdgeRegularizer(weights=weights, kind=kind)
    support_ok = (reg.weights == 0.0) | (graph.adjacency > 0.0)
    if not np.all(support_ok):
        raise ValueError("regularizer weights on non-edges")
    if mask is not None and np.any((reg.weights != 0.0) & (mask == 0.0)):
        raise ValueError("regularizer weights on intra-cluster edges")
    return reg


def build_strategy(config: StrategyConfig, graph: Graph, model: StreamModel,
                   spectrum: Spectrum | None = None) -> Strategy:
    """Assemble a Strategy, validating the configuration against the graph
    and model (stability bounds, feasibility, sparsity, block sizes)."""
    n = graph.n_agents
    if model.n_agents != n:
        raise ValueError("model and graph disagree on the number of agents")
    sizes = model.truth.block_sizes
    uniform = model.truth.uniform_size
    payload = config.payload
    kind = config.kind
    mu_eta = config.mu * config.eta

    def need_spectrum() -> Spectrum:
        nonlocal spectrum
        if spectrum is None:
            spectrum = build_laplacian(graph)
        return spectrum

    if kind != "overlapping" and uniform is None:
        raise ValueError(f"kind {kind!r} requires uniform block sizes")

    if kind == "noncooperative":
        return Strategy(config, graph, social_noncooperative, sizes, False)

    if kind == "diffusion":
        combo = _resolve_combination(payload.get("weights", payload.get("rule")),
                                     graph)
        if not combo.is_scalar:
            raise ValueError("diffusion expects scalar combination weights")
        _validate_doubly_stochastic(combo.matrix, graph)
        weights = combo.matrix
        return Strategy(config, graph, lambda psi: social_diffusion(psi, weights),
                        sizes, False, combination=combo)

    if kind == "laplacian_reg":
        spec = need_spectrum()
        bound = 2.0 / spec.lam_max if spec.lam_max > 0.0 else np.inf
        if mu_eta > bound + _STABILITY_SLACK:
            raise ValueError(
                f"unstable social step: mu*eta = {mu_eta:.6g} exceeds "
                f"2/lambda_max = {bound:.6g}"
            )
        return Strategy(config, graph,
                        lambda psi: social_smooth(psi, graph, mu_eta),
                        sizes, False)

    if kind == "spectral_reg":
        spec = need_spectrum()
        kernel = payload.get("kernel")
        if kernel is None:
            raise ValueError("spectral_reg needs payload['kernel']")
        if not isinstance(kernel, SpectralKernel):
            kernel = SpectralKernel.polynomial(kernel)
        kernel.validate_on(spec)
        peak = float(np.max(kernel(spec.eigenvalues)))
        if peak > 0.0 and mu_eta > 2.0 / peak + _STABILITY_SLACK:
            raise ValueError(
                f"unstable social step: mu*eta = {mu_eta:.6g} exceeds "
                f"2/max r(lambda) = {2.0 / peak:.6g}"
            )
        coeffs = kernel.coefficients
        return Strategy(config, graph,
                        lambda psi: social_spectral(psi, graph, coeffs, mu_eta),
                        sizes, False, kernel=kernel)

    if kind == "prox_l1":
        reg = _edge_regularizer_from(payload.get("regularizer", payload.get("rho")),
                                     graph, "l1")
        if reg.kind != "l1":
            raise ValueError("prox_l1 requires an l1 regularizer")
        return Strategy(config, graph,
                        lambda psi: social_prox_l1(psi, graph, reg, mu_eta),
                        sizes, False)

    if kind == "subspace_projection":
        sub = payload.get("subspace")
        if sub is None and "clusters" in payload:
            sub = ClusterPartition(tuple(payload["clusters"]))
        if sub is None or (isinstance(sub, str) and sub == "consensus"):
            sub = consensus_subspace(n, uniform)
            combo = _resolve_combination(payload.get("weights"), graph)
        elif isinstance(sub, ClusterPartition):
            part = sub
            sub = cluster_subspace(part, uniform)
            weights = payload.get("weights")
            combo = (cluster_metropolis(graph, part) if weights is None
                     else _resolve_combination(weights, graph))
        elif isinstance(sub, Subspace):
            combo = _resolve_combination(payload.get("weights"), graph)
        else:
            raise ValueError(f"unrecognized subspace payload {sub!r}")
        if tuple(sub.block_sizes) != tuple(sizes):
            raise ValueError("subspace block sizes do not match the task field")
        report = check_feasibility(combo, sub, graph)
        if not report.passed:
            raise ValueError(
                "infeasible combination matrix: violated "
                + ", ".join(report.failed_constraints())
                + f" (rho(A - P_U) = {report.rho:.6g})"
            )
        block = combo.block_matrix(sizes)
        return Strategy(config, graph,
                        lambda psi: social_subspace(psi, block, sizes),
                        sizes, False, subspace=sub, combination=combo)

    if kind == "overlapping":
        interest = payload.get("interests")
        if not isinstance(interest, InterestMap):
            ints = tuple(tuple(v) for v in interest)
            n_vars = 1 + max(max(row) for row in ints)
            interest = InterestMap(n_vars, ints)
        if interest.block_sizes != tuple(sizes):
            raise ValueError("interest map block sizes do not match the task field")
        var_weights = payload.get("weights")
        if var_weights is None:
            var_weights = overlap_metropolis(graph, interest)
        else:
            _validate_overlap_weights(var_weights, interest)
        return Strategy(
            config, graph,
            lambda psi: social_overlapping(psi, interest, var_weights),
            sizes, True, interest=interest,
        )

    if kind == "clustered":
        part = payload.get("partition")
        if not isinstance(part, ClusterPartition):
            part = ClusterPartition(tuple(part))
        if part.n_agents != n:
            raise ValueError("partition does not cover all agents")
        weights = payload.get("weights")
        combo = (cluster_metropolis(graph, part) if weights is None
                 else _resolve_combination(weights, graph))
        if not combo.is_scalar:
            raise ValueError("clustered expects scalar intra-cluster weights")
        _validate_doubly_stochastic(combo.matrix, graph)
        assign = part.assignment
        inter = (assign[:, None] != assign[None, :])
        if np.any(combo.matrix[inter] != 0.0):
            raise ValueError("intra-cluster weights leak across clusters")
        reg = None
        if config.eta > 0.0:
            penalty = payload.get("penalty", "l1")
            reg = _edge_regularizer_from(
                payload.get("regularizer", payload.get("rho")), graph, penalty,
                mask=inter.astype(float),
            )
        intra = combo.matrix
        return Strategy(
            config, graph,
            lambda psi: social_clustered(psi, part, intra, reg, mu_eta),
            sizes, False, combination=combo, partition=part,
        )

    raise AssertionError(f"unhandled kind {kind!r}")


def _validate_overlap_weights(var_weights: Mapping[int, np.ndarray],
                              interest: InterestMap) -> None:
    for n, agents in enumerate(interest.by_variable):
        mat = np.asarray(var_weights[n], dtype=float)
        size = len(agents)
        if mat.shape != (size, size):
            raise ValueError(f"variable {n} weights must be ({size}, {size})")
        if np.any(mat < -_STOCHASTIC_ATOL):
            raise ValueError(f"variable {n} weights must be nonnegative")
        if not np.allclose(mat.sum(axis=1), 1.0, atol=_STOCHASTIC_ATOL):
            raise ValueError(f"variable {n} weight rows must sum to 1")
        if not np.allclose(mat.sum(axis=0), 1.0, atol=_STOCHASTIC_ATOL):
            raise ValueError(f"variable {n} weight columns must sum to 1")
