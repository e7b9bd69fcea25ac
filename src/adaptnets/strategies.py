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
    subspace_projection   w = A psi or A_block psi (feasible combination matrix)
    overlapping           per-variable combination over interested agents
    clustered             diffusion inside each cluster, then prox_l1 or the
                          laplacian_reg step on the inter-cluster edges

One iteration is w = strategy.social(self_learn(w, model, regressors,
responses, strategy.mu)), on arrays. Every step takes a network state of
shape (..., N, M_max): one run's (N, M_max), or a stack of runs along
leading axes, each run mixed exactly as it would be alone.

The out contract: self_learn and every social step take out=None, a
C-contiguous float array of the state's shape that the step writes in
full, without reading it first, and returns. Where out is None the step
allocates it; there is no other path, so a step given out returns the
same bits as one that allocates. out must not share memory with the
step's input (the step does not check): the step reads its input, w or
psi, and never writes it, so aggregation within an iteration always uses
the pre-step values. What the steps keep besides are plans of constant
tables and work buffers: the l1 prox's per row count (ProxPlan, in
adaptnets.prox with its kernel) and the overlapping step's per leading
shape (OverlapPlan). Nothing a step returns is a view of a plan.

Each kind is declared once, as a StrategyKind entry in STRATEGY_KINDS, and
everything that needs to know a kind reads that entry: StrategyConfig and
the config schema (its keys, whether it uses eta), assess_strategy (its
builder and its conditions, which build_strategy refuses a step on and
`adaptnets check` reports before the kind's self-tests), the eta sweep
(eta) and theory.closed_forms (theory). A kind's keys are the same names
in a config document's "strategy" object and in StrategyConfig.payload.

Reductions (special cases that must agree bit-identically under a shared
RNG stream):

    spectral_reg, r(lambda)=lambda      == laplacian_reg
    laplacian_reg, eta=0                == noncooperative
    clustered, one cluster, eta=0       == diffusion
    subspace_projection, consensus U,
        scalar combination weights      == diffusion
    clustered, singleton clusters,
        l1 regularizer                  == prox_l1

clustered is composed of the other steps: social_diffusion with the
cluster weights, then, with eta > 0, social_prox_l1 (l1 penalty) or
social_smooth on the graph of inter-cluster weights (quadratic penalty).
Its two reductions hold by construction: one cluster's Metropolis weights
are the graph's, and singleton clusters' weights are the identity.
"""

from __future__ import annotations

from dataclasses import KW_ONLY, dataclass, field as dc_field
from functools import cached_property
import math
from typing import Callable, Mapping

import numpy as np

from .graphs import (
    CombinationMatrix,
    ClusterPartition,
    FeasibilityReport,
    Graph,
    SpectralKernel,
    Subspace,
    apply_spectral_kernel,
    check_feasibility,
    cluster_subspace,
    consensus_subspace,
    is_symmetric,
    laplacian_weights,
    metropolis_block,
    metropolis_weights,
)
from .prox import ProxPlan, social_prox_l1
from .streaming import StreamModel

__all__ = [
    "STRATEGY_KINDS",
    "StrategyKind",
    "StrategyConfig",
    "EdgeRegularizer",
    "InterestMap",
    "Strategy",
    "assess_strategy",
    "build_strategy",
    "self_learn",
    "social_noncooperative",
    "social_smooth",
    "social_spectral",
    "social_prox_l1",
    "social_diffusion",
    "social_subspace",
    "social_overlapping",
    "overlap_metropolis",
    "overlap_table",
    "OverlapTable",
    "cluster_metropolis",
]

_STABILITY_SLACK = 1e-12
_STOCHASTIC_ATOL = 1e-10


# ---------------------------------------------------------------------------
# Configuration and the social steps' pieces
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class StrategyConfig:
    """Declarative description of a strategy.

    mu > 0 is the gradient step-size, eta >= 0 the regularization strength
    (must be 0 for kinds that have no regularizer). payload carries the
    kind's keys (StrategyKind.required and .optional), see assess_strategy.
    Compared and hashed by identity: payload values may be arrays.
    """

    kind: str
    mu: float
    eta: float = 0.0
    payload: dict = dc_field(default_factory=dict)

    def __post_init__(self):
        if not isinstance(self.kind, str) or self.kind not in STRATEGY_KINDS:
            raise ValueError(
                f"unknown strategy kind {self.kind!r}; expected one of "
                f"{tuple(STRATEGY_KINDS)}"
            )
        entry = STRATEGY_KINDS[self.kind]
        if not (self.mu > 0.0 and np.isfinite(self.mu)):
            raise ValueError("mu must be positive and finite")
        if not (self.eta >= 0.0 and np.isfinite(self.eta)):
            raise ValueError("eta must be >= 0 and finite")
        if not entry.uses_eta and self.eta != 0.0:
            raise ValueError(f"kind {self.kind!r} does not use eta; set it to 0")
        where = f"strategy ({self.kind})"
        unknown = set(self.payload) - set(entry.required) - set(entry.optional)
        if unknown:
            raise ValueError(f"unknown keys in {where}: {sorted(unknown)}")
        missing = set(entry.required) - set(self.payload)
        if missing:
            raise ValueError(f"missing keys in {where}: {sorted(missing)}")
        # the builder multiplies a scalar rho by the 0/1 edge mask, where
        # inf * 0 would warn and make nan; nan fails the test too
        rho = self.payload.get("rho")
        if isinstance(rho, (int, float)) and not 0.0 <= rho < math.inf:
            raise ValueError("strategy.rho must be finite and >= 0")


@dataclass(frozen=True, eq=False)
class EdgeRegularizer:
    """Symmetric nonnegative edge weights rho_{kl} with a penalty kind.

    Compared and hashed by identity: equality of weight arrays has no single
    truth value.
    """

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
        if not is_symmetric(w):
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

    @cached_property
    def prox_plans(self) -> dict[int, ProxPlan]:
        """The l1 prox's plans by row count, each built by the first step
        on that many rows (see prox_plan)."""
        return {}

    def prox_plan(self, rows: int) -> ProxPlan:
        """The l1 prox's gather tables and frames for `rows` coordinate rows
        (runs x M), built on first use and kept for every later step."""
        plan = self.prox_plans.get(rows)
        if plan is None:
            plan = self.prox_plans[rows] = ProxPlan(*self.neighbor_table, rows)
        return plan


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
        missing = sorted(set(range(self.n_variables)) - covered)
        if missing:
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
        """Slice a global variable vector into per-agent blocks: one gather
        of every agent's variables, split at the block boundaries."""
        vec = np.asarray(values, dtype=float).ravel()
        if vec.size != self.n_variables:
            raise ValueError(f"expected {self.n_variables} values, got {vec.size}")
        gathered = vec[np.concatenate(self.interests)]
        return tuple(np.split(gathered, np.cumsum(self.block_sizes)[:-1]))


# ---------------------------------------------------------------------------
# Self-learning step
# ---------------------------------------------------------------------------

def self_learn(w, model: StreamModel, regressors: np.ndarray,
               responses: np.ndarray, mu: float, out=None):
    """Apply one stochastic-gradient step per agent: psi = w - mu * grad,
    with grad as network_gradient gives it, written into out and returned
    (see the out contract in the module docstring).

    w and regressors are (..., N, M_max) and responses (..., N), as in
    network_gradient. mse takes the step as psi = w + mu * (u e) with
    e = d - u^T w: negation is exact, so these are the bits of
    w - mu * (-u e).
    """
    if out is None:
        out = np.empty(np.shape(w))
    inner = np.einsum("...km,...km->...k", regressors, w)
    if model.kind == "mse":
        np.subtract(responses, inner, out=inner)
        np.multiply(regressors, inner[..., None], out=out)
        out *= mu
        return np.add(w, out, out=out)
    # grad = reg * w - gamma * sigmoid(-gamma h^T w) h, as network_gradient
    np.multiply(responses, inner, out=inner)
    inner *= -0.5
    np.tanh(inner, out=inner)
    inner += 1.0
    inner *= 0.5
    inner *= responses
    np.multiply(inner[..., None], regressors, out=out)
    np.subtract(model.reg * w, out, out=out)
    out *= mu
    return np.subtract(w, out, out=out)


# ---------------------------------------------------------------------------
# Social-learning steps
# ---------------------------------------------------------------------------

def social_noncooperative(psi, out=None):
    """w = psi, copied into out (see the out contract)."""
    if out is None:
        out = np.empty(np.shape(psi))
    np.copyto(out, psi)
    return out


def social_smooth(psi, graph: Graph, mu_eta: float, out=None):
    """w = psi - mu*eta * sum_l c_{kl} (psi_k - psi_l), i.e. (I - mu*eta*L)psi,
    written into out (see the out contract)."""
    psi = np.asarray(psi, dtype=float)
    if out is None:
        out = np.empty(psi.shape)
    # L psi = D psi - A psi, with A psi formed in out
    np.matmul(graph.adjacency, psi, out=out)
    np.subtract(graph.weighted_degrees[:, None] * psi, out, out=out)
    out *= mu_eta
    return np.subtract(psi, out, out=out)


def social_spectral(psi, graph: Graph, coefficients, mu_eta: float, out=None):
    """Distributed S-hop social step for a polynomial kernel.

    Runs the neighbor-difference recursion

        acc^0 = beta_S psi,   acc^s = beta_{S-s} psi + L acc^{s-1}

    whose final value is r(L) psi, then writes psi - mu*eta * acc^S into
    out (see the out contract).
    """
    psi = np.asarray(psi, dtype=float)
    if out is None:
        out = np.empty(psi.shape)
    beta = np.asarray(coefficients, dtype=float).ravel()
    adjacency = graph.adjacency
    degrees = graph.weighted_degrees
    hops = beta.size - 1
    acc = beta[hops] * psi
    for s in range(1, hops + 1):
        # L acc = D acc - A acc: the neighbor-difference sums
        acc = beta[hops - s] * psi + (degrees[:, None] * acc - adjacency @ acc)
    np.multiply(mu_eta, acc, out=out)
    return np.subtract(psi, out, out=out)


def social_diffusion(psi, weights: np.ndarray, out=None):
    """w_k = sum_l a_{kl} psi_l with scalar combination weights, written
    into out (see the out contract)."""
    psi = np.asarray(psi, dtype=float)
    if out is None:
        out = np.empty(psi.shape)
    return np.matmul(weights, psi, out=out)


def social_subspace(psi, block_matrix: np.ndarray, out=None):
    """Block combination w = A psi on each run's stacked (N, M) state,
    written into out (see the out contract)."""
    psi = np.asarray(psi, dtype=float)
    if out is None:
        out = np.empty(psi.shape)
    stacked = (-1, psi.shape[-2] * psi.shape[-1], 1)
    # a C-contiguous out reshapes to a view, so matmul writes into out
    np.matmul(block_matrix, psi.reshape(stacked), out=out.reshape(stacked))
    return out


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
        mat = metropolis_block(
            graph, agents, f"the subgraph of agents interested in variable {n}")
        np.fill_diagonal(mat, 1.0 - mat.sum(axis=1))
        weights[n] = mat
    return weights


def overlap_table(interest: InterestMap, var_weights: Mapping[int, np.ndarray]
                  ) -> OverlapTable:
    """The per-variable combination as (N, M_max, D) index and weight arrays.

    Slots of (k, position of v) hold the flat indices (l * M_max + position
    of v at l) and weights of row k of var_weights[v]'s nonzero entries.
    The other slots, all of a pad entry's among them, hold index N * M_max
    (the 0.0 after a run's entries in OverlapPlan.flat) and weight 0.
    """
    sizes = interest.block_sizes
    n, width = len(sizes), max(sizes)
    depth = max(int(np.count_nonzero(w, axis=1).max())
                for w in var_weights.values())
    index = np.full((n, width, depth), n * width, dtype=np.intp)
    weight = np.zeros((n, width, depth))
    positions = interest.positions
    for v, agents in enumerate(interest.by_variable):
        flat = np.array([l * width + positions[l][v] for l in agents])
        for i, k in enumerate(agents):
            keep = np.flatnonzero(var_weights[v][i])
            index[k, positions[k][v], :keep.size] = flat[keep]
            weight[k, positions[k][v], :keep.size] = var_weights[v][i, keep]
    return OverlapTable(index, weight)


@dataclass(frozen=True, eq=False)
class OverlapTable:
    """overlap_table's (N, M_max, D) index and weight arrays, and
    social_overlapping's plans by the state's leading shape, each built by
    the first step on that shape and kept for every later step."""

    index: np.ndarray
    weight: np.ndarray

    @cached_property
    def plans(self) -> dict[tuple, OverlapPlan]:
        return {}

    def plan(self, lead: tuple) -> OverlapPlan:
        plan = self.plans.get(lead)
        if plan is None:
            plan = self.plans[lead] = OverlapPlan(self.index, self.weight, lead)
        return plan


def _pairwise_adds(first: int, count: int, adds: list) -> list:
    """The additions by which numpy's add.reduce sums `count` values along
    a contiguous axis (its pairwise summation), as (i, j) for slot i +=
    slot j: they sum slots first .. first + count - 1 into slot first."""
    if count < 8:
        adds.extend((first, i) for i in range(first + 1, first + count))
    elif count <= 128:
        # eight running sums over every eighth slot, combined as
        # ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)), then the rest
        stop = first + count - count % 8
        adds.extend((first + r, i) for r in range(8)
                    for i in range(first + 8 + r, stop, 8))
        adds.extend((first + a, first + b) for a, b in (
            (0, 1), (2, 3), (0, 2), (4, 5), (6, 7), (4, 6), (0, 4)))
        adds.extend((first, i) for i in range(stop, first + count))
    else:
        half = count // 2 - count // 2 % 8
        _pairwise_adds(first, half, adds)
        _pairwise_adds(first + half, count - half, adds)
        adds.append((first, first + half))
    return adds


class OverlapPlan:
    """social_overlapping's constant tables for states of leading shape
    `lead` (R runs in all), and the buffers a step writes into, as ProxPlan
    is the l1 prox's. A cell is one (run, agent, position) entry, C = N
    M_max to a run, and each cell has the table's D slots. The plan holds:
      - flat: each run's C cells, then 0.0, the value the table's pad
        slots read; state is its cells as a view in the state's shape;
      - take: every slot's position in flat, slot-major, (D, R, C), and
        weights, the slot weights tiled to the same shape;
      - gather: the (D, R, C) frame a step gathers and weighs into, slots
        its D (R, C) views and result slot 0 in the state's shape;
      - adds: the pairwise order of the sum over the slots.
    """

    def __init__(self, index: np.ndarray, weight: np.ndarray, lead: tuple):
        n, width, depth = index.shape
        cells, rows = n * width, math.prod(lead)
        self.flat = np.zeros((rows, cells + 1))
        self.state = self.flat[:, :cells].reshape(lead + (n, width))
        slot_index = index.reshape(cells, depth).T[:, None, :]
        self.take = slot_index + np.arange(rows)[:, None] * (cells + 1)
        self.weights = np.repeat(weight.reshape(cells, depth).T[:, None, :],
                                 rows, axis=1)
        self.gather = np.empty((depth, rows, cells))
        self.slots = tuple(self.gather)
        self.result = self.gather[0].reshape(lead + (n, width))
        self.adds = _pairwise_adds(0, depth, [])


def social_overlapping(psi, table: OverlapTable, out=None):
    """Per-variable combination: for every global variable, the interested
    agents average their copies with that variable's weights; variables with
    a single interested agent pass through unchanged. Written into out (see
    the out contract).

    One gather, weight and sum over overlap_table(interest, var_weights):
    pad entries come out exactly 0 whatever psi holds. It agrees with
    W_v @ psi_v per variable to rounding, as the sums run in another order.

    The step works slot-major, on the plan's (D, R, C) frame (see
    OverlapPlan), so that every numpy call runs along R C contiguous
    entries. The slots are summed in the order numpy's add.reduce sums the
    last axis of the (..., N, M_max, D) products (its pairwise summation,
    checked with numpy 2.4), and then added to 0.0 as it does, so the step
    gives the bits of (take(flat, index, axis=-1) * weight).sum(axis=-1).
    """
    psi = np.asarray(psi, dtype=float)
    if out is None:
        out = np.empty(psi.shape)
    plan = table.plan(psi.shape[:-2])
    np.copyto(plan.state, psi)
    # mode="clip" writes straight into the frame; every index is in range
    plan.flat.take(plan.take, out=plan.gather, mode="clip")
    plan.gather *= plan.weights
    slots = plan.slots
    for i, j in plan.adds:
        np.add(slots[i], slots[j], out=slots[i])
    return np.add(plan.result, 0.0, out=out)


def cluster_metropolis(graph: Graph, partition: ClusterPartition) -> CombinationMatrix:
    """Block-diagonal Metropolis weights on each cluster's induced subgraph."""
    if partition.n_agents != graph.n_agents:
        raise ValueError("partition and graph disagree on the agent count")
    n = graph.n_agents
    weights = np.zeros((n, n))
    for q, (start, stop) in enumerate(partition.slices):
        weights[start:stop, start:stop] = metropolis_block(
            graph, range(start, stop), f"cluster {q} inside the graph")
    np.fill_diagonal(weights, 1.0 - weights.sum(axis=1))
    return CombinationMatrix(weights)


# ---------------------------------------------------------------------------
# Strategy assembly
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class Strategy:
    """A configured adaptation rule: self-learning plus one social step.

    social(psi, out=None) is the kind's social step, with the out contract
    of the module docstring. The keyword pieces are what the kind's
    builder assembled the social step from (None where the kind has no
    such piece). subspace is the subspace the social step projects onto,
    where it has one: the consensus subspace for diffusion, the cluster
    subspace for clustered with eta = 0 and the constraint of
    subspace_projection. A strategy pickles as its build, the kind's
    builder on (config, graph, model): unpickled, it has new closures and
    empty plans, and a social replaced after the build (a spy) is lost.
    """

    config: StrategyConfig
    graph: Graph
    social: Callable
    model: StreamModel
    _: KW_ONLY
    kernel: SpectralKernel | None = None
    subspace: Subspace | None = None
    combination: CombinationMatrix | None = None
    regularizer: EdgeRegularizer | None = None
    partition: ClusterPartition | None = None
    interest: InterestMap | None = None
    var_weights: Mapping[int, np.ndarray] | None = None

    @cached_property
    def feasibility(self) -> FeasibilityReport | None:
        """check_feasibility of the combination against the subspace, run on
        first read (None where the step lacks either): the one rho(A - P_U)."""
        if self.combination is None or self.subspace is None:
            return None
        return check_feasibility(self.combination, self.subspace, self.graph)

    def __reduce__(self):
        return STRATEGY_KINDS[self.kind].build, (self.config, self.graph,
                                                 self.model)

    @property
    def block_sizes(self) -> tuple[int, ...]:
        return self.model.truth.block_sizes

    @property
    def kind(self) -> str:
        return self.config.kind

    @property
    def mu(self) -> float:
        return self.config.mu

    @property
    def eta(self) -> float:
        return self.config.eta


def _resolve_combination(payload_weights, graph: Graph,
                         partition: ClusterPartition | None = None
                         ) -> CombinationMatrix:
    """The combination a payload's weights name; by default Metropolis
    weights, within each cluster where a partition is given."""
    if payload_weights is None:
        if partition is not None:
            return cluster_metropolis(graph, partition)
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
    if value is None:
        value = 1.0
    if np.isscalar(value):
        weights = float(value) * (graph.adjacency > 0.0)
        if mask is not None:
            weights = weights * mask
    else:
        weights = np.asarray(value, dtype=float)
        n = graph.n_agents
        if weights.shape != (n, n):
            raise ValueError(f"rho must be a number or a {n}x{n} matrix, "
                             f"got shape {weights.shape}")
    reg = EdgeRegularizer(weights=weights, kind=kind)
    support_ok = (reg.weights == 0.0) | (graph.adjacency > 0.0)
    if not np.all(support_ok):
        raise ValueError("regularizer weights on non-edges")
    if mask is not None and np.any((reg.weights != 0.0) & (mask == 0.0)):
        raise ValueError("regularizer weights on intra-cluster edges")
    return reg


def _probe(strategy: Strategy, rng: np.random.Generator) -> np.ndarray:
    """A random network state to run a social step on in the self-tests."""
    return rng.standard_normal((strategy.graph.n_agents, strategy.block_sizes[0]))


def _scalar_prox_oracle(anchor, neighbors, weights, gamma, lo, hi):
    """Golden-section minimum of 0.5(x-a)^2 + gamma * sum w|x - v|."""

    def objective(x):
        return 0.5 * (x - anchor) ** 2 + gamma * float(
            np.sum(weights * np.abs(x - neighbors))
        )

    phi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c, d = b - phi * (b - a), a + phi * (b - a)
    fc, fd = objective(c), objective(d)
    for _ in range(200):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = objective(c)
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = objective(d)
    return 0.5 * (a + b)


def _no_rows(*args) -> list:
    return []


# -- conditions: the rows a sound social step needs -------------------------

def _weight_conditions(strategy) -> list:
    """Scalar combination weights A on the graph: N x N, nonnegative, rows
    and columns summing to 1 and a_kl = 0 unless l is k or a neighbor of k;
    clustered weights besides put no weight across clusters."""
    a = strategy.combination.matrix
    graph = strategy.graph
    n = graph.n_agents
    if a.shape != (n, n):
        return [("combination_shape", False,
                 f"{a.shape[0]}x{a.shape[1]} weights on {n} agents")]
    low = float(a.min())
    rows = float(np.max(np.abs(a.sum(axis=1) - 1.0)))
    cols = float(np.max(np.abs(a.sum(axis=0) - 1.0)))
    off = (a != 0.0) & (graph.adjacency == 0.0)
    np.fill_diagonal(off, False)
    where = ""
    if off.any():
        k, l = np.argwhere(off)[0]
        where = f"weight from non-neighbor {l} to agent {k}"
    conditions = [
        ("nonnegative_weights", low >= -_STOCHASTIC_ATOL, f"min={low:.2e}"),
        ("rows_sum_to_one", rows <= _STOCHASTIC_ATOL, f"max_dev={rows:.2e}"),
        ("columns_sum_to_one", cols <= _STOCHASTIC_ATOL, f"max_dev={cols:.2e}"),
        ("graph_sparsity", not off.any(), where),
    ]
    if strategy.partition is not None:
        assign = strategy.partition.assignment
        leak = float(np.max(np.abs(a[assign[:, None] != assign[None, :]]),
                            initial=0.0))
        conditions.append(("block_diagonal_weights", leak == 0.0,
                           f"leak={leak:.2e} across clusters"))
    return conditions


def _stability_conditions(strategy) -> list:
    """mu*eta <= 2 / max r(lambda), with r(lambda) = lambda without a kernel
    and validated >= 0 with one; no bound where max r(lambda) <= 0."""
    mu_eta = strategy.mu * strategy.eta
    spectrum = strategy.graph.spectrum
    if strategy.kernel is None:
        peak, name = spectrum.lam_max, "lambda_max"
    else:
        peak = float(np.max(strategy.kernel.validate_on(spectrum)))
        name = "max r(lambda)"
    bound = 2.0 / peak if peak > 0.0 else np.inf
    ok = mu_eta <= bound + _STABILITY_SLACK
    detail = f"mu*eta = {mu_eta:.6g}, 2/{name} = {bound:.6g}"
    return [("stability", ok, detail if ok else f"unstable social step: {detail}")]


def _clustered_conditions(strategy) -> list:
    """The weight rows and, with the quadratic penalty at eta > 0, the
    stability of the composed step S = (I - mu*eta*L_inter) A: rho(S) <= 1,
    up to the rounding of its unit consensus eigenvalue. The l1 prox is
    nonexpansive and needs no such row."""
    conditions = _weight_conditions(strategy)
    reg = strategy.regularizer
    if (reg is None or reg.kind != "quadratic"
            or conditions[0][0] == "combination_shape"):
        return conditions
    inter = reg.weights
    step = np.eye(len(inter)) - strategy.mu * strategy.eta * (
        np.diag(inter.sum(axis=1)) - inter)
    rho = float(np.max(np.abs(np.linalg.eigvals(
        step @ strategy.combination.matrix))))
    ok = rho <= 1.0 + _STABILITY_SLACK
    detail = f"rho((I - mu*eta*L_inter) A) = {rho:.6g}"
    return conditions + [
        ("stability", ok, detail if ok else f"unstable social step: {detail}")]


def _feasibility_conditions(strategy) -> list:
    """The flags of check_feasibility's report on the combination weights
    and the subspace they must project onto."""
    report = strategy.feasibility
    conditions = []
    for name in report.flags:
        ok = getattr(report, name)
        detail = f"rho(A - P_U) = {report.rho:.6g}" if name == "spectral" else ""
        if not ok:
            detail = f"infeasible combination matrix {detail}".rstrip()
        conditions.append((f"feasibility_{name}", ok, detail))
    return conditions


# -- noncooperative ---------------------------------------------------------

def _build_noncooperative(config, graph, model) -> Strategy:
    return Strategy(config, graph, social_noncooperative, model)


# -- diffusion --------------------------------------------------------------

def _build_diffusion(config, graph, model) -> Strategy:
    combo = _resolve_combination(config.payload.get("weights"), graph)
    if not combo.is_scalar:
        raise ValueError("diffusion expects scalar combination weights")
    weights = combo.matrix
    return Strategy(
        config, graph, lambda psi, out=None: social_diffusion(psi, weights, out),
        model, combination=combo,
        subspace=consensus_subspace(graph.n_agents, model.truth.uniform_size),
    )


def _check_diffusion(strategy, rng) -> list:
    # the conditions make A doubly stochastic, so A^i converges to P_U
    # exactly where rho(A - P_U) < 1: the rate the theory reads
    report = strategy.feasibility
    return [("semi_convergent", report.spectral, f"rho={report.rho:.6f}")]


# -- laplacian_reg and spectral_reg -----------------------------------------

def _build_laplacian(config, graph, model) -> Strategy:
    mu_eta = config.mu * config.eta
    return Strategy(config, graph, lambda psi, out=None: social_smooth(
        psi, graph, mu_eta, out), model)


def _build_spectral(config, graph, model) -> Strategy:
    mu_eta = config.mu * config.eta
    kernel = config.payload["kernel"]
    if not isinstance(kernel, SpectralKernel):
        kernel = SpectralKernel.polynomial(kernel)
    coeffs = kernel.coefficients
    return Strategy(config, graph,
                    lambda psi, out=None: social_spectral(psi, graph, coeffs,
                                                          mu_eta, out),
                    model, kernel=kernel)


def _check_laplacian(strategy, rng) -> list:
    psi = _probe(strategy, rng)
    mu_eta = strategy.mu * strategy.eta
    dense = psi - mu_eta * (strategy.graph.spectrum.laplacian @ psi)
    err = float(np.max(np.abs(strategy.social(psi) - dense)))
    return [("smooth_matches_dense", err <= 1e-12, f"max_err={err:.2e}")]


def _check_spectral(strategy, rng) -> list:
    psi = _probe(strategy, rng)
    mu_eta = strategy.mu * strategy.eta
    r_of_l = apply_spectral_kernel(strategy.kernel, strategy.graph.spectrum)
    dense = psi - mu_eta * (r_of_l @ psi)
    denom = max(float(np.max(np.abs(dense))), 1.0)
    err = float(np.max(np.abs(strategy.social(psi) - dense))) / denom
    return [("recursion_matches_dense", err <= 1e-9, f"rel_err={err:.2e}")]


# -- prox_l1 ----------------------------------------------------------------

def _build_prox_l1(config, graph, model) -> Strategy:
    mu_eta = config.mu * config.eta
    reg = _edge_regularizer_from(config.payload.get("rho"), graph, "l1")
    return Strategy(config, graph,
                    lambda psi, out=None: social_prox_l1(psi, reg, mu_eta, out),
                    model, regularizer=reg)


def _check_prox_l1(strategy, rng) -> list:
    psi = _probe(strategy, rng)
    n, m = psi.shape
    gamma = strategy.mu * strategy.eta
    weights = strategy.regularizer.weights
    got = strategy.social(psi)
    worst = 0.0
    for k in range(n):
        nbrs = np.flatnonzero(weights[k])
        if nbrs.size == 0:
            continue
        for j in range(m):
            span = float(np.max(np.abs(
                np.append(psi[nbrs, j], psi[k, j])))) + 1.0
            ref = _scalar_prox_oracle(psi[k, j], psi[nbrs, j],
                                      weights[k, nbrs], gamma, -span, span)
            worst = max(worst, abs(ref - got[k, j]))
    return [("prox_matches_scalar_search", worst <= 1e-6, f"max_err={worst:.2e}")]


# -- subspace_projection ----------------------------------------------------

def _build_subspace(config, graph, model) -> Strategy:
    sizes = model.truth.block_sizes
    m = model.truth.uniform_size
    sub = config.payload.get("subspace", "consensus")
    part = None
    if isinstance(sub, Subspace):
        subspace = sub
    elif sub == "consensus":
        subspace = consensus_subspace(graph.n_agents, m)
    elif isinstance(sub, Mapping) and set(sub) == {"clusters"}:
        part = ClusterPartition(tuple(sub["clusters"]))
        subspace = cluster_subspace(part, m)
    else:
        raise ValueError(
            f"unknown subspace {sub!r}; expected \"consensus\" or "
            f"{{\"clusters\": [sizes]}}")
    combo = _resolve_combination(config.payload.get("weights"), graph, part)
    if tuple(subspace.block_sizes) != tuple(sizes):
        raise ValueError("subspace block sizes do not match the task field")
    if combo.is_scalar:
        # A x I_M applied as A @ psi on the (N, M) state
        weights = combo.matrix
        social = lambda psi, out=None: social_diffusion(psi, weights, out)
    else:
        block = combo.block_matrix(sizes)
        social = lambda psi, out=None: social_subspace(psi, block, out)
    return Strategy(config, graph, social, model, subspace=subspace,
                    combination=combo)


# -- overlapping ------------------------------------------------------------

def _build_overlapping(config, graph, model) -> Strategy:
    interest = config.payload["interests"]
    if not isinstance(interest, InterestMap):
        ints = tuple(tuple(v) for v in interest)
        # an empty row leaves InterestMap to name its agent
        interest = InterestMap(1 + max((v for row in ints for v in row),
                                       default=-1), ints)
    sizes = model.truth.block_sizes
    if interest.block_sizes != tuple(sizes):
        raise ValueError("interest map block sizes do not match the task field")
    var_weights = overlap_metropolis(graph, interest)
    table = overlap_table(interest, var_weights)
    return Strategy(
        config, graph, lambda psi, out=None: social_overlapping(psi, table, out),
        model, interest=interest, var_weights=var_weights,
    )


# -- clustered --------------------------------------------------------------

def _build_clustered(config, graph, model) -> Strategy:
    """Diffusion inside each cluster; with eta > 0, then the l1 prox or the
    Laplacian step of the penalty on the inter-cluster edges."""
    part = ClusterPartition(tuple(config.payload["clusters"]))
    if part.n_agents != graph.n_agents:
        raise ValueError("partition does not cover all agents")
    combo = _resolve_combination(config.payload.get("weights"), graph, part)
    if not combo.is_scalar:
        raise ValueError("clustered expects scalar intra-cluster weights")
    intra = combo.matrix
    mu_eta = config.mu * config.eta
    reg = subspace = None
    if config.eta == 0.0:
        subspace = cluster_subspace(part, model.truth.uniform_size)
        social = lambda psi, out=None: social_diffusion(psi, intra, out)
    else:
        assign = part.assignment
        reg = _edge_regularizer_from(
            config.payload.get("rho"), graph, config.payload.get("penalty", "l1"),
            mask=(assign[:, None] != assign[None, :]).astype(float),
        )
        if reg.kind == "l1":
            social = lambda psi, out=None: social_prox_l1(
                social_diffusion(psi, intra), reg, mu_eta, out)
        else:
            # the stored weights are exactly symmetric with a zero diagonal,
            # so the graph holds them bit for bit
            inter = Graph(reg.weights)
            social = lambda psi, out=None: social_smooth(
                social_diffusion(psi, intra), inter, mu_eta, out)
    return Strategy(config, graph, social, model,
                    combination=combo, regularizer=reg, partition=part,
                    subspace=subspace)


# ---------------------------------------------------------------------------
# The table of kinds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StrategyKind:
    """One cooperation rule, declared once.

    Only laplacian_reg and spectral_reg read graph.spectrum, which
    decomposes the Laplacian on first read; the other kinds never do.

    build               (config, graph, model) -> Strategy: the pieces and
                        the social step
    checks              (strategy, rng) -> [(name, passed, detail)]: the
                        self-tests of `adaptnets check`, run on a step that
                        meets its conditions; they only report
    conditions          (strategy) -> [(name, passed, detail)]:
                        what a sound step needs (weights on the graph,
                        stability, feasibility), each computed once;
                        assess_strategy returns them, build_strategy
                        refuses a step that fails a row and `adaptnets
                        check` reports every row
    required, optional  its strategy keys besides kind, mu and eta
    uses_eta            whether eta weighs a regularizer (else eta must be 0;
                        the eta sweep takes exactly these kinds)
    blockwise           whether agents may estimate blocks of different
                        sizes; the state is zero-padded to the largest
    theory              the closed form theory.closed_forms attaches:
                        "noncooperative", "smoothness", "projection" (onto
                        Strategy.subspace) or None
    """

    build: Callable[..., Strategy]
    checks: Callable[..., list] = _no_rows
    conditions: Callable[[Strategy], list] = _no_rows
    required: tuple[str, ...] = ()
    optional: tuple[str, ...] = ()
    uses_eta: bool = False
    blockwise: bool = False
    theory: str | None = None


STRATEGY_KINDS: dict[str, StrategyKind] = {
    "noncooperative": StrategyKind(
        _build_noncooperative, theory="noncooperative"),
    "diffusion": StrategyKind(
        _build_diffusion, _check_diffusion, optional=("weights",),
        conditions=_weight_conditions, theory="projection"),
    "laplacian_reg": StrategyKind(
        _build_laplacian, _check_laplacian, uses_eta=True,
        conditions=_stability_conditions, theory="smoothness"),
    "spectral_reg": StrategyKind(
        _build_spectral, _check_spectral, required=("kernel",), uses_eta=True,
        conditions=_stability_conditions, theory="smoothness"),
    "prox_l1": StrategyKind(
        _build_prox_l1, _check_prox_l1, optional=("rho",), uses_eta=True),
    "subspace_projection": StrategyKind(
        _build_subspace, optional=("subspace", "weights"),
        conditions=_feasibility_conditions, theory="projection"),
    "overlapping": StrategyKind(
        _build_overlapping, required=("interests",), blockwise=True),
    "clustered": StrategyKind(
        _build_clustered, required=("clusters",),
        optional=("penalty", "rho", "weights"), uses_eta=True,
        conditions=_clustered_conditions, theory="projection"),
}


def assess_strategy(config: StrategyConfig, graph: Graph, model: StreamModel
                    ) -> tuple[Strategy | None, list]:
    """The acceptance sequence of a step, shared by build_strategy and
    `adaptnets check`: the step its kind's builder assembles and the
    kind's condition rows (StrategyKind.conditions) on it, as (name,
    passed, detail). A kind that needs uniform blocks on a ragged task
    field is not built: its one row is a failed uniform_blocks.

    payload holds the kind's keys with the values a config document gives
    them, except the kernel: a SpectralKernel or ascending polynomial
    coefficients (resolve builds a config document's kernel object first,
    by its kind in config's table). Besides, a matrix may be a numpy array,
    weights a CombinationMatrix, a subspace a Subspace and interests an
    InterestMap.
    """
    if model.n_agents != graph.n_agents:
        raise ValueError("model and graph disagree on the number of agents")
    entry = STRATEGY_KINDS[config.kind]
    if not entry.blockwise and model.truth.uniform_size is None:
        return None, [("uniform_blocks", False,
                       "strategy needs uniform block sizes")]
    strategy = entry.build(config, graph, model)
    return strategy, entry.conditions(strategy)


def build_strategy(config: StrategyConfig, graph: Graph,
                   model: StreamModel) -> Strategy:
    """The step assess_strategy assembles, refused with one ValueError
    naming every condition row it fails."""
    strategy, conditions = assess_strategy(config, graph, model)
    failed = [f"{name} ({detail})" if detail else name
              for name, ok, detail in conditions if not ok]
    if failed:
        raise ValueError(f"{config.kind} step fails its conditions: "
                         + "; ".join(failed))
    return strategy
