"""Weighted graphs and their spectral machinery.

This module provides the graph-side primitives used by the multitask
strategies and the steady-state theory:

    Graph                 undirected weighted graph (symmetric adjacency)
    Spectrum              Laplacian eigendecomposition with fixed conventions
    SpectralKernel        nonnegative spectral weighting r(lambda)
    Subspace              basis of a constraint subspace (consensus, clusters)
    CombinationMatrix     scalar or block combination weights
    ClusterPartition      contiguous partition of agents into clusters
    FeasibilityReport     outcome of combination-matrix feasibility checks

and the operations

    is_symmetric, build_laplacian, smoothness, graph_fourier,
    inverse_graph_fourier, metropolis_block, metropolis_weights,
    laplacian_weights, apply_spectral_kernel, chebyshev_fit,
    consensus_subspace, cluster_subspace, projector, check_feasibility

plus generators (ring, star, complete, random geometric) and JSON I/O.

The classes holding arrays compare and hash by identity (eq=False): an
element-wise comparison of their arrays has no single truth value. They
unpickle through readonly_setstate, so their arrays stay read-only.
"""

from __future__ import annotations

import json
import operator
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np
from numpy.polynomial import chebyshev as _cheb
from numpy.polynomial import polynomial as _poly

__all__ = [
    "Graph",
    "Spectrum",
    "SpectralKernel",
    "Subspace",
    "CombinationMatrix",
    "ClusterPartition",
    "FeasibilityReport",
    "EigensolverError",
    "is_symmetric",
    "readonly_setstate",
    "build_laplacian",
    "smoothness",
    "graph_fourier",
    "inverse_graph_fourier",
    "metropolis_block",
    "metropolis_weights",
    "laplacian_weights",
    "apply_spectral_kernel",
    "chebyshev_fit",
    "consensus_subspace",
    "cluster_subspace",
    "projector",
    "check_feasibility",
    "ring_graph",
    "star_graph",
    "complete_graph",
    "random_geometric_graph",
    "load_graph",
    "save_graph",
]

# Numerical tolerances used throughout. The eigendecomposition residual bound
# is relative to ||L||_F ||P||_F for build_laplacian's probe block P; the
# rank tolerance is relative to the largest singular value.
EIG_RESIDUAL_RTOL = 1e-10
RANK_RTOL = 1e-10
SPECTRAL_RADIUS_SLACK = 1e-8
_SYM_ATOL = 1e-12
# check_feasibility: the tolerance, relative to max(1, max |a_kl|), of its
# fixed-subspace and sparsity tests
_FEASIBILITY_TOL = 1e-10
# chebyshev_fit: quadrature nodes of the series and points of the error grid
_CHEB_QUAD_NODES = 2048
_CHEB_ERROR_GRID = 1000
# how far below zero, relative to max(1, max |r(lambda)|), a kernel may
# reach on the spectrum
_KERNEL_NEGATIVE_TOL = 1e-12


class EigensolverError(RuntimeError):
    """Raised when the Laplacian eigendecomposition fails or is inaccurate."""


def is_symmetric(matrix: np.ndarray) -> bool:
    """Whether a square matrix equals its transpose to 1e-12 relative to
    max(1, max |entry|): the one symmetry rule of adjacencies, edge weights
    and regressor covariances, which are then stored as (X + X^T) / 2.
    Every caller refuses non-finite entries first; an infinite entry makes
    X - X^T nan, and the test fails."""
    if not matrix.size:
        return True
    scale = float(np.max(np.abs(matrix)))
    return bool(np.max(np.abs(matrix - matrix.T))
                <= _SYM_ATOL * max(scale, 1.0))


def readonly_setstate(obj, state: dict) -> None:
    """Unpickle a frozen class from its state: numpy's pickling drops the
    read-only flag __post_init__ set, so set it again on every array of the
    state, a cached property's too."""
    for value in state.values():
        if isinstance(value, np.ndarray):
            value.flags.writeable = False
    obj.__dict__.update(state)


# ---------------------------------------------------------------------------
# Graph
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Graph:
    """Undirected weighted graph on agents 0..N-1.

    The adjacency matrix holds the regularization weights c_{kl} >= 0 with
    c_{kl} = c_{lk} and zero diagonal. Neighbor lists exclude the agent
    itself; combination rules that need self-inclusive neighborhoods add the
    agent back explicitly.
    """

    adjacency: np.ndarray

    __setstate__ = readonly_setstate

    def __getstate__(self):
        # the neighbor lists are views of one array, which a pickle would
        # copy one by one: rebuilt on first read instead
        return {k: v for k, v in vars(self).items() if k != "neighbor_lists"}

    def __post_init__(self):
        adj = np.array(self.adjacency, dtype=float)
        if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
            raise ValueError("adjacency must be a square matrix")
        if not np.all(np.isfinite(adj)):
            raise ValueError("adjacency entries must be finite")
        if not is_symmetric(adj):
            raise ValueError("adjacency must be symmetric")
        # finite entries may still symmetrize, or sum to a degree, past the
        # largest float; with every weight nonnegative, a finite degree
        # means a finite row
        with np.errstate(over="ignore", invalid="ignore"):
            adj = 0.5 * (adj + adj.T)
            overflow = ~np.isfinite(adj.sum(axis=1))
        if np.any(np.diag(adj) != 0.0):
            raise ValueError("adjacency diagonal must be zero (no self-loops)")
        if np.any(adj < 0.0):
            raise ValueError("edge weights must be nonnegative")
        if overflow.any():
            raise ValueError(f"edge weights overflow: the weighted degree of "
                             f"agent {int(np.argmax(overflow))} is not finite")
        adj.flags.writeable = False
        object.__setattr__(self, "adjacency", adj)

    @property
    def n_agents(self) -> int:
        return self.adjacency.shape[0]

    @cached_property
    def neighbor_lists(self) -> tuple[np.ndarray, ...]:
        """Indices of neighbors of each agent (self excluded), ascending:
        one read-only view per agent into the column indices of one
        np.nonzero of the adjacency."""
        rows, cols = np.nonzero(self.adjacency)
        cols.flags.writeable = False
        ends = np.cumsum(np.bincount(rows, minlength=self.n_agents)).tolist()
        return tuple(cols[start:end] for start, end in zip([0] + ends, ends))

    def neighbors(self, k: int) -> np.ndarray:
        return self.neighbor_lists[k]

    @cached_property
    def weighted_degrees(self) -> np.ndarray:
        deg = self.adjacency.sum(axis=1)
        deg.flags.writeable = False
        return deg

    @cached_property
    def is_connected(self) -> bool:
        return _connected(self.neighbor_lists)

    @cached_property
    def spectrum(self) -> Spectrum:
        return build_laplacian(self)

    @classmethod
    def from_edges(cls, n: int, edges: Sequence[Sequence]) -> "Graph":
        """Build a graph from an edge list [[k, l, weight], ...].

        n must be a positive integer and the agents k, l integers: 6.5 or
        0.5 is refused, not truncated. Each undirected edge appears once;
        duplicates (in either orientation) are rejected.
        """
        try:
            n = operator.index(n)
        except TypeError:
            raise ValueError(f"n must be an integer, got {n!r}") from None
        if n < 1:
            raise ValueError(f"n must be at least 1, got {n}")
        if isinstance(edges, (str, Mapping)) or not isinstance(edges, Iterable):
            raise ValueError(f"edges must be a list of [k, l, weight], "
                             f"got {edges!r}")
        adj = np.zeros((n, n))
        for edge in edges:
            try:
                k, l, c = edge
                k, l, c = operator.index(k), operator.index(l), float(c)
            except (TypeError, ValueError):
                raise ValueError(f"edge must be [k, l, weight] with integer "
                                 f"agents k and l, got {edge!r}") from None
            if not (0 <= k < n and 0 <= l < n):
                raise ValueError(f"edge ({k},{l}) out of range for n={n}")
            if k == l:
                raise ValueError(f"self-loop on agent {k} not allowed")
            if c <= 0.0:
                raise ValueError(f"edge ({k},{l}) must have positive weight")
            if adj[k, l] != 0.0:
                raise ValueError(f"duplicate edge ({k},{l})")
            adj[k, l] = c
            adj[l, k] = c
        return cls(adj)

    def to_json_dict(self) -> dict:
        """{"n", "edges"}: each edge once as [k, l, weight] with k < l,
        in row-major order."""
        rows, cols = np.nonzero(np.triu(self.adjacency, 1))
        weights = self.adjacency[rows, cols]
        return {"n": self.n_agents,
                "edges": [list(edge) for edge in zip(
                    rows.tolist(), cols.tolist(), weights.tolist())]}

    @classmethod
    def from_json_dict(cls, doc: dict) -> "Graph":
        try:
            n = doc["n"]
            edges = doc["edges"]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"graph document must have 'n' and 'edges': {exc}")
        return cls.from_edges(n, edges)


def save_graph(graph: Graph, path) -> None:
    with open(path, "w") as fh:
        json.dump(graph.to_json_dict(), fh, indent=1)
        fh.write("\n")


def load_graph(path) -> Graph:
    with open(path) as fh:
        return Graph.from_json_dict(json.load(fh))


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

def _edge_weight(weight: float) -> float:
    """The one weight of every edge of a generated graph: positive and
    finite."""
    weight = float(weight)
    if not (0.0 < weight < np.inf):
        raise ValueError(f"edge weight must be positive and finite, "
                         f"got {weight!r}")
    return weight


def ring_graph(n: int, weight: float = 1.0) -> Graph:
    """Cycle on n agents with uniform edge weight."""
    if n < 3:
        raise ValueError("ring needs at least 3 agents")
    weight = _edge_weight(weight)
    k = np.arange(n)
    adj = np.zeros((n, n))
    adj[k, (k + 1) % n] = adj[(k + 1) % n, k] = weight
    return Graph(adj)


def star_graph(n: int, weight: float = 1.0) -> Graph:
    """Star on n agents; agent 0 is the hub."""
    if n < 2:
        raise ValueError("star needs at least 2 agents")
    weight = _edge_weight(weight)
    adj = np.zeros((n, n))
    adj[0, 1:] = adj[1:, 0] = weight
    return Graph(adj)


def complete_graph(n: int, weight: float = 1.0) -> Graph:
    if n < 2:
        raise ValueError("complete graph needs at least 2 agents")
    adj = np.full((n, n), _edge_weight(weight))
    np.fill_diagonal(adj, 0.0)
    return Graph(adj)


def random_geometric_graph(
    n: int,
    radius: float,
    rng: np.random.Generator,
    kernel_width: float | None = None,
    require_connected: bool = True,
    max_tries: int = 100,
) -> Graph:
    """Random geometric graph on the unit square.

    Agents at distance d <= radius are linked with Gaussian-kernel weight
    exp(-d^2 / (2 * kernel_width^2)). kernel_width defaults to radius / 2.

    With require_connected the positions are redrawn (from the same stream)
    until the graph is connected; gives up after max_tries draws.
    """
    if not radius > 0.0:
        raise ValueError("radius must be positive")
    width = radius / 2.0 if kernel_width is None else float(kernel_width)
    if not width > 0.0:
        raise ValueError("kernel_width must be positive")
    for _ in range(max_tries):
        pos = rng.random((n, 2))
        diff = pos[:, None, :] - pos[None, :, :]
        dist = np.sqrt(np.sum(diff * diff, axis=-1))
        adj = np.where(
            (dist <= radius) & ~np.eye(n, dtype=bool),
            np.exp(-(dist * dist) / (2.0 * width * width)),
            0.0,
        )
        graph = Graph(adj)
        if not require_connected or graph.is_connected:
            return graph
    raise ValueError(
        f"could not draw a connected geometric graph in {max_tries} tries "
        f"(n={n}, radius={radius})"
    )


# ---------------------------------------------------------------------------
# Laplacian spectrum and graph Fourier transform
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Spectrum:
    """Eigendecomposition L = V diag(eigenvalues) V^T of a graph Laplacian.

    Eigenvalues are ascending. Each eigenvector is sign-normalized so that
    its largest-magnitude entry (first index on ties) is positive, which
    makes the decomposition reproducible across runs.
    """

    laplacian: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray  # columns are eigenvectors

    __setstate__ = readonly_setstate

    def __post_init__(self):
        for name in ("laplacian", "eigenvalues", "eigenvectors"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr = arr.copy() if arr.flags.writeable else arr
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def n_agents(self) -> int:
        return self.eigenvalues.shape[0]

    @property
    def lam_max(self) -> float:
        return float(self.eigenvalues[-1])


def _probe_block(n: int) -> np.ndarray:
    """A fixed (n, 4) block of values in [-0.5, 0.5): an integer mix of each
    entry's flat position, the same on every call and with no random
    stream."""
    h = np.arange(4 * n, dtype=np.uint64).reshape(n, 4) * np.uint64(2654435761)
    h %= np.uint64(2**32)
    h ^= h >> np.uint64(15)
    h *= np.uint64(2246822519)
    h %= np.uint64(2**32)
    h ^= h >> np.uint64(13)
    return h / 2.0**32 - 0.5


def build_laplacian(graph: Graph) -> Spectrum:
    """Form L = diag(C 1) - C and eigendecompose it.

    Raises EigensolverError if the solver fails or the reconstruction
    residual on a fixed probe block P (_probe_block, N x 4),
    ||L P - V (lam o (V^T P))||_F, exceeds 1e-10 * ||L||_F * ||P||_F. That
    residual is (L - V diag(lam) V^T) P, at most ||L - V diag(lam) V^T||_F
    * ||P||_F, so every decomposition the full reconstruction check
    accepts passes, at O(N^2) instead of that check's O(N^3).
    """
    adj = graph.adjacency
    lap = np.diag(graph.weighted_degrees) - adj
    try:
        lam, vecs = np.linalg.eigh(lap)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(f"Laplacian eigendecomposition failed: {exc}")
    # Fixed sign convention: largest-|entry| of each eigenvector positive.
    idx = np.argmax(np.abs(vecs), axis=0)
    signs = np.sign(vecs[idx, np.arange(vecs.shape[1])])
    signs[signs == 0.0] = 1.0
    vecs = vecs * signs
    probe = _probe_block(lap.shape[0])
    residual = np.linalg.norm(
        lap @ probe - vecs @ (lam[:, None] * (vecs.T @ probe)))
    scale = np.linalg.norm(lap) * np.linalg.norm(probe)
    if residual > EIG_RESIDUAL_RTOL * max(scale, 1e-300):
        raise EigensolverError(
            f"eigendecomposition residual {residual:.3e} on a probe block "
            f"exceeds {EIG_RESIDUAL_RTOL:.0e} * ||L||_F * ||P||_F = "
            f"{EIG_RESIDUAL_RTOL * scale:.3e}"
        )
    return Spectrum(laplacian=lap, eigenvalues=lam, eigenvectors=vecs)


def _field_matrix(field, n_agents: int) -> np.ndarray:
    arr = np.asarray(field, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2 or arr.shape[0] != n_agents:
        raise ValueError(
            f"field must be (N, M) with N={n_agents}, got shape {arr.shape}"
        )
    return arr


def smoothness(field, spectrum: Spectrum) -> float:
    """Quadratic smoothness of a network field.

    Parameters
    ----------
    field : array_like, shape (N, M) or (N,)
        One length-M block per agent; all blocks must have equal length.
    spectrum : Spectrum

    Returns
    -------
    float
        W^T (L x I_M) W. Equals the weighted sum of squared neighbor
        differences and the eigenvalue-weighted sum of squared spectral
        coefficients.
    """
    mat = _field_matrix(field, spectrum.n_agents)
    return float(np.einsum("km,kl,lm->", mat, spectrum.laplacian, mat))


def graph_fourier(field, spectrum: Spectrum) -> np.ndarray:
    """Spectral coefficients of a field: row m is (v_m^T x I_M) W."""
    mat = _field_matrix(field, spectrum.n_agents)
    return spectrum.eigenvectors.T @ mat


def inverse_graph_fourier(coeffs, spectrum: Spectrum) -> np.ndarray:
    mat = _field_matrix(coeffs, spectrum.n_agents)
    return spectrum.eigenvectors @ mat


# ---------------------------------------------------------------------------
# Combination matrices
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class CombinationMatrix:
    """Combination weights, either scalar (N x N) or block (M_t x M_t).

    block_sizes is None for scalar weights. For block weights it gives the
    per-agent block dimensions, summing to M_t.
    """

    matrix: np.ndarray
    block_sizes: tuple[int, ...] | None = None

    __setstate__ = readonly_setstate

    def __post_init__(self):
        mat = np.array(self.matrix, dtype=float)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError("combination matrix must be square")
        if not np.all(np.isfinite(mat)):
            raise ValueError("combination weights must be finite")
        if self.block_sizes is not None:
            sizes = tuple(int(s) for s in self.block_sizes)
            if any(s <= 0 for s in sizes):
                raise ValueError("block sizes must be positive")
            if sum(sizes) != mat.shape[0]:
                raise ValueError(
                    f"block sizes sum to {sum(sizes)}, matrix is {mat.shape[0]}"
                )
            object.__setattr__(self, "block_sizes", sizes)
        mat.flags.writeable = False
        object.__setattr__(self, "matrix", mat)

    @property
    def is_scalar(self) -> bool:
        return self.block_sizes is None

    def block_matrix(self, block_sizes: Sequence[int]) -> np.ndarray:
        """Expand to the full M_t x M_t block form.

        Scalar weights expand as A x I_M, which requires a uniform block
        size. Block weights are returned as-is after a size check.
        """
        sizes = tuple(int(s) for s in block_sizes)
        if not self.is_scalar:
            if sizes != self.block_sizes:
                raise ValueError("block sizes do not match combination matrix")
            return self.matrix
        if len(sizes) != self.matrix.shape[0]:
            raise ValueError("block sizes do not match number of agents")
        if len(set(sizes)) != 1:
            raise ValueError("scalar weights need a uniform block size")
        return np.kron(self.matrix, np.eye(sizes[0]))


def _connected(neighbors: Sequence[Sequence[int]]) -> bool:
    """Whether every node is reachable from node 0 along the adjacency lists."""
    if not neighbors:
        return True
    seen = [False] * len(neighbors)
    seen[0] = True
    stack = [0]
    while stack:
        for l in neighbors[stack.pop()]:
            if not seen[l]:
                seen[l] = True
                stack.append(l)
    return all(seen)


def metropolis_block(graph: Graph, members: Sequence[int], name: str) -> np.ndarray:
    """Off-diagonal Metropolis weights among a group of agents.

    For members k != l (ascending agent indices) adjacent in the graph, entry
    (i, j) of the returned |members| x |members| block, i and j their
    positions in members, is 1 / max(n_k, n_l), where n_k counts k and its
    neighbors inside the group. The diagonal is left 0: the caller places the
    block and sets each diagonal entry to one minus the sum of its whole row,
    so that a row sums over the same width whether or not the block fills
    it. Raises ValueError "<name> is not connected" when the members are not
    connected among themselves.
    """
    members = [int(k) for k in members]
    position = {k: i for i, k in enumerate(members)}
    inside = [[position[l] for l in graph.neighbor_lists[k].tolist() if l in position]
              for k in members]
    if not _connected(inside):
        raise ValueError(f"{name} is not connected")
    counts = [len(nbrs) + 1 for nbrs in inside]
    block = np.zeros((len(members), len(members)))
    for i, nbrs in enumerate(inside):
        for j in nbrs:
            block[i, j] = 1.0 / max(counts[i], counts[j])
    return block


def metropolis_weights(graph: Graph) -> CombinationMatrix:
    """Metropolis combination rule from self-inclusive neighborhood sizes.

    a_{kl} = 1 / max(n_k, n_l) for neighbors l != k, with n_k = |N_k| + 1,
    and a_{kk} absorbing the remainder. The result is symmetric and doubly
    stochastic. Requires a connected graph.
    """
    weights = metropolis_block(graph, range(graph.n_agents), "the graph")
    np.fill_diagonal(weights, 1.0 - weights.sum(axis=1))
    return CombinationMatrix(weights)


def laplacian_weights(graph: Graph) -> CombinationMatrix:
    """Laplacian combination rule A = I - L / max_k L_kk.

    The scale 1 / max_k L_kk keeps every entry nonnegative; a graph without
    edges (one agent) gets the identity. Requires a connected graph.
    """
    if not graph.is_connected:
        raise ValueError("laplacian weights require a connected graph")
    deg = graph.weighted_degrees
    scale = 1.0 / float(deg.max()) if deg.any() else 0.0
    weights = scale * graph.adjacency
    np.fill_diagonal(weights, 1.0 - scale * deg)
    return CombinationMatrix(weights)


# ---------------------------------------------------------------------------
# Spectral kernels
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class SpectralKernel:
    """Spectral weighting r(lambda) >= 0, polynomial or fitted.

    Polynomial kernels store ascending monomial coefficients
    (r(lambda) = sum_s coefficients[s] * lambda^s). Kernels built from a
    function via chebyshev_fit keep both the fitted coefficients (which is
    what a distributed implementation evaluates) and the fit error.
    """

    coefficients: np.ndarray
    fit_error: float = 0.0

    __setstate__ = readonly_setstate

    def __post_init__(self):
        coeffs = np.array(self.coefficients, dtype=float).ravel()
        if coeffs.size == 0:
            raise ValueError("kernel needs at least one coefficient")
        if not np.all(np.isfinite(coeffs)):
            raise ValueError("kernel coefficients must be finite")
        coeffs.flags.writeable = False
        object.__setattr__(self, "coefficients", coeffs)

    @classmethod
    def polynomial(cls, coefficients, spectrum: Spectrum | None = None) -> "SpectralKernel":
        kernel = cls(np.asarray(coefficients, dtype=float))
        if spectrum is not None:
            kernel.validate_on(spectrum)
        return kernel

    @classmethod
    def from_function(
        cls,
        r: Callable[[np.ndarray], np.ndarray],
        spectrum: Spectrum,
        degree: int = 5,
    ) -> "SpectralKernel":
        """Polynomial surrogate of r on [0, lam_max] via Chebyshev truncation."""
        coeffs, err = chebyshev_fit(r, degree, spectrum.lam_max)
        kernel = cls(coeffs, fit_error=err)
        kernel.validate_on(spectrum)
        return kernel

    def __call__(self, lam) -> np.ndarray:
        return _poly.polyval(np.asarray(lam, dtype=float), self.coefficients)

    def validate_on(self, spectrum: Spectrum) -> np.ndarray:
        """r(lambda) on the spectrum; a ValueError where it is negative."""
        vals = self(spectrum.eigenvalues)
        low = float(np.min(vals))
        if low < -_KERNEL_NEGATIVE_TOL * max(1.0, float(np.max(np.abs(vals)))):
            raise ValueError(
                f"kernel is negative on the spectrum (min r(lambda) = {low:.3e})"
            )
        return vals


def chebyshev_fit(
    r: Callable[[np.ndarray], np.ndarray],
    degree: int,
    lam_max: float,
) -> tuple[np.ndarray, float]:
    """Truncated shifted-Chebyshev expansion of r on [0, lam_max].

    Series coefficients are computed by Chebyshev-Gauss quadrature with
    _CHEB_QUAD_NODES nodes, truncated at the given degree, then converted
    to ascending monomial coefficients in lambda. Returns (coefficients,
    max_error) where max_error is the max absolute fit error on a uniform
    grid of _CHEB_ERROR_GRID points.
    """
    n_quad = _CHEB_QUAD_NODES
    if degree < 0:
        raise ValueError("degree must be >= 0")
    if lam_max <= 0.0:
        raise ValueError("lam_max must be positive")
    theta = (np.arange(n_quad) + 0.5) * np.pi / n_quad
    lam_nodes = 0.5 * lam_max * (np.cos(theta) + 1.0)
    vals = np.asarray(r(lam_nodes), dtype=float)
    j = np.arange(degree + 1)
    series = (2.0 / n_quad) * np.cos(np.outer(j, theta)) @ vals
    series[0] *= 0.5
    poly = _cheb.Chebyshev(series, domain=[0.0, lam_max]).convert(
        kind=_poly.Polynomial
    )
    coeffs = np.zeros(degree + 1)
    coeffs[: poly.coef.size] = poly.coef
    grid = np.linspace(0.0, lam_max, _CHEB_ERROR_GRID)
    err = float(np.max(np.abs(np.asarray(r(grid), dtype=float)
                              - _poly.polyval(grid, coeffs))))
    return coeffs, err


def apply_spectral_kernel(kernel: SpectralKernel, spectrum: Spectrum) -> np.ndarray:
    """Dense r(L) = V diag(r(lambda)) V^T. Kernel must be >= 0 on the spectrum."""
    vals = kernel.validate_on(spectrum)
    vecs = spectrum.eigenvectors
    return (vecs * vals) @ vecs.T


# ---------------------------------------------------------------------------
# Subspaces and projections
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Subspace:
    """Full-column-rank basis U (M_t x P) of a constraint subspace."""

    basis: np.ndarray
    block_sizes: tuple[int, ...]

    __setstate__ = readonly_setstate

    def __post_init__(self):
        basis = np.array(self.basis, dtype=float)
        if basis.ndim != 2:
            raise ValueError("basis must be a 2-D array")
        sizes = tuple(int(s) for s in self.block_sizes)
        if any(s <= 0 for s in sizes):
            raise ValueError("block sizes must be positive")
        if sum(sizes) != basis.shape[0]:
            raise ValueError("block sizes must sum to the basis row count")
        singular = np.linalg.svd(basis, compute_uv=False)
        if singular.size == 0 or singular[-1] <= RANK_RTOL * singular[0]:
            raise ValueError("basis is rank deficient")
        basis.flags.writeable = False
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "block_sizes", sizes)

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    @property
    def n_agents(self) -> int:
        return len(self.block_sizes)

    @cached_property
    def semi_orthogonal(self) -> bool:
        """Whether U^T U = I, to 1e-10."""
        return bool(np.allclose(self.basis.T @ self.basis, np.eye(self.dim),
                                rtol=0.0, atol=1e-10))

    @cached_property
    def agent_basis(self) -> np.ndarray | None:
        """U_N where the basis is exactly U_N x I_M with every block of size
        M (as consensus_subspace and cluster_subspace build it), else None.
        Column q*M of U_N x I_M holds [u_q]_k at row k*M."""
        m = self.block_sizes[0]
        agent = self.basis[::m, ::m]
        if (len(set(self.block_sizes)) != 1
                or not np.array_equal(self.basis, np.kron(agent, np.eye(m)))):
            return None
        return agent


def consensus_subspace(n_agents: int, m: int) -> Subspace:
    """Span of (1/sqrt(N)) (1_N x I_M): all agents share one length-M task."""
    if n_agents < 1 or m < 1:
        raise ValueError("n_agents and m must be positive")
    basis = np.kron(np.ones((n_agents, 1)) / np.sqrt(n_agents), np.eye(m))
    return Subspace(basis, block_sizes=(m,) * n_agents)


def cluster_subspace(partition: "ClusterPartition", m: int) -> Subspace:
    """Block-diagonal consensus basis: one shared task per cluster."""
    if m < 1:
        raise ValueError("m must be positive")
    n = partition.n_agents
    basis = np.zeros((n * m, partition.n_clusters * m))
    for q, (start, stop) in enumerate(partition.slices):
        size = stop - start
        block = np.kron(np.ones((size, 1)) / np.sqrt(size), np.eye(m))
        basis[start * m : stop * m, q * m : (q + 1) * m] = block
    return Subspace(basis, block_sizes=(m,) * n)


def projector(subspace: Subspace) -> np.ndarray:
    """Orthogonal projector U (U^T U)^{-1} U^T onto the subspace."""
    basis = subspace.basis
    gram = basis.T @ basis
    proj = basis @ np.linalg.solve(gram, basis.T)
    return 0.5 * (proj + proj.T)


@dataclass(frozen=True)
class ClusterPartition:
    """Partition of agents 0..N-1 into contiguous clusters of given sizes."""

    sizes: tuple[int, ...]

    def __post_init__(self):
        sizes = tuple(int(s) for s in self.sizes)
        if not sizes or any(s < 1 for s in sizes):
            raise ValueError("cluster sizes must be positive")
        object.__setattr__(self, "sizes", sizes)

    @property
    def n_clusters(self) -> int:
        return len(self.sizes)

    @property
    def n_agents(self) -> int:
        return sum(self.sizes)

    @cached_property
    def slices(self) -> tuple[tuple[int, int], ...]:
        bounds = np.concatenate([[0], np.cumsum(self.sizes)])
        return tuple((int(bounds[q]), int(bounds[q + 1]))
                     for q in range(self.n_clusters))

    @cached_property
    def assignment(self) -> np.ndarray:
        out = np.repeat(np.arange(self.n_clusters), self.sizes)
        out.flags.writeable = False
        return out


# ---------------------------------------------------------------------------
# Feasibility of combination matrices
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class FeasibilityReport:
    """Outcome of the combination-matrix feasibility checks.

    right_fixed (A U = U), left_fixed (U^T A = U^T) and spectral
    (rho(A - P_U) < 1) together are what A^i -> P_U needs; sparsity says
    that A respects the graph, so each agent mixes only with neighbors.
    passed means all four hold.
    """

    right_fixed: bool
    left_fixed: bool
    spectral: bool
    sparsity: bool
    rho: float
    flags = ("right_fixed", "left_fixed", "spectral", "sparsity")

    @property
    def passed(self) -> bool:
        return not self.failed_constraints()

    def failed_constraints(self) -> list[str]:
        return [name for name in self.flags if not getattr(self, name)]


def check_feasibility(
    combination: CombinationMatrix,
    subspace: Subspace,
    graph: Graph,
) -> FeasibilityReport:
    """Verify that combination weights realize a projection-type social step.

    Checks A U = U, U^T A = U^T, rho(A - P_U) < 1 and that nonzero blocks
    respect the graph sparsity (A_{kl} = 0 for l not in N_k u {k}); entries
    count as zero up to _FEASIBILITY_TOL relative to max(1, max |a_kl|),
    and rho must stay SPECTRAL_RADIUS_SLACK below 1, since rho = 1 in exact
    arithmetic may round below it. This is the one place rho(A - P_U) is
    computed. A matrix that fixes the subspace on both sides has
    (A - P_U)^i = A^i - P_U, so A^i -> P_U exactly when rho(A - P_U) < 1
    (Nassif, Vlaski & Sayed, IEEE TSP 2020): the four flags decide
    feasibility, and no matrix power is taken.

    Scalar weights A with a basis that is exactly U_N x I_M (its
    agent_basis, as consensus_subspace and cluster_subspace build it) are
    checked on the N x N pair (A, U_N) with unit blocks, never on A x I_M:
    (A x I) - P_N x I = (A - P_N) x I has the same eigenvalues as A - P_N,
    and block (k, l) of A x I is a_kl I_M. Any other pair is checked on
    its (M_t x M_t) block form.

    rho comes from one eigendecomposition of A - P_U, at any size:
    eigvalsh when A fixes the subspace on both sides and the checked
    matrix equals its transpose exactly (the Metropolis rules), eigvals
    otherwise (1.0-1.2 s at 1001 rows on one OpenBLAS thread of a 2-vCPU
    x86_64 VM).
    """
    tol = _FEASIBILITY_TOL
    sizes = subspace.block_sizes
    if (combination.is_scalar and combination.matrix.shape[0] == len(sizes)
            and subspace.agent_basis is not None):
        matrix = combination.matrix
        subspace = Subspace(subspace.agent_basis, (1,) * len(sizes))
    else:
        matrix = combination.block_matrix(sizes)
    basis = subspace.basis
    scale = max(1.0, float(np.max(np.abs(matrix))))

    right = bool(np.max(np.abs(matrix @ basis - basis)) <= tol * scale)
    left = bool(np.max(np.abs(basis.T @ matrix - basis.T)) <= tol * scale)

    gap = matrix - projector(subspace)
    if right and left and np.array_equal(matrix, matrix.T):
        rho = float(np.max(np.abs(np.linalg.eigvalsh(gap))))
    else:
        rho = float(np.max(np.abs(np.linalg.eigvals(gap))))

    # largest |entry| of every (k, l) block against the allowed pattern
    starts = np.concatenate([[0], np.cumsum(subspace.block_sizes)[:-1]])
    peaks = np.maximum.reduceat(np.abs(matrix), starts, axis=0)
    peaks = np.maximum.reduceat(peaks, starts, axis=1)
    allowed = (graph.adjacency != 0) | np.eye(len(starts), dtype=bool)
    sparsity = not bool(np.any(peaks[~allowed] > tol * scale))

    return FeasibilityReport(
        right_fixed=right,
        left_fixed=left,
        spectral=rho < 1.0 - SPECTRAL_RADIUS_SLACK,
        sparsity=sparsity,
        rho=rho,
    )
