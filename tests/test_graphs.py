"""Graph structure, spectrum, kernels, subspaces, and feasibility checks."""

import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from adaptnets.config import parse_config, resolve
from adaptnets import graphs as graphs_mod
from adaptnets.graphs import (
    EIG_RESIDUAL_RTOL,
    SPECTRAL_RADIUS_SLACK,
    EigensolverError,
    CombinationMatrix,
    ClusterPartition,
    FeasibilityReport,
    Graph,
    SpectralKernel,
    apply_spectral_kernel,
    build_laplacian,
    chebyshev_fit,
    check_feasibility,
    cluster_subspace,
    complete_graph,
    consensus_subspace,
    graph_fourier,
    inverse_graph_fourier,
    laplacian_weights,
    load_graph,
    metropolis_weights,
    projector,
    random_geometric_graph,
    ring_graph,
    save_graph,
    smoothness,
    star_graph,
    Subspace,
)
from adaptnets.harness import run_experiment
from adaptnets.strategies import (
    EdgeRegularizer,
    StrategyConfig,
    cluster_metropolis,
)
from adaptnets.streaming import StreamModel, TaskField, draw_horizon
from adaptnets.theory import (
    TheoryInputs,
    bias_smoothness,
    filter_bound,
    msd_noncooperative,
    variance_smoothness,
)

EIG_RTOL = 1e-10
SMOOTH_TOL = 1e-9
EXACT_TOL = 1e-12


def path2():
    return Graph.from_edges(2, [[0, 1, 1.0]])


# ---------------------------------------------------------------------------
# Graph construction
# ---------------------------------------------------------------------------

def test_from_edges_rejects_self_loops():
    with pytest.raises(ValueError):
        Graph.from_edges(3, [[0, 0, 1.0]])


def test_from_edges_rejects_duplicates():
    with pytest.raises(ValueError):
        Graph.from_edges(3, [[0, 1, 1.0], [1, 0, 2.0]])


def test_from_edges_rejects_nonpositive_weights():
    with pytest.raises(ValueError):
        Graph.from_edges(3, [[0, 1, 0.0]])
    with pytest.raises(ValueError):
        Graph.from_edges(3, [[0, 1, -2.0]])


def test_adjacency_must_be_symmetric():
    with pytest.raises(ValueError):
        Graph(np.array([[0.0, 1.0], [0.5, 0.0]]))


def test_edge_weights_that_overflow_are_refused():
    # every weight is finite, yet 1e308 + 1e308 symmetrizes to inf, and
    # three weights of 6e307 sum to an infinite degree
    with pytest.raises(ValueError, match="degree of agent 0 is not finite"):
        ring_graph(4, weight=1e308)
    with pytest.raises(ValueError, match="degree of agent 0 is not finite"):
        complete_graph(4, weight=6e307)
    with pytest.raises(ValueError, match="degree of agent 2 is not finite"):
        Graph.from_edges(4, [[0, 1, 1.0], [2, 0, 6e307], [2, 1, 6e307],
                             [2, 3, 6e307]])
    # degrees of 1.5e308 are finite: the weights are kept bit for bit
    g = complete_graph(4, weight=5e307)
    assert np.array_equal(g.adjacency, 5e307 * (1.0 - np.eye(4)))
    assert np.all(g.weighted_degrees == 3 * 5e307)


@pytest.mark.parametrize("generator", [ring_graph, star_graph,
                                       complete_graph])
@pytest.mark.parametrize("weight", [0, 0.0, -1.0, np.inf, -np.inf, np.nan])
def test_generated_graphs_refuse_a_weight_not_positive_and_finite(generator,
                                                                  weight):
    # one rule for ring, star and complete: checked before any adjacency is
    # built, so an infinite weight is refused without a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^edge weight must be positive "
                                             "and finite, got "):
            generator(4, weight=weight)


def test_neighbors_exclude_self():
    g = ring_graph(5)
    for k in range(5):
        assert k not in g.neighbors(k)
        assert len(g.neighbors(k)) == 2


def test_star_hub_degree():
    g = star_graph(6)
    assert len(g.neighbors(0)) == 5
    assert all(len(g.neighbors(k)) == 1 for k in range(1, 6))


def test_complete_graph_connected():
    g = complete_graph(4, weight=0.5)
    assert g.is_connected
    assert np.allclose(g.weighted_degrees, 1.5)


def test_disconnected_detected():
    g = Graph.from_edges(4, [[0, 1, 1.0], [2, 3, 1.0]])
    assert not g.is_connected


def test_geometric_graph_weights_and_connectivity():
    rng = np.random.default_rng(42)
    g = random_geometric_graph(30, 0.4, rng)
    assert g.is_connected
    # Gaussian kernel of the distance, so weights live in (0, 1).
    nz = g.adjacency[g.adjacency > 0]
    assert nz.size > 0
    assert np.all(nz < 1.0)
    assert np.all(nz >= np.exp(-0.4 ** 2 / (2 * 0.2 ** 2)) - 1e-12)


def test_geometric_graph_deterministic_in_stream():
    a = random_geometric_graph(15, 0.5, np.random.default_rng(7))
    b = random_geometric_graph(15, 0.5, np.random.default_rng(7))
    assert np.array_equal(a.adjacency, b.adjacency)


def test_graph_json_roundtrip(tmp_path):
    g = random_geometric_graph(12, 0.5, np.random.default_rng(3))
    path = tmp_path / "graph.json"
    save_graph(g, path)
    loaded = load_graph(path)
    assert np.allclose(loaded.adjacency, g.adjacency, atol=0, rtol=0)
    doc = json.loads(path.read_text())
    assert set(doc) == {"n", "edges"}


def _edges_by_double_loop(graph):
    """The edge list as a walk over the upper triangle writes it."""
    edges = []
    n = graph.n_agents
    for k in range(n):
        for l in range(k + 1, n):
            c = graph.adjacency[k, l]
            if c != 0.0:
                edges.append([k, l, float(c)])
    return edges


@pytest.mark.parametrize("graph", [
    ring_graph(7, 0.5), star_graph(6),
    random_geometric_graph(40, 0.3, np.random.default_rng(2))],
    ids=["ring", "star", "geometric"])
def test_graph_json_lists_each_edge_once_in_row_major_order(graph):
    doc = graph.to_json_dict()
    edges = _edges_by_double_loop(graph)
    assert doc == {"n": graph.n_agents, "edges": edges}
    assert all(type(k) is int and type(l) is int and type(c) is float
               for k, l, c in doc["edges"])
    assert json.dumps(doc) == json.dumps({"n": graph.n_agents,
                                          "edges": edges})


# ---------------------------------------------------------------------------
# Spectrum
# ---------------------------------------------------------------------------

def test_path2_spectrum():
    """Two agents, one unit edge: eigenvalues {0, 2}, known eigenvectors."""
    spec = build_laplacian(path2())
    assert np.allclose(spec.eigenvalues, [0.0, 2.0], atol=1e-14)
    s = 1.0 / np.sqrt(2.0)
    assert np.allclose(spec.eigenvectors[:, 0], [s, s], atol=1e-14)
    assert np.allclose(spec.eigenvectors[:, 1], [s, -s], atol=1e-14)


def test_triangle_spectrum():
    spec = build_laplacian(complete_graph(3))
    assert np.allclose(spec.eigenvalues, [0.0, 3.0, 3.0], atol=1e-12)


def test_spectrum_residual_small():
    for seed in range(5):
        g = random_geometric_graph(25, 0.4, np.random.default_rng(seed))
        spec = build_laplacian(g)
        residual = np.linalg.norm(
            spec.laplacian - (spec.eigenvectors * spec.eigenvalues)
            @ spec.eigenvectors.T
        )
        assert residual <= EIG_RTOL * np.linalg.norm(spec.laplacian)


def _full_residual(lap, lam, vecs):
    """The reconstruction check build_laplacian made before its probe block,
    kept as the oracle: ||L - V diag(lam) V^T||_F over EIG_RESIDUAL_RTOL
    * ||L||_F (accepted at <= 1)."""
    return (np.linalg.norm(lap - (vecs * lam) @ vecs.T)
            / (EIG_RESIDUAL_RTOL * np.linalg.norm(lap)))


def _probe_residual(lap, lam, vecs):
    """build_laplacian's probe check, as the same ratio."""
    probe = graphs_mod._probe_block(lap.shape[0])
    residual = np.linalg.norm(
        lap @ probe - vecs @ (lam[:, None] * (vecs.T @ probe)))
    return residual / (EIG_RESIDUAL_RTOL * np.linalg.norm(lap)
                       * np.linalg.norm(probe))


_RESIDUAL_GRAPHS = [
    lambda: ring_graph(6), lambda: ring_graph(201), lambda: star_graph(40),
    lambda: complete_graph(30),
    lambda: random_geometric_graph(60, 0.3, np.random.default_rng(5)),
    lambda: Graph.from_edges(3, [[0, 1, 1e6], [1, 2, 1e-6]]),
]


@pytest.mark.parametrize("make", _RESIDUAL_GRAPHS)
def test_probe_check_accepts_what_the_full_check_accepts(make):
    spec = build_laplacian(make())
    full = _full_residual(spec.laplacian, spec.eigenvalues, spec.eigenvectors)
    probe = _probe_residual(spec.laplacian, spec.eigenvalues, spec.eigenvectors)
    assert full <= 1.0 and probe <= 1.0
    # ||E P||_F <= ||E||_F ||P||_F, up to the rounding of the products
    assert probe <= full + 1e-3


@pytest.mark.parametrize("make", _RESIDUAL_GRAPHS)
@pytest.mark.parametrize("corrupt", ["eigenvalue", "swap"])
def test_a_corrupted_decomposition_is_refused_by_both_checks(
        monkeypatch, make, corrupt):
    # an eigenvalue moved by 1e-6 ||L||_F, or the eigenvectors of the
    # smallest and largest eigenvalue swapped
    eigh = np.linalg.eigh
    seen = []

    def corrupted(lap):
        lam, vecs = eigh(lap)
        if corrupt == "eigenvalue":
            lam = lam.copy()
            lam[len(lam) // 2] += 1e-6 * np.linalg.norm(lap)
        else:
            vecs = vecs[:, [len(lam) - 1, *range(1, len(lam) - 1), 0]]
        seen.append((lap, lam, vecs))
        return lam, vecs

    monkeypatch.setattr(graphs_mod.np.linalg, "eigh", corrupted)
    with pytest.raises(EigensolverError, match="probe block"):
        build_laplacian(make())
    lap, lam, vecs = seen[0]
    assert _full_residual(lap, lam, vecs) > 1.0
    assert _probe_residual(lap, lam, vecs) > 1.0


def test_eigenvectors_orthonormal():
    g = random_geometric_graph(20, 0.45, np.random.default_rng(11))
    spec = build_laplacian(g)
    gram = spec.eigenvectors.T @ spec.eigenvectors
    assert np.max(np.abs(gram - np.eye(20))) < 1e-12


def test_sign_convention_reproducible():
    g = ring_graph(8)
    a = build_laplacian(g).eigenvectors
    b = build_laplacian(g).eigenvectors
    assert np.array_equal(a, b)
    # largest-magnitude entry of every eigenvector is positive
    idx = np.argmax(np.abs(a), axis=0)
    assert np.all(a[idx, np.arange(8)] > 0)


def test_connected_iff_single_zero_eigenvalue():
    g = Graph.from_edges(4, [[0, 1, 1.0], [2, 3, 1.0]])
    spec = build_laplacian(g)
    assert np.sum(spec.eigenvalues < 1e-10) == 2


# ---------------------------------------------------------------------------
# Smoothness and the graph Fourier transform
# ---------------------------------------------------------------------------

def test_smoothness_path2_unit():
    spec = build_laplacian(path2())
    assert smoothness(np.array([1.0, 0.0]), spec) == pytest.approx(1.0)


def test_smoothness_constant_field_zero():
    spec = build_laplacian(ring_graph(7))
    field = np.tile([2.0, -1.0], (7, 1))
    assert abs(smoothness(field, spec)) < 1e-12


def test_smoothness_three_ways():
    """Laplacian form == edge-difference sum == spectral sum."""
    rng = np.random.default_rng(5)
    g = random_geometric_graph(18, 0.5, rng)
    spec = build_laplacian(g)
    field = rng.standard_normal((18, 3))
    s_lap = smoothness(field, spec)
    s_edge = 0.0
    for k in range(18):
        for l in range(k + 1, 18):
            if g.adjacency[k, l] > 0:
                d = field[k] - field[l]
                s_edge += g.adjacency[k, l] * float(d @ d)
    coeffs = graph_fourier(field, spec)
    s_spec = float(np.sum(spec.eigenvalues
                          * np.einsum("mj,mj->m", coeffs, coeffs)))
    assert s_lap == pytest.approx(s_edge, rel=SMOOTH_TOL)
    assert s_lap == pytest.approx(s_spec, rel=SMOOTH_TOL)


def test_fourier_roundtrip_and_parseval():
    rng = np.random.default_rng(9)
    g = ring_graph(10)
    spec = build_laplacian(g)
    field = rng.standard_normal((10, 2))
    coeffs = graph_fourier(field, spec)
    back = inverse_graph_fourier(coeffs, spec)
    assert np.max(np.abs(back - field)) < EXACT_TOL
    assert np.linalg.norm(coeffs) == pytest.approx(np.linalg.norm(field),
                                                   rel=1e-12)


# ---------------------------------------------------------------------------
# Combination matrices
# ---------------------------------------------------------------------------

def test_metropolis_star4():
    """Hub row is uniform 1/4; leaves keep 3/4 self-weight."""
    a = metropolis_weights(star_graph(4)).matrix
    assert np.allclose(a[0], [0.25, 0.25, 0.25, 0.25])
    for k in range(1, 4):
        assert a[k, k] == pytest.approx(0.75)
        assert a[k, 0] == pytest.approx(0.25)


def test_metropolis_doubly_stochastic_symmetric():
    g = random_geometric_graph(20, 0.45, np.random.default_rng(2))
    a = metropolis_weights(g).matrix
    assert np.allclose(a.sum(axis=0), 1.0, atol=1e-12)
    assert np.allclose(a.sum(axis=1), 1.0, atol=1e-12)
    assert np.allclose(a, a.T, atol=0)
    assert np.all(a >= 0)
    off = ~np.eye(20, dtype=bool)
    assert np.all((a[off] == 0) | (g.adjacency[off] > 0))


def test_metropolis_requires_connected():
    g = Graph.from_edges(4, [[0, 1, 1.0], [2, 3, 1.0]])
    with pytest.raises(ValueError):
        metropolis_weights(g)


def test_laplacian_weights_default_scale():
    g = star_graph(5)
    a = laplacian_weights(g).matrix
    spec = build_laplacian(g)
    # A = I - L / max degree
    expected = np.eye(5) - spec.laplacian / 4.0
    assert np.allclose(a, expected, atol=1e-14)
    assert np.all(a >= 0)
    # one agent, no edges: the identity, as Metropolis gives, not a
    # division by zero
    one = Graph.from_edges(1, [])
    assert np.array_equal(laplacian_weights(one).matrix, np.eye(1))
    assert np.array_equal(metropolis_weights(one).matrix, np.eye(1))


def test_block_matrix_expands_scalar():
    a = metropolis_weights(ring_graph(4)).matrix
    combo = CombinationMatrix(a)
    block = combo.block_matrix([2, 2, 2, 2])
    assert block.shape == (8, 8)
    assert np.allclose(block, np.kron(a, np.eye(2)))


# ---------------------------------------------------------------------------
# Spectral kernels
# ---------------------------------------------------------------------------

def test_chebyshev_fit_identity_exact():
    coeffs, err = chebyshev_fit(lambda lam: lam, 1, 4.0)
    assert np.allclose(coeffs, [0.0, 1.0], atol=1e-12)
    assert err <= 1e-12


def test_chebyshev_fit_cubic_exact():
    coeffs, err = chebyshev_fit(lambda lam: lam ** 3, 3, 6.0)
    assert np.allclose(coeffs, [0.0, 0.0, 0.0, 1.0], atol=1e-10)
    assert err <= 1e-9


def test_kernel_from_function_heat():
    spec = build_laplacian(ring_graph(8))
    kernel = SpectralKernel.from_function(lambda lam: np.expm1(0.5 * lam),
                                          spec, degree=6)
    lam = spec.eigenvalues
    assert np.max(np.abs(kernel(lam) - np.expm1(0.5 * lam))) < 1e-4
    assert kernel.fit_error < 1e-4


def test_kernel_negative_on_spectrum_rejected():
    spec = build_laplacian(ring_graph(6))
    with pytest.raises(ValueError):
        SpectralKernel.polynomial([0.0, -1.0], spec)


def test_apply_spectral_kernel_matches_matrix_polynomial():
    g = random_geometric_graph(14, 0.5, np.random.default_rng(8))
    spec = build_laplacian(g)
    kernel = SpectralKernel.polynomial([0.5, 0.0, 0.25])
    dense = apply_spectral_kernel(kernel, spec)
    lap = spec.laplacian
    direct = 0.5 * np.eye(14) + 0.25 * (lap @ lap)
    scale = np.max(np.abs(direct))
    assert np.max(np.abs(dense - direct)) <= SMOOTH_TOL * scale


# ---------------------------------------------------------------------------
# Subspaces, partitions, feasibility
# ---------------------------------------------------------------------------

def test_consensus_projector():
    sub = consensus_subspace(5, 2)
    proj = projector(sub)
    expected = np.kron(np.full((5, 5), 0.2), np.eye(2))
    assert np.max(np.abs(proj - expected)) < 1e-12


def test_projector_invariant_to_basis_scaling():
    sub = consensus_subspace(4, 1)
    scaled = type(sub)(3.0 * sub.basis, sub.block_sizes)
    assert np.max(np.abs(projector(sub) - projector(scaled))) < 1e-12


def test_agent_basis_only_of_a_basis_agent_by_agent():
    # U_N where the basis is exactly U_N x I_M with uniform blocks
    consensus = consensus_subspace(5, 2)
    assert np.array_equal(consensus.agent_basis,
                          np.full((5, 1), 1.0 / np.sqrt(5)))
    part = ClusterPartition((2, 3))
    assert np.array_equal(cluster_subspace(part, 3).agent_basis,
                          cluster_subspace(part, 1).basis)
    # the same range in a rotated basis, and ragged blocks: no U_N
    c, s = np.cos(0.7), np.sin(0.7)
    rotated = Subspace(consensus.basis @ np.array([[c, -s], [s, c]]),
                       consensus.block_sizes)
    assert rotated.semi_orthogonal and rotated.agent_basis is None
    assert Subspace(np.ones((4, 1)), (1, 2, 1)).agent_basis is None


def test_cluster_subspace_blocks():
    part = ClusterPartition((2, 3))
    sub = cluster_subspace(part, 1)
    proj = projector(sub)
    assert np.allclose(proj[:2, :2], 0.5)
    assert np.allclose(proj[2:, 2:], 1.0 / 3.0)
    assert np.allclose(proj[:2, 2:], 0.0)


def test_partition_slices_and_assignment():
    part = ClusterPartition((3, 2, 4))
    assert part.slices == ((0, 3), (3, 5), (5, 9))
    assert part.assignment[4] == 1
    assert part.n_agents == 9


def test_rank_deficient_basis_rejected():
    with pytest.raises(ValueError):
        consensus_subspace(0, 1)
    with pytest.raises(ValueError):
        Subspace(np.ones((4, 2)), block_sizes=(1, 1, 1, 1))


def test_feasibility_uniform_average_passes():
    n = 6
    g = complete_graph(n)
    combo = CombinationMatrix(np.full((n, n), 1.0 / n))
    report = check_feasibility(combo, consensus_subspace(n, 1), g)
    assert report.passed
    assert report.rho == pytest.approx(0.0, abs=1e-10)


def test_feasibility_identity_fails_spectral():
    n = 5
    g = complete_graph(n)
    combo = CombinationMatrix(np.eye(n))
    report = check_feasibility(combo, consensus_subspace(n, 1), g)
    assert not report.passed
    assert set(report.failed_constraints()) == {"spectral"}
    assert report.rho == pytest.approx(1.0)


def test_feasibility_metropolis_on_ring():
    g = ring_graph(10)
    report = check_feasibility(metropolis_weights(g),
                               consensus_subspace(10, 1), g)
    assert report.passed
    assert 0.0 < report.rho < 1.0


def test_feasibility_sparsity_violation():
    # Dense averaging is infeasible on a ring: non-neighbors get weight.
    n = 6
    g = ring_graph(n)
    combo = CombinationMatrix(np.full((n, n), 1.0 / n))
    report = check_feasibility(combo, consensus_subspace(n, 1), g)
    assert not report.sparsity
    assert "sparsity" in report.failed_constraints()


def _block_feasibility_oracle(
    combination: CombinationMatrix,
    subspace: Subspace,
    graph: Graph,
    tol: float = 1e-10,
) -> FeasibilityReport:
    """The block-level check_feasibility before the agent-level reduction,
    kept verbatim (its dense (M_t x M_t) form, eigvals of the whole gap and
    per-pair sparsity loop) as the oracle."""
    sizes = subspace.block_sizes
    block = combination.block_matrix(sizes)
    basis = subspace.basis
    proj = projector(subspace)
    scale = max(1.0, float(np.max(np.abs(block))))

    right = bool(np.max(np.abs(block @ basis - basis)) <= tol * scale)
    left = bool(np.max(np.abs(basis.T @ block - basis.T)) <= tol * scale)

    gap = block - proj
    rho = float(np.max(np.abs(np.linalg.eigvals(gap))))
    spectral = bool(rho <= 1.0 - SPECTRAL_RADIUS_SLACK)

    bounds = np.concatenate([[0], np.cumsum(sizes)])
    sparsity = True
    n = len(sizes)
    for k in range(n):
        allowed = set(graph.neighbors(k).tolist()) | {k}
        for l in range(n):
            if l in allowed:
                continue
            sub = block[bounds[k] : bounds[k + 1], bounds[l] : bounds[l + 1]]
            if np.max(np.abs(sub)) > tol * scale:
                sparsity = False
                break
        if not sparsity:
            break
    return FeasibilityReport(
        right_fixed=right,
        left_fixed=left,
        spectral=spectral,
        sparsity=sparsity,
        rho=rho,
    )


FLAGS = ("right_fixed", "left_fixed", "spectral", "sparsity", "passed")


@pytest.fixture
def block_matrix_calls(monkeypatch):
    """Counts the (M_t x M_t) block forms check_feasibility builds."""
    calls = []
    expand = CombinationMatrix.block_matrix

    def counted(self, block_sizes):
        calls.append(tuple(block_sizes))
        return expand(self, block_sizes)

    monkeypatch.setattr(CombinationMatrix, "block_matrix", counted)
    return calls


def _assert_matches_oracle(combo, subspace, graph, block_matrix_calls):
    before = len(block_matrix_calls)
    report = check_feasibility(combo, subspace, graph)
    built = len(block_matrix_calls) - before
    oracle = _block_feasibility_oracle(combo, subspace, graph)
    assert {f: getattr(report, f) for f in FLAGS} == \
        {f: getattr(oracle, f) for f in FLAGS}
    assert abs(report.rho - oracle.rho) <= 1e-12
    return report, built


def test_scalar_feasibility_matches_block_oracle(block_matrix_calls):
    # scalar weights on U_N x I_M bases: checked on the N x N pair, never
    # expanded, with the block-level verdict
    cases = passed = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        n = 5 + seed % 12
        m = 1 + seed % 3
        g = random_geometric_graph(n, 0.5, rng)
        part = ClusterPartition((n // 2, n - n // 2))
        for subspace in (consensus_subspace(n, m), cluster_subspace(part, m)):
            combos = [metropolis_weights(g),
                      CombinationMatrix(np.full((n, n), 1.0 / n)),
                      CombinationMatrix(np.eye(n))]
            if subspace.dim > m:
                try:
                    combos.append(cluster_metropolis(g, part))
                except ValueError:  # a cluster is not connected
                    pass
            for combo in combos:
                report, built = _assert_matches_oracle(
                    combo, subspace, g, block_matrix_calls)
                assert built == 0
                cases += 1
                passed += report.passed
    assert cases >= 600
    assert 0 < passed < cases


def test_rotated_basis_takes_the_block_path(block_matrix_calls):
    # the same subspace in a basis that is not U_N x I_M
    rng = np.random.default_rng(3)
    g = random_geometric_graph(9, 0.6, rng)
    part = ClusterPartition((4, 5))
    base = cluster_subspace(part, 2)
    rotation, _ = np.linalg.qr(rng.standard_normal((base.dim, base.dim)))
    rotated = Subspace(base.basis @ rotation, block_sizes=base.block_sizes)
    report, built = _assert_matches_oracle(
        cluster_metropolis(g, part), rotated, g, block_matrix_calls)
    assert built == 1
    assert report.passed


def test_ragged_block_weights_match_the_oracle(block_matrix_calls):
    # block weights with ragged blocks, with and without a weight on a
    # non-neighbor block: the per-block maxima see uneven block sizes
    g = ring_graph(5)
    sizes = (1, 2, 3, 2, 1)
    rng = np.random.default_rng(8)
    reps = np.repeat(np.arange(5), sizes)
    allowed = (g.adjacency != 0) | np.eye(5, dtype=bool)
    mat = rng.standard_normal((9, 9)) * allowed[np.ix_(reps, reps)]
    mat *= 0.5 / np.linalg.norm(mat, 2)
    subspace = Subspace(rng.standard_normal((9, 2)), block_sizes=sizes)
    report, built = _assert_matches_oracle(
        CombinationMatrix(mat, block_sizes=sizes), subspace, g,
        block_matrix_calls)
    assert built == 1
    assert report.sparsity
    # agents 0 (row/column 0) and 2 (rows/columns 3-5) are not neighbors;
    # each weight sits off the first row or column of its block
    for k, l in ((4, 0), (0, 5)):
        bad = mat.copy()
        bad[k, l] = 0.25
        report, _ = _assert_matches_oracle(
            CombinationMatrix(bad, block_sizes=sizes), subspace, g,
            block_matrix_calls)
        assert not report.sparsity


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(4, 30),
       radius=st.floats(0.5, 1.5), m=st.integers(1, 3), data=st.data())
def test_eigenvalue_path_matches_block_oracle(seed, n, radius, m, data):
    # symmetric weights that fix the subspace: rho from one eigvalsh of the
    # agent-level gap, against the oracle's eigvals of the block form
    g = random_geometric_graph(n, radius, np.random.default_rng(seed))
    cuts = data.draw(st.lists(st.integers(1, n - 1), max_size=3, unique=True))
    part = ClusterPartition(tuple(np.diff([0, *sorted(cuts), n])))
    cases = [(metropolis_weights(g), consensus_subspace(n, m))]
    try:
        cases.append((cluster_metropolis(g, part), cluster_subspace(part, m)))
    except ValueError:  # a cluster is not connected
        pass
    for combo, subspace in cases:
        report, _ = _assert_matches_oracle(combo, subspace, g, [])
        assert report.right_fixed and report.left_fixed


def test_exact_cluster_averaging_is_semi_convergent_on_both_paths():
    # a complete graph with clusters of 1 and 12 agents: cluster Metropolis
    # averages exactly, and rho(A - P_U) is a rounding residue on both paths
    g = random_geometric_graph(13, 1.5, np.random.default_rng(0))
    part = ClusterPartition((1, 12))
    combo = cluster_metropolis(g, part)
    for m in (1, 2, 3):
        report, _ = _assert_matches_oracle(combo, cluster_subspace(part, m),
                                           g, [])
        assert report.spectral and report.passed


@pytest.fixture
def dense_path_calls(monkeypatch):
    """Counts the eigvals and spectral-norm calls of a feasibility check."""
    calls = {"eigvals": 0, "norm2": 0}
    eigvals, norm = np.linalg.eigvals, np.linalg.norm

    def counted_eigvals(a):
        calls["eigvals"] += 1
        return eigvals(a)

    def counted_norm(x, ord=None, *args, **kwargs):
        calls["norm2"] += ord == 2
        return norm(x, ord, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvals", counted_eigvals)
    monkeypatch.setattr(np.linalg, "norm", counted_norm)
    return calls


def _directed_ring_average(n):
    """(I + S) / 2 with S the cyclic shift: doubly stochastic, so it fixes
    the consensus subspace on both sides, but not symmetric."""
    return CombinationMatrix(0.5 * (np.eye(n) + np.roll(np.eye(n), 1, axis=1)))


def test_clustered_resolve_takes_no_power_and_no_svd_norm(dense_path_calls):
    cfg = parse_config({
        "schema": 1, "seed": 0, "iters": 10, "runs": 1,
        "graph": {"kind": "ring", "n": 12},
        "model": {"kind": "mse", "m": 2, "noise_var": 0.1,
                  "truth": {"kind": "piecewise", "sizes": [5, 7]}},
        "strategy": {"kind": "subspace_projection", "mu": 0.01,
                     "subspace": {"clusters": [5, 7]}}})
    assert resolve(cfg).strategy.feasibility.passed
    assert dense_path_calls == {"eigvals": 0, "norm2": 0}


def test_non_symmetric_or_unfixed_weights_take_one_eigvals(dense_path_calls):
    g = ring_graph(8)
    part = ClusterPartition((4, 4))
    uniform = CombinationMatrix(np.full((8, 8), 1.0 / 8))
    report = check_feasibility(uniform, cluster_subspace(part, 2), g)
    assert not report.right_fixed
    assert dense_path_calls == {"eigvals": 1, "norm2": 0}
    report = check_feasibility(_directed_ring_average(8),
                               consensus_subspace(8, 2), g)
    assert report.passed
    assert dense_path_calls == {"eigvals": 2, "norm2": 0}


def test_non_symmetric_weights_are_checked_at_any_size(dense_path_calls):
    # 1001 rows, past the size the matrix-power check once refused
    n = 1001
    g = ring_graph(n)
    subspace = consensus_subspace(n, 1)
    assert check_feasibility(_directed_ring_average(n), subspace, g).passed
    assert dense_path_calls == {"eigvals": 1, "norm2": 0}
    assert check_feasibility(metropolis_weights(g), subspace, g).passed
    assert dense_path_calls == {"eigvals": 1, "norm2": 0}


# ---------------------------------------------------------------------------
# Value classes holding arrays
# ---------------------------------------------------------------------------

def _theory_inputs():
    return TheoryInputs(mu=0.01, eta=1.0, m=2, noise_var=np.full(4, 0.1),
                        r_u=np.eye(2), spectrum=build_laplacian(ring_graph(4)),
                        truth=np.arange(8.0).reshape(4, 2))


def _stream_model():
    return StreamModel("mse", TaskField([np.ones(2)] * 4), r_u=np.eye(2),
                       noise_var=0.1)


def _sample_block():
    return draw_horizon(_stream_model(),
                        [[np.random.default_rng(k) for k in range(4)]],
                        3).run(0)


@pytest.mark.parametrize("make", [
    lambda: ring_graph(4),
    lambda: build_laplacian(ring_graph(4)),
    lambda: metropolis_weights(ring_graph(4)),
    lambda: consensus_subspace(4, 2),
    lambda: SpectralKernel.polynomial([0.0, 1.0]),
    lambda: EdgeRegularizer(ring_graph(4).adjacency),
    lambda: StrategyConfig(kind="diffusion", mu=0.1),
    lambda: check_feasibility(metropolis_weights(ring_graph(4)),
                              consensus_subspace(4, 1), ring_graph(4)),
    _theory_inputs,
    lambda: msd_noncooperative(_theory_inputs()),
    lambda: variance_smoothness(_theory_inputs()),
    lambda: bias_smoothness(_theory_inputs()),
    lambda: filter_bound(_theory_inputs()),
    lambda: TaskField([np.ones(2)] * 4),
    _stream_model,
    lambda: _sample_block().at(0),
    _sample_block,
    lambda: run_experiment({
        "schema": 1, "seed": 0, "iters": 5, "runs": 1,
        "graph": {"kind": "ring", "n": 4},
        "model": {"kind": "mse", "m": 2, "noise_var": 0.1,
                  "truth": {"kind": "constant"}},
        "strategy": {"kind": "noncooperative", "mu": 0.01}}),
], ids=["Graph", "Spectrum", "CombinationMatrix", "Subspace",
        "SpectralKernel", "EdgeRegularizer", "StrategyConfig",
        "FeasibilityReport",
        "TheoryInputs", "NoncoopPrediction", "VariancePrediction",
        "BiasPrediction", "FilterBoundReport", "TaskField", "StreamModel",
        "NetworkSample", "SampleBlock", "ExperimentResult"])
def test_value_classes_compare_and_hash_by_identity(make):
    # element-wise equality of their arrays has no single truth value
    a, b = make(), make()
    assert a == a
    assert a != b
    assert len({a, b, a}) == 2
