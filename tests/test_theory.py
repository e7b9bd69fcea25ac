"""Closed-form steady-state predictions and their structural identities."""

from collections import Counter

import numpy as np
import pytest

from adaptnets import theory as theory_mod
from adaptnets.config import parse_config, resolve
from adaptnets.graphs import (
    ClusterPartition,
    Graph,
    SpectralKernel,
    Subspace,
    build_laplacian,
    cluster_subspace,
    consensus_subspace,
    graph_fourier,
    random_geometric_graph,
    ring_graph,
)
from adaptnets.streaming import synth_smooth_tasks
from adaptnets.theory import (
    TheoryInputs,
    bias_smoothness,
    filter_bound,
    msd_noncooperative,
    msd_projection,
    variance_smoothness,
)

IDENTITY_RTOL = 1e-9
EXACT_TOL = 1e-12


def path2_inputs(**kw):
    spec = build_laplacian(Graph.from_edges(2, [[0, 1, 1.0]]))
    base = dict(mu=0.01, eta=1.0, m=1, noise_var=[0.1, 0.1],
                r_u=np.eye(1), spectrum=spec)
    base.update(kw)
    return TheoryInputs(**base)


def smooth_setup(n=20, m=2, seed=0, bandwidth_index=4, scale=1.0):
    g = random_geometric_graph(n, 0.45, np.random.default_rng(seed))
    spec = build_laplacian(g)
    bw = float(spec.eigenvalues[bandwidth_index])
    truth = scale * synth_smooth_tasks(
        spec, m, bw, np.random.default_rng(seed + 1)).as_matrix()
    return spec, truth


# ---------------------------------------------------------------------------
# Noncooperative MSD
# ---------------------------------------------------------------------------

def test_msd_noncooperative_frozen():
    """mu=0.01, M=2, sigma^2=0.1 gives exactly 1e-3 per agent."""
    spec = build_laplacian(ring_graph(10))
    inputs = TheoryInputs(mu=0.01, eta=0.0, m=2, noise_var=np.full(10, 0.1),
                          r_u=np.eye(2), spectrum=spec)
    pred = msd_noncooperative(inputs)
    assert np.allclose(pred.per_agent, 1e-3, rtol=0, atol=0)
    assert pred.network == pytest.approx(1e-3, rel=1e-15)


def test_msd_noncooperative_heterogeneous():
    spec = build_laplacian(ring_graph(4))
    var = np.array([0.05, 0.1, 0.2, 0.4])
    inputs = TheoryInputs(mu=0.02, eta=0.0, m=3, noise_var=var,
                          r_u=np.eye(3), spectrum=spec)
    pred = msd_noncooperative(inputs)
    assert np.allclose(pred.per_agent, 0.5 * 0.02 * 3 * var)
    assert pred.network == pytest.approx(pred.per_agent.mean())


# ---------------------------------------------------------------------------
# Variance component
# ---------------------------------------------------------------------------

def test_variance_two_agent_modes_frozen():
    """One unit edge, M=1, eta=1: modes are 2.5e-4 and 2.5e-4 / 3."""
    pred = variance_smoothness(path2_inputs())
    assert pred.per_mode[0] == pytest.approx(2.5e-4, rel=1e-12)
    assert pred.per_mode[1] == pytest.approx(2.5e-4 / 3.0, rel=1e-12)
    assert pred.total == pytest.approx(2.5e-4 * (1 + 1.0 / 3.0), rel=1e-12)


def test_variance_ring_matches_analytic_eigenvalues():
    """Ring eigenvalues 2 - 2cos(2 pi j / N) give phi_m = c / (1 + eta lam_m)."""
    n = 10
    spec = build_laplacian(ring_graph(n))
    inputs = TheoryInputs(mu=0.01, eta=1.0, m=2, noise_var=np.full(n, 0.1),
                          r_u=np.eye(2), spectrum=spec)
    pred = variance_smoothness(inputs)
    lam = np.sort(2.0 - 2.0 * np.cos(2.0 * np.pi * np.arange(n) / n))
    expected = np.sort(1e-4 / (1.0 + lam))
    assert np.allclose(np.sort(pred.per_mode), expected, rtol=1e-10)


def test_variance_at_zero_eta_equals_noncooperative():
    spec, _ = smooth_setup()
    var = np.linspace(0.05, 0.3, 20)
    inputs = TheoryInputs(mu=0.005, eta=0.0, m=3, noise_var=var,
                          r_u=np.diag([1.0, 2.0, 0.5]), spectrum=spec)
    pred = variance_smoothness(inputs)
    nc = msd_noncooperative(inputs)
    assert pred.total == pytest.approx(nc.network, rel=EXACT_TOL)


def test_variance_monotone_in_eta():
    spec, _ = smooth_setup(seed=3)
    totals = []
    for eta in [0.0, 0.1, 0.5, 1.0, 5.0, 50.0]:
        inputs = TheoryInputs(mu=0.01, eta=eta, m=2,
                              noise_var=np.full(20, 0.1),
                              r_u=np.eye(2), spectrum=spec)
        totals.append(variance_smoothness(inputs).total)
    assert all(a > b for a, b in zip(totals, totals[1:]))


def test_variance_linear_in_mu():
    spec, _ = smooth_setup(seed=4)
    kw = dict(eta=2.0, m=2, noise_var=np.full(20, 0.1), r_u=np.eye(2),
              spectrum=spec)
    small = variance_smoothness(TheoryInputs(mu=0.001, **kw))
    large = variance_smoothness(TheoryInputs(mu=0.002, **kw))
    assert large.total == pytest.approx(2.0 * small.total, rel=EXACT_TOL)


def test_variance_with_spectral_kernel():
    # quadratic kernel reweights each mode by r(lam) = lam^2
    spec = build_laplacian(ring_graph(6))
    kernel = SpectralKernel.polynomial([0.0, 0.0, 1.0])
    with_k = variance_smoothness(
        TheoryInputs(mu=0.01, eta=1.0, m=1, noise_var=np.full(6, 0.1),
                     r_u=np.eye(1), spectrum=spec, kernel=kernel))
    lam = spec.eigenvalues
    weights = (spec.eigenvectors ** 2).T @ np.full(6, 0.1)
    expected = (0.01 / 12.0) * weights / (1.0 + lam ** 2)
    assert np.allclose(with_k.per_mode, expected, rtol=1e-12)


# ---------------------------------------------------------------------------
# Bias component
# ---------------------------------------------------------------------------

def test_bias_zero_at_zero_eta():
    spec, truth = smooth_setup(seed=5)
    inputs = TheoryInputs(mu=0.01, eta=0.0, m=2, noise_var=np.full(20, 0.1),
                          r_u=np.eye(2), spectrum=spec, truth=truth)
    pred = bias_smoothness(inputs)
    assert pred.total == pytest.approx(0.0, abs=1e-20)
    assert np.max(np.abs(pred.w_star - truth)) < EXACT_TOL


def test_bias_two_agent_hand_case():
    """r_u = 2, eta = 0.5, truth = (1, 0): w* = (5/6, 1/6), bias = 1/18."""
    inputs = path2_inputs(eta=0.5, r_u=np.array([[2.0]]),
                          truth=np.array([[1.0], [0.0]]))
    pred = bias_smoothness(inputs)
    assert pred.total == pytest.approx(1.0 / 18.0, rel=1e-12)
    assert np.allclose(pred.w_star, [[5.0 / 6.0], [1.0 / 6.0]], rtol=1e-12)
    assert pred.per_mode[0] == pytest.approx(0.0, abs=1e-20)


def test_bias_independent_of_mu():
    spec, truth = smooth_setup(seed=6)
    kw = dict(eta=3.0, m=2, noise_var=np.full(20, 0.1), r_u=np.eye(2),
              spectrum=spec, truth=truth)
    a = bias_smoothness(TheoryInputs(mu=0.001, **kw))
    b = bias_smoothness(TheoryInputs(mu=0.5, **kw))
    assert a.total == b.total
    assert np.array_equal(a.w_star, b.w_star)


def test_bias_total_is_squared_distance():
    spec, truth = smooth_setup(seed=7)
    inputs = TheoryInputs(mu=0.01, eta=2.0, m=2, noise_var=np.full(20, 0.1),
                          r_u=np.array([[1.5, 0.2], [0.2, 0.8]]),
                          spectrum=spec, truth=truth)
    pred = bias_smoothness(inputs)
    direct = float(np.sum((truth - pred.w_star) ** 2))
    assert pred.total == pytest.approx(direct, rel=IDENTITY_RTOL)


def test_bias_stationarity_residual():
    """W* solves (W - W^o) R_u + eta r(L) W = 0."""
    spec, truth = smooth_setup(seed=8)
    r_u = np.array([[1.2, -0.3], [-0.3, 2.0]])
    for eta in [0.1, 1.0, 10.0]:
        inputs = TheoryInputs(mu=0.01, eta=eta, m=2,
                              noise_var=np.full(20, 0.1), r_u=r_u,
                              spectrum=spec, truth=truth)
        w_star = bias_smoothness(inputs).w_star
        r_of_l = (spec.eigenvectors * spec.eigenvalues) @ spec.eigenvectors.T
        residual = (w_star - truth) @ r_u + eta * r_of_l @ w_star
        scale = max(1.0, float(np.max(np.abs(truth))))
        assert np.max(np.abs(residual)) < IDENTITY_RTOL * scale


def test_bias_grows_with_eta():
    spec, truth = smooth_setup(seed=9)
    totals = []
    for eta in [0.0, 0.5, 2.0, 10.0]:
        inputs = TheoryInputs(mu=0.01, eta=eta, m=2,
                              noise_var=np.full(20, 0.1), r_u=np.eye(2),
                              spectrum=spec, truth=truth)
        totals.append(bias_smoothness(inputs).total)
    assert all(a < b for a, b in zip(totals, totals[1:]))


# ---------------------------------------------------------------------------
# Variance/bias tradeoff
# ---------------------------------------------------------------------------

def test_tradeoff_has_interior_minimum():
    """Network MSD var + bias/N dips below the eta=0 value at some eta > 0
    and rises again once the bias dominates."""
    spec, truth = smooth_setup(seed=10)
    grid = np.logspace(-3, 3, 25)
    msd = []
    for eta in grid:
        inputs = TheoryInputs(mu=0.01, eta=float(eta), m=2,
                              noise_var=np.full(20, 0.1), r_u=np.eye(2),
                              spectrum=spec, truth=truth)
        msd.append(variance_smoothness(inputs).total
                   + bias_smoothness(inputs).total / 20.0)
    msd = np.array(msd)
    at_zero = 0.5 * 0.01 * 2 * 0.1
    best = int(np.argmin(msd))
    assert msd[best] < at_zero
    assert 0 < best < len(grid) - 1
    assert msd[-1] > msd[best]


# ---------------------------------------------------------------------------
# Projection-type MSD
# ---------------------------------------------------------------------------

def test_msd_projection_consensus_frozen():
    """Consensus over 10 agents cuts the noncooperative MSD by 1/N."""
    spec = build_laplacian(ring_graph(10))
    sub = consensus_subspace(10, 2)
    inputs = TheoryInputs(mu=0.01, eta=0.0, m=2, noise_var=np.full(10, 0.1),
                          r_u=np.eye(2), spectrum=spec, subspace=sub)
    assert msd_projection(inputs) == pytest.approx(1e-4, rel=1e-12)


def test_msd_projection_two_clusters_frozen():
    spec = build_laplacian(ring_graph(10))
    sub = cluster_subspace(ClusterPartition((5, 5)), 2)
    inputs = TheoryInputs(mu=0.01, eta=0.0, m=2, noise_var=np.full(10, 0.1),
                          r_u=np.eye(2), spectrum=spec, subspace=sub)
    assert msd_projection(inputs) == pytest.approx(2e-4, rel=1e-12)


def test_msd_projection_heterogeneous_noise():
    n = 8
    spec = build_laplacian(ring_graph(n))
    var = np.linspace(0.02, 0.3, n)
    inputs = TheoryInputs(mu=0.004, eta=0.0, m=3, noise_var=var,
                          r_u=np.eye(3), spectrum=spec,
                          subspace=consensus_subspace(n, 3))
    expected = 0.5 * 0.004 * 3 / n * var.mean()
    assert msd_projection(inputs) == pytest.approx(expected, rel=1e-12)


def test_noncooperative_and_projection_need_no_spectrum():
    # the agent count comes from the noise and the truth
    n, var = 6, np.linspace(0.05, 0.3, 6)
    truth = np.ones((n, 2))
    kw = dict(mu=0.01, eta=0.0, m=2, noise_var=var, r_u=np.eye(2),
              truth=truth, subspace=consensus_subspace(n, 2))
    bare = TheoryInputs(**kw)
    full = TheoryInputs(**kw, spectrum=build_laplacian(ring_graph(n)))
    assert np.array_equal(msd_noncooperative(bare).per_agent,
                          msd_noncooperative(full).per_agent)
    assert msd_projection(bare) == msd_projection(full)
    with pytest.raises(ValueError, match="truth must be"):
        TheoryInputs(**{**kw, "truth": np.ones((n + 1, 2))})
    for predictor in (variance_smoothness, bias_smoothness, filter_bound):
        with pytest.raises(ValueError, match="need a spectrum"):
            predictor(bare)


def test_msd_projection_requires_semi_orthogonal():
    from adaptnets.graphs import Subspace

    spec = build_laplacian(ring_graph(4))
    basis = np.kron(np.ones((4, 1)), np.eye(2))  # not normalized
    sub = Subspace(basis, block_sizes=(2,) * 4)
    inputs = TheoryInputs(mu=0.01, eta=0.0, m=2, noise_var=np.full(4, 0.1),
                          r_u=np.eye(2), spectrum=spec, subspace=sub)
    with pytest.raises(ValueError, match="semi-orthogonal"):
        msd_projection(inputs)


def test_msd_projection_refuses_a_basis_not_agent_by_agent():
    # the consensus subspace in a rotated orthonormal basis: the same range,
    # but no U_N x I_M to read each agent's weight from
    spec = build_laplacian(ring_graph(4))
    sub = consensus_subspace(4, 2)
    c, s = np.cos(0.7), np.sin(0.7)
    rotated = Subspace(sub.basis @ np.array([[c, -s], [s, c]]),
                       block_sizes=sub.block_sizes)
    assert rotated.semi_orthogonal
    shared = dict(mu=0.01, eta=0.0, m=2, noise_var=np.full(4, 0.1),
                  r_u=np.eye(2), spectrum=spec)
    assert msd_projection(TheoryInputs(**shared, subspace=sub)) \
        == pytest.approx(2.5e-4, rel=1e-12)
    with pytest.raises(ValueError, match="U_N x I_M"):
        msd_projection(TheoryInputs(**shared, subspace=rotated))


def test_msd_projection_rejects_truth_outside_range():
    spec = build_laplacian(ring_graph(4))
    truth = np.arange(8.0).reshape(4, 2)  # not constant across agents
    inputs = TheoryInputs(mu=0.01, eta=0.0, m=2, noise_var=np.full(4, 0.1),
                          r_u=np.eye(2), spectrum=spec,
                          subspace=consensus_subspace(4, 2), truth=truth)
    with pytest.raises(ValueError, match="range"):
        msd_projection(inputs)


# ---------------------------------------------------------------------------
# Low-pass filter bound
# ---------------------------------------------------------------------------

def test_filter_ratios_frozen():
    inputs = path2_inputs(truth=np.array([[1.0], [0.0]]))
    report = filter_bound(inputs)
    assert report.ratios[0] == pytest.approx(1.0)
    assert report.ratios[1] == pytest.approx(1.0 / 3.0, rel=1e-12)
    assert report.holds


def test_filter_ratios_all_one_without_regularization():
    spec, truth = smooth_setup(seed=11)
    inputs = TheoryInputs(mu=0.01, eta=0.0, m=2, noise_var=np.full(20, 0.1),
                          r_u=np.eye(2), spectrum=spec, truth=truth)
    report = filter_bound(inputs)
    assert np.allclose(report.ratios, 1.0, atol=0)
    assert report.holds


def test_filter_bound_holds_for_random_covariances():
    rng = np.random.default_rng(12)
    spec, truth = smooth_setup(seed=13)
    for _ in range(10):
        a = rng.standard_normal((2, 2))
        r_u = a @ a.T + 0.2 * np.eye(2)
        eta = float(rng.uniform(0.05, 20.0))
        inputs = TheoryInputs(mu=0.01, eta=eta, m=2,
                              noise_var=np.full(20, 0.1), r_u=r_u,
                              spectrum=spec, truth=truth)
        report = filter_bound(inputs)
        assert report.holds
        assert np.all(np.diff(report.ratios) <= 1e-15)


def test_filter_bound_rejects_decreasing_kernel():
    spec = build_laplacian(ring_graph(6))  # lam_max = 4
    kernel = SpectralKernel.polynomial([1.0, -0.1])
    inputs = TheoryInputs(mu=0.01, eta=1.0, m=1, noise_var=np.full(6, 0.1),
                          r_u=np.eye(1), spectrum=spec, kernel=kernel,
                          truth=np.ones((6, 1)))
    with pytest.raises(ValueError, match="nondecreasing"):
        filter_bound(inputs)


# ---------------------------------------------------------------------------
# Input validation
# ---------------------------------------------------------------------------

def test_inputs_validation():
    spec = build_laplacian(ring_graph(4))
    ok = dict(mu=0.01, eta=0.0, m=2, noise_var=np.full(4, 0.1),
              r_u=np.eye(2), spectrum=spec)
    TheoryInputs(**ok)
    with pytest.raises(ValueError):
        TheoryInputs(**{**ok, "mu": 0.0})
    with pytest.raises(ValueError):
        TheoryInputs(**{**ok, "eta": -1.0})
    with pytest.raises(ValueError):
        TheoryInputs(**{**ok, "noise_var": np.full(3, 0.1)})
    with pytest.raises(ValueError):
        TheoryInputs(**{**ok, "noise_var": np.array([0.1, -0.1, 0.1, 0.1])})
    with pytest.raises(ValueError):
        TheoryInputs(**{**ok, "r_u": np.eye(3)})
    with pytest.raises(ValueError):
        TheoryInputs(**{**ok, "r_u": np.array([[1.0, 0.5], [0.1, 1.0]])})
    with pytest.raises(ValueError):
        TheoryInputs(**{**ok, "truth": np.ones((3, 2))})


def test_indefinite_covariance_rejected_on_use():
    spec = build_laplacian(ring_graph(4))
    inputs = TheoryInputs(mu=0.01, eta=1.0, m=2, noise_var=np.full(4, 0.1),
                          r_u=np.diag([1.0, -1.0]), spectrum=spec)
    with pytest.raises(ValueError, match="positive definite"):
        variance_smoothness(inputs)


def test_negative_kernel_rejected_on_use():
    spec = build_laplacian(ring_graph(4))
    kernel = SpectralKernel.polynomial([0.0, -1.0])
    inputs = TheoryInputs(mu=0.01, eta=1.0, m=1, noise_var=np.full(4, 0.1),
                          r_u=np.eye(1), spectrum=spec, kernel=kernel)
    with pytest.raises(ValueError, match="negative"):
        variance_smoothness(inputs)


# ---------------------------------------------------------------------------
# closed_forms: each spectral input computed once per resolve
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kernel", [
    {"kind": "polynomial", "coefficients": [0.0, 1.0, 0.3]},
    {"kind": "heat", "rate": 0.4, "degree": 4},
])
def test_one_spectral_resolve_computes_each_kernel_fact_once(monkeypatch,
                                                              kernel):
    # the kernel-kind builder, the stability row and TheoryInputs each
    # validate the kernel once, and each takes r(lambda) from that check;
    # the variance, bias and filter predictors share one TheoryInputs
    counts = Counter()

    def counted(name, fn, when=lambda *args: True):
        def wrapper(*args, **kwargs):
            counts[name] += bool(when(*args))
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(SpectralKernel, "validate_on",
                        counted("validate", SpectralKernel.validate_on))
    monkeypatch.setattr(SpectralKernel, "__call__",
                        counted("evaluate", SpectralKernel.__call__))
    monkeypatch.setattr(TheoryInputs, "__post_init__",
                        counted("inputs", TheoryInputs.__post_init__))
    monkeypatch.setattr(np.linalg, "eigvalsh",
                        counted("eigvalsh_r_u", np.linalg.eigvalsh,
                                lambda a, *rest: np.shape(a) == (2, 2)))
    res = resolve(parse_config({
        "schema": 1, "seed": 1, "iters": 10, "runs": 1,
        "graph": {"kind": "ring", "n": 8},
        "model": {"kind": "mse", "m": 2, "noise_var": 0.1,
                  "truth": {"kind": "smooth", "modes": 3}},
        "strategy": {"kind": "spectral_reg", "mu": 0.01, "eta": 0.5,
                     "kernel": kernel},
    }))
    assert "filter_ratios" in res.theory
    assert counts["validate"] <= 3
    assert counts["evaluate"] <= 3
    assert counts["inputs"] == 1
    assert counts["eigvalsh_r_u"] == 1


def test_one_spectral_resolve_solves_w_star_once(monkeypatch):
    # the bias and the filter bound read one W*: the N per-mode m x m
    # systems are solved once per resolve (two solves per mode)
    counts = Counter()
    real_bias, real_solve = theory_mod.bias_smoothness, np.linalg.solve

    def bias(*args, **kwargs):
        counts["bias"] += 1
        return real_bias(*args, **kwargs)

    def solve(a, b):
        counts["solve"] += np.shape(a) == (2, 2)
        return real_solve(a, b)

    monkeypatch.setattr(theory_mod, "bias_smoothness", bias)
    monkeypatch.setattr(np.linalg, "solve", solve)
    res = resolve(parse_config({
        "schema": 1, "seed": 1, "iters": 10, "runs": 1,
        "graph": {"kind": "ring", "n": 8},
        "model": {"kind": "mse", "m": 2, "noise_var": 0.1,
                  "truth": {"kind": "smooth", "modes": 3}},
        "strategy": {"kind": "spectral_reg", "mu": 0.01, "eta": 0.5,
                     "kernel": {"kind": "polynomial",
                                "coefficients": [0.0, 1.0, 0.3]}},
    }))
    assert "filter_ratios" in res.theory
    assert counts == {"bias": 1, "solve": 2 * 8}
