"""Adaptation strategies: self-learning, social steps, assembly, reductions."""

import importlib
from pathlib import Path
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from adaptnets import prox, strategies
from adaptnets.config import parse_config
from adaptnets.graphs import (
    ClusterPartition,
    CombinationMatrix,
    SpectralKernel,
    apply_spectral_kernel,
    build_laplacian,
    complete_graph,
    consensus_subspace,
    Graph,
    metropolis_weights,
    random_geometric_graph,
    ring_graph,
)
from adaptnets.harness import run_experiment
from adaptnets.streaming import (
    StreamModel,
    TaskField,
    draw_horizon,
    network_gradient,
    pad_blocks,
    sigmoid,
)
from adaptnets.strategies import (
    STRATEGY_KINDS,
    EdgeRegularizer,
    InterestMap,
    OverlapTable,
    StrategyConfig,
    build_strategy,
    cluster_metropolis,
    overlap_metropolis,
    overlap_table,
    self_learn,
    social_diffusion,
    social_noncooperative,
    social_overlapping,
    social_prox_l1,
    social_smooth,
    social_spectral,
    social_subspace,
)

EXACT_TOL = 1e-12
DENSE_RTOL = 1e-9
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def path_graph(n):
    return Graph.from_edges(n, [[k, k + 1, 1.0] for k in range(n - 1)])


def mse_model(n, m, seed=0, noise=0.1):
    truth = TaskField.from_matrix(
        np.random.default_rng(seed).standard_normal((n, m)))
    return StreamModel(kind="mse", truth=truth, noise_var=noise)


def one_sample(model, seed=1):
    streams = [np.random.default_rng((seed, k)) for k in range(model.n_agents)]
    return draw_horizon(model, [streams], 1).run(0).at(0)


# ---------------------------------------------------------------------------
# Configuration validation
# ---------------------------------------------------------------------------

def test_config_rejects_unknown_kind():
    with pytest.raises(ValueError):
        StrategyConfig(kind="gossip", mu=0.01)


def test_config_rejects_bad_stepsizes():
    with pytest.raises(ValueError):
        StrategyConfig(kind="diffusion", mu=0.0)
    with pytest.raises(ValueError):
        StrategyConfig(kind="diffusion", mu=np.inf)
    with pytest.raises(ValueError):
        StrategyConfig(kind="laplacian_reg", mu=0.01, eta=-1.0)


def test_config_rejects_eta_on_eta_free_kinds():
    for kind in ("noncooperative", "diffusion", "subspace_projection",
                 "overlapping"):
        with pytest.raises(ValueError):
            StrategyConfig(kind=kind, mu=0.01, eta=0.5)


def test_config_rejects_unknown_payload_keys():
    with pytest.raises(ValueError):
        StrategyConfig(kind="diffusion", mu=0.01, payload={"kernel": [1.0]})


def test_config_rejects_a_non_finite_or_negative_scalar_rho():
    # before the builder's inf * 0 on the non-edges can warn
    for kind, extra in [("prox_l1", {}), ("clustered", {"clusters": [2, 2]})]:
        for rho in (np.inf, -np.inf, np.nan, -0.5):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match="strategy.rho must be "
                                                     "finite and >= 0"):
                    StrategyConfig(kind, 0.01, 0.2, {"rho": rho, **extra})
        StrategyConfig(kind, 0.01, 0.2, {"rho": 0.0, **extra})


# ---------------------------------------------------------------------------
# Self-learning
# ---------------------------------------------------------------------------

def agent_gradient(model, w_k, u, d):
    """One agent's stochastic gradient, written out per agent: the oracle
    for the network-wide gradient inside self_learn."""
    if model.kind == "mse":
        return -u * (d - u @ w_k)
    return model.reg * w_k - d * u * sigmoid(-d * (u @ w_k))


def gradient_loop(w, model, samples, mu, sizes):
    """self_learn agent by agent on each agent's first sizes[k] entries."""
    return [w[k, :m] - mu * agent_gradient(model, w[k, :m],
                                           samples.regressors[k, :m],
                                           samples.responses[k])
            for k, m in enumerate(sizes)]


def test_self_learn_matches_gradient_loop_mse():
    model = mse_model(6, 3)
    samples = one_sample(model)
    w = np.random.default_rng(2).standard_normal((6, 3))
    fast = self_learn(w, model, samples.regressors, samples.responses, 0.05)
    slow = np.vstack(gradient_loop(w, model, samples, 0.05, [3] * 6))
    assert np.max(np.abs(fast - slow)) < 1e-14


def test_self_learn_matches_gradient_loop_logistic():
    truth = TaskField.from_matrix(
        np.random.default_rng(3).standard_normal((5, 2)))
    model = StreamModel(kind="logistic", truth=truth, reg=0.2)
    samples = one_sample(model, seed=4)
    w = np.random.default_rng(5).standard_normal((5, 2))
    fast = self_learn(w, model, samples.regressors, samples.responses, 0.1)
    slow = np.vstack(gradient_loop(w, model, samples, 0.1, [2] * 5))
    assert np.max(np.abs(fast - slow)) < 1e-14


def test_self_learn_blockwise_path():
    # ragged blocks in the zero-padded (N, M_max) layout, both models
    rng = np.random.default_rng(6)
    sizes = (2, 4, 1, 3)
    truth = TaskField(tuple(rng.standard_normal(m) for m in sizes))
    for model in (StreamModel(kind="mse", truth=truth, noise_var=0.1),
                  StreamModel(kind="logistic", truth=truth, reg=0.2)):
        samples = one_sample(model)
        assert samples.regressors.shape == (4, 4)
        w = pad_blocks([rng.standard_normal(m) for m in sizes])
        fast = self_learn(w, model, samples.regressors, samples.responses,
                          0.05)
        slow = gradient_loop(w, model, samples, 0.05, sizes)
        for k, m in enumerate(sizes):
            assert np.max(np.abs(fast[k, :m] - slow[k])) < 1e-14
            assert np.all(fast[k, m:] == 0.0)


def test_self_learn_gives_the_bits_of_w_minus_mu_grad():
    # self_learn fuses the step into its out buffer; it must still give
    # w - mu * network_gradient bit for bit, signed zeros included
    rng = np.random.default_rng(8)
    truth = TaskField.from_matrix(rng.standard_normal((6, 3)))
    for model in (StreamModel(kind="mse", truth=truth, noise_var=0.1),
                  StreamModel(kind="logistic", truth=truth, reg=0.2)):
        u = rng.standard_normal((4, 6, 3))
        u[rng.random(u.shape) < 0.3] = 0.0
        d = rng.standard_normal((4, 6))
        d[:, 0] = 0.0
        w = rng.standard_normal((4, 6, 3))
        w[rng.random(w.shape) < 0.3] = -0.0
        w[0] = 0.0
        want = w - 0.05 * network_gradient(model, w, u, d)
        assert self_learn(w, model, u, d, 0.05).tobytes() == want.tobytes()


def test_self_learn_does_not_mutate_input():
    model = mse_model(3, 2)
    samples = one_sample(model)
    w = np.ones((3, 2))
    before = w.copy()
    self_learn(w, model, samples.regressors, samples.responses, 0.1)
    assert np.array_equal(w, before)


# ---------------------------------------------------------------------------
# Smooth and spectral social steps
# ---------------------------------------------------------------------------

def test_social_noncooperative_is_identity():
    psi = np.arange(6.0).reshape(3, 2)
    out = social_noncooperative(psi)
    assert np.array_equal(out, psi) and not np.shares_memory(out, psi)


def test_social_smooth_matches_dense():
    g = random_geometric_graph(15, 0.5, np.random.default_rng(7))
    spec = build_laplacian(g)
    psi = np.random.default_rng(8).standard_normal((15, 2))
    out = social_smooth(psi, g, 0.03)
    dense = psi - 0.03 * spec.laplacian @ psi
    assert np.max(np.abs(out - dense)) < EXACT_TOL


def test_social_spectral_two_agents_cubic():
    """Cubic kernel on one edge: L^3 = 4 L, so psi=[1,0] maps to [0.96, 0.04]."""
    g = path_graph(2)
    psi = np.array([[1.0], [0.0]])
    out = social_spectral(psi, g, [0.0, 0.0, 0.0, 1.0], 0.01)
    assert np.allclose(out, [[0.96], [0.04]], atol=1e-14)


def test_social_spectral_matches_eigen_apply():
    g = random_geometric_graph(12, 0.55, np.random.default_rng(9))
    spec = build_laplacian(g)
    kernel = SpectralKernel.polynomial([0.2, 0.1, 0.05, 0.01], spec)
    psi = np.random.default_rng(10).standard_normal((12, 3))
    out = social_spectral(psi, g, kernel.coefficients, 0.02)
    dense = psi - 0.02 * apply_spectral_kernel(kernel, spec) @ psi
    scale = np.max(np.abs(psi))
    assert np.max(np.abs(out - dense)) < DENSE_RTOL * scale


def test_social_spectral_matches_matrix_powers():
    g = ring_graph(9)
    lap = build_laplacian(g).laplacian
    coeffs = [0.3, 0.0, 0.2]
    psi = np.random.default_rng(11).standard_normal((9, 2))
    dense = 0.3 * np.eye(9) + 0.2 * lap @ lap
    expected = psi - 0.05 * dense @ psi
    out = social_spectral(psi, g, coeffs, 0.05)
    assert np.max(np.abs(out - expected)) < DENSE_RTOL


def test_social_spectral_linear_reduces_to_smooth():
    g = random_geometric_graph(10, 0.6, np.random.default_rng(12))
    psi = np.random.default_rng(13).standard_normal((10, 2))
    a = social_spectral(psi, g, [0.0, 1.0], 0.04)
    b = social_smooth(psi, g, 0.04)
    assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# Proximal step
# ---------------------------------------------------------------------------


# Test-only oracle: the l1 prox computed agent by agent, minimizing the
# objective over all D + 1 interval candidates of each coordinate. The
# vectorised interval rule in adaptnets.strategies must agree bit for bit.

def _prox_weighted_l1(anchor: np.ndarray, values: np.ndarray,
                      rho: np.ndarray, gamma: float) -> np.ndarray:
    """Exact coordinatewise minimizer of

        (x - a)^2 / (2 gamma) + sum_i rho_i |x - b_i|

    found by enumerating breakpoint intervals: the piecewise-quadratic
    objective is minimized either at a stationary point of one piece or at a
    breakpoint, both of which the interval-clipped candidates cover.
    """
    n, m = values.shape
    order = np.argsort(values, axis=0)
    b = np.take_along_axis(values, order, axis=0)
    r = np.take_along_axis(np.broadcast_to(rho[:, None], (n, m)), order, axis=0)
    prefix = np.vstack([np.zeros((1, m)), np.cumsum(r, axis=0)])
    sign_sums = 2.0 * prefix - prefix[-1]            # (n+1, m)
    cand = anchor[None, :] - gamma * sign_sums
    lo = np.vstack([np.full((1, m), -np.inf), b])
    hi = np.vstack([b, np.full((1, m), np.inf)])
    cand = np.clip(cand, lo, hi)
    quad = (cand - anchor[None, :]) ** 2 / (2.0 * gamma)
    pen = np.sum(rho[:, None, None] * np.abs(cand[None, :, :] - values[:, None, :]),
                 axis=0)
    best = np.argmin(quad + pen, axis=0)
    return cand[best, np.arange(m)]


def _oracle_prox_l1(psi, rho, mu_eta):
    out = np.empty_like(psi)
    for k in range(psi.shape[0]):
        nbrs = np.flatnonzero(rho[k])
        if nbrs.size == 0:
            out[k] = psi[k]
            continue
        out[k] = _prox_weighted_l1(psi[k], psi[nbrs], rho[k, nbrs], mu_eta)
    return out


def _random_prox_case(rng, t):
    """A random weighted graph, state and step for instance t.

    Sparse draws leave isolated and degree-1 agents; every tenth instance
    adds a hub joined to all other agents (degree > 16); odd instances use
    one weight on every edge, as a scalar rho does; every third state is
    rounded so that neighbor values tie.
    """
    hub = t % 10 == 0
    n = int(rng.integers(18, 40) if hub else rng.integers(2, 30))
    m = 1 + t % 3
    adj = np.triu(rng.random((n, n)) < rng.uniform(0.0, 0.5), 1)
    if hub:
        adj[0, 1:] = True
    if t % 2:
        weights = adj * rng.uniform(0.01, 2.0)
    else:
        weights = adj * rng.uniform(0.01, 2.0, (n, n))
    rho = weights + weights.T
    psi = rng.normal(0.0, 2.0, (n, m))
    if t % 3 == 0:
        psi = np.round(psi, int(rng.integers(0, 2)))
    gamma = float(np.exp(rng.uniform(np.log(1e-3), np.log(2.0))))
    return rho, psi, gamma


def _prox_l1_unplanned(x, regularizer, gamma):
    """The interval-rule kernel as it was before its tables were planned:
    every step builds its offsets, ±inf edges, row indices and padded-slot
    mask again. adaptnets.strategies.social_prox_l1 must agree bit for bit."""
    if gamma < 0.0:
        raise ValueError("mu_eta must be >= 0")
    if gamma == 0.0:
        return x.copy()
    if regularizer.kind != "l1":
        raise ValueError("the l1 prox needs an l1 regularizer")
    index, weight = regularizer.neighbor_table
    n, d = index.shape
    if x.shape[-2] != n:
        raise ValueError(f"expected {n} agents, got {x.shape[-2]}")
    # coordinates lead, (runs x coordinates, N), so every agent's D neighbor
    # values are contiguous; each coordinate is solved on its own
    xt = np.swapaxes(x, -1, -2).reshape(-1, n)
    m = xt.shape[0]
    padded = np.concatenate([xt, np.full((m, 1), np.inf)], axis=1)
    values = padded.take(index, axis=1)                        # (M, N, D)
    order = np.argsort(values, axis=-1)
    order += np.arange(n)[:, None] * d
    r = weight.take(order)
    b = values.take(order + np.arange(m)[:, None, None] * (n * d))
    prefix = np.zeros((m, n, d + 1))
    np.cumsum(r, axis=-1, out=prefix[..., 1:])
    c = xt[..., None] - gamma * (2.0 * prefix - prefix[..., -1:])
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
        f_lo, f_mid, f_hi = (cand - xt) ** 2 / (2.0 * gamma) + pen.sum(axis=2)
    finite = np.isfinite(f_mid)
    out = np.where(finite & (f_lo <= f_mid) & (f_lo <= f_hi), lo,
                   np.where(finite & (f_hi < f_mid), hi, mid))
    return np.swapaxes(out.reshape(x.shape[:-2] + (-1, n)), -1, -2).copy()


def _has_tied_neighbors(rho, psi):
    return any(np.unique(psi[np.flatnonzero(row)], axis=0).shape[0]
               < np.count_nonzero(row) for row in rho)


def _assert_matches_oracle(out, ref, x, rho, gamma):
    """out equals the oracle's ref bit for bit, except for an agent with
    neighbor values that differ, but by less than 1e-12 of their scale. The
    minimizer is then only located to rounding, and the interval rule and
    the candidate enumeration can return points that far apart; they must
    agree to 1e-12. Returns the number of such coordinates."""
    differ = np.argwhere(out != ref)
    for k, j in differ:
        values = np.sort(x[np.flatnonzero(rho[k]), j])
        gaps = np.diff(values)
        near = (gaps > 0.0) & (gaps <= 1e-12 * (1.0 + np.abs(values).max()))
        assert np.any(near), (k, j)
        assert abs(out[k, j] - ref[k, j]) <= 1e-12 * (1.0 + abs(ref[k, j]))
    return len(differ)


def test_prox_soft_threshold_single_neighbor():
    # argmin (x-3)^2/2 + |x| = 2: pull of one unit toward the neighbor
    reg = EdgeRegularizer(np.array([[0.0, 1.0], [1.0, 0.0]]))
    psi = np.array([[3.0], [0.0]])
    out = social_prox_l1(psi, reg, 1.0)
    assert out[0, 0] == pytest.approx(2.0, abs=1e-12)
    assert out[1, 0] == pytest.approx(1.0, abs=1e-12)


def test_prox_collapses_onto_neighbor():
    # strong penalty clips at the breakpoint instead of crossing it
    reg = EdgeRegularizer(np.array([[0.0, 1.0], [1.0, 0.0]]))
    psi = np.array([[0.5], [0.0]])
    out = social_prox_l1(psi, reg, 1.0)
    assert out[0, 0] == pytest.approx(0.0, abs=1e-12)


def test_prox_balanced_neighbors_stay_put():
    g = path_graph(3)
    reg = EdgeRegularizer((build_laplacian(g).laplacian < 0) * 1.0)
    psi = np.array([[-1.0], [0.0], [1.0]])
    out = social_prox_l1(psi, reg, 0.3)
    assert out[1, 0] == pytest.approx(0.0, abs=1e-12)


def test_prox_zero_strength_is_copy():
    g = path_graph(3)
    reg = EdgeRegularizer((build_laplacian(g).laplacian < 0) * 1.0)
    psi = np.random.default_rng(14).standard_normal((3, 2))
    out = social_prox_l1(psi, reg, 0.0)
    assert np.array_equal(out, psi)
    assert out is not psi


def test_prox_agreement_is_fixed_point():
    g = ring_graph(6)
    reg = EdgeRegularizer((g.adjacency > 0) * 0.7)
    psi = np.tile([1.5, -2.0], (6, 1))
    out = social_prox_l1(psi, reg, 0.4)
    assert np.max(np.abs(out - psi)) < EXACT_TOL


def test_prox_matches_scalar_search():
    """Coordinatewise prox vs a brute-force golden-section minimizer."""
    from scipy.optimize import minimize_scalar

    rng = np.random.default_rng(15)
    g = ring_graph(5)
    raw = rng.uniform(0.2, 1.5, (5, 5))
    reg = EdgeRegularizer((g.adjacency > 0) * 0.5 * (raw + raw.T))
    psi = rng.standard_normal((5, 1)) * 2.0
    gamma = 0.6
    out = social_prox_l1(psi, reg, gamma)
    for k in range(5):
        nbrs = np.flatnonzero(reg.weights[k])

        def objective(x, k=k, nbrs=nbrs):
            quad = (x - psi[k, 0]) ** 2 / (2.0 * gamma)
            pen = sum(reg.weights[k, l] * abs(x - psi[l, 0]) for l in nbrs)
            return quad + pen

        res = minimize_scalar(objective, bounds=(-10.0, 10.0),
                              method="bounded",
                              options={"xatol": 1e-10})
        assert out[k, 0] == pytest.approx(res.x, abs=1e-7)


def test_prox_self_test_passes_an_agent_without_weighted_neighbors():
    # rho leaves agent 0 no weighted neighbor: the self-test has no scalar
    # search to run for it, and the prox leaves its estimate as it is
    g = ring_graph(5)
    rho = (g.adjacency > 0) * 0.5
    rho[0, :] = rho[:, 0] = 0.0
    strategy = build_strategy(
        StrategyConfig(kind="prox_l1", mu=0.05, eta=1.0, payload={"rho": rho}),
        g, mse_model(5, 2))
    rows = STRATEGY_KINDS["prox_l1"].checks(strategy, np.random.default_rng(0))
    assert [(name, ok) for name, ok, _ in rows] == \
        [("prox_matches_scalar_search", True)]
    psi = np.random.default_rng(0).standard_normal((5, 2))
    out = strategy.social(psi)
    assert np.array_equal(out[0], psi[0])
    assert not np.array_equal(out[1:], psi[1:])


def test_prox_input_not_mutated():
    g = ring_graph(4)
    reg = EdgeRegularizer((g.adjacency > 0) * 1.0)
    psi = np.random.default_rng(16).standard_normal((4, 3))
    before = psi.copy()
    social_prox_l1(psi, reg, 0.5)
    assert np.array_equal(psi, before)


def test_neighbor_table_pads_ascending_rows():
    rho = np.zeros((4, 4))
    rho[0, [1, 3]] = rho[[1, 3], 0] = [0.5, 2.0]
    index, weight = EdgeRegularizer(rho).neighbor_table
    assert np.array_equal(index, [[1, 3], [0, 4], [4, 4], [0, 4]])
    assert np.array_equal(weight, [[0.5, 2.0], [0.5, 0.0], [0.0, 0.0],
                                   [2.0, 0.0]])


def test_prox_matches_candidate_enumeration_bitwise():
    rng = np.random.default_rng(31)
    seen = {"ties": 0, "isolated": 0, "degree_1": 0, "hub": 0}
    for t in range(600):
        rho, psi, gamma = _random_prox_case(rng, t)
        out = social_prox_l1(psi, EdgeRegularizer(rho), gamma)
        assert np.array_equal(out, _oracle_prox_l1(psi, rho, gamma)), t
        degrees = np.count_nonzero(rho, axis=1)
        seen["ties"] += _has_tied_neighbors(rho, psi)
        seen["isolated"] += int(np.any(degrees == 0))
        seen["degree_1"] += int(np.any(degrees == 1))
        seen["hub"] += int(degrees.max() > 16)
    assert min(seen.values()) >= 50, seen


def test_planned_prox_matches_unplanned_kernel_bitwise():
    # the planned kernel against the one that builds its tables per step,
    # over run axes (9 runs is a chunk of the acceptance configs), with
    # +-inf, nan and +-1e300 in an agent's own value (and so in its
    # neighbors' breakpoints), also at or beside agents with padded slots,
    # whose objective at an infinite candidate is nan: a 1e300 neighbor
    # rounds the objective at lo and at c_j* alike, and lo must still win
    # over an infinite hi; every case also steps one run on the same
    # regularizer, so a plan built for one row count serves again
    rng = np.random.default_rng(34)
    leads = [(), (1,), (3,), (2, 3), (9,)]
    seen = {"nonfinite_with_neighbors": 0, "inf_at_padded_agent": 0,
            "huge_at_padded_agent": 0, "isolated": 0, "hub": 0, "ties": 0}
    for t in range(800):
        rho, psi, gamma = _random_prox_case(rng, t)
        x = rng.normal(0.0, 2.0, leads[t % len(leads)] + psi.shape)
        if t % 3 == 0:
            x = np.round(x, int(rng.integers(0, 2)))
        x.reshape((-1,) + psi.shape)[0] = psi
        degrees = np.count_nonzero(rho, axis=1)
        if t % 4 >= 2:
            for value in rng.choice([np.inf, -np.inf, np.nan, 1e300, -1e300],
                                    size=int(rng.integers(1, 4))):
                spot = tuple(int(rng.integers(s)) for s in x.shape)
                x[spot] = value
                seen["nonfinite_with_neighbors"] += int(
                    not np.isfinite(value) and degrees[spot[-2]] > 0)
                near = [spot[-2], *np.flatnonzero(rho[spot[-2]])]
                padded = degrees[near].min() < degrees.max()
                seen["inf_at_padded_agent"] += int(padded and np.isinf(value))
                seen["huge_at_padded_agent"] += int(padded and abs(value) == 1e300)
        reg, ref_reg = EdgeRegularizer(rho), EdgeRegularizer(rho)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for state in (x, psi, x):
                got = social_prox_l1(state, reg, gamma)
                ref = _prox_l1_unplanned(state, ref_reg, gamma)
                assert np.array_equal(got, ref, equal_nan=True), t
        seen["isolated"] += int(np.any(degrees == 0))
        seen["hub"] += int(degrees.max() > 16)
        seen["ties"] += _has_tied_neighbors(rho, psi)
    assert min(seen.values()) >= 50, seen


def _margin_fuzz_case(rng, t):
    """A regularizer, state and step that put cells near the l1 prox's
    rounding margin tau (ProxPlan.margin), for instance t.

    The state's scale X is 2^e, e in [-600, 600], and gamma is log-uniform
    in [1e-6, 1e3]; the weights scale with X / gamma, so the penalty moves
    agents at every scale. Every third state is rounded so that values tie,
    and every fourth has 2 runs. Then, by t % 5, in a few cells:
      0, 1: the own value puts c_j 0.5 tau to 100 tau above a finite
            breakpoint, its interval's lo (0), or below one, its hi (1),
            with X for tau where the state lies outside margin's range;
      2: a neighbor's value moves 0.5 tau to 100 tau from another's, or
         onto it (a clipped cell's far candidate is then near);
      3: an agent sits within 8 ulps of a neighbor's value, or on it, or is
         +0.0 or -0.0;
      4: +-inf or nan.
    """
    n = int(rng.integers(3, 14))
    adj = np.triu(rng.random((n, n)) < rng.uniform(0.2, 0.8), 1)
    adj[np.arange(n - 1), np.arange(1, n)] = True              # connected
    scale = 2.0 ** int(rng.integers(-600, 601))
    gamma = float(np.exp(rng.uniform(np.log(1e-6), np.log(1e3))))
    weights = adj * rng.uniform(0.01, 2.0, (n, n)) \
        * (scale / gamma * 10.0 ** rng.uniform(-3.0, 0.5))
    reg = EdgeRegularizer(weights + weights.T)
    x = rng.normal(0.0, 1.0, (2,) * (t % 4 == 0) + (n, int(rng.integers(1, 3))))
    if t % 3 == 0:
        x = np.round(x, int(rng.integers(0, 2)))
    x *= scale
    index, weight = reg.neighbor_table
    cells = x.reshape(-1, n, x.shape[-1])
    kind = t % 5
    m = cells.shape[0] * cells.shape[2]
    tau = reg.prox_plan(m).margin(
        float(np.abs(x).max()) + gamma * float(reg.weights.sum(axis=1).max()),
        gamma)
    for _ in range(int(rng.integers(1, 4))):
        r, k, j = (int(rng.integers(s)) for s in cells.shape)
        deg = int(np.count_nonzero(weight[k]))
        nbrs, w = index[k, :deg], weight[k, :deg]
        order = np.argsort(cells[r, nbrs, j], kind="stable")
        b = cells[r, nbrs[order], j]
        prefix = np.concatenate([[0.0], np.cumsum(w[order])])
        i = int(rng.integers(deg))
        near = min(tau, scale) * float(np.exp(rng.uniform(np.log(0.5),
                                                          np.log(100.0))))
        if kind < 2:
            # c_{i+1} = b_i + near above lo = b_i, or c_i = b_i - near below hi
            prefix_j = prefix[i + 1 - kind]
            cells[r, k, j] = (b[i] + gamma * (2.0 * prefix_j - prefix[-1])
                              + (near if kind == 0 else -near))
        elif kind == 2:
            other = nbrs[(order[i] + 1) % deg]
            cells[r, other, j] = b[i] + rng.choice([-near, 0.0, near])
        elif kind == 3:
            ulps = int(rng.integers(-8, 9)) * np.spacing(b[i])
            cells[r, k, j] = rng.choice([b[i] + ulps, b[i], 0.0, -0.0])
        else:
            cells[r, k, j] = rng.choice([np.inf, -np.inf, np.nan])
    return reg, x, gamma


def test_prox_margin_keeps_the_objective_choice_bitwise(monkeypatch):
    # the bound's path must return the bits the objective path chooses: the
    # planned kernel against the unplanned one, which always evaluates the
    # objective, on states built to sit on both sides of the margin
    objective = prox._choose_by_objective
    calls = []
    monkeypatch.setattr(prox, "_choose_by_objective",
                        lambda *args: calls.append(1) or objective(*args))
    rng = np.random.default_rng(37)
    states = 5000
    for t in range(states):
        reg, x, gamma = _margin_fuzz_case(rng, t)
        with np.errstate(over="ignore"):
            ref = _prox_l1_unplanned(x, reg, gamma)
        got = social_prox_l1(x, reg, gamma)
        assert np.array_equal(got, ref, equal_nan=True), t
    slow = len(calls)
    assert min(slow, states - slow) >= 500, slow


@pytest.mark.parametrize("rho", [0.01, 1.0])
def test_prox_margin_skips_the_objective_on_the_benchmark_config(
        monkeypatch, rho):
    # the sparse_prox benchmark workload at seed 0 (rho = 0.01), and its graph
    # at rho = 1: the objective runs on at most 5% of the steps
    monkeypatch.syspath_prepend(str(PERFBENCH))
    doc = importlib.import_module("workloads").config("sparse_prox", 0)
    doc["strategy"]["rho"] = rho
    kernel, objective = strategies.social_prox_l1, prox._choose_by_objective
    steps, objectives = [], []
    monkeypatch.setattr(strategies, "social_prox_l1",
                        lambda *args: steps.append(1) or kernel(*args))
    monkeypatch.setattr(prox, "_choose_by_objective",
                        lambda *args: objectives.append(1) or objective(*args))
    run_experiment(parse_config(doc))
    assert len(steps) == doc["iters"] * doc["runs"]
    assert len(objectives) <= 0.05 * len(steps), (len(objectives), len(steps))


@pytest.mark.parametrize("zeros", [(-0.0, 0.0), (0.0, -0.0)])
def test_prox_margin_leaves_a_signed_zero_to_the_objective(zeros):
    # agent 0 lies between neighbors at -0.0 and +0.0: the clip gives mid
    # hi's zero, the objective ties and picks lo's, so a mid of +-0.0 must
    # not take the bound's path, whose gaps are both 0
    rho = np.zeros((3, 3))
    rho[0, 1:] = rho[1:, 0] = 0.5
    reg = EdgeRegularizer(rho)
    x = np.array([[-0.01], *([z] for z in zeros)])
    got = social_prox_l1(x, reg, 0.25)
    ref = _prox_l1_unplanned(x, reg, 0.25)
    assert np.array_equal(np.signbit(got), np.signbit(ref))
    assert np.array_equal(got, ref)


def test_prox_plans_keep_no_memory_of_their_outputs():
    # row counts 2, 6, 2, 12 and 6 interleave on one regularizer: each
    # output stays as it was returned, and none shares memory with a plan
    rng = np.random.default_rng(36)
    rho, _, gamma = _random_prox_case(rng, 0)
    n = rho.shape[0]
    reg = EdgeRegularizer(rho)
    states = [rng.normal(0.0, 2.0, lead + (n, 2))
              for lead in [(), (3,), (), (2, 3), (3,)]]
    outs = [social_prox_l1(x, reg, gamma) for x in states]
    assert sorted(reg.prox_plans) == [2, 6, 12]
    frames = [a for plan in reg.prox_plans.values() for a in vars(plan).values()]
    for x, out in zip(states, outs):
        assert np.array_equal(out, _prox_l1_unplanned(x, reg, gamma))
        assert not np.shares_memory(out, x)
        assert not any(np.shares_memory(out, frame) for frame in frames)
    # gamma = 0 is a copy and gamma < 0 raises, neither building a plan
    fresh = EdgeRegularizer(rho)
    out = social_prox_l1(states[1], fresh, 0.0)
    assert np.array_equal(out, states[1]) and not np.shares_memory(out, states[1])
    with pytest.raises(ValueError, match="mu_eta"):
        social_prox_l1(states[1], fresh, -gamma)
    assert fresh.prox_plans == {}


def _scalar_rho_regularizers(rng):
    """A scalar rho on the edges of geometric graphs of several degrees (as
    prox_l1 builds it), and on their edges across two halves (as clustered
    masks it, which can leave an agent without weighted neighbors). The
    largest degrees pass 16, from where numpy 2.4's sort and argsort order
    -0.0 and +0.0 differently, so the +-0.0 guard matters there."""
    regs = []
    for n, radius in [(6, 0.9), (12, 0.35), (16, 0.6), (24, 0.3), (30, 0.35),
                      (40, 0.25), (20, 0.8)]:
        edges = random_geometric_graph(n, radius, rng).adjacency > 0.0
        rho = float(np.exp(rng.uniform(np.log(1e-3), np.log(10.0))))
        half = np.arange(n) < n // 2
        regs.append(EdgeRegularizer(rho * edges))
        regs.append(EdgeRegularizer(rho * edges * (half[:, None] != half)))
    return regs


def _sort_path_fuzz_case(rng, t, regs, gammas):
    """A state for the l1 prox on one of regs, for instance t: 1, 3 or 8
    runs (one run with or without its leading axis) of 1 or 2 coordinates
    at a scale from 1e-3 to 1e3, and gamma from gammas. By t // 4 % 6:
      0: as drawn;
      1: values from a few nonzero levels, so neighbor values tie;
      2: the previous state's prox at a large gamma, whose agents are fused
         onto their neighbors' values, with some agents copied onto a
         neighbor besides;
      3: one to three cells at +0.0 or -0.0, or, every other time, a
         third of the agents at zeros of random signs;
      4: one to three cells at +inf, -inf, nan or -nan;
      5: one cell at +-0.0 and one at +-inf or nan.
    Kinds 3 to 5 must take the argsort path, the others the sort path.
    """
    reg = regs[t % len(regs)]
    n = reg.weights.shape[0]
    runs = (1, 3, 8)[t % 3]
    shape = ((runs,) if runs > 1 or t % 2 else ()) + (n, 1 + t // 3 % 2)
    kind = t // 4 % 6
    if kind == 1:
        x = rng.choice([-1.5, -0.5, 0.25, 1.0, 2.0], shape)
    else:
        x = rng.normal(0.0, 1.0, shape)
    x *= 10.0 ** rng.uniform(-3.0, 3.0)
    if kind == 2:
        x = _prox_l1_unplanned(x, reg, 1e3)
        cells = x.reshape((-1,) + x.shape[-2:])
        for _ in range(3):
            k = int(rng.integers(n))
            nbrs = np.flatnonzero(reg.weights[k])
            if nbrs.size:
                cells[:, k] = cells[:, rng.choice(nbrs)]
    if kind == 3 and t % 2:
        agents = rng.random(n) < 1.0 / 3.0
        x[..., agents, :] = rng.choice([0.0, -0.0], x[..., agents, :].shape)
    zeros, nonfinite = [0.0, -0.0], [np.inf, -np.inf, np.nan, -np.nan]
    count = int(rng.integers(1, 4))
    pools = {3: [zeros] * count, 4: [nonfinite] * count,
             5: [zeros, nonfinite]}.get(kind, [])
    for pool in pools:
        x[tuple(int(rng.integers(s)) for s in x.shape)] = rng.choice(pool)
    return reg, x, float(rng.choice(gammas)), kind >= 3


def test_prox_sort_path_matches_the_unplanned_kernel_bitwise(monkeypatch):
    # scalar rho: the sort path must give the argsort path's bits, sign of
    # zero and nan included, and run exactly where no cell is +-0.0 or
    # non-finite; gammas repeat and change on every plan, so T is made
    # again whenever gamma changes
    shift, sorted_steps = prox.ProxPlan.shift, []
    monkeypatch.setattr(prox.ProxPlan, "shift",
                        lambda plan, gamma: sorted_steps.append(1)
                        or shift(plan, gamma))
    rng = np.random.default_rng(41)
    regs = _scalar_rho_regularizers(rng)
    gammas = np.exp(rng.uniform(np.log(1e-6), np.log(1e3), 7))
    states, guarded = 5000, 0
    for t in range(states):
        reg, x, gamma, argsort_path = _sort_path_fuzz_case(rng, t, regs, gammas)
        before = len(sorted_steps)
        with np.errstate(over="ignore"):
            ref = _prox_l1_unplanned(x, reg, gamma)
        got = social_prox_l1(x, reg, gamma)
        assert np.array_equal(got.view(np.uint64), ref.view(np.uint64)), t
        assert (len(sorted_steps) == before) == argsort_path, t
        guarded += argsort_path
    assert all(plan.shifts is not None
               for reg in regs for plan in reg.prox_plans.values())
    assert min(guarded, states - guarded) >= 2000, guarded


def _count_sort_path_steps(monkeypatch, doc) -> tuple[int, int]:
    """The l1 prox steps of run_experiment(doc) and how many of them took
    the sort path."""
    kernel, shift = strategies.social_prox_l1, prox.ProxPlan.shift
    steps, sorted_steps = [], []
    monkeypatch.setattr(strategies, "social_prox_l1",
                        lambda *args: steps.append(1) or kernel(*args))
    monkeypatch.setattr(prox.ProxPlan, "shift",
                        lambda plan, gamma: sorted_steps.append(1)
                        or shift(plan, gamma))
    run_experiment(parse_config(doc))
    # one step per iteration of each chunk of runs
    assert len(steps) >= doc["iters"]
    return len(steps), len(sorted_steps)


@pytest.mark.parametrize("clustered", [False, True])
def test_prox_sort_path_runs_on_scalar_rho_configs(monkeypatch, clustered):
    # the sparse_prox benchmark workload at seed 0, and a clustered l1 step
    # on a ring of its size: at least 95% of the steps take the sort path
    monkeypatch.syspath_prepend(str(PERFBENCH))
    doc = importlib.import_module("workloads").config("sparse_prox", 0)
    if clustered:
        doc["runs"] = 3
        doc["graph"] = {"kind": "ring", "n": 30}
        doc["strategy"] = {"kind": "clustered", "mu": 0.005, "eta": 2.0,
                           "clusters": [10, 10, 10], "rho": 0.1}
    steps, sorted_steps = _count_sort_path_steps(monkeypatch, doc)
    assert sorted_steps >= 0.95 * steps, (sorted_steps, steps)


def test_prox_sort_path_never_runs_on_unequal_row_weights(monkeypatch):
    # rho as the sparse_prox graph's own Gaussian edge weights: no row's
    # nonzero weights are all equal, so every step takes the argsort path
    monkeypatch.syspath_prepend(str(PERFBENCH))
    doc = importlib.import_module("workloads").config("sparse_prox", 0)
    n = doc["graph"]["n"]
    rho = np.zeros((n, n))
    for k, l, w in doc["graph"]["edges"]:
        rho[k, l] = rho[l, k] = w
    doc["strategy"]["rho"] = rho.tolist()
    steps, sorted_steps = _count_sort_path_steps(monkeypatch, doc)
    assert steps > 0 and sorted_steps == 0


def test_prox_near_ties_match_candidate_enumeration_to_rounding():
    # neighbor values a few ulps apart: enumerating candidates can return a
    # breakpoint beside the minimizer when their objective values round
    # equal, and the interval rule can place it an interval off
    rng = np.random.default_rng(33)
    differ = 0
    for t in range(300):
        rho, psi, gamma = _random_prox_case(rng, t)
        psi = np.round(psi, 1) + rng.integers(-3, 4, psi.shape) * np.spacing(psi)
        out = social_prox_l1(psi, EdgeRegularizer(rho), gamma)
        differ += _assert_matches_oracle(
            out, _oracle_prox_l1(psi, rho, gamma), psi, rho, gamma)
    assert differ > 0


def test_social_clustered_l1_matches_candidate_enumeration():
    # intra-cluster averaging can leave neighbor values a few ulps apart,
    # which _assert_matches_oracle admits; everything else is bitwise
    rng = np.random.default_rng(32)
    for t in range(300):
        n = int(rng.integers(6, 24))
        cuts = np.sort(rng.choice(np.arange(1, n), size=int(rng.integers(1, 3)),
                                  replace=False))
        part = ClusterPartition(tuple(np.diff(np.concatenate([[0], cuts, [n]]))))
        assert max(part.sizes) > 1
        chords = np.triu(rng.random((n, n)) < 0.2, 2)
        graph = Graph(np.maximum(ring_graph(n).adjacency, chords + chords.T))
        intra = cluster_metropolis(graph, part).matrix
        assign = part.assignment
        inter = np.triu((assign[:, None] != assign[None, :]) & (graph.adjacency > 0))
        weights = inter * rng.uniform(0.01, 2.0, (n, n))
        rho = weights + weights.T
        psi = rng.normal(0.0, 2.0, (n, 1 + t % 3))
        if t % 3 == 0:
            psi = np.round(psi, 1)
        gamma = float(np.exp(rng.uniform(np.log(1e-3), np.log(2.0))))
        clustered = build_strategy(
            StrategyConfig("clustered", gamma, 1.0,
                           {"clusters": part.sizes, "rho": rho}),
            graph, mse_model(n, psi.shape[1]))
        out = clustered.social(psi)
        phi = intra @ psi
        _assert_matches_oracle(out, _oracle_prox_l1(phi, rho, gamma),
                               phi, rho, gamma)
        assert np.array_equal(
            out, _prox_l1_unplanned(phi, clustered.regularizer, gamma)), t


@settings(max_examples=300, deadline=None)
@given(anchor=st.floats(-50.0, 50.0),
       neighbors=st.lists(st.tuples(st.floats(-50.0, 50.0), st.floats(1e-3, 10.0)),
                          min_size=1, max_size=24),
       gamma=st.floats(1e-3, 2.0))
def test_prox_satisfies_subgradient_optimality(anchor, neighbors, gamma):
    # 0 lies in the subdifferential of (x - a)^2 / (2 gamma) + sum rho_i |x - b_i|;
    # neighbor values within rounding (delta) of x count as at x, since
    # between values a few ulps apart the minimizer is located to rounding
    values = np.array([v for v, _ in neighbors])
    rho_row = np.array([r for _, r in neighbors])
    rho = np.zeros((len(neighbors) + 1,) * 2)
    rho[0, 1:] = rho[1:, 0] = rho_row
    psi = np.concatenate([[anchor], values])[:, None]
    x = social_prox_l1(psi, EdgeRegularizer(rho), gamma)[0, 0]
    delta = 1e-12 * (abs(anchor) + abs(x) + gamma * rho_row.sum())
    slope = ((x - anchor) / gamma + rho_row[values < x - delta].sum()
             - rho_row[values > x + delta].sum())
    at_x = rho_row[np.abs(values - x) <= delta].sum()
    scale = (abs(anchor) + abs(x)) / gamma + rho_row.sum()
    assert abs(slope) <= at_x + 1e-9 * scale


def test_prox_nonfinite_agent_stays_nonfinite():
    g = ring_graph(6)
    reg = EdgeRegularizer((g.adjacency > 0) * 0.5)
    psi = np.random.default_rng(17).standard_normal((6, 2))
    psi[0, 0] = np.inf
    psi[3, 1] = np.nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = social_prox_l1(psi, reg, 0.3)
    assert out[0, 0] == np.inf
    assert np.isnan(out[3, 1])
    # the infinite agent is a far breakpoint to its neighbors
    assert np.all(np.isfinite(out[[1, 5], 0]))


def test_prox_rejects_negative_strength():
    g = ring_graph(6)
    part = ClusterPartition((3, 3))
    assign = part.assignment
    inter = (assign[:, None] != assign[None, :]) & (g.adjacency > 0)
    reg = EdgeRegularizer(inter * 0.5)
    psi = np.random.default_rng(18).standard_normal((6, 2))
    with pytest.raises(ValueError, match="mu_eta"):
        social_prox_l1(psi, reg, -0.3)


def test_edge_regularizer_validation():
    with pytest.raises(ValueError):
        EdgeRegularizer(np.array([[0.0, -1.0], [-1.0, 0.0]]))
    with pytest.raises(ValueError):
        EdgeRegularizer(np.array([[0.0, 1.0], [2.0, 0.0]]))
    with pytest.raises(ValueError):
        EdgeRegularizer(np.zeros((2, 2)), kind="l7")
    # diagonal entries are dropped
    reg = EdgeRegularizer(np.array([[5.0, 1.0], [1.0, 5.0]]))
    assert reg.weights[0, 0] == 0.0


# ---------------------------------------------------------------------------
# Diffusion, subspace, overlapping, clustered
# ---------------------------------------------------------------------------

def test_social_diffusion_agreement_fixed_point():
    g = ring_graph(7)
    a = metropolis_weights(g).matrix
    psi = np.tile([0.3, -1.2], (7, 1))
    out = social_diffusion(psi, a)
    assert np.max(np.abs(out - psi)) < EXACT_TOL


def test_social_subspace_matches_scalar_diffusion():
    g = ring_graph(6)
    a = metropolis_weights(g)
    psi = np.random.default_rng(17).standard_normal((6, 2))
    block = a.block_matrix([2] * 6)
    out = social_subspace(psi, block)
    ref = social_diffusion(psi, a.matrix)
    assert np.max(np.abs(out - ref)) < EXACT_TOL


def test_overlap_metropolis_small_chain():
    """Two agents share each variable on a 3-chain: every weight is 1/2."""
    g = path_graph(3)
    interest = InterestMap(2, ((0,), (0, 1), (1,)))
    weights = overlap_metropolis(g, interest)
    assert np.allclose(weights[0], 0.5)
    assert np.allclose(weights[1], 0.5)


def test_overlap_metropolis_rejects_disconnected_interest():
    g = path_graph(3)
    # agents 0 and 2 share variable 0 but are not adjacent
    interest = InterestMap(2, ((0,), (1,), (0, 1)))
    with pytest.raises(ValueError):
        overlap_metropolis(g, interest)


def test_social_overlapping_agreement_fixed_point():
    # ring 0-1-2-3-4: every variable's interested agents are contiguous
    g = ring_graph(5)
    interest = InterestMap(3, ((0,), (0, 1), (1,), (1, 2), (2,)))
    weights = overlap_metropolis(g, interest)
    shared = np.array([0.7, -0.2, 1.1])
    psi = pad_blocks(interest.blocks_from_global(shared))
    out = social_overlapping(psi, overlap_table(interest, weights))
    assert np.max(np.abs(out - psi)) < EXACT_TOL


def test_social_overlapping_all_interested_is_diffusion():
    g = ring_graph(6)
    interest = InterestMap(2, tuple((0, 1) for _ in range(6)))
    weights = overlap_metropolis(g, interest)
    psi_mat = np.random.default_rng(19).standard_normal((6, 2))
    out = social_overlapping(psi_mat, overlap_table(interest, weights))
    ref = social_diffusion(psi_mat, metropolis_weights(g).matrix)
    assert np.max(np.abs(out - ref)) < EXACT_TOL


def social_overlapping_oracle(psi, interest, var_weights):
    """The per-variable combination on a tuple of per-agent blocks, as
    social_overlapping ran before the zero-padded state: the oracle of the
    gather table."""
    out = [np.empty_like(b) for b in psi]
    positions = interest.positions
    for n, agents in enumerate(interest.by_variable):
        vals = np.array([psi[k][positions[k][n]] for k in agents])
        mixed = var_weights[n] @ vals
        for j, k in enumerate(agents):
            out[k][positions[k][n]] = mixed[j]
    return tuple(out)


def ring_interests(n, arcs, rng):
    """An interest map on ring_graph(n): one variable per (start, length)
    arc of consecutive agents, a private variable for every agent no arc
    covers, and each agent's variables in a random order."""
    groups = [[(start + i) % n for i in range(min(length, n))]
              for start, length in arcs]
    covered = {k for g in groups for k in g}
    groups += [[k] for k in range(n) if k not in covered]
    interests = [[] for _ in range(n)]
    for v, group in enumerate(groups):
        for k in group:
            interests[k].append(v)
    for row in interests:
        rng.shuffle(row)
    return InterestMap(len(groups), tuple(tuple(row) for row in interests))


def test_social_overlapping_matches_per_variable_oracle():
    rng = np.random.default_rng(41)
    for _ in range(200):
        n = int(rng.integers(3, 16))
        arcs = [(int(rng.integers(n)), int(rng.integers(1, n + 1)))
                for _ in range(int(rng.integers(1, 2 * n)))]
        interest = ring_interests(n, arcs, rng)
        weights = overlap_metropolis(ring_graph(n), interest)
        blocks = [rng.standard_normal(m) for m in interest.block_sizes]
        out = social_overlapping(pad_blocks(blocks),
                                 overlap_table(interest, weights))
        ref = social_overlapping_oracle(tuple(blocks), interest, weights)
        assert np.max(np.abs(out - pad_blocks(ref))) <= 1e-14
        pad = np.arange(out.shape[1]) >= np.array(interest.block_sizes)[:, None]
        assert np.all(out[pad] == 0.0)


@pytest.mark.parametrize("depth", [1, 2, 3, 7, 8, 9, 16, 17, 23, 128, 129,
                                   130, 257, 300])
def test_social_overlapping_sums_slots_as_numpy_reduce(depth):
    # the slot-major sum gives the bits of numpy's reduce over the last axis
    # of the (..., N, M_max, D) products: one running sum below 8 slots,
    # eight of them up to 128 and halves beyond; a sum of -0.0 reads +0.0
    rng = np.random.default_rng(depth)
    n, width = 4, 3
    index = rng.integers(0, n * width + 1, (n, width, depth))
    weight = rng.standard_normal((n, width, depth))
    weight[rng.random(weight.shape) < 0.2] = 0.0
    # agent 0 reads only cell 0, which holds -0.0
    index[0], weight[0] = 0, 1.0
    table = OverlapTable(index, weight)
    for lead in ((), (1,), (2,), (2, 3)):
        psi = rng.standard_normal(lead + (n, width)) * \
            10.0 ** rng.integers(-6, 7, lead + (n, width))
        psi[..., 0, :] = -0.0
        psi[rng.random(psi.shape) < 0.1] = 0.0
        flat = np.concatenate([psi.reshape(lead + (-1,)), np.zeros(lead + (1,))],
                              axis=-1)
        want = (np.take(flat, index, axis=-1) * weight).sum(axis=-1)
        assert social_overlapping(psi, table).tobytes() == want.tobytes(), lead


@settings(max_examples=200, deadline=None)
@given(n=st.integers(3, 16),
       arcs=st.lists(st.tuples(st.integers(0, 15), st.integers(1, 16)),
                     min_size=1, max_size=24),
       seed=st.integers(0, 2**32 - 1))
def test_padded_overlapping_preserves_variable_means(n, arcs, seed):
    # every variable's Metropolis weights are doubly stochastic, so the mean
    # over its interested agents is kept; pad entries come out exactly 0
    # and the values in them reach no real entry
    rng = np.random.default_rng(seed)
    interest = ring_interests(n, [(start % n, length) for start, length in arcs],
                              rng)
    table = overlap_table(interest, overlap_metropolis(ring_graph(n), interest))
    sizes = np.array(interest.block_sizes)
    pad = np.arange(sizes.max()) >= sizes[:, None]
    psi = pad_blocks([rng.standard_normal(m) for m in sizes])
    out = social_overlapping(psi, table)
    noisy = psi.copy()
    noisy[pad] = rng.standard_normal(int(pad.sum()))
    assert np.array_equal(social_overlapping(noisy, table), out)
    assert np.all(out[pad] == 0.0)
    positions = interest.positions
    for v, agents in enumerate(interest.by_variable):
        before = np.mean([psi[k, positions[k][v]] for k in agents])
        after = np.mean([out[k, positions[k][v]] for k in agents])
        assert abs(after - before) <= 1e-12 * (1.0 + np.max(np.abs(psi)))


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 30),
       radius=st.floats(0.2, 0.8), m=st.integers(1, 3),
       fraction=st.floats(0.0, 1.0))
def test_diffusion_and_laplacian_preserve_network_mean(seed, n, radius, m,
                                                       fraction):
    rng = np.random.default_rng(seed)
    g = random_geometric_graph(n, radius, rng, require_connected=False)
    assume(g.is_connected)
    model = mse_model(n, m)
    lam_max = build_laplacian(g).lam_max
    configs = [StrategyConfig(kind="diffusion", mu=0.01),
               StrategyConfig(kind="laplacian_reg", mu=0.01,
                              eta=fraction * 2.0 / (0.01 * lam_max))]
    psi = rng.normal(0.0, 3.0, (n, m))
    for cfg in configs:
        out = build_strategy(cfg, g, model).social(psi)
        scale = 1.0 + np.max(np.abs(psi)) * (1.0 + 2.0 * fraction)
        assert np.max(np.abs(out.mean(axis=0) - psi.mean(axis=0))) \
            <= 1e-12 * scale


def test_interest_map_validation():
    with pytest.raises(ValueError):
        InterestMap(2, ((0,), ()))
    with pytest.raises(ValueError):
        InterestMap(2, ((0, 0), (1,)))
    with pytest.raises(ValueError):
        InterestMap(2, ((0, 5), (1,)))
    with pytest.raises(ValueError):
        InterestMap(3, ((0,), (1,)))


def test_interest_blocks_from_global():
    interest = InterestMap(3, ((2, 0), (1,)))
    blocks = interest.blocks_from_global([10.0, 20.0, 30.0])
    assert np.array_equal(blocks[0], [30.0, 10.0])
    assert np.array_equal(blocks[1], [20.0])


def test_cluster_metropolis_block_structure():
    g = ring_graph(8)
    part = ClusterPartition((4, 4))
    combo = cluster_metropolis(g, part)
    a = combo.matrix
    assert np.max(np.abs(a[:4, 4:])) == 0.0
    assert np.max(np.abs(a[4:, :4])) == 0.0
    assert np.allclose(a.sum(axis=1), 1.0, atol=EXACT_TOL)
    assert np.allclose(a.sum(axis=0), 1.0, atol=EXACT_TOL)


def test_cluster_metropolis_rejects_disconnected_cluster():
    # cluster {0, 1, 2} on the chain 0-1-3-2: agent 2 only meets agent 3
    g = Graph.from_edges(4, [[0, 1, 1.0], [1, 3, 1.0], [3, 2, 1.0]])
    with pytest.raises(ValueError, match="not connected"):
        cluster_metropolis(g, ClusterPartition((3, 1)))


# The three Metropolis rules as they were written before they shared one core
# (adaptnets.graphs.metropolis_block), kept verbatim as oracles: the core
# must reproduce them bit for bit, diagonal included.

def _oracle_metropolis_weights(graph):
    if not graph.is_connected:
        raise ValueError("metropolis weights require a connected graph")
    n = graph.n_agents
    sizes = np.array([len(graph.neighbors(k)) + 1 for k in range(n)], dtype=float)
    weights = np.zeros((n, n))
    for k in range(n):
        for l in graph.neighbors(k):
            weights[k, l] = 1.0 / max(sizes[k], sizes[l])
    np.fill_diagonal(weights, 1.0 - weights.sum(axis=1))
    return CombinationMatrix(weights)


def _oracle_cluster_metropolis(graph, partition):
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


def _oracle_overlap_metropolis(graph, interest):
    if interest.n_agents != graph.n_agents:
        raise ValueError("interest map and graph disagree on the agent count")
    weights = {}
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


def test_metropolis_rules_match_their_oracles_bitwise():
    rng = np.random.default_rng(40)
    connected = 0
    for t in range(180):
        n = int(rng.integers(9, 80))
        graph = random_geometric_graph(n, float(rng.uniform(0.3, 0.6)), rng)
        assert np.array_equal(metropolis_weights(graph).matrix,
                              _oracle_metropolis_weights(graph).matrix)
        # cluster boundaries off the multiples of 8, where a row sum over a
        # cluster's block and over the whole row could round alike by chance
        inner = [c for c in range(1, n) if c % 8]
        cuts = np.sort(rng.choice(inner, size=int(rng.integers(1, 4)),
                                  replace=False))
        part = ClusterPartition(tuple(np.diff(np.concatenate([[0], cuts, [n]]))))
        try:
            expected = _oracle_cluster_metropolis(graph, part).matrix
        except ValueError:
            with pytest.raises(ValueError, match="not connected"):
                cluster_metropolis(graph, part)
            continue
        assert np.array_equal(cluster_metropolis(graph, part).matrix, expected)
        connected += 1
    assert connected >= 60
    for n in range(4, 41):
        ring = ring_graph(n)
        interest = InterestMap(n, tuple(
            tuple((k + j) % n for j in range(3 if k % 2 else 2))
            for k in range(n)))
        got = overlap_metropolis(ring, interest)
        expected = _oracle_overlap_metropolis(ring, interest)
        assert got.keys() == expected.keys()
        assert all(np.array_equal(got[v], expected[v]) for v in expected)


def test_social_clustered_single_cluster_is_diffusion():
    g = ring_graph(6)
    clustered = build_strategy(
        StrategyConfig("clustered", 0.01, payload={"clusters": (6,)}),
        g, mse_model(6, 2))
    psi = np.random.default_rng(20).standard_normal((6, 2))
    out = clustered.social(psi)
    ref = social_diffusion(psi, metropolis_weights(g).matrix)
    assert np.array_equal(out, ref)


def test_social_clustered_singletons_reduce_to_prox():
    g = ring_graph(5)
    clustered = build_strategy(
        StrategyConfig("clustered", 0.3, 1.0,
                       {"clusters": (1,) * 5, "rho": 0.8}),
        g, mse_model(5, 2))
    assert np.array_equal(clustered.combination.matrix, np.eye(5))
    reg = EdgeRegularizer((g.adjacency > 0) * 0.8)
    psi = np.random.default_rng(21).standard_normal((5, 2))
    out = clustered.social(psi)
    ref = social_prox_l1(psi, reg, 0.3)
    assert np.array_equal(out, ref)


def test_social_clustered_quadratic_penalty():
    g = ring_graph(6)
    part = ClusterPartition((3, 3))
    intra = cluster_metropolis(g, part).matrix
    assign = part.assignment
    inter = (assign[:, None] != assign[None, :]) & (g.adjacency > 0)
    reg = EdgeRegularizer(inter * 0.5, kind="quadratic")
    clustered = build_strategy(
        StrategyConfig("clustered", 0.1, 1.0,
                       {"clusters": (3, 3), "penalty": "quadratic",
                        "rho": 0.5}),
        g, mse_model(6, 2))
    psi = np.random.default_rng(22).standard_normal((6, 2))
    out = clustered.social(psi)
    phi = intra @ psi
    lap = np.diag(reg.weights.sum(axis=1)) - reg.weights
    expected = phi - 0.1 * lap @ phi
    assert np.max(np.abs(out - expected)) < EXACT_TOL


# ---------------------------------------------------------------------------
# Assembly and stepping
# ---------------------------------------------------------------------------

def test_build_strategy_rejects_agent_mismatch():
    g = ring_graph(5)
    model = mse_model(4, 2)
    with pytest.raises(ValueError):
        build_strategy(StrategyConfig(kind="diffusion", mu=0.01), g, model)


def test_build_strategy_laplacian_stability():
    g = path_graph(2)  # lambda_max = 2, so mu*eta must stay below 1
    model = mse_model(2, 2)
    cfg = StrategyConfig(kind="laplacian_reg", mu=0.5, eta=2.5)
    with pytest.raises(ValueError, match="unstable"):
        build_strategy(cfg, g, model)
    ok = StrategyConfig(kind="laplacian_reg", mu=0.5, eta=1.9)
    build_strategy(ok, g, model)


def test_build_strategy_spectral_stability_and_kernel():
    g = path_graph(2)  # r(lambda) peaks at r(2) = 4
    model = mse_model(2, 2)
    cfg = StrategyConfig(kind="spectral_reg", mu=1.0, eta=0.6,
                         payload={"kernel": [0.0, 0.0, 1.0]})
    with pytest.raises(ValueError, match="unstable"):
        build_strategy(cfg, g, model)
    ok = StrategyConfig(kind="spectral_reg", mu=1.0, eta=0.4,
                        payload={"kernel": [0.0, 0.0, 1.0]})
    strat = build_strategy(ok, g, model)
    assert isinstance(strat.kernel, SpectralKernel)


def test_build_strategy_rejects_negative_kernel():
    g = path_graph(2)
    model = mse_model(2, 2)
    cfg = StrategyConfig(kind="spectral_reg", mu=0.01, eta=0.1,
                         payload={"kernel": [0.0, -1.0]})
    with pytest.raises(ValueError, match="negative"):
        build_strategy(cfg, g, model)


def test_build_strategy_rejects_offgraph_rho():
    g = path_graph(3)
    model = mse_model(3, 2)
    rho = np.zeros((3, 3))
    rho[0, 2] = rho[2, 0] = 1.0  # agents 0 and 2 are not neighbors
    cfg = StrategyConfig(kind="prox_l1", mu=0.01, eta=0.1,
                         payload={"rho": rho})
    with pytest.raises(ValueError, match="non-edge"):
        build_strategy(cfg, g, model)


@pytest.mark.parametrize("kind, payload", [
    ("prox_l1", {}),
    ("clustered", {"clusters": (3, 3)}),
])
def test_build_strategy_rejects_misshaped_rho(kind, payload):
    g = ring_graph(6)
    cfg = StrategyConfig(kind=kind, mu=0.01, eta=0.1,
                         payload={**payload, "rho": [[1.0]]})
    with pytest.raises(ValueError, match=r"rho .*6x6.*\(1, 1\)"):
        build_strategy(cfg, g, mse_model(6, 2))


def test_build_strategy_rejects_infeasible_combination():
    g = ring_graph(6)
    model = mse_model(6, 2)
    cfg = StrategyConfig(kind="subspace_projection", mu=0.01,
                         payload={"weights": np.eye(6)})
    with pytest.raises(ValueError, match="spectral"):
        build_strategy(cfg, g, model)


def test_build_strategy_rejects_row_only_stochastic():
    g = ring_graph(4)
    model = mse_model(4, 2)
    a = np.array([
        [0.9, 0.1, 0.0, 0.0],
        [0.1, 0.8, 0.1, 0.0],
        [0.0, 0.3, 0.4, 0.3],
        [0.3, 0.0, 0.3, 0.4],
    ])
    cfg = StrategyConfig(kind="diffusion", mu=0.01, payload={"weights": a})
    with pytest.raises(ValueError, match="columns"):
        build_strategy(cfg, g, model)


def test_build_strategy_rejects_cross_cluster_leak():
    g = ring_graph(6)
    model = mse_model(6, 2)
    a = metropolis_weights(g).matrix  # mixes across the cluster boundary
    cfg = StrategyConfig(kind="clustered", mu=0.01,
                         payload={"clusters": (3, 3), "weights": a})
    with pytest.raises(ValueError, match="leak"):
        build_strategy(cfg, g, model)


def test_build_strategy_requires_uniform_blocks():
    g = path_graph(2)
    truth = TaskField((np.ones(2), np.ones(3)))
    model = StreamModel(kind="mse", truth=truth, noise_var=0.1)
    with pytest.raises(ValueError, match="uniform"):
        build_strategy(StrategyConfig(kind="diffusion", mu=0.01), g, model)


# ---------------------------------------------------------------------------
# Social steps over a run axis
# ---------------------------------------------------------------------------

def _social_steps_by_kind():
    """One built strategy per social step, block weights and a ragged
    overlap included, all on ring_graph(10)."""
    g = ring_graph(10)
    model = mse_model(10, 3)
    block = CombinationMatrix(np.kron(metropolis_weights(g).matrix, np.eye(3)),
                              block_sizes=(3,) * 10)
    configs = {
        "noncooperative": StrategyConfig(kind="noncooperative", mu=0.05),
        "diffusion": StrategyConfig(kind="diffusion", mu=0.05),
        "laplacian_reg": StrategyConfig(kind="laplacian_reg", mu=0.05,
                                        eta=0.5),
        "spectral_reg": StrategyConfig(kind="spectral_reg", mu=0.05, eta=0.2,
                                       payload={"kernel": [0.0, 1.0, 0.3]}),
        "prox_l1": StrategyConfig(kind="prox_l1", mu=0.05, eta=1.0,
                                  payload={"rho": 0.1}),
        "subspace_scalar": StrategyConfig(
            kind="subspace_projection", mu=0.05,
            payload={"subspace": {"clusters": [5, 5]}}),
        "subspace_block": StrategyConfig(kind="subspace_projection", mu=0.05,
                                         payload={"weights": block}),
        "clustered_l1": StrategyConfig(
            kind="clustered", mu=0.05, eta=1.0,
            payload={"clusters": (5, 5), "rho": 0.1}),
        "clustered_quadratic": StrategyConfig(
            kind="clustered", mu=0.05, eta=0.5,
            payload={"clusters": (5, 5), "penalty": "quadratic"}),
    }
    built = {name: build_strategy(cfg, g, model)
             for name, cfg in configs.items()}
    assert not built["subspace_block"].combination.is_scalar
    interests = [[k, (k + 1) % 10] if k % 2 else [k] for k in range(10)]
    ragged = StreamModel(kind="mse", noise_var=0.1, truth=TaskField(
        tuple(np.ones(len(row)) for row in interests)))
    built["overlapping"] = build_strategy(
        StrategyConfig(kind="overlapping", mu=0.05,
                       payload={"interests": interests}), g, ragged)
    return built


@pytest.mark.parametrize("runs", [1, 2, 3, 7, 25])
def test_social_steps_take_a_run_axis_bit_for_bit(runs):
    rng = np.random.default_rng(runs)
    for name, strategy in _social_steps_by_kind().items():
        sizes = np.array(strategy.block_sizes)
        pad = np.arange(sizes.max()) >= sizes[:, None]
        psi = rng.standard_normal((runs, len(sizes), sizes.max()))
        # values on a coarse grid tie, the prox's hardest case
        for state in (psi, np.round(psi, 1)):
            state[:, pad] = 0.0
            got = strategy.social(state)
            ref = np.stack([strategy.social(state[r]) for r in range(runs)])
            assert np.array_equal(got, ref), name
            assert np.all(got[:, pad] == 0.0), name


@pytest.mark.parametrize("kind", sorted(STRATEGY_KINDS))
def test_social_step_reads_its_input_and_never_writes_it(kind):
    # every social step returns a fresh state, noncooperative's a copy of psi
    rng = np.random.default_rng(41)
    built = [s for s in _social_steps_by_kind().values() if s.kind == kind]
    assert built, kind
    for strategy in built:
        sizes = np.array(strategy.block_sizes)
        psi = rng.standard_normal((3, len(sizes), sizes.max()))
        psi[:, np.arange(sizes.max()) >= sizes[:, None]] = 0.0
        before = psi.copy()
        out = strategy.social(psi)
        assert np.array_equal(psi, before), kind
        assert not np.shares_memory(out, psi), kind


# ---------------------------------------------------------------------------
# The reduction lattice on the social step
# ---------------------------------------------------------------------------

@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(4, 16),
       m=st.integers(1, 3), runs=st.integers(1, 3),
       fraction=st.floats(0.05, 0.95))
def test_reduction_lattice_bitwise_on_the_social_step(seed, n, m, runs,
                                                      fraction):
    """The five reductions of the module docstring, each pair of social
    steps bitwise equal on a random (runs, N, M) state."""
    rng = np.random.default_rng(seed)
    g = random_geometric_graph(n, 0.6, rng)
    model = mse_model(n, m)
    mu = 0.01
    eta = fraction * 2.0 / (mu * build_laplacian(g).lam_max)
    pairs = [
        (StrategyConfig(kind="spectral_reg", mu=mu, eta=eta,
                        payload={"kernel": [0.0, 1.0]}),
         StrategyConfig(kind="laplacian_reg", mu=mu, eta=eta)),
        (StrategyConfig(kind="laplacian_reg", mu=mu, eta=0.0),
         StrategyConfig(kind="noncooperative", mu=mu)),
        (StrategyConfig(kind="clustered", mu=mu, eta=0.0,
                        payload={"clusters": (n,)}),
         StrategyConfig(kind="diffusion", mu=mu)),
        (StrategyConfig(kind="subspace_projection", mu=mu,
                        payload={"subspace": "consensus"}),
         StrategyConfig(kind="diffusion", mu=mu)),
        (StrategyConfig(kind="clustered", mu=mu, eta=eta,
                        payload={"clusters": (1,) * n, "penalty": "l1",
                                 "rho": 0.3}),
         StrategyConfig(kind="prox_l1", mu=mu, eta=eta,
                        payload={"rho": 0.3})),
    ]
    psi = rng.standard_normal((runs, n, m))
    for special, general in pairs:
        got = build_strategy(special, g, model).social(psi)
        ref = build_strategy(general, g, model).social(psi)
        assert np.array_equal(got, ref), (special.kind, general.kind)
