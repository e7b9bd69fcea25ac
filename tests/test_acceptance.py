"""Acceptance suite: end-to-end runs checked against closed-form targets.

One test per criterion; each prints a single PASS/FAIL line (run with -s
to see them) and asserts the same condition. Monte Carlo tolerances are
the ones the library documents: 10% for the long noncooperative baseline,
15% for coupled steady states, exact or near-exact for the deterministic
identities. The whole module takes about a minute single-threaded.
"""

import json

import numpy as np
import pytest

from adaptnets import (
    EdgeRegularizer,
    Graph,
    build_laplacian,
    consensus_subspace,
    eta_sweep,
    metropolis_weights,
    projector,
    random_geometric_graph,
    run_experiment,
)
from adaptnets.cli import main as cli_main
from adaptnets.config import parse_config, resolve
from adaptnets.streaming import draw_horizon, network_gradient, pad_blocks
from adaptnets.strategies import social_prox_l1, social_spectral

NC_RTOL = 0.10          # long-run noncooperative network MSD
AGENT_RTOL = 0.15       # per-agent and coupled steady states
ORACLE_RTOL = 1e-10     # distributed recursion vs dense operator
PROX_ATOL = 1e-8        # breakpoint prox vs scalar search
IDENTITY_RTOL = 1e-9    # deterministic bias identity


def _report(num, ok, detail):
    print(f"[acceptance {num:02d}] {'PASS' if ok else 'FAIL'}: {detail}",
          flush=True)
    return ok


# ---------------------------------------------------------------------------
# 1. noncooperative baseline vs (mu*M/2) * mean noise variance
# ---------------------------------------------------------------------------

def test_01_noncooperative_msd_closed_form():
    doc = {
        "schema": 1, "seed": 7, "iters": 20000, "runs": 100,
        "graph": {"kind": "ring", "n": 20},
        "model": {"kind": "mse", "m": 2, "noise_var": 0.1,
                  "truth": {"kind": "constant", "scale": 1.0}},
        "strategy": {"kind": "noncooperative", "mu": 0.005},
    }
    res = run_experiment(doc)
    target = 0.005 * 2 / 2 * 0.1
    rel = abs(res.steady_wo.value - target) / target
    ok = rel <= NC_RTOL and res.wall_time <= 120.0
    assert _report(1, ok,
                   f"network MSD {res.steady_wo.value:.4e} vs {target:.1e} "
                   f"(rel {rel:.3f}, {res.wall_time:.0f}s)")


def test_01b_noncooperative_per_agent_heterogeneous():
    sigma2 = np.linspace(0.05, 0.2, 20)
    doc = {
        "schema": 1, "seed": 8, "iters": 15000, "runs": 100,
        "graph": {"kind": "ring", "n": 20},
        "model": {"kind": "mse", "m": 2, "noise_var": sigma2.tolist(),
                  "truth": {"kind": "constant", "scale": 1.0}},
        "strategy": {"kind": "noncooperative", "mu": 0.005},
    }
    res = run_experiment(doc)
    per_agent_target = 0.005 * 2 / 2 * sigma2
    rel = np.abs(res.per_agent_msd - per_agent_target) / per_agent_target
    ok = bool(np.all(rel <= AGENT_RTOL))
    assert _report(1, ok,
                   f"per-agent MSD worst rel {rel.max():.3f} over 20 agents")


# ---------------------------------------------------------------------------
# 2+3. smooth multitask on a geometric graph: variance match and tradeoff
# ---------------------------------------------------------------------------

SMOOTH_DOC = {
    "schema": 1, "seed": 3, "iters": 6000, "runs": 30,
    "graph": {"kind": "geometric", "n": 50, "radius": 0.3},
    "model": {"kind": "mse", "m": 2, "noise_var": 0.1,
              "truth": {"kind": "smooth", "modes": 5, "scale": 0.1}},
    "strategy": {"kind": "laplacian_reg", "mu": 0.002, "eta": 1.0},
}
SMOOTH_ETAS = [0.0, 0.1, 0.3, 1.0, 3.0, 10.0]


@pytest.fixture(scope="module")
def smooth_sweep():
    return eta_sweep(SMOOTH_DOC, etas=SMOOTH_ETAS)


def test_02_smooth_variance_and_bias(smooth_sweep):
    checked = [p for p in smooth_sweep if p.eta in (0.1, 1.0, 10.0)]
    assert len(checked) == 3
    rels = [abs(p.var_sim - p.var_theory) / p.var_theory for p in checked]
    ok = all(r <= AGENT_RTOL for r in rels)

    # deterministic identity: ||W^o - W*||_F^2 equals the spectral bias sum
    id_rels = []
    for eta in (0.1, 1.0, 10.0):
        doc = dict(SMOOTH_DOC,
                   strategy=dict(SMOOTH_DOC["strategy"], eta=eta))
        res = resolve(parse_config(doc))
        delta = res.model.truth.as_matrix() - res.w_star
        direct = float(np.sum(delta * delta))
        spectral = res.theory["bias"]["total"]
        id_rels.append(abs(direct - spectral) / spectral)
    ok = ok and all(r <= IDENTITY_RTOL for r in id_rels)
    assert _report(2, ok,
                   f"variance rel {max(rels):.3f} at eta in (0.1,1,10); "
                   f"bias identity rel {max(id_rels):.1e}")


def test_03_bias_variance_tradeoff(smooth_sweep):
    at_zero = smooth_sweep[0]
    assert at_zero.eta == 0.0
    best = min(smooth_sweep[1:], key=lambda p: p.msd_sim)
    margin = at_zero.msd_sim - best.msd_sim
    noise = 3.0 * np.hypot(at_zero.msd_stderr, best.msd_stderr)
    ok = best.eta > 0 and margin > noise
    assert _report(3, ok,
                   f"MSD {best.msd_sim:.3e} at eta={best.eta:g} beats "
                   f"{at_zero.msd_sim:.3e} at eta=0 by {margin:.2e} "
                   f"(3 stderr = {noise:.2e})")


# ---------------------------------------------------------------------------
# 4. cooperation gain: consensus diffusion and a two-cluster subspace
# ---------------------------------------------------------------------------

def test_04_consensus_and_cluster_gain():
    # mu small enough that combination mixing is fast next to adaptation
    # (the closed form drops the O(mu / spectral gap) mixing correction,
    # which on this ring costs ~18% at mu=0.01); horizon long enough that
    # the steady window spans many correlation times of the estimator
    base = {
        "schema": 1, "seed": 21, "iters": 30000, "runs": 60, "parallel": 4,
        "graph": {"kind": "ring", "n": 10},
        "model": {"kind": "mse", "m": 2, "noise_var": 0.1,
                  "truth": {"kind": "constant", "scale": 1.0}},
        "strategy": {"kind": "diffusion", "mu": 0.002},
    }
    res_c = run_experiment(base)
    target_c = res_c.theory["msd_nc"] / 10
    assert res_c.theory["msd_projection"] == pytest.approx(target_c)
    rel_c = abs(res_c.steady_wo.value - target_c) / target_c

    clus = dict(base)
    clus["model"] = {"kind": "mse", "m": 2, "noise_var": 0.1,
                     "truth": {"kind": "piecewise", "sizes": [5, 5],
                               "scale": 1.0}}
    clus["strategy"] = {"kind": "subspace_projection", "mu": 0.002,
                        "subspace": {"clusters": [5, 5]}}
    res_q = run_experiment(clus)
    target_q = 2 * res_q.theory["msd_nc"] / 10
    assert res_q.theory["msd_projection"] == pytest.approx(target_q)
    rel_q = abs(res_q.steady_wo.value - target_q) / target_q

    ok = rel_c <= AGENT_RTOL and rel_q <= AGENT_RTOL
    assert _report(4, ok,
                   f"consensus rel {rel_c:.3f} vs msd_nc/N; "
                   f"two clusters rel {rel_q:.3f} vs 2*msd_nc/N")


# ---------------------------------------------------------------------------
# 5. distributed spectral recursion vs dense polynomial operator
# ---------------------------------------------------------------------------

def test_05_spectral_recursion_oracle():
    rng = np.random.default_rng(1234)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(5, 21))
        graph = random_geometric_graph(n, 0.6, rng)
        lap = build_laplacian(graph).laplacian
        lam_max = float(np.linalg.eigvalsh(lap).max())
        degree = int(rng.integers(1, 7))
        # keep beta_s * lam_max^s of order one so the comparison is not
        # dominated by float error from huge matrix powers
        beta = rng.uniform(0.0, 1.0, degree + 1)
        beta /= (1.0 + lam_max) ** np.arange(degree + 1)
        mu_eta = float(rng.uniform(1e-3, 0.1))
        psi = rng.standard_normal((n, int(rng.integers(1, 4))))

        w = social_spectral(psi, graph, beta, mu_eta)
        r_l = sum(b * np.linalg.matrix_power(lap, s)
                  for s, b in enumerate(beta))
        oracle = psi - mu_eta * (r_l @ psi)
        worst = max(worst, np.linalg.norm(w - oracle)
                    / np.linalg.norm(oracle))
    ok = worst <= ORACLE_RTOL
    assert _report(5, ok, f"worst relative gap {worst:.2e} over 50 instances")


# ---------------------------------------------------------------------------
# 6. l1 prox breakpoint solution vs bounded scalar search
# ---------------------------------------------------------------------------

def _search_prox_minimizer(rho_row, anchors, anchor_self, mu_eta, lo, hi):
    # scalar search on the prox objective via its monotone subgradient;
    # comparing objective values instead would floor out near
    # sqrt(eps * f / curvature) ~ 6e-8, above the resolution needed here
    def slope(x):
        return (np.sum(rho_row * np.sign(x - anchors))
                + (x - anchor_self) / mu_eta)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if slope(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_06_prox_vs_scalar_search():
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(100):
        neighbors = int(rng.integers(1, 6))
        n = neighbors + 1
        rho = np.zeros((n, n))
        rho[0, 1:] = rho[1:, 0] = rng.uniform(0.1, 2.0, neighbors)
        psi = rng.normal(0.0, 2.0, (n, 2))
        mu_eta = float(rng.uniform(0.05, 1.5))

        w = social_prox_l1(psi, EdgeRegularizer(rho), mu_eta)
        for j in range(2):
            found = _search_prox_minimizer(
                rho[0, 1:], psi[1:, j], psi[0, j], mu_eta,
                float(psi[:, j].min()) - 1.0, float(psi[:, j].max()) + 1.0)
            worst = max(worst, abs(w[0, j] - found))
    ok = worst <= PROX_ATOL
    assert _report(6, ok, f"worst coordinate gap {worst:.2e} over 100 instances")


# ---------------------------------------------------------------------------
# 7. semi-convergence rate of a feasible combination matrix
# ---------------------------------------------------------------------------

def test_07_semi_convergence_rate():
    # 10-node path; its Metropolis matrix is symmetric, so the deviation
    # satisfies ||A^i - P|| = rho^i exactly and the rate bound takes the
    # form rho^(i-1) * ||A - P|| with slack only for float error
    adj = np.zeros((10, 10))
    for k in range(9):
        adj[k, k + 1] = adj[k + 1, k] = 1.0
    a = metropolis_weights(Graph(adj)).matrix
    p = projector(consensus_subspace(10, 1))
    deviation = a - p
    rho = float(np.abs(np.linalg.eigvalsh(deviation)).max())
    norm0 = float(np.linalg.norm(deviation, 2))

    power = np.eye(10)
    worst = 0.0
    for i in range(1, 201):
        power = power @ a
        lhs = float(np.linalg.norm(power - p, 2))
        bound = rho ** (i - 1) * norm0 * (1 + 1e-6)
        worst = max(worst, lhs / bound)
    ok = worst <= 1.0 and rho < 1.0
    assert _report(7, ok,
                   f"max ||A^i - P|| / bound = {worst:.9f} over i=1..200, "
                   f"rho = {rho:.4f}")


# ---------------------------------------------------------------------------
# 8. reduction lattice (the special cases listed in the strategies module)
# ---------------------------------------------------------------------------

def test_08_reduction_lattice():
    base = {
        "schema": 1, "seed": 17, "iters": 300, "runs": 2,
        "graph": {"kind": "ring", "n": 8},
        "model": {"kind": "mse", "m": 2, "noise_var": 0.1,
                  "truth": {"kind": "smooth", "modes": 3, "scale": 0.5}},
        "strategy": None,
    }

    def msd(strategy):
        return run_experiment(dict(base, strategy=strategy)).msd_wo

    pairs = [
        ("spectral r(l)=l == laplacian",
         {"kind": "spectral_reg", "mu": 0.01, "eta": 1.0,
          "kernel": {"kind": "polynomial", "coefficients": [0.0, 1.0]}},
         {"kind": "laplacian_reg", "mu": 0.01, "eta": 1.0}),
        ("laplacian eta=0 == noncooperative",
         {"kind": "laplacian_reg", "mu": 0.01, "eta": 0.0},
         {"kind": "noncooperative", "mu": 0.01}),
        ("clustered Q=1 eta=0 == diffusion",
         {"kind": "clustered", "mu": 0.01, "eta": 0.0, "clusters": [8]},
         {"kind": "diffusion", "mu": 0.01}),
        ("subspace consensus scalar A == diffusion",
         {"kind": "subspace_projection", "mu": 0.01, "subspace": "consensus"},
         {"kind": "diffusion", "mu": 0.01}),
        ("clustered singletons l1 == prox",
         {"kind": "clustered", "mu": 0.01, "eta": 0.2, "clusters": [1] * 8,
          "penalty": "l1", "rho": 0.3},
         {"kind": "prox_l1", "mu": 0.01, "eta": 0.2, "rho": 0.3}),
    ]

    failures = [name for name, left, right in pairs
                if not np.array_equal(msd(left), msd(right))]
    ok = not failures
    assert _report(8, ok,
                   "all 5 reductions agree" if ok
                   else f"failed: {', '.join(failures)}")


# ---------------------------------------------------------------------------
# 9. network gradients vs central finite differences
# ---------------------------------------------------------------------------

def _fd_gradient(loss, w):
    grad = np.zeros_like(w)
    for j in range(w.size):
        h = 1e-6 * max(1.0, abs(w[j]))
        bump = np.zeros_like(w)
        bump[j] = h
        grad[j] = (loss(w + bump) - loss(w - bump)) / (2 * h)
    return grad


def _network_fd_gaps(model, samples, w, sizes):
    """Relative gap between network_gradient and central finite differences
    of each agent's loss on its own entries, plus the largest |gradient| at
    a pad entry."""
    grad = network_gradient(model, w, samples.regressors, samples.responses)
    gaps = []
    for k, m in enumerate(sizes):
        u, d = samples.regressors[k, :m], samples.responses[k]
        if model.kind == "mse":
            def loss(x):
                return 0.5 * (d - u @ x) ** 2
        else:
            def loss(x, reg=model.reg):
                return 0.5 * reg * (x @ x) + np.logaddexp(0.0, -d * (u @ x))
        fd = _fd_gradient(loss, w[k, :m])
        gaps.append(np.linalg.norm(grad[k, :m] - fd) / np.linalg.norm(fd))
    pad = np.arange(w.shape[1]) >= np.array(sizes)[:, None]
    return gaps, float(np.max(np.abs(grad[pad]), initial=0.0))


def test_09_gradients_match_finite_differences():
    # the network gradient inside self_learn, on a uniform (N, M) state and
    # on a ragged one zero-padded to (N, M_max), for both models
    rng = np.random.default_rng(2718)
    uniform = {
        "schema": 1, "seed": 4, "iters": 100, "runs": 1,
        "graph": {"kind": "ring", "n": 3},
        "model": {"kind": "mse", "m": 3, "noise_var": 0.2,
                  "truth": {"kind": "smooth", "modes": 2, "scale": 1.0}},
        "strategy": {"kind": "noncooperative", "mu": 0.01},
    }
    ragged = {
        **uniform, "graph": {"kind": "ring", "n": 4},
        "model": {"kind": "mse", "noise_var": 0.2,
                  "truth": {"kind": "global_random", "n_variables": 4}},
        "strategy": {"kind": "overlapping", "mu": 0.01,
                     "interests": [[0, 1], [1, 2, 3], [3], [3, 0]]},
    }
    logistic = {"kind": "logistic", "reg": 0.05}
    docs = [uniform, ragged,
            {**uniform, "model": {**logistic, "m": 3,
                                  "truth": uniform["model"]["truth"]}},
            {**ragged, "model": {**logistic,
                                 "truth": ragged["model"]["truth"]}}]
    gaps, pad_grad = [], 0.0
    for doc in docs:
        res = resolve(parse_config(doc))
        model, sizes = res.model, res.strategy.block_sizes
        for _ in range(10):
            samples = draw_horizon(
                model, [[rng] * model.n_agents], 1).run(0).at(0)
            w = pad_blocks([rng.standard_normal(m) for m in sizes])
            point_gaps, point_pad = _network_fd_gaps(model, samples, w, sizes)
            gaps += point_gaps
            pad_grad = max(pad_grad, point_pad)

    worst = max(gaps)
    ok = worst <= 1e-6 and pad_grad == 0.0
    assert _report(9, ok, f"worst relative gap {worst:.2e} at {len(gaps)} "
                          f"agent points, pad gradient {pad_grad:g}")


# ---------------------------------------------------------------------------
# 10. serial and parallel execution produce byte-identical artifacts
# ---------------------------------------------------------------------------

def test_10_serial_parallel_bit_identical(tmp_path):
    doc = {
        "schema": 1, "seed": 5, "iters": 400, "runs": 4,
        "graph": {"kind": "ring", "n": 8},
        "model": {"kind": "mse", "m": 2, "noise_var": 0.1,
                  "truth": {"kind": "smooth", "modes": 3, "scale": 0.5}},
        "strategy": {"kind": "laplacian_reg", "mu": 0.01, "eta": 1.0},
    }
    cfg = tmp_path / "experiment.json"
    cfg.write_text(json.dumps(doc))
    out_serial = tmp_path / "serial"
    out_parallel = tmp_path / "parallel"

    assert cli_main(["run", "--config", str(cfg), "--out",
                     str(out_serial)]) == 0
    assert cli_main(["run", "--config", str(cfg), "--out",
                     str(out_parallel), "--parallel", "2"]) == 0

    same = ((out_serial / "result.csv").read_bytes()
            == (out_parallel / "result.csv").read_bytes())
    hash_s = json.loads((out_serial / "result.json").read_text())["config_hash"]
    hash_p = json.loads((out_parallel / "result.json").read_text())["config_hash"]
    ok = same and hash_s == hash_p
    assert _report(10, ok, "result.csv bytes identical, config hash stable")
