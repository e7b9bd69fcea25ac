"""Closed-form steady-state predictions for the small step-size regime.

All predictors assume the mean-square-error data model with a regressor
covariance R_u shared by the agents and uniform task dimension M. They are
first-order in the step-size mu:

    msd_noncooperative   per-agent and network MSD without cooperation
    variance_smoothness  steady-state variance around the regularized
                         optimum W*, mode by mode
    bias_smoothness      squared distance ||W^o - W*||^2, mode by mode,
                         together with W* itself
    msd_projection       network MSD of projection-type (subspace) strategies
    filter_bound         per-mode low-pass bound on the spectral content of W*

Variance- and bias-type quantities accept an optional spectral kernel; the
plain Laplacian penalty corresponds to r(lambda) = lambda.

closed_forms decides which of them a strategy gets, from the form its kind
names in strategies.STRATEGY_KINDS; no other module calls a predictor.
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .graphs import (SpectralKernel, Spectrum, Subspace, graph_fourier,
                     is_symmetric)
from .streaming import StreamModel
from .strategies import STRATEGY_KINDS, Strategy

__all__ = [
    "closed_forms",
    "TheoryInputs",
    "NoncoopPrediction",
    "VariancePrediction",
    "BiasPrediction",
    "FilterBoundReport",
    "msd_noncooperative",
    "variance_smoothness",
    "bias_smoothness",
    "msd_projection",
    "filter_bound",
]

_MONOTONE_ATOL = 1e-12
_BOUND_SLACK = 1e-12


@dataclass(frozen=True, eq=False)
class TheoryInputs:
    """Everything the closed-form predictors consume.

    noise_var holds the per-agent gradient-noise variances sigma_{v,k}^2.
    Only the smoothness predictors need the spectrum; kernel = None is the
    plain Laplacian penalty r(lambda) = lambda. truth is the (N, M) task
    matrix W^o (bias and filter bounds); subspace is msd_projection's.
    """

    mu: float
    eta: float
    m: int
    noise_var: np.ndarray
    r_u: np.ndarray
    spectrum: Spectrum | None = None
    kernel: SpectralKernel | None = None
    truth: np.ndarray | None = None
    subspace: Subspace | None = None

    def __post_init__(self):
        if not (self.mu > 0.0 and np.isfinite(self.mu)):
            raise ValueError("mu must be positive")
        if not (self.eta >= 0.0 and np.isfinite(self.eta)):
            raise ValueError("eta must be >= 0")
        var = np.array(self.noise_var, dtype=float).ravel()
        if self.spectrum is not None and var.size != self.spectrum.n_agents:
            raise ValueError("noise_var length must match the number of agents")
        if np.any(var < 0.0):
            raise ValueError("noise variances must be >= 0")
        var.flags.writeable = False
        object.__setattr__(self, "noise_var", var)
        r_u = np.array(self.r_u, dtype=float)
        if r_u.shape != (self.m, self.m):
            raise ValueError(f"r_u must be ({self.m}, {self.m})")
        if not np.all(np.isfinite(r_u)):
            raise ValueError("r_u entries must be finite")
        if not is_symmetric(r_u):
            raise ValueError("r_u must be symmetric")
        r_u = 0.5 * (r_u + r_u.T)
        r_u.flags.writeable = False
        object.__setattr__(self, "r_u", r_u)
        if self.truth is not None:
            truth = np.array(self.truth, dtype=float)
            if truth.ndim == 1:
                truth = truth[:, None]
            if truth.shape != (var.size, self.m):
                raise ValueError("truth must be an (N, M) matrix")
            truth.flags.writeable = False
            object.__setattr__(self, "truth", truth)

    @cached_property
    def kernel_values(self) -> np.ndarray:
        """r(lambda_m) on the spectrum; identity kernel when none is set."""
        if self.spectrum is None:
            raise ValueError("the smoothness predictors need a spectrum")
        if self.kernel is None:
            return self.spectrum.eigenvalues
        vals = np.maximum(self.kernel.validate_on(self.spectrum), 0.0)
        vals.flags.writeable = False
        return vals

    @cached_property
    def r_u_eigenvalues(self) -> np.ndarray:
        vals = np.linalg.eigvalsh(self.r_u)
        if vals[0] <= 0.0:
            raise ValueError("r_u must be positive definite")
        vals.flags.writeable = False
        return vals


@dataclass(frozen=True, eq=False)
class NoncoopPrediction:
    per_agent: np.ndarray   # MSD_k = (mu * M / 2) * sigma_{v,k}^2
    network: float


@dataclass(frozen=True, eq=False)
class VariancePrediction:
    total: float
    per_mode: np.ndarray


@dataclass(frozen=True, eq=False)
class BiasPrediction:
    total: float             # ||W^o - W*||^2 (not averaged over agents)
    per_mode: np.ndarray
    w_star: np.ndarray       # (N, M) regularized optimum


@dataclass(frozen=True, eq=False)
class FilterBoundReport:
    ratios: np.ndarray       # lam_u_max / (lam_u_max + eta * r(lambda_m))
    coeff_norms: np.ndarray  # ||spectral coefficient of W*||, per mode
    truth_norms: np.ndarray  # same for W^o
    holds: bool


def msd_noncooperative(inputs: TheoryInputs) -> NoncoopPrediction:
    """Small-mu steady-state MSD without cooperation.

    Requires white regressors (R_u = sigma_u^2 I up to scaling enters only
    through M): MSD_k = (mu * M / 2) * sigma_{v,k}^2, network MSD is the
    average over agents.
    """
    per_agent = 0.5 * inputs.mu * inputs.m * inputs.noise_var
    return NoncoopPrediction(per_agent=per_agent, network=float(per_agent.mean()))


def variance_smoothness(inputs: TheoryInputs) -> VariancePrediction:
    """Steady-state variance around W* for the smoothness-regularized step.

    Mode m contributes

        (mu / 2N) * (sum_k [v_m]_k^2 sigma_{v,k}^2)
                  * (sum_q lam_{u,q} / (lam_{u,q} + eta * r(lambda_m)))

    Monotone nonincreasing in eta; at eta = 0 the sum over modes equals the
    noncooperative network MSD.
    """
    kern = inputs.kernel_values
    spec = inputs.spectrum
    n = spec.n_agents
    lam_u = inputs.r_u_eigenvalues
    weights = (spec.eigenvectors ** 2).T @ inputs.noise_var      # (N,)
    ratios = np.sum(lam_u / (lam_u + inputs.eta * kern[:, None]), axis=1)
    per_mode = (inputs.mu / (2.0 * n)) * weights * ratios
    return VariancePrediction(total=float(per_mode.sum()), per_mode=per_mode)


def bias_smoothness(inputs: TheoryInputs) -> BiasPrediction:
    """Bias of the regularized optimum W* relative to W^o.

    W* solves (I x R_u)(W - W^o) + eta (r(L) x I_M) W = 0; its spectral
    coefficients are (R_u + eta r(lambda_m) I)^{-1} R_u times those of W^o.
    The per-mode contribution to ||W^o - W*||^2 is
    ||eta r(lambda_m) (R_u + eta r(lambda_m) I)^{-1} w_m^o||^2, and the
    total is their sum. Modes with r(lambda_m) = 0 contribute nothing.
    """
    if inputs.truth is None:
        raise ValueError("bias_smoothness needs the true task field")
    spec = inputs.spectrum
    kern = inputs.kernel_values
    coeffs = graph_fourier(inputs.truth, spec)[:, :, None]       # (N, M, 1)
    shift = (inputs.eta * kern)[:, None, None]
    # one m x m system per mode, solved as an (N, M, M) stack
    shifted = inputs.r_u + shift * np.eye(inputs.m)
    star_coeffs = np.linalg.solve(shifted, np.matmul(inputs.r_u, coeffs))
    diff = shift * np.linalg.solve(shifted, coeffs)
    per_mode = np.matmul(np.swapaxes(diff, 1, 2), diff)[:, 0, 0]
    w_star = spec.eigenvectors @ star_coeffs[:, :, 0]
    return BiasPrediction(total=float(per_mode.sum()), per_mode=per_mode,
                          w_star=w_star)


def msd_projection(inputs: TheoryInputs) -> float:
    """Small-mu network MSD of projection-type strategies.

    With a semi-orthogonal basis U_N x I_M (Subspace.agent_basis U_N) and
    W^o in its range:

        MSD = (mu M / 2N) * sum_m sum_k [u_m]_k^2 sigma_{v,k}^2

    summed over the P_bar columns of U_N.
    """
    sub = inputs.subspace
    if sub is None:
        raise ValueError("msd_projection needs a subspace")
    if not sub.semi_orthogonal:
        raise ValueError("msd_projection requires a semi-orthogonal basis")
    scalar = sub.agent_basis
    if scalar is None or sub.block_sizes[0] != inputs.m:
        raise ValueError("msd_projection requires a basis U_N x I_M "
                         "with blocks of size M")
    if inputs.truth is not None:
        flat = inputs.truth.reshape(-1)
        proj = sub.basis @ (sub.basis.T @ flat)
        scale = max(1.0, float(np.linalg.norm(flat)))
        if np.linalg.norm(flat - proj) > 1e-8 * scale:
            raise ValueError("truth is not in the range of the subspace")
    contrib = (scalar ** 2).T @ inputs.noise_var
    return float(0.5 * inputs.mu * inputs.m / sub.n_agents * contrib.sum())


def filter_bound(inputs: TheoryInputs,
                 bias: BiasPrediction | None = None) -> FilterBoundReport:
    """Low-pass bound on the spectral coefficients of W*.

    Requires r nondecreasing on the spectrum. Checks, mode by mode,

        ||w_m^*|| <= lam_u_max / (lam_u_max + eta r(lambda_m)) * ||w_m^o||

    and reports the per-mode ratios and norms. bias is
    bias_smoothness(inputs), solved here when not given.
    """
    kern = inputs.kernel_values
    if np.any(np.diff(kern) < -_MONOTONE_ATOL * max(1.0, float(kern.max()))):
        raise ValueError("filter bound requires a kernel nondecreasing "
                         "on the spectrum")
    if bias is None:
        bias = bias_smoothness(inputs)
    spec = inputs.spectrum
    truth_coeffs = graph_fourier(inputs.truth, spec)
    star_coeffs = graph_fourier(bias.w_star, spec)
    lam_u_max = float(inputs.r_u_eigenvalues[-1])
    ratios = lam_u_max / (lam_u_max + inputs.eta * kern)
    truth_norms = np.linalg.norm(truth_coeffs, axis=1)
    coeff_norms = np.linalg.norm(star_coeffs, axis=1)
    holds = bool(np.all(coeff_norms <= ratios * truth_norms
                        + _BOUND_SLACK * max(1.0, truth_norms.max())))
    return FilterBoundReport(ratios=ratios, coeff_norms=coeff_norms,
                             truth_norms=truth_norms, holds=holds)


def closed_forms(strategy: Strategy, model: StreamModel
                 ) -> tuple[dict | None, np.ndarray | None]:
    """Predictions for strategy on model (mse with a shared R_u only) and the
    W* of variance-type trajectories: msd_nc, then the form StrategyKind.theory
    names. Only the smoothness form reads the graph's spectrum."""
    if model.kind != "mse" or model.r_u is None:
        return None, None
    form = STRATEGY_KINDS[strategy.kind].theory
    inputs = TheoryInputs(
        mu=strategy.mu, eta=strategy.eta, m=model.truth.uniform_size,
        noise_var=model.noise_var, r_u=model.r_u,
        truth=model.truth.as_matrix(), kernel=strategy.kernel,
        spectrum=strategy.graph.spectrum if form == "smoothness" else None,
        subspace=strategy.subspace)
    noncoop = msd_noncooperative(inputs)
    theory = {"msd_nc": noncoop.network,
              "msd_nc_per_agent": noncoop.per_agent.tolist()}
    w_star = None
    if form == "noncooperative":
        theory["msd"] = noncoop.network
        w_star = inputs.truth
    elif form == "smoothness":
        var = variance_smoothness(inputs)
        bias = bias_smoothness(inputs)
        for name, part in (("variance", var), ("bias", bias)):
            theory[name] = {"total": part.total, "modes": part.per_mode.tolist()}
        theory["msd"] = var.total + bias.total / strategy.graph.n_agents
        w_star = bias.w_star
        if strategy.kernel is not None:
            with suppress(ValueError):
                report = filter_bound(inputs, bias)
                theory["filter_ratios"] = report.ratios.tolist()
    elif form == "projection" and strategy.feasibility is not None:
        # weights that never mix across a bridge split the network: the
        # projection closed form holds only where A^i converges to P_U
        if strategy.feasibility.spectral:
            with suppress(ValueError):
                theory["msd"] = theory["msd_projection"] = msd_projection(inputs)
                w_star = inputs.truth
    return theory, w_star
