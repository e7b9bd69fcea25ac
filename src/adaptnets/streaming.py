"""Task fields and streaming data models.

A TaskField assigns one parameter vector per agent. A StreamModel describes
how each agent's observations are generated from its task: linear
regression with additive noise ("mse") or binary logistic observations
("logistic"). Sampling is organized around per-(run, agent) random streams;
a stream yields the regressor draws for a horizon first, then the noise or
label draws, so that a block of one run and a block of many runs come from
the same well-defined sequences.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .graphs import Spectrum, is_symmetric, readonly_setstate

__all__ = [
    "TaskField",
    "StreamModel",
    "NetworkSample",
    "SampleBlock",
    "synth_smooth_tasks",
    "draw_horizon",
    "network_gradient",
    "pad_blocks",
    "sigmoid",
    "save_tasks",
    "load_tasks",
]

_BANDWIDTH_RTOL = 1e-9


def sigmoid(x):
    """Numerically stable logistic function 1 / (1 + exp(-x))."""
    return 0.5 * (1.0 + np.tanh(0.5 * np.asarray(x, dtype=float)))


# ---------------------------------------------------------------------------
# Task fields
# ---------------------------------------------------------------------------

def _pad_rows(blocks) -> tuple[np.ndarray, np.ndarray]:
    """Per-agent vectors as one (N, M_max) array, each row zero-padded,
    and the length of each vector."""
    blocks = [np.asarray(b, dtype=float).ravel() for b in blocks]
    sizes = np.array([b.size for b in blocks], dtype=int)
    out = np.zeros((len(blocks), sizes.max(initial=0)))
    for k, b in enumerate(blocks):
        out[k, :b.size] = b
    return out, sizes


def pad_blocks(blocks) -> np.ndarray:
    """Per-agent vectors as one (N, M_max) array, each row zero-padded."""
    return _pad_rows(blocks)[0]


@dataclass(frozen=True, eq=False)
class TaskField:
    """One parameter vector per agent.

    Blocks may differ in length (overlapping-variable scenarios). Every
    field is held as one read-only zero-padded (N, M_max) array, `padded`,
    and each block is a view of its row; uniform fields also expose it as
    an (N, M) matrix through as_matrix. blocks may be given as per-agent
    vectors or as an array whose rows are the blocks.
    """

    blocks: tuple[np.ndarray, ...]
    padded: np.ndarray = field(init=False, repr=False)
    block_sizes: tuple[int, ...] = field(init=False, repr=False)

    def __post_init__(self):
        if isinstance(self.blocks, np.ndarray):
            if len(self.blocks) == 0:
                raise ValueError("task field needs at least one agent")
            mat = np.array(self.blocks, dtype=float)
            mat = mat.reshape(len(mat), -1)
            sizes = np.full(len(mat), mat.shape[1])
        else:
            mat, sizes = _pad_rows(self.blocks)
            if not sizes.size:
                raise ValueError("task field needs at least one agent")
        # one pass over every block; a refusal names the first bad agent
        bad = (sizes == 0) | ~np.isfinite(mat).all(axis=1)
        if bad.any():
            k = int(np.argmax(bad))
            if sizes[k] == 0:
                raise ValueError(f"agent {k} has an empty block")
            raise ValueError(f"agent {k} block has non-finite entries")
        mat.flags.writeable = False
        object.__setattr__(self, "padded", mat)
        object.__setattr__(self, "block_sizes", tuple(sizes.tolist()))
        self._view_blocks()

    def __setstate__(self, state):
        # pickled blocks are copies: views of padded again
        readonly_setstate(self, state)
        self._view_blocks()

    def _view_blocks(self):
        blocks = tuple(row[:size]
                       for row, size in zip(self.padded, self.block_sizes))
        object.__setattr__(self, "blocks", blocks)

    @property
    def n_agents(self) -> int:
        return len(self.blocks)

    @property
    def uniform_size(self) -> int | None:
        sizes = set(self.block_sizes)
        return sizes.pop() if len(sizes) == 1 else None

    def as_matrix(self) -> np.ndarray:
        """Stack blocks into an (N, M) matrix; blocks must have equal length."""
        if self.uniform_size is None:
            raise ValueError("blocks have unequal lengths; no matrix view")
        return self.padded.copy()

    def stacked(self) -> np.ndarray:
        """Concatenate all blocks into one vector of length sum(M_k)."""
        return np.concatenate(self.blocks)

    @classmethod
    def from_matrix(cls, matrix) -> "TaskField":
        """The field whose block k is row k of an (N, M) matrix (an (N,)
        vector is N blocks of length 1)."""
        return cls(np.asarray(matrix, dtype=float))

    def to_json_dict(self) -> dict:
        if self.uniform_size is None:
            raise ValueError("only uniform task fields serialize to JSON")
        return {
            "M": self.uniform_size,
            "blocks": [blk.tolist() for blk in self.blocks],
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "TaskField":
        try:
            m = doc["M"]
            blocks = doc["blocks"]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"task document must have 'M' and 'blocks': {exc}")
        if isinstance(blocks, (str, Mapping)) or not isinstance(blocks, Iterable):
            raise ValueError(f"blocks must be a list of per-agent vectors, "
                             f"got {blocks!r}")
        field_ = cls(tuple(np.asarray(b, dtype=float) for b in blocks))
        if field_.uniform_size != m:
            raise ValueError(
                f"declared M={m} does not match block lengths {field_.block_sizes}"
            )
        return field_


def save_tasks(tasks: TaskField, path) -> None:
    with open(path, "w") as fh:
        json.dump(tasks.to_json_dict(), fh, indent=1)
        fh.write("\n")


def load_tasks(path) -> TaskField:
    with open(path) as fh:
        return TaskField.from_json_dict(json.load(fh))


def synth_smooth_tasks(
    spectrum: Spectrum,
    m: int,
    bandwidth: float,
    rng: np.random.Generator,
    scale_fn=None,
) -> TaskField:
    """Draw an exactly bandlimited task field.

    Spectral coefficients for modes with lambda_m <= bandwidth are i.i.d.
    standard normal scaled by scale_fn(lambda_m) (default 1 / (1 + lambda));
    coefficients of higher modes are exactly zero.
    """
    if m < 1:
        raise ValueError("m must be positive")
    if not bandwidth >= 0.0:
        raise ValueError("bandwidth must be nonnegative")
    lam = spectrum.eigenvalues
    coeffs = rng.standard_normal((spectrum.n_agents, m))
    if scale_fn is None:
        scales = 1.0 / (1.0 + lam)
    else:
        scales = np.asarray(scale_fn(lam), dtype=float)
    coeffs *= scales[:, None]
    cutoff = bandwidth + _BANDWIDTH_RTOL * max(1.0, spectrum.lam_max)
    coeffs[lam > cutoff] = 0.0
    return TaskField.from_matrix(spectrum.eigenvectors @ coeffs)


# ---------------------------------------------------------------------------
# Stream models
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class StreamModel:
    """Data-generating model shared by the network.

    kind "mse": d_k(i) = u_{k,i}^T w_k^o + v_k(i), regressors Gaussian with
    covariance r_u (or per-agent identity when r_u is None, which also
    covers fields with unequal block sizes), noise variance noise_var per
    agent. noise_var = 0 is the noiseless limit used by convergence checks.

    kind "logistic": labels gamma = +/-1 with P(gamma=1 | h) =
    sigmoid(h^T w_k^o), Gaussian regressors h, finite ridge coefficient
    reg >= 0.
    """

    kind: str
    truth: TaskField
    r_u: np.ndarray | None = None
    noise_var: np.ndarray | None = None
    reg: float = 0.0
    # the Cholesky factor of r_u (None without r_u), from its check
    _chol: np.ndarray | None = field(default=None, init=False, repr=False)

    __setstate__ = readonly_setstate

    def __post_init__(self):
        if self.kind not in ("mse", "logistic"):
            raise ValueError(f"unknown stream model kind {self.kind!r}")
        n = self.truth.n_agents
        if self.r_u is not None:
            r_u = np.array(self.r_u, dtype=float)
            m = self.truth.uniform_size
            if m is None:
                raise ValueError("shared r_u requires uniform block sizes")
            if r_u.shape != (m, m):
                raise ValueError(f"r_u must be ({m}, {m}), got {r_u.shape}")
            if not np.all(np.isfinite(r_u)):
                raise ValueError("r_u entries must be finite")
            if not is_symmetric(r_u):
                raise ValueError("r_u must be symmetric")
            r_u = 0.5 * (r_u + r_u.T)
            try:
                chol = np.linalg.cholesky(r_u)
            except np.linalg.LinAlgError:
                raise ValueError("r_u must be positive definite")
            r_u.flags.writeable = False
            object.__setattr__(self, "r_u", r_u)
            object.__setattr__(self, "_chol", chol)
        if self.kind == "mse":
            if self.noise_var is None:
                raise ValueError("mse model requires noise_var")
            var = np.array(self.noise_var, dtype=float).ravel()
            if var.size == 1:
                var = np.full(n, var[0])
            if var.size != n:
                raise ValueError(f"noise_var must have {n} entries")
            if np.any(var < 0.0) or not np.all(np.isfinite(var)):
                raise ValueError("noise variances must be finite and >= 0")
            var.flags.writeable = False
            object.__setattr__(self, "noise_var", var)
        else:
            if self.reg < 0.0:
                raise ValueError("logistic ridge coefficient must be >= 0")
            if not np.isfinite(self.reg):
                raise ValueError("logistic ridge coefficient must be finite")

    @property
    def n_agents(self) -> int:
        return self.truth.n_agents


# ---------------------------------------------------------------------------
# Samples
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class NetworkSample:
    """One observation per agent at a single instant.

    regressors is (N, M_max), agent k's regressor zero-padded in row k;
    responses is (N,).
    """

    regressors: np.ndarray
    responses: np.ndarray


@dataclass(frozen=True, eq=False)
class SampleBlock:
    """A whole horizon of network samples.

    regressors is (T, N, M_max), zero-padded like NetworkSample;
    responses is (T, N). draw_horizon gives R runs side by side, with a run
    axis after the time axis: (T, R, N, M_max) and (T, R, N); run(r) is
    one run's block.
    """

    regressors: np.ndarray
    responses: np.ndarray

    @property
    def horizon(self) -> int:
        return self.responses.shape[0]

    def run(self, r: int) -> "SampleBlock":
        return SampleBlock(self.regressors[:, r], self.responses[:, r])

    def at(self, i: int) -> NetworkSample:
        return NetworkSample(self.regressors[i], self.responses[i])


def _draw_agent_block(
    model: StreamModel, k: int, rng: np.random.Generator, count: int
) -> tuple[np.ndarray, np.ndarray]:
    """Draw `count` samples for agent k: regressors first, then noise/labels."""
    m_k = model.truth.block_sizes[k]
    z = rng.standard_normal((count, m_k))
    chol = model._chol
    regs = z if chol is None else z @ chol.T
    w_o = model.truth.blocks[k]
    if model.kind == "mse":
        noise = rng.standard_normal(count) * np.sqrt(model.noise_var[k])
        resp = regs @ w_o + noise
    else:
        uniform = rng.random(count)
        prob = sigmoid(regs @ w_o)
        resp = np.where(uniform < prob, 1.0, -1.0)
    return regs, resp


def draw_horizon(
    model: StreamModel, streams: Sequence[Sequence[np.random.Generator]],
    count: int
) -> SampleBlock:
    """Draw `count` instants for every agent of every run.

    streams holds one row of N generators per run, giving a
    (count, R, N, M_max) block. Each (run, agent) stream is drawn whole,
    regressors then noise, straight into its slot of the block.
    """
    n = model.n_agents
    for row in streams:
        if len(row) != n:
            raise ValueError(f"need {n} streams per run, got {len(row)}")
    resp = np.empty((count, len(streams), n))
    regs = np.zeros((count, len(streams), n, model.truth.padded.shape[1]))
    for r, row in enumerate(streams):
        for k, m_k in enumerate(model.truth.block_sizes):
            regs[:, r, k, :m_k], resp[:, r, k] = _draw_agent_block(
                model, k, row[k], count)
    return SampleBlock(regs, resp)


def network_gradient(model: StreamModel, w: np.ndarray, regressors: np.ndarray,
                     responses: np.ndarray) -> np.ndarray:
    """Stochastic gradient of every agent's risk at its row of w.

    w and regressors are (..., N, M_max), responses (..., N): one network
    sample (a NetworkSample's arrays), or one per run along leading axes.

    mse:      -u_k (d_k - u_k^T w_k)
    logistic: reg * w_k - gamma_k h_k sigmoid(-gamma_k h_k^T w_k)

    Zero pad entries in w and the regressors give zero gradient entries.
    """
    inner = np.einsum("...km,...km->...k", regressors, w)
    if model.kind == "mse":
        return -regressors * (responses - inner)[..., None]
    sig = 0.5 * (1.0 + np.tanh(-0.5 * (responses * inner)))
    return model.reg * w - (responses * sig)[..., None] * regressors
