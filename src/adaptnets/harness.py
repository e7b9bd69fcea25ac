"""Monte Carlo harness: run experiments, aggregate, and persist results.

Runs are independent by construction (per-(run, agent) random streams).
The engine steps a chunk of R runs as one (R, N, M_max) state: every
social step takes the run axis and mixes each run as it would mix it
alone, so a run's numbers do not depend on which chunk or process steps
it. The streams of a chunk are seeded in one batched pass, bit-identical
to numpy's SeedSequence with the same spawn keys. Serial and parallel
execution produce bit-identical aggregates: the runs are cut into one
contiguous group per process, the calling process steps the first group
while worker processes step the others, and results are combined in run
order. Each worker is a plain multiprocessing.Process, under whatever
start method is set, handed its run indices, the resolved experiment and
the write end of its own pipe, over which it sends back its part or its
error. The first error in group order is raised, after the pipes are
closed and every other worker is stopped and reaped; a worker that dies
without a reply is named by its runs and exit code. A process
holds one chunk at a time, so memory is about processes x CHUNK_BYTES.
The process count is the config's parallel key, which `adaptnets run
--parallel` overrides like any other key; run_experiment's parallel
argument replaces it for one call.

run_experiment resolves the config once, before any run starts (so a bad
config fails fast), and hands that experiment to every group: forked
workers inherit it, and under spawn or forkserver each worker unpickles
it, the graph, model and theory as the parent holds them and the strategy
rebuilt by its kind's builder (see strategies.Strategy). A worker under
any start method steps the parent's experiment and reads no file. Nothing
outlives the call, so the files a config names are read on every run.
"""

from __future__ import annotations

import json
import math
import os
import pickle
import time
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import strategies
from .config import (
    ConfigError,
    ExperimentConfig,
    ResolvedExperiment,
    data_streams,
    load_config,
    parse_config,
    resolve,
)
from .strategies import STRATEGY_KINDS
from .streaming import draw_horizon

__all__ = [
    "CHUNK_BYTES",
    "DIVERGENCE_FACTOR",
    "SETTLED_DRIFT",
    "DivergenceError",
    "SteadyState",
    "ExperimentResult",
    "SweepPoint",
    "ComparisonEntry",
    "TheoryComparison",
    "steady_state",
    "run_experiment",
    "eta_sweep",
    "compare_theory",
    "save_result",
    "save_sweep",
]

# A run is abandoned once the network error exceeds this multiple of its
# starting value (floored at 1 so a zero-error start still has a reference).
DIVERGENCE_FACTOR = 1e6

# Largest |slope| * window-span / |mean| ratio still reported as settled.
SETTLED_DRIFT = 0.1

# Bytes of sample data one chunk of runs may hold: iters * N * (M_max + 1)
# float64s per run (regressors and responses), drawn whole because a stream
# cut into time tiles would give other values. The chunk holds
# max(1, CHUNK_BYTES // that) runs, and a process holds one chunk at a time,
# so memory is about processes x CHUNK_BYTES. 64 MiB gives 6 runs per chunk
# at 9.6 MB per run (20 agents, M = 2, 20000 iterations), enough to spread
# the per-step Python cost, while 4 processes stay near 256 MiB.
CHUNK_BYTES = 64 * 2**20

# The post-step states are kept and their errors computed this many steps
# at a time, for all runs of a chunk at once.
_RECORD_BLOCK = 64


class DivergenceError(RuntimeError):
    """The recursion blew up; step sizes are too aggressive. run is the
    Monte Carlo run that crossed the threshold, agent_errors every agent's
    squared error at that record, and the message names the three worst
    agents (nan first, then the largest)."""

    def __init__(self, iteration: int, value: float, threshold: float,
                 mu: float, eta: float, agent_errors: np.ndarray, run: int):
        # rebuilt from these when a worker process hands it to the parent
        self._init_args = (iteration, value, threshold, mu, eta, agent_errors,
                           run)
        self.iteration = iteration
        self.value = value
        self.threshold = threshold
        self.agent_errors = agent_errors
        self.run = run
        worst = ", ".join(f"{k} ({agent_errors[k]:.3e})"
                          for k in np.argsort(agent_errors)[::-1][:3])
        super().__init__(
            f"divergence in run {run} at iteration {iteration}: network error "
            f"{value:.3e} exceeds {threshold:.3e} (mu={mu:g}, eta={eta:g}); "
            f"worst agents: {worst}"
        )

    def __reduce__(self):
        return type(self), self._init_args


@dataclass(frozen=True)
class SteadyState:
    """Mean over the tail window of a trajectory.

    drift_ratio is |fitted slope| * (window span) / |mean|; a large value
    means the window average is still moving and should not be read as a
    steady-state level. A window of one point has no slope: its
    drift_ratio is 0.0, and it is not settled, as its drift was never
    measured.
    """

    value: float
    stderr: float
    n_points: int
    drift_ratio: float

    @property
    def settled(self) -> bool:
        return self.n_points >= 2 and self.drift_ratio <= SETTLED_DRIFT


def _window_start(n_points: int, fraction: float) -> int:
    if not (0.0 < fraction <= 1.0):
        raise ValueError("fraction must be in (0, 1]")
    return n_points - math.ceil(fraction * n_points)


def _drift_ratio(window: np.ndarray, mean: float) -> float:
    n = window.size
    if n < 2:
        return 0.0
    x = np.arange(n, dtype=float)
    slope = np.polyfit(x, window, 1)[0]
    return float(abs(slope) * (n - 1) / max(abs(mean), np.finfo(float).tiny))


def steady_state(trajectory, fraction: float = 0.1) -> SteadyState:
    """Tail-window mean of a recorded trajectory.

    Parameters
    ----------
    trajectory : array_like
        Either a single trajectory of shape (T,) or a stack of per-run
        trajectories of shape (R, T).
    fraction : float
        The window covers the last ceil(fraction * T) recorded points.

    Returns
    -------
    SteadyState
        For (R, T) input the standard error is taken across the per-run
        window means; for a single trajectory it falls back to the scatter
        of the points inside the window.
    """
    traj = np.asarray(trajectory, dtype=float)
    if traj.ndim == 1:
        traj = traj[None, :]
    if traj.ndim != 2 or traj.shape[1] == 0:
        raise ValueError("trajectory must be (T,) or (R, T) with T >= 1")
    n_runs, n_points = traj.shape
    start = _window_start(n_points, fraction)
    window = traj[:, start:]
    per_run = window.mean(axis=1)
    value = float(per_run.mean())
    if n_runs > 1:
        stderr = float(per_run.std(ddof=1) / math.sqrt(n_runs))
    elif window.shape[1] > 1:
        stderr = float(window[0].std(ddof=1) / math.sqrt(window.shape[1]))
    else:
        stderr = 0.0
    drift = _drift_ratio(window.mean(axis=0), value)
    return SteadyState(value=value, stderr=stderr,
                       n_points=int(window.shape[1]), drift_ratio=drift)


@dataclass(frozen=True, eq=False)
class ExperimentResult:
    """Aggregated Monte Carlo output of one experiment."""

    iterations: np.ndarray
    msd_wo: np.ndarray
    msd_wstar: np.ndarray | None
    stderr: np.ndarray
    steady_wo: SteadyState
    steady_wstar: SteadyState | None
    per_agent_msd: np.ndarray
    theory: dict | None
    n_runs: int
    n_agents: int
    seed: int
    config_hash: str
    effective_config: dict
    wall_time: float
    warnings: tuple[str, ...]


def _simulate_runs(res: ResolvedExperiment, first: int, stop: int) -> dict:
    """Runs first .. stop - 1 of res, stepped a chunk at a time.
    Module-level so worker processes can call it.

    Returns the per-run trajectories (R, T / record_every) and window means
    (R, N). A divergence raises the error of the lowest-index diverging run.
    """
    cfg = res.config
    n, m_max = res.model.truth.padded.shape
    size = max(1, CHUNK_BYTES // (cfg.iters * n * (m_max + 1) * 8))
    parts = [_simulate_chunk(res, range(start, min(start + size, stop)))
             for start in range(first, stop, size)]
    return {key: None if parts[0][key] is None
            else np.concatenate([part[key] for part in parts])
            for key in parts[0]}


def _simulate_chunk(res: ResolvedExperiment, runs: range) -> dict:
    """Step `runs` together as one (R, N, M_max) state.

    Every number equals what stepping each run alone gives, bit for bit:
    each (run, agent) stream is drawn whole, as for one run, and the steps
    and error sums act on each run's slice as they act on one run. Runs
    keep stepping after one of them diverges, because a lower-index run may
    still diverge later, and its error is the one to raise. Floating-point
    warnings (or errors, as np.seterr sets them) show for every step up to
    the chunk's first crossing, as a lone run would give them; past it the
    chunk is bound to raise, and what its runs meet there stays silent.
    Self-learning and the social step write into buffers the chunk owns.
    """
    cfg = res.config
    strategy, model = res.strategy, res.model
    self_learn, social = strategies.self_learn, strategy.social
    mu = strategy.mu
    n = res.graph.n_agents
    horizon, every = cfg.iters, cfg.record_every

    block = draw_horizon(model, data_streams(cfg.seed, runs, n), horizon)
    regs, resp = block.regressors, block.responses

    # the state starts at 0; pad entries are 0 on both sides and add nothing
    truth, wstar_ref = model.truth.padded, res.w_star
    shape = regs.shape[1:]
    w = np.zeros(shape)
    start_err = np.einsum("km,km->k", truth, truth)
    threshold = DIVERGENCE_FACTOR * max(float(start_err.mean()), 1.0)

    n_rec = horizon // every
    traj_wo = np.empty((len(runs), n_rec))
    traj_ws = np.empty((len(runs), n_rec)) if wstar_ref is not None else None
    window_start = _window_start(horizon, cfg.steady_window)
    # the steps measured: those in the window (a suffix) or recorded
    iterations = np.arange(1, horizon + 1)
    recorded = iterations % every == 0
    needed = recorded.copy()
    needed[window_start:] = True
    agent_acc = np.zeros((len(runs), n))
    diverged = {}   # run position -> (iteration, value, agent errors)

    # buffers the chunk owns: a step's psi, the block's start state and
    # running sum, the record block of post-step states, which the social
    # step writes row by row, and the block's errors
    psi, start = np.empty(shape), np.empty(shape)
    start_acc = np.empty_like(agent_acc)
    states = np.empty((_RECORD_BLOCK,) + shape)
    rows = tuple(states)
    diff = np.empty_like(states)
    sq = np.empty(states.shape[:-1])
    running = np.empty((_RECORD_BLOCK + 1,) + agent_acc.shape)

    def advance(acc, t0, t1):
        """Step t0 .. t1 - 1 from start and measure the steps that are in
        the window or recorded: add the window's errors to acc, and return
        the last state and the recorded iterations with their per-agent
        errors (B, R, N), MSDs (B, R) and w* MSDs."""
        w = start
        for x, d, row in zip(regs[t0:t1], resp[t0:t1], rows):
            w = social(self_learn(w, model, x, d, mu, out=psi), out=row)
        kept, keep = states[:t1 - t0], needed[t0:t1]
        if not keep.all():
            kept = kept[keep]
        size = len(kept)
        dev = np.subtract(kept, truth, out=diff[:size])
        err = np.einsum("...km,...km->...k", dev, dev, out=sq[:size])
        window = t1 - max(t0, window_start)
        if window > 0:
            # added one step after another, as a running sum must be
            total = running[:window + 1]
            np.concatenate([acc[None], err[size - window:]], out=total)
            np.add.accumulate(total, axis=0, out=total)
            np.copyto(acc, total[-1])
        picked = recorded[t0:t1][keep]
        if not picked.all():
            err, kept = err[picked], kept[picked]
        ws = None
        if wstar_ref is not None:
            dev = np.subtract(kept, wstar_ref, out=diff[:len(kept)])
            ws = np.einsum("...km,...km->...", dev, dev) / n
        at = iterations[t0:t1][recorded[t0:t1]]
        return w, at, err, err.mean(axis=-1), ws

    # floating-point events are noted, not shown, until the block is
    # measured and the chunk's first crossing known
    watch = {kind: "call" for kind, mode in np.geterr().items()
             if mode != "ignore"}
    events = []

    def noted(kind, flag):
        events.append(kind)

    rec = 0
    for t0 in range(0, horizon, _RECORD_BLOCK):
        t1 = min(t0 + _RECORD_BLOCK, horizon)
        # the block's rows are written over, its last state among them
        np.copyto(start, w)
        np.copyto(start_acc, agent_acc)
        events.clear()
        with (np.errstate(all="ignore") if diverged
              else np.errstate(**watch, call=noted)):
            w, at, err, msd, ws = advance(agent_acc, t0, t1)
        traj_wo[:, rec:rec + len(msd)] = msd.T
        if ws is not None:
            traj_ws[:, rec:rec + len(msd)] = ws.T
        rec += len(msd)
        bad = ~np.isfinite(msd) | (msd > threshold)
        for r in np.flatnonzero(bad.any(axis=0)):
            if r not in diverged:
                b = int(np.argmax(bad[:, r]))
                diverged[r] = (int(at[b]), float(msd[b, r]), err[b, r].copy())
        if events:
            # step and measure the block again, up to the first crossing,
            # under the caller's settings: the same numbers, now shown
            stop = min([t1] + [it for it, _, _ in diverged.values()])
            advance(start_acc, t0, stop)
        if 0 in diverged:
            break
    if diverged:
        r = min(diverged)
        at, value, errors = diverged[r]
        raise DivergenceError(at, value, threshold, strategy.mu, strategy.eta,
                              errors, runs[r])
    return {
        "msd_wo": traj_wo,
        "msd_wstar": traj_ws,
        "per_agent": agent_acc / max(horizon - window_start, 1),
    }


def _worker(group, conn) -> None:
    """Step one group of runs in a worker process and send back
    (True, part) or (False, (error, its traceback as text)) over conn. An
    error that would not come back whole is sent as a RuntimeError naming
    its type and message."""
    try:
        reply = (True, group())
    except Exception as exc:
        import traceback

        trace = "".join(traceback.format_exception(exc))
        try:
            pickle.loads(pickle.dumps(exc))
        except Exception as why:
            exc = RuntimeError(
                f"{type(exc).__module__}.{type(exc).__qualname__}: {exc} "
                f"(the error itself could not be sent: {why!r})")
        reply = (False, (exc, trace))
    conn.send(reply)
    conn.close()


def _run_groups(groups: list, bounds: list) -> list[dict]:
    """The parts of groups, in order: worker processes step groups
    1 .. P - 1, each sending its part over its own pipe, while this process
    steps group 0. The lowest group's error is the one raised, the
    divergence of the lowest run; once it is known, the pipes are closed
    and the other workers stopped. No worker outlives the call."""
    procs, conns = [], []
    try:
        for group in groups[1:]:
            # loaded only where a worker starts, so serial runs never load it
            import multiprocessing

            reader, writer = multiprocessing.Pipe(duplex=False)
            proc = multiprocessing.Process(target=_worker,
                                           args=(group, writer), daemon=True)
            proc.start()
            # the worker holds the only write end, so its death reads as EOF
            writer.close()
            procs.append(proc)
            conns.append(reader)
        parts = [groups[0]()]
        for proc, conn, first, stop in zip(procs, conns, bounds[1:],
                                           bounds[2:]):
            try:
                ok, value = conn.recv()
            except EOFError:
                proc.join()
                raise RuntimeError(
                    f"worker for runs {first}..{stop - 1} exited with code "
                    f"{proc.exitcode} without a reply") from None
            if not ok:
                error, trace = value
                raise error from RuntimeError(
                    f"in the worker for runs {first}..{stop - 1}:\n{trace}")
            parts.append(value)
        return parts
    except BaseException:
        # closed first, so that no worker blocked on a write holds the join
        for conn in conns:
            conn.close()
        for proc in procs:
            proc.terminate()
        raise
    finally:
        for conn in conns:
            conn.close()
        for proc in procs:
            proc.join()


def run_experiment(config: ExperimentConfig | dict | str | os.PathLike,
                   parallel: int | None = None) -> ExperimentResult:
    """Run the configured experiment and aggregate across runs.

    config may be a parsed ExperimentConfig, a raw dict, or a path to a
    JSON file. The process count is the config's parallel key; a parallel
    argument replaces it. Aggregation is performed in fixed run order, so
    the result does not depend on the process count.
    """
    if isinstance(config, (str, os.PathLike)):
        config = load_config(config)
    elif isinstance(config, dict):
        config = parse_config(config)
    resolved = resolve(config)
    processes = min(config.parallel if parallel is None else max(parallel, 1),
                    config.runs)
    # contiguous groups of runs, one per process
    bounds = [config.runs * g // processes for g in range(processes + 1)]
    groups = [partial(_simulate_runs, resolved, first, stop)
              for first, stop in zip(bounds, bounds[1:])]
    if processes > 1:
        # the package alone is loaded here, untimed, so that serial runs
        # never load it; Pipe() loads multiprocessing.connection and
        # Process.start() the start method's Popen module, both inside
        # wall_time
        import multiprocessing  # noqa: F401
    t0 = time.perf_counter()
    parts = _run_groups(groups, bounds)
    wall = time.perf_counter() - t0

    runs_wo = np.concatenate([part["msd_wo"] for part in parts])
    mean_wo = runs_wo.mean(axis=0)
    if config.runs > 1:
        stderr = runs_wo.std(axis=0, ddof=1) / math.sqrt(config.runs)
    else:
        stderr = np.zeros_like(mean_wo)
    steady_wo = steady_state(runs_wo, config.steady_window)

    msd_wstar = None
    steady_ws = None
    if parts[0]["msd_wstar"] is not None:
        runs_ws = np.concatenate([part["msd_wstar"] for part in parts])
        msd_wstar = runs_ws.mean(axis=0)
        steady_ws = steady_state(runs_ws, config.steady_window)

    runs_agent = np.concatenate([part["per_agent"] for part in parts])
    per_agent = runs_agent.mean(axis=0)
    iterations = np.arange(1, len(mean_wo) + 1) * config.record_every

    warnings = []
    if steady_wo.n_points < 2:
        warnings.append(
            f"steady-state window holds {steady_wo.n_points} recorded point: "
            f"drift not measured; increase iters or steady_window"
        )
    elif not steady_wo.settled:
        warnings.append(
            f"steady-state window still drifting "
            f"(drift_ratio={steady_wo.drift_ratio:.3g}); increase iters"
        )
    return ExperimentResult(
        iterations=iterations,
        msd_wo=mean_wo,
        msd_wstar=msd_wstar,
        stderr=stderr,
        steady_wo=steady_wo,
        steady_wstar=steady_ws,
        per_agent_msd=per_agent,
        theory=resolved.theory,
        n_runs=config.runs,
        n_agents=resolved.graph.n_agents,
        seed=config.seed,
        config_hash=resolved.config_hash,
        effective_config=json.loads(config.canonical_json()),
        wall_time=wall,
        warnings=tuple(warnings),
    )


# ---------------------------------------------------------------------------
# Regularization sweeps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepPoint:
    eta: float
    msd_sim: float
    msd_stderr: float
    var_sim: float
    var_stderr: float
    var_theory: float
    bias_theory: float
    settled: bool


def eta_sweep(config: ExperimentConfig | dict, etas=None) -> list[SweepPoint]:
    """Rerun the experiment over a grid of coupling strengths.

    Each grid point reuses the base seed, so the sweep isolates the effect
    of eta from Monte Carlo noise as far as possible. The theory columns
    are NaN wherever theory.closed_forms attaches no variance or bias.
    """
    if isinstance(config, dict):
        config = parse_config(config)
    kind = config.strategy["kind"]
    if not STRATEGY_KINDS[kind].uses_eta:
        coupling = [k for k, entry in STRATEGY_KINDS.items() if entry.uses_eta]
        raise ConfigError(
            f"eta sweep needs a strategy that uses eta {coupling}, got {kind!r}"
        )
    grid = tuple(etas) if etas is not None else config.eta_grid
    if not grid:
        raise ConfigError("eta sweep needs eta_grid in the config or explicit etas")
    points = []
    for eta in grid:
        result = run_experiment(config.with_overrides(eta=float(eta)))
        theory = result.theory or {}
        var_t = theory.get("variance", {}).get("total", math.nan)
        bias_t = theory.get("bias", {}).get("total", math.nan)
        if result.steady_wstar is not None:
            var_sim = result.steady_wstar.value
            var_se = result.steady_wstar.stderr
        else:
            var_sim, var_se = math.nan, math.nan
        points.append(SweepPoint(
            eta=float(eta),
            msd_sim=result.steady_wo.value,
            msd_stderr=result.steady_wo.stderr,
            var_sim=var_sim,
            var_stderr=var_se,
            var_theory=var_t,
            bias_theory=bias_t,
            settled=result.steady_wo.settled,
        ))
    return points


# ---------------------------------------------------------------------------
# Theory comparison
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ComparisonEntry:
    name: str
    simulated: float
    predicted: float
    rel_error: float
    within: bool


@dataclass(frozen=True)
class TheoryComparison:
    entries: tuple[ComparisonEntry, ...]
    tolerance: float
    notes: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return all(e.within for e in self.entries)


def compare_theory(result: ExperimentResult, tolerance: float = 0.15,
                   predictions: dict | None = None) -> TheoryComparison:
    """Relative agreement between steady-state simulation and predictions.

    Compares the steady network error against the predicted level, and the
    error around the limit point against the variance prediction when both
    are available.
    """
    theory = (predictions if predictions is not None else result.theory) or {}
    entries = []
    notes = []
    if "msd" not in theory:
        notes.append("no closed-form MSD prediction for this configuration")
    tiny = np.finfo(float).tiny

    def add(name: str, simulated: float, predicted: float):
        rel = abs(simulated - predicted) / max(abs(predicted), tiny)
        entries.append(ComparisonEntry(name, simulated, predicted, rel,
                                       rel <= tolerance))

    if "msd" in theory:
        add("msd", result.steady_wo.value, float(theory["msd"]))
    if "variance" in theory and result.steady_wstar is not None:
        add("variance", result.steady_wstar.value,
            float(theory["variance"]["total"]))
    if not result.steady_wo.settled:
        notes.append("window not settled; comparison may be premature")
    return TheoryComparison(entries=tuple(entries), tolerance=tolerance,
                            notes=tuple(notes))


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------

def _fmt(value: float) -> str:
    return repr(float(value))


def _or_null(value: float) -> float | None:
    """value, or None where it is NaN (a column with no value): JSON has
    no NaN, and json.dump would write a bare token strict parsers refuse."""
    return None if math.isnan(value) else value


def _steady_dict(s: SteadyState | None) -> dict | None:
    if s is None:
        return None
    return {"value": s.value, "stderr": s.stderr, "n_points": s.n_points,
            "drift_ratio": s.drift_ratio, "settled": s.settled}


def save_result(result: ExperimentResult, outdir) -> tuple[str, str]:
    """Write result.csv (trajectory) and result.json (summary) to outdir."""
    os.makedirs(outdir, exist_ok=True)
    csv_path = os.path.join(outdir, "result.csv")
    json_path = os.path.join(outdir, "result.json")
    # one row per record, each float as _fmt writes it: repr of a float
    wstar = ([""] * len(result.iterations) if result.msd_wstar is None
             else map(repr, result.msd_wstar.tolist()))
    rows = map("{},{},{},{}\n".format, map(int, result.iterations.tolist()),
               map(repr, result.msd_wo.tolist()), wstar,
               map(repr, result.stderr.tolist()))
    with open(csv_path, "w") as fh:
        fh.write("iter,msd_wo,msd_wstar,stderr\n" + "".join(rows))
    doc = {
        "schema": 1,
        "seed": result.seed,
        "config_hash": result.config_hash,
        "n_runs": result.n_runs,
        "n_agents": result.n_agents,
        "wall_time_s": result.wall_time,
        "steady": {
            "msd_wo": _steady_dict(result.steady_wo),
            "msd_wstar": _steady_dict(result.steady_wstar),
            "per_agent_msd": result.per_agent_msd.tolist(),
        },
        "theory": result.theory,
        "warnings": list(result.warnings),
        "config": result.effective_config,
    }
    with open(json_path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return csv_path, json_path


def save_sweep(points: list[SweepPoint], outdir) -> tuple[str, str]:
    """Write sweep.csv (headline columns) and sweep.json (full detail).
    sweep.json holds null where a column has no value; sweep.csv, like
    SweepPoint, holds nan."""
    os.makedirs(outdir, exist_ok=True)
    csv_path = os.path.join(outdir, "sweep.csv")
    json_path = os.path.join(outdir, "sweep.json")
    with open(csv_path, "w") as fh:
        fh.write("eta,msd_sim,var_sim,var_theory,bias_theory\n")
        for p in points:
            fh.write(f"{_fmt(p.eta)},{_fmt(p.msd_sim)},{_fmt(p.var_sim)},"
                     f"{_fmt(p.var_theory)},{_fmt(p.bias_theory)}\n")
    best = min(points, key=lambda p: p.msd_sim)
    doc = {
        "schema": 1,
        "argmin_eta": best.eta,
        "min_msd_sim": best.msd_sim,
        "points": [{
            "eta": p.eta, "msd_sim": p.msd_sim, "msd_stderr": p.msd_stderr,
            "var_sim": _or_null(p.var_sim),
            "var_stderr": _or_null(p.var_stderr),
            "var_theory": _or_null(p.var_theory),
            "bias_theory": _or_null(p.bias_theory),
            "settled": p.settled,
        } for p in points],
    }
    with open(json_path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return csv_path, json_path
