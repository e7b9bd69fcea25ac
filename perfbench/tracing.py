"""Spans around the calls into each adaptnets layer, recorded from outside.

The tracer replaces public names in the adaptnets modules with timing
wrappers for the life of one process; nothing in the package changes.
Spans (name, start, end, parent id, run id) are kept in memory and
written out as JSONL when the process is done. A span's id is its index.
The run id is the Monte Carlo run whose data draw came last (-1 before the
first draw).
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

import numpy as np

import adaptnets.config as config_mod
import adaptnets.harness as harness_mod
import adaptnets.strategies as strategies_mod
import adaptnets.streaming as streaming_mod
import adaptnets.theory as theory_mod

THEORY_PREDICTORS = ("msd_noncooperative", "variance_smoothness",
                     "bias_smoothness", "msd_projection", "filter_bound")


class Tracer:
    def __init__(self):
        # one list per field rather than one object per span, so that a
        # long trace adds no objects for the garbage collector to scan
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.runs: list[int] = []
        self._stack: list[int] = []
        self.run = -1
        self.draw_bytes = 0

    @property
    def spans(self) -> list[tuple]:
        return list(zip(self.names, self.starts, self.ends, self.parents,
                        self.runs))

    def wrap(self, name: str, fn):
        """fn, recording one span per call."""
        names, starts, ends = self.names, self.starts, self.ends
        parents, runs, stack = self.parents, self.runs, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            runs.append(self.run)
            ends.append(0.0)
            stack.append(sid)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()

        return traced

    def _draw(self, fn):
        traced = self.wrap("streaming.draw_horizon", fn)

        def draw(*args, **kwargs):
            self.run += 1
            block = traced(*args, **kwargs)
            regs = block.regressors
            arrays = regs if isinstance(regs, tuple) else (regs,)
            nbytes = block.responses.nbytes + sum(a.nbytes for a in arrays)
            self.draw_bytes = max(self.draw_bytes, nbytes)
            return block

        return draw

    def _builder(self, fn):
        def build_strategy(*args, **kwargs):
            strategy = fn(*args, **kwargs)
            strategy.social = self.wrap("strategies.social", strategy.social)
            return strategy

        return build_strategy

    @contextmanager
    def installed(self):
        """Route the layers' public entry points through this tracer."""
        patches = [
            (harness_mod, "resolve",
             self.wrap("config.resolve", config_mod.resolve)),
            (config_mod, "resolve_pieces",
             self.wrap("config.resolve_pieces", config_mod.resolve_pieces)),
            (config_mod, "build_strategy",
             self._builder(config_mod.build_strategy)),
            (harness_mod, "draw_horizon", self._draw(harness_mod.draw_horizon)),
            (streaming_mod.SampleBlock, "at",
             self.wrap("streaming.at", streaming_mod.SampleBlock.at)),
            (strategies_mod, "self_learn",
             self.wrap("strategies.self_learn", strategies_mod.self_learn)),
        ] + [(theory_mod, name, self.wrap(f"theory.{name}",
                                          getattr(theory_mod, name)))
             for name in THEORY_PREDICTORS]
        saved = [(obj, attr, getattr(obj, attr)) for obj, attr, _ in patches]
        try:
            for obj, attr, new in patches:
                setattr(obj, attr, new)
            yield self
        finally:
            for obj, attr, old in saved:
                setattr(obj, attr, old)

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for sid, (name, start, end, parent, run) in enumerate(self.spans):
                fh.write(json.dumps({"id": sid, "name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "run": run}) + "\n")


def _us(values) -> tuple[float, float]:
    """Median and 99th percentile of durations, in microseconds."""
    if not values:
        return 0.0, 0.0
    arr = np.asarray(values) * 1e6
    return float(np.median(arr)), float(np.percentile(arr, 99))


def layer_metrics(spans: list[tuple], wall_time: float, steps: int,
                  n_agents: int) -> dict:
    """Per-layer figures from the spans of one traced repetition.

    The repetition made one set-up resolve() and then one serial
    run_experiment() of `steps` = runs * iters network steps, whose harness
    timed its run loop as `wall_time`.
    """
    dur = [end - start for _, start, end, _, _ in spans]
    roots = {}
    for sid, (name, _, _, parent, _) in enumerate(spans):
        if parent == -1:
            roots.setdefault(name, sid)
    setup, run = roots["config.resolve"], roots["harness.run_experiment"]

    def children(parent, prefix=""):
        return [sid for sid, s in enumerate(spans)
                if s[3] == parent and s[0].startswith(prefix)]

    def total(sids):
        return sum(dur[sid] for sid in sids)

    pieces = total(children(setup, "config.resolve_pieces"))
    theory = total(children(setup, "theory."))
    in_run = {}
    for sid in children(run):
        in_run.setdefault(spans[sid][0], []).append(sid)
    resolves = in_run.get("config.resolve", [])
    parent_resolve = total(resolves[:1])
    layers = {name: in_run.get(name, []) for name in (
        "streaming.draw_horizon", "streaming.at", "strategies.self_learn",
        "strategies.social")}
    accounted = total(resolves[1:]) + sum(total(s) for s in layers.values())
    self_learn = _us([dur[s] for s in layers["strategies.self_learn"]])
    social = _us([dur[s] for s in layers["strategies.social"]])
    at = _us([dur[s] for s in layers["streaming.at"]])
    return {
        "config.resolve_pieces_s": pieces,
        "theory.predict_s": theory,
        "strategies.build_s": dur[setup] - pieces - theory,
        "strategies.self_learn_us_per_step": self_learn[0],
        "strategies.self_learn_us_per_step_p99": self_learn[1],
        "strategies.social_us_per_step": social[0],
        "strategies.social_us_per_step_p99": social[1],
        "strategies.step_calls": len(layers["strategies.social"]),
        "streaming.draw_us_per_agent_step":
            total(layers["streaming.draw_horizon"]) / (steps * n_agents) * 1e6,
        "streaming.at_us_per_step": at[0],
        "streaming.at_us_per_step_p99": at[1],
        "harness.resolve_calls": len(resolves),
        "harness.record_us_per_step": (wall_time - accounted) / steps * 1e6,
        "harness.aggregate_s": dur[run] - wall_time - parent_resolve,
        "harness.save_s": total(children(-1, "harness.save_result")),
    }
