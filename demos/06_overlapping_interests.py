"""
Agents that estimate different, partially shared variables
==========================================================

Fourteen global variables, four agents on a ring, and nobody estimates
everything. Each agent keeps a parameter block for just the variables
it cares about; the combination step averages a variable only over the
neighbors that also estimate it, with Metropolis weights built per
variable.

The loop below drives the simulation directly through the public API
instead of the harness, because we want to inspect the final states:
each step is the self-learning step followed by the strategy's social
step, both on the zero-padded (agents, largest block) state array.
Two effects show up in the table:

  * a variable shared by exactly two adjacent agents collapses to
    bitwise agreement (both sides apply the same 1/2-1/2 average),
  * a variable shared by three agents along a path keeps a small
    persistent disagreement, because the path ends weight themselves
    more than the middle and one combination sweep is not a consensus.

Either way the spread is far below the deviation from the truth: the
network synchronizes much faster than it learns.
"""

import numpy as np

from adaptnets import (data_stream, draw_horizon, parse_config, resolve,
                       self_learn)

INTERESTS = [
    [0, 1, 4],
    [2, 3, 4, 6, 7, 9],
    [5, 8, 9, 10, 11],
    [9, 10, 12, 13],
]

doc = {
    "schema": 1,
    "seed": 5,
    "iters": 4000,
    "runs": 1,
    "graph": {"kind": "ring", "n": 4},
    "model": {"kind": "mse", "noise_var": 0.1,
              "truth": {"kind": "global_random", "n_variables": 14,
                        "scale": 1.0}},
    "strategy": {"kind": "overlapping", "mu": 0.01, "interests": INTERESTS},
}

res = resolve(parse_config(doc))
model, strategy = res.model, res.strategy
interest = strategy.interest

print("who estimates what:")
for k, ints in enumerate(interest.interests):
    print(f"  agent {k}: variables {list(ints)}")

streams = [data_stream(doc["seed"], 0, k) for k in range(4)]
block = draw_horizon(model, [streams], doc["iters"]).run(0)
w = np.zeros(model.truth.padded.shape)
for i in range(doc["iters"]):
    w = strategy.social(self_learn(w, model, block.regressors[i],
                                   block.responses[i], strategy.mu))

pos = interest.positions
truth = model.truth.blocks

print(f"\n{'variable':>8} {'agents':<10} {'truth':>8} "
      f"{'spread':>9} {'rms error':>10}")
spreads, errors = [], []
for v, agents in enumerate(interest.by_variable):
    if len(agents) < 2:
        continue
    est = np.array([w[k][pos[k][v]] for k in agents])
    tv = truth[agents[0]][pos[agents[0]][v]]
    spread = float(est.max() - est.min())
    rms = float(np.sqrt(np.mean((est - tv) ** 2)))
    spreads.append(spread)
    errors.append(rms)
    print(f"{v:>8} {str(list(agents)):<10} {tv:>8.4f} "
          f"{spread:>9.2e} {rms:>10.2e}")

print(f"\nworst spread across interested agents: {max(spreads):.2e}")
print(f"typical deviation from the truth:      {np.mean(errors):.2e}")

# the per-variable subgraphs must be connected, or the copies of a
# variable could never mix; the builder rejects such maps outright
bad = [list(r) for r in INTERESTS]
bad[0] = [0, 1, 5]  # variable 5 shared by agents 0 and 2: opposite corners
try:
    resolve(parse_config({**doc, "strategy": {**doc["strategy"],
                                              "interests": bad}}))
except Exception as exc:
    print(f"\nnon-adjacent agents sharing a variable are rejected:\n  {exc}")
