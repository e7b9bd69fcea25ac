"""Command-line frontend.

Subcommands: run, theory, sweep, gen-graph, gen-tasks, check. JSON results
go to standard output; progress and errors go to standard error. Exit codes:
0 success, 2 invalid configuration, 3 divergence, 4 I/O failure, 5 failed
self-check.
"""

from __future__ import annotations

import argparse
import json
import sys

from .config import (
    ConfigError,
    ExperimentConfig,
    load_config,
    resolve,
    resolve_pieces,
    run_checks,
)
from .graphs import save_graph
from .harness import (
    DivergenceError,
    eta_sweep,
    run_experiment,
    save_result,
    save_sweep,
)
from .streaming import save_tasks

__all__ = ["main"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGENCE = 3
EXIT_IO = 4
EXIT_CHECK = 5


def _err(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)


def _info(message: str) -> None:
    print(message, file=sys.stderr)


def _print_json(doc) -> None:
    json.dump(doc, sys.stdout, sort_keys=True)
    sys.stdout.write("\n")
    sys.stdout.flush()


# each flag a subcommand may take besides --config and --json, as
# (type, help); every one but --out overrides the config's value
_FLAGS = {"out": (str, "output directory (or file for gen-*)"),
          "seed": (int, "override base seed"),
          "mu": (float, "override step size"),
          "eta": (float, "override coupling strength"),
          "iters": (int, "override horizon"),
          "runs": (int, "override run count"),
          "parallel": (int, "processes that step runs")}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adaptnets",
        description="Distributed streaming multitask learning over graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, summary, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=summary)
        p.add_argument("--config", required=True, help="experiment JSON path")
        for flag in flags:
            kind, text = _FLAGS[flag]
            p.add_argument(f"--{flag}", type=kind, help=text,
                           required=flag == "out" and name.startswith("gen-"))
        p.add_argument("--json", action="store_true",
                       help="print a JSON summary to stdout")
        p.set_defaults(handler=handler)
    return parser


def _load_with_overrides(args) -> ExperimentConfig:
    config = load_config(args.config)
    return config.with_overrides(**{key: getattr(args, key, None)
                                    for key in _FLAGS if key != "out"})


def _cmd_run(args) -> int:
    config = _load_with_overrides(args)
    outdir = args.out or config.out
    if outdir is None:
        raise ConfigError("run needs --out or an 'out' entry in the config")
    result = run_experiment(config)
    csv_path, json_path = save_result(result, outdir)
    for warning in result.warnings:
        _info(f"warning: {warning}")
    _info(f"wrote {csv_path} and {json_path} "
          f"({result.n_runs} runs, {result.wall_time:.2f}s)")
    if args.json:
        _print_json({
            "csv": csv_path, "json": json_path,
            "steady_msd_wo": result.steady_wo.value,
            "steady_msd_wo_stderr": result.steady_wo.stderr,
            "config_hash": result.config_hash,
        })
    return EXIT_OK


def _cmd_theory(args) -> int:
    config = _load_with_overrides(args)
    resolved = resolve(config)
    if resolved.theory is None:
        raise ConfigError(
            "closed-form predictions need an mse model with a shared "
            "regressor covariance"
        )
    _print_json(resolved.theory)
    return EXIT_OK


def _cmd_sweep(args) -> int:
    config = _load_with_overrides(args)
    outdir = args.out or config.out
    if outdir is None:
        raise ConfigError("sweep needs --out or an 'out' entry in the config")
    points = eta_sweep(config)
    csv_path, json_path = save_sweep(points, outdir)
    best = min(points, key=lambda p: p.msd_sim)
    _info(f"wrote {csv_path} and {json_path}; "
          f"min msd {best.msd_sim:.4e} at eta={best.eta:g}")
    if args.json:
        _print_json({"csv": csv_path, "json": json_path,
                     "argmin_eta": best.eta, "min_msd_sim": best.msd_sim})
    return EXIT_OK


def _cmd_gen_graph(args) -> int:
    config = _load_with_overrides(args)
    graph, _ = resolve_pieces(config)
    save_graph(graph, args.out)
    # each edge is in the neighbor lists of both its agents
    _info(f"wrote {args.out} ({graph.n_agents} agents, "
          f"{sum(map(len, graph.neighbor_lists)) // 2} edges)")
    if args.json:
        _print_json({"path": args.out, "n_agents": graph.n_agents})
    return EXIT_OK


def _cmd_gen_tasks(args) -> int:
    config = _load_with_overrides(args)
    _, model = resolve_pieces(config)
    save_tasks(model.truth, args.out)
    _info(f"wrote {args.out} ({model.truth.n_agents} blocks)")
    if args.json:
        _print_json({"path": args.out, "n_agents": model.truth.n_agents})
    return EXIT_OK


def _cmd_check(args) -> int:
    config = _load_with_overrides(args)
    checks = run_checks(config)
    all_pass = all(passed for _, passed, _ in checks)
    for name, passed, detail in checks:
        status = "PASS" if passed else "FAIL"
        suffix = f" ({detail})" if detail else ""
        _info(f"check {name}: {status}{suffix}")
    if args.json:
        _print_json({
            "passed": all_pass,
            "checks": [{"name": name, "passed": passed, "detail": detail}
                       for name, passed, detail in checks],
        })
    if not all_pass:
        failed = [name for name, passed, _ in checks if not passed]
        _err(f"check failed: {', '.join(failed)}")
        return EXIT_CHECK
    return EXIT_OK


_COMMANDS = {
    # name: (handler, help, the flags it takes besides --config and --json)
    "run": (_cmd_run, "run an experiment, write CSV+JSON", tuple(_FLAGS)),
    "theory": (_cmd_theory, "print closed-form predictions",
               ("seed", "mu", "eta")),
    # the config's eta_grid sets eta
    "sweep": (_cmd_sweep, "sweep the coupling strength",
              ("out", "seed", "mu", "iters", "runs", "parallel")),
    "gen-graph": (_cmd_gen_graph, "generate the graph to a file",
                  ("out", "seed")),
    "gen-tasks": (_cmd_gen_tasks, "generate the tasks to a file",
                  ("out", "seed")),
    "check": (_cmd_check, "structural self-checks", ("seed", "mu", "eta")),
}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits on bad usage; keep main() returning instead so
        # in-process callers see the code rather than an exception
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except DivergenceError as exc:
        _err(f"divergence: {exc}")
        return EXIT_DIVERGENCE
    except ValueError as exc:
        # ConfigError and validation errors raised below it
        _err(f"config: {exc}")
        return EXIT_CONFIG
    except OSError as exc:
        _err(f"io: {exc}")
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
