"""Command line front end.

Subcommands
-----------
- ``generate-data``: roll out a uniform behavior pair, write JSON lines.
- ``run``: one pessimistic backward pass on one dataset, print diagnostics.
- ``rate-sweep``: repeat ``run`` across dataset sizes and seeds, write a CSV,
  fit the log-log decay rate of the mean duality gap.
- ``lower-bound``: the paired-game indistinguishability experiment.
- ``solve-matrix``: solve a single zero-sum matrix game.

Exit codes: 0 on success, 2 for configuration or usage errors, 3 when a
numerical invariant is violated.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from .data import OfflineDataset, balanced_schedule, collect_behavior, load_dataset, save_dataset, validate_dataset
from .errors import ConfigError, InvariantError
from .evaluation import exact_nash_values
from .games import (
    MarkovPolicy,
    TabularLinearMG,
    _json_numbers,
    cyclic_bandit,
    load_game,
    mixed_bandit,
    spurious_equilibrium_pair,
    three_state_game,
)
from .hard_instances import build_game, run_lower_bound_experiment
from .matrix_nash import solve_zero_sum
from .uncertainty import diagnose, well_explored_check
from .value_iteration import PmviConfig, output_to_dict, run_pmvi

# Each entry calls through this module's binding, so a wrapper patched onto
# it (as the bench tracer does) sees the call.
_BUILTIN_GAMES = {
    "bandit-a": lambda: spurious_equilibrium_pair()[0],
    "bandit-b": lambda: spurious_equilibrium_pair()[1],
    "bandit-cyclic": lambda: cyclic_bandit(),
    "bandit-mixed": lambda: mixed_bandit(),
    "three-state": lambda: three_state_game(),
}
_REGISTRY_HELP = " | ".join(
    [*_BUILTIN_GAMES, "hard:p1=..,p2=..[,actions=..][,horizon=..]", "path to a .json game file"]
)


def _load_game_spec(spec: str) -> TabularLinearMG:
    if spec in _BUILTIN_GAMES:
        return _BUILTIN_GAMES[spec]()
    if spec.startswith("hard:"):
        fields: dict[str, str] = {}
        for item in spec[len("hard:") :].split(","):
            if "=" not in item:
                raise ConfigError(f"bad hard-instance field {item!r}; expected key=value")
            key, value = (part.strip() for part in item.split("=", 1))
            if key in fields:
                raise ConfigError(f"hard-instance field {key!r} given twice")
            fields[key] = value
        try:
            p1 = float(fields.pop("p1"))
            p2 = float(fields.pop("p2"))
            n_actions = int(fields.pop("actions", 3))
            horizon = int(fields.pop("horizon", 3))
        except KeyError as exc:
            raise ConfigError(f"hard-instance spec is missing {exc}") from exc
        except ValueError as exc:
            raise ConfigError(f"bad hard-instance value: {exc}") from exc
        if fields:
            raise ConfigError(f"unknown hard-instance fields {sorted(fields)}")
        return build_game(p1, p2, n_actions=n_actions, horizon=horizon)
    if spec.endswith(".json") or "/" in spec:
        return load_game(spec)
    raise ConfigError(f"unknown game {spec!r}; expected one of: {_REGISTRY_HELP}")


def _parse_seeds(spec: str) -> list[int]:
    """Either a count (``200`` means seeds 0..199) or an explicit list ``3,7,11``;
    at least one seed, none negative."""
    try:
        seeds = [int(part) for part in spec.split(",")] if "," in spec else list(range(int(spec)))
    except ValueError as exc:
        raise ConfigError(f"bad seed spec {spec!r}: {exc}") from exc
    if not seeds:
        raise ConfigError(f"seed spec {spec!r} gives no seeds; need at least one")
    if min(seeds) < 0:
        raise ConfigError(f"--seeds entries must be >= 0, got {min(seeds)}")
    return seeds


def _parse_k_list(spec: str) -> list[int]:
    try:
        values = [int(part) for part in spec.split(",")]
    except ValueError as exc:
        raise ConfigError(f"bad dataset-size list {spec!r}: {exc}") from exc
    if any(v < 1 for v in values):
        raise ConfigError("dataset sizes must be >= 1")
    return values


def _config_from_args(args: argparse.Namespace) -> PmviConfig:
    return PmviConfig(beta=args.beta, c=args.c, p=args.p)


def _collect_uniform(game: TabularLinearMG, k: int, seed: int) -> OfflineDataset:
    """``k`` trajectories under the uniform behavior pair, drawn from ``seed``."""
    if seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {seed}")
    uniform = MarkovPolicy.uniform(game, 1), MarkovPolicy.uniform(game, 2)
    return collect_behavior(game, *uniform, k, np.random.default_rng(seed))


def _uniform_lambda_min(game: TabularLinearMG) -> list[float]:
    """Per-step smallest eigenvalue of ``E[phi phi']`` under the uniform behavior pair."""
    uniform = MarkovPolicy.uniform(game, 1), MarkovPolicy.uniform(game, 2)
    return well_explored_check(game, *uniform).tolist()


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return repr(value)
    if value is None:
        return ""
    return str(value)


def _write_csv(path: str, header: list[str], rows: list[list]) -> None:
    text = ",".join(header) + "\n"
    text += "".join(",".join(_fmt(cell) for cell in row) + "\n" for row in rows)
    Path(path).write_text(text)


def _print_json(doc: dict) -> None:
    print(json.dumps(doc, indent=2, sort_keys=True))


# ---------------------------------------------------------------------------
# generate-data


def _cmd_generate_data(args: argparse.Namespace) -> int:
    dataset = _collect_uniform(_load_game_spec(args.game), args.k, args.seed)
    save_dataset(dataset, args.out, seed=args.seed)
    _print_json({"out": args.out, "k": dataset.k, "horizon": dataset.horizon, "seed": args.seed})
    return 0


# ---------------------------------------------------------------------------
# run


def _cmd_run(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    if (args.dataset is None) == (args.k is None):
        raise ConfigError("give exactly one of --dataset or --k")
    if args.dataset is not None and args.seed is not None:
        raise ConfigError("--seed goes with --k; a --dataset file was drawn already")
    game = _load_game_spec(args.game)
    if args.dataset is not None:
        dataset = load_dataset(args.dataset)
        validate_dataset(game, dataset)
        lams = None  # the behavior pair behind a file is unknown
    else:
        dataset = _collect_uniform(game, args.k, args.seed or 0)
        lams = _uniform_lambda_min(game)
    output = run_pmvi(game, dataset, config)
    doc = {
        "game": args.game,
        "k": dataset.k,
        "horizon": game.horizon,
        "dim": game.dim,
        "c": None if args.beta is not None else args.c,
        "lambda_min": lams,
        **diagnose(game, output, exact_nash_values(game)),
    }
    if args.dump is not None:
        Path(args.dump).write_text(json.dumps(output_to_dict(output), sort_keys=True))
    _print_json(doc)
    return 0


# ---------------------------------------------------------------------------
# rate-sweep


def _sweep_row(task: tuple) -> dict:
    game, nash, k, seed, config = task
    output = run_pmvi(game, _collect_uniform(game, k, seed), config)
    return {
        "seed": seed,
        "K": k,
        "c": None if config.beta is not None else config.c,
        **diagnose(game, output, nash),
    }


def _cmd_rate_sweep(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    ks = _parse_k_list(args.k)
    distinct = sorted(set(ks))
    if len(distinct) < 2:
        raise ConfigError("rate-sweep needs at least two distinct dataset sizes to fit a rate")
    seeds = _parse_seeds(args.seeds)
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be >= 1, got {args.jobs}")
    game = _load_game_spec(args.game)  # loaded once; every row gets this game
    lams = _uniform_lambda_min(game)  # every row collects under the uniform pair
    nash = exact_nash_values(game)  # solved once; every row shares it
    tasks = [(game, nash, k, seed, config) for k in ks for seed in seeds]
    if args.jobs > 1:
        # the pool forks all its workers at once, so never more than there are rows
        with ProcessPoolExecutor(max_workers=min(args.jobs, len(tasks))) as pool:
            rows = list(pool.map(_sweep_row, tasks))
    else:
        rows = [_sweep_row(task) for task in tasks]

    keys = [
        "seed", "K", "beta", "c", "sub", "subb", "bound_rhs", "sandwich_ok",
        "ru", "ru_max_side", "ru_min_side",
    ]
    if args.out is not None:
        header = keys + [f"lambda_min_h{h + 1}" for h in range(game.horizon)]
        _write_csv(args.out, header, [[row[key] for key in keys] + lams for row in rows])

    means = [float(np.mean([r["sub"] for r in rows if r["K"] == k])) for k in distinct]
    summary: dict = {
        "k_values": distinct,
        "mean_sub": means,
        "rows": len(rows),
        "out": args.out,
        "sandwich_rate": float(np.mean([1.0 if r["sandwich_ok"] else 0.0 for r in rows])),
    }
    if min(means) <= 0.0:
        summary["slope"] = None
        summary["degenerate"] = True
    else:
        slope = float(np.polyfit(np.log(distinct), np.log(means), 1)[0])
        summary["slope"] = slope
        summary["degenerate"] = False
    _print_json(summary)
    return 0


# ---------------------------------------------------------------------------
# lower-bound


def _cmd_lower_bound(args: argparse.Namespace) -> int:
    seeds = _parse_seeds(args.seeds)
    schedule = balanced_schedule(args.k, args.actions, args.actions)
    result = run_lower_bound_experiment(
        _config_from_args(args), schedule, seeds, n_actions=args.actions, horizon=args.horizon
    )
    if args.out is not None:
        header = ["game", "seed", "K", "subb", "ru", "subb_over_ru", "p_gap"]
        table = [
            [r["game"], r["seed"], r["k"], r["subb"], r["ru"], r["subb_over_ru"], r["p_gap"]]
            for r in result.rows
        ]
        _write_csv(args.out, header, table)
    _print_json({**result.summary, "out": args.out})
    return 0


# ---------------------------------------------------------------------------
# solve-matrix


def _cmd_solve_matrix(args: argparse.Namespace) -> int:
    if (args.matrix is None) == (args.file is None):
        raise ConfigError("give exactly one of --matrix or --file")
    try:
        payload = json.loads(args.matrix if args.matrix is not None else Path(args.file).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read the matrix: {exc}") from exc
    _json_numbers(payload, "payoff matrix")
    solution = solve_zero_sum(payload, tol=args.tol)
    _print_json(
        {
            "row_strategy": solution.row_strategy.tolist(),
            "col_strategy": solution.col_strategy.tolist(),
            "value": solution.value,
            "exploitability": solution.exploitability,
        }
    )
    return 0


# ---------------------------------------------------------------------------
# parser


def _add_beta_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--beta", type=float, default=None, help="explicit bonus multiplier (overrides --c/--p)")
    sub.add_argument("--c", type=float, default=1.0, help="scale of the default bonus multiplier")
    sub.add_argument("--p", type=float, default=0.1, help="failure probability in the default bonus multiplier")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pmvi",
        description="Pessimistic minimax value iteration for offline two-player zero-sum games.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    gen = subs.add_parser("generate-data", help="roll out a uniform behavior pair, write JSON lines")
    gen.add_argument("--game", required=True, help=_REGISTRY_HELP)
    gen.add_argument("--k", type=int, required=True, help="number of trajectories")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True, help="output JSONL path")
    gen.set_defaults(func=_cmd_generate_data)

    run = subs.add_parser("run", help="run the algorithm on one dataset and print diagnostics")
    run.add_argument("--game", required=True, help=_REGISTRY_HELP)
    run.add_argument("--dataset", default=None, help="JSONL dataset path (from generate-data)")
    run.add_argument("--k", type=int, default=None, help="collect this many fresh uniform trajectories instead")
    run.add_argument("--seed", type=int, default=None, help="seed of the fresh --k trajectories (default 0)")
    run.add_argument("--dump", default=None, help="write the full run output (tables, weights) as JSON here")
    _add_beta_flags(run)
    run.set_defaults(func=_cmd_run)

    sweep = subs.add_parser("rate-sweep", help="gap vs dataset size across seeds; CSV + fitted rate")
    sweep.add_argument("--game", required=True, help=_REGISTRY_HELP)
    sweep.add_argument("--k", required=True, help="comma-separated dataset sizes, e.g. 100,1000,10000")
    sweep.add_argument("--seeds", required=True, help="seed count (200 = seeds 0..199) or comma list")
    sweep.add_argument("--jobs", type=int, default=1, help="worker processes")
    sweep.add_argument("--out", default=None, help="CSV output path")
    _add_beta_flags(sweep)
    sweep.set_defaults(func=_cmd_rate_sweep)

    lower = subs.add_parser("lower-bound", help="paired-game experiment with a fixed action schedule")
    lower.add_argument("--k", type=int, required=True, help="schedule length (trajectories per dataset)")
    lower.add_argument("--seeds", required=True, help="seed count or comma list")
    lower.add_argument("--actions", type=int, default=3)
    lower.add_argument("--horizon", type=int, default=3)
    lower.add_argument("--out", default=None, help="CSV output path")
    _add_beta_flags(lower)
    lower.set_defaults(func=_cmd_lower_bound)

    solve = subs.add_parser("solve-matrix", help="solve one zero-sum matrix game")
    solve.add_argument("--matrix", default=None, help="payoff matrix as JSON, e.g. [[0,1],[1,0]]")
    solve.add_argument("--file", default=None, help="path to a JSON file holding the matrix")
    solve.add_argument("--tol", type=float, default=1e-9)
    solve.set_defaults(func=_cmd_solve_matrix)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser :func:`main` uses, built on first use and reused: parsing
    does not change it."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InvariantError as exc:
        print(f"invariant violated: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:  # reads map to ConfigError, so this is a failed write
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
