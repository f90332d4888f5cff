"""The four benchmark workloads: inputs made from a seed, one op, output checks.

An op is one user-level CLI invocation (two for ``dataset-io``) driven
in-process through :func:`pmvi.cli.main` with stdout captured.  Op ``i`` of a
run with benchmark seed ``n`` uses the CLI seed ``op_seed(n, i)``, so the
same benchmark seed always gives the same inputs.  See README.md for why
each workload exists and which layer it stresses.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import numpy as np

import pmvi
from pmvi import cli

PAPER_K = 2000
SCALE_STATES, SCALE_ACTIONS, SCALE_HORIZON = 16, 4, 6  # d = 16 * 4 * 4 = 256
SCALE_K = 10000
DATASET_K = 15000
LOWER_K = 1000
LOWER_BLOCK = 20  # seeds per lower-bound op

#: Keys the README documents for ``pmvi run``; later fields may be added.
RUN_KEYS = frozenset({
    "game", "k", "horizon", "dim", "beta", "c", "v_lower", "v_upper", "v_star",
    "sub", "subb", "bound_rhs", "sandwich_ok", "ru", "ru_max_side", "ru_min_side",
    "lambda_min",
})
LOWER_BOUND_KEYS = frozenset({
    "kl", "p_gap", "k", "mean_subb_one", "mean_subb_two", "mean_ru_one", "mean_ru_two",
    "mean_ratio_one", "mean_ratio_two", "worst_mean_subb", "worst_mean_ratio", "out",
})
GENERATE_KEYS = frozenset({"out", "k", "horizon", "seed"})
ATOL = 1e-8


def op_seed(seed: int, i: int) -> int:
    """The CLI seed of op ``i``; blocks of a million ops per benchmark seed."""
    return seed * 1_000_000 + i


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """One CLI invocation: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue(), err.getvalue()


def check_run(doc: dict, k: int) -> str | None:
    """The README's guarantees for one ``run`` report; None when they hold."""
    missing = RUN_KEYS - doc.keys()
    if missing:
        return f"run report lacks keys {sorted(missing)}"
    if doc["k"] != k:
        return f"run used k={doc['k']}, expected {k}"
    if not doc["sub"] >= -ATOL:
        return f"negative duality gap {doc['sub']!r}"
    if not doc["subb"] >= 0.0:
        return f"negative value gap {doc['subb']!r}"
    if not doc["v_lower"] <= doc["v_upper"]:
        return f"bracket inverted: {doc['v_lower']!r} > {doc['v_upper']!r}"
    if doc["sandwich_ok"]:
        if not doc["v_lower"] - ATOL <= doc["v_star"] <= doc["v_upper"] + ATOL:
            return f"v_star {doc['v_star']!r} outside [{doc['v_lower']!r}, {doc['v_upper']!r}]"
        if not doc["sub"] <= doc["bound_rhs"] + ATOL:
            return f"sub {doc['sub']!r} exceeds bound_rhs {doc['bound_rhs']!r}"
    return None


def random_one_hot_game(seed: int) -> pmvi.TabularLinearMG:
    """A dense random tabular game of the scale-run shape, one-hot embedded."""
    rng = np.random.default_rng(seed)
    shape = (SCALE_HORIZON, SCALE_STATES, SCALE_ACTIONS, SCALE_ACTIONS)
    raw = rng.uniform(0.05, 1.0, size=shape + (SCALE_STATES,))
    return pmvi.one_hot_featurize(raw / raw.sum(axis=-1, keepdims=True), rng.uniform(0.0, 1.0, size=shape))


class Workload:
    """One workload bound to a benchmark seed and a work directory."""

    size = ""  # the stated input size, reported beside ops_per_s

    def __init__(self, name: str, seed: int, workdir: Path) -> None:
        self.name, self.seed, self.workdir = name, seed, workdir

    def setup(self) -> None:
        """Build and validate the games and write the game files ops read."""

    def argvs(self, i: int) -> list[list[str]]:
        raise NotImplementedError

    def execute(self, i: int) -> tuple[list[str], str | None]:
        """Run op ``i``'s CLI calls: (stdouts, failure or None)."""
        stdouts: list[str] = []
        try:
            for argv in self.argvs(i):
                code, out, err = run_cli(argv)
                if code != 0:
                    return stdouts, f"{argv[0]} exited {code}: {err.strip()[-300:]}"
                stdouts.append(out)
        except Exception as exc:  # an op that raises is a failed op, not a failed benchmark
            return stdouts, f"raised {type(exc).__name__}: {exc}"
        return stdouts, None

    def check(self, i: int, stdouts: list[str]) -> str | None:
        """Check op ``i``'s parsed outputs; None when they hold."""
        raise NotImplementedError

    def output_bytes(self) -> int:
        """Size of the file the last op wrote, measured from outside; 0 if none."""
        return 0

    def extra_check(self) -> str | None:
        """A once-per-run check beyond byte-identical repetition, made right
        after op 0 ran outside the timed loop."""
        return None


class PaperRun(Workload):
    size = f"three-state, K={PAPER_K}, d=36, H=3"

    def setup(self) -> None:
        pmvi.three_state_game()

    def argvs(self, i):
        return [["run", "--game", "three-state", "--k", str(PAPER_K), "--seed", str(op_seed(self.seed, i))]]

    def check(self, i, stdouts):
        return check_run(json.loads(stdouts[0]), PAPER_K)


class ScaleRun(Workload):
    size = (f"random one-hot S={SCALE_STATES}, A1=A2={SCALE_ACTIONS}, H={SCALE_HORIZON}, "
            f"d={SCALE_STATES * SCALE_ACTIONS ** 2}, K={SCALE_K}")

    def setup(self) -> None:
        self.game_path = self.workdir / "scale-game.json"
        pmvi.save_game(random_one_hot_game(self.seed), self.game_path)

    def argvs(self, i):
        return [["run", "--game", str(self.game_path), "--k", str(SCALE_K), "--seed", str(op_seed(self.seed, i))]]

    def check(self, i, stdouts):
        return check_run(json.loads(stdouts[0]), SCALE_K)


class DatasetIO(Workload):
    size = f"three-state, K={DATASET_K}, d=36, H=3"

    def setup(self) -> None:
        self.game = pmvi.three_state_game()
        self.data_path = self.workdir / "dataset.jsonl"

    def argvs(self, i):
        return [
            ["generate-data", "--game", "three-state", "--k", str(DATASET_K),
             "--seed", str(op_seed(self.seed, i)), "--out", str(self.data_path)],
            ["run", "--game", "three-state", "--dataset", str(self.data_path)],
        ]

    def check(self, i, stdouts):
        gen = json.loads(stdouts[0])
        if GENERATE_KEYS - gen.keys() or gen["k"] != DATASET_K or gen["seed"] != op_seed(self.seed, i):
            return f"unexpected generate-data report {gen}"
        return check_run(json.loads(stdouts[1]), DATASET_K)

    def output_bytes(self):
        try:
            return self.data_path.stat().st_size
        except FileNotFoundError:  # generate-data failed before writing
            return 0

    def extra_check(self):
        """Op 0's file loads back array-equal to a fresh collection."""
        loaded = pmvi.load_dataset(self.data_path)
        uniform = pmvi.MarkovPolicy.uniform(self.game, 1), pmvi.MarkovPolicy.uniform(self.game, 2)
        fresh = pmvi.collect_behavior(self.game, *uniform, DATASET_K, np.random.default_rng(op_seed(self.seed, 0)))
        for field in ("states", "actions_p1", "actions_p2", "rewards", "next_states"):
            if not np.array_equal(getattr(loaded, field), getattr(fresh, field)):
                return f"dataset file does not load back equal to collect_behavior ({field})"
        return None


class LowerBound(Workload):
    size = f"hard pair, actions=3, horizon=3, K={LOWER_K}, {LOWER_BLOCK} seeds per op"

    def setup(self) -> None:
        pmvi.le_cam_pair(pmvi.balanced_schedule(LOWER_K, 3, 3))

    def argvs(self, i):
        first = LOWER_BLOCK * op_seed(self.seed, i)
        seeds = ",".join(str(first + j) for j in range(LOWER_BLOCK))
        return [["lower-bound", "--k", str(LOWER_K), "--seeds", seeds]]

    def check(self, i, stdouts):
        doc = json.loads(stdouts[0])
        missing = LOWER_BOUND_KEYS - doc.keys()
        if missing:
            return f"lower-bound summary lacks keys {sorted(missing)}"
        if not doc["kl"] <= 0.5:
            return f"kl {doc['kl']!r} exceeds 1/2"
        return None


WORKLOADS = {"paper-run": PaperRun, "scale-run": ScaleRun, "dataset-io": DatasetIO, "lower-bound": LowerBound}


def make(name: str, seed: int, workdir: Path) -> Workload:
    workload = WORKLOADS[name](name, seed, workdir)
    workload.setup()
    return workload

