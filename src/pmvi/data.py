"""Offline trajectory datasets and their sufficient statistics.

A dataset is ``K`` independent episodes of full length ``H`` collected on a
game, stored column-wise as ``(K, H)`` arrays.  Two collectors are provided:

- :func:`collect_behavior`: both players follow fixed Markov policies;
- :func:`collect_predetermined`: the first-step action pair follows a given
  schedule (the compliance regime where actions were fixed before the run);
  later steps use the filler pair (0, 0).

Files use JSON lines: one metadata record followed by one record per
trajectory.  Identical seeds give byte-identical files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import chain
from operator import itemgetter

import numpy as np

from .errors import ConfigError, InvariantError
from .games import MarkovPolicy, TabularLinearMG, _check_policy, _freeze


def _int_matrix(value, name: str) -> np.ndarray:
    """``value`` as a new int64 matrix; a caller's array is copied, never shared.
    Floats, bools and objects are rejected rather than truncated; an empty
    array may have any dtype."""
    arr = np.array(value)
    if arr.size and arr.dtype.kind not in "iu":
        raise ConfigError(f"{name} must hold integers, got dtype {arr.dtype}")
    arr = arr.astype(np.int64, copy=False)
    if arr.ndim != 2:
        raise ConfigError(f"{name} must be 2-d, got shape {arr.shape}")
    return arr


@dataclass(frozen=True)
class OfflineDataset:
    """K full-length trajectories: (s, a, b, r, s') for every step."""

    states: np.ndarray       # (K, H) int
    actions_p1: np.ndarray   # (K, H) int
    actions_p2: np.ndarray   # (K, H) int
    rewards: np.ndarray      # (K, H) float
    next_states: np.ndarray  # (K, H) int
    provenance: str = "behavior"  # "behavior" | "predetermined"

    def __post_init__(self) -> None:
        states = _int_matrix(self.states, "states")
        a1 = _int_matrix(self.actions_p1, "actions_p1")
        a2 = _int_matrix(self.actions_p2, "actions_p2")
        nxt = _int_matrix(self.next_states, "next_states")
        rewards = np.array(self.rewards, dtype=np.float64)
        shape = states.shape
        for name, arr in (("actions_p1", a1), ("actions_p2", a2), ("rewards", rewards), ("next_states", nxt)):
            if arr.shape != shape:
                raise ConfigError(f"{name} shape {arr.shape} does not match states {shape}")
        if not np.isfinite(rewards).all():
            tau, h = np.argwhere(~np.isfinite(rewards))[0]
            raise ConfigError(f"rewards must be finite; trajectory {tau} step {h} has {float(rewards[tau, h])}")
        if self.provenance not in ("behavior", "predetermined"):
            raise ConfigError(f"unknown provenance {self.provenance!r}")
        for name, arr in (
            ("states", states), ("actions_p1", a1), ("actions_p2", a2),
            ("rewards", rewards), ("next_states", nxt),
        ):
            object.__setattr__(self, name, _freeze(arr))

    @property
    def k(self) -> int:
        return self.states.shape[0]

    @property
    def horizon(self) -> int:
        return self.states.shape[1]


def collect_behavior(
    game: TabularLinearMG,
    policy_p1: MarkovPolicy,
    policy_p2: MarkovPolicy,
    k: int,
    rng: np.random.Generator,
) -> OfflineDataset:
    """Roll out ``k`` episodes under a fixed behavior policy pair."""
    _check_policy(game, policy_p1, 1)
    _check_policy(game, policy_p2, 2)
    if k < 0:
        raise ConfigError("k must be nonnegative")
    cum1, cum2 = np.cumsum(policy_p1.probs, axis=-1), np.cumsum(policy_p2.probs, axis=-1)

    def act(h: int, states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return _draw_rows(cum1[h][states], rng), _draw_rows(cum2[h][states], rng)

    return _roll_out(game, k, act, rng, "behavior")


def collect_predetermined(
    game: TabularLinearMG,
    schedule,
    rng: np.random.Generator,
) -> OfflineDataset:
    """Roll out one episode per schedule row, first-step actions as scheduled.

    ``schedule`` is a (K, 2) integer array of first-step (max, min) action
    pairs.  Steps after the first play the filler pair (0, 0); only the
    environment is stochastic.
    """
    schedule = _int_matrix(schedule, "schedule")
    if schedule.shape[1] != 2:
        raise ConfigError(f"schedule must have shape (K, 2), got {schedule.shape}")
    k = schedule.shape[0]
    if not ((schedule >= 0) & (schedule < (game.n_actions_p1, game.n_actions_p2))).all():
        raise ConfigError("schedule contains out-of-range action indices")
    filler = np.zeros(k, dtype=np.int64)

    def act(h: int, states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return (schedule[:, 0], schedule[:, 1]) if h == 0 else (filler, filler)

    return _roll_out(game, k, act, rng, "predetermined")


def _roll_out(game: TabularLinearMG, k: int, act, rng: np.random.Generator, provenance: str) -> OfflineDataset:
    """``k`` episodes from the initial state.  ``act(h, states)`` returns step ``h``'s
    (max, min) action columns; the next states are drawn after the actions."""
    shape = (k, game.horizon)
    states, a1, a2, nxt = (np.empty(shape, dtype=np.int64) for _ in range(4))
    rewards = np.empty(shape, dtype=np.float64)
    cur = np.full(k, game.initial_state, dtype=np.int64)
    cum = np.cumsum(game.transition, axis=-1)
    for h in range(game.horizon):
        acts1, acts2 = act(h, cur)
        step_next = _draw_rows(cum[h][cur, acts1, acts2], rng)
        states[:, h], a1[:, h], a2[:, h], nxt[:, h] = cur, acts1, acts2, step_next
        rewards[:, h] = game.reward[h][cur, acts1, acts2]
        cur = step_next
    return OfflineDataset(states, a1, a2, rewards, nxt, provenance=provenance)


def balanced_schedule(k: int, n_actions_p1: int, n_actions_p2: int | None = None) -> np.ndarray:
    """A (k, 2) schedule cycling uniformly through all action pairs in row-major order."""
    n_actions_p2 = n_actions_p1 if n_actions_p2 is None else n_actions_p2
    sizes = (k, n_actions_p1, n_actions_p2)
    if any(isinstance(n, bool) or not isinstance(n, (int, np.integer)) for n in sizes):
        raise ConfigError(f"k and the action counts must be integers, got {sizes!r}")
    if k < 0:
        raise ConfigError("k must be nonnegative")
    if min(n_actions_p1, n_actions_p2) < 1:
        raise ConfigError(f"action counts must be >= 1, got ({n_actions_p1}, {n_actions_p2})")
    idx = np.arange(k, dtype=np.int64) % (n_actions_p1 * n_actions_p2)
    return np.stack([idx // n_actions_p2, idx % n_actions_p2], axis=1)


def count_stats(game: TabularLinearMG, dataset: OfflineDataset) -> np.ndarray:
    """First-step max-player action counts, shape (A1,): entry ``i`` counts
    the episodes whose first max action was ``i``.  These are the counts
    :func:`pmvi.hard_instances.dataset_kl` weighs its divergences by."""
    check_dataset_bounds(game, dataset)
    return np.bincount(dataset.actions_p1[:, 0], minlength=game.n_actions_p1)


def validate_dataset(game: TabularLinearMG, dataset: OfflineDataset) -> None:
    """Check index ranges, continuity s_{h+1} = s'_h, and reward consistency."""
    check_dataset_bounds(game, dataset)
    if dataset.k == 0:
        return
    if dataset.states[:, 0].min() != game.initial_state or dataset.states[:, 0].max() != game.initial_state:
        raise InvariantError("episodes must start at the game's initial state")
    if not np.array_equal(dataset.states[:, 1:], dataset.next_states[:, :-1]):
        raise InvariantError("trajectory discontinuity: s_{h+1} differs from recorded s'_h")
    model_r = game.reward[
        np.arange(game.horizon)[None, :], dataset.states, dataset.actions_p1, dataset.actions_p2
    ]
    worst = np.abs(model_r - dataset.rewards).max()
    if worst > 1e-12:
        raise InvariantError(f"dataset rewards disagree with the model (worst {worst:.3e})")
    support = game.transition[
        np.arange(game.horizon)[None, :],
        dataset.states, dataset.actions_p1, dataset.actions_p2, dataset.next_states,
    ]
    if support.min() <= 0.0:
        raise InvariantError("dataset contains a transition of probability zero under the model")


def save_dataset(dataset: OfflineDataset, path, seed: int | None = None) -> None:
    """Write JSON lines: a meta record then one record per trajectory.

    Each trajectory record is rendered from one ``%``-template built from the
    horizon and streamed to the file.  ``json.dumps`` writes ints as
    ``int.__repr__`` and finite floats as ``float.__repr__``, so ``%d`` and
    ``%r`` on the Python values from ``tolist()`` give the same bytes as
    dumping each record (rewards are finite by construction).
    """
    meta = {
        "k": dataset.k,
        "horizon": dataset.horizon,
        "provenance": dataset.provenance,
        "seed": seed,
    }
    steps = ", ".join(
        f'{{"h": {h}, "s": %d, "a": %d, "b": %d, "r": %r, "s_next": %d}}'
        for h in range(dataset.horizon)
    )
    template = '{"tau": %d, "steps": [' + steps + "]}\n"
    fields = (dataset.states, dataset.actions_p1, dataset.actions_p2, dataset.rewards, dataset.next_states)
    columns = [arr[:, h].tolist() for h in range(dataset.horizon) for arr in fields]
    with open(path, "w") as handle:
        handle.write(json.dumps({"meta": meta}) + "\n")
        handle.writelines(map(template.__mod__, zip(range(dataset.k), *columns)))


_STEP_COLUMNS = (("s", np.int64), ("a", np.int64), ("b", np.int64), ("r", np.float64), ("s_next", np.int64))


def load_dataset(path) -> OfflineDataset:
    """Read a file written by :func:`save_dataset`, rejecting anything else.

    ``tau`` must run ``0..k-1`` in file order and each trajectory's ``h``
    ``0..H-1``; every step needs all six keys, with integer values except
    ``r``, which may be any finite number.  A defect raises
    :class:`ConfigError` naming it.
    """
    records = _read_records(path)
    k, horizon, provenance = _read_meta(records, path)
    if len(records) != k + 1:
        raise ConfigError(f"dataset file {path} announces k={k} but holds {len(records) - 1} trajectories")
    trajectories = records[1:]
    try:
        taus = _column(map(itemgetter("tau"), trajectories), "tau", path)
        bad = np.flatnonzero(taus != np.arange(k))
        if bad.size:
            raise ConfigError(f"dataset file {path}: trajectory {bad[0]} has tau {taus[bad[0]]}, expected {bad[0]}")
        step_lists = list(map(itemgetter("steps"), trajectories))
        counts = np.fromiter(map(len, step_lists), dtype=np.int64, count=k)
        bad = np.flatnonzero(counts != horizon)
        if bad.size:
            raise ConfigError(
                f"dataset file {path}: trajectory {bad[0]} has {counts[bad[0]]} steps, expected {horizon}"
            )
        steps = list(chain.from_iterable(step_lists))
        h = _column(map(itemgetter("h"), steps), "h", path).reshape(k, horizon)
        bad = np.flatnonzero((h != np.arange(horizon)).any(axis=1))
        if bad.size:
            raise ConfigError(
                f"dataset file {path}: trajectory {bad[0]} has h {h[bad[0]].tolist()}, "
                f"expected {list(range(horizon))}"
            )
        columns = [
            _column(map(itemgetter(key), steps), key, path, dtype).reshape(k, horizon)
            for key, dtype in _STEP_COLUMNS
        ]
    except KeyError as exc:
        raise ConfigError(f"malformed trajectory record in {path}: missing key {exc}") from exc
    except TypeError as exc:
        raise ConfigError(f"malformed trajectory record in {path}: {exc}") from exc
    del records, trajectories, step_lists, steps  # freed before the dataset copies the columns
    try:
        return OfflineDataset(*columns, provenance=provenance)
    except ConfigError as exc:
        raise ConfigError(f"dataset file {path}: {exc}") from exc


def _read_records(path) -> list:
    """One parsed JSON value per non-blank line.  The file is read as a
    stream, so no copy of the raw text stays alive beside the records."""
    records = []
    try:
        with open(path) as handle:
            for lineno, line in enumerate(handle, 1):
                if line.strip():
                    try:
                        records.append(json.loads(line))
                    except json.JSONDecodeError as exc:
                        raise ConfigError(f"cannot read dataset file {path}: line {lineno}: {exc}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read dataset file {path}: {exc}") from exc
    return records


def _read_meta(records: list, path) -> tuple[int, int, str]:
    if not records or not isinstance(records[0], dict) or "meta" not in records[0]:
        raise ConfigError(f"dataset file {path} lacks the leading meta record")
    meta = records[0]["meta"]
    if not isinstance(meta, dict):
        raise ConfigError(f"dataset file {path}: meta record is not an object")
    for key in ("k", "horizon"):
        if key not in meta:
            raise ConfigError(f"dataset file {path}: meta record lacks {key!r}")
        if type(meta[key]) is not int or meta[key] < 0:
            raise ConfigError(f"dataset file {path}: meta {key} must be a nonnegative integer, got {meta[key]!r}")
    return meta["k"], meta["horizon"], meta.get("provenance", "behavior")


def _column(values, key: str, path, dtype=np.int64) -> np.ndarray:
    """One field of every record as a flat array; no value is coerced.

    ``np.fromiter`` would truncate ``1.5`` or parse ``"1"`` into an int64
    column, so the value types are checked first (bool is not int here).
    """
    values = list(values)
    allowed = (int, float) if dtype is np.float64 else (int,)
    if not set(map(type, values)).issubset(allowed):
        odd = next(v for v in values if type(v) not in allowed)
        kind = "a number" if dtype is np.float64 else "an integer"
        raise ConfigError(f"dataset file {path}: {key} value {odd!r} is not {kind}")
    try:
        return np.fromiter(values, dtype=dtype, count=len(values))
    except OverflowError as exc:
        raise ConfigError(f"dataset file {path}: {key} value out of range: {exc}") from exc


def _draw_rows(cum: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Vectorized categorical draws, one per row of cumulative probabilities ``cum`` (shape (K, n))."""
    u = rng.random(cum.shape[0])
    picks = (cum <= u[:, None]).sum(axis=1)
    return np.minimum(picks, cum.shape[1] - 1)


def check_dataset_bounds(game: TabularLinearMG, dataset: OfflineDataset) -> None:
    if dataset.horizon != game.horizon:
        raise ConfigError(f"dataset horizon {dataset.horizon} != game horizon {game.horizon}")
    if dataset.k == 0:
        return
    if dataset.states.min() < 0 or dataset.states.max() >= game.n_states:
        raise InvariantError("dataset state index out of range")
    if dataset.next_states.min() < 0 or dataset.next_states.max() >= game.n_states:
        raise InvariantError("dataset next-state index out of range")
    if dataset.actions_p1.min() < 0 or dataset.actions_p1.max() >= game.n_actions_p1:
        raise InvariantError("dataset max-player action index out of range")
    if dataset.actions_p2.min() < 0 or dataset.actions_p2.max() >= game.n_actions_p2:
        raise InvariantError("dataset min-player action index out of range")
