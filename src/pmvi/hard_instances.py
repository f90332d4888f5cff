"""A three-state family of games that defeats any offline algorithm.

The family ``build_game(p1, p2)`` has one decision: at the first step, from
the start state, the max player's action ``i`` moves to a rewarding
absorbing state with probability ``p_i`` (actions beyond the second all use
``min(p1, p2)``).  The min player is a spectator.  Every later step pays 1
in the rewarding state and 0 elsewhere, so the equilibrium value from the
start is ``(H - 1) * max(p1, p2)``.

``le_cam_pair`` instantiates the classic two-point construction: two games
whose first-action success probabilities ``1/2 +- delta`` are swapped
between the first two actions, with ``delta`` shrunk as ``1/sqrt(n1 + n2)``
so that the datasets generated by a fixed action schedule are statistically
indistinguishable (``dataset_kl`` is the exact divergence) while the games
still demand opposite first actions.  ``run_lower_bound_experiment`` runs
PMVI on datasets from both games and reports the gap ``subb`` next to the
dataset's relative uncertainty, read off the run's own unit bonus.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .data import _int_matrix, collect_predetermined, count_stats
from .errors import ConfigError, InvariantError
from .evaluation import exact_nash_values, suboptimality
from .games import TabularLinearMG
from .uncertainty import relative_uncertainty
from .value_iteration import PmviConfig, run_pmvi

_P_MIN, _P_MAX = 0.25, 0.75
_MAX_ARRAY_BYTES = 1 << 28  # the largest array build_game allocates


@dataclass(frozen=True)
class LeCamPair:
    """The two games :func:`le_cam_pair` builds: they differ only in a swap
    of the first-step success probabilities of max actions 0 and 1."""

    game_one: TabularLinearMG  # action 0 is the better first action
    game_two: TabularLinearMG  # action 1 is the better first action
    p_low: float  # 1/2 - delta; max actions from 2 on succeed with it in both games
    p_high: float  # 1/2 + delta


@dataclass(frozen=True)
class LowerBoundResult:
    rows: list[dict]
    summary: dict


def build_game(p1: float, p2: float, n_actions: int = 3, horizon: int = 3) -> TabularLinearMG:
    """The three-state game with first-step success probabilities (p1, p2).

    States are start / win / loss.  Features embed the first-step action
    pair one-hot in the first ``n_actions**2`` coordinates and reserve the
    last two for the absorbing states, so the linear factorization is exact
    and every regularity bound is tight.
    """
    if not (_P_MIN <= p1 <= _P_MAX and _P_MIN <= p2 <= _P_MAX):
        raise ConfigError(
            f"success probabilities must lie in [{_P_MIN}, {_P_MAX}], got ({p1!r}, {p2!r})"
        )
    if n_actions < 2:
        raise ConfigError(f"need at least two max-player actions, got {n_actions}")
    if horizon < 2:
        raise ConfigError(f"the construction needs horizon >= 2, got {horizon}")
    a = n_actions
    d = a * a + 2
    nbytes, what = max((3 * a * a * d * 8, "dense features"), (9 * horizon * a * a * 8, "transition probabilities"))
    if nbytes > _MAX_ARRAY_BYTES:  # features (3, a, a, d) or transition (H, 3, a, a, 3), checked before either exists
        raise ConfigError(f"{a} actions and horizon {horizon} give d={d}: {nbytes} bytes of {what}, over the limit {_MAX_ARRAY_BYTES}")
    win_coord, loss_coord = a * a, a * a + 1
    p = np.full(a, min(p1, p2))
    p[0], p[1] = p1, p2

    features = np.zeros((3, a, a, d))
    for i in range(a):
        for j in range(a):
            features[0, i, j, i * a + j] = 1.0
    features[1, :, :, win_coord] = 1.0
    features[2, :, :, loss_coord] = 1.0

    theta = np.zeros((horizon, d))
    theta[1:, win_coord] = 1.0
    reward = np.einsum("sabi,hi->hsab", features, theta)

    mu = np.zeros((horizon, 3, d))
    # first step: from the start state, action i wins with probability p_i
    mu[0, 1, : a * a] = np.repeat(p, a)
    mu[0, 1, win_coord] = 1.0
    mu[0, 2, : a * a] = np.repeat(1.0 - p, a)
    mu[0, 2, loss_coord] = 1.0
    # later steps: everything is absorbing (the start state is unreachable)
    mu[1:, 0, : a * a] = 1.0
    mu[1:, 1, win_coord] = 1.0
    mu[1:, 2, loss_coord] = 1.0
    transition = np.einsum("sabi,hti->hsabt", features, mu)

    return TabularLinearMG(
        transition=transition,
        reward=reward,
        features=features,
        theta=theta,
        mu=mu,
        initial_state=0,
        state_labels=("start", "win", "loss"),
    )


def le_cam_pair(
    schedule: np.ndarray, n_actions: int = 3, horizon: int = 3
) -> LeCamPair:
    """The indistinguishable pair calibrated to a first-step action schedule.

    ``delta = sqrt(2 / (n1 + n2)) / 16`` where ``n1, n2`` count schedule rows
    whose max-player action is 0 or 1; the games are
    ``build_game(1/2 + delta, 1/2 - delta)`` and its swap.
    """
    schedule = _int_matrix(schedule, "schedule")
    if schedule.shape[1] != 2:
        raise ConfigError(f"schedule must have shape (k, 2), got {schedule.shape}")
    if schedule.shape[0] == 0:
        raise ConfigError("schedule has no rows; the pair needs at least one episode")
    n_first = int((schedule[:, 0] == 0).sum())
    n_second = int((schedule[:, 0] == 1).sum())
    if n_first + n_second < 1:
        raise ConfigError("schedule never plays max action 0 or 1; the pair is undefined")
    delta = math.sqrt(2.0 / (n_first + n_second)) / 16.0
    p_low, p_high = 0.5 - delta, 0.5 + delta
    return LeCamPair(
        game_one=build_game(p_high, p_low, n_actions=n_actions, horizon=horizon),
        game_two=build_game(p_low, p_high, n_actions=n_actions, horizon=horizon),
        p_low=p_low,
        p_high=p_high,
    )


def dataset_kl(pair: LeCamPair, counts: np.ndarray) -> float:
    """Exact ``KL(P_one || P_two)`` between the pair's dataset laws.

    Only the first transition differs between the games and it depends only
    on the max player's action, so the divergence is a sum of Bernoulli
    divergences weighted by how often the schedule plays each action:
    ``counts[0] KL(p_high || p_low) + counts[1] KL(p_low || p_high)``.  Max
    actions from 2 on succeed with ``p_low`` in both games and add nothing.
    ``counts`` is the (A1,) array of first-step max-action counts that
    :func:`pmvi.data.count_stats` returns.
    """
    if np.shape(counts) != (pair.game_one.n_actions_p1,):
        raise ConfigError("count statistics do not match the games' action space")
    total = 0.0
    for n, p, q in ((counts[0], pair.p_high, pair.p_low), (counts[1], pair.p_low, pair.p_high)):
        total += int(n) * (p * math.log(p / q) + (1.0 - p) * math.log((1.0 - p) / (1.0 - q)))
    return total


def run_lower_bound_experiment(
    config: PmviConfig,
    schedule: np.ndarray,
    seeds: Sequence[int],
    n_actions: int = 3,
    horizon: int = 3,
) -> LowerBoundResult:
    """Run PMVI with ``config`` on datasets drawn from both games of the pair.

    For each game and seed the schedule is replayed with fresh transition
    noise, :func:`run_pmvi` maps the dataset to a policy pair, and the row
    records ``subb = V* - V^{pair}`` at the start state together with the
    relative uncertainty of the run's own unit bonus.  Each game's exact
    equilibrium is solved once and shared by every seed.  In this family
    ``subb`` has a closed form --
    ``(H-1) * 2 delta * (1 - pihat(best action))`` -- which is asserted
    against the measured value as a consistency check.
    """
    if len(seeds) == 0:
        raise ConfigError("need at least one seed")
    pair = le_cam_pair(schedule, n_actions=n_actions, horizon=horizon)
    gap = pair.p_high - pair.p_low
    rows: list[dict] = []
    counts: np.ndarray | None = None
    for game_id, game, best_action in (
        ("one", pair.game_one, 0),
        ("two", pair.game_two, 1),
    ):
        nash = exact_nash_values(game)
        for seed in seeds:
            rng = np.random.default_rng(seed)
            dataset = collect_predetermined(game, schedule, rng)
            if counts is None:
                counts = count_stats(game, dataset)
            out = run_pmvi(game, dataset, config)
            report = suboptimality(game, out.policy_max, out.policy_min, nash=nash)
            predicted = (
                (horizon - 1)
                * gap
                * (1.0 - float(out.policy_max.probs[0, game.initial_state, best_action]))
            )
            if abs(report.subb - predicted) > 1e-9:
                raise InvariantError(
                    f"closed-form gap {predicted!r} disagrees with measured "
                    f"{report.subb!r} (game {game_id}, seed {seed})"
                )
            ru = relative_uncertainty(game, out.unit_bonus, nash)
            rows.append(
                {
                    "game": game_id,
                    "seed": int(seed),
                    "k": dataset.k,
                    "subb": report.subb,
                    "ru": ru.ru,
                    "subb_over_ru": report.subb / ru.ru,
                    "p_gap": gap,
                }
            )
    kl = dataset_kl(pair, counts)
    summary: dict = {"kl": kl, "p_gap": gap, "k": int(schedule.shape[0])}
    for game_id in ("one", "two"):
        game_rows = [r for r in rows if r["game"] == game_id]
        summary[f"mean_subb_{game_id}"] = float(np.mean([r["subb"] for r in game_rows]))
        summary[f"mean_ru_{game_id}"] = float(np.mean([r["ru"] for r in game_rows]))
        summary[f"mean_ratio_{game_id}"] = float(
            np.mean([r["subb_over_ru"] for r in game_rows])
        )
    summary["worst_mean_subb"] = max(summary["mean_subb_one"], summary["mean_subb_two"])
    summary["worst_mean_ratio"] = max(summary["mean_ratio_one"], summary["mean_ratio_two"])
    return LowerBoundResult(rows=rows, summary=summary)
