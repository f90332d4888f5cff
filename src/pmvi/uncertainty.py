"""Dataset-quality diagnostics built on the inverse-Gram feature bonus.

The central quantity is the *relative uncertainty* of a dataset at the
initial state: fix one player to an exact equilibrium policy, let the
opponent roam freely to maximise the accumulated unit bonus
``sqrt(phi' Lambda_h^-1 phi)`` and take the larger of the two sides.  The
measure is an infimum over equilibrium pairs; the one pair that
``exact_nash_values`` returns gives an upper bound on it.  It is a pure
function of the dataset (through the Gram matrices) and the transition
model -- no rewards enter.

A cruder check is provided as well: ``well_explored_check`` looks at the
smallest eigenvalue of the behavior pair's expected feature outer product.

``diagnose`` is the one report behind ``pmvi run`` and ``pmvi rate-sweep``:
gaps, bound, sandwich and RU of one algorithm run, built from the run's own
unit bonus and one set of exact equilibrium values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import OfflineDataset
from .evaluation import (
    NashValues,
    _check_tables,
    _occupancy,
    _response_dp,
    bellman_error_tables,
    sandwich_holds,
    suboptimality,
    theorem_bound_rhs,
)
from .games import MarkovPolicy, TabularLinearMG, _check_policy
from .value_iteration import PmviOutput, bonus_tables, gram_matrices


@dataclass(frozen=True)
class RUReport:
    """Relative uncertainty of a dataset at the initial state.

    ``ru = max(ru_max_side, ru_min_side)`` for one equilibrium pair.
    ``ru_max_side`` lets the max player roam against the fixed equilibrium
    min policy; ``ru_min_side`` is the mirror image.
    """

    ru: float
    ru_max_side: float
    ru_min_side: float


def bonus_value_dp(game: TabularLinearMG, tables: np.ndarray, fixed_policy: MarkovPolicy) -> float:
    """Max expected total ``E[sum_h tables[h, s_h, a_h, b_h]]`` from the initial state
    over the policies of the free player, the opponent of ``fixed_policy``."""
    return float(_response_dp(game, _check_tables(game, tables), fixed_policy, np.max)[0, game.initial_state])


def relative_uncertainty(
    game: TabularLinearMG,
    dataset: OfflineDataset,
    nash: NashValues,
) -> RUReport:
    """Relative uncertainty of ``dataset`` for ``game`` at the initial state.

    ``nash`` is the game's :func:`exact_nash_values`.  The measure is an
    infimum over equilibria, so the one pair it carries gives an upper bound
    on it.
    """
    unit = bonus_tables(game, gram_matrices(game, dataset))
    return _relative_uncertainty(game, unit, nash)


def _relative_uncertainty(game: TabularLinearMG, unit: np.ndarray, nash: NashValues) -> RUReport:
    """RU from a ready unit-bonus table (H, S, A1, A2)."""
    _check_policy(game, nash.policy_max, 1)
    _check_policy(game, nash.policy_min, 2)
    min_side = bonus_value_dp(game, unit, nash.policy_max)
    max_side = bonus_value_dp(game, unit, nash.policy_min)
    return RUReport(ru=max(max_side, min_side), ru_max_side=max_side, ru_min_side=min_side)


def diagnose(game: TabularLinearMG, output: PmviOutput, nash: NashValues) -> dict:
    """The run report shared by ``pmvi run`` and ``pmvi rate-sweep``.

    ``nash`` is the game's :func:`exact_nash_values`.  The bound, the
    sandwich check and RU all reuse ``output.unit_bonus``; nothing is
    rebuilt from the dataset.  ``v_max_br``/``v_min_br`` are the two
    best-response values behind ``sub``.
    """
    report = suboptimality(game, output.policy_max, output.policy_min, nash=nash)
    iota_lo, iota_up = bellman_error_tables(game, output)
    ru = _relative_uncertainty(game, output.unit_bonus, nash)
    return {
        "beta": output.beta,
        "v_lower": float(output.v_lower[0, game.initial_state]),
        "v_upper": float(output.v_upper[0, game.initial_state]),
        "v_star": report.v_star,
        "v_max_br": report.v_max_br,
        "v_min_br": report.v_min_br,
        "sub": report.sub,
        "subb": report.subb,
        "bound_rhs": theorem_bound_rhs(game, output, nash),
        "sandwich_ok": sandwich_holds(iota_lo, iota_up, output.bonus),
        "ru": ru.ru,
        "ru_max_side": ru.ru_max_side,
        "ru_min_side": ru.ru_min_side,
    }


def expected_feature_outer(
    game: TabularLinearMG,
    policy_max: MarkovPolicy,
    policy_min: MarkovPolicy,
) -> np.ndarray:
    """Per-step expected feature outer products ``E[phi_h phi_h']`` under a
    joint mixed policy pair from the initial state; shape (H, d, d)."""
    flat = game.features.reshape(-1, game.dim)
    occupancy = _occupancy(game, policy_max, policy_min)
    return np.stack([flat.T @ (joint.reshape(-1, 1) * flat) for joint in occupancy])


def well_explored_check(
    game: TabularLinearMG,
    policy_max: MarkovPolicy,
    policy_min: MarkovPolicy,
) -> np.ndarray:
    """Smallest eigenvalue of ``E[phi_h phi_h']`` per step under a joint
    policy pair, shape (H,); a step whose entry is 0 leaves some feature
    direction unexplored.  With one nonzero per cell the matrix is diagonal,
    so this is the smallest diagonal entry, summed with no outer product."""
    if game.single_nonzero is None:
        outer = expected_feature_outer(game, policy_max, policy_min)
        return np.array([float(np.linalg.eigvalsh(outer[h])[0]) for h in range(game.horizon)])
    col, val = game.single_nonzero
    occupancy = _occupancy(game, policy_max, policy_min).reshape(game.horizon, -1)
    return np.array([np.bincount(col, joint * val * val, game.dim).min() for joint in occupancy])
