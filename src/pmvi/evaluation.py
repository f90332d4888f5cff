"""Exact evaluation of policies and algorithm output on a known game.

Everything here is exact dynamic programming on the tabular model -- no
sampling.  The conventions:

- ``exact_nash_values``: backward induction where each stage matrix is solved
  as a zero-sum game; gives V* and one equilibrium policy pair.
- ``best_response_value``: value of a fixed Markov policy against the
  opponent's exact best response (which may be taken pure).
- ``suboptimality``: the duality-gap performance measure of a policy pair
  ``sub = V^{*,nu}(x) - V^{pi,*}(x)`` together with the weaker gap
  ``subb = |V*(x) - V^{pi,nu}(x)|``.
- ``theorem_bound_rhs``: the information-theoretic upper bound
  ``2 beta sum_h E[(phi' Lambda_h^-1 phi)^1/2]`` evaluated exactly under the
  two mixed policy pairs the guarantee pairs up (equilibrium vs auxiliary).
- ``value_difference``: the exact two-term expansion of
  ``Vhat_1(x) - V^{pi,nu}_1(x)`` into an equilibrium-advantage term and a
  Bellman-residual term.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InvariantError
from .games import MarkovPolicy, TabularLinearMG, _check_policy, _freeze, bellman_apply
from .matrix_nash import solve_zero_sum
from .value_iteration import PmviOutput

_CHAIN_ATOL = 1e-8


@dataclass(frozen=True)
class NashValues:
    """Exact equilibrium values ``v_star`` (read-only, shape (H, S)) plus one equilibrium policy pair."""

    v_star: np.ndarray
    policy_max: MarkovPolicy
    policy_min: MarkovPolicy


@dataclass(frozen=True)
class EvaluationReport:
    """Exact performance summary of a policy pair from the initial state.

    - ``v_star``: equilibrium value V*_1(x)
    - ``v_max_br``: V^{*, nu}_1(x), the max-player best-responding to nu
    - ``v_min_br``: V^{pi, *}_1(x), the min-player best-responding to pi
    - ``v_pair``: V^{pi, nu}_1(x)
    - ``sub = v_max_br - v_min_br`` and ``subb = |v_star - v_pair|``
    """

    v_star: float
    v_max_br: float
    v_min_br: float
    v_pair: float
    sub: float
    subb: float


def exact_nash_values(game: TabularLinearMG) -> NashValues:
    """Backward induction with a matrix-game solve per (h, s)."""
    h_len, s_count = game.horizon, game.n_states
    v = np.zeros((h_len + 1, s_count))
    pi = np.zeros((h_len, s_count, game.n_actions_p1))
    nu = np.zeros((h_len, s_count, game.n_actions_p2))
    for h in reversed(range(h_len)):
        q = bellman_apply(game, h, v[h + 1])
        for s in range(s_count):
            sol = solve_zero_sum(q[s])
            v[h, s] = sol.value
            pi[h, s] = sol.row_strategy
            nu[h, s] = sol.col_strategy
    return NashValues(
        v_star=_freeze(v[:h_len]),
        policy_max=MarkovPolicy(pi, player=1),
        policy_min=MarkovPolicy(nu, player=2),
    )


def policy_value(game: TabularLinearMG, policy_max: MarkovPolicy, policy_min: MarkovPolicy) -> np.ndarray:
    """V^{pi,nu}_h(s) for a fixed joint policy, by backward DP; a read-only (H, S) array."""
    _check_policy(game, policy_max, 1)
    _check_policy(game, policy_min, 2)
    v = np.zeros((game.horizon + 1, game.n_states))
    for h in reversed(range(game.horizon)):
        q = bellman_apply(game, h, v[h + 1])
        v[h] = np.einsum("sa,sab,sb->s", policy_max.probs[h], q, policy_min.probs[h])
    return _freeze(v[: game.horizon])


def best_response_value(
    game: TabularLinearMG, policy: MarkovPolicy
) -> tuple[np.ndarray, MarkovPolicy]:
    """Fix one player's Markov policy; return the opponent's exact best
    response value table (read-only, shape (H, S)) and a pure policy attaining it.

    For a max-player policy pi this is V^{pi,*} (opponent minimizes); for a
    min-player policy nu it is V^{*,nu} (opponent maximizes).
    """
    pick = np.argmin if policy.player == 1 else np.argmax
    v, actions = _response_dp(game, game.reward, policy, pick)
    br_player = 2 if policy.player == 1 else 1
    return _freeze(v), MarkovPolicy.pure(game, br_player, actions)


def _response_dp(game: TabularLinearMG, tables: np.ndarray, fixed: MarkovPolicy, pick) -> tuple:
    """Backward DP against a fixed Markov policy.

    The free player (the opponent of ``fixed``) collects the per-step payoffs
    ``tables`` (H, S, A1, A2) and at every (h, s) takes the action that
    ``pick`` (``np.argmax`` or ``np.argmin``; ties go to the smallest index)
    selects from its payoff-to-go averaged over ``fixed``.  Returns the
    values (H, S) and the picked actions (H, S); no policy is built.
    """
    _check_policy(game, fixed, fixed.player)
    v = np.zeros((game.horizon + 1, game.n_states))
    actions = np.zeros((game.horizon, game.n_states), dtype=np.int64)
    states = np.arange(game.n_states)
    for h in reversed(range(game.horizon)):
        stage = tables[h] + game.transition[h] @ v[h + 1]
        if fixed.player == 1:
            avg = np.einsum("sa,sab->sb", fixed.probs[h], stage)
        else:
            avg = np.einsum("sb,sab->sa", fixed.probs[h], stage)
        actions[h] = pick(avg, axis=1)
        v[h] = avg[states, actions[h]]
    return v[: game.horizon], actions


def _response_value(game: TabularLinearMG, tables: np.ndarray, fixed: MarkovPolicy, pick) -> float:
    """The :func:`_response_dp` value from the initial state."""
    return float(_response_dp(game, tables, fixed, pick)[0][0, game.initial_state])


def suboptimality(
    game: TabularLinearMG,
    policy_max: MarkovPolicy,
    policy_min: MarkovPolicy,
    nash: NashValues | None = None,
) -> EvaluationReport:
    """Exact duality-gap report for a policy pair from the initial state.

    ``nash`` is the game's :func:`exact_nash_values`; it is computed when
    omitted, so a caller that already holds it saves the solves.
    """
    _check_policy(game, policy_max, 1)
    _check_policy(game, policy_min, 2)
    if nash is None:
        nash = exact_nash_values(game)
    elif nash.v_star.shape != (game.horizon, game.n_states):
        raise ConfigError(
            f"nash tables of shape {nash.v_star.shape} do not match the game "
            f"{(game.horizon, game.n_states)}"
        )
    v_star = float(nash.v_star[0, game.initial_state])
    v_min_br = _response_value(game, game.reward, policy_max, np.argmin)
    v_max_br = _response_value(game, game.reward, policy_min, np.argmax)
    v_pair = float(policy_value(game, policy_max, policy_min)[0, game.initial_state])
    if not (v_min_br <= v_star + _CHAIN_ATOL and v_star <= v_max_br + _CHAIN_ATOL):
        raise InvariantError(
            f"weak-duality chain violated: {v_min_br!r} <= {v_star!r} <= {v_max_br!r} fails"
        )
    sub = v_max_br - v_min_br
    if sub < -_CHAIN_ATOL:
        raise InvariantError(f"negative duality gap {sub!r}")
    return EvaluationReport(
        v_star=v_star,
        v_max_br=v_max_br,
        v_min_br=v_min_br,
        v_pair=v_pair,
        sub=sub,
        subb=abs(v_star - v_pair),
    )


def bellman_error_tables(game: TabularLinearMG, output: PmviOutput) -> tuple[np.ndarray, np.ndarray]:
    """Residuals of the two estimates against one exact backup.

    Returns ``(iota_lower, iota_upper)`` with
    ``iota_lower[h] = r_h + P_h V_lower_{h+1} - Q_lower_h`` and the same for
    the upper pair, shapes (H, S, A1, A2).
    """
    return (
        _residuals(game, output.q_lower, output.v_lower),
        _residuals(game, output.q_upper, output.v_upper),
    )


def _residuals(game: TabularLinearMG, q: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``r_h + P_h v_{h+1} - q_h`` for every h (with ``v_H = 0``), shape (H, S, A1, A2)."""
    v_ext = np.vstack([v, np.zeros((1, game.n_states))])
    return np.stack([bellman_apply(game, h, v_ext[h + 1]) - q[h] for h in range(game.horizon)])


def sandwich_holds(iota_lower: np.ndarray, iota_upper: np.ndarray, bonus: np.ndarray) -> bool:
    """The two-sided residual event: ``0 <= iota_lower <= 2 Gamma`` and
    ``0 <= -iota_upper <= 2 Gamma`` everywhere (within ``_CHAIN_ATOL``)."""
    atol = _CHAIN_ATOL
    lo_ok = (iota_lower >= -atol).all() and (iota_lower <= 2.0 * bonus + atol).all()
    up_ok = (-iota_upper >= -atol).all() and (-iota_upper <= 2.0 * bonus + atol).all()
    return bool(lo_ok and up_ok)


def expected_total(
    game: TabularLinearMG,
    policy_max: MarkovPolicy,
    policy_min: MarkovPolicy,
    tables: np.ndarray,
) -> float:
    """``E[sum_h f_h(s_h, a_h, b_h)]`` from the initial state under a joint
    mixed policy pair, for arbitrary per-step tables f of shape (H,S,A1,A2)."""
    tables = _check_tables(game, tables)
    occupancy = _occupancy(game, policy_max, policy_min)
    return sum(float((joint * table).sum()) for joint, table in zip(occupancy, tables))


def _check_tables(game: TabularLinearMG, tables) -> np.ndarray:
    """``tables`` as a float array of the game's (H, S, A1, A2) shape."""
    tables = np.asarray(tables, dtype=np.float64)
    if tables.shape != (game.horizon, game.n_states, game.n_actions_p1, game.n_actions_p2):
        raise ConfigError(f"tables shape {tables.shape} does not match the game")
    return tables


def _occupancy(game: TabularLinearMG, policy_max: MarkovPolicy, policy_min: MarkovPolicy) -> np.ndarray:
    """Per-step joint distribution of (s_h, a_h, b_h) from the initial state
    under a mixed policy pair, shape (H, S, A1, A2)."""
    _check_policy(game, policy_max, 1)
    _check_policy(game, policy_min, 2)
    out = np.empty((game.horizon, game.n_states, game.n_actions_p1, game.n_actions_p2))
    rho = np.zeros(game.n_states)
    rho[game.initial_state] = 1.0
    for h in range(game.horizon):
        out[h] = np.einsum("s,sa,sb->sab", rho, policy_max.probs[h], policy_min.probs[h])
        rho = np.einsum("sab,sabt->t", out[h], game.transition[h])
    return out


def theorem_bound_rhs(
    game: TabularLinearMG,
    output: PmviOutput,
    nash: NashValues,
) -> float:
    """The exact uncertainty-weighted upper bound on the duality gap:

    ``2 beta sum_h E_{pi*, nu_aux}[sqrt(phi' Lambda_h^-1 phi)]
      + 2 beta sum_h E_{pi_aux, nu*}[sqrt(phi' Lambda_h^-1 phi)]``.
    """
    first = expected_total(game, nash.policy_max, output.policy_min_aux, output.unit_bonus)
    second = expected_total(game, output.policy_max_aux, nash.policy_min, output.unit_bonus)
    return 2.0 * output.beta * (first + second)


def value_difference(
    game: TabularLinearMG,
    q_hat: np.ndarray,
    v_hat: np.ndarray,
    policy_hat_max: MarkovPolicy,
    policy_hat_min: MarkovPolicy,
    policy_max: MarkovPolicy,
    policy_min: MarkovPolicy,
) -> tuple[float, float, float]:
    """Exact decomposition of ``Vhat_1(x) - V^{pi,nu}_1(x)``.

    ``q_hat`` (H, S, A1, A2) and ``v_hat`` (H, S) must fit the game, or :class:`ConfigError`.
    Requires the consistency ``Vhat_h(s) = pihat_h(s)' Qhat_h(s) nuhat_h(s)``
    (checked to ``_CHAIN_ATOL``; the decomposition is an identity only under it).  Returns
    ``(advantage_term, residual_term, total)`` where

    - advantage: ``sum_h E_{pi,nu}[<Qhat_h(s_h), pihat x nuhat - pi x nu>]``
    - residual:  ``sum_h E_{pi,nu}[Qhat_h(s_h,a_h,b_h) - (r_h + P_h Vhat_{h+1})(s_h,a_h,b_h)]``

    and ``total = advantage + residual = Vhat_1(x) - V^{pi,nu}_1(x)``.
    """
    for policy, player in ((policy_hat_max, 1), (policy_hat_min, 2), (policy_max, 1), (policy_min, 2)):
        _check_policy(game, policy, player)
    q_hat = _check_tables(game, q_hat)
    v_hat = np.asarray(v_hat, dtype=np.float64)
    if v_hat.shape != (game.horizon, game.n_states):
        raise ConfigError(f"v_hat shape {v_hat.shape} does not match the game {(game.horizon, game.n_states)}")
    consistency = np.einsum("hsa,hsab,hsb->hs", policy_hat_max.probs, q_hat, policy_hat_min.probs)
    worst = np.abs(consistency - v_hat).max()
    if worst > _CHAIN_ATOL:
        raise InvariantError(
            f"v_hat is not the bilinear form of q_hat under the hat policies "
            f"(worst deviation {worst:.3e})"
        )
    # <Qhat, pihat x nuhat> is a per-state scalar; spread it as a constant
    # table so the same expectation operator handles both terms.
    advantage_tables = consistency[:, :, None, None] - q_hat
    # IEEE subtraction is antisymmetric: these are the exact negated residuals
    residual_tables = -_residuals(game, q_hat, v_hat)
    advantage = expected_total(game, policy_max, policy_min, advantage_tables)
    residual = expected_total(game, policy_max, policy_min, residual_tables)
    total = advantage + residual
    x = game.initial_state
    expected = float(v_hat[0, x]) - float(policy_value(game, policy_max, policy_min)[0, x])
    if abs(total - expected) > _CHAIN_ATOL:
        raise InvariantError(
            f"value-difference identity violated: {total!r} vs {expected!r}"
        )
    return advantage, residual, total

