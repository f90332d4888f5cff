"""Independent reference implementations used only by the tests.

Everything here is deliberately written with different machinery than the
package: exact rational arithmetic, support enumeration instead of linear
programming, and forward trajectory enumeration instead of vectorized
backward passes.  Nothing here imports ``pmvi`` beyond its ``MarkovPolicy``
container, for :func:`pure_policy`.  The matrix-game oracle
scales its input exactly to integers and solves each square kernel by
integer Cramer's rule (adjugate and determinant), with no floats and no
simplex or LP anywhere in the search; it builds ``Fraction``s only for the
equilibrium it returns.  Slow but trustworthy on small inputs.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations, product

import numpy as np


# ---------------------------------------------------------------------------
# exact matrix-game value by support enumeration


def _det(a: list[list[int]]) -> int:
    """Integer determinant by cofactor expansion along the first row."""
    if not a:
        return 1
    return sum(
        (-1) ** j * a[0][j] * _det([row[:j] + row[j + 1:] for row in a[1:]])
        for j in range(len(a))
    )


def _adjugate(a: list[list[int]]) -> list[list[int]]:
    """adj(a)[i][j] = (-1)^(i+j) det(a without row j and column i)."""
    k = len(a)
    return [
        [
            (-1) ** (i + j) * _det([row[:i] + row[i + 1:] for r, row in enumerate(a) if r != j])
            for j in range(k)
        ]
        for i in range(k)
    ]


def _kernel_solution(n: list[list[int]], rows: tuple, cols: tuple):
    """Try a square support kernel of the integer matrix ``n``.

    Returns ``(cx, cy, s, d)`` with ``s > 0`` such that ``x = cx / s`` on
    ``rows``, ``y = cy / s`` on ``cols`` and ``v = d / s`` is an equilibrium
    of ``n``, or None.  Here ``cx = 1ᵀ adj``, ``cy = adj 1``, ``s = 1ᵀ adj 1``
    and ``d = det`` of the kernel.  By the bordered-determinant identity the
    systems ``xᵀ A = v 1ᵀ, 1ᵀ x = 1`` and ``A y = v 1, 1ᵀ y = 1`` are
    nonsingular exactly when ``s != 0``, and Cramer's rule gives those
    solutions, also for a singular kernel (then ``v = 0``).
    """
    kernel = [[n[i][j] for j in cols] for i in rows]
    adj = _adjugate(kernel)
    cx = [sum(column) for column in zip(*adj)]
    cy = [sum(row) for row in adj]
    s = sum(cy)
    if s == 0:
        return None
    d = sum(a * row[0] for a, row in zip(kernel[0], adj))  # (A adj)[0][0] = det A
    if s < 0:
        cx, cy, s, d = [-c for c in cx], [-c for c in cy], -s, -d
    if min(cx) < 0 or min(cy) < 0:
        return None
    # optimality outside the kernel: no pure deviation helps either player
    # (each inequality multiplied through by s > 0)
    for j in range(len(n[0])):
        if sum(c * n[i][j] for c, i in zip(cx, rows)) < d:
            return None
    for row in n:
        if sum(row[j] * c for j, c in zip(cols, cy)) > d:
            return None
    return cx, cy, s, d


def exact_matrix_equilibrium(matrix) -> tuple[list[Fraction], list[Fraction], Fraction]:
    """Exact (x, y, value) of a zero-sum matrix game via square kernels.

    The entries are converted to ``Fraction`` exactly (a float's denominator
    is a power of two) and the matrix is scaled to integers by the LCM of the
    denominators.  After a pure-saddle check, square kernels are tried in
    order of size k = 1..min(m, n), rows x cols combinations, each solved by
    integer Cramer's rule (adjugate and determinant); ``Fraction``s are built
    only for the kernel that is returned.  Every finite zero-sum game has a
    square kernel whose linear systems produce an equilibrium (Shapley &
    Snow, "Basic Solutions of Discrete Games", 1950), so the search always
    terminates.
    """
    exact = [[Fraction(v) for v in row] for row in np.asarray(matrix).tolist()]
    scale = math.lcm(*(f.denominator for row in exact for f in row))
    n = [[f.numerator * (scale // f.denominator) for f in row] for row in exact]
    n_rows, n_cols = len(n), len(n[0])
    x = [Fraction(0)] * n_rows
    y = [Fraction(0)] * n_cols
    # fast path: a pure saddle point (max of row minima == min of column maxima)
    row_mins = [min(row) for row in n]
    col_maxs = [max(column) for column in zip(*n)]
    lower, upper = max(row_mins), min(col_maxs)
    if lower == upper:
        i_star = row_mins.index(lower)
        j_star = col_maxs.index(upper)
        x[i_star], y[j_star] = Fraction(1), Fraction(1)
        return x, y, exact[i_star][j_star]
    for k in range(1, min(n_rows, n_cols) + 1):
        for rows in combinations(range(n_rows), k):
            for cols in combinations(range(n_cols), k):
                found = _kernel_solution(n, rows, cols)
                if found is not None:
                    cx, cy, s, d = found
                    for i, c in zip(rows, cx):
                        x[i] = Fraction(c, s)
                    for j, c in zip(cols, cy):
                        y[j] = Fraction(c, s)
                    return x, y, Fraction(d, s * scale)
    raise AssertionError("no equilibrium kernel found; should be impossible")


def exact_matrix_value(matrix) -> Fraction:
    return exact_matrix_equilibrium(matrix)[2]


# ---------------------------------------------------------------------------
# exact game values by backward induction over Fraction matrices


def exact_nash_value_table(game) -> list[list[Fraction]]:
    """V*[h][s] for the whole game, exactly."""
    h_len, s_count = game.horizon, game.n_states
    v_next = [Fraction(0)] * s_count
    table: list[list[Fraction]] = [None] * h_len  # type: ignore[list-item]
    for h in reversed(range(h_len)):
        v_here = []
        for s in range(s_count):
            q = [
                [
                    Fraction(float(game.reward[h, s, a, b]))
                    + sum(
                        Fraction(float(game.transition[h, s, a, b, t])) * v_next[t]
                        for t in range(s_count)
                    )
                    for b in range(game.n_actions_p2)
                ]
                for a in range(game.n_actions_p1)
            ]
            v_here.append(exact_matrix_value(q))
        table[h] = v_here
        v_next = v_here
    return table


# ---------------------------------------------------------------------------
# forward trajectory enumeration


def trajectory_expected_total(game, policy_max, policy_min, tables) -> Fraction:
    """E[sum_h tables[h, s_h, a_h, b_h]] by exhaustive forward enumeration."""
    tables = np.asarray(tables)
    h_len, s_count = game.horizon, game.n_states

    def recurse(h: int, s: int) -> Fraction:
        if h == h_len:
            return Fraction(0)
        total = Fraction(0)
        for a in range(game.n_actions_p1):
            pa = Fraction(float(policy_max.probs[h, s, a]))
            if pa == 0:
                continue
            for b in range(game.n_actions_p2):
                pb = Fraction(float(policy_min.probs[h, s, b]))
                if pb == 0:
                    continue
                branch = Fraction(float(tables[h, s, a, b]))
                for t in range(s_count):
                    pt = Fraction(float(game.transition[h, s, a, b, t]))
                    if pt != 0:
                        branch += pt * recurse(h + 1, t)
                total += pa * pb * branch
        return total

    return recurse(0, game.initial_state)


def trajectory_policy_value(game, policy_max, policy_min) -> Fraction:
    return trajectory_expected_total(game, policy_max, policy_min, game.reward)


# ---------------------------------------------------------------------------
# brute-force optimization over deterministic Markov policies


def deterministic_policies(game, player: int):
    """Yield every deterministic Markov policy action table, shape (H, S)."""
    n_actions = game.n_actions_p1 if player == 1 else game.n_actions_p2
    cells = game.horizon * game.n_states
    for combo in product(range(n_actions), repeat=cells):
        yield np.asarray(combo, dtype=np.int64).reshape(game.horizon, game.n_states)


def pure_policy(game, player: int, actions):
    """The deterministic ``MarkovPolicy`` of ``player`` that plays ``actions``
    (a scalar or an (H, S) integer table) at every (h, s)."""
    from pmvi import MarkovPolicy

    n_actions = game.n_actions_p1 if player == 1 else game.n_actions_p2
    idx = np.broadcast_to(np.asarray(actions, dtype=np.int64), (game.horizon, game.n_states))
    return MarkovPolicy(np.eye(n_actions)[idx], player)


def brute_force_best_response(game, policy) -> Fraction:
    """Exact best-response value against a fixed policy: min over deterministic
    opponents if the fixed side is the max player, max otherwise."""
    free = 2 if policy.player == 1 else 1
    best: Fraction | None = None
    for actions in deterministic_policies(game, free):
        pure = pure_policy(game, free, actions)
        pair = (policy, pure) if free == 2 else (pure, policy)
        value = trajectory_policy_value(game, pair[0], pair[1])
        if best is None:
            best = value
        elif free == 2:
            best = min(best, value)
        else:
            best = max(best, value)
    assert best is not None
    return best


def brute_force_max_total(game, tables, fixed_policy) -> Fraction:
    """Exact sup over the free player's policies of E[sum_h tables]."""
    free = 2 if fixed_policy.player == 1 else 1
    best: Fraction | None = None
    for actions in deterministic_policies(game, free):
        pure = pure_policy(game, free, actions)
        pair = (fixed_policy, pure) if free == 2 else (pure, fixed_policy)
        value = trajectory_expected_total(game, pair[0], pair[1], tables)
        if best is None or value > best:
            best = value
    assert best is not None
    return best
