"""Exact-ish zero-sum matrix game solving via a dense simplex tableau.

The row player maximizes ``x' M y``, the column player minimizes it.  The
solver uses the classical reduction: shift the payoff so every entry is
>= 1, solve the column player's LP

    max 1'w   s.t.  M w <= 1,  w >= 0

with the primal simplex under Bland's pivoting rule (which cannot cycle),
then read the column strategy from the primal solution and the row strategy
from the duals carried in the objective row.  Everything is deterministic:
identical input bits give identical output bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, SolverError
from .games import _freeze

#: Pivot threshold: entries smaller than this are treated as zero.
_PIVOT_EPS = 1e-11
#: Hard cap on simplex pivots; Bland's rule terminates long before this.
_MAX_PIVOTS = 100_000


@dataclass(frozen=True)
class NashSolution:
    """An equilibrium of a zero-sum matrix game.

    ``exploitability`` is the duality gap of the returned strategy pair,
    ``max_i (M y)_i - min_j (x' M)_j >= 0``; the solver certifies it is at
    most the requested tolerance.
    """

    row_strategy: np.ndarray
    col_strategy: np.ndarray
    value: float
    exploitability: float

    def __post_init__(self) -> None:
        for name in ("row_strategy", "col_strategy"):
            object.__setattr__(self, name, _freeze(getattr(self, name), np.float64))


def _simplex_max(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, list]:
    """Maximize ``1'w`` subject to ``a w <= 1``, ``w >= 0`` (the shifted game's LP).

    Returns ``(w, duals, basis)``; ``basis`` lists the final basic columns
    of ``[a | I]``, one per row.  Entering variable: lowest index with positive
    reduced cost; leaving variable: lowest-index basis variable among the
    minimum-ratio rows (Bland's rule, so no cycling).
    """
    m, n = a.shape
    tableau = np.empty((m, n + m + 1))
    tableau[:, :n] = a
    tableau[:, n : n + m] = np.eye(m)
    tableau[:, -1] = 1.0
    reduced = np.concatenate([np.ones(n), np.zeros(m)])
    basis = list(range(n, n + m))

    for _ in range(_MAX_PIVOTS):
        entering = -1
        for j in range(n + m):
            if reduced[j] > _PIVOT_EPS:
                entering = j
                break
        if entering < 0:
            break
        col = tableau[:, entering]
        leaving = -1
        best_ratio = np.inf
        for i in range(m):
            if col[i] > _PIVOT_EPS:
                ratio = tableau[i, -1] / col[i]
                if ratio < best_ratio - _PIVOT_EPS or (
                    abs(ratio - best_ratio) <= _PIVOT_EPS
                    and (leaving < 0 or basis[i] < basis[leaving])
                ):
                    best_ratio = ratio
                    leaving = i
        if leaving < 0:
            raise SolverError("unbounded linear program in zero-sum reduction")
        pivot = tableau[leaving, entering]
        tableau[leaving] /= pivot
        pivot_row = tableau[leaving]
        for i in range(m):
            if i != leaving and tableau[i, entering] != 0.0:
                tableau[i] -= tableau[i, entering] * pivot_row
        reduced = reduced - reduced[entering] * pivot_row[:-1]
        basis[leaving] = entering
    else:
        raise SolverError("simplex failed to terminate")

    w = np.zeros(n + m)
    w[basis] = tableau[:, -1]
    duals = -reduced[n:]
    return w[:n], duals, basis


def _basis_solution(a: np.ndarray, basis: list) -> tuple[np.ndarray, np.ndarray]:
    """Primal ``w`` and duals ``u`` of ``max 1'w s.t. a w <= 1, w >= 0`` solved
    afresh on the final basis ``B`` of ``[a | I]``: ``B w_B = 1``, ``B' u = c_B``."""
    m, n = a.shape
    basic = np.hstack([a, np.eye(m)])[:, basis]
    w = np.zeros(n + m)
    try:
        w[basis] = np.linalg.solve(basic, np.ones(m))
        duals = np.linalg.solve(basic.T, (np.asarray(basis) < n).astype(np.float64))
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"singular final simplex basis: {exc}") from exc
    return w[:n], duals


def _equilibrium(m: np.ndarray, shift: float, w: np.ndarray, duals: np.ndarray) -> NashSolution:
    """Strategies, value and exploitability from the shifted LP's primal and duals."""
    col_total = w.sum()
    if col_total <= 0 or duals.sum() <= 0:
        raise SolverError("degenerate simplex output: zero strategy mass")
    # Termination tolerates reduced costs up to the pivot threshold, so the
    # extracted vectors can carry ~1e-11 of negative dust; scrub it.
    w = np.where(w > 0.0, w, 0.0)
    duals = np.where(duals > 0.0, duals, 0.0)
    y = w / w.sum()
    x = duals / duals.sum()
    value = 1.0 / col_total + shift
    gap = best_pure_response_gap(m, x, y)
    return NashSolution(row_strategy=x, col_strategy=y, value=value, exploitability=gap)


def best_pure_response_gap(matrix, row_strategy, col_strategy) -> float:
    """Duality gap of a strategy pair: best pure deviation for each player."""
    m = np.asarray(matrix, dtype=np.float64)
    x = np.asarray(row_strategy, dtype=np.float64)
    y = np.asarray(col_strategy, dtype=np.float64)
    return float((m @ y).max() - (x @ m).min())


def solve_zero_sum(matrix, tol: float = 1e-9) -> NashSolution:
    """Equilibrium strategies and value of the zero-sum game ``matrix``.

    A constant matrix skips the tableau: the one pivot Bland's rule would make
    is written in closed form, and its certificate is computed all the same.
    The tableau gathers rounding over its pivots: when the pair read from it
    misses ``tol``, the final basis is solved afresh and certified again.
    Raises :class:`SolverError` if that pair also exceeds ``tol`` (which for
    well-scaled inputs indicates a bug, not an unlucky instance).
    """
    try:
        m = np.asarray(matrix, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"payoff matrix is not a rectangular numeric array: {exc}") from exc
    if m.ndim != 2 or m.size == 0:
        raise ConfigError(f"payoff matrix must be 2-d and nonempty, got shape {m.shape}")
    lo, hi = float(m.min()), float(m.max())  # min and max propagate NaN and +-inf
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ConfigError("payoff matrix contains non-finite entries")
    if not tol > 0:
        raise ConfigError(f"tol must be positive, got {tol!r}")

    shift = lo - max(1.0, math.ulp(lo))  # beyond 2**53, ``lo - 1.0`` would round back to ``lo``
    if not (math.isfinite(shift) and math.isfinite(hi - shift)):
        raise ConfigError(f"payoff entries span [{lo!r}, {hi!r}]; shifted to >= 1 they overflow float64")
    if lo == hi:  # Bland's rule pivots once here: column 0 enters, row 0 leaves, w = duals = e0 / (hi - shift)
        x, y = np.zeros(m.shape[0]), np.zeros(m.shape[1])
        x[0] = y[0] = 1.0
        sol = NashSolution(x, y, 1.0 / (1.0 / (hi - shift)) + shift, best_pure_response_gap(m, x, y))
    else:
        shifted = m - shift  # every entry >= 1, so the game value is >= 1 > 0
        try:
            w, duals, basis = _simplex_max(shifted)
        except SolverError:
            # the shifted LP is bounded: at this spread the entering column fell below _PIVOT_EPS
            if hi - shift < 1.0 / _PIVOT_EPS:
                raise
            raise ConfigError(f"payoff entries span [{lo!r}, {hi!r}]; shifted to >= 1 they are too wide to pivot on") from None
        sol = _equilibrium(m, shift, w, duals)
        if not sol.exploitability <= tol:
            sol = _equilibrium(m, shift, *_basis_solution(shifted, basis))
    if not sol.exploitability <= tol:
        raise SolverError(f"equilibrium certificate failed: exploitability {sol.exploitability:.3e} > tol {tol:.3e}")
    return sol


def _solve_stage(q: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`solve_zero_sum` on each matrix of ``q`` (S, A1, A2): row strategies (S, A1), column ones (S, A2), values (S,)."""
    rows, cols, values = zip(*((sol.row_strategy, sol.col_strategy, sol.value) for sol in map(solve_zero_sum, q)))
    return np.array(rows), np.array(cols), np.array(values)
