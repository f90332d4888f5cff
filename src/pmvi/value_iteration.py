"""Pessimistic minimax value iteration on an offline dataset.

One backward pass h = H-1 .. 0 over regularized least squares and matrix-game
solves.  With ridge parameter fixed at 1:

    Lambda_h = I + sum_tau phi_tau phi_tau'
    w_h      = Lambda_h^{-1} sum_tau phi_tau (r_tau + V_{h+1}(s'_tau))
    Gamma_h(s,a,b) = beta * sqrt(phi' Lambda_h^{-1} phi)

and two truncated Q estimates: a pessimistic one (bonus subtracted) and an
optimistic one (bonus added), each clipped to [0, H - h] -- the range of the
return over the remaining steps.  Each state's pessimistic Q matrix is solved
as a zero-sum game, giving the output max-player policy and an auxiliary
min-player policy; the optimistic matrix gives the output min-player policy
and an auxiliary max-player policy.  The V estimates are the matrix-game
values under those strategy pairs.

The bonus multiplier defaults to ``beta = c * d * H * sqrt(log(2 d K H / p))``
where ``p`` is the failure probability of the confidence construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import OfflineDataset, check_dataset_bounds
from .errors import ConfigError, InvariantError
from .games import MarkovPolicy, QTable, TabularLinearMG, VTable
from .matrix_nash import solve_zero_sum

#: Ridge regularizer of the least-squares step.  The confidence-bonus
#: construction is calibrated to this exact value; it is not a knob.
RIDGE_LAMBDA = 1.0

_VALUE_CROSS_CHECK_ATOL = 1e-8


@dataclass(frozen=True)
class PmviConfig:
    """Algorithm parameters.

    Either give ``beta`` explicitly, or leave it ``None`` to use
    :func:`default_beta` with this config's ``c`` and ``p``.
    """

    beta: float | None = None
    c: float = 1.0
    p: float = 0.1
    nash_tol: float = 1e-9

    def __post_init__(self) -> None:
        if self.beta is not None and self.beta < 0:
            raise ConfigError("beta must be nonnegative")
        if self.beta is None:
            if self.c <= 0:
                raise ConfigError("c must be positive")
            if not 0 < self.p < 1:
                raise ConfigError("p must lie in (0, 1)")
        if self.nash_tol <= 0:
            raise ConfigError("nash_tol must be positive")

    def resolve_beta(self, d: int, horizon: int, k: int) -> float:
        if self.beta is not None:
            return float(self.beta)
        if k < 1:
            raise ConfigError("the default beta needs k >= 1; pass beta explicitly for empty datasets")
        return default_beta(d, horizon, k, self.p, self.c)


def default_beta(d: int, horizon: int, k: int, p: float, c: float = 1.0) -> float:
    """The theory-calibrated bonus multiplier ``c * d * H * sqrt(log(2dKH/p))``."""
    if min(d, horizon, k) < 1:
        raise ConfigError("d, horizon and k must all be >= 1")
    if not 0 < p < 1:
        raise ConfigError("p must lie in (0, 1)")
    if c <= 0:
        raise ConfigError("c must be positive")
    return c * d * horizon * math.sqrt(math.log(2.0 * d * k * horizon / p))


@dataclass(frozen=True)
class PmviOutput:
    """Everything the backward pass produces.

    Policies: ``policy_max``/``policy_min`` are the actual output pair; the
    ``*_aux`` companions are the opposite-side equilibrium strategies of the
    pessimistic resp. optimistic matrices (used by the bound diagnostics).
    ``unit_bonus`` is the beta = 1 bonus the diagnostics reuse; ``bonus`` is
    ``beta * unit_bonus``, the penalty the pass applied.
    """

    beta: float
    gram: np.ndarray            # (H, d, d)
    weights_lower: np.ndarray   # (H, d)
    weights_upper: np.ndarray   # (H, d)
    unit_bonus: np.ndarray      # (H, S, A1, A2), sqrt(phi' Lambda_h^-1 phi)
    q_lower: QTable
    q_upper: QTable
    v_lower: VTable
    v_upper: VTable
    policy_max: MarkovPolicy      # from the pessimistic matrices
    policy_min_aux: MarkovPolicy  # ditto, opponent side
    policy_max_aux: MarkovPolicy  # from the optimistic matrices
    policy_min: MarkovPolicy      # ditto, output side

    def __post_init__(self) -> None:
        for name in ("gram", "weights_lower", "weights_upper", "unit_bonus"):
            arr = np.ascontiguousarray(getattr(self, name), dtype=np.float64)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def bonus(self) -> np.ndarray:
        """``beta * sqrt(phi' Lambda_h^-1 phi)``, shape (H, S, A1, A2)."""
        return self.beta * self.unit_bonus


def gram_matrices(game: TabularLinearMG, dataset: OfflineDataset) -> np.ndarray:
    """Per-step regularized Gram matrices ``I + sum_tau phi phi'``, shape (H, d, d)."""
    check_dataset_bounds(game, dataset)
    d = game.dim
    gram = np.empty((game.horizon, d, d))
    eye = RIDGE_LAMBDA * np.eye(d)
    for h in range(game.horizon):
        phi = game.features[dataset.states[:, h], dataset.actions_p1[:, h], dataset.actions_p2[:, h]]
        gram[h] = eye + phi.T @ phi
    return gram


def ridge_weights(gram_h: np.ndarray, phi: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Solve ``gram_h w = phi' targets`` by Cholesky (no explicit inverse)."""
    rhs = phi.T @ targets
    chol = np.linalg.cholesky(gram_h)
    return np.linalg.solve(chol.T, np.linalg.solve(chol, rhs))


def bonus_tables(game: TabularLinearMG, gram: np.ndarray, beta: float = 1.0) -> np.ndarray:
    """``beta * sqrt(phi' Lambda_h^{-1} phi)`` for every (h, s, a, b)."""
    h_len, s, a1, a2 = game.horizon, game.n_states, game.n_actions_p1, game.n_actions_p2
    flat = game.features.reshape(-1, game.dim)
    out = np.empty((h_len, s, a1, a2))
    for h in range(h_len):
        chol = np.linalg.cholesky(gram[h])
        z = np.linalg.solve(chol, flat.T)
        out[h] = beta * np.sqrt((z * z).sum(axis=0)).reshape(s, a1, a2)
    return out


def run_pmvi(game: TabularLinearMG, dataset: OfflineDataset, config: PmviConfig) -> PmviOutput:
    """The full backward pass.  Deterministic: same inputs, same output bits."""
    h_len, s_count = game.horizon, game.n_states
    a1c, a2c, d = game.n_actions_p1, game.n_actions_p2, game.dim
    beta = config.resolve_beta(d, h_len, dataset.k)
    gram = gram_matrices(game, dataset)
    unit_bonus = bonus_tables(game, gram, beta=1.0)
    flat = game.features.reshape(-1, d)

    w_lo = np.zeros((h_len, d))
    w_up = np.zeros((h_len, d))
    q_lo = np.zeros((h_len, s_count, a1c, a2c))
    q_up = np.zeros((h_len, s_count, a1c, a2c))
    v_lo = np.zeros((h_len + 1, s_count))
    v_up = np.zeros((h_len + 1, s_count))
    pi_hat = np.zeros((h_len, s_count, a1c))
    nu_aux = np.zeros((h_len, s_count, a2c))
    pi_aux = np.zeros((h_len, s_count, a1c))
    nu_hat = np.zeros((h_len, s_count, a2c))

    for h in reversed(range(h_len)):
        phi = game.features[dataset.states[:, h], dataset.actions_p1[:, h], dataset.actions_p2[:, h]]
        rew = dataset.rewards[:, h]
        nxt = dataset.next_states[:, h]
        w_lo[h] = ridge_weights(gram[h], phi, rew + v_lo[h + 1][nxt])
        w_up[h] = ridge_weights(gram[h], phi, rew + v_up[h + 1][nxt])
        cap = float(h_len - h)
        gamma = beta * unit_bonus[h]
        q_lo[h] = np.clip((flat @ w_lo[h]).reshape(s_count, a1c, a2c) - gamma, 0.0, cap)
        q_up[h] = np.clip((flat @ w_up[h]).reshape(s_count, a1c, a2c) + gamma, 0.0, cap)
        for s in range(s_count):
            sol = solve_zero_sum(q_lo[h, s], tol=config.nash_tol)
            pi_hat[h, s] = sol.row_strategy
            nu_aux[h, s] = sol.col_strategy
            v_lo[h, s] = _bilinear(sol.row_strategy, q_lo[h, s], sol.col_strategy, sol.value)
            sol = solve_zero_sum(q_up[h, s], tol=config.nash_tol)
            pi_aux[h, s] = sol.row_strategy
            nu_hat[h, s] = sol.col_strategy
            v_up[h, s] = _bilinear(sol.row_strategy, q_up[h, s], sol.col_strategy, sol.value)

    return PmviOutput(
        beta=beta,
        gram=gram,
        weights_lower=w_lo,
        weights_upper=w_up,
        unit_bonus=unit_bonus,
        q_lower=QTable(q_lo),
        q_upper=QTable(q_up),
        v_lower=VTable(v_lo[:h_len]),
        v_upper=VTable(v_up[:h_len]),
        policy_max=MarkovPolicy(pi_hat, player=1),
        policy_min_aux=MarkovPolicy(nu_aux, player=2),
        policy_max_aux=MarkovPolicy(pi_aux, player=1),
        policy_min=MarkovPolicy(nu_hat, player=2),
    )


def _bilinear(x: np.ndarray, matrix: np.ndarray, y: np.ndarray, lp_value: float) -> float:
    """x' M y, cross-checked against the LP's own optimal value."""
    value = float(x @ matrix @ y)
    if abs(value - lp_value) > _VALUE_CROSS_CHECK_ATOL:
        raise InvariantError(
            f"equilibrium value mismatch: bilinear form {value!r} vs LP value {lp_value!r}"
        )
    return value


def output_to_dict(output: PmviOutput) -> dict:
    """JSON-ready dump of an algorithm run (nested lists, no numpy types)."""
    return {
        "beta": output.beta,
        "gram": output.gram.tolist(),
        "weights_lower": output.weights_lower.tolist(),
        "weights_upper": output.weights_upper.tolist(),
        "bonus": output.bonus.tolist(),
        "q_lower": output.q_lower.values.tolist(),
        "q_upper": output.q_upper.values.tolist(),
        "v_lower": output.v_lower.values.tolist(),
        "v_upper": output.v_upper.values.tolist(),
        "policy_max": output.policy_max.probs.tolist(),
        "policy_min": output.policy_min.probs.tolist(),
        "policy_max_aux": output.policy_max_aux.probs.tolist(),
        "policy_min_aux": output.policy_min_aux.probs.tolist(),
    }
