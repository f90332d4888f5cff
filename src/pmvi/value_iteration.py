"""Pessimistic minimax value iteration on an offline dataset.

One backward pass h = H-1 .. 0 over regularized least squares and matrix-game
solves.  With ridge parameter fixed at 1:

    Lambda_h = I + sum_tau phi_tau phi_tau'
    w_h      = Lambda_h^{-1} sum_tau phi_tau (r_tau + V_{h+1}(s'_tau))
    Gamma_h(s,a,b) = beta * sqrt(phi' Lambda_h^{-1} phi)

Features depend only on the cell (s, a, b), so the pass works on per-step
cell statistics -- visit counts n_h, reward sums R_h and cell-to-next-state
counts N_h -- with F the (S*A1*A2, d) feature matrix.  This is exact for any
features and costs O(K + cells * d^2) per step instead of O(K * d^2):

    Lambda_h = I + F' diag(n_h) F,    w_h = Lambda_h^{-1} F' (R_h + N_h V_{h+1})

and two truncated Q estimates F w_h -+ Gamma_h, pessimistic and optimistic,
each clipped to [0, H - h] -- the range of the return over the remaining steps.
Per step and side one stage solve takes the zero-sum game of every state: the
pessimistic side gives the output max-player policy and an auxiliary min-player
one, the optimistic side the output min-player policy and an auxiliary
max-player one.  V_h(s) is the bilinear form x' Q_h(s) y of the state's pair,
checked against the LP value.  One nonzero per cell makes Lambda_h diagonal.

The bonus multiplier defaults to ``beta = c * d * H * sqrt(log(2 d K H / p))``
where ``p`` is the failure probability of the confidence construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import OfflineDataset, check_dataset_bounds
from .errors import ConfigError, InvariantError
from .games import MarkovPolicy, TabularLinearMG, _freeze
from .matrix_nash import _solve_stage

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

    def __post_init__(self) -> None:
        if self.beta is not None and not 0 <= self.beta < math.inf:
            raise ConfigError(f"beta must be finite and nonnegative, got {self.beta!r}")
        if self.beta is None:
            if not 0 < self.c < math.inf:
                raise ConfigError(f"c must be positive and finite, got {self.c!r}")
            if not 0 < self.p < 1:
                raise ConfigError("p must lie in (0, 1)")

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
    beta = c * d * horizon * math.sqrt(math.log(2.0 * d * k * horizon / p))
    if not math.isfinite(beta):
        raise ConfigError(f"the default beta c * d * H * sqrt(log(2dKH/p)) is not finite at c={c!r}")
    return beta


@dataclass(frozen=True)
class PmviOutput:
    """Everything the backward pass produces.

    Policies: ``policy_max``/``policy_min`` are the actual output pair; the
    ``*_aux`` companions are the opposite-side equilibrium strategies of the
    pessimistic resp. optimistic matrices (used by the bound diagnostics).
    ``unit_bonus`` is the beta = 1 bonus the diagnostics reuse; ``bonus`` is
    ``beta * unit_bonus``, the penalty the pass applied.  Every array field,
    the Q and V tables included, is a read-only float64 array.
    """

    beta: float
    gram: np.ndarray            # (H, d, d)
    weights_lower: np.ndarray   # (H, d)
    weights_upper: np.ndarray   # (H, d)
    unit_bonus: np.ndarray      # (H, S, A1, A2), sqrt(phi' Lambda_h^-1 phi)
    q_lower: np.ndarray         # (H, S, A1, A2), pessimistic Q
    q_upper: np.ndarray         # (H, S, A1, A2), optimistic Q
    v_lower: np.ndarray         # (H, S); V_{H+1} = 0 is implicit
    v_upper: np.ndarray         # (H, S)
    policy_max: MarkovPolicy      # from the pessimistic matrices
    policy_min_aux: MarkovPolicy  # ditto, opponent side
    policy_max_aux: MarkovPolicy  # from the optimistic matrices
    policy_min: MarkovPolicy      # ditto, output side

    def __post_init__(self) -> None:
        arrays = ("gram", "weights_lower", "weights_upper", "unit_bonus", "q_lower", "q_upper", "v_lower", "v_upper")
        for name in arrays:
            object.__setattr__(self, name, _freeze(getattr(self, name), np.float64))

    @property
    def bonus(self) -> np.ndarray:
        """``beta * sqrt(phi' Lambda_h^-1 phi)``, shape (H, S, A1, A2)."""
        return self.beta * self.unit_bonus


def gram_matrices(game: TabularLinearMG, dataset: OfflineDataset) -> np.ndarray:
    """Per-step regularized Gram matrices ``I + sum_tau phi phi'``, shape (H, d, d);
    diagonal, and only the diagonal is summed, when each cell's feature has one nonzero."""
    check_dataset_bounds(game, dataset)
    counts = _step_sums(game.reward.shape, _samples(dataset))
    if game.single_nonzero is not None:
        col, val = game.single_nonzero
        gram, idx = np.zeros((game.horizon, game.dim, game.dim)), np.arange(game.dim)
        gram[:, idx, idx] = [RIDGE_LAMBDA + np.bincount(col, val * (n * val), game.dim) for n in counts]
        return gram
    flat = game.features.reshape(-1, game.dim)
    eye = RIDGE_LAMBDA * np.eye(game.dim)
    return np.stack([eye + flat.T @ (n[:, None] * flat) for n in counts])


def ridge_weights(gram_h: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve ``gram_h w = rhs`` with one ``np.linalg.solve`` (one LU
    factorisation, no explicit inverse); ``rhs`` is (d,) or (d, m), and every
    column shares the factor."""
    return np.linalg.solve(gram_h, rhs)


def _samples(dataset: OfflineDataset) -> tuple:
    """The (h, s, a, b) multi-index of every sample, broadcastable to (K, H)."""
    return np.arange(dataset.horizon), dataset.states, dataset.actions_p1, dataset.actions_p2


def _step_sums(shape: tuple, index: tuple, weights: np.ndarray | None = None) -> np.ndarray:
    """Sums of ``weights`` (counts when None) over the samples in each bin of
    ``shape``, addressed by the multi-index ``index``; shape (H, rest)."""
    bins = np.ravel_multi_index(index, shape).ravel()
    sums = np.bincount(bins, weights=None if weights is None else weights.ravel(), minlength=math.prod(shape))
    return sums.reshape(shape[0], -1)


def bonus_tables(game: TabularLinearMG, gram: np.ndarray) -> np.ndarray:
    """The unit bonus ``sqrt(phi' Lambda_h^{-1} phi)`` for every (h, s, a, b),
    ``gram`` being :func:`gram_matrices` of ``game``: per step one solve of
    ``Lambda_h X = F'`` for all cells, then the column sums of ``F' * X``; or,
    with one nonzero ``val`` per cell, ``sqrt(val^2 / Lambda_h[col, col])``."""
    if game.single_nonzero is not None:
        col, val = game.single_nonzero
        inv_diag = 1.0 / np.diagonal(gram, axis1=1, axis2=2)
        return np.sqrt(val * (val * inv_diag[:, col])).reshape(game.reward.shape)
    flat_t = game.features.reshape(-1, game.dim).T
    out = np.empty(game.reward.shape)
    for h in range(game.horizon):
        quad = (flat_t * np.linalg.solve(gram[h], flat_t)).sum(axis=0)
        out[h] = np.sqrt(quad).reshape(out.shape[1:])
    return out


def run_pmvi(game: TabularLinearMG, dataset: OfflineDataset, config: PmviConfig) -> PmviOutput:
    """The full backward pass.  Deterministic: same inputs, same output bits."""
    h_len, s_count = game.horizon, game.n_states
    a1c, a2c, d = game.n_actions_p1, game.n_actions_p2, game.dim
    beta = config.resolve_beta(d, h_len, dataset.k)
    gram = gram_matrices(game, dataset)
    unit_bonus = bonus_tables(game, gram)
    flat = game.features.reshape(-1, d)
    inv_diag = 1.0 / np.diagonal(gram, axis1=1, axis2=2)  # Lambda_h^-1 when each cell has one nonzero
    # per-(h, cell) statistics of the ridge targets: reward sums, next-state counts
    samples = _samples(dataset)
    reward_sums = _step_sums(game.reward.shape, samples, dataset.rewards)
    next_counts = _step_sums(game.transition.shape, (*samples, dataset.next_states))
    next_counts = next_counts.reshape(h_len, -1, s_count)

    # side 0 is the pessimistic estimate (bonus subtracted), side 1 the optimistic one
    w = np.zeros((2, h_len, d))
    q = np.zeros((2, h_len, s_count, a1c, a2c))
    v = np.zeros((2, h_len + 1, s_count))
    rows = np.zeros((2, h_len, s_count, a1c))
    cols = np.zeros((2, h_len, s_count, a2c))

    for h in reversed(range(h_len)):
        targets = reward_sums[h][:, None] + next_counts[h] @ v[:, h + 1].T  # (cells, 2)
        rhs = flat.T @ targets
        w[:, h] = (ridge_weights(gram[h], rhs) if game.single_nonzero is None else rhs * inv_diag[h][:, None]).T
        gamma = beta * unit_bonus[h]
        for side, sign in enumerate((-1.0, 1.0)):
            estimate = (flat @ w[side, h]).reshape(s_count, a1c, a2c) + sign * gamma
            q[side, h] = np.clip(estimate, 0.0, h_len - h)
            x, y, lp_values = _solve_stage(q[side, h])
            rows[side, h], cols[side, h] = x, y
            v[side, h] = (x[:, None] @ q[side, h] @ y[:, :, None])[:, 0, 0]  # x' Q y, state by state
            if (mismatch := np.abs(v[side, h] - lp_values) > _VALUE_CROSS_CHECK_ATOL).any():
                s = int(mismatch.argmax())
                raise InvariantError(f"equilibrium value mismatch at h={h}, s={s}: bilinear form "
                                     f"{float(v[side, h, s])!r} vs LP value {float(lp_values[s])!r}")

    return PmviOutput(
        beta=beta,
        gram=gram,
        weights_lower=w[0],
        weights_upper=w[1],
        unit_bonus=unit_bonus,
        q_lower=q[0],
        q_upper=q[1],
        v_lower=v[0, :h_len],
        v_upper=v[1, :h_len],
        policy_max=MarkovPolicy(rows[0], player=1),
        policy_min_aux=MarkovPolicy(cols[0], player=2),
        policy_max_aux=MarkovPolicy(rows[1], player=1),
        policy_min=MarkovPolicy(cols[1], player=2),
    )


def output_to_dict(output: PmviOutput) -> dict:
    """JSON-ready dump of an algorithm run (nested lists, no numpy types)."""
    return {
        "beta": output.beta,
        "gram": output.gram.tolist(),
        "weights_lower": output.weights_lower.tolist(),
        "weights_upper": output.weights_upper.tolist(),
        "bonus": output.bonus.tolist(),
        "q_lower": output.q_lower.tolist(),
        "q_upper": output.q_upper.tolist(),
        "v_lower": output.v_lower.tolist(),
        "v_upper": output.v_upper.tolist(),
        "policy_max": output.policy_max.probs.tolist(),
        "policy_min": output.policy_min.probs.tolist(),
        "policy_max_aux": output.policy_max_aux.probs.tolist(),
        "policy_min_aux": output.policy_min_aux.probs.tolist(),
    }
