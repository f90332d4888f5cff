"""Finite-horizon two-player zero-sum Markov games in tabular linear form.

The model is the usual episodic one.  At step h (0-indexed, ``h in
range(H)``) in state ``s`` the max-player picks ``a``, the min-player picks
``b``, the max-player receives the deterministic reward ``r_h(s, a, b)`` and
the state moves to ``s'`` with probability ``P_h(s' | s, a, b)``.  Episodes
start from one fixed initial state.

Every game also carries a feature map ``phi(s, a, b)`` of dimension ``d``
together with per-step vectors ``theta_h`` and signed measures ``mu_h`` that
factorize reward and transition exactly:

    r_h(s, a, b)      = phi(s, a, b) . theta_h
    P_h(s' | s, a, b) = phi(s, a, b) . mu_h(s')

For a plain tabular game, :func:`one_hot_featurize` supplies the canonical
indicator embedding with ``d = S * A1 * A2``.

Regularity conventions (``|phi| <= 1``, ``|theta_h| <= sqrt(d)``,
``|sum_s' mu_h(s')| <= sqrt(d)``, rewards in [0, 1]) are hard errors unless
the game is built with ``check_regularity=False``; structural facts (shapes,
stochasticity, exact factorization) are always hard errors.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import ConfigError, InvariantError

STOCHASTIC_ATOL = 1e-12
FACTORIZATION_ATOL = 1e-10
SIMPLEX_ATOL = 1e-12
_NORM_SLACK = 1e-9


def _float_array(value, name: str) -> np.ndarray:
    """``value`` as a new finite float64 array; a caller's array is copied, never shared."""
    try:
        arr = np.array(value, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{name} is not a rectangular numeric array: {exc}") from exc
    if not np.all(np.isfinite(arr)):
        raise ConfigError(f"{name} contains non-finite entries")
    return arr


def _json_numbers(value, name: str) -> np.ndarray:
    """``value``, a field read from JSON, as an object array once every leaf is
    an int or a float (not a bool) of a rectangular nested list; numpy would
    read ``"0.5"``, ``true`` or ``null`` as numbers.  Otherwise ``ConfigError``
    names the field and the first bad index: for a ragged list, the first
    entry whose length differs from the first entry's at the same depth."""
    leaves = np.array(value, dtype=object)  # stops at the depth where the lists turn ragged
    if not set(map(type, leaves.flat)) <= {int, float}:
        first = leaves.flat[0]
        if type(first) is list:  # ragged: every leaf is a list or stands where one should
            index, leaf = next((i, x) for i, x in np.ndenumerate(leaves) if type(x) is not list or len(x) != len(first))
            shown = f"has length {len(leaf)}" if type(leaf) is list else f"is {json.dumps(leaf, default=repr):.60}"
            raise ConfigError(f"{name} entry {list(index)} {shown}, but entry {[0] * leaves.ndim} has length {len(first)}")
        index, leaf = next((i, x) for i, x in np.ndenumerate(leaves) if type(x) not in (int, float))
        raise ConfigError(f"{name} entry {list(index)} is {json.dumps(leaf, default=repr):.60}, not a number")
    return leaves


def _freeze(arr, dtype=None) -> np.ndarray:
    """``arr`` as a read-only C-contiguous array; one that already is one is frozen in place."""
    out = np.ascontiguousarray(arr, dtype=dtype)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class TabularLinearMG:
    """A tabular zero-sum Markov game with an exact linear factorization.

    Arrays (all frozen after construction):

    - ``transition``: shape (H, S, A1, A2, S), row-stochastic over the last axis
    - ``reward``:     shape (H, S, A1, A2)
    - ``features``:   shape (S, A1, A2, d)
    - ``theta``:      shape (H, d)
    - ``mu``:         shape (H, S, d); ``mu[h, s']`` is the measure vector
    """

    transition: np.ndarray
    reward: np.ndarray
    features: np.ndarray
    theta: np.ndarray
    mu: np.ndarray
    initial_state: int = 0
    state_labels: tuple[str, ...] | None = None
    check_regularity: bool = True

    def __post_init__(self) -> None:
        if isinstance(self.initial_state, bool) or not isinstance(self.initial_state, (int, np.integer)):
            raise ConfigError(f"initial_state must be an integer, got {self.initial_state!r}")
        object.__setattr__(self, "initial_state", int(self.initial_state))
        for name in ("transition", "reward", "features", "theta", "mu"):
            object.__setattr__(self, name, _freeze(_float_array(getattr(self, name), name)))
        self._check_shapes()
        self._check_stochasticity()
        self._check_factorization()
        if self.check_regularity:
            self._check_regularity()

    # -- sizes ----------------------------------------------------------------

    @property
    def horizon(self) -> int:
        return self.transition.shape[0]

    @property
    def n_states(self) -> int:
        return self.transition.shape[1]

    @property
    def n_actions_p1(self) -> int:
        return self.transition.shape[2]

    @property
    def n_actions_p2(self) -> int:
        return self.transition.shape[3]

    @property
    def dim(self) -> int:
        return self.features.shape[-1]

    @cached_property
    def single_nonzero(self) -> tuple[np.ndarray, np.ndarray] | None:
        """``(col, val)`` when every cell's feature has exactly one nonzero
        entry: its column and its value, one per cell in (s, a, b) order; else
        None.  Then every ``F' diag(w) F`` is diagonal.  Found on first use, so
        building, loading or saving a game never pays for it."""
        flat = self.features.reshape(-1, self.dim)
        if np.count_nonzero(flat) != len(flat):  # no row is 0 (phi . sum_s' mu_h(s') = 1): one each
            return None
        cells, col = np.nonzero(flat)
        return _freeze(col), _freeze(flat[cells, col])

    # -- validation -----------------------------------------------------------

    def _check_shapes(self) -> None:
        if self.transition.ndim != 5 or self.transition.shape[1] != self.transition.shape[4]:
            raise ConfigError(f"transition must have shape (H,S,A1,A2,S), got {self.transition.shape}")
        h, s, a1, a2, _ = self.transition.shape
        if min(h, s, a1, a2) < 1:
            raise ConfigError("horizon, state and action counts must all be >= 1")
        if self.reward.shape != (h, s, a1, a2):
            raise ConfigError(f"reward shape {self.reward.shape} does not match transition {(h, s, a1, a2)}")
        if self.features.ndim != 4 or self.features.shape[:3] != (s, a1, a2):
            raise ConfigError(f"features must have shape (S,A1,A2,d), got {self.features.shape}")
        d = self.features.shape[3]
        if self.theta.shape != (h, d):
            raise ConfigError(f"theta shape {self.theta.shape}, expected {(h, d)}")
        if self.mu.shape != (h, s, d):
            raise ConfigError(f"mu shape {self.mu.shape}, expected {(h, s, d)}")
        if not 0 <= self.initial_state < s:
            raise ConfigError(f"initial_state {self.initial_state} out of range for {s} states")
        if self.state_labels is not None and len(self.state_labels) != s:
            raise ConfigError("state_labels length must equal the number of states")

    def _check_stochasticity(self) -> None:
        if self.transition.min() < -STOCHASTIC_ATOL:
            raise InvariantError("transition probabilities must be nonnegative")
        row_sums = self.transition.sum(axis=-1)
        worst = np.abs(row_sums - 1.0).max()
        if worst > STOCHASTIC_ATOL:
            raise InvariantError(f"transition rows must sum to 1 (worst deviation {worst:.3e})")

    def _check_factorization(self) -> None:
        # r_h = phi . theta_h for every (h, s, a, b)
        pred_r = np.einsum("sabd,hd->hsab", self.features, self.theta)
        err_r = np.abs(pred_r - self.reward).max()
        if err_r > FACTORIZATION_ATOL:
            raise InvariantError(f"reward is not linear in the features (worst error {err_r:.3e})")
        # P_h(s'|.) = phi . mu_h(s')
        pred_p = np.einsum("sabd,htd->hsabt", self.features, self.mu)
        err_p = np.abs(pred_p - self.transition).max()
        if err_p > FACTORIZATION_ATOL:
            raise InvariantError(f"transition is not linear in the features (worst error {err_p:.3e})")

    def _check_regularity(self) -> None:
        sqrt_d = np.sqrt(self.dim)
        feat_norm = np.linalg.norm(self.features, axis=-1).max()
        if feat_norm > 1.0 + _NORM_SLACK:
            raise InvariantError(f"max |phi| = {feat_norm:.6g} exceeds 1")
        theta_norm = np.linalg.norm(self.theta, axis=-1).max()
        if theta_norm > sqrt_d + _NORM_SLACK:
            raise InvariantError(f"max |theta_h| = {theta_norm:.6g} exceeds sqrt(d) = {sqrt_d:.6g}")
        mu_total = np.linalg.norm(self.mu.sum(axis=1), axis=-1).max()
        if mu_total > sqrt_d + _NORM_SLACK:
            raise InvariantError(f"max |mu_h(S)| = {mu_total:.6g} exceeds sqrt(d) = {sqrt_d:.6g}")
        if self.reward.min() < -STOCHASTIC_ATOL or self.reward.max() > 1.0 + STOCHASTIC_ATOL:
            raise InvariantError(
                f"rewards lie in [{self.reward.min():.6g}, {self.reward.max():.6g}], outside [0, 1]"
            )


@dataclass(frozen=True)
class MarkovPolicy:
    """A (possibly mixed) Markov policy for one of the two players.

    ``probs`` has shape (H, S, A) and every row is a probability vector.
    ``player`` is 1 for the max-player, 2 for the min-player.
    """

    probs: np.ndarray
    player: int

    def __post_init__(self) -> None:
        probs = _float_array(self.probs, "policy probabilities")
        if probs.ndim != 3:
            raise ConfigError(f"policy probs must have shape (H,S,A), got {probs.shape}")
        if self.player not in (1, 2):
            raise ConfigError("player must be 1 (max) or 2 (min)")
        if probs.min() < -SIMPLEX_ATOL:
            raise InvariantError("policy probabilities must be nonnegative")
        worst = np.abs(probs.sum(axis=-1) - 1.0).max()
        if worst > SIMPLEX_ATOL:
            raise InvariantError(f"policy rows must sum to 1 (worst deviation {worst:.3e})")
        object.__setattr__(self, "probs", _freeze(probs))

    @classmethod
    def uniform(cls, game: TabularLinearMG, player: int) -> "MarkovPolicy":
        n_actions = game.n_actions_p1 if player == 1 else game.n_actions_p2
        probs = np.full((game.horizon, game.n_states, n_actions), 1.0 / n_actions)
        return cls(probs, player)


def _check_policy(game: TabularLinearMG, policy: MarkovPolicy, player: int) -> None:
    """``policy`` belongs to ``player`` and has the game's (H, S, A_player) shape."""
    if policy.player != player:
        raise ConfigError("expected a (max-player, min-player) policy pair in that order")
    expected = (game.horizon, game.n_states, game.n_actions_p1 if player == 1 else game.n_actions_p2)
    if policy.probs.shape != expected:
        raise ConfigError(f"player {player} policy shape {policy.probs.shape} does not fit the game {expected}")


def bellman_apply(game: TabularLinearMG, h: int, v_next: np.ndarray) -> np.ndarray:
    """One-step backup: ``r_h(s,a,b) + sum_s' P_h(s'|s,a,b) v_next(s')``.

    ``v_next`` has shape (S,); the result has shape (S, A1, A2).
    """
    if isinstance(h, bool) or not isinstance(h, (int, np.integer)) or not 0 <= h < game.horizon:
        raise ConfigError(f"step h={h!r} must be an integer in [0, {game.horizon})")
    v_next = np.asarray(v_next, dtype=np.float64)
    if v_next.shape != (game.n_states,):
        raise ConfigError(f"v_next must have shape ({game.n_states},), got {v_next.shape}")
    return game.reward[h] + game.transition[h] @ v_next


def one_hot_featurize(
    transition,
    reward,
    initial_state: int = 0,
    state_labels: tuple[str, ...] | None = None,
    check_regularity: bool = True,
) -> TabularLinearMG:
    """Wrap raw (P, r) tensors with the canonical indicator feature map.

    ``d = S * A1 * A2`` and ``phi(s, a, b)`` is the corresponding standard
    basis vector (row-major over (s, a, b)), so ``theta_h`` is the flattened
    reward tensor and ``mu_h(s')`` the flattened transition slice.
    """
    transition = _float_array(transition, "transition")
    reward = _float_array(reward, "reward")
    if transition.ndim != 5:
        raise ConfigError(f"transition must have shape (H,S,A1,A2,S), got {transition.shape}")
    h, s, a1, a2, _ = transition.shape
    if reward.shape != (h, s, a1, a2):
        raise ConfigError(f"reward shape {reward.shape} does not match transition {(h, s, a1, a2)}")
    d = s * a1 * a2
    features = np.eye(d).reshape(s, a1, a2, d)
    theta = reward.reshape(h, d)
    mu = np.moveaxis(transition.reshape(h, d, s), 1, 2)  # (H, S, d)
    return TabularLinearMG(
        transition=transition,
        reward=reward,
        features=features,
        theta=theta,
        mu=mu,
        initial_state=initial_state,
        state_labels=state_labels,
        check_regularity=check_regularity,
    )


# -- JSON serialization --------------------------------------------------------


def game_to_dict(game: TabularLinearMG) -> dict:
    doc = {
        "horizon": game.horizon,
        "states": list(game.state_labels) if game.state_labels else game.n_states,
        "actions_p1": game.n_actions_p1,
        "actions_p2": game.n_actions_p2,
        "initial_state": game.initial_state,
        "transition": game.transition.tolist(),
        "reward": game.reward.tolist(),
        "features": game.features.tolist(),
        "theta": game.theta.tolist(),
        "mu": game.mu.tolist(),
    }
    return doc


def game_from_dict(doc: dict) -> TabularLinearMG:
    """The game of a :func:`game_to_dict` document; its ``states`` and size fields must fit it."""
    if not isinstance(doc, dict):
        raise ConfigError(f"game document must be a JSON object, got {type(doc).__name__}")
    try:
        states = doc["states"]
        transition = _json_numbers(doc["transition"], "transition")
        reward = _json_numbers(doc["reward"], "reward")
        initial_state = doc.get("initial_state", 0)
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"malformed game document: missing {exc}") from exc
    if isinstance(states, list) and all(isinstance(name, str) for name in states):
        labels = tuple(states)
    elif isinstance(states, int) and not isinstance(states, bool):
        labels = None
    else:
        raise ConfigError(f"states must be a state count or a list of state names, got {states!r:.60}")
    linear = {k: _json_numbers(doc[k], k) for k in ("features", "theta", "mu") if k in doc}
    if len(linear) == 3:
        game = TabularLinearMG(transition, reward, **linear, initial_state=initial_state, state_labels=labels)
    elif linear:
        raise ConfigError("features/theta/mu must be given together or omitted together")
    else:
        game = one_hot_featurize(transition, reward, initial_state=initial_state, state_labels=labels)
    if labels is None and states != game.n_states:
        raise ConfigError(f"states = {states} does not match the transition's {game.n_states} states")
    for key, size in (("horizon", game.horizon), ("actions_p1", game.n_actions_p1), ("actions_p2", game.n_actions_p2)):
        value = doc.get(key, size)
        if isinstance(value, bool) or not isinstance(value, int) or value != size:
            raise ConfigError(f"{key} = {value!r:.60} does not match the transition's size {size}")
    return game


def save_game(game: TabularLinearMG, path) -> None:
    Path(path).write_text(json.dumps(game_to_dict(game)) + "\n")


def load_game(path) -> TabularLinearMG:
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read game file {path}: {exc}") from exc
    return game_from_dict(doc)


# -- built-in games -------------------------------------------------------------

#: 3x3 payoff whose unique equilibrium is the pure pair (row 1, col 1), value 0.
#: Payoffs fall outside [0, 1], so these bandits skip the regularity check.
PAYOFF_A = ((0.5, -1.0, 0.0), (1.0, 0.0, 1.0), (0.0, -1.0, 0.0))
#: Companion 3x3 payoff with unique pure equilibrium (row 2, col 2), value 0.
PAYOFF_B = ((0.0, 0.0, -1.0), (1.0, 0.0, -1.0), (1.0, 1.0, 0.0))
#: Shifted-and-scaled cyclic payoff with the fully mixed equilibrium (1/3, 1/3, 1/3).
PAYOFF_CYCLIC = ((0.5, 1.0, 0.0), (0.0, 0.5, 1.0), (1.0, 0.0, 0.5))
#: Asymmetric [0, 1] payoff with a fully mixed equilibrium and cells pinned at
#: exactly 0 and 1.  Unlike PAYOFF_CYCLIC it has no symmetry that cancels a
#: uniform payoff shift, so equilibrium strategies respond linearly to the
#: clipped uncertainty penalty -- which makes it the right target for
#: measuring how the duality gap shrinks with dataset size.
PAYOFF_MIXED = ((1.0, 0.9, 0.25), (0.72, 0.0, 0.89), (0.0, 0.51, 0.88))


def bandit_game(payoff, check_regularity: bool = True) -> TabularLinearMG:
    """A one-step, one-state game: a matrix game wearing the Markov interface."""
    payoff = _float_array(payoff, "payoff")
    if payoff.ndim != 2:
        raise ConfigError("payoff must be a matrix")
    a1, a2 = payoff.shape
    transition = np.ones((1, 1, a1, a2, 1))
    reward = payoff.reshape(1, 1, a1, a2)
    return one_hot_featurize(transition, reward, check_regularity=check_regularity)


def spurious_equilibrium_pair() -> tuple[TabularLinearMG, TabularLinearMG]:
    """Two 3x3 bandits that no offline dataset covering only their own
    equilibria can disambiguate: the pair behind the identity
    sub_A + sub_B = 2 + p1 + q1 for any product policy (p, q)."""
    return bandit_game(PAYOFF_A, check_regularity=False), bandit_game(PAYOFF_B, check_regularity=False)


def cyclic_bandit() -> TabularLinearMG:
    """Bandit with a fully mixed equilibrium and full cyclic symmetry."""
    return bandit_game(PAYOFF_CYCLIC)


def mixed_bandit() -> TabularLinearMG:
    """Bandit on :data:`PAYOFF_MIXED`; the default rate-experiment target."""
    return bandit_game(PAYOFF_MIXED)


def three_state_game() -> TabularLinearMG:
    """A fixed, fully mixing 3-state / 2x2-action / horizon-3 one-hot game.

    Transitions are bounded away from zero so uniform behavior covers every
    (h, s, a, b) cell with high probability.
    """
    rng = np.random.default_rng(90327)
    raw = rng.uniform(0.2, 1.0, size=(3, 3, 2, 2, 3))
    transition = raw / raw.sum(axis=-1, keepdims=True)
    reward = rng.uniform(0.0, 1.0, size=(3, 3, 2, 2))
    return one_hot_featurize(transition, reward)
