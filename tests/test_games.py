"""Game container: validation, featurization, serialization."""

import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pmvi
from pmvi import (
    ConfigError,
    InvariantError,
    MarkovPolicy,
    TabularLinearMG,
    bellman_apply,
    one_hot_featurize,
)


def random_tabular(seed: int, h=2, s=3, a1=2, a2=2):
    rng = np.random.default_rng(seed)
    raw = rng.uniform(0.1, 1.0, size=(h, s, a1, a2, s))
    transition = raw / raw.sum(axis=-1, keepdims=True)
    reward = rng.uniform(0.0, 1.0, size=(h, s, a1, a2))
    return transition, reward


class TestValidation:
    def test_one_hot_round_trip_preserves_tensors(self):
        transition, reward = random_tabular(0)
        game = one_hot_featurize(transition, reward)
        assert np.array_equal(game.transition, transition)
        assert np.array_equal(game.reward, reward)
        assert game.dim == 3 * 2 * 2
        # the factorization reproduces the tensors exactly
        assert np.allclose(
            np.einsum("sabd,hd->hsab", game.features, game.theta), reward, atol=1e-12
        )
        assert np.allclose(
            np.einsum("sabd,htd->hsabt", game.features, game.mu), transition, atol=1e-12
        )

    def test_arrays_are_frozen(self):
        game = pmvi.cyclic_bandit()
        with pytest.raises(ValueError):
            game.reward[0, 0, 0, 0] = 5.0

    def test_nonstochastic_transition_rejected(self):
        transition, reward = random_tabular(1)
        transition = transition.copy()
        transition[0, 0, 0, 0, :] *= 1.5
        with pytest.raises(InvariantError, match="sum to 1"):
            one_hot_featurize(transition, reward)

    def test_negative_probability_rejected(self):
        transition, reward = random_tabular(2)
        transition = transition.copy()
        transition[0, 0, 0, 0, 0] -= 2 * transition[0, 0, 0, 0, 0] + 0.1
        with pytest.raises(InvariantError):
            one_hot_featurize(transition, reward)

    def test_shape_mismatch_is_config_error(self):
        transition, reward = random_tabular(3)
        with pytest.raises(ConfigError):
            one_hot_featurize(transition, reward[:, :2])

    def test_broken_factorization_rejected(self):
        transition, reward = random_tabular(4)
        game = one_hot_featurize(transition, reward)
        theta = game.theta.copy()
        theta[0, 0] += 1e-3
        with pytest.raises(InvariantError, match="not linear"):
            TabularLinearMG(
                transition=game.transition,
                reward=game.reward,
                features=game.features,
                theta=theta,
                mu=game.mu,
            )

    def test_reward_range_violation_strict_vs_warn(self):
        payoff = np.array([[1.5, 0.0], [0.0, 0.5]])
        with pytest.raises(InvariantError, match="outside"):
            pmvi.bandit_game(payoff)
        game = pmvi.bandit_game(payoff, check_regularity=False)
        assert game.reward.max() == 1.5

    def test_measure_norm_violation_detected(self):
        # a padded feature coordinate that is 0 for every (s,a,b) lets mu carry
        # arbitrary extra mass without disturbing the factorization, so only
        # the |mu_h(S)| <= sqrt(d) convention trips
        transition, reward = random_tabular(5, h=1)
        game = one_hot_featurize(transition, reward)
        features = np.concatenate(
            [game.features, np.zeros(game.features.shape[:3] + (1,))], axis=-1
        )
        theta = np.concatenate([game.theta, np.zeros((1, 1))], axis=-1)
        mu = np.concatenate([game.mu, np.full((1, game.n_states, 1), 50.0)], axis=-1)
        with pytest.raises(InvariantError, match="mu"):
            TabularLinearMG(
                transition=transition, reward=reward, features=features, theta=theta, mu=mu
            )

    def test_feature_norm_bound(self):
        # scaling phi up and (theta, mu) down keeps both factorizations exact,
        # so only the |phi| <= 1 convention trips
        transition, reward = random_tabular(6, h=1, s=2)
        game = one_hot_featurize(transition, reward)
        with pytest.raises(InvariantError, match="phi"):
            TabularLinearMG(
                transition=game.transition,
                reward=game.reward,
                features=2.0 * game.features,
                theta=game.theta / 2.0,
                mu=game.mu / 2.0,
            )

    def test_initial_state_out_of_range(self):
        transition, reward = random_tabular(8)
        with pytest.raises(ConfigError):
            one_hot_featurize(transition, reward, initial_state=99)


def test_builtin_payoff_constants_wired_into_bandits():
    assert np.array_equal(
        pmvi.cyclic_bandit().reward[0, 0], np.array(pmvi.PAYOFF_CYCLIC)
    )
    assert np.array_equal(
        pmvi.mixed_bandit().reward[0, 0], np.array(pmvi.PAYOFF_MIXED)
    )


def test_spurious_pair_builds_quietly_despite_negative_payoffs():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        game_a, game_b = pmvi.spurious_equilibrium_pair()
    assert caught == []
    assert np.array_equal(game_a.reward[0, 0], np.array(pmvi.PAYOFF_A))
    assert np.array_equal(game_b.reward[0, 0], np.array(pmvi.PAYOFF_B))
    # ... but a strict build of the same payoffs is refused
    with pytest.raises(InvariantError):
        pmvi.bandit_game(pmvi.PAYOFF_A)


def test_three_state_game_is_deterministic():
    g1, g2 = pmvi.three_state_game(), pmvi.three_state_game()
    assert np.array_equal(g1.transition, g2.transition)
    assert np.array_equal(g1.reward, g2.reward)
    assert (g1.horizon, g1.n_states, g1.n_actions_p1, g1.n_actions_p2) == (3, 3, 2, 2)


class TestPolicies:
    def test_uniform_rows(self):
        game = pmvi.three_state_game()
        pol = MarkovPolicy.uniform(game, 2)
        assert pol.probs.shape == (3, 3, 2)
        assert np.allclose(pol.probs, 0.5)

    def test_rows_must_be_simplex(self):
        with pytest.raises(InvariantError):
            MarkovPolicy(np.full((1, 1, 2), 0.7), player=1)
        with pytest.raises(InvariantError):
            MarkovPolicy(np.array([[[1.5, -0.5]]]), player=1)
        with pytest.raises(ConfigError):
            MarkovPolicy(np.full((1, 1, 2), 0.5), player=3)

    def test_caller_array_stays_writeable_and_unshared(self):
        probs = np.full((3, 3, 2), 0.5)
        pol = MarkovPolicy(probs, 1)
        assert probs.flags.writeable and not np.shares_memory(probs, pol.probs)
        assert not pol.probs.flags.writeable


class TestBellmanApply:
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.floats(-3, 3, allow_nan=False, width=32), min_size=3, max_size=3),
        st.lists(st.floats(-3, 3, allow_nan=False, width=32), min_size=3, max_size=3),
        st.floats(0, 1, allow_nan=False),
    )
    def test_backup_is_affine_in_values(self, v1, v2, alpha):
        game = pmvi.three_state_game()
        v1, v2 = np.array(v1), np.array(v2)
        mixed = bellman_apply(game, 1, alpha * v1 + (1 - alpha) * v2)
        parts = alpha * bellman_apply(game, 1, v1) + (1 - alpha) * bellman_apply(game, 1, v2)
        assert np.allclose(mixed, parts, atol=1e-10)

    def test_constant_shift_passes_through(self):
        game = pmvi.three_state_game()
        v = np.array([0.3, -0.1, 0.7])
        shifted = bellman_apply(game, 0, v + 2.5)
        assert np.allclose(shifted, bellman_apply(game, 0, v) + 2.5, atol=1e-12)

    def test_zero_values_give_reward(self):
        game = pmvi.three_state_game()
        assert np.allclose(bellman_apply(game, 2, np.zeros(3)), game.reward[2], atol=0)

    def test_shape_check(self):
        game = pmvi.three_state_game()
        with pytest.raises(ConfigError):
            bellman_apply(game, 0, np.zeros(5))

    @pytest.mark.parametrize("h", [-1, 3, True, 1.0], ids=["minus-one", "horizon", "bool", "float"])
    def test_step_out_of_range(self, h):
        game = pmvi.three_state_game()
        assert game.horizon == 3
        with pytest.raises(ConfigError, match=f"h={h}"):
            bellman_apply(game, h, np.zeros(3))


class TestSerialization:
    def test_round_trip_exact(self, tmp_path):
        game = pmvi.three_state_game()
        path = tmp_path / "game.json"
        pmvi.save_game(game, path)
        loaded = pmvi.load_game(path)
        for name in ("transition", "reward", "features", "theta", "mu"):
            assert np.array_equal(getattr(loaded, name), getattr(game, name)), name
        assert loaded.initial_state == game.initial_state

    def test_labels_round_trip(self, tmp_path):
        game = pmvi.build_game(0.5, 0.5)
        path = tmp_path / "hard.json"
        pmvi.save_game(game, path)
        assert pmvi.load_game(path).state_labels == ("start", "win", "loss")

    def test_tabular_only_document_uses_one_hot(self):
        transition, reward = random_tabular(10)
        game = one_hot_featurize(transition, reward)
        doc = pmvi.game_to_dict(game)
        for key in ("features", "theta", "mu"):
            del doc[key]
        rebuilt = pmvi.game_from_dict(doc)
        assert np.array_equal(rebuilt.features, game.features)

    def test_size_fields_may_be_absent(self):
        doc = pmvi.game_to_dict(pmvi.build_game(0.6, 0.4, n_actions=4, horizon=5))
        for key in ("horizon", "actions_p1", "actions_p2"):
            del doc[key]
        game = pmvi.game_from_dict(doc)
        assert (game.horizon, game.n_actions_p1, game.n_actions_p2) == (5, 4, 4)

    def test_partial_linear_document_rejected(self):
        doc = pmvi.game_to_dict(pmvi.cyclic_bandit())
        del doc["mu"]
        with pytest.raises(ConfigError, match="together"):
            pmvi.game_from_dict(doc)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            pmvi.load_game(tmp_path / "nope.json")

    @pytest.mark.parametrize(
        "field,value",
        [
            ("initial_state", "abc"),
            ("initial_state", 1.7),
            ("initial_state", 1.0),
            ("initial_state", True),
            ("initial_state", None),
            ("reward", "x"),
            ("reward", [[0.5, 0.5], [0.5]]),
            ("transition", {"a": 1}),
            ("features", [[[[1.0]]], "y"]),
            ("states", 5),
            ("states", 2),
            ("states", "abc"),
            ("states", None),
            ("states", 3.0),
            ("states", True),
            ("states", [1, 2, 3]),
            ("states", ["start", "win"]),
            ("horizon", 7),
            ("actions_p1", 9),
            ("actions_p2", True),
            ("horizon", 3.0),
            ("horizon", None),
            ("reward", 10**400),  # an int too large for float64
        ],
    )
    def test_malformed_field_rejected(self, field, value):
        doc = pmvi.game_to_dict(pmvi.build_game(0.5, 0.5))
        doc[field] = value
        with pytest.raises(ConfigError, match=field):
            pmvi.game_from_dict(doc)

    def test_numpy_integer_initial_state_is_stored_as_int(self):
        transition, reward = random_tabular(3)
        game = one_hot_featurize(transition, reward, initial_state=np.int64(2))
        assert type(game.initial_state) is int and game.initial_state == 2
        assert json.loads(json.dumps(pmvi.game_to_dict(game)))["initial_state"] == 2

    def test_corrupt_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            pmvi.load_game(path)
