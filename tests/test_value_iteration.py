"""Backward pass: regression weights, bonuses, truncation, determinism."""

import dataclasses
import json
import math

import numpy as np
import pytest

import pmvi
from pmvi import (
    ConfigError,
    InvariantError,
    MarkovPolicy,
    PmviConfig,
    balanced_schedule,
    bonus_tables,
    collect_behavior,
    collect_predetermined,
    default_beta,
    gram_matrices,
    ridge_weights,
    run_pmvi,
)
from pmvi import value_iteration
from pmvi.cli import _BUILTIN_GAMES, main
from pmvi.uncertainty import expected_feature_outer, well_explored_check

#: default_beta(9, 1, 9000, 0.05) = 9 * sqrt(log(2*9*9000*1/0.05)), frozen.
BETA_9000 = 34.846488989699516


def behavior_data(game, k, seed):
    return collect_behavior(
        game,
        MarkovPolicy.uniform(game, 1),
        MarkovPolicy.uniform(game, 2),
        k,
        np.random.default_rng(seed),
    )


class TestBetaSchedule:
    def test_frozen_value(self):
        assert default_beta(9, 1, 9000, 0.05) == pytest.approx(BETA_9000, abs=1e-12)

    @pytest.mark.parametrize(
        "d,h,k,p,c",
        [(12, 3, 2000, 0.1, 1.0), (9, 1, 100, 0.05, 0.5), (2, 5, 7, 0.5, 3.0)],
    )
    def test_formula(self, d, h, k, p, c):
        expected = c * d * h * math.sqrt(math.log(2 * d * k * h / p))
        assert default_beta(d, h, k, p, c) == pytest.approx(expected, rel=1e-15)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ConfigError):
            default_beta(0, 1, 10, 0.1)
        with pytest.raises(ConfigError):
            default_beta(9, 1, 10, 1.5)
        with pytest.raises(ConfigError):
            default_beta(9, 1, 10, 0.1, c=0.0)

    def test_config_resolution(self):
        explicit = PmviConfig(beta=2.5)
        assert explicit.resolve_beta(12, 3, 0) == 2.5
        derived = PmviConfig(c=2.0, p=0.05)
        assert derived.resolve_beta(9, 1, 9000) == pytest.approx(2.0 * BETA_9000, rel=1e-15)
        with pytest.raises(ConfigError, match="beta explicitly"):
            PmviConfig().resolve_beta(9, 1, 0)

    def test_config_rejections(self):
        with pytest.raises(ConfigError):
            PmviConfig(beta=-1.0)
        with pytest.raises(ConfigError):
            PmviConfig(p=1.5)
        with pytest.raises(ConfigError):
            PmviConfig(c=-2.0)
        # with beta explicit, c and p are unused and not policed
        PmviConfig(beta=1.0, c=-5.0, p=7.0)


class TestGramAndWeights:
    def test_gram_counts_for_one_hot_features(self):
        game = pmvi.cyclic_bandit()
        schedule = np.array([[1, 2], [1, 2], [0, 0]])
        data = collect_predetermined(game, schedule, np.random.default_rng(0))
        gram = gram_matrices(game, data)
        counts = np.zeros(9)
        counts[1 * 3 + 2] = 2.0
        counts[0] = 1.0
        assert np.array_equal(gram[0], np.eye(9) + np.diag(counts))

    def test_ridge_weights_match_dense_solve(self):
        rng = np.random.default_rng(42)
        phi = rng.normal(size=(30, 6))
        targets = rng.normal(size=30)
        gram = np.eye(6) + phi.T @ phi
        expected = np.linalg.solve(gram, phi.T @ targets)
        assert np.allclose(ridge_weights(gram, phi.T @ targets), expected, atol=1e-10)

    def test_ridge_weights_solve_every_column(self):
        rng = np.random.default_rng(43)
        phi = rng.normal(size=(30, 6))
        targets = rng.normal(size=(30, 2))
        gram = np.eye(6) + phi.T @ phi
        both = ridge_weights(gram, phi.T @ targets)
        assert both.shape == (6, 2)
        for col in range(2):
            single = ridge_weights(gram, phi.T @ targets[:, col])
            assert single.shape == (6,)
            assert np.allclose(both[:, col], single, atol=1e-12)
            assert np.allclose(single, np.linalg.solve(gram, phi.T @ targets[:, col]), atol=1e-10)

    @pytest.mark.parametrize("spec", ["three-state", "dense", "hard"])
    def test_bonus_matches_explicit_inverse(self, spec):
        # diagonal Lambda_h (one-hot), dense Lambda_h, indicator features shared across cells
        game = {
            "three-state": pmvi.three_state_game,
            "dense": lambda: dense_unit_norm_game(11),
            "hard": lambda: pmvi.build_game(0.4, 0.6),
        }[spec]()
        data = behavior_data(game, 40, seed=9)
        gram = gram_matrices(game, data)
        got = 2.0 * bonus_tables(game, gram)
        for h in range(game.horizon):
            inv = np.linalg.inv(gram[h])
            expected = 2.0 * np.sqrt(
                np.einsum("sabd,de,sabe->sab", game.features, inv, game.features)
            )
            assert np.allclose(got[h], expected, atol=1e-10)

    def test_output_carries_the_unit_bonus(self):
        game = pmvi.three_state_game()
        out = run_pmvi(game, behavior_data(game, 50, 4), PmviConfig(beta=0.7))
        assert np.array_equal(out.unit_bonus, bonus_tables(game, out.gram))
        assert np.array_equal(out.bonus, 0.7 * out.unit_bonus)
        assert not out.unit_bonus.flags.writeable

    def test_unit_bonus_closed_form_for_counts(self):
        # one-hot cell visited n times: sqrt(phi' Lambda^-1 phi) = (1+n)^{-1/2}
        game = pmvi.cyclic_bandit()
        schedule = np.array([[0, 0], [0, 0], [0, 0], [1, 1]])
        data = collect_predetermined(game, schedule, np.random.default_rng(0))
        bonus = bonus_tables(game, gram_matrices(game, data))[0, 0]
        assert bonus[0, 0] == pytest.approx(0.5, abs=1e-12)          # n = 3
        assert bonus[1, 1] == pytest.approx(2.0 ** -0.5, abs=1e-12)  # n = 1
        assert bonus[2, 2] == pytest.approx(1.0, abs=1e-12)          # n = 0


def dense_unit_norm_game(seed, n_states=3, n_actions=2, dim=5, horizon=3):
    """A random linear MG whose features are dense, nonnegative unit vectors.

    Every phi is ``alpha * 1 + beta * v`` with ``v`` a unit vector orthogonal
    to the all-ones vector, so all features share the coordinate sum
    ``sigma = alpha * dim``.  Then ``mu_h(s') = q_h(., s') / sigma`` with each
    ``q_h(i, .)`` a distribution makes ``phi' mu_h`` a distribution, and
    ``theta_h = u_h / sigma`` with ``u_h`` in [0, 1]^d keeps rewards in [0, 1].
    """
    rng = np.random.default_rng(seed)
    alpha = 0.9 / math.sqrt(dim)
    beta = math.sqrt(1.0 - alpha**2 * dim)
    cells = n_states * n_actions * n_actions
    v = rng.normal(size=(8 * cells, dim))
    v -= v.mean(axis=1, keepdims=True)
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    v = v[(alpha + beta * v).min(axis=1) >= 0.0][:cells]  # keep phi >= 0
    assert v.shape == (cells, dim)
    features = (alpha + beta * v).reshape(n_states, n_actions, n_actions, dim)
    sigma = alpha * dim
    q = rng.dirichlet(np.ones(n_states), size=(horizon, dim))  # (H, d, S)
    mu = q.transpose(0, 2, 1) / sigma
    theta = rng.uniform(0.0, 1.0, size=(horizon, dim)) / sigma
    return pmvi.TabularLinearMG(
        transition=np.einsum("sabd,htd->hsabt", features, mu),
        reward=np.einsum("sabd,hd->hsab", features, theta),
        features=features,
        theta=theta,
        mu=mu,
    )


def per_sample_gram(game, data):
    """The per-sample reference ``I + sum_tau phi phi'``, one step at a time."""
    gram = np.empty((game.horizon, game.dim, game.dim))
    for h in range(game.horizon):
        phi = game.features[data.states[:, h], data.actions_p1[:, h], data.actions_p2[:, h]]
        gram[h] = np.eye(game.dim) + phi.T @ phi
    return gram


class TestSufficientStatistics:
    """The backward pass works on per-(h, cell) statistics; these compare it
    with the per-sample sums it replaces."""

    def test_dense_game_has_unit_norm_features(self):
        game = dense_unit_norm_game(11)
        assert np.allclose(np.linalg.norm(game.features, axis=-1), 1.0, rtol=0, atol=1e-12)
        assert (game.features > 0).all()

    @pytest.mark.parametrize("spec", ["three-state", "hard", "dense"])
    def test_gram_matches_per_sample_sum(self, spec):
        # one-hot cells, indicator features shared across cells, dense features
        game = {
            "three-state": pmvi.three_state_game,
            "hard": lambda: pmvi.build_game(0.4, 0.6),
            "dense": lambda: dense_unit_norm_game(11),
        }[spec]()
        data = behavior_data(game, 250, seed=5)
        expected = per_sample_gram(game, data)
        assert np.allclose(gram_matrices(game, data), expected, rtol=0, atol=1e-10)
        if spec == "dense":
            assert np.abs(expected[0] - np.diag(np.diag(expected[0]))).max() > 1.0

    @pytest.mark.parametrize("spec", ["three-state", "dense"])
    def test_weights_match_per_sample_ridge_solve(self, spec):
        game = pmvi.three_state_game() if spec == "three-state" else dense_unit_norm_game(12)
        data = behavior_data(game, 300, seed=6)
        out = run_pmvi(game, data, PmviConfig(beta=0.3))
        gram = per_sample_gram(game, data)
        v_lo = np.vstack([out.v_lower, np.zeros((1, game.n_states))])
        v_up = np.vstack([out.v_upper, np.zeros((1, game.n_states))])
        for h in range(game.horizon):
            phi = game.features[data.states[:, h], data.actions_p1[:, h], data.actions_p2[:, h]]
            for v, got in ((v_lo, out.weights_lower[h]), (v_up, out.weights_upper[h])):
                targets = data.rewards[:, h] + v[h + 1][data.next_states[:, h]]
                expected = np.linalg.solve(gram[h], phi.T @ targets)
                assert np.allclose(got, expected, rtol=0, atol=1e-10)

    def test_empty_dataset_gives_identity_gram(self):
        game = dense_unit_norm_game(13)
        data = behavior_data(game, 0, seed=0)
        assert np.array_equal(gram_matrices(game, data), np.broadcast_to(np.eye(game.dim), (3, 5, 5)))
        out = run_pmvi(game, data, PmviConfig(beta=0.2))
        assert np.array_equal(out.gram, gram_matrices(game, data))
        assert np.all(out.weights_lower == 0.0) and np.all(out.weights_upper == 0.0)


def random_one_hot_game(seed, n_states=4, n_actions=(3, 2), horizon=3):
    rng = np.random.default_rng(seed)
    cells = (horizon, n_states, *n_actions)
    transition = rng.dirichlet(np.ones(n_states), size=cells)
    return pmvi.one_hot_featurize(transition, rng.uniform(0.0, 1.0, size=cells))


def scaled_shared_column_game(seed, n_states=3, n_actions=2, horizon=3):
    """A linear MG whose cells each have one nonzero feature, of magnitude in
    [0.3, 1) and either sign: cells 2j and 2j + 1 share column j and its
    value, and the last column belongs to no cell."""
    rng = np.random.default_rng(seed)
    cells = n_states * n_actions * n_actions
    dim = (cells + 1) // 2 + 1
    col = np.arange(cells) // 2
    scale = rng.uniform(0.3, 1.0, size=dim) * rng.choice([-1.0, 1.0], size=dim)
    features = np.zeros((cells, dim))
    features[np.arange(cells), col] = scale[col]
    # P_h(s' | c) = scale_j mu_h(s')_j for c in column j, so mu_h(.)_j = q_hj / scale_j
    mu = rng.dirichlet(np.ones(n_states), size=(horizon, dim)).transpose(0, 2, 1) / scale
    theta = rng.uniform(0.0, 1.0, size=(horizon, dim)) / scale
    features = features.reshape(n_states, n_actions, n_actions, dim)
    return pmvi.TabularLinearMG(
        transition=np.einsum("sabd,htd->hsabt", features, mu),
        reward=np.einsum("sabd,hd->hsab", features, theta),
        features=features,
        theta=theta,
        mu=mu,
        check_regularity=False,  # |theta_h| may exceed sqrt(d)
    )


def dense_twin(game):
    """``game`` with its one-nonzero structure withheld: every layer takes the
    dense path (the general-feature code and the reference)."""
    twin = dataclasses.replace(game)
    vars(twin)["single_nonzero"] = None  # what the cached property would store
    return twin


ONE_NONZERO_GAMES = {
    **_BUILTIN_GAMES,
    "hard": lambda: pmvi.build_game(0.55, 0.45),
    "hard-5x4": lambda: pmvi.build_game(0.6, 0.4, 5, 4),
    "random-one-hot": lambda: random_one_hot_game(3),
    "scaled-shared": lambda: scaled_shared_column_game(4),
}


class TestDiagonalPath:
    """Games whose cells each have one nonzero feature take the diagonal path;
    it must agree with the dense solves within 1e-12."""

    @pytest.mark.parametrize("spec", sorted(ONE_NONZERO_GAMES))
    @pytest.mark.parametrize("k", [5, 400])
    def test_matches_the_dense_path(self, spec, k):
        game = ONE_NONZERO_GAMES[spec]()
        assert game.single_nonzero is not None
        dense = dense_twin(game)
        data = behavior_data(game, k, seed=k)
        gram = gram_matrices(game, data)
        assert np.allclose(gram, gram_matrices(dense, data), rtol=0, atol=1e-12)
        assert np.allclose(gram, per_sample_gram(game, data), rtol=0, atol=1e-12)
        unit = bonus_tables(game, gram)
        inverse = np.linalg.inv(gram)
        explicit = np.sqrt(np.einsum("sabd,hde,sabe->hsab", game.features, inverse, game.features))
        assert np.allclose(unit, bonus_tables(dense, gram), rtol=0, atol=1e-12)
        assert np.allclose(unit, explicit, rtol=0, atol=1e-12)
        for beta in (0.0, 0.3, None):
            fast, slow = (run_pmvi(g, data, PmviConfig(beta=beta)) for g in (game, dense))
            for name in ("gram", "unit_bonus", "weights_lower", "weights_upper", "q_lower", "q_upper", "v_lower", "v_upper"):
                assert np.allclose(getattr(fast, name), getattr(slow, name), rtol=0, atol=1e-12), name

    @pytest.mark.parametrize("spec", sorted(ONE_NONZERO_GAMES))
    def test_lambda_min_matches_the_eigenvalue(self, spec):
        game = ONE_NONZERO_GAMES[spec]()
        rng = np.random.default_rng(8)
        shape = (game.horizon, game.n_states)
        random_pair = (
            MarkovPolicy(rng.dirichlet(np.ones(game.n_actions_p1), size=shape), 1),
            MarkovPolicy(rng.dirichlet(np.ones(game.n_actions_p2), size=shape), 2),
        )
        for pair in ((MarkovPolicy.uniform(game, 1), MarkovPolicy.uniform(game, 2)), random_pair):
            outer = expected_feature_outer(game, *pair)
            expected = [np.linalg.eigvalsh(outer[h])[0] for h in range(game.horizon)]
            assert np.allclose(well_explored_check(game, *pair), expected, rtol=0, atol=1e-12)
            assert np.allclose(well_explored_check(dense_twin(game), *pair), expected, rtol=0, atol=1e-12)

    def test_structure_is_each_cells_column_and_value(self):
        col, val = pmvi.three_state_game().single_nonzero
        assert np.array_equal(col, np.arange(12)) and np.all(val == 1.0)
        col, val = pmvi.build_game(0.6, 0.4).single_nonzero  # start cells own a column; win, loss share one
        assert np.array_equal(col, [*range(9), *[9] * 9, *[10] * 9]) and np.all(val == 1.0)
        assert not col.flags.writeable and not val.flags.writeable

    def test_general_features_take_the_dense_path(self):
        assert dense_unit_norm_game(11).single_nonzero is None
        game = pmvi.three_state_game()
        features = np.concatenate([game.features, np.zeros((3, 2, 2, 1))], axis=-1)
        features[0, 0, 0, [0, -1]] = 0.5  # cell (0, 0, 0) splits over column 0 and a copy of it
        split = dataclasses.replace(
            game,
            features=features,
            theta=np.concatenate([game.theta, game.theta[:, :1]], axis=1),
            mu=np.concatenate([game.mu, game.mu[..., :1]], axis=-1),
        )
        assert np.array_equal(split.transition, game.transition) and split.single_nonzero is None


class TestBackwardPass:
    def test_single_sample_halved_target(self):
        # one observation of cell (0,0): Lambda = I + e0 e0', so w = (r/2) e0
        game = pmvi.cyclic_bandit()
        data = collect_predetermined(game, np.array([[0, 0]]), np.random.default_rng(0))
        out = run_pmvi(game, data, PmviConfig(beta=0.0))
        r = game.reward[0, 0, 0, 0]
        expected_w = np.zeros(9)
        expected_w[0] = r / 2.0
        assert np.allclose(out.weights_lower[0], expected_w, atol=1e-12)
        assert np.array_equal(out.weights_lower, out.weights_upper)
        # with beta = 0 the two Q estimates coincide
        assert np.array_equal(out.q_lower, out.q_upper)
        assert out.q_lower[0, 0, 0, 0] == pytest.approx(r / 2.0, abs=1e-12)
        assert np.all(out.q_lower[0, 0][1:, :] == 0.0)

    def test_empty_dataset_collapses_to_prior(self):
        game = pmvi.three_state_game()
        data = behavior_data(game, 0, seed=0)
        beta = 0.4
        out = run_pmvi(game, data, PmviConfig(beta=beta))
        assert np.all(out.v_lower == 0.0)
        assert np.all(out.q_lower == 0.0)
        # unseen one-hot cells carry unit bonus, so Q_up = min(beta, cap)
        for h in range(3):
            cap = 3.0 - h
            assert np.allclose(out.q_upper[h], min(beta, cap), atol=1e-12)
            assert np.allclose(out.v_upper[h], min(beta, cap), atol=1e-12)
        assert np.allclose(out.bonus, beta, atol=1e-12)

    def test_truncation_caps_remaining_return(self):
        game = pmvi.three_state_game()
        data = behavior_data(game, 60, seed=1)
        out = run_pmvi(game, data, PmviConfig(beta=5.0))
        for h in range(game.horizon):
            cap = game.horizon - h
            for table in (out.q_lower[h], out.q_upper[h]):
                assert table.min() >= 0.0
                assert table.max() <= cap
            assert out.v_lower[h].min() >= 0.0
            assert out.v_upper[h].max() <= cap
        # pessimistic below optimistic throughout
        assert np.all(out.q_lower <= out.q_upper + 1e-12)
        assert np.all(out.v_lower <= out.v_upper + 1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_weight_norms_bounded(self, seed):
        game = pmvi.three_state_game()
        k = 50 + 30 * seed
        data = behavior_data(game, k, seed=seed)
        out = run_pmvi(game, data, PmviConfig())
        bound = game.horizon * math.sqrt(k * game.dim)
        assert np.linalg.norm(out.weights_lower, axis=1).max() <= bound
        assert np.linalg.norm(out.weights_upper, axis=1).max() <= bound

    def test_bitwise_determinism(self):
        game = pmvi.three_state_game()
        data = behavior_data(game, 80, seed=4)
        out1 = run_pmvi(game, data, PmviConfig())
        out2 = run_pmvi(game, data, PmviConfig())
        assert out1.beta == out2.beta
        for name in ("gram", "weights_lower", "weights_upper", "bonus"):
            assert np.array_equal(getattr(out1, name), getattr(out2, name)), name
        for name in ("q_lower", "q_upper", "v_lower", "v_upper"):
            assert np.array_equal(getattr(out1, name), getattr(out2, name)), name
        for name in ("policy_max", "policy_min", "policy_max_aux", "policy_min_aux"):
            assert np.array_equal(getattr(out1, name).probs, getattr(out2, name).probs), name

    def test_value_off_the_lp_value_is_an_invariant_error(self, monkeypatch, capsys):
        # the stage solve's LP values moved 1e-6 off the bilinear form x' Q y
        solve = value_iteration._solve_stage

        def off_by_1e6(q):
            rows, cols, values = solve(q)
            return rows, cols, values + 1e-6

        monkeypatch.setattr(value_iteration, "_solve_stage", off_by_1e6)
        game = pmvi.three_state_game()
        with pytest.raises(InvariantError, match="equilibrium value mismatch at h=2, s=0"):
            run_pmvi(game, behavior_data(game, 50, seed=0), PmviConfig(beta=0.5))
        assert main(["run", "--game", "three-state", "--k", "50", "--beta", "0.5"]) == 3
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("invariant violated: equilibrium value mismatch")

    def test_default_beta_requires_data(self):
        game = pmvi.cyclic_bandit()
        data = behavior_data(game, 0, seed=0)
        with pytest.raises(ConfigError, match="beta explicitly"):
            run_pmvi(game, data, PmviConfig())

    def test_policy_sides(self):
        game = pmvi.cyclic_bandit()
        data = behavior_data(game, 20, seed=2)
        out = run_pmvi(game, data, PmviConfig())
        assert (out.policy_max.player, out.policy_max_aux.player) == (1, 1)
        assert (out.policy_min.player, out.policy_min_aux.player) == (2, 2)

    def test_output_dict_is_json_ready(self):
        game = pmvi.cyclic_bandit()
        data = behavior_data(game, 10, seed=3)
        out = run_pmvi(game, data, PmviConfig())
        doc = pmvi.output_to_dict(out)
        text = json.dumps(doc, sort_keys=True)
        assert json.loads(text)["beta"] == out.beta
        assert set(doc) == {
            "beta", "gram", "weights_lower", "weights_upper", "bonus",
            "q_lower", "q_upper", "v_lower", "v_upper",
            "policy_max", "policy_min", "policy_max_aux", "policy_min_aux",
        }

    @pytest.mark.parametrize("seed", range(5))
    def test_theory_scale_bonus_gives_valid_sandwich(self, seed):
        # at the certificate scale the clipped estimates bracket the backup
        game = pmvi.three_state_game()
        data = behavior_data(game, 400, seed=100 + seed)
        out = run_pmvi(game, data, PmviConfig())
        iota_lo, iota_up = pmvi.bellman_error_tables(game, out)
        assert pmvi.sandwich_holds(iota_lo, iota_up, out.bonus)
