"""Indistinguishable game pair: construction, KL accounting, experiment."""

import math

import numpy as np
import pytest

import pmvi
from pmvi import (
    ConfigError,
    PmviConfig,
    balanced_schedule,
    build_game,
    collect_predetermined,
    count_stats,
    dataset_kl,
    exact_nash_values,
    le_cam_pair,
    run_lower_bound_experiment,
)


def bernoulli_kl(p, q):
    return p * math.log(p / q) + (1 - p) * math.log((1 - p) / (1 - q))


class TestBuildGame:
    def test_structure(self):
        game = build_game(0.6, 0.4, n_actions=3, horizon=3)
        assert game.state_labels == ("start", "win", "loss")
        assert game.dim == 3 * 3 + 2
        assert game.initial_state == 0
        # success probability depends only on the max action: p = (p1, p2, min)
        for j in range(3):
            assert np.allclose(game.transition[0, 0, :, j, 1], [0.6, 0.4, 0.4], atol=1e-15)
            assert np.allclose(game.transition[0, 0, :, j, 2], [0.4, 0.6, 0.6], atol=1e-15)
        # absorbing after the first step, rewards only in the winning state
        assert np.all(game.transition[1:, 1, :, :, 1] == 1.0)
        assert np.all(game.transition[1:, 2, :, :, 2] == 1.0)
        assert np.all(game.reward[0] == 0.0)
        assert np.all(game.reward[1:, 1] == 1.0)
        assert np.all(game.reward[1:, 0] == 0.0)
        assert np.all(game.reward[1:, 2] == 0.0)

    def test_min_player_is_a_spectator(self):
        game = build_game(0.7, 0.3)
        nash = exact_nash_values(game)
        # the max player's equilibrium play is the better first action, pure
        assert nash.policy_max.probs[0, 0, 0] == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("horizon", [2, 3, 5])
    def test_value_scales_with_horizon(self, horizon):
        game = build_game(0.6, 0.4, horizon=horizon)
        nash = exact_nash_values(game)
        assert float(nash.v_star[0, game.initial_state]) == pytest.approx(0.6 * (horizon - 1), abs=1e-9)

    def test_rejections(self):
        with pytest.raises(ConfigError, match="0.25"):
            build_game(0.2, 0.5)
        with pytest.raises(ConfigError, match="0.25"):
            build_game(0.5, 0.8)
        with pytest.raises(ConfigError, match="two max-player actions"):
            build_game(0.5, 0.5, n_actions=1)
        with pytest.raises(ConfigError, match="horizon"):
            build_game(0.5, 0.5, horizon=1)

    @pytest.mark.parametrize("n_actions,d", [(100, 10002), (100000, 10000000002)])
    def test_too_large_is_rejected_before_allocating(self, n_actions, d):
        # 3 * a * a * d float64 features: 2.4 GB at a = 100
        with pytest.raises(ConfigError, match=f"d={d}: {3 * n_actions**2 * d * 8} bytes of dense features"):
            build_game(0.5, 0.5, n_actions=n_actions)

    def test_gram_is_diagonal_counting(self):
        game = build_game(0.5, 0.5)
        schedule = balanced_schedule(45, 3, 3)
        data = collect_predetermined(game, schedule, np.random.default_rng(8))
        pair_counts = np.bincount(data.actions_p1[:, 0] * 3 + data.actions_p2[:, 0], minlength=9)
        gram = pmvi.gram_matrices(game, data)
        d = game.dim
        expected0 = np.eye(d)
        expected0[: 9, : 9] += np.diag(pair_counts)
        assert np.array_equal(gram[0], expected0)
        wins = int((data.next_states[:, 0] == 1).sum())
        for h in (1, 2):
            expected = np.eye(d)
            expected[9, 9] += wins
            expected[10, 10] += 45 - wins
            assert np.array_equal(gram[h], expected)


class TestLeCamPair:
    def test_frozen_calibration(self):
        schedule = balanced_schedule(90, 3, 3)
        pair = le_cam_pair(schedule)
        assert ((schedule[:, 0] == 0).sum(), (schedule[:, 0] == 1).sum()) == (30, 30)
        assert pair.p_high - pair.p_low == pytest.approx(2 * math.sqrt(2.0 / 60.0) / 16.0, rel=1e-15)
        assert pair.p_low + pair.p_high == pytest.approx(1.0, abs=1e-15)
        # game one prefers action 0, game two prefers action 1
        assert pair.game_one.transition[0, 0, 0, 0, 1] == pytest.approx(pair.p_high)
        assert pair.game_one.transition[0, 0, 1, 0, 1] == pytest.approx(pair.p_low)
        assert pair.game_two.transition[0, 0, 0, 0, 1] == pytest.approx(pair.p_low)
        assert pair.game_two.transition[0, 0, 1, 0, 1] == pytest.approx(pair.p_high)

    def test_rejections(self):
        with pytest.raises(ConfigError, match="no rows"):
            le_cam_pair(np.zeros((0, 2), dtype=int))
        with pytest.raises(ConfigError, match="never plays"):
            le_cam_pair(np.array([[2, 0], [2, 1]]))

    @pytest.mark.parametrize(
        "schedule",
        [[[0.7, 0], [1.0, 2], [1.9, 0]], np.array([[True, False], [False, True]]), np.array([[0, 1]], dtype=object)],
        ids=["floats", "bools", "objects"],
    )
    def test_non_integer_schedule_rejected(self, schedule):
        with pytest.raises(ConfigError, match="schedule must hold integers"):
            le_cam_pair(schedule)


class TestDatasetKL:
    def test_exact_formula_and_budget(self):
        schedule = balanced_schedule(90, 3, 3)
        pair = le_cam_pair(schedule)
        data = collect_predetermined(pair.game_one, schedule, np.random.default_rng(0))
        stats = count_stats(pair.game_one, data)
        kl = dataset_kl(pair, stats)
        p, q = pair.p_high, pair.p_low
        manual = stats[0] * bernoulli_kl(p, q) + stats[1] * bernoulli_kl(q, p)
        assert kl == pytest.approx(manual, rel=1e-12)
        # the 1/sqrt(n) shrinkage pins the divergence near 1/16 for any size
        assert kl <= 0.5
        assert kl == pytest.approx(1.0 / 16.0, abs=0.01)

    @pytest.mark.parametrize("k", [9, 900])
    def test_divergence_scale_is_size_free(self, k):
        schedule = balanced_schedule(k, 3, 3)
        pair = le_cam_pair(schedule)
        data = collect_predetermined(pair.game_one, schedule, np.random.default_rng(0))
        stats = count_stats(pair.game_one, data)
        kl = dataset_kl(pair, stats)
        assert kl <= 0.5
        assert kl == pytest.approx(1.0 / 16.0, abs=0.01)

    def test_monte_carlo_log_likelihood_ratio(self):
        schedule = balanced_schedule(90, 3, 3)
        pair = le_cam_pair(schedule)
        data = collect_predetermined(pair.game_one, schedule, np.random.default_rng(0))
        stats = count_stats(pair.game_one, data)
        kl = dataset_kl(pair, stats)
        p, q = pair.p_high, pair.p_low
        n1, n2 = stats[0], stats[1]
        rng = np.random.default_rng(2024)
        sims = 100_000
        wins0 = rng.binomial(n1, p, size=sims)
        wins1 = rng.binomial(n2, q, size=sims)
        llr = (
            wins0 * math.log(p / q)
            + (n1 - wins0) * math.log((1 - p) / (1 - q))
            + wins1 * math.log(q / p)
            + (n2 - wins1) * math.log((1 - q) / (1 - p))
        )
        assert llr.mean() == pytest.approx(kl, abs=0.005)

    def test_count_shape_mismatch_rejected(self):
        pair = le_cam_pair(balanced_schedule(18, 3, 3))
        small = build_game(0.5, 0.5, n_actions=2)
        data = collect_predetermined(small, balanced_schedule(8, 2, 2), np.random.default_rng(0))
        stats = count_stats(small, data)
        with pytest.raises(ConfigError, match="do not match"):
            dataset_kl(pair, stats)
        # a (A1, A2) pair table is not the (A1,) count vector
        with pytest.raises(ConfigError, match="do not match"):
            dataset_kl(pair, np.zeros((3, 3), dtype=np.int64))

    @pytest.mark.parametrize("k, actions", [(90, 3), (7, 2), (1000, 3)])
    def test_reads_the_games_own_laws(self, k, actions):
        # the pair's probabilities are the ones its games' transitions carry
        schedule = balanced_schedule(k, actions, actions)
        pair = le_cam_pair(schedule, n_actions=actions)
        data = collect_predetermined(pair.game_one, schedule, np.random.default_rng(0))
        counts = count_stats(pair.game_one, data)
        pa = pair.game_one.transition[0, 0, :, 0, 1]
        pb = pair.game_two.transition[0, 0, :, 0, 1]
        manual = 0.0
        for n, p, q in zip(counts, pa, pb):
            manual += int(n) * bernoulli_kl(float(p), float(q))
        assert dataset_kl(pair, counts) == manual

    def test_pinned_value(self):
        schedule = balanced_schedule(90, 3, 3)
        pair = le_cam_pair(schedule)
        data = collect_predetermined(pair.game_one, schedule, np.random.default_rng(0))
        assert repr(dataset_kl(pair, count_stats(pair.game_one, data))) == "0.06251085408654819"


class TestExperiment:
    @pytest.mark.parametrize("actions, horizon", [(3, 3), (4, 4), (2, 2)])
    def test_closed_form_gap_at_the_default_beta(self, actions, horizon):
        # the default beta saturates every clip, so each stage matrix is constant
        # and the solver plays max action 0: right in game one, wrong in game two
        schedule = balanced_schedule(5 * actions * actions, actions, actions)
        result = run_lower_bound_experiment(
            PmviConfig(), schedule, seeds=range(3), n_actions=actions, horizon=horizon
        )
        pair = le_cam_pair(schedule, n_actions=actions, horizon=horizon)
        p_gap = pair.p_high - pair.p_low
        assert len(result.rows) == 6
        for row in result.rows:
            expected = 0.0 if row["game"] == "one" else (horizon - 1) * p_gap
            assert row["subb"] == pytest.approx(expected, abs=1e-12)
            assert row["ru"] > 0.0
        assert result.summary["kl"] <= 0.5

    def test_rows_and_summary_are_deterministic(self):
        schedule = balanced_schedule(27, 3, 3)
        r1 = run_lower_bound_experiment(PmviConfig(beta=0.5), schedule, seeds=[5, 9])
        r2 = run_lower_bound_experiment(PmviConfig(beta=0.5), schedule, seeds=[5, 9])
        assert r1.rows == r2.rows
        assert r1.summary == r2.summary
        expected_keys = {
            "kl", "p_gap", "k",
            "mean_subb_one", "mean_subb_two", "mean_ru_one", "mean_ru_two",
            "mean_ratio_one", "mean_ratio_two", "worst_mean_subb", "worst_mean_ratio",
        }
        assert set(r1.summary) == expected_keys

    def test_needs_seeds(self):
        with pytest.raises(ConfigError, match="seed"):
            run_lower_bound_experiment(PmviConfig(beta=0.5), balanced_schedule(9, 3, 3), seeds=[])


def test_transition_noise_concentrates_at_schedule_rate():
    # frequency of first-action wins stays in the Hoeffding band around p
    schedule = balanced_schedule(90, 3, 3)
    pair = le_cam_pair(schedule)
    game = pair.game_one
    n1 = int((schedule[:, 0] == 0).sum())
    band = math.sqrt(math.log(2.0 / 0.01) / (2.0 * n1))
    plays_zero = schedule[:, 0] == 0
    hits = 0
    n_seeds = 300
    for seed in range(n_seeds):
        data = collect_predetermined(game, schedule, np.random.default_rng(seed))
        wins = (data.next_states[plays_zero, 0] == 1).mean()
        hits += abs(wins - pair.p_high) <= band
    assert hits / n_seeds >= 0.97
