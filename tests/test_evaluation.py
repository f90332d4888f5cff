"""Exact evaluators: equilibrium values, best responses, gap diagnostics."""

import dataclasses
from fractions import Fraction

import numpy as np
import pytest

import pmvi
from pmvi import (
    ConfigError,
    InvariantError,
    MarkovPolicy,
    PmviConfig,
    best_response_value,
    bellman_error_tables,
    bonus_value_dp,
    collect_behavior,
    exact_nash_values,
    expected_total,
    policy_value,
    relative_uncertainty,
    run_pmvi,
    sandwich_holds,
    suboptimality,
    theorem_bound_rhs,
    value_difference,
)
from oracles import (
    brute_force_best_response,
    exact_nash_value_table,
    trajectory_expected_total,
    trajectory_policy_value,
)

THREE_STATE_VSTAR = 1.1587977429324021
MIXED_VALUE = 0.5931670696017305


def random_product_policy(game, seed):
    rng = np.random.default_rng(seed)
    p1 = rng.dirichlet(np.ones(game.n_actions_p1), size=(game.horizon, game.n_states))
    p2 = rng.dirichlet(np.ones(game.n_actions_p2), size=(game.horizon, game.n_states))
    return MarkovPolicy(p1, player=1), MarkovPolicy(p2, player=2)


class TestExactNashValues:
    @pytest.mark.parametrize(
        "maker,expected",
        [
            (lambda: pmvi.spurious_equilibrium_pair()[0], 0.0),
            (lambda: pmvi.spurious_equilibrium_pair()[1], 0.0),
            (pmvi.cyclic_bandit, 0.5),
            (pmvi.mixed_bandit, MIXED_VALUE),
            (pmvi.three_state_game, THREE_STATE_VSTAR),
            (lambda: pmvi.build_game(0.6, 0.4), 1.2),
        ],
    )
    def test_frozen_initial_values(self, maker, expected):
        game = maker()
        nash = exact_nash_values(game)
        assert float(nash.v_star[0, game.initial_state]) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("maker", [pmvi.mixed_bandit, pmvi.three_state_game])
    def test_full_table_matches_rational_oracle(self, maker):
        game = maker()
        nash = exact_nash_values(game)
        oracle = exact_nash_value_table(game)
        for h in range(game.horizon):
            for s in range(game.n_states):
                assert abs(nash.v_star[h, s] - float(oracle[h][s])) <= 1e-9

    @pytest.mark.parametrize("p1,p2", [(0.6, 0.4), (0.5, 0.5), (0.25, 0.75), (0.74, 0.26)])
    def test_first_step_game_value_closed_form(self, p1, p2):
        game = pmvi.build_game(p1, p2)
        nash = exact_nash_values(game)
        assert float(nash.v_star[0, game.initial_state]) == pytest.approx(
            (game.horizon - 1) * max(p1, p2), abs=1e-12
        )

    def test_equilibrium_pair_is_unexploitable(self):
        game = pmvi.three_state_game()
        nash = exact_nash_values(game)
        v_star = float(nash.v_star[0, game.initial_state])
        against_max = float(best_response_value(game, nash.policy_max)[0][0, game.initial_state])
        against_min = float(best_response_value(game, nash.policy_min)[0][0, game.initial_state])
        assert against_max == pytest.approx(v_star, abs=1e-9)
        assert against_min == pytest.approx(v_star, abs=1e-9)


class TestPolicyValue:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_trajectory_enumeration(self, seed):
        game = pmvi.three_state_game()
        pol_max, pol_min = random_product_policy(game, seed)
        table = policy_value(game, pol_max, pol_min)
        oracle = trajectory_policy_value(game, pol_max, pol_min)
        assert float(table[0, game.initial_state]) == pytest.approx(float(oracle), abs=1e-12)

    def test_player_order_enforced(self):
        game = pmvi.three_state_game()
        pol_max, pol_min = random_product_policy(game, 0)
        with pytest.raises(ConfigError, match="order"):
            policy_value(game, pol_min, pol_max)


class TestBestResponse:
    def test_uniform_row_play_is_exploitable(self):
        game_a, _ = pmvi.spurious_equilibrium_pair()
        uniform = MarkovPolicy.uniform(game_a, 1)
        value, br = best_response_value(game_a, uniform)
        assert float(value[0, game_a.initial_state]) == pytest.approx(-2.0 / 3.0, abs=1e-12)
        # the returned pure policy attains exactly that value
        attained = float(policy_value(game_a, uniform, br)[0, game_a.initial_state])
        assert attained == pytest.approx(-2.0 / 3.0, abs=1e-12)

    @pytest.mark.parametrize("player,seed", [(1, 0), (2, 1), (1, 2), (2, 3)])
    def test_matches_exhaustive_search(self, player, seed):
        game = pmvi.three_state_game()
        probs = np.random.default_rng(seed).dirichlet(
            np.ones(2), size=(game.horizon, game.n_states)
        )
        policy = MarkovPolicy(probs, player=player)
        value = float(best_response_value(game, policy)[0][0, game.initial_state])
        assert value == pytest.approx(float(brute_force_best_response(game, policy)), abs=1e-12)


class TestSuboptimality:
    @pytest.mark.parametrize("seed", range(6))
    def test_paired_bandits_share_one_exploitability_budget(self, seed):
        game_a, game_b = pmvi.spurious_equilibrium_pair()
        rng = np.random.default_rng(seed)
        p = rng.dirichlet(np.ones(3))
        q = rng.dirichlet(np.ones(3))
        pol_max = MarkovPolicy(p.reshape(1, 1, 3), player=1)
        pol_min = MarkovPolicy(q.reshape(1, 1, 3), player=2)
        sub_a = suboptimality(game_a, pol_max, pol_min).sub
        sub_b = suboptimality(game_b, pol_max, pol_min).sub
        assert sub_a == pytest.approx(2.0 - p[1] - q[1], abs=1e-9)
        assert sub_b == pytest.approx(p[0] + q[0] + p[1] + q[1], abs=1e-9)
        assert sub_a + sub_b == pytest.approx(2.0 + p[0] + q[0], abs=1e-9)

    def test_equilibrium_pair_has_zero_gap(self):
        game = pmvi.three_state_game()
        nash = exact_nash_values(game)
        report = suboptimality(game, nash.policy_max, nash.policy_min)
        assert report.sub == pytest.approx(0.0, abs=1e-9)
        assert report.subb == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("seed", range(4))
    def test_report_chain_consistency(self, seed):
        game = pmvi.three_state_game()
        pol_max, pol_min = random_product_policy(game, 10 + seed)
        report = suboptimality(game, pol_max, pol_min)
        assert report.v_min_br <= report.v_star + 1e-9
        assert report.v_star <= report.v_max_br + 1e-9
        assert report.v_min_br <= report.v_pair + 1e-9
        assert report.v_pair <= report.v_max_br + 1e-9
        assert report.sub == pytest.approx(report.v_max_br - report.v_min_br, abs=0)
        assert report.subb == pytest.approx(abs(report.v_star - report.v_pair), abs=0)
        assert report.sub >= -1e-12

    @pytest.mark.parametrize("seed", range(4))
    def test_best_response_values_match_best_response_value(self, seed):
        game = pmvi.three_state_game()
        pol_max, pol_min = random_product_policy(game, 20 + seed)
        report = suboptimality(game, pol_max, pol_min)
        assert report.v_min_br == float(best_response_value(game, pol_max)[0][0, game.initial_state])
        assert report.v_max_br == float(best_response_value(game, pol_min)[0][0, game.initial_state])


    @pytest.mark.parametrize("seed", range(3))
    def test_given_nash_gives_the_same_report(self, seed):
        game = pmvi.three_state_game()
        pol_max, pol_min = random_product_policy(game, 30 + seed)
        nash = exact_nash_values(game)
        assert suboptimality(game, pol_max, pol_min, nash=nash) == suboptimality(game, pol_max, pol_min)

    def test_nash_of_another_game_rejected(self):
        game = pmvi.three_state_game()
        pol_max, pol_min = random_product_policy(game, 0)
        with pytest.raises(ConfigError, match="do not match the game"):
            suboptimality(game, pol_max, pol_min, nash=exact_nash_values(pmvi.cyclic_bandit()))


class TestExpectedTotal:
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_trajectory_enumeration(self, seed):
        game = pmvi.three_state_game()
        pol_max, pol_min = random_product_policy(game, 20 + seed)
        tables = np.random.default_rng(seed).uniform(-1, 1, size=(3, 3, 2, 2))
        got = expected_total(game, pol_max, pol_min, tables)
        want = trajectory_expected_total(game, pol_max, pol_min, tables)
        assert got == pytest.approx(float(want), abs=1e-12)

    def test_shape_check(self):
        game = pmvi.three_state_game()
        pol_max, pol_min = random_product_policy(game, 0)
        with pytest.raises(ConfigError, match="tables shape"):
            expected_total(game, pol_max, pol_min, np.zeros((3, 3, 2)))


class TestSandwich:
    def test_synthetic_cases(self):
        shape = (1, 1, 2, 2)
        bonus = np.full(shape, 0.5)
        ok_lo, ok_up = np.full(shape, 0.3), np.full(shape, -0.9)
        assert sandwich_holds(ok_lo, ok_up, bonus)
        assert not sandwich_holds(np.full(shape, -0.1), ok_up, bonus)
        assert not sandwich_holds(np.full(shape, 1.2), ok_up, bonus)
        assert not sandwich_holds(ok_lo, np.full(shape, 0.2), bonus)
        assert not sandwich_holds(ok_lo, np.full(shape, -1.5), bonus)
        # boundary values pass within tolerance
        assert sandwich_holds(np.full(shape, 1.0), np.full(shape, -1.0), bonus)

    @pytest.mark.parametrize("seed", range(3))
    def test_certificate_scale_run_brackets_equilibrium(self, seed):
        game = pmvi.three_state_game()
        data = collect_behavior(
            game,
            MarkovPolicy.uniform(game, 1),
            MarkovPolicy.uniform(game, 2),
            400,
            np.random.default_rng(300 + seed),
        )
        out = run_pmvi(game, data, PmviConfig())
        iota_lo, iota_up = bellman_error_tables(game, out)
        assert sandwich_holds(iota_lo, iota_up, out.bonus)
        nash = exact_nash_values(game)
        report = suboptimality(game, out.policy_max, out.policy_min)
        # pessimism: estimates bracket the true values at the initial state
        assert float(out.v_lower[0, game.initial_state]) <= report.v_min_br + 1e-8
        assert report.v_max_br <= float(out.v_upper[0, game.initial_state]) + 1e-8
        # and the uncertainty-weighted certificate dominates the realized gap
        assert report.sub <= theorem_bound_rhs(game, out, nash) + 1e-8


class TestValueDifference:
    def _run(self, seed=0, k=120):
        game = pmvi.three_state_game()
        data = collect_behavior(
            game,
            MarkovPolicy.uniform(game, 1),
            MarkovPolicy.uniform(game, 2),
            k,
            np.random.default_rng(seed),
        )
        return game, run_pmvi(game, data, PmviConfig(beta=0.7))

    def test_decomposition_is_exact(self):
        game, out = self._run()
        pol_max, pol_min = random_product_policy(game, 5)
        advantage, residual, total = value_difference(
            game, out.q_lower, out.v_lower, out.policy_max, out.policy_min_aux,
            pol_max, pol_min,
        )
        assert total == pytest.approx(advantage + residual, abs=1e-12)
        x = game.initial_state
        direct = float(out.v_lower[0, x]) - float(policy_value(game, pol_max, pol_min)[0, x])
        assert total == pytest.approx(direct, abs=1e-10)

    def test_inconsistent_v_hat_rejected(self):
        game, out = self._run(seed=1)
        pol_max, pol_min = random_product_policy(game, 6)
        bad_v = out.v_lower + 0.05
        with pytest.raises(InvariantError, match="bilinear"):
            value_difference(
                game, out.q_lower, bad_v, out.policy_max, out.policy_min_aux,
                pol_max, pol_min,
            )

    @pytest.mark.parametrize("wrong", ["q_hat", "v_hat"])
    def test_wrong_table_shape_rejected(self, wrong):
        game, out = self._run(seed=3)
        pol_max, pol_min = random_product_policy(game, 8)
        tables = {"q_hat": out.q_lower, "v_hat": out.v_lower}
        tables[wrong] = tables[wrong][:, :-1]
        with pytest.raises(ConfigError, match="shape"):
            value_difference(
                game, tables["q_hat"], tables["v_hat"], out.policy_max, out.policy_min_aux,
                pol_max, pol_min,
            )

    def test_player_order_enforced(self):
        game, out = self._run(seed=2)
        pol_max, pol_min = random_product_policy(game, 7)
        with pytest.raises(ConfigError, match="order"):
            value_difference(
                game, out.q_lower, out.v_lower, out.policy_min_aux, out.policy_max,
                pol_max, pol_min,
            )


def test_value_tables_are_read_only_arrays():
    game = pmvi.three_state_game()
    data = collect_behavior(
        game, MarkovPolicy.uniform(game, 1), MarkovPolicy.uniform(game, 2), 60, np.random.default_rng(0)
    )
    out = run_pmvi(game, data, PmviConfig(beta=0.7))
    nash = exact_nash_values(game)
    tables = {
        "q_lower": out.q_lower,
        "q_upper": out.q_upper,
        "v_lower": out.v_lower,
        "v_upper": out.v_upper,
        "v_star": nash.v_star,
        "policy_value": policy_value(game, nash.policy_max, nash.policy_min),
        "best_response_value": best_response_value(game, nash.policy_max)[0],
    }
    for name, table in tables.items():
        assert isinstance(table, np.ndarray) and table.dtype == np.float64, name
        assert table.flags.writeable is False, name
    assert out.q_lower.shape == (game.horizon, game.n_states, game.n_actions_p1, game.n_actions_p2)
    assert out.v_lower.shape == nash.v_star.shape == (game.horizon, game.n_states)


def test_oracle_arithmetic_is_rational():
    game = pmvi.cyclic_bandit()
    pol_max = MarkovPolicy(np.full((1, 1, 3), 1 / 3), player=1)
    pol_min = MarkovPolicy(np.full((1, 1, 3), 1 / 3), player=2)
    value = trajectory_policy_value(game, pol_max, pol_min)
    assert isinstance(value, Fraction)


@pytest.mark.parametrize("defect", ["one-step-too-many", "single-state", "extra-action"])
@pytest.mark.parametrize("player", [1, 2])
@pytest.mark.parametrize(
    "call",
    [
        "policy_value", "suboptimality", "best_response_value",
        "expected_total", "relative_uncertainty", "bonus_value_dp",
    ],
)
def test_every_policy_argument_must_fit_the_game(call, player, defect):
    game = pmvi.three_state_game()
    h, s, a = game.horizon, game.n_states, (game.n_actions_p1, game.n_actions_p2)[player - 1]
    shape = {"one-step-too-many": (h + 1, s, a), "single-state": (h, 1, a), "extra-action": (h, s, a + 1)}[defect]
    pair = [MarkovPolicy.uniform(game, 1), MarkovPolicy.uniform(game, 2)]
    data = collect_behavior(game, *pair, 5, np.random.default_rng(0))
    bad = pair[player - 1] = MarkovPolicy(np.full(shape, 1.0 / shape[2]), player)
    tables = np.ones(game.reward.shape)
    nash = dataclasses.replace(exact_nash_values(game), policy_max=pair[0], policy_min=pair[1])
    calls = {
        "policy_value": lambda: policy_value(game, *pair),
        "suboptimality": lambda: suboptimality(game, *pair),
        "best_response_value": lambda: best_response_value(game, bad),
        "expected_total": lambda: expected_total(game, *pair, tables),
        "relative_uncertainty": lambda: relative_uncertainty(game, data, nash),
        "bonus_value_dp": lambda: bonus_value_dp(game, tables, bad),
    }
    with pytest.raises(ConfigError, match=rf"player {player} policy shape .* does not fit the game"):
        calls[call]()
