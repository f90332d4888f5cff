"""Dataset-quality diagnostics: bonus DP, relative uncertainty, exploration,
the shared run report and what it computes only once."""

import dataclasses
import importlib
import json
import sys

import numpy as np
import pytest

import pmvi
from pmvi import (
    ConfigError,
    MarkovPolicy,
    OfflineDataset,
    balanced_schedule,
    bonus_value_dp,
    collect_behavior,
    collect_predetermined,
    expected_feature_outer,
    relative_uncertainty,
    well_explored_check,
)
from pmvi.cli import main
from pmvi.evaluation import _response_dp
from oracles import brute_force_max_total, pure_policy
from test_value_iteration import dense_unit_norm_game


def uniform_pair(game):
    return MarkovPolicy.uniform(game, 1), MarkovPolicy.uniform(game, 2)


def uniform_bandit_data(n_per_cell):
    game = pmvi.cyclic_bandit()
    schedule = balanced_schedule(9 * n_per_cell, 3, 3)
    return game, collect_predetermined(game, schedule, np.random.default_rng(0))


def concatenate(d1: OfflineDataset, d2: OfflineDataset) -> OfflineDataset:
    return OfflineDataset(
        states=np.vstack([d1.states, d2.states]),
        actions_p1=np.vstack([d1.actions_p1, d2.actions_p1]),
        actions_p2=np.vstack([d1.actions_p2, d2.actions_p2]),
        rewards=np.vstack([d1.rewards, d2.rewards]),
        next_states=np.vstack([d1.next_states, d2.next_states]),
        provenance=d1.provenance,
    )


class TestBonusValueDP:
    @pytest.mark.parametrize("fixed_player,seed", [(1, 0), (2, 1)])
    def test_matches_exhaustive_search(self, fixed_player, seed):
        game = pmvi.three_state_game()
        rng = np.random.default_rng(seed)
        tables = rng.uniform(0, 1, size=(3, 3, 2, 2))
        fixed = MarkovPolicy(
            rng.dirichlet(np.ones(2), size=(3, 3)), player=fixed_player
        )
        value = bonus_value_dp(game, tables, fixed)
        assert value == pytest.approx(
            float(brute_force_max_total(game, tables, fixed)), abs=1e-12
        )

    def test_ties_resolve_to_smallest_action(self):
        game = pmvi.three_state_game()
        value = bonus_value_dp(game, np.full((3, 3, 2, 2), 0.25), uniform_pair(game)[0])
        assert value == pytest.approx(0.75, abs=1e-12)

    def test_shape_check(self):
        game = pmvi.three_state_game()
        with pytest.raises(ConfigError, match="tables shape"):
            bonus_value_dp(game, np.zeros((3, 3, 2)), uniform_pair(game)[0])

    @pytest.mark.parametrize(
        "make_game",
        [pmvi.three_state_game, pmvi.cyclic_bandit, pmvi.mixed_bandit, lambda: pmvi.build_game(0.4, 0.6)],
    )
    def test_value_only_dp_equals_the_public_value(self, make_game):
        game = make_game()
        data = collect_behavior(game, *uniform_pair(game), 40, np.random.default_rng(5))
        unit = pmvi.bonus_tables(game, pmvi.gram_matrices(game, data))
        nash = pmvi.exact_nash_values(game)
        for fixed in (nash.policy_max, nash.policy_min, *uniform_pair(game)):
            value = bonus_value_dp(game, unit, fixed)
            assert _response_dp(game, unit, fixed, np.max)[0, game.initial_state] == value


class TestRelativeUncertainty:
    def test_empty_dataset_saturates_at_horizon(self):
        game = pmvi.three_state_game()
        data = collect_behavior(game, *uniform_pair(game), 0, np.random.default_rng(0))
        report = relative_uncertainty(game, data, pmvi.exact_nash_values(game))
        assert report.ru == pytest.approx(3.0, abs=1e-12)
        assert report.ru == max(report.ru_max_side, report.ru_min_side)

    @pytest.mark.parametrize("n", [0, 4, 25])
    def test_uniformly_filled_bandit_closed_form(self, n):
        game, data = uniform_bandit_data(n)
        report = relative_uncertainty(game, data, pmvi.exact_nash_values(game))
        assert report.ru == pytest.approx((1.0 + n) ** -0.5, abs=1e-12)
        assert report.ru_max_side == pytest.approx(report.ru_min_side, abs=1e-12)

    def test_more_data_never_hurts(self):
        game = pmvi.three_state_game()
        d1 = collect_behavior(game, *uniform_pair(game), 30, np.random.default_rng(1))
        d2 = collect_behavior(game, *uniform_pair(game), 30, np.random.default_rng(2))
        nash = pmvi.exact_nash_values(game)
        ru_single = relative_uncertainty(game, d1, nash).ru
        ru_double = relative_uncertainty(game, concatenate(d1, d2), nash).ru
        assert ru_double <= ru_single + 1e-12
        # repeat call is bit-for-bit stable
        assert relative_uncertainty(game, d1, nash).ru == ru_single

    def test_pair_validation(self):
        game = pmvi.cyclic_bandit()
        data = collect_behavior(game, *uniform_pair(game), 5, np.random.default_rng(0))
        nash = pmvi.exact_nash_values(game)
        swapped = dataclasses.replace(nash, policy_max=nash.policy_min, policy_min=nash.policy_max)
        with pytest.raises(ConfigError, match="max-player, min-player"):
            relative_uncertainty(game, data, swapped)


class TestWellExplored:
    def test_uniform_play_on_bandit(self):
        game = pmvi.cyclic_bandit()
        lams = well_explored_check(game, *uniform_pair(game))
        assert lams.shape == (1,)
        assert lams[0] == pytest.approx(1.0 / 9.0, abs=1e-12)

    def test_pure_play_is_degenerate(self):
        game = pmvi.cyclic_bandit()
        pair = (pure_policy(game, 1, 0), pure_policy(game, 2, 0))
        lams = well_explored_check(game, *pair)
        assert lams[0] == pytest.approx(0.0, abs=1e-12)


class TestExpectedFeatureOuter:
    @pytest.mark.parametrize("seed", range(3))
    def test_unit_trace_and_psd_for_indicator_features(self, seed):
        game = pmvi.three_state_game()
        rng = np.random.default_rng(seed)
        pol_max = MarkovPolicy(rng.dirichlet(np.ones(2), size=(3, 3)), player=1)
        pol_min = MarkovPolicy(rng.dirichlet(np.ones(2), size=(3, 3)), player=2)
        outer = expected_feature_outer(game, pol_max, pol_min)
        assert outer.shape == (3, 12, 12)
        for h in range(3):
            assert np.trace(outer[h]) == pytest.approx(1.0, abs=1e-12)
            assert np.linalg.eigvalsh(outer[h])[0] >= -1e-12

    def test_player_order_enforced(self):
        game = pmvi.three_state_game()
        p1, p2 = uniform_pair(game)
        with pytest.raises(ConfigError, match="order"):
            expected_feature_outer(game, p2, p1)

    @pytest.mark.parametrize("seed", range(3))
    def test_bit_equal_to_the_einsum_on_one_hot_features(self, seed):
        # the per-cell outer products F' diag(joint) F against the direct sum
        game = pmvi.three_state_game()
        rng = np.random.default_rng(seed)
        pol_max = MarkovPolicy(rng.dirichlet(np.ones(2), size=(3, 3)), player=1)
        pol_min = MarkovPolicy(rng.dirichlet(np.ones(2), size=(3, 3)), player=2)
        rho = np.zeros(game.n_states)
        rho[game.initial_state] = 1.0
        expected = np.zeros((game.horizon, game.dim, game.dim))
        for h in range(game.horizon):
            joint = np.einsum("s,sa,sb->sab", rho, pol_max.probs[h], pol_min.probs[h])
            expected[h] = np.einsum("sab,sabi,sabj->ij", joint, game.features, game.features)
            rho = np.einsum("sab,sabt->t", joint, game.transition[h])
        assert np.array_equal(expected_feature_outer(game, pol_max, pol_min), expected)


def count_calls(monkeypatch, qualname):
    """Count calls of ``pmvi.<qualname>`` through every pmvi module binding
    (``from .x import f`` copies the binding into each importing module)."""
    module_name, attr = qualname.rsplit(".", 1)
    fn = getattr(importlib.import_module(f"pmvi.{module_name}"), attr)
    calls = []

    def counted(*args, **kwargs):
        calls.append(qualname)
        return fn(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if module is not None and (name == "pmvi" or name.startswith("pmvi.")):
            for key, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, key, counted)
    return calls


class TestComputeOnce:
    def test_run_builds_each_artifact_once(self, monkeypatch, capsys):
        counts = {
            name: count_calls(monkeypatch, name)
            for name in (
                "value_iteration.gram_matrices",
                "value_iteration.bonus_tables",
                "evaluation.exact_nash_values",
                "evaluation.best_response_value",
                "uncertainty.bonus_value_dp",
            )
        }
        assert main(["run", "--game", "three-state", "--k", "300"]) == 0
        assert json.loads(capsys.readouterr().out)["sandwich_ok"] in (True, False)
        # one best response / one bonus DP per side of sub and of RU
        assert {name: len(calls) for name, calls in counts.items()} == {
            "value_iteration.gram_matrices": 1,
            "value_iteration.bonus_tables": 1,
            "evaluation.exact_nash_values": 1,
            "evaluation.best_response_value": 2,
            "uncertainty.bonus_value_dp": 2,
        }

    def test_one_nonzero_features_skip_every_solve(self, monkeypatch, capsys):
        # each three-state cell has one nonzero feature, so Lambda_h and E[phi phi'] are diagonal
        counts = {
            name: count_calls(monkeypatch, name)
            for name in ("value_iteration.ridge_weights", "uncertainty.expected_feature_outer")
        }
        assert main(["run", "--game", "three-state", "--k", "300"]) == 0
        capsys.readouterr()
        assert {name: len(calls) for name, calls in counts.items()} == {
            "value_iteration.ridge_weights": 0,
            "uncertainty.expected_feature_outer": 0,
        }
        game = dense_unit_norm_game(11)
        pmvi.run_pmvi(game, collect_behavior(game, *uniform_pair(game), 50, np.random.default_rng(0)), pmvi.PmviConfig())
        assert len(counts["value_iteration.ridge_weights"]) == game.horizon

    def test_building_or_saving_a_game_leaves_its_structure_unfound(self, tmp_path):
        # the one-nonzero search runs on first use, never during set-up
        path = tmp_path / "game.json"
        built = [pmvi.three_state_game(), pmvi.build_game(0.6, 0.4), pmvi.cyclic_bandit()]
        pmvi.save_game(built[0], path)
        loaded = [pmvi.load_game(path), pmvi.game_from_dict(pmvi.game_to_dict(built[1]))]
        for game in built + loaded:
            assert "single_nonzero" not in vars(game)
        assert built[0].single_nonzero is not None and "single_nonzero" in vars(built[0])

    def test_lower_bound_solves_each_game_once(self, monkeypatch):
        calls = count_calls(monkeypatch, "evaluation.exact_nash_values")

        def algorithm(game, dataset):
            out = pmvi.run_pmvi(game, dataset, pmvi.PmviConfig(beta=0.5))
            return out.policy_max, out.policy_min

        pmvi.run_lower_bound_experiment(algorithm, balanced_schedule(18, 3, 3), [0, 1, 2])
        assert len(calls) == 2

    @pytest.mark.parametrize(
        "argv,pivoted",
        [
            (["lower-bound", "--k", "1000", "--seeds", "20"], 2),
            (["lower-bound", "--k", "1000", "--seeds", "20", "--beta", "0.3"], 82),
            (["run", "--game", "three-state", "--k", "2000"], 9),
            (["run", "--game", "three-state", "--k", "2000", "--beta", "0.5"], 23),
        ],
    )
    def test_constant_stage_matrices_skip_the_simplex(self, monkeypatch, capsys, argv, pivoted):
        # of 738 (lower-bound) and 27 (run) stage games, only the non-constant
        # ones reach the tableau; the rest take solve_zero_sum's closed form
        calls = count_calls(monkeypatch, "matrix_nash._simplex_max")
        assert main(argv) == 0
        capsys.readouterr()
        assert len(calls) == pivoted

    @pytest.mark.parametrize(
        "spec,seed",
        [("three-state", 0), ("three-state", 1), ("three-state", 2), ("hard", 0)],
    )
    def test_diagnose_equals_a_from_scratch_report(self, spec, seed):
        game = pmvi.three_state_game() if spec == "three-state" else pmvi.build_game(0.4, 0.6)
        p1, p2 = uniform_pair(game)
        data = collect_behavior(game, p1, p2, 200, np.random.default_rng(seed))
        out = pmvi.run_pmvi(game, data, pmvi.PmviConfig())
        nash = pmvi.exact_nash_values(game)
        report = pmvi.suboptimality(game, out.policy_max, out.policy_min, nash)
        ru = relative_uncertainty(game, data, nash)
        fresh = dataclasses.replace(out, unit_bonus=pmvi.bonus_tables(game, pmvi.gram_matrices(game, data)))
        iota_lo, iota_up = pmvi.bellman_error_tables(game, out)
        expected = {
            "beta": out.beta,
            "v_lower": float(out.v_lower[0, game.initial_state]),
            "v_upper": float(out.v_upper[0, game.initial_state]),
            "v_star": report.v_star,
            "v_max_br": report.v_max_br,
            "v_min_br": report.v_min_br,
            "sub": report.sub,
            "subb": report.subb,
            "bound_rhs": pmvi.theorem_bound_rhs(game, fresh, pmvi.exact_nash_values(game)),
            "sandwich_ok": pmvi.sandwich_holds(iota_lo, iota_up, fresh.bonus),
            "ru": ru.ru,
            "ru_max_side": ru.ru_max_side,
            "ru_min_side": ru.ru_min_side,
        }
        assert pmvi.diagnose(game, out, pmvi.exact_nash_values(game)) == expected
