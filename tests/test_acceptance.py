"""Release gate: the nine headline guarantees, each with a runtime budget.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion.  Every test asserts its numbers first and prints only after they
hold, so a printed line always means the criterion passed on this machine.
"""

import io
import json
import math
import time
from contextlib import redirect_stdout

import numpy as np
import pytest

import pmvi
from pmvi import (
    MarkovPolicy,
    PmviConfig,
    balanced_schedule,
    collect_behavior,
    collect_predetermined,
    diagnose,
    exact_nash_values,
    relative_uncertainty,
    run_lower_bound_experiment,
    run_pmvi,
    solve_zero_sum,
    suboptimality,
    well_explored_check,
)
from pmvi.cli import main
from oracles import exact_matrix_value

#: default_beta(12, 3, 2000, 0.1) — the certificate scale used by criteria 3-4.
CERTIFICATE_BETA = 135.56356132210317


def _report(criterion: str, elapsed: float, budget: float | None, detail: str) -> None:
    budget_text = f"budget {budget:.0f}s" if budget is not None else "no budget"
    print(f"\n[acceptance] {criterion}: PASS in {elapsed:.2f}s ({budget_text}) -- {detail}")


@pytest.fixture(scope="module")
def certificate_runs():
    """200 seeded runs on the three-state game at K=2000 with the default
    (certificate-scale) bonus multiplier; shared by criteria 3 and 4.  Each
    run is the ``diagnose`` report that ``pmvi run`` prints."""
    game = pmvi.three_state_game()
    nash = exact_nash_values(game)
    u1, u2 = MarkovPolicy.uniform(game, 1), MarkovPolicy.uniform(game, 2)
    runs = []
    t0 = time.perf_counter()
    for seed in range(200):
        data = collect_behavior(game, u1, u2, 2000, np.random.default_rng(seed))
        out = run_pmvi(game, data, PmviConfig())  # c=1, p=0.1
        runs.append({"seed": seed, **diagnose(game, out, nash)})
    elapsed = time.perf_counter() - t0
    return {"runs": runs, "elapsed": elapsed}


def test_criterion_1_paired_bandits_defeat_any_product_policy():
    budget = 1.0
    game_a, game_b = pmvi.spurious_equilibrium_pair()
    rng = np.random.default_rng(20260816)
    t0 = time.perf_counter()
    nash_a, nash_b = exact_nash_values(game_a), exact_nash_values(game_b)
    worst = 0.0
    for _ in range(1000):
        p = rng.dirichlet(np.ones(3))
        q = rng.dirichlet(np.ones(3))
        pol_max = MarkovPolicy(p.reshape(1, 1, 3), player=1)
        pol_min = MarkovPolicy(q.reshape(1, 1, 3), player=2)
        sub_a = suboptimality(game_a, pol_max, pol_min, nash_a).sub
        sub_b = suboptimality(game_b, pol_max, pol_min, nash_b).sub
        total = sub_a + sub_b
        worst = max(worst, abs(total - (2.0 + p[0] + q[0])))
        assert abs(total - (2.0 + p[0] + q[0])) <= 1e-9
        assert total >= 2.0 - 1e-9
    elapsed = time.perf_counter() - t0
    assert elapsed < budget
    _report(
        "criterion 1", elapsed, budget,
        f"1000 product policies, sub_A + sub_B = 2 + p1 + q1 >= 2 (worst dev {worst:.2e})",
    )


def test_criterion_2_solver_agrees_with_rational_oracle():
    budget = 10.0
    rng = np.random.default_rng(77)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(10_000):
        matrix = rng.integers(-1, 2, size=(3, 3)).astype(np.float64)
        value = solve_zero_sum(matrix, tol=1e-9).value
        truth = float(exact_matrix_value(matrix))
        worst = max(worst, abs(value - truth))
        assert abs(value - truth) <= 1e-9
    worst_expansion = 0.0
    for _ in range(1000):
        base = rng.uniform(-2.0, 2.0, size=(3, 3))
        noise = rng.uniform(-0.5, 0.5, size=(3, 3))
        dv = abs(
            solve_zero_sum(base + noise, tol=1e-9).value
            - solve_zero_sum(base, tol=1e-9).value
        )
        slack = np.abs(noise).max() + 2e-9
        worst_expansion = max(worst_expansion, dv - slack)
        assert dv <= slack
    elapsed = time.perf_counter() - t0
    assert elapsed < budget
    _report(
        "criterion 2", elapsed, budget,
        f"10^4 ternary matrices equal the oracle (worst dev {worst:.2e}); "
        f"10^3 perturbation pairs non-expansive (worst slack excess {worst_expansion:.2e})",
    )


def test_criterion_3_residual_sandwich_frequency(certificate_runs):
    budget = 120.0
    runs = certificate_runs["runs"]
    elapsed = certificate_runs["elapsed"]
    assert runs[0]["beta"] == pytest.approx(CERTIFICATE_BETA, abs=1e-9)
    rate = np.mean([run["sandwich_ok"] for run in runs])
    assert rate >= 0.85
    assert elapsed < budget
    _report(
        "criterion 3", elapsed, budget,
        f"0 <= residual <= 2*bonus two-sidedly on {rate:.1%} of 200 seeds "
        f"(K=2000, beta={CERTIFICATE_BETA:.4f})",
    )


def test_criterion_4_bracketing_and_certificates(certificate_runs):
    t0 = time.perf_counter()
    held = 0
    for run in certificate_runs["runs"]:
        if not run["sandwich_ok"]:
            continue
        held += 1
        chain = (
            run["v_lower"] <= run["v_min_br"] + 1e-8
            and run["v_min_br"] <= run["v_star"] + 1e-8
            and run["v_star"] <= run["v_max_br"] + 1e-8
            and run["v_max_br"] <= run["v_upper"] + 1e-8
        )
        assert chain, f"seed {run['seed']}: value bracketing failed"
        assert run["sub"] <= run["bound_rhs"] + 1e-8, f"seed {run['seed']}"
        assert run["sub"] <= 4.0 * run["beta"] * run["ru"] + 1e-8, f"seed {run['seed']}"
    assert held > 0
    elapsed = time.perf_counter() - t0
    _report(
        "criterion 4", elapsed, None,
        f"on all {held} sandwich seeds: V_low <= V^(pi,*) <= V* <= V^(*,nu) <= V_up, "
        "gap <= certificate <= 4*beta*RU",
    )


def test_criterion_5_relative_uncertainty_worked_example():
    budget = 1.0
    game = pmvi.cyclic_bandit()
    t0 = time.perf_counter()
    nash = exact_nash_values(game)
    devs = []
    for n in (0, 10, 100, 1000):
        data = collect_predetermined(
            game, balanced_schedule(9 * n, 3, 3), np.random.default_rng(0)
        )
        ru = relative_uncertainty(game, pmvi.bonus_tables(game, pmvi.gram_matrices(game, data)), nash).ru
        devs.append(abs(ru - (1.0 + n) ** -0.5))
        assert devs[-1] <= 1e-12
    elapsed = time.perf_counter() - t0
    assert elapsed < budget
    _report(
        "criterion 5", elapsed, budget,
        f"n per cell in (0,10,100,1000) gives RU = (1+n)^-1/2 (worst dev {max(devs):.2e})",
    )


def test_criterion_6_gap_decay_rate_on_well_explored_bandit():
    budget = 300.0
    game = pmvi.mixed_bandit()
    lam = well_explored_check(game, MarkovPolicy.uniform(game, 1), MarkovPolicy.uniform(game, 2))
    assert lam[0] == pytest.approx(1.0 / 9.0, abs=1e-12)  # well-explored premise
    t0 = time.perf_counter()
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = main(
            [
                "rate-sweep", "--game", "bandit-mixed",
                "--k", "100,316,1000,3162,10000",
                "--seeds", "50", "--beta", "0.5", "--jobs", "1",
            ]
        )
    elapsed = time.perf_counter() - t0
    assert code == 0
    summary = json.loads(buffer.getvalue())
    slope = summary["slope"]
    assert summary["degenerate"] is False
    assert -0.7 <= slope <= -0.3
    assert elapsed < budget
    _report(
        "criterion 6", elapsed, budget,
        f"mean-gap log-log slope {slope:.3f} in [-0.7, -0.3] over K=100..10000, 50 seeds",
    )


def test_criterion_7_indistinguishable_pair_floor():
    budget = 300.0
    config = PmviConfig(beta=0.5)
    t0 = time.perf_counter()
    ratios = []
    kls = []
    for k in (100, 1000, 10000):
        result = run_lower_bound_experiment(
            config, balanced_schedule(k, 3, 3), seeds=range(200)
        )
        # (a) the per-seed reduction identity is asserted inside the runner
        kls.append(result.summary["kl"])
        assert result.summary["kl"] <= 0.5  # (b)
        ratios.append(result.summary["worst_mean_ratio"])
    assert ratios[-1] / ratios[0] >= 0.5  # (c) no decay of E[subb/RU]
    elapsed = time.perf_counter() - t0
    assert elapsed < budget
    _report(
        "criterion 7", elapsed, budget,
        f"per-seed gap identity held on 1200 runs; KL <= 1/2 (max {max(kls):.4f}); "
        f"worst-game E[subb/RU] ratio large/small K = {ratios[-1] / ratios[0]:.2f} >= 0.5",
    )


def test_criterion_8_fixed_seed_byte_identical_outputs(tmp_path):
    budget = 10.0
    t0 = time.perf_counter()
    csv_paths = [tmp_path / "first.csv", tmp_path / "second.csv"]
    for path in csv_paths:
        buffer = io.StringIO()
        with redirect_stdout(buffer):
            code = main(
                [
                    "rate-sweep", "--game", "bandit-mixed", "--k", "50,100",
                    "--seeds", "3", "--beta", "0.5", "--out", str(path),
                ]
            )
        assert code == 0
    assert csv_paths[0].read_bytes() == csv_paths[1].read_bytes()
    run_outputs = []
    for _ in range(2):
        buffer = io.StringIO()
        with redirect_stdout(buffer):
            code = main(["run", "--game", "three-state", "--k", "100", "--seed", "5"])
        assert code == 0
        run_outputs.append(buffer.getvalue())
    assert run_outputs[0] == run_outputs[1]
    elapsed = time.perf_counter() - t0
    assert elapsed < budget
    _report(
        "criterion 8", elapsed, budget,
        "fixed-seed sweep CSVs byte-identical; fixed-seed run reports byte-identical",
    )


def test_criterion_9_weight_norm_invariant():
    budget = 30.0
    makers = [
        pmvi.mixed_bandit,
        pmvi.cyclic_bandit,
        pmvi.three_state_game,
        lambda: pmvi.build_game(0.6, 0.4),
    ]
    rng = np.random.default_rng(424242)
    t0 = time.perf_counter()
    for _ in range(100):
        game = makers[rng.integers(len(makers))]()
        k = int(rng.integers(1, 400))
        config = (
            PmviConfig(beta=float(rng.uniform(0.0, 50.0)))
            if rng.random() < 0.5
            else PmviConfig()
        )
        data = collect_behavior(
            game,
            MarkovPolicy.uniform(game, 1),
            MarkovPolicy.uniform(game, 2),
            k,
            np.random.default_rng(rng.integers(2**32)),
        )
        out = run_pmvi(game, data, config)
        bound = game.horizon * math.sqrt(k * game.dim)
        assert np.linalg.norm(out.weights_lower, axis=1).max() <= bound
        assert np.linalg.norm(out.weights_upper, axis=1).max() <= bound
    elapsed = time.perf_counter() - t0
    assert elapsed < budget
    _report(
        "criterion 9", elapsed, budget,
        "|w_h| <= H*sqrt(K*d) for both weight families on 100 randomized runs",
    )
