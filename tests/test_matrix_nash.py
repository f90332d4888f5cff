"""Zero-sum matrix solver: exact-oracle agreement and equilibrium properties."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import pmvi
from pmvi import ConfigError, SolverError, best_pure_response_gap, solve_zero_sum
from pmvi.matrix_nash import _equilibrium, _simplex_max, _solve_stage

from oracles import exact_matrix_equilibrium, exact_matrix_value

TOL = 1e-9
E32 = float(np.float32(-1e-9))  # -1e-9 as the width-32 element strategy draws it


def test_matching_pennies():
    sol = solve_zero_sum(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert sol.row_strategy == pytest.approx([0.5, 0.5], abs=1e-12)
    assert sol.col_strategy == pytest.approx([0.5, 0.5], abs=1e-12)
    assert sol.value == pytest.approx(0.5, abs=1e-12)
    assert sol.exploitability <= TOL


def test_pure_saddle():
    # (row 0, col 0) dominates everything
    sol = solve_zero_sum(np.array([[2.0, 3.0], [0.0, 1.0]]))
    assert sol.value == pytest.approx(2.0, abs=1e-12)
    assert sol.row_strategy == pytest.approx([1.0, 0.0], abs=1e-12)
    assert sol.col_strategy == pytest.approx([1.0, 0.0], abs=1e-12)


def test_single_cell():
    sol = solve_zero_sum(np.array([[-3.25]]))
    assert sol.value == pytest.approx(-3.25, abs=1e-12)
    assert sol.row_strategy.tolist() == [1.0]
    assert sol.col_strategy.tolist() == [1.0]


@pytest.mark.parametrize("shape", [(1, 1), (2, 2), (3, 2)])
@pytest.mark.parametrize("c", [2.0**53, -(2.0**53), 1e17, -1e17, 1e300, -1e300])
def test_constant_matrix_beyond_integer_precision(c, shape):
    # here c - 1.0 rounds back to c, so a shift of one would zero every entry
    sol = solve_zero_sum(np.full(shape, c))
    assert sol.value == c
    assert sol.exploitability == 0.0


_RANDOM_MAGNITUDES = np.random.default_rng(18).uniform(-12.0, 15.0, 24)
CONSTANTS = [2.0**53, -(2.0**53), 1e17, -1e17, 1e300, -1e300, -7.04e-6, 0.0] + [
    float(sign * 10.0**e) for sign, e in zip([1.0, -1.0] * 12, _RANDOM_MAGNITUDES)
]


@pytest.mark.parametrize("c", CONSTANTS)
@pytest.mark.parametrize("shape", [(1, 1), (2, 2), (3, 2), (2, 3), (3, 3), (5, 5), (1, 4), (4, 1)])
def test_constant_matrix_is_the_simplex_answer_bit_for_bit(shape, c):
    # the closed form must reproduce the one Bland pivot the simplex makes,
    # including its rounding (``1.0 + shift`` differs for c = -7.04e-6)
    m = np.full(shape, c)
    shift = c - max(1.0, math.ulp(c))
    simplex = _equilibrium(m, shift, *_simplex_max(m - shift)[:2])
    sol = solve_zero_sum(m)
    assert float(sol.value).hex() == float(simplex.value).hex()
    assert sol.row_strategy.tobytes() == simplex.row_strategy.tobytes()
    assert sol.col_strategy.tobytes() == simplex.col_strategy.tobytes()
    assert sol.exploitability == simplex.exploitability == 0.0


_VARIED = np.random.default_rng(22).uniform(-5.0, 5.0, size=(8, 3, 2))
STAGES = {
    "constant": np.array([np.full((3, 2), c) for c in CONSTANTS]),
    "mixed": np.array([np.full((3, 2), c) if i % 2 else _VARIED[i] for i, c in enumerate(CONSTANTS[:8])]),
    "non-constant": _VARIED,
}


@pytest.mark.parametrize("kind", STAGES)
def test_stage_solve_is_the_per_state_solve_bit_for_bit(kind):
    stage = STAGES[kind]
    rows, cols, values = _solve_stage(stage)
    assert (rows.shape, cols.shape, values.shape) == ((len(stage), 3), (len(stage), 2), (len(stage),))
    for s, matrix in enumerate(stage):
        sol = solve_zero_sum(matrix)
        assert float(values[s]).hex() == float(sol.value).hex()
        assert rows[s].tobytes() == sol.row_strategy.tobytes()
        assert cols[s].tobytes() == sol.col_strategy.tobytes()


def test_zero_matrix_everything_optimal():
    sol = solve_zero_sum(np.zeros((3, 4)))
    assert sol.value == pytest.approx(0.0, abs=1e-12)
    assert sol.exploitability <= TOL


@pytest.mark.parametrize(
    "payoff,value",
    [
        (pmvi.PAYOFF_A, 0.0),
        (pmvi.PAYOFF_B, 0.0),
        (pmvi.PAYOFF_CYCLIC, 0.5),
        (pmvi.PAYOFF_MIXED, 0.5931670696017305),
    ],
)
def test_builtin_payoff_values(payoff, value):
    assert solve_zero_sum(np.array(payoff)).value == pytest.approx(value, abs=TOL)


def test_builtin_payoff_pure_equilibria():
    sol_a = solve_zero_sum(np.array(pmvi.PAYOFF_A))
    assert sol_a.row_strategy == pytest.approx([0.0, 1.0, 0.0], abs=1e-9)
    assert sol_a.col_strategy == pytest.approx([0.0, 1.0, 0.0], abs=1e-9)
    sol_b = solve_zero_sum(np.array(pmvi.PAYOFF_B))
    assert sol_b.row_strategy == pytest.approx([0.0, 0.0, 1.0], abs=1e-9)
    assert sol_b.col_strategy == pytest.approx([0.0, 0.0, 1.0], abs=1e-9)


def test_cyclic_equilibrium_is_uniform():
    sol = solve_zero_sum(np.array(pmvi.PAYOFF_CYCLIC))
    assert sol.row_strategy == pytest.approx([1 / 3] * 3, abs=1e-9)
    assert sol.col_strategy == pytest.approx([1 / 3] * 3, abs=1e-9)


def test_mixed_payoff_equilibrium_fully_mixed():
    x, y, v = exact_matrix_equilibrium(pmvi.PAYOFF_MIXED)
    assert min(x) > 0 and min(y) > 0  # interior by construction
    sol = solve_zero_sum(np.array(pmvi.PAYOFF_MIXED))
    assert sol.row_strategy == pytest.approx([float(f) for f in x], abs=1e-9)
    assert sol.col_strategy == pytest.approx([float(f) for f in y], abs=1e-9)


def test_oracle_agreement_small_integer_matrices():
    rng = np.random.default_rng(42)
    for _ in range(500):
        matrix = rng.integers(-1, 2, size=(3, 3)).astype(float)
        assert solve_zero_sum(matrix).value == pytest.approx(float(exact_matrix_value(matrix)), abs=TOL)


def test_oracle_agreement_rectangular_floats():
    rng = np.random.default_rng(7)
    for _ in range(100):
        shape = rng.choice([(2, 5), (5, 2), (3, 4), (4, 4)])
        matrix = rng.uniform(-2.0, 2.0, size=tuple(shape))
        assert solve_zero_sum(matrix).value == pytest.approx(float(exact_matrix_value(matrix)), abs=TOL)


def test_shift_scale_equivariance():
    rng = np.random.default_rng(11)
    for _ in range(50):
        matrix = rng.uniform(-1.0, 1.0, size=(3, 3))
        a, b = rng.uniform(0.1, 3.0), rng.uniform(-2.0, 2.0)
        assert solve_zero_sum(a * matrix + b).value == pytest.approx(
            a * solve_zero_sum(matrix).value + b, abs=1e-8
        )


def test_non_expansiveness_in_payoffs():
    # |value(M) - value(M')| <= max |M - M'| (plus solver tolerance)
    rng = np.random.default_rng(3)
    for _ in range(200):
        matrix = rng.uniform(-1.0, 1.0, size=(3, 3))
        noise = rng.uniform(-0.3, 0.3, size=(3, 3))
        dv = abs(solve_zero_sum(matrix + noise).value - solve_zero_sum(matrix).value)
        assert dv <= np.abs(noise).max() + 2 * TOL


def test_exploitability_certificate_matches_recomputation():
    rng = np.random.default_rng(5)
    matrix = rng.uniform(-1.0, 1.0, size=(4, 4))
    sol = solve_zero_sum(matrix)
    gap = best_pure_response_gap(matrix, sol.row_strategy, sol.col_strategy)
    assert gap == pytest.approx(sol.exploitability, abs=1e-12)
    assert gap <= TOL


def test_strategies_are_clean_simplex_points():
    rng = np.random.default_rng(9)
    for _ in range(100):
        matrix = rng.uniform(-5.0, 5.0, size=(3, 3))
        sol = solve_zero_sum(matrix)
        for strat in (sol.row_strategy, sol.col_strategy):
            assert strat.min() >= 0.0  # exact: negative dust is scrubbed
            assert abs(strat.sum() - 1.0) <= 1e-12


@settings(max_examples=150, deadline=None)
@given(
    arrays(
        np.float64,
        st.tuples(st.integers(1, 5), st.integers(1, 5)),
        elements=st.floats(-5, 5, allow_nan=False, allow_infinity=False, width=32),
    )
)
# Matrices on which the pair read from the final tableau missed the tolerance
# (exploitability 1.4e-9 and 2.1e-7); the final basis solved afresh meets it.
@example(matrix=np.array([[-2.0, 0.0, 0.0, 0.0], [1.0, 0.0, -5.960464477539063e-08, -1.0]]))
@example(matrix=np.array([[2.0, 0.0, E32, E32], [-4.0, E32, E32, E32], [E32, 1.0, E32, E32], [E32, E32, E32, E32]]))
def test_equilibrium_properties_hold_for_arbitrary_matrices(matrix):
    sol = solve_zero_sum(matrix)
    assert matrix.min() - 1e-9 <= sol.value <= matrix.max() + 1e-9
    assert sol.exploitability <= TOL
    # value is between the pure security levels
    assert np.max(np.min(matrix, axis=1)) - 1e-9 <= sol.value
    assert sol.value <= np.min(np.max(matrix, axis=0)) + 1e-9


def test_tight_tolerance_is_certified_not_assumed():
    # a solve that succeeds must hand back strategies meeting its own tol
    matrix = np.array(pmvi.PAYOFF_CYCLIC)
    sol = solve_zero_sum(matrix, tol=1e-12)
    assert sol.exploitability <= 1e-12


def test_rejects_bad_inputs():
    with pytest.raises(ConfigError):
        solve_zero_sum(np.zeros((0, 2)))
    with pytest.raises(ConfigError):
        solve_zero_sum(np.array([1.0, 2.0]))
    with pytest.raises(ConfigError):
        solve_zero_sum(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    # finite entries whose shift to >= 1 overflows float64
    with pytest.raises(ConfigError, match=r"payoff entries span \[-1.7976931348623157e\+308, "):
        solve_zero_sum([[-1.7976931348623157e308]])
    with pytest.raises(ConfigError, match=r"payoff entries span \[-1e\+308, 1e\+308\]"):
        solve_zero_sum([[1e308, -1e308]])
    # finite shifted entries spread too wide for the simplex's pivot threshold
    for matrix in ([[1.7976931348623157e308, 0.0]], [[1e200, 0.0]]):
        with pytest.raises(ConfigError, match=r"payoff entries span \[0.0, "):
            solve_zero_sum(matrix)
    with pytest.raises(ConfigError):
        solve_zero_sum(np.eye(2), tol=0.0)


@pytest.mark.parametrize("matrix,value", [([[1e160, 0.0], [0.0, 1e160]], 5e159), ([[1e10, 0.0]], 0.0)])
def test_wide_matrices_that_pivot_still_solve(matrix, value):
    assert solve_zero_sum(matrix).value == pytest.approx(value, rel=1e-12)


def test_solver_error_is_invariant_error():
    assert issubclass(SolverError, pmvi.InvariantError)
