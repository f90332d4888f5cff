"""Dataset collection, counting statistics, validation, serialization."""

import json

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import pmvi
from pmvi import (
    ConfigError,
    InvariantError,
    MarkovPolicy,
    OfflineDataset,
    balanced_schedule,
    collect_behavior,
    collect_predetermined,
    count_stats,
    load_dataset,
    save_dataset,
    validate_dataset,
)
from pmvi.cli import main


@pytest.fixture()
def three_state():
    return pmvi.three_state_game()


def uniform_pair(game):
    return (
        MarkovPolicy.uniform(game, 1),
        MarkovPolicy.uniform(game, 2),
    )


class TestCollectBehavior:
    def test_shapes_and_validity(self, three_state):
        p1, p2 = uniform_pair(three_state)
        data = collect_behavior(three_state, p1, p2, 50, np.random.default_rng(0))
        assert (data.k, data.horizon) == (50, 3)
        assert data.provenance == "behavior"
        validate_dataset(three_state, data)

    def test_same_seed_same_trajectories(self, three_state):
        p1, p2 = uniform_pair(three_state)
        d1 = collect_behavior(three_state, p1, p2, 40, np.random.default_rng(7))
        d2 = collect_behavior(three_state, p1, p2, 40, np.random.default_rng(7))
        for name in ("states", "actions_p1", "actions_p2", "rewards", "next_states"):
            assert np.array_equal(getattr(d1, name), getattr(d2, name))

    def test_player_order_enforced(self, three_state):
        p1, p2 = uniform_pair(three_state)
        with pytest.raises(ConfigError):
            collect_behavior(three_state, p2, p1, 5, np.random.default_rng(0))

    def test_negative_k_rejected(self, three_state):
        p1, p2 = uniform_pair(three_state)
        with pytest.raises(ConfigError):
            collect_behavior(three_state, p1, p2, -1, np.random.default_rng(0))

    def test_empty_dataset_is_fine(self, three_state):
        p1, p2 = uniform_pair(three_state)
        data = collect_behavior(three_state, p1, p2, 0, np.random.default_rng(0))
        assert data.k == 0
        validate_dataset(three_state, data)
        assert count_stats(three_state, data).sum() == 0

    def test_first_actions_follow_uniform_policy(self):
        game = pmvi.cyclic_bandit()
        p1, p2 = uniform_pair(game)
        data = collect_behavior(game, p1, p2, 9000, np.random.default_rng(3))
        counts = np.bincount(data.actions_p1[:, 0], minlength=3)
        assert scipy.stats.chisquare(counts).pvalue > 1e-3

    def test_next_states_follow_transition(self, three_state):
        p1, p2 = uniform_pair(three_state)
        data = collect_behavior(three_state, p1, p2, 80_000, np.random.default_rng(123))
        cell = (data.actions_p1[:, 0] == 1) & (data.actions_p2[:, 0] == 0)
        counts = np.bincount(data.next_states[cell, 0], minlength=3)
        expected = three_state.transition[0, 0, 1, 0] * cell.sum()
        assert scipy.stats.chisquare(counts, expected).pvalue > 1e-3

    def test_policy_shape_mismatch(self, three_state):
        small = MarkovPolicy.uniform(pmvi.cyclic_bandit(), 1)
        _, p2 = uniform_pair(three_state)
        with pytest.raises(ConfigError):
            collect_behavior(three_state, small, p2, 5, np.random.default_rng(0))


class TestCollectPredetermined:
    def test_schedule_is_respected(self):
        game = pmvi.build_game(0.5, 0.5)
        schedule = balanced_schedule(20, 3, 3)
        data = collect_predetermined(game, schedule, np.random.default_rng(1))
        assert np.array_equal(data.actions_p1[:, 0], schedule[:, 0])
        assert np.array_equal(data.actions_p2[:, 0], schedule[:, 1])
        # filler pair after the first step
        assert np.all(data.actions_p1[:, 1:] == 0)
        assert np.all(data.actions_p2[:, 1:] == 0)
        assert data.provenance == "predetermined"
        validate_dataset(game, data)

    def test_bad_schedule_shape(self, three_state):
        with pytest.raises(ConfigError):
            collect_predetermined(three_state, np.zeros((4, 3), dtype=int), np.random.default_rng(0))

    def test_out_of_range_schedule(self, three_state):
        schedule = np.array([[0, 0], [5, 0]])
        with pytest.raises(ConfigError):
            collect_predetermined(three_state, schedule, np.random.default_rng(0))


class TestBalancedSchedule:
    def test_counts_within_one(self):
        schedule = balanced_schedule(100, 3, 3)
        pairs = schedule[:, 0] * 3 + schedule[:, 1]
        counts = np.bincount(pairs, minlength=9)
        assert counts.max() - counts.min() <= 1
        assert counts.sum() == 100

    def test_rectangular(self):
        schedule = balanced_schedule(12, 3, 2)
        assert schedule.shape == (12, 2)
        pairs = schedule[:, 0] * 2 + schedule[:, 1]
        assert np.array_equal(np.bincount(pairs, minlength=6), np.full(6, 2))

    def test_row_major_order(self):
        schedule = balanced_schedule(4, 2, 2)
        assert np.array_equal(schedule, [[0, 0], [0, 1], [1, 0], [1, 1]])

    def test_empty(self):
        assert balanced_schedule(0, 3).shape == (0, 2)
        with pytest.raises(ConfigError):
            balanced_schedule(-1, 3)

    @pytest.mark.filterwarnings("error")  # no divide-by-zero on the way to the error
    @pytest.mark.parametrize("n_actions", [(2, 0), (0, 3), (-2, 3)])
    def test_rejects_action_counts_below_one(self, n_actions):
        with pytest.raises(ConfigError, match="action counts must be >= 1"):
            balanced_schedule(4, *n_actions)


class TestCountStats:
    def test_totals_and_margins(self, three_state):
        p1, p2 = uniform_pair(three_state)
        data = collect_behavior(three_state, p1, p2, 200, np.random.default_rng(5))
        counts = count_stats(three_state, data)
        assert counts.sum() == 200
        assert np.array_equal(counts, np.bincount(data.actions_p1[:, 0], minlength=2))


def _tampered(data, **overrides):
    fields = {
        name: np.array(getattr(data, name))
        for name in ("states", "actions_p1", "actions_p2", "rewards", "next_states")
    }
    fields.update(overrides)
    return OfflineDataset(**fields, provenance=data.provenance)


class TestValidateDataset:
    def test_horizon_mismatch_is_config_error(self, three_state):
        game = pmvi.cyclic_bandit()
        p1, p2 = uniform_pair(game)
        data = collect_behavior(game, p1, p2, 5, np.random.default_rng(0))
        with pytest.raises(ConfigError, match="horizon"):
            validate_dataset(three_state, data)

    def test_wrong_initial_state(self, three_state):
        p1, p2 = uniform_pair(three_state)
        data = collect_behavior(three_state, p1, p2, 5, np.random.default_rng(0))
        states = np.array(data.states)
        states[:, 0] = 1
        with pytest.raises(InvariantError, match="initial state"):
            validate_dataset(three_state, _tampered(data, states=states))

    def test_discontinuity(self, three_state):
        p1, p2 = uniform_pair(three_state)
        data = collect_behavior(three_state, p1, p2, 5, np.random.default_rng(0))
        states = np.array(data.states)
        states[:, 1] = (states[:, 1] + 1) % 3
        with pytest.raises(InvariantError, match="discontinuity"):
            validate_dataset(three_state, _tampered(data, states=states))

    def test_reward_mismatch(self, three_state):
        p1, p2 = uniform_pair(three_state)
        data = collect_behavior(three_state, p1, p2, 5, np.random.default_rng(0))
        rewards = np.array(data.rewards)
        rewards[0, 0] += 0.5
        with pytest.raises(InvariantError, match="rewards disagree"):
            validate_dataset(three_state, _tampered(data, rewards=rewards))

    def test_impossible_transition(self):
        game = pmvi.build_game(0.5, 0.5)
        # one hand-built episode: start -(0,0)-> win, then win absorbing
        r = game.reward
        data = OfflineDataset(
            states=[[0, 1, 1]],
            actions_p1=[[0, 0, 0]],
            actions_p2=[[0, 0, 0]],
            rewards=[[r[0, 0, 0, 0], r[1, 1, 0, 0], r[2, 1, 0, 0]]],
            next_states=[[1, 1, 1]],
        )
        validate_dataset(game, data)
        broken = _tampered(data, next_states=np.array([[1, 1, 2]]))
        with pytest.raises(InvariantError, match="probability zero"):
            validate_dataset(game, broken)

    def test_out_of_range_action(self, three_state):
        p1, p2 = uniform_pair(three_state)
        data = collect_behavior(three_state, p1, p2, 5, np.random.default_rng(0))
        acts = np.array(data.actions_p1)
        acts[0, 0] = 9
        with pytest.raises(InvariantError, match="action index"):
            validate_dataset(three_state, _tampered(data, actions_p1=acts))


class TestSerialization:
    def test_round_trip_exact(self, three_state, tmp_path):
        p1, p2 = uniform_pair(three_state)
        data = collect_behavior(three_state, p1, p2, 25, np.random.default_rng(11))
        path = tmp_path / "data.jsonl"
        save_dataset(data, path, seed=11)
        loaded = load_dataset(path)
        for name in ("states", "actions_p1", "actions_p2", "rewards", "next_states"):
            assert np.array_equal(getattr(loaded, name), getattr(data, name)), name
        assert loaded.provenance == "behavior"
        validate_dataset(three_state, loaded)

    def test_resave_is_byte_identical(self, three_state, tmp_path):
        p1, p2 = uniform_pair(three_state)
        data = collect_behavior(three_state, p1, p2, 10, np.random.default_rng(2))
        first, second = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_dataset(data, first, seed=2)
        save_dataset(load_dataset(first), second, seed=2)
        assert first.read_bytes() == second.read_bytes()

    def test_meta_line_records_seed_and_provenance(self, tmp_path):
        game = pmvi.cyclic_bandit()
        data = collect_predetermined(game, balanced_schedule(9, 3, 3), np.random.default_rng(4))
        path = tmp_path / "sched.jsonl"
        save_dataset(data, path, seed=4)
        meta = json.loads(path.read_text().splitlines()[0])["meta"]
        assert meta == {"k": 9, "horizon": 1, "provenance": "predetermined", "seed": 4}
        assert load_dataset(path).provenance == "predetermined"

    def test_missing_meta_rejected(self, tmp_path):
        path = tmp_path / "broken.jsonl"
        path.write_text('{"tau": 0, "steps": []}\n')
        with pytest.raises(ConfigError, match="meta"):
            load_dataset(path)

    def test_wrong_trajectory_count_rejected(self, three_state, tmp_path):
        p1, p2 = uniform_pair(three_state)
        data = collect_behavior(three_state, p1, p2, 5, np.random.default_rng(0))
        path = tmp_path / "short.jsonl"
        save_dataset(data, path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(ConfigError, match="announces"):
            load_dataset(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_dataset(tmp_path / "absent.jsonl")


def test_dataset_field_shape_mismatch():
    with pytest.raises(ConfigError):
        OfflineDataset(
            states=np.zeros((2, 3), dtype=int),
            actions_p1=np.zeros((2, 2), dtype=int),
            actions_p2=np.zeros((2, 3), dtype=int),
            rewards=np.zeros((2, 3)),
            next_states=np.zeros((2, 3), dtype=int),
        )
    with pytest.raises(ConfigError):
        OfflineDataset(
            states=np.zeros((2, 3), dtype=int),
            actions_p1=np.zeros((2, 3), dtype=int),
            actions_p2=np.zeros((2, 3), dtype=int),
            rewards=np.zeros((2, 3)),
            next_states=np.zeros((2, 3), dtype=int),
            provenance="mystery",
        )


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_reward_rejected(bad):
    rewards = np.zeros((2, 3))
    rewards[1, 2] = bad
    with pytest.raises(ConfigError, match="rewards must be finite; trajectory 1 step 2"):
        OfflineDataset(
            states=np.zeros((2, 3), dtype=int),
            actions_p1=np.zeros((2, 3), dtype=int),
            actions_p2=np.zeros((2, 3), dtype=int),
            rewards=rewards,
            next_states=np.zeros((2, 3), dtype=int),
        )


@pytest.mark.parametrize("field", ["states", "actions_p1", "actions_p2", "next_states"])
@pytest.mark.parametrize(
    "bad,dtype",
    [([[1.7]], "float64"), ([[1.0]], "float64"), ([[True]], "bool"), ([[object()]], "object")],
)
def test_non_integer_index_rejected(field, bad, dtype):
    columns = {name: [[0]] for name in ("states", "actions_p1", "actions_p2", "next_states")}
    columns[field] = bad
    with pytest.raises(ConfigError, match=f"{field} must hold integers, got dtype {dtype}"):
        OfflineDataset(rewards=[[0.0]], **columns)


def test_caller_arrays_stay_writeable_and_unshared():
    columns = {name: np.zeros((2, 3), dtype=np.int64) for name in ("states", "actions_p1", "actions_p2", "next_states")}
    rewards = np.zeros((2, 3))
    data = OfflineDataset(rewards=rewards, **columns)
    for name, arr in (*columns.items(), ("rewards", rewards)):
        assert arr.flags.writeable and not np.shares_memory(arr, getattr(data, name))
        assert not getattr(data, name).flags.writeable


def test_empty_dataset_accepts_any_dtype():
    empty = np.empty((0, 3))
    data = OfflineDataset(states=empty, actions_p1=empty, actions_p2=empty, rewards=empty, next_states=empty)
    assert data.k == 0 and data.states.dtype == np.int64


FIELDS = ("states", "actions_p1", "actions_p2", "rewards", "next_states")


@st.composite
def datasets(draw):
    """Arbitrary well-formed datasets: any K (0 included), H, provenance and
    finite float64 rewards, subnormals and -0.0 included."""
    k = draw(st.integers(0, 12))
    horizon = draw(st.integers(1, 4))
    ints = arrays(np.int64, (k, horizon), elements=st.integers(-(2**63), 2**63 - 1))
    floats = arrays(np.float64, (k, horizon), elements=st.floats(allow_nan=False, allow_infinity=False))
    return OfflineDataset(
        states=draw(ints),
        actions_p1=draw(ints),
        actions_p2=draw(ints),
        rewards=draw(floats),
        next_states=draw(ints),
        provenance=draw(st.sampled_from(["behavior", "predetermined"])),
    )


seeds = st.one_of(st.none(), st.integers(0, 2**32 - 1))


def reference_jsonl(dataset, seed):
    """The per-record ``json.dumps`` rendering the file format is defined by."""
    meta = {"k": dataset.k, "horizon": dataset.horizon, "provenance": dataset.provenance, "seed": seed}
    lines = [json.dumps({"meta": meta})]
    for tau in range(dataset.k):
        steps = [
            {
                "h": h,
                "s": int(dataset.states[tau, h]),
                "a": int(dataset.actions_p1[tau, h]),
                "b": int(dataset.actions_p2[tau, h]),
                "r": float(dataset.rewards[tau, h]),
                "s_next": int(dataset.next_states[tau, h]),
            }
            for h in range(dataset.horizon)
        ]
        lines.append(json.dumps({"tau": tau, "steps": steps}))
    return "\n".join(lines) + "\n"


class TestSerializationProperties:
    @settings(max_examples=80, deadline=None)
    @given(datasets(), seeds)
    def test_round_trip_is_array_equal(self, tmp_path_factory, data, seed):
        path = tmp_path_factory.mktemp("rt") / "data.jsonl"
        save_dataset(data, path, seed=seed)
        loaded = load_dataset(path)
        assert loaded.provenance == data.provenance
        for name in FIELDS:
            got, want = getattr(loaded, name), getattr(data, name)
            assert got.dtype == want.dtype and got.shape == want.shape, name
            # bitwise, so -0.0 and every float's last digit survive too
            assert got.tobytes() == want.tobytes(), name

    @settings(max_examples=80, deadline=None)
    @given(datasets(), seeds)
    def test_bytes_match_reference_writer(self, tmp_path_factory, data, seed):
        path = tmp_path_factory.mktemp("bytes") / "data.jsonl"
        save_dataset(data, path, seed=seed)
        assert path.read_bytes() == reference_jsonl(data, seed).encode()

    def test_collected_dataset_matches_reference_writer(self, three_state, tmp_path):
        p1, p2 = uniform_pair(three_state)
        data = collect_behavior(three_state, p1, p2, 300, np.random.default_rng(9))
        path = tmp_path / "data.jsonl"
        save_dataset(data, path, seed=9)
        assert path.read_bytes() == reference_jsonl(data, 9).encode()


def _set_step(tau, h, key, value):
    def mutate(meta, trajectories):
        trajectories[tau]["steps"][h][key] = value
    return mutate


def _set_meta(key, value):
    def mutate(meta, trajectories):
        meta["meta"][key] = value
    return mutate


def _drop_meta(key):
    def mutate(meta, trajectories):
        meta["meta"].pop(key)
    return mutate


def _set_tau(tau, value):
    def mutate(meta, trajectories):
        trajectories[tau]["tau"] = value
    return mutate


def _drop_step_key(key):
    def mutate(meta, trajectories):
        trajectories[1]["steps"][2].pop(key)
    return mutate


def _meta_not_object(meta, trajectories):
    meta["meta"] = [3, 3]


def _swap_trajectories(meta, trajectories):
    trajectories[0], trajectories[1] = trajectories[1], trajectories[0]


def _swap_steps(meta, trajectories):
    steps = trajectories[2]["steps"]
    steps[0], steps[1] = steps[1], steps[0]


def _drop_last_step(meta, trajectories):
    trajectories[1]["steps"].pop()


def _extra_step(meta, trajectories):
    trajectories[1]["steps"].append(dict(trajectories[1]["steps"][-1], h=3))


def _drop_record_key(key):
    def mutate(meta, trajectories):
        trajectories[2].pop(key)
    return mutate


MALFORMED = {
    "meta-not-object": (_meta_not_object, "meta record is not an object"),
    "meta-lacks-k": (_drop_meta("k"), "meta record lacks 'k'"),
    "meta-lacks-horizon": (_drop_meta("horizon"), "meta record lacks 'horizon'"),
    "meta-negative-k": (_set_meta("k", -1), "meta k must be a nonnegative integer"),
    "meta-float-k": (_set_meta("k", 3.0), "meta k must be a nonnegative integer"),
    "meta-string-k": (_set_meta("k", "3"), "meta k must be a nonnegative integer"),
    "meta-negative-horizon": (_set_meta("horizon", -3), "meta horizon must be a nonnegative integer"),
    "meta-bool-horizon": (_set_meta("horizon", True), "meta horizon must be a nonnegative integer"),
    "tau-duplicated": (_set_tau(2, 1), "trajectory 2 has tau 1, expected 2"),
    "tau-negative": (_set_tau(2, -1), "trajectory 2 has tau -1, expected 2"),
    "tau-out-of-order": (_swap_trajectories, "trajectory 0 has tau 1, expected 0"),
    "tau-float": (_set_tau(1, 1.0), "tau value 1.0 is not an integer"),
    "tau-missing": (_drop_record_key("tau"), "missing key 'tau'"),
    "steps-missing": (_drop_record_key("steps"), "missing key 'steps'"),
    "h-duplicated": (_set_step(0, 2, "h", 1), r"trajectory 0 has h \[0, 1, 1\], expected \[0, 1, 2\]"),
    "h-out-of-order": (_swap_steps, r"trajectory 2 has h \[1, 0, 2\]"),
    "h-out-of-range": (_set_step(1, 0, "h", 3), r"trajectory 1 has h \[3, 1, 2\]"),
    "h-string": (_set_step(1, 0, "h", "0"), "h value '0' is not an integer"),
    "too-few-steps": (_drop_last_step, "trajectory 1 has 2 steps, expected 3"),
    "too-many-steps": (_extra_step, "trajectory 1 has 4 steps, expected 3"),
    "step-lacks-s": (_drop_step_key("s"), "missing key 's'"),
    "step-lacks-r": (_drop_step_key("r"), "missing key 'r'"),
    "step-lacks-s_next": (_drop_step_key("s_next"), "missing key 's_next'"),
    "state-float": (_set_step(0, 1, "s", 1.5), "s value 1.5 is not an integer"),
    "action-bool": (_set_step(0, 1, "a", True), "a value True is not an integer"),
    "state-too-large": (_set_step(0, 1, "s", 2**70), "s value out of range"),
    "reward-string": (_set_step(0, 1, "r", "0.5"), "r value '0.5' is not a number"),
    "reward-too-large": (_set_step(0, 1, "r", 10**400), "r value out of range"),
    "reward-nan": (_set_step(1, 1, "r", float("nan")), "rewards must be finite; trajectory 1 step 1"),
    "reward-inf": (_set_step(2, 0, "r", float("inf")), "rewards must be finite; trajectory 2 step 0"),
    "reward-neg-inf": (_set_step(0, 2, "r", float("-inf")), "rewards must be finite; trajectory 0 step 2"),
}


@pytest.fixture()
def valid_jsonl(three_state, tmp_path):
    """A three-state dataset file (K=3) that ``pmvi run`` accepts, parsed."""
    p1, p2 = uniform_pair(three_state)
    data = collect_behavior(three_state, p1, p2, 3, np.random.default_rng(0))
    path = tmp_path / "data.jsonl"
    save_dataset(data, path, seed=0)
    meta, *trajectories = map(json.loads, path.read_text().splitlines())
    return path, meta, trajectories


def test_valid_base_file_runs(valid_jsonl, capsys):
    path, _, _ = valid_jsonl
    assert main(["run", "--game", "three-state", "--dataset", str(path)]) == 0


@pytest.mark.parametrize("mutate,message", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_file_rejected(valid_jsonl, capsys, mutate, message):
    path, meta, trajectories = valid_jsonl
    mutate(meta, trajectories)
    path.write_text("".join(json.dumps(record) + "\n" for record in (meta, *trajectories)))
    with pytest.raises(ConfigError, match=message) as info:
        load_dataset(path)
    assert str(path) in str(info.value)
    assert main(["run", "--game", "three-state", "--dataset", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_undecodable_line_is_named(valid_jsonl):
    path, _, _ = valid_jsonl
    lines = path.read_text().splitlines()
    lines[2] = lines[2][:-1]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ConfigError, match="line 3"):
        load_dataset(path)


def test_binary_file_rejected(tmp_path):
    path = tmp_path / "data.jsonl"
    path.write_bytes(b'{"meta": \xff\xfe}\n')
    with pytest.raises(ConfigError, match="cannot read dataset file"):
        load_dataset(path)
