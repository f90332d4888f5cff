"""Command line interface: subcommands, exit codes, file outputs."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pmvi
from pmvi import cli
from pmvi.cli import build_parser, main

RUN_KEYS = {
    "game", "k", "horizon", "dim", "beta", "c", "v_lower", "v_upper", "v_star",
    "v_max_br", "v_min_br", "sub", "subb", "bound_rhs", "sandwich_ok", "ru",
    "ru_max_side", "ru_min_side", "lambda_min",
}


def call(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSolveMatrix:
    def test_inline_matrix(self, capsys):
        code, out, _ = call(
            capsys, "solve-matrix", "--matrix", "[[1,-1],[-1,1]]"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["row_strategy"] == pytest.approx([0.5, 0.5], abs=1e-9)
        assert doc["col_strategy"] == pytest.approx([0.5, 0.5], abs=1e-9)
        assert doc["value"] == pytest.approx(0.0, abs=1e-9)
        assert doc["exploitability"] <= 1e-9

    def test_matrix_file(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        path.write_text("[[2, 3], [0, 1]]")
        code, out, _ = call(capsys, "solve-matrix", "--file", str(path))
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(2.0, abs=1e-9)

    def test_source_must_be_exactly_one(self, capsys, tmp_path):
        code, _, err = call(capsys, "solve-matrix")
        assert code == 2 and "error:" in err
        path = tmp_path / "m.json"
        path.write_text("[[0]]")
        code, _, err = call(
            capsys, "solve-matrix", "--matrix", "[[0]]", "--file", str(path)
        )
        assert code == 2 and "exactly one" in err

    def test_bad_payloads(self, capsys):
        code, _, err = call(capsys, "solve-matrix", "--matrix", "[[1,")
        assert code == 2 and "error:" in err
        code, _, err = call(capsys, "solve-matrix", "--matrix", "[[1,2],[NaN,0]]")
        assert code == 2
        # finite entries whose shift to >= 1 overflows float64, or spreads too wide to pivot on
        for payload in ("[[-1.7976931348623157e308]]", "[[1e308,-1e308]]", "[[1.7976931348623157e308, 0]]"):
            code, out, err = call(capsys, "solve-matrix", "--matrix", payload)
            assert code == 2 and out == ""
            assert "payoff entries span" in err and "Warning" not in err


    @pytest.mark.parametrize("payload", ["[[1,2],[3]]", '"abc"', '{"a": 1}'])
    def test_non_numeric_or_ragged_matrix(self, capsys, payload):
        code, _, err = call(capsys, "solve-matrix", "--matrix", payload)
        assert code == 2 and "payoff matrix" in err

    @pytest.mark.parametrize(
        "payload,leaf",
        [('[[0,1],[0.5,"1"]]', 'payoff matrix entry [1, 1] is "1"'), ("[[true,false]]", "payoff matrix entry [0, 0] is true")],
    )
    def test_non_number_leaf_is_exit_2_naming_it(self, capsys, payload, leaf):
        # numpy would read both as numbers
        code, out, err = call(capsys, "solve-matrix", "--matrix", payload)
        assert code == 2 and out == ""
        assert f"{leaf}, not a number" in err

    def test_integer_beyond_float64_is_exit_2(self, capsys):
        code, out, err = call(capsys, "solve-matrix", "--matrix", "[[1" + "0" * 400 + "]]")
        assert code == 2 and out == ""
        assert "payoff matrix is not a rectangular numeric array" in err

    def test_constant_matrix_beyond_integer_precision(self, capsys):
        code, out, _ = call(capsys, "solve-matrix", "--matrix", "[[1e17,1e17],[1e17,1e17]]")
        assert code == 0
        assert json.loads(out)["value"] == 1e17

    def test_nan_tol_is_exit_2_naming_the_flag(self, capsys):
        code, out, err = call(capsys, "solve-matrix", "--matrix", "[[0,1],[1,0]]", "--tol", "nan")
        assert code == 2 and out == ""
        assert "tol must be positive" in err


class TestGenerateData:
    def test_writes_loadable_dataset(self, capsys, tmp_path):
        out_path = tmp_path / "d.jsonl"
        code, out, _ = call(
            capsys, "generate-data", "--game", "three-state", "--k", "12",
            "--seed", "3", "--out", str(out_path),
        )
        assert code == 0
        doc = json.loads(out)
        assert doc == {"out": str(out_path), "k": 12, "horizon": 3, "seed": 3}
        data = pmvi.load_dataset(out_path)
        pmvi.validate_dataset(pmvi.three_state_game(), data)
        assert data.k == 12

    def test_same_seed_same_bytes(self, capsys, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for path in (a, b):
            code, _, _ = call(
                capsys, "generate-data", "--game", "bandit-mixed", "--k", "40",
                "--seed", "7", "--out", str(path),
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_unknown_game(self, capsys, tmp_path):
        code, _, err = call(
            capsys, "generate-data", "--game", "bandit-z", "--k", "5",
            "--out", str(tmp_path / "x.jsonl"),
        )
        assert code == 2 and "unknown game" in err


class TestRun:
    def test_fresh_collection_reports_everything(self, capsys):
        code, out, _ = call(
            capsys, "run", "--game", "three-state", "--k", "60", "--seed", "1",
        )
        assert code == 0
        doc = json.loads(out)
        assert set(doc) == RUN_KEYS
        assert doc["c"] == 1.0
        assert doc["dim"] == 12
        assert doc["v_lower"] <= doc["v_star"] + 1e-8
        assert doc["v_star"] <= doc["v_upper"] + 1e-8
        assert len(doc["lambda_min"]) == 3

    def test_dataset_file_input(self, capsys, tmp_path):
        data_path = tmp_path / "d.jsonl"
        call(
            capsys, "generate-data", "--game", "bandit-mixed", "--k", "80",
            "--seed", "2", "--out", str(data_path),
        )
        code, out, _ = call(
            capsys, "run", "--game", "bandit-mixed", "--dataset", str(data_path),
            "--beta", "0.5",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["k"] == 80
        assert doc["beta"] == 0.5
        assert doc["c"] is None
        assert doc["lambda_min"] is None  # behavior policy unknown for files

    def test_stdout_is_deterministic(self, capsys):
        args = ("run", "--game", "bandit-mixed", "--k", "50", "--seed", "4", "--beta", "0.5")
        _, out1, _ = call(capsys, *args)
        _, out2, _ = call(capsys, *args)
        assert out1 == out2

    def test_dump_holds_full_tables(self, capsys, tmp_path):
        dump = tmp_path / "full.json"
        code, _, _ = call(
            capsys, "run", "--game", "bandit-cyclic", "--k", "30", "--dump", str(dump),
        )
        assert code == 0
        doc = json.loads(dump.read_text())
        assert set(doc) >= {"beta", "gram", "q_lower", "q_upper", "policy_max", "policy_min"}
        assert np.asarray(doc["q_lower"]).shape == (1, 1, 3, 3)

    def test_hard_instance_spec(self, capsys):
        code, out, _ = call(
            capsys, "run", "--game", "hard:p1=0.6,p2=0.4,actions=3,horizon=4", "--k", "50", "--beta", "0.3",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["dim"] == 11 and doc["horizon"] == 4

    def test_needs_a_data_source(self, capsys):
        code, _, err = call(capsys, "run", "--game", "bandit-cyclic")
        assert code == 2 and "--dataset or --k" in err

    @pytest.mark.parametrize(
        "field,value",
        [
            ("initial_state", "abc"),
            ("initial_state", 1.7),
            ("initial_state", True),
            ("reward", "x"),
            ("reward", [[0.5, 0.5], [0.5]]),
            ("states", 5),
            ("horizon", 7),
        ],
    )
    def test_malformed_game_file_is_exit_2(self, capsys, tmp_path, field, value):
        doc = pmvi.game_to_dict(pmvi.three_state_game())
        doc[field] = value
        path = tmp_path / "game.json"
        path.write_text(json.dumps(doc))
        code, out, err = call(capsys, "run", "--game", str(path), "--k", "10")
        assert code == 2 and out == ""
        assert field in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "field,index,leaf,shown",
        [
            ("reward", (0, 0, 0, 0), "0.5926326726834205", 'reward entry [0, 0, 0, 0] is "0.5926326726834205"'),
            ("features", (), True, "features entry [] is true"),
            ("transition", (1, 2, 0, 1, 0), True, "transition entry [1, 2, 0, 1, 0] is true"),
            ("mu", (2, 1, 5), None, "mu entry [2, 1, 5] is null"),
            ("theta", (1,), [0.5] * 11, "theta entry [0] is [0."),  # 11 of 12 entries: ragged
        ],
    )
    def test_game_file_numbers_must_be_json_numbers(self, capsys, tmp_path, field, index, leaf, shown):
        # numpy would read each of these as a number (or a nan) or fail without naming the entry
        doc = pmvi.game_to_dict(pmvi.three_state_game())
        if index:
            parent = doc[field]
            for i in index[:-1]:
                parent = parent[i]
            parent[index[-1]] = leaf
        else:
            doc[field] = leaf
        path = tmp_path / "game.json"
        path.write_text(json.dumps(doc))
        code, out, err = call(capsys, "run", "--game", str(path), "--k", "50")
        assert code == 2 and out == ""
        assert shown in err and "not a number" in err

    @pytest.mark.parametrize(
        "flag,value,named",
        [
            ("--beta", "nan", "beta must be finite"),
            ("--beta", "inf", "beta must be finite"),
            ("--c", "nan", "c must be positive and finite"),
            ("--c", "inf", "c must be positive and finite"),
            ("--c", "1e308", "is not finite at c=1e+308"),  # c is finite, the default beta is not
        ],
    )
    def test_non_finite_beta_or_c_is_exit_2_naming_the_flag(self, capsys, flag, value, named):
        code, out, err = call(capsys, "run", "--game", "three-state", "--k", "50", flag, value)
        assert code == 2 and out == ""
        assert named in err

    def test_bad_flag_is_rejected_before_collection(self, capsys, monkeypatch):
        collections = []
        monkeypatch.setattr(cli, "collect_behavior", lambda *args: collections.append(args))
        code, out, err = call(capsys, "run", "--game", "three-state", "--k", "50", "--beta", "nan")
        assert code == 2 and out == "" and "beta must be finite" in err
        assert collections == []

    def test_cross_game_dataset_is_detected(self, capsys, tmp_path):
        data_path = tmp_path / "cyclic.jsonl"
        call(
            capsys, "generate-data", "--game", "bandit-cyclic", "--k", "30",
            "--seed", "0", "--out", str(data_path),
        )
        code, _, err = call(
            capsys, "run", "--game", "bandit-a", "--dataset", str(data_path),
            "--beta", "1.0",
        )
        assert code == 3 and "invariant violated" in err


class TestRateSweep:
    def test_csv_schema_and_summary(self, capsys, tmp_path):
        out_csv = tmp_path / "sweep.csv"
        code, out, _ = call(
            capsys, "rate-sweep", "--game", "bandit-mixed", "--k", "30,60",
            "--seeds", "2", "--beta", "0.5", "--out", str(out_csv),
        )
        assert code == 0
        lines = out_csv.read_text().splitlines()
        assert lines[0] == (
            "seed,K,beta,c,sub,subb,bound_rhs,sandwich_ok,"
            "ru,ru_max_side,ru_min_side,lambda_min_h1"
        )
        assert len(lines) == 5
        cells = [line.split(",") for line in lines[1:]]
        assert [row[1] for row in cells] == ["30", "30", "60", "60"]
        assert all(row[2] == "0.5" for row in cells)
        assert all(row[3] == "" for row in cells)  # c unused with explicit beta
        assert all(row[7] in ("0", "1") for row in cells)
        summary = json.loads(out)
        assert summary["k_values"] == [30, 60]
        assert summary["rows"] == 4
        assert summary["out"] == str(out_csv)
        assert isinstance(summary["slope"], float) or summary["degenerate"]

    def test_repeat_and_parallel_runs_are_byte_identical(self, capsys, tmp_path):
        paths = [tmp_path / f"s{i}.csv" for i in range(3)]
        jobs = ["1", "1", "2"]
        for path, job in zip(paths, jobs):
            code, _, _ = call(
                capsys, "rate-sweep", "--game", "bandit-mixed", "--k", "20,40",
                "--seeds", "2", "--beta", "0.5", "--jobs", job, "--out", str(path),
            )
            assert code == 0
        blobs = [p.read_bytes() for p in paths]
        assert blobs[0] == blobs[1] == blobs[2]

    def test_single_size_rejected(self, capsys, tmp_path):
        out_csv = tmp_path / "sweep.csv"
        code, _, err = call(
            capsys, "rate-sweep", "--game", "bandit-mixed", "--k", "50",
            "--seeds", "2", "--beta", "0.5", "--out", str(out_csv),
        )
        assert code == 2 and "two distinct" in err
        assert not out_csv.exists()  # rejected before any row runs

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_rejected(self, capsys, tmp_path, jobs):
        out_csv = tmp_path / "sweep.csv"
        code, _, err = call(
            capsys, "rate-sweep", "--game", "bandit-mixed", "--k", "20,40",
            "--seeds", "2", "--beta", "0.5", "--jobs", jobs, "--out", str(out_csv),
        )
        assert code == 2 and "--jobs" in err
        assert not out_csv.exists()

    def test_empty_seed_range_rejected(self, capsys):
        code, _, err = call(
            capsys, "rate-sweep", "--game", "bandit-mixed", "--k", "20,40",
            "--seeds", "0", "--beta", "0.5",
        )
        assert code == 2 and "seed" in err

    def test_bad_flag_is_rejected_before_the_game_is_loaded(self, capsys, tmp_path, monkeypatch):
        game_path = tmp_path / "g.json"
        pmvi.save_game(pmvi.mixed_bandit(), game_path)
        loads = []
        monkeypatch.setattr(cli, "load_game", lambda *args: loads.append(args))
        code, out, err = call(
            capsys, "rate-sweep", "--game", str(game_path), "--k", "20,40", "--seeds", "2", "--c", "nan",
        )
        assert code == 2 and out == "" and "c must be positive and finite" in err
        assert loads == []

    def test_flat_game_reports_degenerate_rate(self, capsys, tmp_path):
        # constant payoffs: every policy is optimal, the gap is exactly zero
        game_path = tmp_path / "flat.json"
        pmvi.save_game(pmvi.bandit_game(np.full((2, 2), 0.5)), game_path)
        code, out, _ = call(
            capsys, "rate-sweep", "--game", str(game_path), "--k", "10,20",
            "--seeds", "1", "--beta", "0.5",
        )
        assert code == 0
        summary = json.loads(out)
        assert summary["degenerate"] is True
        assert summary["slope"] is None
        assert summary["mean_sub"] == [0.0, 0.0]


    def test_json_game_is_loaded_once(self, capsys, tmp_path, monkeypatch):
        game_path = tmp_path / "g.json"
        pmvi.save_game(pmvi.mixed_bandit(), game_path)
        loads = []

        def counted(*args, **kwargs):
            loads.append(args)
            return pmvi.load_game(*args, **kwargs)

        monkeypatch.setattr(cli, "load_game", counted)
        code, out, _ = call(
            capsys, "rate-sweep", "--game", str(game_path), "--k", "20,40",
            "--seeds", "3", "--beta", "0.5",
        )
        assert code == 0 and json.loads(out)["rows"] == 6
        assert len(loads) == 1

    def test_exact_nash_is_solved_once_per_sweep(self, capsys, tmp_path, monkeypatch):
        solves = []

        def counted(*args, **kwargs):
            solves.append(args)
            return pmvi.exact_nash_values(*args, **kwargs)

        monkeypatch.setattr(cli, "exact_nash_values", counted)
        blobs = []
        for jobs in ("1", "2"):
            out_csv = tmp_path / f"jobs{jobs}.csv"
            code, out, _ = call(
                capsys, "rate-sweep", "--game", "bandit-mixed", "--k", "20,40",
                "--seeds", "3", "--beta", "0.5", "--jobs", jobs, "--out", str(out_csv),
            )
            assert code == 0 and json.loads(out)["rows"] == 6
            if jobs == "1":
                assert len(solves) == 1
            blobs.append(out_csv.read_bytes())
        # the shared Nash values reach the worker processes intact
        assert blobs[0] == blobs[1]

    def test_pool_never_outnumbers_the_rows(self, capsys, tmp_path, monkeypatch):
        sizes = []

        class InProcessPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", InProcessPool)
        blobs = []
        for jobs in ("5000", "1"):
            out_csv = tmp_path / f"jobs{jobs}.csv"
            code, _, _ = call(
                capsys, "rate-sweep", "--game", "bandit-mixed", "--k", "20,40",
                "--seeds", "1", "--beta", "0.5", "--jobs", jobs, "--out", str(out_csv),
            )
            assert code == 0
            blobs.append(out_csv.read_bytes())
        assert sizes == [2]  # two rows, two workers
        assert blobs[0] == blobs[1]

    def test_loaded_game_gives_the_builtin_rows(self, capsys, tmp_path):
        game_path = tmp_path / "g.json"
        pmvi.save_game(pmvi.mixed_bandit(), game_path)
        blobs = []
        for game, jobs in ((str(game_path), "1"), (str(game_path), "2"), ("bandit-mixed", "1")):
            out_csv = tmp_path / f"{len(blobs)}.csv"
            code, _, _ = call(
                capsys, "rate-sweep", "--game", game, "--k", "20,40",
                "--seeds", "2", "--beta", "0.5", "--jobs", jobs, "--out", str(out_csv),
            )
            assert code == 0
            blobs.append(out_csv.read_bytes())
        assert blobs[0] == blobs[1] == blobs[2]


class TestLowerBound:
    def test_csv_and_summary(self, capsys, tmp_path):
        out_csv = tmp_path / "lb.csv"
        code, out, _ = call(
            capsys, "lower-bound", "--k", "9", "--seeds", "2", "--beta", "0.5",
            "--out", str(out_csv),
        )
        assert code == 0
        lines = out_csv.read_text().splitlines()
        assert lines[0] == "game,seed,K,subb,ru,subb_over_ru,p_gap"
        assert len(lines) == 5
        games = [line.split(",")[0] for line in lines[1:]]
        assert games == ["one", "one", "two", "two"]
        for line in lines[1:]:
            cells = line.split(",")
            assert float(cells[3]) >= 0.0
            assert float(cells[4]) > 0.0
        summary = json.loads(out)
        assert summary["kl"] <= 0.5
        assert summary["k"] == 9
        assert summary["out"] == str(out_csv)

    def test_seed_spec_as_list(self, capsys):
        code, out, _ = call(
            capsys, "lower-bound", "--k", "9", "--seeds", "3,5", "--beta", "0.5",
        )
        assert code == 0
        assert json.loads(out)["k"] == 9

    def test_empty_seed_range_rejected(self, capsys):
        code, out, err = call(capsys, "lower-bound", "--k", "9", "--seeds", "0", "--beta", "0.5")
        assert code == 2 and out == ""
        assert "seed spec '0' gives no seeds" in err


# "TMP" stands for the test's temporary directory, which holds a dataset
# ``d.jsonl`` and no ``missing/`` subdirectory.
USAGE_ERRORS = {
    "dataset-and-k": ["run", "--game", "bandit-mixed", "--dataset", "TMP/d.jsonl", "--k", "50"],
    "dataset-and-seed": ["run", "--game", "bandit-mixed", "--dataset", "TMP/d.jsonl", "--seed", "5"],
    "run-negative-seed": ["run", "--game", "bandit-mixed", "--k", "50", "--seed", "-1"],
    "generate-negative-seed": [
        "generate-data", "--game", "bandit-mixed", "--k", "50", "--seed", "-2", "--out", "TMP/g.jsonl",
    ],
    "sweep-negative-seed": [
        "rate-sweep", "--game", "bandit-mixed", "--k", "20,40", "--seeds", "1,-3", "--beta", "0.5",
    ],
    "lower-bound-negative-seed": ["lower-bound", "--k", "9", "--seeds", "1,-3", "--beta", "0.5"],
    "generate-unwritable-out": [
        "generate-data", "--game", "bandit-mixed", "--k", "50", "--out", "TMP/missing/g.jsonl",
    ],
    "run-unwritable-dump": [
        "run", "--game", "bandit-mixed", "--k", "50", "--beta", "0.5", "--dump", "TMP/missing/run.json",
    ],
    "sweep-unwritable-out": [
        "rate-sweep", "--game", "bandit-mixed", "--k", "20,40", "--seeds", "1", "--beta", "0.5",
        "--out", "TMP/missing/s.csv",
    ],
    "lower-bound-unwritable-out": [
        "lower-bound", "--k", "9", "--seeds", "1", "--beta", "0.5", "--out", "TMP/missing/lb.csv",
    ],
    "hard-missing-p2": ["run", "--game", "hard:p1=0.6", "--k", "5"],
    "hard-unknown-field": ["run", "--game", "hard:p1=0.6,p2=0.4,p3=0.5", "--k", "5"],
    "hard-non-numeric": ["run", "--game", "hard:p1=high,p2=0.4", "--k", "5"],
    "hard-item-without-equals": ["run", "--game", "hard:p1=0.6,p2", "--k", "5"],
    "hard-repeated-key": ["run", "--game", "hard:p1=0.6,p2=0.4,p1=0.7", "--k", "5"],
    "hard-p1-out-of-range": ["run", "--game", "hard:p1=0.8,p2=0.4", "--k", "5"],
    # both are rejected before the features are allocated
    "hard-too-many-actions": ["run", "--game", "hard:p1=0.6,p2=0.4,actions=100000", "--k", "5"],
    "lower-bound-too-many-actions": ["lower-bound", "--k", "9", "--seeds", "1", "--actions", "100"],
}


@pytest.mark.parametrize("argv", USAGE_ERRORS.values(), ids=USAGE_ERRORS.keys())
def test_usage_error_is_exit_2(capsys, tmp_path, argv):
    code, _, _ = call(
        capsys, "generate-data", "--game", "bandit-mixed", "--k", "5", "--out", str(tmp_path / "d.jsonl")
    )
    assert code == 0
    code, out, err = call(capsys, *(arg.replace("TMP", str(tmp_path)) for arg in argv))
    assert code == 2 and out == ""
    assert "error:" in err and "Traceback" not in err
    assert not (tmp_path / "g.jsonl").exists()


class TestParser:
    def test_no_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_parser_is_built_once_per_process(self, capsys, monkeypatch):
        built = []

        def counted():
            built.append(1)
            return build_parser()

        cli._parser.cache_clear()
        monkeypatch.setattr(cli, "build_parser", counted)
        args = ("run", "--game", "bandit-mixed", "--k", "50", "--seed", "4", "--beta", "0.5")
        code1, out1, _ = call(capsys, *args)
        with pytest.raises(SystemExit):
            main(["run", "--k", "not-a-number"])
        code2, out2, _ = call(capsys, *args)
        assert (code1, code2) == (0, 0)
        assert out1 == out2
        assert len(built) == 1

    def test_module_entry_point(self):
        # the child must import the package under test, also when only
        # pytest's own ``pythonpath`` setting put it on sys.path
        search = [str(Path(pmvi.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
        proc = subprocess.run(
            [sys.executable, "-m", "pmvi.cli", "solve-matrix", "--matrix", "[[0.25]]"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, search))},
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["value"] == pytest.approx(0.25)
