"""Command-line behavior: outputs, exit codes, and file handling."""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mdplab
from mdplab import (
    ValidationError,
    mdp_to_dict,
    random_mdp,
    stay_go_dynamics,
    stay_go_mdp,
    with_rewards,
)
from mdplab.cli import emit_csv, run
from test_documents import HIERARCHY_DOC, MDP_DOC, TABLE_DOC, mangled

SRC = str(Path(mdplab.__file__).resolve().parents[1])

# the individual level pays 1 for "stay", the humanity level 0.4 for "go"
EGOISM_HIERARCHY = {"levels": [
    {"name": "individual", "weight": 1.0,
     "rewards": {"s0": {"stay": 1.0, "go": 0.0}, "s1": {"stay": 1.0, "go": 0.0}}},
    {"name": "humanity", "weight": 0.0,
     "rewards": {"s0": {"stay": 0.0, "go": 0.4}, "s1": {"stay": 0.0, "go": 0.4}}},
]}


def run_python(args, timeout=60):
    """Run a fresh interpreter that imports mdplab from this source tree."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=timeout
    )


@pytest.fixture
def stay_go_path(tmp_path):
    path = tmp_path / "stay_go.json"
    path.write_text(json.dumps(mdp_to_dict(stay_go_mdp())))
    return str(path)


@pytest.fixture
def dynamics_path(tmp_path):
    path = tmp_path / "dynamics.json"
    path.write_text(json.dumps(mdp_to_dict(stay_go_dynamics(0.5))))
    return str(path)


def write_json(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestSolveCommand:
    def test_emits_solve_result_json(self, stay_go_path, capsys):
        code = run(["solve", "--mdp", stay_go_path, "--epsilon", "1e-8"])
        out = capsys.readouterr().out
        assert code == 0
        doc = json.loads(out)
        assert doc["pi_star"] == {"s0": "go", "s1": "stay"}
        assert doc["v_star"]["s0"] == pytest.approx(1.0, abs=1e-7)
        assert doc["residual"] < 1e-7
        assert set(doc) == {"v_star", "q_star", "pi_star", "iterations", "residual"}

    def test_missing_file_names_the_path(self, capsys):
        code = run(["solve", "--mdp", "/nope/missing.json"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:")
        assert "missing.json" in err
        assert err.count("\n") == 1

    def test_invalid_document_exits_2(self, tmp_path, capsys):
        doc = mdp_to_dict(stay_go_mdp())
        doc["gamma"] = 1.0
        path = write_json(tmp_path, "bad.json", doc)
        assert run(["solve", "--mdp", path]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_row_sum_error_prints_a_plain_float(self, tmp_path, capsys):
        doc = mdp_to_dict(stay_go_mdp())
        doc["transitions"]["s0"]["stay"] = {"s0": 0.7, "s1": 0.7}
        path = write_json(tmp_path, "rows.json", doc)
        assert run(["solve", "--mdp", path]) == 2
        assert capsys.readouterr().err == (
            "error: transition row ('s0', 'stay') sums to 1.4, not 1 within 1e-09\n")

    def test_overflowing_values_exit_2(self, tmp_path):
        # V(s1) = 1.7e308 / (1 - 0.5) overflows, and a non-finite sweep change
        # never falls below the stopping threshold: the timeout catches a hang
        doc = mdp_to_dict(stay_go_mdp())
        doc["rewards"]["s1"]["stay"] = 1.7e308
        path = write_json(tmp_path, "huge.json", doc)
        proc = run_python(["-m", "mdplab", "solve", "--mdp", path])
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: value iteration overflowed")
        assert proc.stderr.count("\n") == 1

    def test_gamma_near_one_exits_2(self, tmp_path):
        # about 3e7 sweeps would be needed; the timeout catches a long run
        doc = mdp_to_dict(stay_go_mdp())
        doc["gamma"] = 0.999999
        path = write_json(tmp_path, "slow.json", doc)
        proc = run_python(["-m", "mdplab", "solve", "--mdp", path], timeout=30)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: value iteration may need")
        assert proc.stderr.count("\n") == 1

    def test_unparseable_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert run(["solve", "--mdp", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("content", [b"\xff\xfe{\x00}\x00", b"[" * 200_000],
                             ids=["utf16-bom", "deep-nesting"])
    def test_unreadable_json_exits_2(self, tmp_path, content):
        # not UTF-8, or nested past the parser's recursion limit
        path = tmp_path / "doc.json"
        path.write_bytes(content)
        proc = run_python(["-m", "mdplab", "solve", "--mdp", str(path)])
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("error:")
        assert proc.stderr.count("\n") == 1


class TestCheckScheduleCommand:
    def test_valid_schedule_exits_0(self, capsys):
        assert run(["check-schedule", "--family", "harmonic", "--p", "0.75"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["rm_valid"] is True

    def test_invalid_schedule_exits_3(self, capsys):
        assert run(["check-schedule", "--family", "harmonic", "--p", "2"]) == 3
        doc = json.loads(capsys.readouterr().out)
        assert doc == {"condition_i": "fail", "condition_ii": "pass", "rm_valid": False}

    def test_indeterminate_table_exits_4(self, capsys):
        code = run(["check-schedule", "--family", "table", "--table", "1,0.5,0.25"])
        assert code == 4
        doc = json.loads(capsys.readouterr().out)
        assert doc["rm_valid"] is None

    def test_out_of_range_rate_exits_2(self, capsys):
        assert run(["check-schedule", "--family", "constant", "--c", "1.5"]) == 2
        assert capsys.readouterr().err.startswith("error:")


class TestQlearnCommand:
    def test_writes_csv_to_out_file(self, stay_go_path, tmp_path):
        out = tmp_path / "trace.csv"
        code = run(
            ["--seed", "1", "qlearn", "--mdp", stay_go_path, "--steps", "2000",
             "--checkpoint-every", "200", "--out", str(out)]
        )
        assert code == 0
        assert not os.path.exists(str(out) + ".tmp")
        lines = out.read_text().splitlines()
        assert lines[0] == "step,supnorm_error,greedy_match"
        assert len(lines) == 11
        step, err, match = lines[1].split(",")
        assert step == "200"
        assert float(err) >= 0.0
        assert match in ("true", "false")

    def test_defaults_to_stdout(self, stay_go_path, capsys):
        code = run(["qlearn", "--mdp", stay_go_path, "--steps", "1000",
                    "--checkpoint-every", "500"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("step,supnorm_error,greedy_match\n")

    def test_same_seed_is_byte_identical(self, stay_go_path, capsys):
        argv = ["--seed", "7", "qlearn", "--mdp", stay_go_path, "--steps", "3000",
                "--checkpoint-every", "300"]
        assert run(argv) == 0
        first = capsys.readouterr().out
        assert run(argv) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_overflowing_oracle_exits_2(self, tmp_path):
        # the exact oracle's values overflow, so there is nothing to learn
        # against: no numpy warning, no rows, one error line
        doc = mdp_to_dict(stay_go_mdp())
        doc["rewards"]["s1"]["stay"] = 1.7e308
        path = write_json(tmp_path, "huge.json", doc)
        proc = run_python(["-m", "mdplab", "qlearn", "--mdp", path, "--steps", "2000",
                           "--checkpoint-every", "500"])
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: values overflow")
        assert proc.stderr.count("\n") == 1

    def test_overflowing_q_learning_run_exits_2(self, tmp_path):
        # the oracle is finite, but the learned values start at -1.5e308 and
        # overflow: no rows, no CSV file, one error line
        doc = mdp_to_dict(stay_go_mdp(0.9))
        doc["rewards"] = {"s0": {"stay": -1e307, "go": 0.0}, "s1": {"stay": 1e307, "go": 0.0}}
        path = write_json(tmp_path, "overflow.json", doc)
        out = tmp_path / "overflow.csv"
        proc = run_python(["-m", "mdplab", "qlearn", "--mdp", path, "--family", "constant",
                           "--c", "0.5", "--steps", "2000", "--checkpoint-every", "500",
                           "--q-init=-1.5e308", "--out", str(out)])
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: Q-learning values overflow")
        assert proc.stderr.count("\n") == 1
        assert not out.exists() and not Path(f"{out}.tmp").exists()

    def test_oracle_with_tied_policies_exits_0(self, tmp_path, capsys):
        # equally good policies whose values differ by rounding used to
        # alternate until the policy iteration cap
        gen = np.random.default_rng(9)
        mdp = random_mdp(3, 2, 0.99, gen)
        mdp = with_rewards(mdp, gen.integers(0, 2, (3, 2)).astype(float))
        path = write_json(tmp_path, "tied.json", mdp_to_dict(mdp))
        assert run(["qlearn", "--mdp", path, "--steps", "1000",
                    "--checkpoint-every", "500"]) == 0
        assert capsys.readouterr().out.startswith("step,supnorm_error,greedy_match\n")

    def test_overflowing_visited_policy_exits_2_quickly(self, tmp_path):
        doc = mdp_to_dict(stay_go_mdp(0.9))
        doc["rewards"]["s0"]["go"] = doc["rewards"]["s1"]["go"] = 4e307
        path = write_json(tmp_path, "huge_go.json", doc)
        start = time.perf_counter()
        proc = run_python(["-m", "mdplab", "qlearn", "--mdp", path, "--steps", "1000"])
        assert time.perf_counter() - start < 5.0
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: values overflow")
        assert proc.stderr.count("\n") == 1

    def test_rejects_bad_steps(self, stay_go_path, capsys):
        assert run(["qlearn", "--mdp", stay_go_path, "--steps", "0"]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_policy_iteration_cap_exits_2(self, stay_go_path, monkeypatch, capsys):
        # stay/go needs two policy iterations, so a cap of one is reached
        monkeypatch.setattr(mdplab.solve, "MAX_POLICY_ITERATIONS", 1)
        assert run(["qlearn", "--mdp", stay_go_path, "--steps", "10"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: policy iteration did not stabilize")
        assert captured.err.count("\n") == 1


class TestPgCommand:
    def test_json_summary_and_csv(self, stay_go_path, tmp_path, capsys):
        out = tmp_path / "ascent.csv"
        code = run(["pg", "--mdp", stay_go_path, "--iters", "20",
                    "--step-size", "0.2", "--out", str(out)])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert set(doc) == {"theta", "mu", "j"}
        assert set(doc["mu"]) == {"s0", "s1"}
        lines = out.read_text().splitlines()
        assert lines[0] == "iter,J,grad_norm"
        assert len(lines) == 21
        assert lines[1].split(",")[0] == "0"

    def test_check_flag_adds_gradient_report(self, stay_go_path, capsys):
        code = run(["pg", "--mdp", stay_go_path, "--iters", "5", "--check"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["gradient_check"]["max_rel_diff"] < 1e-5

    def test_gaussian_init_uses_the_seed(self, stay_go_path, capsys):
        argv = ["--seed", "3", "pg", "--mdp", stay_go_path, "--init", "gaussian",
                "--iters", "3"]
        assert run(argv) == 0
        first = capsys.readouterr().out
        assert run(argv) == 0
        assert first == capsys.readouterr().out

    def test_overflowing_gradient_exits_2(self, tmp_path):
        # the gradient is finite (max |g| about 3.2e307) but its norm is not;
        # a step along it would saturate the softmax into a reducible chain
        doc = mdp_to_dict(stay_go_mdp())
        doc["rewards"]["s1"]["stay"] = 1.7e308
        path = write_json(tmp_path, "huge.json", doc)
        proc = run_python(["-m", "mdplab", "pg", "--mdp", path, "--iters", "3"])
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: the gradient norm overflows")
        assert proc.stderr.count("\n") == 1
        assert "RuntimeWarning" not in proc.stderr

    def test_reducible_chain_exits_5(self, tmp_path, capsys):
        doc = {
            "states": ["s0", "s1"],
            "actions": ["a0"],
            "gamma": 0.9,
            "transitions": {"s0": {"a0": {"s0": 1.0}}, "s1": {"a0": {"s1": 1.0}}},
            "rewards": {"s0": {"a0": 0.0}, "s1": {"a0": 1.0}},
        }
        path = write_json(tmp_path, "reducible.json", doc)
        assert run(["pg", "--mdp", path, "--iters", "3"]) == 5
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("step_size", ["inf", "nan"])
    def test_non_finite_step_size_exits_2(self, tmp_path, capsys, step_size):
        # every row mixes to (0.5, 0.5), so the gradient is exactly zero, and
        # a step of inf * 0 would make NaN logits behind a numpy warning
        mix = {a: {"s0": 0.5, "s1": 0.5} for a in ("a0", "a1")}
        doc = {
            "states": ["s0", "s1"],
            "actions": ["a0", "a1"],
            "gamma": 0.9,
            "transitions": {"s0": mix, "s1": mix},
            "rewards": {"s0": {"a0": 0.3, "a1": 0.3}, "s1": {"a0": 1.0, "a1": 1.0}},
        }
        path = write_json(tmp_path, "saddle.json", doc)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run(["pg", "--mdp", path, "--step-size", step_size, "--iters", "2"])
        assert code == 2
        assert caught == []
        err = capsys.readouterr().err
        assert err.startswith("error: step_size must be finite")
        assert err.count("\n") == 1

    def test_overflowing_step_exits_2(self, tmp_path, capsys):
        # the gradient is small, but a step of 1e308 along it is not finite
        doc = mdp_to_dict(stay_go_mdp())
        doc["rewards"]["s1"]["stay"] = 1000.0
        path = write_json(tmp_path, "big.json", doc)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run(["pg", "--mdp", path, "--step-size", "1e308", "--iters", "2"])
        assert code == 2
        assert caught == []
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: theta overflows")
        assert "step_size" in captured.err
        assert captured.err.count("\n") == 1


class TestCompareAndSweep:
    def test_compare_reports_divergence(self, dynamics_path, tmp_path, capsys):
        reward_a = write_json(
            tmp_path, "a.json",
            {"s0": {"stay": 0.0, "go": 0.0}, "s1": {"stay": 1.0, "go": 0.0}},
        )
        reward_b = write_json(
            tmp_path, "b.json",
            {"s0": {"stay": 1.0, "go": 0.0}, "s1": {"stay": 0.0, "go": 0.0}},
        )
        code = run(["compare", "--dynamics", dynamics_path,
                    "--reward-a", reward_a, "--reward-b", reward_b])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["divergence"] == 1.0
        assert doc["per_state"]["s0"]["argmax_a"] == ["go"]

    def test_sweep_emits_weight_divergence_csv(self, dynamics_path, tmp_path, capsys):
        hierarchy = write_json(
            tmp_path, "hier.json",
            {
                "levels": [
                    {"name": "individual", "weight": 1.0,
                     "rewards": {"s0": {"stay": 1.0, "go": 0.0},
                                 "s1": {"stay": 1.0, "go": 0.0}}},
                    {"name": "humanity", "weight": 0.0,
                     "rewards": {"s0": {"stay": 0.0, "go": 0.4},
                                 "s1": {"stay": 0.0, "go": 0.4}}},
                ]
            },
        )
        code = run(["sweep", "--dynamics", dynamics_path, "--hierarchy", hierarchy,
                    "--level", "1", "--grid", "0,2,3"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.splitlines() == ["weight,divergence", "0.0,0.0", "2.0,0.0", "3.0,1.0"]

    def test_gamma_near_one_is_solved_exactly(self, tmp_path, capsys):
        doc = mdp_to_dict(stay_go_dynamics(0.999999))
        del doc["rewards"]
        dynamics = write_json(tmp_path, "dyn.json", doc)
        home_s1 = write_json(tmp_path, "a.json", {"s0": {"stay": 0.0, "go": 0.0},
                                                  "s1": {"stay": 1.0, "go": 0.0}})
        home_s0 = write_json(tmp_path, "b.json", {"s0": {"stay": 1.0, "go": 0.0},
                                                  "s1": {"stay": 0.0, "go": 0.0}})
        assert run(["compare", "--dynamics", dynamics,
                    "--reward-a", home_s1, "--reward-b", home_s0]) == 0
        assert json.loads(capsys.readouterr().out)["divergence"] == 1.0
        hierarchy = write_json(tmp_path, "hier.json", EGOISM_HIERARCHY)
        assert run(["sweep", "--dynamics", dynamics, "--hierarchy", hierarchy,
                    "--level", "1", "--grid", "0,1,2,3,4"]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert [float(row.split(",")[1]) for row in rows] == [0.0, 0.0, 0.0, 1.0, 1.0]

    def test_overflowing_filter_names_its_level(self, dynamics_path, tmp_path):
        doc = json.loads(json.dumps(EGOISM_HIERARCHY))
        doc["levels"][0]["filter"] = [[0, 0], [1, 1e300]]
        doc["levels"][0]["rewards"]["s0"]["stay"] = 1e10
        hierarchy = write_json(tmp_path, "hier.json", doc)
        proc = run_python(["-m", "mdplab", "sweep", "--dynamics", dynamics_path,
                           "--hierarchy", hierarchy, "--level", "1", "--grid", "0,1"])
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == "error: level 'individual': the filtered rewards overflow\n"

    def test_bad_grid_exits_2(self, dynamics_path, tmp_path, capsys):
        hierarchy = write_json(tmp_path, "h.json", {"levels": [
            {"name": "solo", "weight": 1.0,
             "rewards": {"s0": {"stay": 0.0, "go": 0.0},
                         "s1": {"stay": 0.0, "go": 0.0}}}]})
        assert run(["sweep", "--dynamics", dynamics_path, "--hierarchy", hierarchy,
                    "--level", "0", "--grid", "a,b"]) == 2


    @pytest.mark.parametrize("key, value", [
        ("weight", "1.0"),
        ("weight", True),
        ("filter", [["0", "0"], ["1", "1"]]),
        ("name", ["x"]),
    ])
    def test_mistyped_hierarchy_exits_2(self, dynamics_path, tmp_path, capsys, key, value):
        level = {"name": "solo", "weight": 1.0,
                 "rewards": {"s0": {"stay": 0.0, "go": 0.0},
                             "s1": {"stay": 0.0, "go": 0.0}}}
        level[key] = value
        hierarchy = write_json(tmp_path, "h.json", {"levels": [level]})
        assert run(["sweep", "--dynamics", dynamics_path, "--hierarchy", hierarchy,
                    "--level", "0", "--grid", "0,1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert captured.err.count("\n") == 1


class TestUsageErrors:
    def test_no_subcommand(self, capsys):
        assert run([]) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_unknown_subcommand(self, capsys):
        assert run(["bogus"]) == 1

    def test_unknown_flag(self, capsys):
        assert run(["solve", "--nope", "x"]) == 1

    def test_help_exits_0(self, capsys):
        assert run(["--help"]) == 0

    @pytest.mark.parametrize("command", [
        ["qlearn", "--steps", "10"],
        ["pg", "--init", "gaussian", "--iters", "1"],
        ["solve"],
    ])
    def test_negative_seed_exits_2(self, stay_go_path, command, capsys):
        argv = ["--seed", "-1", command[0], "--mdp", stay_go_path, *command[1:]]
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --seed must be >= 0, got -1\n"


def test_import_does_not_load_scipy():
    proc = run_python(["-c", "import sys, mdplab; print('scipy' in sys.modules)"])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


class TestEmitCsv:
    def test_empty_records_write_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_csv([], ("step", "supnorm_error", "greedy_match"), str(path))
        assert path.read_text() == "step,supnorm_error,greedy_match\n"

    def test_single_checkpoint_formatting(self, tmp_path):
        path = tmp_path / "one.csv"
        emit_csv([(1000, 0.25, True)], ("step", "supnorm_error", "greedy_match"),
                 str(path))
        assert path.read_text() == "step,supnorm_error,greedy_match\n1000,0.25,true\n"

    def test_arity_mismatch(self):
        with pytest.raises(ValidationError):
            emit_csv([(1, 2)], ("a", "b", "c"), None)

    def test_failed_write_leaves_no_partial_file(self, tmp_path):
        target = tmp_path / "no_such_dir" / "out.csv"
        with pytest.raises(OSError):
            emit_csv([(1, 2.0, False)], ("a", "b", "c"), str(target))
        assert not target.exists()

    @settings(max_examples=40, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(
                st.integers(0, 10**9),
                st.floats(allow_nan=False, allow_infinity=False, width=64),
                st.booleans(),
            ),
            max_size=20,
        )
    )
    def test_round_trip(self, rows):
        import contextlib
        import io

        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            emit_csv(rows, ("step", "supnorm_error", "greedy_match"), None)
        lines = buffer.getvalue().splitlines()
        parsed = [
            (int(s), float(e), m == "true")
            for s, e, m in (line.split(",") for line in lines[1:])
        ]
        assert parsed == rows


# Every document flag can name any of these files; the fuzz writes them per
# example, except missing.json.  raw.json holds bytes that need not be UTF-8
# or even JSON.
FUZZ_FILES = ("mdp.json", "table.json", "hierarchy.json", "raw.json", "stay_go.json",
              "missing.json")
FUZZ_VALUES = {
    "--mdp": FUZZ_FILES,
    "--dynamics": FUZZ_FILES,
    "--reward-a": FUZZ_FILES,
    "--reward-b": FUZZ_FILES,
    "--hierarchy": FUZZ_FILES,
    "--out": ("out.csv", "no_such_dir/out.csv"),
    "--epsilon": ("1e-8", "0.2", "0", "-1", "1e-300", "nan", "inf", "x"),
    "--p": ("1", "0.6", "2", "0", "-1", "1e308", "nan", "x"),
    "--c": ("0.5", "0", "1", "-0.5", "inf", "x"),
    "--q-init": ("0", "-3", "1e308", "nan"),
    "--step-size": ("0.1", "0", "-1", "1e308", "nan"),
    "--table": ("0.5,0.25", "1,1,1", "2", "-1", "0.5,x", ""),
    "--grid": ("0,1,2", "0", "-1", "1e308", "nan", "0,x", ""),
    "--level": ("0", "1", "-1", "5", "x"),
    "--family": ("harmonic", "constant", "table", "x"),
    "--init": ("zeros", "gaussian", "x"),
    "--start": ("uniform", "s0", "s1", "sX"),
    "--checkpoint-every": ("1", "7", "0", "-3", "x"),
    "--check": (None,),
    "--help": (None,),
}
SCHEDULE_FLAGS = ("--family", "--p", "--c", "--table")
# (required flags, optional flags) of each subcommand
FUZZ_COMMANDS = {
    "solve": (("--mdp",), ("--epsilon",)),
    "qlearn": (("--mdp",), SCHEDULE_FLAGS + ("--epsilon", "--checkpoint-every",
                                             "--q-init", "--start", "--out")),
    "check-schedule": ((), SCHEDULE_FLAGS),
    "pg": (("--mdp",), ("--init", "--step-size", "--check", "--out")),
    "compare": (("--dynamics", "--reward-a", "--reward-b"), ()),
    "sweep": (("--dynamics", "--hierarchy", "--level", "--grid"), ("--out",)),
    "bogus": ((), ()),
}
raw_bytes = st.binary(max_size=40) | st.sampled_from([b"\xff\xfe{\x00}\x00", b"[" * 200_000])


@st.composite
def command_lines(draw):
    """A subcommand with its required flags, some of its optional ones and,
    now and then, a flag from anywhere; every flag value is fuzzed."""
    argv = []
    if draw(st.booleans()):
        argv += ["--seed", draw(st.sampled_from(["0", "7", "-1", "x"]))]
    command = draw(st.sampled_from(sorted(FUZZ_COMMANDS)))
    required, optional = FUZZ_COMMANDS[command]
    flags = list(required)
    if optional:
        flags += draw(st.lists(st.sampled_from(optional), max_size=4))
    if draw(st.integers(0, 9)) == 0:
        flags.append(draw(st.sampled_from(sorted(FUZZ_VALUES))))
    argv.append(command)
    for flag in draw(st.permutations(flags)):
        value = draw(st.sampled_from(FUZZ_VALUES[flag]))
        argv += [flag] if value is None else [flag, value]
    # keep every example short: the last occurrence of a flag wins
    if command == "qlearn":
        argv += ["--steps", draw(st.sampled_from(["0", "1", "50", "-1"]))]
    if command == "pg":
        argv += ["--iters", draw(st.sampled_from(["0", "1", "5"]))]
    return argv


@settings(max_examples=300, deadline=None)
@given(
    argv=command_lines(),
    mdp=mangled(MDP_DOC),
    table=mangled(TABLE_DOC),
    hierarchy=mangled(HIERARCHY_DOC),
    raw=raw_bytes,
)
def test_run_never_raises(argv, mdp, table, hierarchy, raw):
    with tempfile.TemporaryDirectory() as tmp:
        for name, doc in (("mdp", mdp), ("table", table), ("hierarchy", hierarchy),
                          ("stay_go", MDP_DOC)):
            with open(os.path.join(tmp, f"{name}.json"), "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
        with open(os.path.join(tmp, "raw.json"), "wb") as fh:
            fh.write(raw)
        argv = [os.path.join(tmp, a) if a.endswith((".json", ".csv")) else a for a in argv]
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = run(argv)
    assert code in range(6)
