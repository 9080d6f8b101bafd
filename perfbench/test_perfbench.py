"""Self-tests of the benchmark, at tiny sizes.

    python3 -m pytest perfbench -q

They check that every workload runs and passes its oracle checks, that the
printed metric names are exactly those of BENCHMARK.json, that per op the
layer self times plus the unattributed time add up to the op's wall time,
that corrupted outputs are counted as failed ops, and that the calibration
loop cancels a slow spell out of the latencies.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import harness  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = tuple(w["name"] for w in SPEC["workloads"])


@pytest.fixture(scope="module")
def results():
    return {(w, t): run.run_workload(w, 5, 1, t, size="tiny") for w in NAMES for t in (0, 1)}


def test_workloads_are_the_ones_declared():
    assert set(NAMES) == set(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("name", NAMES)
def test_tiny_run_passes_every_check(results, name, trace):
    result = results[name, trace]
    assert result["detail"]["failures"] == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert result["detail"]["digests"]


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("name", NAMES)
def test_metric_names_and_units_match_benchmark_json(results, name, trace):
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    metrics = results[name, trace]["metrics"]
    assert list(metrics) == [m["name"] for m in declared]
    for m in declared:
        assert (run.END_TO_END.get(m["name"]) or run.unit_of(m["name"])) == m["unit"]
        assert isinstance(metrics[m["name"]], (int, float))


@pytest.mark.parametrize("name", NAMES)
def test_layer_self_times_and_unattributed_add_up_to_op_wall(results, name):
    detail = results[name, 1]["detail"]
    walls = detail["op_walls"]
    probe = [op for op in walls if op.startswith("probe")]
    # Every traced op and probe op has a wall; the untraced half has none.
    assert results[name, 1]["attempted"] == 2 * (len(walls) - len(probe)) + len(probe)
    for op, (wall, covered) in walls.items():
        assert covered == pytest.approx(wall, rel=1e-9, abs=1e-12), op
    unattributed = sum(
        wall - sum(own for s, own in _selfs(detail) if s[4] == op and s[0] != "op")
        for op, (wall, _) in walls.items()
    )
    assert unattributed == pytest.approx(results[name, 1]["metrics"]["trace.unattributed_s"])


def _selfs(detail):
    tracer = harness.Tracer("replay")
    tracer.spans = [harness.Span(*s) for s in detail["spans"]]
    return zip(detail["spans"], tracer.self_times())


@pytest.mark.parametrize("name", NAMES)
def test_untraced_run_times_the_loop_around_every_op(results, name):
    result = results[name, 0]
    around = result["detail"]["cal_around_ms"]
    assert len(around) == len(result["detail"]["latencies_ms"]) == result["attempted"]
    assert all(len(pair) == 2 and min(pair) > 0 for pair in around)
    assert result["metrics"]["setup_s"] > 0


def test_normalization_cancels_a_slow_spell():
    fast, slow = harness.CAL_REFERENCE_S, 1.7 * harness.CAL_REFERENCE_S
    op = harness.Op("op", lambda tr: harness.Outcome(""))
    log = harness.PhaseLog(
        latencies=[0.1, 0.17, 0.1], cal_around=[(fast, fast), (slow, slow), (fast, fast)]
    )
    per_op, per_sample = run.normalized_ms(log, [op])
    assert per_sample == pytest.approx([100.0, 100.0, 100.0])
    assert per_op == {"op": pytest.approx(100.0)}


def test_corrupted_solver_output_is_a_failed_op(monkeypatch):
    real = workloads.value_iteration

    def corrupted(mdp, epsilon):
        result = real(mdp, epsilon)
        result.v_star.values.setflags(write=True)
        result.v_star.values[0] += 1e-3
        return result

    monkeypatch.setattr(workloads, "value_iteration", corrupted)
    result = run.run_workload("oracle_suite", 5, 1, 0, size="tiny")
    assert not result["correct"]
    assert result["failed"] == result["attempted"]


def test_corrupted_cli_output_is_a_failed_op(monkeypatch):
    real = workloads.run_child

    def corrupted(argv, env, cwd):
        code, stdout = real(argv, env, cwd)
        if "compare" in argv:
            stdout = stdout.replace(b'"divergence": 1.0', b'"divergence": 0.5')
        return code, stdout

    monkeypatch.setattr(workloads, "run_child", corrupted)
    result = run.run_workload(NAMES[0], 5, 1, 1, size="tiny")
    assert not result["correct"]
    # Three corrupted child runs, then the in-process bytes differ from them.
    labels = [label for label, _ in result["detail"]["failures"]]
    assert labels == ["cli/compare"] * (run.PROBE_REPEATS + 1)
    assert result["failed"] == len(labels)


def test_changed_digest_between_passes_is_a_failed_op():
    digests = iter(["a", "a", "b"])
    op = harness.Op("flaky", lambda tr: harness.Outcome(next(digests)))
    log = harness.Runner().run_passes([op], harness.NullTracer(), passes=3)
    assert log.attempted == 3
    assert [label for label, _ in log.failures] == ["flaky"]


def test_exits_without_result_outside_a_source_tree(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", NAMES[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode not in (0, None)
    assert proc.stdout == ""
