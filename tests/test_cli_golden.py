"""Golden CLI outputs: the README commands' stdout and CSV, pinned across versions.

``data/cli_golden.json`` holds, for every command below, the stdout and the
CSV it wrote, recorded from the version before the average-reward chain
builder.  Every command but ``pg`` must reproduce them byte for byte.  The
``pg --check`` runs print gradient-check differences whose last digits
depend on the LAPACK build, so their JSON must have the same keys and every
number within 1e-12 relative.

Re-record only when an output changes on purpose, from the repository root:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import json
import math
from pathlib import Path

import pytest

from mdplab.cli import run

ROOT = Path(__file__).resolve().parents[1]
GOLDEN_PATH = Path(__file__).parent / "data" / "cli_golden.json"
REL_TOL = 1e-12

QLEARN = ["qlearn", "--mdp", "demos/data/stay_go.json", "--family", "harmonic", "--p", "1",
          "--epsilon", "0.2", "--steps", "200000", "--checkpoint-every", "10000",
          "--out", "trace.csv"]
PG = ["pg", "--mdp", "demos/data/stay_go.json", "--step-size", "0.1", "--iters", "2000",
      "--check"]

# name: (argv, compare numbers within REL_TOL instead of bytes)
COMMANDS = {
    "solve": (["solve", "--mdp", "demos/data/stay_go.json", "--epsilon", "1e-8"], False),
    "qlearn": (["--seed", "1", *QLEARN], False),
    "qlearn_seed13": (["--seed", "13", *QLEARN], False),
    "check_schedule": (["check-schedule", "--family", "harmonic", "--p", "2"], False),
    "pg": (PG, True),
    "pg_gaussian_seed3": (["--seed", "3", *PG, "--init", "gaussian"], True),
    "compare": (["compare", "--dynamics", "demos/data/stay_go_dynamics.json",
                 "--reward-a", "demos/data/reward_home_s1.json",
                 "--reward-b", "demos/data/reward_home_s0.json"], False),
    "sweep": (["sweep", "--dynamics", "demos/data/stay_go_dynamics.json",
               "--hierarchy", "demos/data/hierarchy.json", "--level", "1",
               "--grid", "0,1,2,3,4"], False),
}


def invoke(argv, out_dir):
    """Exit code, stdout and CSV file text of one run, with the README's
    relative fixture paths resolved against the repository root and its
    ``--out`` file moved into out_dir."""
    argv = [str(ROOT / arg) if arg.startswith("demos/") else arg for arg in argv]
    csv_path = None
    if "--out" in argv:
        i = argv.index("--out") + 1
        csv_path = Path(out_dir) / argv[i]
        argv[i] = str(csv_path)
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = run(argv)
    csv = csv_path.read_text(encoding="utf-8") if csv_path is not None else None
    return code, stdout.getvalue(), csv


def assert_close(actual, expected, where):
    """Same JSON structure, every number within REL_TOL relative."""
    if isinstance(expected, dict):
        assert isinstance(actual, dict) and list(actual) == list(expected), where
        for key in expected:
            assert_close(actual[key], expected[key], f"{where}.{key}")
    elif isinstance(expected, float):
        assert isinstance(actual, float), where
        assert math.isclose(actual, expected, rel_tol=REL_TOL, abs_tol=0.0), (
            f"{where}: {actual!r} != {expected!r}"
        )
    else:
        assert actual == expected, where


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def test_golden_covers_every_command(golden):
    assert set(golden) == set(COMMANDS)
    for name, (argv, _) in COMMANDS.items():
        assert golden[name]["argv"] == argv


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_readme_command_output_is_pinned(name, golden, tmp_path):
    argv, numeric = COMMANDS[name]
    code, stdout, csv = invoke(argv, tmp_path)
    expected = golden[name]
    assert code == expected["code"]
    assert csv == expected["csv"]
    if numeric:
        assert_close(json.loads(stdout), json.loads(expected["stdout"]), name)
    else:
        assert stdout == expected["stdout"]


def record():
    import tempfile

    golden = {}
    with tempfile.TemporaryDirectory() as out_dir:
        for name, (argv, _) in COMMANDS.items():
            code, stdout, csv = invoke(argv, out_dir)
            golden[name] = {"argv": argv, "code": code, "stdout": stdout, "csv": csv}
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    record()
