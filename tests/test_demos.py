"""Golden demo outputs: each ``demos/0*.py`` script's stdout, pinned across versions.

Every demo runs in a fresh interpreter under ``-W error::RuntimeWarning``, so
a numpy warning fails it as it fails the test suite, and must exit with
status 0.  ``data/demo_golden.json`` holds each demo's stdout; every line
must match byte for byte except demo 03's finite-difference line
(``max abs diff ... max rel diff ...``), whose digits are roundoff that
depends on the LAPACK build: both of its numbers must parse and lie below
ROUNDOFF_BOUND.

Re-record only when an output changes on purpose, from the repository root:

    PYTHONPATH=src python tests/test_demos.py
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import mdplab

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("0*.py"))
GOLDEN_PATH = Path(__file__).parent / "data" / "demo_golden.json"
ROUNDOFF_BOUND = 1e-8
ROUNDOFF_LINE = re.compile(r"  max abs diff: (\S+)  max rel diff: (\S+)")


def run_demo(path):
    """Exit code and stdout of one demo, importing the mdplab under test."""
    src = str(Path(mdplab.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", str(path)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    return proc.returncode, proc.stdout, proc.stderr


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def test_golden_covers_every_demo(golden):
    assert set(golden) == {path.name for path in DEMOS}


@pytest.mark.parametrize("path", DEMOS, ids=lambda path: path.name)
def test_demo_output_is_pinned(path, golden):
    code, stdout, stderr = run_demo(path)
    assert code == 0, stderr
    lines, expected = stdout.splitlines(keepends=True), golden[path.name].splitlines(keepends=True)
    assert len(lines) == len(expected)
    for line, want in zip(lines, expected):
        if ROUNDOFF_LINE.fullmatch(want.rstrip("\n")):
            diffs = ROUNDOFF_LINE.fullmatch(line.rstrip("\n"))
            assert diffs, line
            assert all(float(x) < ROUNDOFF_BOUND for x in diffs.groups()), line
        else:
            assert line == want


def record():
    golden = {}
    for path in DEMOS:
        code, stdout, stderr = run_demo(path)
        if code != 0:
            raise SystemExit(f"{path.name} exited with {code}:\n{stderr}")
        golden[path.name] = stdout
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    record()
