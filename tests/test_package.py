"""Package structure: no module imports another module's private names."""

import ast
from pathlib import Path

import mdplab

PACKAGE = Path(mdplab.__file__).resolve().parent


def test_no_private_cross_module_imports():
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                offenders += [f"{path.name} imports {alias.name}"
                              for alias in node.names if alias.name.startswith("_")]
    assert offenders == []


def test_linear_solves_live_in_mdp_and_gradient_only():
    # discounted evaluation is the one solve in mdp.py; the stationary and
    # differential systems are gradient.py's
    counts = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Attribute) and node.attr == "solve"
                    and isinstance(node.value, ast.Attribute) and node.value.attr == "linalg"):
                counts[path.name] = counts.get(path.name, 0) + 1
    assert counts.pop("mdp.py", 0) == 1
    assert set(counts) <= {"gradient.py"}
