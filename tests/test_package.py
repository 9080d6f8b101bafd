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


def _is_linalg_solve(node):
    return (isinstance(node, ast.Attribute) and node.attr == "solve"
            and isinstance(node.value, ast.Attribute) and node.value.attr == "linalg")


def test_one_linear_solve_in_mdp_solve_system():
    # discounted, stationary and differential values all go through
    # mdp.solve_system; gradient.py's R_pi/P_pi come from the chain builder
    # and differential_q only, so no second chain path appears
    counts = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        count = sum(map(_is_linalg_solve, ast.walk(tree)))
        if count:
            counts[path.name] = count
    assert counts == {"mdp.py": 1}
    tree = ast.parse((PACKAGE / "mdp.py").read_text(encoding="utf-8"))
    (func,) = [node for node in tree.body
               if isinstance(node, ast.FunctionDef) and node.name == "solve_system"]
    assert any(map(_is_linalg_solve, ast.walk(func)))
    tree = ast.parse((PACKAGE / "gradient.py").read_text(encoding="utf-8"))
    builds = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
              and getattr(node.func, "id", getattr(node.func, "attr", None)) == "expectations"]
    assert len(builds) <= 2


def test_core_modules_import_only_from_mdp():
    # gradient, Q-learning and the solvers share their numeric rules through
    # mdp.py alone
    for name in ("gradient.py", "qlearn.py", "solve.py"):
        tree = ast.parse((PACKAGE / name).read_text(encoding="utf-8"))
        sources = {node.module for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom) and node.level > 0}
        assert sources == {"mdp"}, name


def test_moved_errors_keep_their_import_paths():
    assert mdplab.SingularSystemError is mdplab.gradient.SingularSystemError
    assert mdplab.SingularSystemError is mdplab.mdp.SingularSystemError
    assert mdplab.ValueOverflowError is mdplab.solve.ValueOverflowError
    assert mdplab.ValueOverflowError is mdplab.mdp.ValueOverflowError
