"""Package structure: no private cross-module imports, and one definition per rule."""

import ast
import dataclasses
import re
from pathlib import Path

import numpy as np
import pytest

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


def _calls(node, name):
    return [call for call in ast.walk(node) if isinstance(call, ast.Call)
            and getattr(call.func, "id", getattr(call.func, "attr", None)) == name]


def _is_lapack_solve(node):
    # np.linalg.solve, or one of the LAPACK gufuncs under it (solve, solve1)
    return (isinstance(node, ast.Attribute) and node.attr in ("solve", "solve1")
            and isinstance(node.value, ast.Attribute)
            and node.value.attr in ("linalg", "_umath_linalg"))


def test_one_linear_solve_in_mdp_solve_system():
    # discounted, stationary and differential values all go through
    # mdp.solve_system's one LAPACK call; gradient.py's R_pi/P_pi come from
    # the chain builder and differential_q only, so no second chain path appears
    counts = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        count = sum(map(_is_lapack_solve, ast.walk(tree)))
        if count:
            counts[path.name] = count
    assert counts == {"mdp.py": 1}
    tree = ast.parse((PACKAGE / "mdp.py").read_text(encoding="utf-8"))
    (func,) = [node for node in tree.body
               if isinstance(node, ast.FunctionDef) and node.name == "solve_system"]
    assert any(map(_is_lapack_solve, ast.walk(func)))
    tree = ast.parse((PACKAGE / "gradient.py").read_text(encoding="utf-8"))
    assert len(_calls(tree, "expectations")) <= 2


def test_only_documents_and_worlds_check_transitions():
    # Mdp.__post_init__ is the one check of an (S, A, S) transitions array,
    # and only make_mdp calls it; a solver or a reward path replaces the
    # reward table through with_rewards and never checks the unchanged
    # dynamics again
    callers = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if _calls(node, "make_mdp"):
                callers.add((path.name, getattr(node, "name", "<module>")))
    assert {c for c in callers if c[0] != "worlds.py"} == {("mdp.py", "validate_mdp")}
    assert ("worlds.py", "random_mdp") in callers


def _is_tolerance_cut(node):
    # "top - tol": a subtraction of a name like tol or ARGMAX_TOL
    return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub)
            and isinstance(node.right, ast.Name)
            and re.search(r"(^|_)tol$", node.right.id, re.IGNORECASE) is not None)


def test_one_optimal_action_set_rule_in_mdp_argmax_sets():
    # reward divergence and Q-learning checkpoints take their optimal-action
    # sets from mdp.argmax_sets, each with its own fixed tolerance
    cuts = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if any(map(_is_tolerance_cut, ast.walk(node))):
                cuts.add((path.name, getattr(node, "name", "<module>")))
    assert cuts == {("mdp.py", "argmax_sets")}
    tree = ast.parse((PACKAGE / "qlearn.py").read_text(encoding="utf-8"))
    assert not [node for node in ast.walk(tree)
                if isinstance(node, ast.Name) and node.id == "frozenset"]


def _owners(path, found):
    # names of the top-level functions and class methods holding a node that
    # satisfies found
    owners = []
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        for item in node.body if isinstance(node, ast.ClassDef) else [node]:
            owners += [getattr(item, "name", "<module>")] * sum(map(found, ast.walk(item)))
    return owners


def _is_matmul(node):
    return ((isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult))
            or (isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "matmul"))


def test_one_lookahead_in_solve():
    # R + gamma (P v) is written once, in _lookahead, and value iteration's
    # sweep, the greedy step and the results all go through it
    assert _owners(PACKAGE / "solve.py", _is_matmul) == ["_lookahead"]


def test_one_rate_rule_in_rates():
    # the three schedule families are defined only in rates, which rate reads
    path = PACKAGE / "qlearn.py"
    (rate,) = [node for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, ast.FunctionDef) and node.name == "rate"]
    assert not [node for node in ast.walk(rate)
                if isinstance(node, ast.Attribute) and node.attr == "family"]
    assert set(_owners(path, lambda node: isinstance(node, ast.BinOp)
                       and isinstance(node.op, ast.Pow))) == {"rates"}


def test_one_segment_loop_in_q_learning_run():
    # each checkpoint segment draws its own uniforms in q_learning_run's one
    # loop; no inner loop cuts a shared block into segments
    path = PACKAGE / "qlearn.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    (run,) = [node for node in tree.body
              if isinstance(node, ast.FunctionDef) and node.name == "q_learning_run"]
    assert sum(isinstance(node, ast.While) for node in ast.walk(run)) == 1
    assert _owners(path, lambda node: isinstance(node, ast.Call)
                   and getattr(node.func, "attr", None) == "random"
                   and getattr(node.func.value, "id", None) == "rng") == ["q_learning_run"]
    assert "islice" not in {alias.name for node in ast.walk(tree)
                            if isinstance(node, (ast.Import, ast.ImportFrom))
                            for alias in node.names}


def test_one_step_loop_in_q_learning_run():
    # a fixed successor is read in the one step loop by a conditional
    # expression beside the transition search, not by a second step body;
    # a row is rescanned at one site in that loop, not at a copy per branch
    tree = ast.parse((PACKAGE / "qlearn.py").read_text(encoding="utf-8"))
    (run,) = [node for node in tree.body
              if isinstance(node, ast.FunctionDef) and node.name == "q_learning_run"]
    (loop,) = [node for node in ast.walk(run) if isinstance(node, ast.For)]
    for name in ("bisect_right", "index"):
        assert len(_calls(run, name)) == len(_calls(loop, name)) == 1


def test_one_batch_budget_in_per_stack():
    # STACK_BYTES sizes evaluate's sub-stacks, gradient_check's state chunks,
    # value iteration's history and Q-learning's draw segments: only
    # mdp.per_stack reads it, when called, so one patch moves every batch
    readers, imported = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        readers += [(path.name, owner) for owner in _owners(path, lambda node: getattr(
            node, "id", getattr(node, "attr", None)) == "STACK_BYTES")]
        imported += [path.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                     for alias in node.names if alias.name == "STACK_BYTES"]
        assert "_CHUNK" not in path.read_text(encoding="utf-8"), path.name
    assert readers == [("mdp.py", "<module>"), ("mdp.py", "per_stack")]
    assert imported == []


def test_one_construction_rule_in_post_init():
    # every input type checks itself in __post_init__, so the constructor,
    # dataclasses.replace and each factory share one checked path: a
    # factory holds no raise, and its body is one cls(...) call
    factories = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.FunctionDef) and "classmethod" in [
                    getattr(d, "id", None) for d in node.decorator_list]:
                factories[node.name] = node
    assert {"deterministic", "stochastic", "harmonic", "constant", "from_table"} <= set(factories)
    assert [name for name, node in factories.items()
            if any(isinstance(inner, ast.Raise) for inner in ast.walk(node))] == []
    assert [name for name, node in factories.items()
            if not (len(node.body) == 1 and isinstance(node.body[0], ast.Return)
                    and isinstance(node.body[0].value, ast.Call)
                    and getattr(node.body[0].value.func, "id", None) == "cls")] == []


def _valid_inputs():
    level = mdplab.RewardLevel("a", np.eye(2), 1.0, mdplab.UtilityFilter(((0, 0), (1, 1))))
    schedule = mdplab.LearningRateSchedule.harmonic(0.7)
    return {
        "Mdp": mdplab.stay_go_mdp(),
        "Policy.deterministic": mdplab.Policy.deterministic([1, 0]),
        "Policy.stochastic": mdplab.Policy.stochastic(np.eye(2)),
        "ValueFunction": mdplab.ValueFunction([1.0, 2.0]),
        "QTable": mdplab.QTable(np.eye(2)),
        "LearningRateSchedule.harmonic": schedule,
        "LearningRateSchedule.constant": mdplab.LearningRateSchedule.constant(0.5),
        "LearningRateSchedule.from_table": mdplab.LearningRateSchedule.from_table([0.5]),
        "QLearnConfig": mdplab.QLearnConfig(schedule, 100, start="s0"),
        "UtilityFilter": level.filter,
        "RewardLevel": level,
        "RewardHierarchy": mdplab.RewardHierarchy((level,)),
    }


def test_every_input_type_has_a_valid_instance_below():
    # the input types are the exported dataclasses that check themselves
    exported = {obj for obj in vars(mdplab).values() if isinstance(obj, type)
                and dataclasses.is_dataclass(obj) and hasattr(obj, "__post_init__")}
    assert {type(valid) for valid in _valid_inputs().values()} == exported


@pytest.mark.parametrize("label, name", [
    (label, f.name) for label, valid in _valid_inputs().items()
    for f in dataclasses.fields(valid) if f.init])
def test_every_field_of_every_input_type_is_checked(label, name):
    # a junk value in any init field is rejected where the instance is built,
    # here by dataclasses.replace, with a ValidationError (or a subclass)
    with pytest.raises(mdplab.ValidationError):
        dataclasses.replace(_valid_inputs()[label], **{name: object()})


def test_only_make_mdp_builds_an_mdp():
    # Mdp.__post_init__ checks an MDP's dynamics: make_mdp holds the package's
    # one Mdp(...) call, no dataclasses.replace copies an Mdp, and a new reward
    # table or a scaled one goes through Mdp._copy, the one unchecked copy
    mdp_fields = {f.name for f in dataclasses.fields(mdplab.Mdp)}
    builders, copies, replaced = [], [], []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        builders += [(path.name, owner) for owner in _owners(path, lambda node: isinstance(
            node, ast.Call) and getattr(node.func, "id", None) == "Mdp")]
        copies += [(path.name, owner) for owner in _owners(path, lambda node: isinstance(
            node, ast.Attribute) and node.attr == "__new__")]
        replaced += [(path.name, call.lineno) for call in _calls(tree, "replace")
                     if isinstance(call.func, ast.Name)
                     and mdp_fields & {kw.arg for kw in call.keywords}]
    assert builders == [("mdp.py", "make_mdp")]
    assert copies == [("mdp.py", "_copy")]
    assert replaced == []
    tree = ast.parse((PACKAGE / "mdp.py").read_text(encoding="utf-8"))
    assert _calls(tree, "replace") == []


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
