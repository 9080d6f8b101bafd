"""Golden traces: the output bits of q_learning_run, pinned across versions.

``data/qlearn_golden.json`` holds, for every case below, the ``float.hex()``
of each checkpoint error, the per-state greedy-match flags, the final table,
the visit counts and max |Q|, recorded from the scalar reference loop in
``qlearn_reference.py``.  The oracle's action values are stored beside them,
so a change to the exact solvers cannot move these bits, and a digest of each
world's arrays tells a changed world generator apart from a changed loop.

Re-record only when the sampling contract changes on purpose:

    PYTHONPATH=src python tests/test_qlearn_golden.py
"""

import dataclasses
import hashlib
import json
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

from mdplab import (
    LearningRateSchedule,
    QLearnConfig,
    QTable,
    make_mdp,
    policy_iteration,
    q_learning_run,
    random_mdp,
    stay_go_mdp,
)
from qlearn_reference import reference_q_learning_run, trace_bits

GOLDEN_PATH = Path(__file__).parent / "data" / "qlearn_golden.json"

H = LearningRateSchedule.harmonic
C = LearningRateSchedule.constant
TABLE = LearningRateSchedule.from_table([1.0, 0.5, 0.3, 0.2, 0.125])


def _sparse_7x3():
    """7 states x 3 actions with about half the transition entries zero."""
    gen = np.random.default_rng(7)
    t = gen.dirichlet(np.ones(7), size=(7, 3))
    t[gen.random(t.shape) < 0.5] = 0.0
    for s in range(7):
        for a in range(3):
            if not t[s, a].any():
                t[s, a, (s + a + 1) % 7] = 1.0
    t /= t.sum(axis=2, keepdims=True)
    rewards = gen.uniform(-2.0, 2.0, size=(7, 3))
    return make_mdp(tuple(f"s{i}" for i in range(7)), ("a0", "a1", "a2"), 0.8, t, rewards)


WORLDS = {
    "stay_go": lambda: stay_go_mdp(0.5),
    "random50x5": lambda: random_mdp(50, 5, 0.9, np.random.default_rng(50)),
    "sparse7x3": _sparse_7x3,
}

# name: (world, schedule, start, seed, epsilon, steps, checkpoint_every, q_init)
CASES = {
    # more steps than one 2**18-row draw block, and not a checkpoint multiple
    "stay_go_h1_long": ("stay_go", H(1.0), "uniform", 1, 0.2, 271_234, 10_000, 0.0),
    "stay_go_c05": ("stay_go", C(0.5), "uniform", 2, 0.2, 20_000, 1_000, 0.0),
    "stay_go_h075_fixed": ("stay_go", H(0.75), "s1", 3, 0.3, 20_000, 999, 0.0),
    "stay_go_table_qinit": ("stay_go", TABLE, "s0", 4, 0.1, 5_000, 250, 1.5),
    "random50x5_h1": ("random50x5", H(1.0), "uniform", 5, 0.2, 50_000, 5_000, 0.0),
    "random50x5_c05_fixed": ("random50x5", C(0.5), "s7", 6, 0.2, 30_000, 3_000, 0.0),
    "random50x5_h075_qinit": ("random50x5", H(0.75), "uniform", 7, 0.2, 30_000, 7_000, -0.5),
    "random50x5_table_fixed": ("random50x5", TABLE, "s49", 8, 0.5, 20_000, 2_000, 0.0),
    "sparse7x3_h1_explore": ("sparse7x3", H(1.0), "s3", 9, 1.0, 10_000, 100, 2.0),
    "sparse7x3_c05_every1": ("sparse7x3", C(0.5), "uniform", 10, 0.0, 300, 1, 0.0),
    "sparse7x3_h075": ("sparse7x3", H(0.75), "uniform", 11, 0.5, 15_000, 1_500, 0.0),
    "sparse7x3_table_fixed": ("sparse7x3", TABLE, "s0", 12, 0.2, 12_345, 1_000, -1.0),
}


def _digest(mdp):
    h = hashlib.sha256()
    h.update(float(mdp.gamma).hex().encode())
    h.update(np.ascontiguousarray(mdp.transitions).tobytes())
    h.update(np.ascontiguousarray(mdp.rewards).tobytes())
    return h.hexdigest()


def _config(case):
    _, schedule, start, seed, eps, steps, every, q_init = case
    return QLearnConfig(schedule=schedule, steps=steps, seed=seed, epsilon=eps,
                        checkpoint_every=every, q_init=q_init, start=start)


@lru_cache(maxsize=None)
def _golden():
    return json.loads(GOLDEN_PATH.read_text())


@lru_cache(maxsize=None)
def _world(name):
    """The world and an oracle carrying the recorded optimal action values."""
    mdp = WORLDS[name]()
    recorded = _golden()["worlds"][name]
    assert _digest(mdp) == recorded["sha256"], f"world {name} changed"
    q_star = np.array([[float.fromhex(v) for v in row] for row in recorded["q_star"]])
    oracle = dataclasses.replace(policy_iteration(mdp), q_star=QTable(q_star))
    return mdp, oracle


def test_golden_file_covers_every_case():
    assert set(_golden()["runs"]) == set(CASES)
    assert set(_golden()["worlds"]) == set(WORLDS)


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_trace(name):
    case = CASES[name]
    mdp, oracle = _world(case[0])
    trace = q_learning_run(mdp, _config(case), oracle)
    assert trace_bits(trace) == _golden()["runs"][name]


def _record():
    worlds, oracles = {}, {}
    for name, build in WORLDS.items():
        mdp = build()
        oracles[name] = (mdp, policy_iteration(mdp))
        worlds[name] = {
            "sha256": _digest(mdp),
            "q_star": [[v.hex() for v in row]
                       for row in oracles[name][1].q_star.values.tolist()],
        }
    runs = {}
    for name, case in CASES.items():
        mdp, oracle = oracles[case[0]]
        runs[name] = trace_bits(reference_q_learning_run(mdp, _config(case), oracle))
    sections = [
        f" {json.dumps(key)}: {{\n"
        + ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in entries.items())
        + "\n }"
        for key, entries in (("worlds", worlds), ("runs", runs))
    ]
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text("{\n" + ",\n".join(sections) + "\n}\n")


if __name__ == "__main__":
    _record()
