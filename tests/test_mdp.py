"""Validation, sampling, policy evaluation and the shared numeric rules of the core MDP module."""

import ctypes
import json
import os
import re
import subprocess
import sys
import threading
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from mdplab import (
    GammaRangeError,
    LearningRateSchedule,
    Mdp,
    MissingEntryError,
    NonFiniteRewardError,
    Policy,
    QLearnConfig,
    RewardHierarchy,
    RewardLevel,
    RowSumError,
    SchemaError,
    SingularSystemError,
    UnknownActionError,
    UnknownStateError,
    UtilityFilter,
    ValidationError,
    ValueFunction,
    ValueOverflowError,
    bellman_backup,
    compare_policies,
    egoism_vs_humanity,
    evaluate,
    gradient_ascent,
    make_mdp,
    mdp_to_dict,
    policy_evaluate,
    policy_iteration,
    policy_probs,
    q_from_v,
    q_learning_run,
    random_mdp,
    stay_go_dynamics,
    stay_go_mdp,
    step,
    sweep_weights,
    validate_mdp,
    value_iteration,
    verify_deterministic_optimality,
    with_rewards,
)
import mdplab.mdp
from mdplab.mdp import (ONE_THREAD_N, argmax_sets, as_count, as_integer, as_number, expectations,
                        per_stack, solve_system)
from mdplab.qlearn import OPTIMAL_SET_TOL
from mdplab.rewards import ARGMAX_TOL

SRC = str(Path(mdplab.mdp.__file__).resolve().parents[1])
# sha256 of the bits of V*, pi* and max_excess on MDPs at and just below ONE_THREAD_N states
ORACLE_DIGEST = """
import hashlib, numpy as np
from mdplab import policy_iteration, random_mdp, verify_deterministic_optimality
digest = hashlib.sha256()
for n_s in (99, 100, 150):
    solution = policy_iteration(random_mdp(n_s, 4, 0.95, np.random.default_rng(n_s)))
    digest.update(solution.v_star.values.tobytes() + solution.pi_star.actions.tobytes())
mdp = random_mdp(100, 4, 0.9, np.random.default_rng(1))
report = verify_deterministic_optimality(mdp, 200, np.random.default_rng(2))
digest.update(np.float64(report.max_excess).tobytes())
print(digest.hexdigest())
"""


def one_state_doc(gamma=0.9, reward=1.0, self_loop=1.0):
    return {
        "states": ["s0"],
        "actions": ["a0"],
        "gamma": gamma,
        "transitions": {"s0": {"a0": {"s0": self_loop}}},
        "rewards": {"s0": {"a0": reward}},
    }


class TestValidateMdp:
    def test_one_state_self_loop_is_valid(self):
        mdp = validate_mdp(one_state_doc())
        assert mdp.states == ("s0",)
        assert mdp.reward_bound == 1.0
        assert mdp.transitions[0, 0, 0] == 1.0

    def test_row_sum_outside_tolerance(self):
        with pytest.raises(RowSumError):
            validate_mdp(one_state_doc(self_loop=0.999))

    def test_gamma_one_is_rejected(self):
        with pytest.raises(GammaRangeError):
            validate_mdp(one_state_doc(gamma=1.0))

    @pytest.mark.parametrize("gamma", [-0.1, 2, float("nan"), "0.5", None])
    def test_bad_gammas(self, gamma):
        with pytest.raises(GammaRangeError):
            validate_mdp(one_state_doc(gamma=gamma))

    def test_unknown_top_level_key(self):
        doc = one_state_doc()
        doc["horizon"] = 10
        with pytest.raises(SchemaError, match="horizon"):
            validate_mdp(doc)

    def test_missing_top_level_key(self):
        doc = one_state_doc()
        del doc["rewards"]
        with pytest.raises(SchemaError, match="rewards"):
            validate_mdp(doc)

    def test_per_successor_rewards_are_rejected(self):
        doc = one_state_doc()
        doc["rewards"]["s0"]["a0"] = {"s0": 1.0}
        with pytest.raises(SchemaError, match="single number"):
            validate_mdp(doc)

    def test_missing_transition_row(self):
        doc = one_state_doc()
        doc["transitions"]["s0"] = {}
        with pytest.raises(MissingEntryError):
            validate_mdp(doc)

    def test_missing_reward_entry(self):
        doc = one_state_doc()
        doc["rewards"]["s0"] = {}
        with pytest.raises(MissingEntryError):
            validate_mdp(doc)

    @pytest.mark.parametrize("reward", [float("inf"), float("nan")])
    def test_non_finite_reward(self, reward):
        with pytest.raises(NonFiniteRewardError):
            validate_mdp(one_state_doc(reward=reward))

    @pytest.mark.parametrize(
        "mangle",
        [
            lambda d: d.__setitem__("states", "s0"),
            lambda d: d.__setitem__("states", ["s0", "s0"]),
            lambda d: d.__setitem__("transitions", [1.0]),
            lambda d: d["transitions"]["s0"].__setitem__("a0", {"s0": "1.0"}),
            lambda d: d["transitions"]["s0"].__setitem__("a0", {"s0": True}),
            lambda d: d["rewards"]["s0"].__setitem__("a0", "cheese"),
            lambda d: d["transitions"].__setitem__("sX", {}),
            lambda d: d["transitions"]["s0"]["a0"].__setitem__("sX", 0.0),
        ],
    )
    def test_malformed_documents_raise_validation_errors(self, mangle):
        # Validation is total: junk input must never escape as a bare TypeError.
        doc = one_state_doc()
        mangle(doc)
        with pytest.raises(ValidationError):
            validate_mdp(doc)

    def test_entries_above_one_are_rejected(self):
        doc = one_state_doc()
        doc["states"] = ["s0", "s1"]
        doc["transitions"] = {
            "s0": {"a0": {"s0": 1.5, "s1": -0.5}},
            "s1": {"a0": {"s1": 1.0}},
        }
        doc["rewards"] = {"s0": {"a0": 0.0}, "s1": {"a0": 0.0}}
        with pytest.raises(RowSumError):
            validate_mdp(doc)

    @pytest.mark.parametrize("entry, message", [
        (1, None),
        (1.0, None),
        (True, "must be a number"),
        ("0.5", "must be a number"),
        (None, "must be a number"),
        ([0.5], "must be a number"),
        (10**400, "is too large for a float"),
    ])
    def test_transition_entries_follow_the_number_rule(self, entry, message):
        # a plain float skips as_number; every other entry still goes through it
        doc = one_state_doc(self_loop=entry)
        if message is None:
            mdp = validate_mdp(doc)
            assert mdp.transitions[0, 0, 0] == 1.0 and mdp.transitions.dtype == float
            return
        where = "transitions['s0']['a0']['s0']"
        with pytest.raises(RowSumError, match=re.escape(f"{where} {message}")):
            validate_mdp(doc)


BAD_REWARD_TABLES = {
    "string": [["0", 1.0], [0.0, 0.0]],
    "bool": np.ones((2, 2), dtype=bool),
    "ragged": [[0.0, 1.0], [0.0]],
    "wrong-shape": np.zeros((2, 3)),
    "nan": [[np.nan, 0.0], [0.0, 0.0]],
    "inf": [[0.0, 0.0], [-np.inf, 0.0]],
}


class TestRewardTable:
    def test_a_new_table_shares_the_transitions(self, stay_go):
        mdp = with_rewards(stay_go, [[0, -3], [1, 2]])
        assert mdp.transitions is stay_go.transitions
        assert mdp.rewards.dtype == float and not mdp.rewards.flags.writeable
        assert mdp.reward_bound == 3.0 == np.abs(mdp.rewards).max()
        assert stay_go.reward_bound == 1.0

    @pytest.mark.parametrize("table", BAD_REWARD_TABLES.values(), ids=BAD_REWARD_TABLES)
    def test_every_path_to_a_table_follows_one_rule(self, stay_go, table):
        grid = (stay_go.states, stay_go.actions, stay_go.gamma, stay_go.transitions)
        with pytest.raises(ValidationError) as made:
            make_mdp(*grid, table)
        for build in (lambda: with_rewards(stay_go, table), lambda: Mdp(*grid, table)):
            with pytest.raises(type(made.value), match=re.escape(str(made.value))):
                build()

    def test_the_bound_is_derived_not_passed(self, stay_go):
        with pytest.raises(TypeError):
            Mdp(stay_go.states, stay_go.actions, 0.5, stay_go.transitions, stay_go.rewards, 9.0)


BAD_DYNAMICS = {
    "states-empty": {"states": ()},
    "states-duplicate": {"states": ("s0", "s0")},
    "actions-not-names": {"actions": ("stay", 1)},
    "gamma-one": {"gamma": 1.0},
    "gamma-five": {"gamma": 5.0},
    "gamma-string": {"gamma": "0.5"},
    "transitions-shape": {"transitions": np.full((2, 2, 1), 1.0)},
    "transitions-strings": {"transitions": [[["1", "0"]] * 2] * 2},
    "transitions-nan": {"transitions": np.full((2, 2, 2), np.nan)},
    "transitions-range": {"transitions": np.tile([2.0, -1.0], (2, 2, 1))},
    "transitions-row-sum": {"transitions": np.full((2, 2, 2), 0.7)},
}


class TestMdpConstruction:
    # the constructor, make_mdp and dataclasses.replace share the checks in
    # Mdp.__post_init__
    @pytest.mark.parametrize("change", BAD_DYNAMICS.values(), ids=BAD_DYNAMICS)
    def test_every_path_to_an_mdp_follows_one_rule(self, stay_go, change):
        fields = {name: getattr(stay_go, name)
                  for name in ("states", "actions", "gamma", "transitions", "rewards")}
        fields.update(change)
        with pytest.raises(ValidationError) as made:
            make_mdp(**fields)
        for build in (lambda: Mdp(**fields), lambda: replace(stay_go, **change)):
            with pytest.raises(type(made.value), match=re.escape(str(made.value))):
                build()

    def test_a_row_sum_error_prints_a_plain_float(self, stay_go):
        with pytest.raises(RowSumError, match=re.escape(
                "transition row ('s0', 'stay') sums to 1.4, not 1 within 1e-09")):
            replace(stay_go, transitions=np.full((2, 2, 2), 0.7))

    def test_the_constructor_keeps_normalized_copies(self, stay_go):
        transitions = stay_go.transitions.astype(int).tolist()
        mdp = Mdp(["s0", "s1"], ["stay", "go"], np.float32(0.5), transitions, [[0, 0], [1, 0]])
        assert mdp.states == ("s0", "s1") and mdp.actions == ("stay", "go")
        assert type(mdp.gamma) is float and mdp.gamma == 0.5
        for arr in (mdp.transitions, mdp.rewards):
            assert arr.dtype == float and not arr.flags.writeable
        assert mdp_to_dict(mdp) == mdp_to_dict(stay_go) == mdp_to_dict(replace(mdp))


class TestLabeled:
    def test_an_action_index_off_the_grid_is_rejected(self, stay_go):
        with pytest.raises(ValidationError, match="out-of-range action"):
            Policy.deterministic(np.array([0, 5])).as_dict(stay_go)

    def test_a_short_policy_is_rejected(self, stay_go):
        with pytest.raises(ValidationError, match="every state"):
            Policy.deterministic(np.array([0])).as_dict(stay_go)

    def test_a_short_value_array_is_rejected(self, stay_go):
        with pytest.raises(ValidationError, match=re.escape("shape (1,) does not fit")):
            ValueFunction([1.0]).as_dict(stay_go)


class _FixedDraw(np.random.Generator):
    """A Generator whose every uniform is ``u``."""

    def __init__(self, u):
        super().__init__(np.random.PCG64(0))
        self.u = u

    def random(self, *args, **kwargs):
        return self.u


class TestStep:
    def test_deterministic_transition_ignores_seed(self, stay_go):
        for seed in range(5):
            r, nxt = step(stay_go, "s0", "go", np.random.default_rng(seed))
            assert (r, nxt) == (0.0, "s1")

    def test_two_outcome_frequency(self):
        doc = one_state_doc()
        doc["states"] = ["s0", "s1"]
        doc["transitions"] = {
            "s0": {"a0": {"s0": 0.5, "s1": 0.5}},
            "s1": {"a0": {"s1": 1.0}},
        }
        doc["rewards"] = {"s0": {"a0": 0.0}, "s1": {"a0": 0.0}}
        mdp = validate_mdp(doc)
        gen = np.random.default_rng(42)
        hits = sum(step(mdp, "s0", "a0", gen)[1] == "s1" for _ in range(10_000))
        assert abs(hits / 10_000 - 0.5) < 0.02

    def test_unknown_action(self, stay_go):
        with pytest.raises(UnknownActionError):
            step(stay_go, "s0", "jump", np.random.default_rng(0))

    def test_unknown_state(self, stay_go):
        with pytest.raises(UnknownStateError):
            step(stay_go, "s9", "go", np.random.default_rng(0))

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_successor_is_the_clamped_inverse_cdf(self, data):
        # the rule step replaced: search the full cumulative row, then clamp
        # an index past the last state back onto it
        n = data.draw(st.integers(1, 8))
        weights = data.draw(st.lists(st.just(0.0) | st.floats(0.0, 1.0), min_size=n, max_size=n))
        if sum(weights) == 0.0:
            weights[data.draw(st.integers(0, n - 1))] = 1.0
        scale = data.draw(st.sampled_from([1.0, 1.0 - 1e-10]))
        row = np.array(weights) / sum(weights) * scale
        states = [f"s{k}" for k in range(n)]
        mdp = make_mdp(states, ["a"], 0.5, np.tile(row, (n, 1, 1)), np.zeros((n, 1)))
        cum = np.cumsum(mdp.transitions[0, 0])
        top = 1.0 - 2.0**-53  # the largest uniform below 1
        u = data.draw(st.floats(0.0, 1.0, exclude_max=True) | st.just(top)
                      | st.sampled_from(cum.tolist()).map(lambda c: min(c, top)))
        expected = min(int(np.searchsorted(cum, u, side="right")), n - 1)
        assert step(mdp, "s0", "a", _FixedDraw(u))[1] == states[expected]

    @pytest.mark.parametrize("rng", [None, np.random.RandomState(0)], ids=["None", "RandomState"])
    def test_rng_must_be_a_generator(self, stay_go, rng):
        with pytest.raises(ValidationError, match="rng"):
            step(stay_go, "s0", "go", rng)


class TestNumberRules:
    @pytest.mark.parametrize("value", [3, 0.5, np.int64(1), np.uint8(2), np.float32(0.25)])
    def test_python_and_numpy_numbers_are_numbers(self, value):
        assert as_number(value, "x") == float(value)
        assert type(as_number(value, "x")) is float

    @pytest.mark.parametrize("value", [True, np.bool_(True), "1", None, [1.0]])
    def test_bools_strings_and_others_are_not(self, value):
        with pytest.raises(SchemaError, match="x must be a number"):
            as_number(value, "x")

    @pytest.mark.parametrize("value", [3, np.int64(3), np.uint8(3)])
    def test_python_and_numpy_integers_are_integers(self, value):
        assert as_integer(value, "n") == 3
        assert type(as_integer(value, "n")) is int

    @pytest.mark.parametrize("value", [3.0, 2.7, np.float64(3.0), True, np.bool_(True), "3", None])
    def test_floats_bools_and_strings_are_not_integers(self, value):
        with pytest.raises(ValidationError, match="n must be an integer"):
            as_integer(value, "n")

    @pytest.mark.parametrize("call", [
        lambda: LearningRateSchedule.harmonic("0.5"),
        lambda: LearningRateSchedule.harmonic(True),
        lambda: LearningRateSchedule.harmonic(None),
        lambda: LearningRateSchedule.constant("0.5"),
        lambda: LearningRateSchedule.from_table("0.5"),
        lambda: LearningRateSchedule.from_table([0.5, None]),
        lambda: value_iteration(stay_go_mdp(), "1e-8"),
        lambda: sweep_weights(*egoism_vs_humanity(), 1, [True, "2"]),
        lambda: gradient_ascent(stay_go_mdp(), np.zeros((2, 2)), "0.1", 3),
        lambda: LearningRateSchedule.from_table(None),
        lambda: RewardLevel("x", [["a"]], 1.0),
        lambda: gradient_ascent(stay_go_mdp(), "ab", 0.1, 2),
        lambda: make_mdp(["s0"], ["a0"], 0.5, [[["1"]]], [[0.0]]),
        lambda: bellman_backup(stay_go_mdp(), ["1", "2"]),
        lambda: q_from_v(stay_go_mdp(), [None, 2.0]),
        lambda: UtilityFilter(((0, 0), (1, 1))).apply("0.5"),
        lambda: with_rewards(stay_go_mdp(), [[True, 0.0], [0.0, 0.0]]),
        lambda: Policy.stochastic([[True, 0.0], [0.5, 0.5]]),
        lambda: Policy.deterministic([True, 0]),
        lambda: Policy.stochastic([np.array([True, False]), [0.5, 0.5]]),
        lambda: Policy.deterministic(np.array([2**63], dtype=np.uint64)),
    ], ids=["harmonic-str", "harmonic-bool", "harmonic-none", "constant-str",
            "table-str", "table-none", "epsilon-str", "grid-bool", "step-size-str",
            "table-not-a-sequence", "level-table-str", "theta0-str", "transitions-str",
            "backup-v-str", "lookahead-v-none", "filter-input-str", "rewards-bool-beside-floats",
            "stochastic-bool-beside-floats", "deterministic-bool-beside-int",
            "bool-row-beside-floats", "deterministic-uint64-above-int64"])
    def test_library_numbers_follow_the_number_rule(self, call):
        with pytest.raises(ValidationError, match="must be a number"):
            call()

    @pytest.mark.parametrize("actions, wide", [
        ([-1, 2**63], 2**63),  # numpy reads this list as float64
        ([2**64], 2**64),  # and this one as objects
        ([0, -2**63 - 1], -2**63 - 1),
        ([2**63], 2**63),  # uint64
    ])
    def test_integers_past_int64_name_the_range(self, actions, wide):
        with pytest.raises(ValidationError, match=re.escape(
                f"policy actions must be a number in the int64 range; {wide} is out of range")):
            Policy.deterministic(actions)

    @pytest.mark.parametrize("actions", [[0.0, 1.0], np.array([0.5, 1.0]), []])
    def test_deterministic_actions_must_be_integers(self, actions):
        with pytest.raises(ValidationError, match="policy actions must be an integer"):
            Policy.deterministic(actions)

    @pytest.mark.parametrize("v", [[1.0, 2.0, 3.0], [[1.0, 2.0]], 1.0])
    def test_a_value_array_must_fit_the_states(self, stay_go, v):
        for lookahead in (q_from_v, bellman_backup):
            with pytest.raises(ValidationError, match=re.escape("v must have shape (2,)")):
                lookahead(stay_go, v)

    @pytest.mark.parametrize("call", [
        lambda: gradient_ascent(stay_go_mdp(), np.zeros((2, 2)), 0.1, 2.7),
        lambda: gradient_ascent(stay_go_mdp(), np.zeros((2, 2)), 0.1, True),
        lambda: verify_deterministic_optimality(stay_go_mdp(), 2.9, np.random.default_rng(0)),
        lambda: sweep_weights(*egoism_vs_humanity(), 0.5, [1.0]),
    ], ids=["iters-float", "iters-bool", "trials-float", "level-float"])
    def test_library_counts_are_never_truncated(self, call):
        with pytest.raises(ValidationError, match="must be an integer"):
            call()

    @pytest.mark.parametrize("name, call", [
        ("iters", lambda: gradient_ascent(stay_go_mdp(), np.zeros((2, 2)), 0.1, 0)),
        ("trials", lambda: verify_deterministic_optimality(stay_go_mdp(), 0,
                                                           np.random.default_rng(0))),
        ("n_states", lambda: random_mdp(0, 2, 0.9, np.random.default_rng(0))),
        ("n_actions", lambda: random_mdp(2, 0, 0.9, np.random.default_rng(0))),
        ("steps", lambda: QLearnConfig(LearningRateSchedule.harmonic(1.0), steps=0)),
        ("checkpoint_every", lambda: QLearnConfig(LearningRateSchedule.harmonic(1.0), steps=10,
                                                  checkpoint_every=0)),
    ])
    def test_library_counts_follow_the_count_rule(self, name, call):
        with pytest.raises(ValidationError, match=f"^{name} must be >= 1, got 0$"):
            call()
        assert as_count(np.int64(3), "x") == 3 and type(as_count(np.int64(3), "x")) is int

    def test_library_takes_numpy_scalars(self, stay_go):
        _, js = gradient_ascent(stay_go, np.zeros((2, 2)), 0.1, np.int64(3))
        assert len(js) == 4
        report = verify_deterministic_optimality(stay_go, np.int64(3), np.random.default_rng(0))
        assert report.trials == 3 and type(report.trials) is int
        assert LearningRateSchedule.harmonic(np.float32(0.5)).p == 0.5


class TestPolicyConstruction:
    # the constructor, the two factories and dataclasses.replace share the
    # checks in Policy.__post_init__
    @pytest.mark.parametrize("build, match", [
        (lambda: Policy("stochastic", probs=[[2, -1], [0.5, 0.5]]), r"must lie in \[0, 1\]"),
        (lambda: Policy("deterministic", actions=[0, -1]), "must be nonnegative"),
        (lambda: Policy("greedy", actions=[0, 1]), "got kind 'greedy'"),
        (lambda: Policy("stochastic"), "policy probabilities must be a number"),
        (lambda: Policy("deterministic", actions=[0, 1], probs=np.eye(2)),
         "'deterministic' with actions only"),
        (lambda: replace(Policy.deterministic([0, 1]), actions=[0, -1]), "must be nonnegative"),
        (lambda: replace(Policy.stochastic(np.eye(2)), kind="deterministic"),
         "got kind 'deterministic'"),
    ], ids=["stochastic-out-of-range", "deterministic-negative", "unknown-kind",
            "stochastic-no-probs", "both-arrays", "replace-negative", "replace-kind"])
    def test_every_construction_is_checked(self, build, match):
        with pytest.raises(ValidationError, match=match):
            build()

    def test_the_constructor_keeps_read_only_copies(self):
        actions, probs = [1, 0], [[0.25, 0.75], [1, 0]]
        for policy, field, dtype in [(Policy("deterministic", actions=actions), "actions", np.int64),
                                     (Policy("stochastic", probs=probs), "probs", np.float64)]:
            arr = getattr(policy, field)
            assert arr.dtype == dtype and not arr.flags.writeable
            assert getattr(replace(policy), field).tobytes() == arr.tobytes()
        assert Policy.deterministic(actions).actions.tolist() == actions
        assert Policy.stochastic(probs).probs.tolist() == probs


class TestArgmaxSets:
    def test_zero_tolerance_keeps_exact_ties_only(self):
        q = np.array([[1.0, 1.0, np.nextafter(1.0, 0.0)], [0.0, -1.0, 0.0]])
        assert argmax_sets(q, 0.0).tolist() == [[True, True, False], [True, False, True]]

    def test_the_two_fixed_tolerances_differ_on_a_near_tie(self):
        q = np.array([[1.0, 1.0 - 1e-8], [2.0, 0.0]])
        assert argmax_sets(q, OPTIMAL_SET_TOL).tolist() == [[True, False], [True, False]]
        assert argmax_sets(q, ARGMAX_TOL).tolist() == [[True, True], [True, False]]

    @pytest.mark.parametrize("scale", [1.0, 1e-6, 1e-8, 1e-10])
    def test_scaling_rewards_down_keeps_the_divergence(self, scale):
        # the cut is relative to the spread of Q*, so small rewards do not tie every action
        dynamics = stay_go_dynamics(0.9)
        ra = np.random.default_rng(0).normal(size=(2, 2))
        assert compare_policies(dynamics, ra, -scale * ra).divergence == 0.5

    def test_a_large_shift_keeps_exact_ties(self):
        # the best reward is 1 in every state, so V* is constant and both
        # actions of s1 tie exactly; at Q near 1e10 the solve's roundoff is
        # above 1e-7 of the spread, and only the cut's rounding floor keeps the tie
        dynamics = random_mdp(3, 2, 0.9, np.random.default_rng(20))
        table = np.array([[0.0, 1.0], [1.0, 1.0], [1.0, 0.0]])
        for shift in (0.0, 1e9):
            q = policy_iteration(with_rewards(dynamics, table + shift)).q_star.values
            assert argmax_sets(q, ARGMAX_TOL).tolist() == [[False, True], [True, True],
                                                           [True, False]]

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(-200, 200))
    def test_power_of_two_scalings_keep_every_set(self, seed, k):
        # a power-of-two scale moves only the exponents of every Q entry, so
        # divergence, a sweep and a Q-learning checkpoint see the same sets
        gen = np.random.default_rng(seed)
        n_s, n_a = int(gen.integers(2, 5)), int(gen.integers(2, 4))
        dynamics = random_mdp(n_s, n_a, 0.9, gen)
        a, b = gen.integers(0, 3, size=(2, n_s, n_a)).astype(float)  # small, often tied
        config = QLearnConfig(schedule=LearningRateSchedule.harmonic(0.7), steps=400,
                              seed=seed, checkpoint_every=100)

        def sets(scale):
            level_a, level_b = RewardLevel("a", a * scale, 1.0), RewardLevel("b", b * scale, 0.0)
            mdp = with_rewards(dynamics, a * scale)
            trace = q_learning_run(mdp, config, policy_iteration(mdp))
            return (compare_policies(dynamics, a * scale, b * scale).as_dict(),
                    sweep_weights(dynamics, RewardHierarchy((level_a, level_b)), 1, [0.5, 1.0, 3.0]),
                    [cp.greedy_match.tolist() for cp in trace.checkpoints])

        assert sets(np.ldexp(1.0, k)) == sets(1.0)


class TestSolveSystem:
    def test_a_stack_solves_each_system(self, rng):
        systems = rng.normal(size=(4, 5, 5)) + 5.0 * np.eye(5)
        rhs = rng.normal(size=(4, 5))
        stacked = solve_system(systems, rhs, "test")
        for system, b, x in zip(systems, rhs, stacked):
            assert np.array_equal(solve_system(system, b, "test"), x)
            assert_allclose(system @ x, b, atol=1e-12)

    def test_a_singular_system_is_named(self):
        with pytest.raises(SingularSystemError, match="test system is singular"):
            solve_system(np.ones((3, 2, 2)), np.ones((3, 2)), "test")

    def test_oracle_bits_do_not_depend_on_the_openblas_thread_count(self):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [SRC, os.environ.get("PYTHONPATH")])))
        digests = {
            threads: subprocess.run(
                [sys.executable, "-c", ORACLE_DIGEST], env={**env, "OPENBLAS_NUM_THREADS": threads},
                capture_output=True, text=True, check=True, timeout=120).stdout
            for threads in ("1", "2")
        }
        assert len(digests["1"].strip()) == 64 and digests["1"] == digests["2"]


@pytest.fixture
def blas_threads(monkeypatch):
    """The bundled OpenBLAS thread count, set to 2 for the test and restored
    after it; each call of the LAPACK gufunc under solve_system records (n,
    thread count) in ``blas_threads.seen``.  Skips under another BLAS."""
    lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    get = getattr(lib, "scipy_openblas_get_num_threads64_", None) or getattr(
        lib, "openblas_get_num_threads", None)
    put = getattr(lib, "openblas_set_num_threads_local", None)
    if get is None or put is None:
        pytest.skip("numpy's BLAS is not the bundled OpenBLAS")
    get.argtypes, get.restype = [], ctypes.c_int
    put.argtypes, put.restype = [ctypes.c_int], ctypes.c_int
    seen, solve1 = [], np.linalg._umath_linalg.solve1

    def recording_solve(a, b, **kwargs):
        seen.append((a.shape[-1], get()))
        return solve1(a, b, **kwargs)

    monkeypatch.setattr(np.linalg._umath_linalg, "solve1", recording_solve)
    caller = put(2)
    try:
        yield SimpleNamespace(get=get, seen=seen)
    finally:
        put(caller)


class TestOneBlasThread:
    # solve_system runs systems of ONE_THREAD_N or more unknowns on one OpenBLAS
    # thread and gives the caller back its own thread count
    def test_large_solves_run_on_one_thread_and_restore_the_count(self, blas_threads):
        gen = np.random.default_rng(3)
        for n_s in (ONE_THREAD_N - 1, ONE_THREAD_N, 150):
            policy_iteration(random_mdp(n_s, 4, 0.9, gen))
            assert blas_threads.get() == 2
        assert {n for n, _ in blas_threads.seen} == {ONE_THREAD_N - 1, ONE_THREAD_N, 150}
        assert all(threads == (1 if n >= ONE_THREAD_N else 2)
                   for n, threads in blas_threads.seen)

    def test_a_singular_system_restores_the_count(self, blas_threads):
        with pytest.raises(SingularSystemError):
            solve_system(np.ones((ONE_THREAD_N, ONE_THREAD_N)), np.ones(ONE_THREAD_N), "test")
        assert blas_threads.seen == [(ONE_THREAD_N, 1)]
        assert blas_threads.get() == 2

    def test_concurrent_solves_restore_the_count(self, blas_threads):
        # the thread count is process-wide: without a lock one thread's restore
        # lands while another still solves, and the last restore can leave 1
        gen = np.random.default_rng(4)
        systems = gen.normal(size=(2, 120, 120)) + 120.0 * np.eye(120)
        rhs = gen.normal(size=(2, 120))
        expected = solve_system(systems, rhs, "test")
        results = []

        def solve_many():
            results.extend(solve_system(systems, rhs, "test").tobytes() for _ in range(25))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=solve_many) for _ in range(4)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert results == [expected.tobytes()] * 100
        assert blas_threads.get() == 2
        assert {threads for _, threads in blas_threads.seen} == {1}


def test_scaled_copy_equals_a_checked_copy_of_the_scaled_table():
    mdp = with_rewards(stay_go_mdp(0.9), [[3.0, -2.0 ** -1070], [0.0, -7.5]])
    for shift in (0, 3, 60):
        scaled, checked = mdp.scaled(shift), with_rewards(mdp, np.ldexp(mdp.rewards, -shift))
        assert scaled.rewards.tobytes() == checked.rewards.tobytes()
        assert scaled.reward_bound == checked.reward_bound
        assert not scaled.rewards.flags.writeable
        assert scaled.transitions is mdp.transitions and mdp.rewards[0, 0] == 3.0


@pytest.mark.parametrize("counts", [(2.0, 2), (2, 2.0), ("3", 2), (True, 2)])
def test_random_mdp_counts_must_be_integers(counts):
    with pytest.raises(ValidationError, match="must be an integer"):
        random_mdp(*counts, 0.9, np.random.default_rng(0))


@pytest.mark.parametrize("counts, name", [((-1, 2), "n_states"), ((0, 2), "n_states"),
                                          ((2, 0), "n_actions"), ((3, -4), "n_actions")])
def test_random_mdp_counts_must_be_positive(counts, name):
    with pytest.raises(ValidationError, match=f"{name} must be >= 1"):
        random_mdp(*counts, 0.9, np.random.default_rng(0))


@pytest.mark.parametrize("rng", [None, 5, np.random.RandomState(0)], ids=["none", "int", "legacy"])
def test_random_streams_must_be_generators(stay_go, rng):
    for draw in (lambda: random_mdp(2, 2, 0.9, rng),
                 lambda: verify_deterministic_optimality(stay_go, 3, rng)):
        with pytest.raises(ValidationError, match="rng must be a numpy.random.Generator"):
            draw()


def test_random_mdp_takes_numpy_integer_counts():
    made = [random_mdp(n_s, n_a, 0.9, np.random.default_rng(1))
            for n_s, n_a in ((np.int64(4), np.int32(3)), (4, 3))]
    assert mdp_to_dict(made[0]) == mdp_to_dict(made[1])


class TestPolicyEvaluate:
    def test_self_loop_geometric_series(self):
        mdp = validate_mdp(one_state_doc(gamma=0.9, reward=1.0))
        v = policy_evaluate(mdp, Policy.deterministic(np.array([0])))
        assert_allclose(v.values, [10.0], atol=1e-9)

    def test_zero_rewards_evaluate_to_zero(self, rng):
        mdp = with_rewards(random_mdp(6, 3, 0.9, rng), np.zeros((6, 3)))
        v = policy_evaluate(mdp, Policy.deterministic(np.zeros(6, dtype=int)))
        assert_allclose(v.values, 0.0, atol=1e-12)

    def test_stay_everywhere_on_stay_go(self, stay_go):
        v = policy_evaluate(stay_go, Policy.deterministic(np.array([0, 0])))
        assert_allclose(v.values, [0.0, 2.0], atol=1e-9)

    def test_residual_below_contract(self, rng):
        from mdplab.mdp import expectations, policy_probs

        for _ in range(10):
            mdp = random_mdp(12, 4, 0.95, rng)
            pol = Policy.stochastic(rng.dirichlet(np.ones(4), size=12))
            v = policy_evaluate(mdp, pol).values
            r_pi, p_pi = expectations(mdp, policy_probs(mdp, pol))
            assert np.abs(v - (r_pi + mdp.gamma * p_pi @ v)).max() < 1e-9

    def test_bound_on_random_mdps(self, rng):
        for _ in range(20):
            n_s = int(rng.integers(1, 21))
            n_a = int(rng.integers(1, 6))
            mdp = random_mdp(n_s, n_a, float(rng.choice([0.5, 0.9, 0.95])), rng)
            pol = Policy.stochastic(rng.dirichlet(np.ones(n_a), size=n_s))
            v = policy_evaluate(mdp, pol).values
            assert np.abs(v).max() <= mdp.reward_bound / (1.0 - mdp.gamma) + 1e-9

    @pytest.mark.parametrize("probs", [[[1, 0], [1, 0]], np.full((3, 2), 0.5), np.ones(2),
                                       np.ones((2, 2, 3)), np.float64(1.0)])
    def test_probs_must_be_an_array_ending_in_states_and_actions(self, stay_go, probs):
        with pytest.raises(ValidationError, match="probs must be an ndarray"):
            evaluate(stay_go, probs)

    def test_stack_evaluates_each_policy(self, rng):
        mdp = random_mdp(7, 3, 0.9, rng)
        probs = rng.dirichlet(np.ones(3), size=(4, 7))
        stacked = evaluate(mdp, probs)
        assert stacked.shape == (4, 7)
        for k in range(4):
            assert_allclose(stacked[k], evaluate(mdp, probs[k]), rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("n_s, n_a", [(20, 5), (100, 4), (257, 2)])
    def test_sub_stacks_match_one_policy_at_a_time_bit_for_bit(self, monkeypatch, n_s, n_a):
        # a stack's P_pi is built and solved at most STACK_BYTES at a time; at
        # 257 states one system alone passes the budget
        gen = np.random.default_rng(n_s)
        mdp = random_mdp(n_s, n_a, 0.9, gen)
        size = per_stack(8 * n_s * n_s)
        built, build = [], mdplab.mdp.expectations
        monkeypatch.setattr(mdplab.mdp, "expectations",
                            lambda mdp, probs: built.append(probs.shape[:-2]) or build(mdp, probs))
        for count in sorted({1, size - 1, size, size + 1, 200} - {0}):
            probs = gen.dirichlet(np.ones(n_a), size=(count, n_s))
            built.clear()
            stacked = evaluate(mdp, probs)
            whole, rest = divmod(count, size)
            assert built == [(size,)] * whole + [(rest,)] * (rest > 0)
            one_at_a_time = np.stack([evaluate(mdp, p) for p in probs])
            assert stacked.tobytes() == one_at_a_time.tobytes()

    def test_deterministic_policy_is_one_hot(self, rng):
        mdp = random_mdp(5, 3, 0.9, rng)
        acts = np.array([2, 0, 1, 1, 0])
        probs = policy_probs(mdp, Policy.deterministic(acts))
        assert np.array_equal(probs, np.eye(3)[acts])
        with pytest.raises(ValidationError):
            policy_probs(mdp, Policy.deterministic(np.array([0, 0, 0, 0, 3])))

    @pytest.mark.parametrize("sparse", [False, True], ids=["dense", "one-successor"])
    def test_evaluate_is_the_textbook_solve_bit_for_bit(self, sparse):
        # I - gamma P_pi is built in P_pi's buffer; the values must not move by one bit
        gen = np.random.default_rng(29 + sparse)
        for trial in range(40):
            n_s, n_a = int(gen.integers(1, 25)), int(gen.integers(1, 5))
            if sparse:
                transitions = np.zeros((n_s, n_a, n_s))
                for s in range(n_s):
                    for a in range(n_a):
                        transitions[s, a, gen.integers(n_s)] = 1.0
            else:
                transitions = gen.dirichlet(np.ones(n_s), size=(n_s, n_a))
            rewards = [
                np.zeros((n_s, n_a)),  # the sign-of-zero case
                gen.choice([-0.0, 0.0, -1.0, 3.0], size=(n_s, n_a)),
                gen.normal(size=(n_s, n_a)),
            ][trial % 3]
            gamma = (0.0, 0.5, 0.9, 0.999)[trial % 4]
            mdp = make_mdp([f"s{i}" for i in range(n_s)], [f"a{j}" for j in range(n_a)],
                           gamma, transitions, rewards)
            for probs in (gen.dirichlet(np.ones(n_a), size=n_s),
                          np.eye(n_a)[gen.integers(n_a, size=n_s)],
                          gen.dirichlet(np.ones(n_a), size=(3, n_s))):
                before = probs.copy()
                r_pi, p_pi = expectations(mdp, probs)
                textbook = np.linalg.solve(np.eye(n_s) - gamma * p_pi, r_pi[..., None])[..., 0]
                assert evaluate(mdp, probs).tobytes() == textbook.tobytes()
                assert probs.tobytes() == before.tobytes()

    def test_policy_must_cover_states(self, stay_go):
        with pytest.raises(ValidationError):
            policy_evaluate(stay_go, Policy.deterministic(np.array([0])))

    def test_overflowing_values_raise(self):
        # V(s1) = 1.7e308 + 0.9 * V(s0) overflows; evaluate itself returns
        # the infinities, which the dominance check reads as a losing policy
        mdp = with_rewards(stay_go_mdp(0.9), [[0.0, 0.0], [1.7e308, 0.0]])
        policy = Policy.deterministic([1, 0])
        with pytest.raises(ValueOverflowError,
                           match="^values overflow; rewards are too large for gamma 0.9$"):
            policy_evaluate(mdp, policy)
        assert evaluate(mdp, policy_probs(mdp, policy)).tolist() == [np.inf] * 2

    def test_residual_below_contract_on_520_states(self):
        from mdplab.mdp import expectations, policy_probs

        gen = np.random.default_rng(13)
        mdp = random_mdp(520, 2, 0.9, gen)
        pol = Policy.deterministic(gen.integers(0, 2, size=520))
        v = policy_evaluate(mdp, pol).values
        r_pi, p_pi = expectations(mdp, policy_probs(mdp, pol))
        assert np.abs(v - (r_pi + mdp.gamma * p_pi @ v)).max() < 1e-9


def test_containers_are_immutable(stay_go):
    # shared-safely-across-threads contract: backing arrays are locked
    with pytest.raises(ValueError):
        stay_go.transitions[0, 0, 0] = 0.5
    with pytest.raises(ValueError):
        stay_go.rewards[0, 0] = 9.0
    pol = Policy.stochastic(np.full((2, 2), 0.5))
    with pytest.raises(ValueError):
        pol.probs[0, 0] = 1.0
    v = policy_evaluate(stay_go, pol)
    with pytest.raises(ValueError):
        v.values[0] = 1.0


def test_round_trip_is_identical(rng, stay_go):
    for mdp in [stay_go, random_mdp(7, 3, 0.9, rng), random_mdp(1, 1, 0.0, rng)]:
        doc = json.loads(json.dumps(mdp_to_dict(mdp)))
        again = validate_mdp(doc)
        assert again.states == mdp.states
        assert again.actions == mdp.actions
        assert again.gamma == mdp.gamma
        assert np.array_equal(again.transitions, mdp.transitions)
        assert np.array_equal(again.rewards, mdp.rewards)
        assert again.reward_bound == mdp.reward_bound


@settings(max_examples=25, deadline=None)
@given(shift=st.floats(-5.0, 5.0, allow_nan=False))
def test_reward_shift_moves_values_by_geometric_sum(shift):
    gen = np.random.default_rng(7)
    mdp = random_mdp(8, 3, 0.9, gen)
    pol = Policy.stochastic(gen.dirichlet(np.ones(3), size=8))
    base = policy_evaluate(mdp, pol).values
    shifted = policy_evaluate(with_rewards(mdp, mdp.rewards + shift), pol).values
    assert np.abs(shifted - (base + shift / (1.0 - mdp.gamma))).max() < 1e-8


@settings(max_examples=25, deadline=None)
@given(scale=st.floats(1e-3, 1e3, allow_nan=False))
def test_reward_scaling_scales_values(scale):
    gen = np.random.default_rng(11)
    mdp = random_mdp(8, 3, 0.9, gen)
    pol = Policy.stochastic(gen.dirichlet(np.ones(3), size=8))
    base = policy_evaluate(mdp, pol).values
    scaled = policy_evaluate(with_rewards(mdp, scale * mdp.rewards), pol).values
    assert_allclose(scaled, scale * base, rtol=1e-10, atol=1e-300)
