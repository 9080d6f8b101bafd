"""Validation, sampling, policy evaluation and the shared numeric rules of the core MDP module."""

import json
import re
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
    RewardLevel,
    RowSumError,
    SchemaError,
    SingularSystemError,
    UnknownActionError,
    UnknownStateError,
    UtilityFilter,
    ValidationError,
    ValueFunction,
    bellman_backup,
    egoism_vs_humanity,
    evaluate,
    gradient_ascent,
    make_mdp,
    mdp_to_dict,
    policy_evaluate,
    policy_probs,
    q_from_v,
    random_mdp,
    stay_go_mdp,
    step,
    sweep_weights,
    validate_mdp,
    value_iteration,
    verify_deterministic_optimality,
    with_rewards,
)
from mdplab.mdp import as_integer, as_number, expectations, solve_system


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
        assert step(mdp, "s0", "a", SimpleNamespace(random=lambda: u))[1] == states[expected]


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
    ], ids=["harmonic-str", "harmonic-bool", "harmonic-none", "constant-str",
            "table-str", "table-none", "epsilon-str", "grid-bool", "step-size-str",
            "table-not-a-sequence", "level-table-str", "theta0-str", "transitions-str",
            "backup-v-str", "lookahead-v-none", "filter-input-str"])
    def test_library_numbers_follow_the_number_rule(self, call):
        with pytest.raises(ValidationError, match="must be a number"):
            call()

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

    def test_library_takes_numpy_scalars(self, stay_go):
        _, js = gradient_ascent(stay_go, np.zeros((2, 2)), 0.1, np.int64(3))
        assert len(js) == 4
        report = verify_deterministic_optimality(stay_go, np.int64(3), np.random.default_rng(0))
        assert report.trials == 3 and type(report.trials) is int
        assert LearningRateSchedule.harmonic(np.float32(0.5)).p == 0.5


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

    def test_stack_evaluates_each_policy(self, rng):
        mdp = random_mdp(7, 3, 0.9, rng)
        probs = rng.dirichlet(np.ones(3), size=(4, 7))
        stacked = evaluate(mdp, probs)
        assert stacked.shape == (4, 7)
        for k in range(4):
            assert_allclose(stacked[k], evaluate(mdp, probs[k]), rtol=0.0, atol=1e-12)

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
