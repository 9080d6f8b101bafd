"""Validation, sampling, and policy evaluation for the core MDP types."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from mdplab import (
    GammaRangeError,
    MissingEntryError,
    NonFiniteRewardError,
    Policy,
    RowSumError,
    SchemaError,
    UnknownActionError,
    UnknownStateError,
    ValidationError,
    evaluate,
    mdp_to_dict,
    policy_evaluate,
    policy_probs,
    random_mdp,
    step,
    validate_mdp,
    with_rewards,
)


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
