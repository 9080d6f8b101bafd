"""Exact DP solvers: worked examples, cross-oracle agreement, and properties."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import mdplab.solve
from mdplab import (
    Policy,
    SweepLimitError,
    ValidationError,
    ValueOverflowError,
    bellman_backup,
    make_mdp,
    policy_evaluate,
    policy_iteration,
    random_mdp,
    stay_go_mdp,
    value_iteration,
    verify_deterministic_optimality,
    with_rewards,
)
from mdplab.rewards import ARGMAX_TOL


class TestValueIteration:
    def test_stay_go_closed_form(self, stay_go):
        res = value_iteration(stay_go, 1e-10)
        assert_allclose(res.v_star.values, [1.0, 2.0], atol=1e-9)
        assert_allclose(res.q_star.values, [[0.5, 1.0], [2.0, 0.5]], atol=1e-9)
        assert res.pi_star.as_dict(stay_go) == {"s0": "go", "s1": "stay"}
        assert res.residual < 1e-9

    def test_epsilon_accuracy_bound(self, stay_go):
        res = value_iteration(stay_go, 0.05)
        assert np.abs(res.v_star.values - np.array([1.0, 2.0])).max() < 0.05

    def test_all_zero_rewards(self, rng):
        mdp = with_rewards(random_mdp(6, 4, 0.9, rng), np.zeros((6, 4)))
        res = value_iteration(mdp, 1e-9)
        assert_allclose(res.v_star.values, 0.0, atol=1e-12)
        assert np.array_equal(res.pi_star.actions, np.zeros(6, dtype=int))

    def test_gamma_zero_stops_after_one_sweep(self, rng):
        mdp = random_mdp(5, 3, 0.0, rng)
        res = value_iteration(mdp, 1e-9)
        assert res.iterations == 1
        assert_allclose(res.v_star.values, mdp.rewards.max(axis=1), atol=1e-12)

    def test_agreement_with_policy_iteration_seed7(self):
        mdp = random_mdp(10, 3, 0.9, np.random.default_rng(7))
        vi = value_iteration(mdp, 1e-8)
        pi = policy_iteration(mdp)
        assert np.abs(vi.v_star.values - pi.v_star.values).max() < 1e-6

    def test_epsilon_must_be_positive(self, stay_go):
        with pytest.raises(ValidationError):
            value_iteration(stay_go, 0.0)

    def test_gamma_near_one_is_rejected_before_sweeping(self):
        # the contraction bound allows about 3e7 sweeps here
        with pytest.raises(SweepLimitError, match="may need"):
            value_iteration(stay_go_mdp(0.999999), 1e-8)

    def test_loop_stops_at_the_sweep_cap(self, stay_go, monkeypatch):
        # with the up-front bound out of the way, a run that has not
        # converged after MAX_SWEEPS sweeps still ends with an error
        monkeypatch.setattr(mdplab.solve, "_sweep_bound", lambda *args: 1)
        monkeypatch.setattr(mdplab.solve, "MAX_SWEEPS", 5)
        with pytest.raises(SweepLimitError, match="did not converge in 5 sweeps"):
            value_iteration(stay_go, 1e-8)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        gamma=st.sampled_from([0.1, 0.5, 0.9, 0.99]),
        scale=st.floats(1e-6, 1e6),
        rel=st.floats(1e-6, 1.0),
    )
    def test_sweep_bound_covers_the_actual_sweeps(self, seed, gamma, scale, rel):
        # the bound is exact-arithmetic; epsilon is tied to the reward scale
        # so the stopping threshold stays far above the rounding of the values
        gen = np.random.default_rng(seed)
        mdp = random_mdp(int(gen.integers(1, 8)), int(gen.integers(1, 4)), gamma, gen)
        mdp = with_rewards(mdp, scale * mdp.rewards)
        epsilon = rel * scale
        threshold = epsilon * (1.0 - gamma) / (2.0 * gamma)
        bound = mdplab.solve._sweep_bound(gamma, mdp.reward_bound, threshold)
        assert value_iteration(mdp, epsilon).iterations <= bound


class TestPolicyIteration:
    def test_stay_go_matches_value_iteration(self, stay_go):
        vi = value_iteration(stay_go, 1e-10)
        pi = policy_iteration(stay_go)
        assert np.abs(vi.v_star.values - pi.v_star.values).max() < 1e-9
        assert np.array_equal(vi.pi_star.actions, pi.pi_star.actions)
        # closed forms hold exactly under direct evaluation
        assert_allclose(pi.q_star.values, [[0.5, 1.0], [2.0, 0.5]], atol=1e-12)

    def test_single_state_converges_in_one_iteration(self):
        mdp = make_mdp(("s0",), ("a0",), 0.9, np.ones((1, 1, 1)), [[1.0]])
        res = policy_iteration(mdp)
        assert res.iterations == 1
        assert_allclose(res.v_star.values, [10.0], atol=1e-9)

    def test_duplicate_actions_pick_lowest_index(self):
        # both actions have identical rows and rewards, so ties are everywhere
        t = np.zeros((2, 2, 2))
        t[:, :, 1] = 1.0
        r = np.array([[0.5, 0.5], [1.0, 1.0]])
        mdp = make_mdp(("s0", "s1"), ("a0", "a1"), 0.5, t, r)
        res = policy_iteration(mdp)
        assert np.array_equal(res.pi_star.actions, [0, 0])

    def test_overflowing_values_raise(self, stay_go):
        mdp = with_rewards(stay_go, [[0.0, 0.0], [1.7e308, 0.0]])
        with pytest.raises(ValueOverflowError, match="values overflow"):
            policy_iteration(mdp)

    def test_tied_policies_stop_within_ten_iterations(self):
        # two policies whose solved values differ only by rounding (up to
        # 3e-13) must not alternate until the iteration cap
        gen = np.random.default_rng(9)
        mdp = random_mdp(3, 2, 0.99, gen)
        mdp = with_rewards(mdp, gen.integers(0, 2, (3, 2)).astype(float))
        res = policy_iteration(mdp)
        assert res.iterations <= 10
        assert np.abs(res.v_star.values - value_iteration(mdp, 1e-8).v_star.values).max() < 1e-8

    def test_overflowing_optimum_raises_without_iterating_on_nan(self):
        # V* itself overflows here; iterating on the overflowed values would
        # only cycle among NaN values until the cap
        mdp = with_rewards(stay_go_mdp(0.9), [[0.0, 4e307], [1.0, 4e307]])
        with pytest.raises(ValueOverflowError, match="values overflow"):
            policy_iteration(mdp)

    def test_a_visited_policy_may_overflow_where_the_optimum_does_not(self):
        # the first policy, stay everywhere, is worth -1.7e309; going back
        # and forth is optimal and worth gamma / (1 - gamma^2) in s0
        mdp = with_rewards(stay_go_mdp(0.9), [[-1.7e308, 0.0], [-1.7e308, 1.0]])
        res = policy_iteration(mdp)
        assert_allclose(res.v_star.values, [0.9 / 0.19, 1.0 / 0.19], rtol=1e-12)
        assert np.array_equal(res.pi_star.actions, [1, 1])

    def test_a_gain_below_rounding_that_recurs_is_taken(self):
        # at gamma = 1 - 1e-6 the rounding of the solve is about 1.8e-3 in
        # values near 1e6, above both first gains (1e-4 in s0, 5e-5 in s1);
        # moving still raises V by about 100, and from there s1's best
        # action is to go, not to stay
        gamma = 0.999999
        t = np.zeros((2, 2, 2))
        t[0, :, 0] = t[1, 0, 0] = t[1, 1, 1] = 1.0
        mdp = make_mdp(("s0", "s1"), ("a", "b"), gamma, t, [[1.0, 1.0001], [0.0, 1.00005]])
        res = policy_iteration(mdp)
        v0 = 1.0001 / (1.0 - gamma)
        assert_allclose(res.v_star.values, [v0, gamma * v0], rtol=1e-9)
        q = res.q_star.values
        assert np.array_equal(q >= q.max(axis=1, keepdims=True) - ARGMAX_TOL,
                              [[False, True], [True, False]])

    def test_a_gain_below_rounding_that_opens_a_larger_one_is_taken(self):
        # leaving s0 for z gains 2e-4 in one step and raises V by only that
        # much; once s0 is worth more, its self-loop paying 1.0001 gains
        # 1e-4 per step for ever, so staying is optimal
        gamma = 0.999999
        t = np.zeros((2, 3, 2))
        t[0, 0, 0] = t[0, 2, 0] = t[0, 1, 1] = 1.0
        t[1, :, 1] = 1.0
        mdp = make_mdp(("s0", "z"), ("a", "b", "c"), gamma, t,
                       [[1.0, 1.0002, 1.0001], [1.0, 1.0, 1.0]])
        res = policy_iteration(mdp)
        assert_allclose(res.v_star.values, [1.0001 / (1.0 - gamma), 1.0 / (1.0 - gamma)],
                        rtol=1e-9)
        assert res.pi_star.actions[0] == 2

    @settings(max_examples=50, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_s=st.integers(1, 30),
        n_a=st.integers(1, 5),
        gamma=st.sampled_from([0.0, 0.5, 0.9, 0.99, 0.999]),
        kind=st.sampled_from(["binary", "one_decimal", "constant"]),
        sparse=st.booleans(),
    )
    def test_argmax_sets_match_value_iteration_on_tied_tables(
        self, seed, n_s, n_a, gamma, kind, sparse
    ):
        gen = np.random.default_rng(seed)
        mdp = random_mdp(n_s, n_a, gamma, gen)
        if sparse:  # one successor per pair, so whole policies tie exactly
            t = np.eye(n_s)[gen.integers(0, n_s, (n_s, n_a))]
            mdp = make_mdp(mdp.states, mdp.actions, gamma, t, mdp.rewards)
        if kind == "binary":
            table = gen.integers(0, 2, (n_s, n_a)).astype(float)
        elif kind == "one_decimal":
            table = np.round(gen.uniform(-1.0, 1.0, (n_s, n_a)), 1)
        else:
            table = np.full((n_s, n_a), float(gen.integers(-3, 4)))
        mdp = with_rewards(mdp, table)
        pi = policy_iteration(mdp)  # a cycle among tied policies raises SweepLimitError
        vi = value_iteration(mdp, 1e-8)
        # one-successor dynamics can need more than 10 iterations without
        # any tie (one stress table needed 14)
        assert sparse or pi.iterations <= 10
        sets_pi, sets_vi = (
            q >= q.max(axis=1, keepdims=True) - ARGMAX_TOL
            for q in (pi.q_star.values, vi.q_star.values)
        )
        assert np.array_equal(sets_pi, sets_vi)

    def test_greedy_policy_evaluates_to_v_star(self, rng):
        for _ in range(10):
            mdp = random_mdp(int(rng.integers(2, 15)), int(rng.integers(2, 5)),
                             float(rng.choice([0.5, 0.9])), rng)
            res = policy_iteration(mdp)
            v = policy_evaluate(mdp, res.pi_star).values
            assert np.abs(v - res.v_star.values).max() < 1e-7


class TestVerifyDeterministicOptimality:
    def test_stay_go_thousand_policies(self, stay_go):
        report = verify_deterministic_optimality(
            stay_go, 1000, np.random.default_rng(1)
        )
        assert report.passed
        assert report.deterministic
        assert report.trials == 1000
        assert report.violations == ()

    def test_zero_rewards_all_policies_tie(self, rng):
        mdp = with_rewards(random_mdp(5, 3, 0.9, rng), np.zeros((5, 3)))
        report = verify_deterministic_optimality(mdp, 50, rng)
        assert report.passed
        assert abs(report.max_excess) < 1e-12

    def test_random_mdp_seed3(self):
        gen = np.random.default_rng(3)
        mdp = random_mdp(15, 4, 0.9, gen)
        report = verify_deterministic_optimality(mdp, 500, gen)
        assert report.passed

    def test_trials_must_be_positive(self, stay_go, rng):
        with pytest.raises(ValidationError):
            verify_deterministic_optimality(stay_go, 0, rng)


class TestBellmanProperties:
    def test_contraction_on_random_pairs(self, rng):
        for _ in range(5):
            mdp = random_mdp(10, 4, float(rng.choice([0.5, 0.9, 0.95])), rng)
            scale = mdp.reward_bound / (1 - mdp.gamma)
            for _ in range(100):
                v = rng.uniform(-scale, scale, 10)
                w = rng.uniform(-scale, scale, 10)
                lhs = np.abs(bellman_backup(mdp, v) - bellman_backup(mdp, w)).max()
                rhs = mdp.gamma * np.abs(v - w).max()
                assert lhs <= rhs + 1e-12

    def test_consistency_of_solution(self, rng):
        for _ in range(10):
            mdp = random_mdp(int(rng.integers(2, 20)), int(rng.integers(2, 5)),
                             0.9, rng)
            res = policy_iteration(mdp)
            q = res.q_star.values
            assert np.abs(res.v_star.values - q.max(axis=1)).max() < 1e-9
            lookahead = mdp.rewards + mdp.gamma * (mdp.transitions @ res.v_star.values)
            assert np.abs(q - lookahead).max() < 1e-9

    def test_argmax_sets_invariant_under_positive_affine_rewards(self, rng):
        def argmax_sets(mdp):
            q = policy_iteration(mdp).q_star.values
            return q >= q.max(axis=1, keepdims=True) - 1e-7

        for _ in range(5):
            mdp = random_mdp(8, 3, 0.9, rng)
            base = argmax_sets(mdp)
            scaled = argmax_sets(with_rewards(mdp, 3.7 * mdp.rewards))
            shifted = argmax_sets(with_rewards(mdp, mdp.rewards + 2.5))
            assert np.array_equal(base, scaled)
            assert np.array_equal(base, shifted)

    def test_vi_pi_agree_up_to_fifty_states(self, rng):
        for _ in range(5):
            n_s = int(rng.integers(2, 51))
            n_a = int(rng.integers(2, 9))
            mdp = random_mdp(n_s, n_a, float(rng.choice([0.5, 0.9, 0.95])), rng)
            vi = value_iteration(mdp, 1e-8)
            pi = policy_iteration(mdp)
            assert np.abs(vi.v_star.values - pi.v_star.values).max() < 1e-6


def test_solve_result_as_dict_round_trips_names(stay_go):
    res = policy_iteration(stay_go)
    doc = res.as_dict(stay_go)
    assert doc["pi_star"] == {"s0": "go", "s1": "stay"}
    assert doc["v_star"]["s1"] == pytest.approx(2.0, abs=1e-9)
    assert doc["q_star"]["s0"]["go"] == pytest.approx(1.0, abs=1e-9)
