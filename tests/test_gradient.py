"""Softmax policies, stationary distributions, gradients, and ascent."""

import re
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from numpy.testing import assert_allclose
from scipy import linalg
from scipy.sparse.csgraph import connected_components

from mdplab import (
    LearningRateSchedule,
    NonFiniteThetaError,
    Policy,
    QLearnConfig,
    ReducibleChainError,
    SingularSystemError,
    ValidationError,
    ascent_trace,
    average_reward,
    differential_q,
    evaluate,
    gradient_ascent,
    gradient_check,
    make_mdp,
    policy_gradient_analytic,
    policy_iteration,
    q_learning_run,
    random_mdp,
    softmax_policy,
    stationary_distribution,
    stay_go_mdp,
    with_rewards,
)
from gradient_reference import reference_gradient_check
from qlearn_reference import trace_bits
from mdplab import gradient
from mdplab.gradient import FD_STEP, _strongly_connected


def one_state_bandit(r0=1.0, r1=0.0, gamma=0.5):
    return make_mdp(("s0",), ("a0", "a1"), gamma, np.ones((1, 2, 1)), [[r0, r1]])


def reducible_mdp():
    # two disconnected self-loops; no policy can mix them
    t = np.zeros((2, 1, 2))
    t[0, 0, 0] = 1.0
    t[1, 0, 1] = 1.0
    return make_mdp(("s0", "s1"), ("a0",), 0.9, t, [[0.0], [1.0]])


class TestSoftmaxPolicy:
    def test_zero_logits_are_uniform(self):
        pol = softmax_policy(np.zeros((3, 2)))
        assert_allclose(pol.probs, 0.5, atol=1e-15)

    def test_log_three_ratio(self):
        pol = softmax_policy(np.array([[np.log(3.0), 0.0]]))
        assert_allclose(pol.probs[0, 0], 0.75, atol=1e-12)

    def test_extreme_logits_saturate_without_overflow(self):
        pol = softmax_policy(np.array([[1000.0, 0.0]]))
        assert np.all(np.isfinite(pol.probs))
        assert_allclose(pol.probs[0], [1.0, 0.0], atol=1e-300)

    def test_a_spread_past_the_float_range_saturates_without_a_warning(self):
        # theta - max overflows to -inf, which exp turns into an exact 0
        theta = np.array([[-1e308, 1e308]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            probs = softmax_policy(theta).probs
            final, js = gradient_ascent(one_state_bandit(0.0, 1.0), theta, 0.1, 3)
        assert probs.tolist() == [[0.0, 1.0]]
        # each step's policy is [[0, 1]]: J is a1's reward, and no gradient moves theta
        assert js.tolist() == [1.0] * 4
        assert np.array_equal(final, theta)

    def test_rows_sum_to_one(self, rng):
        pol = softmax_policy(rng.normal(0, 3, size=(10, 4)))
        assert np.abs(pol.probs.sum(axis=1) - 1.0).max() < 1e-12

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_theta(self, bad):
        with pytest.raises(NonFiniteThetaError):
            softmax_policy(np.array([[0.0, bad]]))


def test_score_function_identity(rng):
    # sum_a pi(a|s) d/dtheta_{s,b} log pi(a|s) = pi(b|s) - pi(b|s) = 0
    theta = rng.normal(0, 2, size=(6, 4))
    probs = softmax_policy(theta).probs
    for s in range(6):
        grad_log = np.eye(4) - probs[s][None, :]  # rows: a, cols: b
        identity = probs[s] @ grad_log
        assert np.abs(identity).max() < 1e-12


class TestStationaryDistribution:
    def test_period_two_switching_chain(self):
        t = np.zeros((2, 1, 2))
        t[0, 0, 1] = 1.0
        t[1, 0, 0] = 1.0
        mdp = make_mdp(("s0", "s1"), ("a0",), 0.9, t, [[0.0], [0.0]])
        mu = stationary_distribution(mdp, Policy.deterministic(np.array([0, 0])))
        assert_allclose(mu, [0.5, 0.5], atol=1e-10)

    def test_single_state_chain(self):
        mdp = one_state_bandit()
        mu = stationary_distribution(mdp, softmax_policy(np.zeros((1, 2))))
        assert_allclose(mu, [1.0], atol=1e-15)

    def test_matches_eigen_solve_on_random_chain(self):
        gen = np.random.default_rng(5)
        mdp = random_mdp(8, 3, 0.9, gen)
        pol = Policy.stochastic(gen.dirichlet(np.ones(3), size=8))
        mu = stationary_distribution(mdp, pol)

        # independent oracle: left eigenvector of the induced chain for
        # eigenvalue 1, via a dense eigendecomposition of the transpose
        p_pi = np.einsum("sa,saz->sz", pol.probs, mdp.transitions)
        vals, vecs = linalg.eig(p_pi.T)
        lead = np.argmin(np.abs(vals - 1.0))
        reference = np.real(vecs[:, lead])
        reference = reference / reference.sum()
        assert np.abs(mu - reference).sum() < 1e-8

    def test_stationarity_residual(self, rng):
        for _ in range(10):
            mdp = random_mdp(int(rng.integers(2, 11)), 3, 0.9, rng)
            pol = softmax_policy(rng.normal(0, 1, size=(mdp.n_states, 3)))
            mu = stationary_distribution(mdp, pol)
            p_pi = np.einsum("sa,saz->sz", pol.probs, mdp.transitions)
            assert np.abs(mu @ p_pi - mu).sum() < 1e-9
            assert mu.min() >= 0.0
            assert abs(mu.sum() - 1.0) < 1e-10

    def test_reducible_chain_is_an_error(self):
        mdp = reducible_mdp()
        with pytest.raises(ReducibleChainError):
            stationary_distribution(mdp, Policy.deterministic(np.array([0, 0])))

    def test_slow_mixing_chain_is_solved_directly(self, stay_go):
        # both states nearly always "stay", so the chain is irreducible but
        # its spectral gap is about 7e-6; balance of the "go" flows gives
        # mu(s0) / mu(s1) = pi(go | s1) / pi(go | s0)
        pol = softmax_policy(np.array([[7.0, -7.0], [6.0, -6.0]]))
        start = time.perf_counter()
        mu = stationary_distribution(stay_go, pol)
        elapsed = time.perf_counter() - start
        p_pi = np.einsum("sa,saz->sz", pol.probs, stay_go.transitions)
        assert np.abs(mu - mu @ p_pi).sum() < 1e-12
        ratio = pol.probs[1, 1] / pol.probs[0, 1]
        assert_allclose(mu, [ratio / (1.0 + ratio), 1.0 / (1.0 + ratio)], rtol=1e-9)
        assert elapsed < 0.5


@st.composite
def sparse_graphs(draw):
    n = draw(st.integers(1, 12))
    adj = np.zeros((n, n), dtype=bool)
    # a cycle through some of the nodes, so that strongly connected graphs
    # and graphs one edge short of it are both common
    cycle = draw(st.permutations(range(n)))[: draw(st.integers(0, n))]
    for i, j in zip(cycle, cycle[1:] + cycle[:1]):
        adj[i, j] = True
    edges = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    for i, j in draw(st.lists(edges, max_size=2 * n)):
        adj[i, j] = True
    return adj


@st.composite
def dense_graphs(draw):
    n = draw(st.integers(1, 12))
    adj = np.ones((n, n), dtype=bool)
    # a complete graph less a few edges, so that graphs where node 0 has every
    # edge in and out (the one-step answer) and graphs one edge short of it
    # are both common, and some are not strongly connected at all
    edges = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    for i, j in draw(st.lists(edges, max_size=2 * n)):
        adj[i, j] = False
    return adj


@settings(max_examples=300, deadline=None)
@given(st.one_of(sparse_graphs(), dense_graphs()))
def test_reachability_check_agrees_with_scipy_components(adj):
    n, _ = connected_components(adj.astype(float), directed=True, connection="strong")
    assert _strongly_connected(adj) == (n == 1)


class TestDifferentialQ:
    def test_zero_rewards(self, rng):
        mdp = with_rewards(random_mdp(5, 3, 0.9, rng), np.zeros((5, 3)))
        pol = softmax_policy(rng.normal(0, 1, size=(5, 3)))
        mu = stationary_distribution(mdp, pol)
        q, j = differential_q(mdp, pol, mu)
        assert j == 0.0
        assert_allclose(q.values, 0.0, atol=1e-12)

    def test_single_state_closure(self):
        mdp = one_state_bandit(r0=1.0, r1=0.0)
        pol = softmax_policy(np.array([[np.log(3.0), 0.0]]))  # pi = (0.75, 0.25)
        mu = stationary_distribution(mdp, pol)
        q, j = differential_q(mdp, pol, mu)
        assert j == pytest.approx(0.75, abs=1e-12)
        assert_allclose(q.values, [[0.25, -0.75]], atol=1e-12)

    def test_defining_equations_hold(self, rng):
        for _ in range(5):
            mdp = random_mdp(7, 3, 0.9, rng)
            pol = softmax_policy(rng.normal(0, 1, size=(7, 3)))
            mu = stationary_distribution(mdp, pol)
            q, j = differential_q(mdp, pol, mu)
            v = (pol.probs * q.values).sum(axis=1)
            residual = q.values - (mdp.rewards - j + mdp.transitions @ v)
            assert np.abs(residual).max() < 1e-9
            assert abs(mu @ v) < 1e-9

    def test_stay_go_uniform_closed_form(self, stay_go):
        pol = softmax_policy(np.zeros((2, 2)))
        mu = stationary_distribution(stay_go, pol)
        q, j = differential_q(stay_go, pol, mu)
        assert_allclose(mu, [0.5, 0.5], atol=1e-12)
        assert j == pytest.approx(0.25, abs=1e-12)
        assert_allclose(q.values, [[-0.5, 0.0], [1.0, -0.5]], atol=1e-12)

    @pytest.mark.parametrize("mu", [np.full(3, 1 / 3), 0.5, np.full((2, 2), 0.25)],
                             ids=["three-states", "scalar", "matrix"])
    def test_mu_must_fit_the_states(self, stay_go, mu):
        pol = softmax_policy(np.zeros((2, 2)))
        with pytest.raises(ValidationError, match=re.escape("mu must have shape (2,)")):
            differential_q(stay_go, pol, mu)

    @pytest.mark.parametrize("mu", [[np.nan, 0.5], [np.inf, 0.0]], ids=["nan", "inf"])
    def test_mu_must_be_finite(self, stay_go, mu):
        pol = softmax_policy(np.zeros((2, 2)))
        with pytest.raises(ValidationError, match="mu must be finite"):
            differential_q(stay_go, pol, mu)

    def test_singular_system_is_named(self, stay_go):
        # with mu = 0 the bordered system is I - P_go, whose rows sum to 0
        go = Policy.deterministic(np.ones(2, dtype=np.int64))
        with pytest.raises(SingularSystemError, match="differential-value system is singular"):
            differential_q(stay_go, go, np.zeros(2))

    def test_stay_go_uniform_against_simulation(self, stay_go):
        # Monte-Carlo oracle: one 10M-step trajectory under the uniform
        # policy.  In this world "go" flips the state and "stay" keeps it,
        # so the state path is a cumulative XOR of the action path; the
        # chain mixes in one step, which makes the two-term truncated
        # centered sum an unbiased differential-value estimate.
        steps = 10_000_000
        gen = np.random.default_rng(123)
        acts = gen.integers(0, 2, size=steps)
        flips = np.zeros(steps, dtype=np.int64)
        flips[1:] = np.cumsum(acts[:-1])
        states = flips % 2
        rewards = ((states == 1) & (acts == 0)).astype(float)
        j_mc = rewards.mean()
        centered = rewards - j_mc
        q_mc = np.zeros((2, 2))
        for s in range(2):
            for a in range(2):
                idx = np.nonzero((states[:-1] == s) & (acts[:-1] == a))[0]
                q_mc[s, a] = (centered[idx].sum() + centered[idx + 1].sum()) / len(idx)

        pol = softmax_policy(np.zeros((2, 2)))
        mu = stationary_distribution(stay_go, pol)
        q, j = differential_q(stay_go, pol, mu)
        assert abs(j - j_mc) < 1e-3
        assert np.abs(q.values - q_mc).max() < 1e-3


class TestAnalyticGradient:
    def test_duplicate_actions_sit_at_a_saddle(self):
        # both actions share one mixing row per state, so they are
        # indistinguishable and every direction is flat
        t = np.full((2, 2, 2), 0.5)
        r = np.array([[0.3, 0.3], [1.0, 1.0]])
        mdp = make_mdp(("s0", "s1"), ("a0", "a1"), 0.9, t, r)
        grad = policy_gradient_analytic(mdp, np.zeros((2, 2)))
        assert_allclose(grad, 0.0, atol=1e-15)

    def test_single_state_closed_form(self):
        grad = policy_gradient_analytic(one_state_bandit(), np.zeros((1, 2)))
        assert_allclose(grad, [[0.25, -0.25]], atol=1e-12)

    def test_matches_finite_differences_seed11(self):
        gen = np.random.default_rng(11)
        mdp = random_mdp(6, 3, 0.9, gen)
        theta = gen.normal(0.0, 0.5, size=(6, 3))
        report = gradient_check(mdp, theta)
        assert report.max_rel_diff < 1e-6

    def test_reducible_chain_is_an_error(self):
        with pytest.raises(ReducibleChainError):
            policy_gradient_analytic(reducible_mdp(), np.zeros((2, 1)))


class TestGradientCheck:
    def test_zero_rewards_zero_everywhere(self, rng):
        mdp = with_rewards(random_mdp(4, 2, 0.9, rng), np.zeros((4, 2)))
        report = gradient_check(mdp, rng.normal(0, 1, size=(4, 2)))
        assert report.max_abs_diff < 1e-12
        assert_allclose(report.analytic, 0.0, atol=1e-15)

    def test_single_state_closed_form_derivative(self):
        report = gradient_check(one_state_bandit(), np.zeros((1, 2)))
        assert report.max_abs_diff < 1e-9

    def test_batched_numeric_gradient_matches_a_coordinate_loop(self):
        gen = np.random.default_rng(17)
        for n_s, n_a in ((1, 2), (5, 3), (9, 4)):
            mdp = random_mdp(n_s, n_a, 0.9, gen)
            theta = gen.normal(0.0, 1.0, size=(n_s, n_a))
            loop = np.zeros_like(theta)
            for s in range(n_s):
                for a in range(n_a):
                    bump = np.zeros_like(theta)
                    bump[s, a] = FD_STEP
                    loop[s, a] = (
                        average_reward(mdp, theta + bump) - average_reward(mdp, theta - bump)
                    ) / (2.0 * FD_STEP)
            report = gradient_check(mdp, theta)
            assert np.abs(report.numeric - loop).max() < 1e-9


def report_bits(report):
    return (report.analytic.tobytes(), report.numeric.tobytes(),
            report.max_abs_diff.hex(), report.max_rel_diff.hex())


def outcome(check, mdp, theta):
    """The report's bits, or the type and message of a chain error."""
    try:
        return report_bits(check(mdp, theta))
    except (ReducibleChainError, SingularSystemError) as exc:
        return type(exc), str(exc)


@st.composite
def gradient_cases(draw):
    """An MDP with dense or one-or-two-successor dynamics, and logits up to
    +-700, so that softmax rows saturate to exact zeros and ones."""
    n_s, n_a = draw(st.integers(1, 20)), draw(st.integers(1, 5))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mdp = random_mdp(n_s, n_a, 0.9, gen)
    if draw(st.booleans()):
        t = np.zeros((n_s, n_a, n_s))
        for s in range(n_s):
            for a in range(n_a):
                succ = gen.choice(n_s, size=draw(st.integers(1, min(2, n_s))), replace=False)
                t[s, a, succ] = gen.dirichlet(np.ones(len(succ)))
        mdp = make_mdp(mdp.states, mdp.actions, 0.9, t, mdp.rewards)
    theta = draw(hnp.arrays(np.float64, (n_s, n_a), elements=st.one_of(
        st.floats(-700.0, 700.0), st.sampled_from([-700.0, 0.0, 700.0]))))
    return mdp, theta


@settings(max_examples=150, deadline=None)
@given(gradient_cases())
def test_stacked_check_matches_the_per_state_reference_bit_for_bit(case):
    mdp, theta = case
    assert outcome(gradient_check, mdp, theta) == outcome(reference_gradient_check, mdp, theta)


@pytest.mark.parametrize("states_per_stack", [1, 2, 3])
def test_stacks_split_across_the_byte_budget(monkeypatch, states_per_stack):
    # 7 states, 3 actions: a state's 6 chains hold 6 * 7 * 7 * 8 bytes of P_pi,
    # and a budget just under n + 1 states' worth gives stacks of n states
    gen = np.random.default_rng(5)
    mdp = random_mdp(7, 3, 0.9, gen)
    theta = gen.normal(0.0, 2.0, size=(7, 3))
    monkeypatch.setattr("mdplab.mdp.STACK_BYTES", (states_per_stack + 1) * 6 * 7 * 7 * 8 - 1)
    stacks = []
    chain = gradient._chain

    def counted_chain(mdp, probs):
        if probs.ndim == 3:  # the analytic gradient's own chain is (S, A)
            stacks.append(len(probs))
        return chain(mdp, probs)

    monkeypatch.setattr(gradient, "_chain", counted_chain)
    assert outcome(gradient_check, mdp, theta) == outcome(reference_gradient_check, mdp, theta)
    whole, rest = divmod(7, states_per_stack)
    assert stacks == [6 * states_per_stack] * whole + [6 * rest] * (rest > 0)


def test_the_byte_budget_never_changes_a_bit(monkeypatch):
    # stacking splits the systems, never their arithmetic: from one system per
    # stack (1 KiB) to every system in one stack (64 MiB), gradient_check and
    # a stacked evaluate give the same bytes; so does a Q-learning run, whose
    # uniforms come in segments of 32 steps at 1 KiB
    gen = np.random.default_rng(8)
    mdps = [stay_go_mdp(0.9)] + [random_mdp(n_s, 3, 0.9, gen) for n_s in (2, 7, 19, 40)]
    cases = [(mdp, gen.normal(0.0, 2.0, size=(mdp.n_states, mdp.n_actions)),
              gen.dirichlet(np.ones(mdp.n_actions), size=(120, mdp.n_states))) for mdp in mdps]
    oracle = policy_iteration(mdps[2])
    config = QLearnConfig(schedule=LearningRateSchedule.harmonic(0.8), steps=3000, seed=4,
                          epsilon=0.2, checkpoint_every=1000)
    results = set()
    for budget in (1 << 10, 1 << 14, 1 << 17, 1 << 21, 1 << 26):
        monkeypatch.setattr("mdplab.mdp.STACK_BYTES", budget)
        results.add((tuple((outcome(gradient_check, mdp, theta), evaluate(mdp, probs).tobytes())
                           for mdp, theta, probs in cases),
                     repr(trace_bits(q_learning_run(mdps[2], config, oracle)))))
    assert len(results) == 1


class TestRewardTransformations:
    def test_shift_moves_j_not_gradient(self, rng):
        mdp = random_mdp(6, 3, 0.9, rng)
        theta = rng.normal(0, 0.5, size=(6, 3))
        shifted = with_rewards(mdp, mdp.rewards + 2.3)
        assert abs(average_reward(shifted, theta) - average_reward(mdp, theta) - 2.3) < 1e-9
        g0 = policy_gradient_analytic(mdp, theta)
        g1 = policy_gradient_analytic(shifted, theta)
        assert np.abs(g1 - g0).max() < 1e-9

    def test_scaling_scales_j_and_gradient(self, rng):
        mdp = random_mdp(6, 3, 0.9, rng)
        theta = rng.normal(0, 0.5, size=(6, 3))
        scaled = with_rewards(mdp, 4.0 * mdp.rewards)
        assert average_reward(scaled, theta) == pytest.approx(
            4.0 * average_reward(mdp, theta), rel=1e-12
        )
        assert_allclose(
            policy_gradient_analytic(scaled, theta),
            4.0 * policy_gradient_analytic(mdp, theta),
            rtol=1e-9,
            atol=1e-12,
        )


class TestGradientAscent:
    def test_one_state_bandit_reaches_near_optimal(self):
        theta, js = gradient_ascent(one_state_bandit(), np.zeros((1, 2)), 0.5, 200)
        assert js[-1] > 0.95
        assert len(js) == 201
        assert all(js[i + 1] >= js[i] - 1e-10 for i in range(len(js) - 1))

    def test_saddle_stays_put(self):
        t = np.full((2, 2, 2), 0.5)
        r = np.array([[0.3, 0.3], [1.0, 1.0]])
        mdp = make_mdp(("s0", "s1"), ("a0", "a1"), 0.9, t, r)
        theta0 = np.zeros((2, 2))
        theta, js = gradient_ascent(mdp, theta0, 0.5, 50)
        assert np.array_equal(theta, theta0)
        assert np.ptp(js) < 1e-12

    def test_stay_go_finds_the_discounted_optimum(self, stay_go, stay_go_oracle):
        # the average-reward and discounted optima coincide on this world
        theta, js = gradient_ascent(stay_go, np.zeros((2, 2)), 0.1, 2000)
        assert np.array_equal(theta.argmax(axis=1), stay_go_oracle.pi_star.actions)
        assert js[-1] > 0.99

    def test_small_steps_never_decrease_j(self, rng):
        for _ in range(3):
            mdp = random_mdp(6, 3, 0.9, rng)
            theta0 = rng.normal(0, 0.5, size=(6, 3))
            _, js = gradient_ascent(mdp, theta0, 0.01, 200)
            assert all(js[i + 1] >= js[i] - 1e-10 for i in range(len(js) - 1))

    def test_reducible_chain_attaches_partial_trace(self):
        with pytest.raises(ReducibleChainError) as excinfo:
            gradient_ascent(reducible_mdp(), np.zeros((2, 1)), 0.1, 5)
        assert hasattr(excinfo.value, "j_trace")
        assert excinfo.value.theta.shape == (2, 1)

    @pytest.mark.parametrize("entry, name", [
        (lambda mdp, theta: gradient_ascent(mdp, theta, 0.1, 3), "theta0"),
        (lambda mdp, theta: ascent_trace(mdp, theta, 0.1, 3), "theta0"),
        (gradient_check, "theta"),
    ], ids=["gradient_ascent", "ascent_trace", "gradient_check"])
    @pytest.mark.parametrize("theta, error, message", [
        (np.zeros((3, 2)), ValidationError, "policy does not match the (state, action) grid"),
        (np.zeros((2, 3)), ValidationError, "policy does not match the (state, action) grid"),
        (np.zeros(2), ValidationError, "theta must be an (S, A) array"),
        ([[0.0, np.nan], [0.0, 0.0]], NonFiniteThetaError, "theta must be finite"),
        ([[True, False], [False, True]], ValidationError, "every entry of {} must be a number"),
    ], ids=["more-states", "more-actions", "1-d", "nan", "bool-list"])
    def test_theta_is_checked_on_entry(self, stay_go, entry, name, theta, error, message):
        with pytest.raises(ValidationError) as excinfo:
            entry(stay_go, theta)
        assert type(excinfo.value) is error
        assert str(excinfo.value) == message.format(name)

    def test_parameter_validation(self, stay_go):
        for step_size in (0.0, np.inf, np.nan):
            with pytest.raises(ValidationError, match="step_size"):
                gradient_ascent(stay_go, np.zeros((2, 2)), step_size, 10)
        with pytest.raises(ValidationError):
            gradient_ascent(stay_go, np.zeros((2, 2)), 0.1, 0)
