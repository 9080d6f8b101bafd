"""The exact solvers and the gradient ascent against their verbatim earlier forms.

The library checks its inputs once on entry and then runs its loops on arrays
it built itself: value iteration sweeps in blocks written into a history
allocated once and tests each block's changes together, policy iteration
builds its one-hot table once, and the ascent takes each step's softmax
without the public checks.  These tests assert that every output bit, and the
type and message of every error, is what the earlier loops in
``solve_reference.py`` and ``gradient_reference.py`` give.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import mdplab.solve
import solve_reference
from gradient_reference import reference_ascent_trace
from mdplab import (ReducibleChainError, SweepLimitError, ValueOverflowError, ascent_trace,
                    make_mdp, policy_iteration, random_mdp, stay_go_mdp, value_iteration,
                    with_rewards)
from mdplab.mdp import evaluate, per_stack
from solve_reference import (reference_evaluate, reference_policy_iteration,
                             reference_value_iteration)


def solve_outcome(solve, mdp, *args):
    """The result's bits, or the type and message of the error."""
    try:
        res = solve(mdp, *args)
    except Exception as exc:  # a RuntimeWarning is an error under pytest's filter
        return type(exc), str(exc)
    return (res.v_star.values.tobytes(), res.q_star.values.tobytes(), res.pi_star.kind,
            res.pi_star.actions.dtype.str, res.pi_star.actions.tobytes(), res.iterations,
            res.residual.hex())


def ascent_outcome(ascend, mdp, theta0, step_size, iters):
    """theta, the J trace and the norms as bits, or the error's type and
    message, with the partial trace and the last theta of a reducible chain."""
    try:
        theta, js, norms = ascend(mdp, theta0, step_size, iters)
    except ReducibleChainError as exc:
        return type(exc), str(exc), exc.j_trace.tobytes(), exc.theta.tobytes()
    except Exception as exc:
        return type(exc), str(exc)
    return theta.tobytes(), js.dtype.str, js.tobytes(), [norm.hex() for norm in norms]


def sparse_dynamics(draw, gen, mdp):
    """The MDP with one or two successors per (state, action), so that chains
    can be reducible and value iteration can tie actions."""
    n_s, n_a = mdp.n_states, mdp.n_actions
    t = np.zeros((n_s, n_a, n_s))
    for s in range(n_s):
        for a in range(n_a):
            succ = gen.choice(n_s, size=draw(st.integers(1, min(2, n_s))), replace=False)
            t[s, a, succ] = gen.dirichlet(np.ones(len(succ)))
    return make_mdp(mdp.states, mdp.actions, mdp.gamma, t, mdp.rewards)


@st.composite
def solve_cases(draw):
    """MDPs up to 20x5, gamma from 0 to 0.99, rewards from 0 to 1e308 in size,
    so that some value iterations overflow."""
    n_s, n_a = draw(st.integers(1, 20)), draw(st.integers(1, 5))
    gamma = draw(st.one_of(st.sampled_from([0.0, 0.5, 0.9, 0.95, 0.99]), st.floats(0.0, 0.99)))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mdp = random_mdp(n_s, n_a, gamma, gen)
    if draw(st.booleans()):
        mdp = sparse_dynamics(draw, gen, mdp)
    scale = draw(st.sampled_from([0.0, 1e-3, 1.0, 1e3, 1e308]))
    return with_rewards(mdp, mdp.rewards * scale), draw(st.sampled_from([1e-2, 1e-8, 1e-12]))


@settings(max_examples=200, deadline=None)
@given(solve_cases())
def test_value_iteration_matches_the_reference_bit_for_bit(case):
    mdp, epsilon = case
    assert solve_outcome(value_iteration, mdp, epsilon) == solve_outcome(
        reference_value_iteration, mdp, epsilon)


def sweeps_per_block(mp, mdp, rows):
    """Make value iteration's history hold ``rows`` sweeps of ``mdp``."""
    mp.setattr("mdplab.mdp.STACK_BYTES", 16 * mdp.n_states * rows)


@settings(max_examples=150, deadline=None)
@given(solve_cases(), st.sampled_from([1, 2, 3]))
def test_value_iteration_in_short_blocks_matches_the_reference(case, rows):
    mdp, epsilon = case
    with pytest.MonkeyPatch.context() as mp:
        sweeps_per_block(mp, mdp, rows)
        assert solve_outcome(value_iteration, mdp, epsilon) == solve_outcome(
            reference_value_iteration, mdp, epsilon)


@pytest.mark.parametrize("rows", [1, 2, 3])
def test_an_overflow_inside_a_block_matches(rows, monkeypatch):
    # the value passes the float range in sweep 5, inside the block of sweeps
    # 5-7 (3 rows) or 5-6 (2 rows); the sweeps after it are not reported
    mdp = bandit([5e307])
    sweeps_per_block(monkeypatch, mdp, rows)
    outcome = solve_outcome(value_iteration, mdp, 1e-8)
    assert outcome[0] is ValueOverflowError and "after 5 sweeps" in outcome[1]
    assert outcome == solve_outcome(reference_value_iteration, mdp, 1e-8)


@pytest.mark.parametrize("rows", [1, 2, 3])
def test_a_sweep_cap_that_splits_a_block_matches(rows, monkeypatch):
    # At gamma 0.002 the contraction bound allows at most 7 sweeps for these
    # thresholds, but with the threshold below the rounding of V some runs
    # never converge, and the last block is cut at the cap.
    monkeypatch.setattr(mdplab.solve, "MAX_SWEEPS", 7)
    monkeypatch.setattr(solve_reference, "MAX_SWEEPS", 7)
    kinds = set()
    for seed in range(6):
        for n_s, n_a in ((3, 3), (4, 2)):
            mdp = random_mdp(n_s, n_a, 0.002, np.random.default_rng(seed))
            sweeps_per_block(monkeypatch, mdp, rows)
            for epsilon in (1e-19, 2e-19, 3e-19):
                outcome = solve_outcome(value_iteration, mdp, epsilon)
                assert outcome == solve_outcome(reference_value_iteration, mdp, epsilon)
                kinds.add(outcome[0] if len(outcome) == 2 else outcome[5])
    # some runs reach the cap, and some converge in the last sweep it allows
    assert SweepLimitError in kinds and 7 in kinds


@st.composite
def policy_cases(draw):
    """MDPs up to 12x4, gamma from 0 to 0.99, with tie-heavy {0, 1, 2} / 2 or
    random reward tables up to 1e308 in size, so that some optima overflow."""
    n_s, n_a = draw(st.integers(1, 12)), draw(st.integers(1, 4))
    gamma = draw(st.one_of(st.sampled_from([0.0, 0.5, 0.9, 0.99]), st.floats(0.0, 0.99)))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mdp = random_mdp(n_s, n_a, gamma, gen)
    if draw(st.booleans()):
        mdp = sparse_dynamics(draw, gen, mdp)
    rewards = gen.integers(0, 3, size=(n_s, n_a)) / 2.0 if draw(st.booleans()) else mdp.rewards
    return with_rewards(mdp, rewards * draw(st.sampled_from([1.0, 1e-3, 1e3, 1e150, 1e308])))


@settings(max_examples=200, deadline=None)
@given(policy_cases())
def test_policy_iteration_matches_the_reference_bit_for_bit(mdp):
    assert solve_outcome(policy_iteration, mdp) == solve_outcome(reference_policy_iteration, mdp)


@pytest.mark.parametrize("n_s, n_a, trials, stacks",
                         [(1, 3, 4, 1), (5, 3, 1, 1), (20, 5, 400, 3), (50, 2, 60, 3)])
def test_evaluate_matches_the_reference_across_sub_stacks(n_s, n_a, trials, stacks):
    assert -(-trials // per_stack(8 * n_s * n_s)) == stacks
    gen = np.random.default_rng(n_s)
    mdp = random_mdp(n_s, n_a, 0.95, gen)
    for probs in (gen.dirichlet(np.ones(n_a), size=(trials, n_s)),
                  gen.dirichlet(np.ones(n_a), size=n_s),
                  np.eye(n_a)[gen.integers(0, n_a, size=n_s)]):
        assert evaluate(mdp, probs).tobytes() == reference_evaluate(mdp, probs).tobytes()


@st.composite
def ascent_cases(draw):
    """MDPs up to 8x4, logits up to +-700 so rows saturate, step sizes up to
    1e300 and rewards up to 1e300 in size, so that some ascents overflow or
    meet a reducible chain."""
    n_s, n_a = draw(st.integers(1, 8)), draw(st.integers(1, 4))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mdp = random_mdp(n_s, n_a, 0.9, gen)
    if draw(st.booleans()):
        mdp = sparse_dynamics(draw, gen, mdp)
    mdp = with_rewards(mdp, mdp.rewards * draw(st.sampled_from([1.0, 1e3, 1e150, 1e300])))
    theta = draw(hnp.arrays(np.float64, (n_s, n_a), elements=st.one_of(
        st.floats(-50.0, 50.0), st.sampled_from([-700.0, 0.0, 700.0]))))
    step_size = draw(st.sampled_from([1e-3, 0.1, 1.0, 1e3, 1e-150, 1e300]))
    return mdp, theta, step_size, draw(st.integers(1, 10))


@settings(max_examples=200, deadline=None)
@given(ascent_cases())
def test_ascent_matches_the_reference_bit_for_bit(case):
    assert ascent_outcome(ascent_trace, *case) == ascent_outcome(reference_ascent_trace, *case)


def bandit(rewards):
    return make_mdp(("s0",), tuple(f"a{k}" for k in range(len(rewards))), 0.9,
                    np.ones((1, len(rewards), 1)), [rewards])


def test_value_iteration_overflow_matches():
    stay_go = stay_go_mdp()
    mdp = with_rewards(stay_go, stay_go.rewards * 1e308)
    outcome = solve_outcome(value_iteration, mdp, 1e-8)
    assert outcome[0] is ValueOverflowError
    assert outcome == solve_outcome(reference_value_iteration, mdp, 1e-8)


def test_value_iteration_at_gamma_zero_matches():
    mdp = random_mdp(5, 3, 0.0, np.random.default_rng(4))
    assert value_iteration(mdp, 1e-9).iterations == 1
    assert solve_outcome(value_iteration, mdp, 1e-9) == solve_outcome(
        reference_value_iteration, mdp, 1e-9)


@pytest.mark.parametrize("mdp, theta0, step_size, error, message", [
    # the gradient grows as the policy leaves a2, until its squared norm passes the float range
    (bandit([1e155, 0.0, -1e155]), [[-4.0, 0.0, 4.0]], 1e-154,
     ValueOverflowError, "the gradient norm overflows at iteration 4"),
    (bandit([1.0, 0.0]), [[1.7e308, 1.7e308]], 1e308,
     ValueOverflowError, "theta overflows at iteration 0"),
    # the first step drives a row of the policy to exact zeros
    (stay_go_mdp(), [[0.0, 0.0], [0.0, 0.0]], 1e4, ReducibleChainError, "induced chain"),
], ids=["gradient-norm", "theta", "reducible"])
def test_ascent_errors_match(mdp, theta0, step_size, error, message):
    outcome = ascent_outcome(ascent_trace, mdp, theta0, step_size, 10)
    assert outcome[0] is error and outcome[1].startswith(message)
    assert outcome == ascent_outcome(reference_ascent_trace, mdp, theta0, step_size, 10)
