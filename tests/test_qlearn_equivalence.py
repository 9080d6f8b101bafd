"""The library Q-learning loop reproduces the scalar reference loop bit for bit."""

import math
from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

import mdplab.qlearn
from mdplab import (
    LearningRateSchedule,
    QLearnConfig,
    ValueOverflowError,
    make_mdp,
    policy_iteration,
    q_learning_run,
)
from mdplab.mdp import successor_cdf
from qlearn_reference import reference_q_learning_run, trace_bits

schedules = st.one_of(
    st.floats(0.05, 2.0).map(LearningRateSchedule.harmonic),
    st.floats(0.0, 0.99).map(LearningRateSchedule.constant),
    st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6).map(
        LearningRateSchedule.from_table
    ),
)


@st.composite
def small_mdps(draw):
    """Random MDPs with S in 2..6, A in 1..8 and some zero transition entries;
    wide rows let a row's runner-up bound go stale before its maximum drops."""
    n_s = draw(st.integers(2, 6))
    n_a = draw(st.integers(1, 8))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    t = gen.dirichlet(np.ones(n_s), size=(n_s, n_a))
    t[gen.random(t.shape) < draw(st.floats(0.0, 0.9))] = 0.0
    empty = ~t.any(axis=2)
    t[empty, 0] = 1.0
    t /= t.sum(axis=2, keepdims=True)
    rewards = gen.uniform(-1.0, 1.0, size=(n_s, n_a)) * draw(st.sampled_from([1.0, 10.0]))
    gamma = draw(st.floats(0.0, 0.95))
    states = tuple(f"s{i}" for i in range(n_s))
    actions = tuple(f"a{j}" for j in range(n_a))
    return make_mdp(states, actions, gamma, t, rewards)


@st.composite
def runs(draw):
    mdp = draw(small_mdps())
    steps = draw(st.integers(1, 3000))
    start = draw(st.one_of(st.just("uniform"), st.sampled_from(mdp.states)))
    config = QLearnConfig(
        schedule=draw(schedules),
        steps=steps,
        seed=draw(st.integers(0, 2**63 - 1)),
        epsilon=draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))),
        checkpoint_every=draw(st.integers(1, steps + 5)),
        q_init=draw(st.floats(-5.0, 5.0)),
        start=start,
    )
    return mdp, config


@settings(max_examples=60, deadline=None)
@given(runs())
def test_library_loop_matches_reference(run):
    mdp, config = run
    oracle = policy_iteration(mdp)
    expected = reference_q_learning_run(mdp, config, oracle)
    actual = q_learning_run(mdp, config, oracle)
    assert trace_bits(actual) == trace_bits(expected)


@st.composite
def tied_runs(draw, reward_sets, q_inits):
    """Runs of up to 2000 steps on small_mdps dynamics (A <= 8) whose rewards
    come from one of ``reward_sets`` and q_init from ``q_inits``, so rows tie
    often and the row maximum and runner-up bound the step loop keeps meet
    ties and signed zeros."""
    mdp = draw(small_mdps())
    n_s, n_a = mdp.n_states, mdp.n_actions
    values = draw(st.sampled_from(reward_sets))
    table = draw(st.lists(st.sampled_from(values), min_size=n_s * n_a, max_size=n_s * n_a))
    tied = make_mdp(mdp.states, mdp.actions, draw(st.sampled_from([0.0, 0.5, 0.9])),
                    mdp.transitions, np.reshape(table, (n_s, n_a)))
    steps = draw(st.integers(1, 2000))
    config = QLearnConfig(
        # rate 1 makes every update its exact target, which ties often
        schedule=draw(st.one_of(st.just(LearningRateSchedule.from_table([1.0])), schedules)),
        steps=steps,
        seed=draw(st.integers(0, 2**63 - 1)),
        epsilon=draw(st.sampled_from([0.0, 0.3, 1.0])),
        checkpoint_every=draw(st.integers(1, steps + 5)),
        q_init=draw(st.sampled_from(q_inits)),
        start=draw(st.one_of(st.just("uniform"), st.sampled_from(mdp.states))),
    )
    return mdp, tied, config


def _all_ties_run():
    """Every reward 1 and every rate 1 at gamma 0: each update writes 1.0, so
    an explored action often ties the row maximum below the maximum's index."""
    t = np.random.default_rng(0).dirichlet(np.ones(3), size=(3, 3))
    mdp = make_mdp(("s0", "s1", "s2"), ("a0", "a1", "a2"), 0.0, t, np.ones((3, 3)))
    config = QLearnConfig(schedule=LearningRateSchedule.from_table([1.0]), steps=300,
                          epsilon=0.3, checkpoint_every=50)
    return mdp, mdp, config


@settings(max_examples=300, deadline=None)
@given(tied_runs([(0.0, 1.0), (0.0, -0.0), (-0.0, -1.0, 1.0)], (0.0, -0.0, 1.0)))
@example(_all_ties_run())
def test_library_loop_matches_reference_on_ties_and_signed_zeros(run):
    _, mdp, config = run
    oracle = policy_iteration(mdp)
    expected = reference_q_learning_run(mdp, config, oracle)
    assert trace_bits(q_learning_run(mdp, config, oracle)) == trace_bits(expected)


@settings(max_examples=300, deadline=None)
@given(tied_runs([(1e308, -1e308, 0.0)], (0.0, 1e308, -1e308)))
def test_library_loop_matches_reference_past_overflow(run):
    # the updates may overflow to +-inf and then to NaN, which stays in its
    # entry; the oracle is any one of the same shape.  A run whose reference
    # table ends finite gives the same bits, and any other raises
    finite, mdp, config = run
    oracle = policy_iteration(finite)
    expected = reference_q_learning_run(mdp, config, oracle)
    if np.isfinite(expected.q_final.values).all():
        event("reference table finite")
        assert trace_bits(q_learning_run(mdp, config, oracle)) == trace_bits(expected)
    else:
        event("reference table not finite")
        with pytest.raises(ValueOverflowError):
            q_learning_run(mdp, config, oracle)


def test_finite_value_below_a_nan_row_maximum_ends_in_an_overflow_error():
    # (s0, a0) takes 1e308, then its zero rate times an overflowed target
    # writes NaN, which becomes s0's row maximum; the later 1.5e308 on
    # (s0, a1) lies below that NaN maximum, and the run raises at its end
    t = np.zeros((2, 2, 2))
    t[0, 0, 0] = t[0, 1, 1] = t[1, :, 1] = 1.0
    mdp = make_mdp(("s0", "s1"), ("a0", "a1"), 0.9, t, np.array([[1e308, 1.5e308], [0.0, 0.0]]))
    # policy_iteration overflows on these rewards; any oracle of the same shape will do
    oracle = policy_iteration(make_mdp(mdp.states, mdp.actions, 0.9, t, np.zeros((2, 2))))
    config = QLearnConfig(schedule=LearningRateSchedule.from_table([1.0, 0.0, 1.0]), steps=20,
                          seed=8, epsilon=1.0, checkpoint_every=1, start="s0")
    expected = reference_q_learning_run(mdp, config, oracle)
    assert np.isnan(expected.q_final.values).any() and expected.max_abs_q == 1.5e308
    with pytest.raises(ValueOverflowError, match="^Q-learning values overflow within 20 steps"):
        q_learning_run(mdp, config, oracle)


class _TopDraws:
    """Stands in for a PCG64 stream: every uniform is the largest below 1."""

    def __init__(self, seed):
        pass

    def random(self, shape):
        return np.full(shape, 1.0 - 2.0**-53)


def test_draw_above_a_row_total_below_one_lands_on_the_last_state(monkeypatch):
    # each row sums to 1 - 1e-10, inside the 1e-9 tolerance, so the top draw
    # falls past every cumulative entry
    t = np.array([[[0.5, 0.5 - 1e-10]], [[0.25, 0.75 - 1e-10]]])
    mdp = make_mdp(("s0", "s1"), ("a0",), 0.5, t, np.array([[1.0], [-1.0]]))
    oracle = policy_iteration(mdp)
    config = QLearnConfig(schedule=LearningRateSchedule.harmonic(1.0), steps=5,
                          epsilon=0.0, checkpoint_every=1, start="s0")
    monkeypatch.setattr(np.random, "default_rng", _TopDraws)
    trace = q_learning_run(mdp, config, oracle)
    assert trace.visits.tolist() == [[1], [4]]
    assert trace_bits(trace) == trace_bits(reference_q_learning_run(mdp, config, oracle))


@st.composite
def one_successor_runs(draw):
    """Runs whose every transition row puts all its mass on one successor,
    S from 1, under both start modes and an epsilon of 0 or 1."""
    n_s = draw(st.integers(1, 6))
    n_a = draw(st.integers(1, 4))
    successors = draw(st.lists(st.integers(0, n_s - 1), min_size=n_s * n_a,
                               max_size=n_s * n_a))
    t = np.eye(n_s)[successors].reshape(n_s, n_a, n_s)
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mdp = make_mdp(tuple(f"s{i}" for i in range(n_s)), tuple(f"a{j}" for j in range(n_a)),
                   draw(st.floats(0.0, 0.95)), t, gen.uniform(-1.0, 1.0, size=(n_s, n_a)))
    steps = draw(st.integers(1, 3000))
    config = QLearnConfig(
        schedule=draw(schedules),
        steps=steps,
        seed=draw(st.integers(0, 2**63 - 1)),
        epsilon=draw(st.sampled_from([0.0, 1.0])),
        checkpoint_every=draw(st.integers(1, steps + 5)),
        q_init=draw(st.floats(-5.0, 5.0)),
        start=draw(st.one_of(st.just("uniform"), st.sampled_from(mdp.states))),
    )
    return mdp, config


@settings(max_examples=100, deadline=None)
@given(one_successor_runs())
def test_library_loop_matches_reference_on_one_successor_dynamics(run):
    mdp, config = run
    oracle = policy_iteration(mdp)
    expected = reference_q_learning_run(mdp, config, oracle)
    assert trace_bits(q_learning_run(mdp, config, oracle)) == trace_bits(expected)


def _cycle(n_s=3):
    """Deterministic dynamics on n_s states: a0 stays, a1 moves one state on."""
    t = np.zeros((n_s, 2, n_s))
    for s in range(n_s):
        t[s, 0, s] = t[s, 1, (s + 1) % n_s] = 1.0
    return t


def _near_one_successor(case):
    t = _cycle()
    if case == "second-mass-1e-12":
        t[1, 1, 0] = 1e-12
    elif case == "short-mass-on-a-middle-state":
        t[0, 1, 1] = 1.0 - 1e-10
    else:  # the short mass on the last state, whose running sum is dropped
        t[1, 1, 2] = 1.0 - 1e-10
    return t


@pytest.mark.parametrize("case", ["second-mass-1e-12", "short-mass-on-a-middle-state",
                                  "short-mass-on-the-last-state"])
@pytest.mark.parametrize("start", ["uniform", "s0"])
def test_library_loop_matches_reference_near_one_successor(case, start):
    mdp = make_mdp(("s0", "s1", "s2"), ("a0", "a1"), 0.9, _near_one_successor(case),
                   np.arange(6.0).reshape(3, 2))
    oracle = policy_iteration(mdp)
    for seed in range(3):
        config = QLearnConfig(schedule=LearningRateSchedule.harmonic(0.8), steps=2000,
                              seed=seed, epsilon=0.5, checkpoint_every=250, start=start)
        expected = reference_q_learning_run(mdp, config, oracle)
        assert trace_bits(q_learning_run(mdp, config, oracle)) == trace_bits(expected)


def test_top_draws_on_a_one_successor_world(monkeypatch):
    mdp = make_mdp(("s0", "s1", "s2"), ("a0", "a1"), 0.5, _cycle(),
                   np.array([[1.0, 0.0], [-1.0, 2.0], [0.5, 0.0]]))
    oracle = policy_iteration(mdp)
    monkeypatch.setattr(np.random, "default_rng", _TopDraws)
    for epsilon in (0.0, 1.0):
        for start in ("uniform", "s0"):
            config = QLearnConfig(schedule=LearningRateSchedule.harmonic(1.0), steps=7,
                                  epsilon=epsilon, checkpoint_every=1, start=start)
            expected = reference_q_learning_run(mdp, config, oracle)
            assert trace_bits(q_learning_run(mdp, config, oracle)) == trace_bits(expected)


@pytest.mark.parametrize("t, searched", [
    (_cycle(), False),
    (_cycle(1), False),
    (_near_one_successor("short-mass-on-the-last-state"), False),
    (_near_one_successor("second-mass-1e-12"), True),
    (_near_one_successor("short-mass-on-a-middle-state"), True),
    (np.full((3, 2, 3), 1 / 3), True),
], ids=["cycle", "one-state", "short-last-state", "second-mass", "short-middle-state", "dense"])
def test_transition_search_runs_only_when_a_running_sum_lies_inside_0_1(monkeypatch, t, searched):
    n_s = t.shape[0]
    mdp = make_mdp(tuple(f"s{i}" for i in range(n_s)), ("a0", "a1"), 0.9, t,
                   np.ones((n_s, 2)))
    cdf = successor_cdf(mdp.transitions)
    assert ((cdf > 0.0) & (cdf < 1.0)).any() == searched
    calls = []

    def counted(row, u):
        calls.append(u)
        return bisect_right(row, u)

    monkeypatch.setattr(mdplab.qlearn, "bisect_right", counted)
    config = QLearnConfig(schedule=LearningRateSchedule.harmonic(1.0), steps=100,
                          checkpoint_every=10)
    q_learning_run(mdp, config, policy_iteration(mdp))
    assert len(calls) == (100 if searched else 0)


def test_row_is_rescanned_only_when_its_leader_may_change(monkeypatch):
    # greedy on one state: a0's value falls from 0 towards -10 and a1 is
    # written once, to -10, so the lowered maximum stays above the runner-up
    # on every step but the two where the leader changes
    mdp = make_mdp(("s0",), ("a0", "a1"), 0.9, np.ones((1, 2, 1)), np.array([[-1.0, -10.0]]))
    rows = []

    def counted(*args):
        # max(visits) sizes the rate table per segment (int entries), max |Q|
        # takes two arguments, and a rescan's second call reads the row with
        # its leader masked by -inf
        row, *rest = args
        if not rest and isinstance(row[0], float) and -math.inf not in row:
            rows.append(list(row))
        return max(*args)

    monkeypatch.setattr(mdplab.qlearn, "max", counted, raising=False)
    config = QLearnConfig(schedule=LearningRateSchedule.harmonic(1.0), steps=100,
                          epsilon=0.0, checkpoint_every=10)
    trace = q_learning_run(mdp, config, policy_iteration(mdp))
    assert rows == [[-1.0, 0.0], [-1.0, -10.0]]
    assert trace.q_final.values.tolist() == [[-4.092380634315364, -10.0]]
    assert trace.visits.tolist() == [[99, 1]]
