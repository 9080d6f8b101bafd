"""Learning-rate schedules, the condition classifier, and Q-learning runs."""

import pickle
import sys
import threading
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mdplab import (
    LearningRateSchedule,
    NegativeRateError,
    QLearnConfig,
    QTable,
    RateAtLeastOneError,
    TooFewCheckpointsError,
    ValidationError,
    ValueOverflowError,
    classify_schedule,
    convergence_report,
    make_mdp,
    policy_iteration,
    q_learning_run,
    random_mdp,
    with_rewards,
)
from mdplab.qlearn import _CHUNK, _RATE_TABLE_CAP, Checkpoint, ConvergenceTrace, _checkpoint
from qlearn_reference import reference_q_learning_run, trace_bits


class TestScheduleValidation:
    def test_harmonic_rates(self):
        sched = LearningRateSchedule.harmonic(1.0)
        assert sched.rate(1) == 1.0
        assert sched.rate(2) == 0.5
        assert sched.rate(4) == 0.25

    def test_table_tail_repeats_last_entry(self):
        sched = LearningRateSchedule.from_table([1.0, 0.5])
        assert sched.rate(2) == 0.5
        assert sched.rate(99) == 0.5

    @pytest.mark.parametrize("c", [-0.1, float("nan")])
    def test_negative_constant(self, c):
        with pytest.raises(NegativeRateError):
            LearningRateSchedule.constant(c)

    @pytest.mark.parametrize("c", [1.0, 1.5])
    def test_constant_at_least_one(self, c):
        with pytest.raises(RateAtLeastOneError):
            LearningRateSchedule.constant(c)

    @pytest.mark.parametrize("p", [0.0, -1.0])
    def test_harmonic_power_must_be_positive(self, p):
        with pytest.raises(RateAtLeastOneError):
            LearningRateSchedule.harmonic(p)

    def test_table_rates_above_one(self):
        with pytest.raises(RateAtLeastOneError):
            LearningRateSchedule.from_table([0.5, 1.2])

    def test_table_rates_below_zero(self):
        with pytest.raises(NegativeRateError):
            LearningRateSchedule.from_table([-0.5])

    def test_empty_table(self):
        with pytest.raises(ValidationError):
            LearningRateSchedule.from_table([])

    # the constructor, the three factories and dataclasses.replace share the
    # checks in LearningRateSchedule.__post_init__
    @pytest.mark.parametrize("build, error, match", [
        (lambda: LearningRateSchedule("constant", c=2.0), RateAtLeastOneError, "must be < 1"),
        (lambda: LearningRateSchedule("harmonic", p=-1.0), RateAtLeastOneError, "must be > 0"),
        (lambda: LearningRateSchedule("cosine", p=1.0), ValidationError, "got family 'cosine'"),
        (lambda: LearningRateSchedule("table", table=[0.5, -0.1]), NegativeRateError, ">= 0"),
        (lambda: LearningRateSchedule("harmonic"), ValidationError, "must be a number"),
        (lambda: LearningRateSchedule("constant", c=0.5, p=1.0), ValidationError,
         "'constant' with c"),
        (lambda: replace(LearningRateSchedule.harmonic(0.7), p=-1.0), RateAtLeastOneError,
         "must be > 0"),
        (lambda: replace(LearningRateSchedule.constant(0.5), family="harmonic"), ValidationError,
         "got family 'harmonic'"),
    ], ids=["constant-two", "harmonic-negative", "unknown-family", "table-negative",
            "harmonic-no-p", "stray-field", "replace-negative", "replace-family"])
    def test_every_construction_is_checked(self, build, error, match):
        with pytest.raises(error, match=match):
            build()

    @pytest.mark.parametrize("schedule, built", [
        (LearningRateSchedule.harmonic(1), LearningRateSchedule("harmonic", p=np.int64(1))),
        (LearningRateSchedule.constant(np.float32(0.25)), LearningRateSchedule("constant", c=0.25)),
        (LearningRateSchedule.from_table([1, 0.5]),
         LearningRateSchedule("table", table=np.array([1.0, 0.5]))),
    ])
    def test_the_constructor_normalizes_as_the_factories_do(
            self, stay_go, stay_go_oracle, schedule, built):
        assert built == schedule and hash(built) == hash(schedule)
        assert [type(v) for v in (built.p, built.c)] == [type(v) for v in (schedule.p, schedule.c)]
        config = QLearnConfig(schedule=schedule, steps=3000, seed=2, checkpoint_every=500)
        expected = trace_bits(q_learning_run(stay_go, config, stay_go_oracle))
        for same in (built, replace(schedule)):
            assert same == schedule
            assert trace_bits(q_learning_run(
                stay_go, replace(config, schedule=same), stay_go_oracle)) == expected


def rates_match(schedule, start, stop, formula):
    """``schedule.rates`` gives the bits of ``formula(i)`` for each index."""
    built = schedule.rates(start, stop)
    assert [x.hex() for x in built] == [formula(i).hex() for i in range(start, stop)]


def harmonic_rates_match(p, start, stop):
    rates_match(LearningRateSchedule.harmonic(p), start, stop, lambda i: i ** -p)


index_ranges = st.integers(1, _RATE_TABLE_CAP).flatmap(
    lambda start: st.tuples(st.just(start), st.integers(start, start + 300)))
# 100 underflows: rate(i) passes through the subnormals to 0.0 from i = 1723 on
NAMED_POWERS = [1 / 3, 0.5, 0.51, 1.0, 2.0, 100.0]


class TestBulkRates:
    @pytest.mark.parametrize("p", NAMED_POWERS)
    def test_harmonic_bits_over_the_whole_table(self, p):
        harmonic_rates_match(p, 1, _RATE_TABLE_CAP)

    def test_a_large_power_underflows_to_zero(self):
        built = LearningRateSchedule.harmonic(100.0).rates(1722, 1724)
        assert 0.0 < built[0] < np.finfo(float).tiny and built[1] == 0.0

    @settings(max_examples=200, deadline=None)
    @given(p=st.one_of(st.sampled_from(NAMED_POWERS), st.floats(0.0, 8.0, exclude_min=True)),
           bounds=index_ranges)
    @example(p=1.0, bounds=(7, 7))
    def test_harmonic(self, p, bounds):
        harmonic_rates_match(p, *bounds)

    @settings(max_examples=100, deadline=None)
    @given(c=st.floats(0.0, 1.0, exclude_max=True), bounds=index_ranges)
    @example(c=0.0, bounds=(1, 50))
    @example(c=0.3, bounds=(5, 5))
    def test_constant(self, c, bounds):
        rates_match(LearningRateSchedule.constant(c), *bounds, lambda i: c)

    @settings(max_examples=200, deadline=None)
    @given(values=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=20),
           start=st.integers(1, 40), length=st.integers(0, 40))
    @example(values=[0.9, 0.5, 0.3], start=1, length=10)  # crosses the end
    @example(values=[0.9, 0.5, 0.3], start=3, length=1)  # the last entry alone
    @example(values=[0.9, 0.5, 0.3], start=4, length=0)  # empty, past the end
    @example(values=[0.9, 0.5, 0.3], start=2, length=0)  # empty, inside the table
    def test_table(self, values, start, length):
        rates_match(LearningRateSchedule.from_table(values), start, start + length,
                    lambda i: values[min(i, len(values)) - 1])


SCHEDULES = [LearningRateSchedule.harmonic(1.0), LearningRateSchedule.constant(0.3),
             LearningRateSchedule.from_table([0.9, 0.5])]


@pytest.mark.parametrize("schedule", SCHEDULES, ids=lambda schedule: schedule.family)
class TestVisitIndices:
    # an index below 1 would wrap around a table (rate(0) its last entry) and
    # give harmonic a ZeroDivisionError at 0 and a negative rate at -2
    @pytest.mark.parametrize("i", [0, -1, -2])
    def test_rate_below_one(self, schedule, i):
        with pytest.raises(ValidationError, match="start at 1"):
            schedule.rate(i)

    def test_rates_from_zero(self, schedule):
        with pytest.raises(ValidationError, match="start at 1"):
            schedule.rates(0, 3)

    @pytest.mark.parametrize("i", [2.5, 2.0, True, np.float64(2.0), "2", None, [1]], ids=repr)
    def test_a_non_integer_index(self, schedule, i):
        with pytest.raises(ValidationError, match="visit index must be an integer"):
            schedule.rate(i)

    @pytest.mark.parametrize("i", [2.5, True, np.float64(2.0), "2", None], ids=repr)
    def test_a_non_integer_bound(self, schedule, i):
        with pytest.raises(ValidationError, match="must be an integer"):
            schedule.rates(i, 3)
        with pytest.raises(ValidationError, match="must be an integer"):
            schedule.rates(1, i)

    def test_a_numpy_integer_index(self, schedule):
        assert schedule.rate(np.int64(2)).hex() == schedule.rate(2).hex()
        assert schedule.rates(np.int64(1), np.int64(4)) == schedule.rates(1, 4)


class TestClassifySchedule:
    def test_harmonic_one_is_valid(self):
        verdict = classify_schedule(LearningRateSchedule.harmonic(1.0))
        assert (verdict.condition_i, verdict.condition_ii) == ("pass", "pass")
        assert verdict.rm_valid is True

    def test_harmonic_two_fails_divergence(self):
        verdict = classify_schedule(LearningRateSchedule.harmonic(2.0))
        assert verdict.condition_i == "fail"
        assert verdict.rm_valid is False

    def test_constant_half_fails_square_sum(self):
        verdict = classify_schedule(LearningRateSchedule.constant(0.5))
        assert (verdict.condition_i, verdict.condition_ii) == ("pass", "fail")
        assert verdict.rm_valid is False

    def test_constant_zero(self):
        verdict = classify_schedule(LearningRateSchedule.constant(0.0))
        assert (verdict.condition_i, verdict.condition_ii) == ("fail", "pass")
        assert verdict.rm_valid is False

    def test_table_is_indeterminate_with_partial_sums(self):
        verdict = classify_schedule(LearningRateSchedule.from_table([1.0, 0.5, 0.25]))
        assert (verdict.condition_i, verdict.condition_ii) == ("unknown", "unknown")
        assert verdict.rm_valid is None
        assert verdict.partial_sum == pytest.approx(1.75)
        assert verdict.partial_sum_sq == pytest.approx(1.3125)

    @pytest.mark.parametrize("p,valid", [(0.4, False), (0.5, False), (0.6, True),
                                         (0.75, True), (1.0, True), (1.5, False),
                                         (2.0, False)])
    def test_probe_grid(self, p, valid):
        assert classify_schedule(LearningRateSchedule.harmonic(p)).rm_valid is valid


class TestConfigValidation:
    def test_steps_must_be_positive(self):
        with pytest.raises(ValidationError):
            QLearnConfig(schedule=LearningRateSchedule.harmonic(1.0), steps=0)

    def test_checkpoint_every_must_be_positive(self):
        with pytest.raises(ValidationError):
            QLearnConfig(schedule=LearningRateSchedule.harmonic(1.0), steps=10,
                         checkpoint_every=0)

    def test_epsilon_range(self):
        with pytest.raises(ValidationError):
            QLearnConfig(schedule=LearningRateSchedule.harmonic(1.0), steps=10,
                         epsilon=1.5)

    @pytest.mark.parametrize("seed", [-1, -(2**70), 1.0, 2.5, "3", True, None])
    def test_seed_must_be_a_nonnegative_integer(self, seed):
        with pytest.raises(ValidationError):
            QLearnConfig(schedule=LearningRateSchedule.harmonic(1.0), steps=10,
                         seed=seed)

    @pytest.mark.parametrize("field", ["steps", "checkpoint_every"])
    @pytest.mark.parametrize("value", [100.0, "100", True])
    def test_step_counts_must_be_integers(self, field, value):
        with pytest.raises(ValidationError):
            QLearnConfig(schedule=LearningRateSchedule.harmonic(1.0),
                         **{"steps": 100, field: value})

    @pytest.mark.parametrize("field", ["epsilon", "q_init"])
    @pytest.mark.parametrize("value", ["0.2", "x", True, False, None, np.bool_(True)])
    def test_epsilon_and_q_init_must_be_numbers(self, field, value):
        with pytest.raises(ValidationError, match=field):
            QLearnConfig(schedule=LearningRateSchedule.harmonic(1.0), steps=10,
                         **{field: value})

    @pytest.mark.parametrize("field", ["epsilon", "q_init"])
    @pytest.mark.parametrize("value", [0, 0.5, np.float64(0.25), np.float32(0.25), np.int64(0)])
    def test_epsilon_and_q_init_accept_numbers(self, field, value):
        config = QLearnConfig(schedule=LearningRateSchedule.harmonic(1.0), steps=10,
                              **{field: value})
        assert getattr(config, field) == value

    @pytest.mark.parametrize("schedule", [None, "harmonic", 0.5, LearningRateSchedule.harmonic])
    def test_schedule_must_be_a_schedule(self, schedule):
        # checked up front: a run would otherwise fail on schedule.rate
        with pytest.raises(ValidationError, match="is not a LearningRateSchedule"):
            QLearnConfig(schedule=schedule, steps=10)

    @pytest.mark.parametrize("start", [None, 0, ("s0",)])
    def test_start_must_be_a_string(self, start):
        with pytest.raises(ValidationError, match="start must be 'uniform' or a state name"):
            QLearnConfig(schedule=LearningRateSchedule.harmonic(1.0), steps=10, start=start)

    @pytest.mark.parametrize("seed", [0, np.int64(7), 2**70])
    def test_nonnegative_integer_seeds_are_accepted(self, seed):
        config = QLearnConfig(schedule=LearningRateSchedule.harmonic(1.0), steps=10,
                              seed=seed)
        assert config.seed == seed


def _recorded_rates(monkeypatch):
    """The (start, stop) of each ``LearningRateSchedule.rates`` call from now on."""
    ranges, rates = [], LearningRateSchedule.rates

    def recorded(schedule, start, stop):
        ranges.append((start, stop))
        return rates(schedule, start, stop)

    monkeypatch.setattr(LearningRateSchedule, "rates", recorded)
    return ranges


class TestQLearningRun:
    def test_single_forced_update(self, stay_go, stay_go_oracle):
        # greedy from an all-zero table at s1 picks the lowest-index action
        # "stay"; with a first-visit rate of 1 the update writes the full
        # target: 0 + 1 * (1 + 0.5 * 0 - 0) = 1.
        config = QLearnConfig(
            schedule=LearningRateSchedule.from_table([1.0]),
            steps=1,
            epsilon=0.0,
            checkpoint_every=1,
            start="s1",
        )
        trace = q_learning_run(stay_go, config, stay_go_oracle)
        assert trace.q_final.values.tolist() == [[0.0, 0.0], [1.0, 0.0]]
        assert trace.visits.tolist() == [[0, 0], [1, 0]]
        assert trace.visits.sum() == 1

    def test_zero_rewards_keep_zero_table(self, rng):
        mdp = with_rewards(random_mdp(4, 3, 0.9, rng), np.zeros((4, 3)))
        oracle = policy_iteration(mdp)
        config = QLearnConfig(schedule=LearningRateSchedule.harmonic(1.0),
                              steps=5000, seed=3, epsilon=0.3, checkpoint_every=100)
        trace = q_learning_run(mdp, config, oracle)
        assert all(cp.supnorm_error == 0.0 for cp in trace.checkpoints)
        assert trace.max_abs_q == 0.0

    def test_identical_seeds_identical_traces(self, stay_go, stay_go_oracle):
        config = QLearnConfig(schedule=LearningRateSchedule.harmonic(1.0),
                              steps=20_000, seed=9, epsilon=0.2, checkpoint_every=500)
        a = q_learning_run(stay_go, config, stay_go_oracle)
        b = q_learning_run(stay_go, config, stay_go_oracle)
        assert [cp.step for cp in a.checkpoints] == [cp.step for cp in b.checkpoints]
        assert [cp.supnorm_error for cp in a.checkpoints] == [
            cp.supnorm_error for cp in b.checkpoints
        ]
        assert np.array_equal(a.q_final.values, b.q_final.values)
        assert np.array_equal(a.visits, b.visits)

    def test_iterates_stay_within_value_bound(self, stay_go, stay_go_oracle, rng):
        bound = stay_go.reward_bound / (1.0 - stay_go.gamma)
        config = QLearnConfig(schedule=LearningRateSchedule.harmonic(0.75),
                              steps=50_000, seed=4, epsilon=0.2, checkpoint_every=1000)
        trace = q_learning_run(stay_go, config, stay_go_oracle)
        assert trace.max_abs_q <= bound + 1e-9

        mdp = random_mdp(6, 3, 0.95, rng)
        oracle = policy_iteration(mdp)
        trace = q_learning_run(mdp, config, oracle)
        assert trace.max_abs_q <= mdp.reward_bound / (1.0 - mdp.gamma) + 1e-9

    def test_uniform_restarts_cover_every_pair(self, stay_go, stay_go_oracle):
        config = QLearnConfig(schedule=LearningRateSchedule.harmonic(1.0),
                              steps=10_000, seed=5, epsilon=0.1, checkpoint_every=1000)
        trace = q_learning_run(stay_go, config, stay_go_oracle)
        assert trace.visits.min() >= 1

        mdp = random_mdp(8, 4, 0.9, np.random.default_rng(2))
        trace = q_learning_run(mdp, config, policy_iteration(mdp))
        assert trace.visits.min() >= 1

    def test_converges_on_stay_go(self, stay_go, stay_go_oracle):
        # threshold confirmed against this implementation before freezing:
        # seed 1 at 50k steps lands at 8.5e-3
        config = QLearnConfig(schedule=LearningRateSchedule.harmonic(1.0),
                              steps=50_000, seed=1, epsilon=0.2, checkpoint_every=1000)
        summary = convergence_report(q_learning_run(stay_go, config, stay_go_oracle))
        assert summary.final_err < 0.02
        assert summary.greedy_policy_matched
        assert summary.last_decile_median_err < summary.first_decile_median_err

    def test_non_finite_error_is_reported(self, stay_go, stay_go_oracle):
        # an all-NaN Q* built by hand makes every difference NaN, and a NaN
        # must not be skipped by the max scan and reported as 0.0
        oracle = replace(stay_go_oracle, q_star=QTable(np.full((2, 2), np.nan)))
        config = QLearnConfig(schedule=LearningRateSchedule.harmonic(1.0),
                              steps=2000, seed=0, checkpoint_every=500)
        trace = q_learning_run(stay_go, config, oracle)
        assert len(trace.checkpoints) == 4
        assert all(np.isnan(cp.supnorm_error) for cp in trace.checkpoints)
        # on rewards whose Q overflows, the run raises instead of ending
        mdp = with_rewards(stay_go, [[0.0, 0.0], [1.7e308, 0.0]])
        with pytest.raises(ValueOverflowError, match="^Q-learning values overflow within 2000 "):
            q_learning_run(mdp, config, oracle)

    def test_config_must_be_a_qlearn_config(self, stay_go, stay_go_oracle):
        with pytest.raises(ValidationError, match="^config must be a QLearnConfig"):
            q_learning_run(stay_go, None, stay_go_oracle)

    @pytest.mark.parametrize("oracle", [None, "q_star"], ids=["none", "bare-qtable"])
    def test_oracle_must_hold_a_qtable_q_star(self, stay_go, stay_go_oracle, oracle):
        oracle = stay_go_oracle.q_star if oracle == "q_star" else oracle
        config = QLearnConfig(schedule=LearningRateSchedule.harmonic(1.0), steps=10)
        with pytest.raises(ValidationError, match="^oracle must have a QTable q_star"):
            q_learning_run(stay_go, config, oracle)

    def test_rates_come_from_a_table(self, stay_go, stay_go_oracle, monkeypatch):
        # each visit index is rated once, when the table grows to cover it,
        # not once per update of every pair that reaches it, and below the
        # cap no index is rated by a rate call
        ranges, rated = _recorded_rates(monkeypatch), []
        rate = LearningRateSchedule.rate

        def counted(schedule, i):
            rated.append(i)
            return rate(schedule, i)

        monkeypatch.setattr(LearningRateSchedule, "rate", counted)
        every = 1000
        config = QLearnConfig(schedule=LearningRateSchedule.harmonic(0.7),
                              steps=20_000, seed=3, checkpoint_every=every)
        trace = q_learning_run(stay_go, config, stay_go_oracle)
        assert rated == []
        indices = [i for start, stop in ranges for i in range(start, stop)]
        n = ranges[-1][1]
        assert all(start < stop for start, stop in ranges)
        assert indices == list(range(1, n))
        assert trace.visits.max() < n <= trace.visits.max() + every + 1

    @pytest.mark.parametrize("schedule", [LearningRateSchedule.harmonic(0.7),
                                          LearningRateSchedule.constant(0.3),
                                          LearningRateSchedule.from_table([0.9, 0.5, 0.3])])
    def test_bits_past_the_rate_table_cap(self, schedule):
        # one pair takes every visit, so the last three indices lie past the
        # cap; the checkpoint interval does not divide the block size
        mdp = make_mdp(("s0",), ("a0",), 0.9, [[[1.0]]], [[1.0]])
        steps = _RATE_TABLE_CAP + 3
        assert steps > 10 * _CHUNK and 100_003 % _CHUNK != 0
        config = QLearnConfig(schedule=schedule, steps=steps, seed=11,
                              checkpoint_every=100_003, start="s0")
        oracle = policy_iteration(mdp)
        trace = q_learning_run(mdp, config, oracle)
        assert trace.visits.tolist() == [[steps]]
        assert trace_bits(trace) == trace_bits(reference_q_learning_run(mdp, config, oracle))

    def test_updates_do_not_depend_on_checkpoint_every(self, stay_go, stay_go_oracle):
        # a run over two blocks of uniforms gives the same bits whether its
        # segments end inside a block, at a block's end, just past it, or only
        # at the run's end
        steps = 2 * _CHUNK + 5
        bits = []
        for every in (997, _CHUNK, _CHUNK + 1, steps):
            config = QLearnConfig(schedule=LearningRateSchedule.harmonic(0.8),
                                  steps=steps, seed=7, epsilon=0.2, checkpoint_every=every)
            trace = q_learning_run(stay_go, config, stay_go_oracle)
            assert [cp.step for cp in trace.checkpoints] == list(range(every, steps + 1, every))
            bits.append({k: v for k, v in trace_bits(trace).items() if k != "checkpoints"})
        assert all(b == bits[0] for b in bits[1:])

    def test_oracle_shape_mismatch(self, stay_go, rng):
        other = policy_iteration(random_mdp(3, 2, 0.5, rng))
        config = QLearnConfig(schedule=LearningRateSchedule.harmonic(1.0), steps=10)
        with pytest.raises(ValidationError, match="oracle was not computed on this MDP"):
            q_learning_run(stay_go, config, other)

    def test_fixed_start_unknown_state(self, stay_go, stay_go_oracle):
        config = QLearnConfig(schedule=LearningRateSchedule.harmonic(1.0),
                              steps=10, start="nowhere")
        with pytest.raises(ValidationError):
            q_learning_run(stay_go, config, stay_go_oracle)


class TestKeptRateTable:
    # q_learning_run keeps the rates it builds on the schedule object, so a
    # later run of the same schedule builds only the indices none built before
    def test_a_second_run_builds_no_index_twice(self, stay_go, stay_go_oracle, monkeypatch):
        ranges = _recorded_rates(monkeypatch)
        schedule = LearningRateSchedule.harmonic(0.7)
        first = QLearnConfig(schedule=schedule, steps=5000, seed=3, checkpoint_every=500)
        q_learning_run(stay_go, first, stay_go_oracle)
        built = ranges[-1][1]
        del ranges[:]
        second = replace(first, steps=20_000, seed=4)
        trace = q_learning_run(stay_go, second, stay_go_oracle)
        assert ranges and ranges[0][0] == built
        assert [i for start, stop in ranges for i in range(start, stop)] == list(
            range(built, ranges[-1][1]))
        fresh = replace(second, schedule=LearningRateSchedule.harmonic(0.7))
        assert trace_bits(trace) == trace_bits(q_learning_run(stay_go, fresh, stay_go_oracle))
        assert trace_bits(trace) == trace_bits(
            reference_q_learning_run(stay_go, second, stay_go_oracle))
        del ranges[:]
        q_learning_run(stay_go, first, stay_go_oracle)
        assert ranges == []

    @pytest.mark.parametrize("schedule, formula", [
        (LearningRateSchedule.harmonic(0.7), lambda i: i ** -0.7),
        (LearningRateSchedule.constant(0.3), lambda i: 0.3),
        (LearningRateSchedule.from_table([0.9, 0.5, 0.3]),
         lambda i: (0.9, 0.5, 0.3)[min(i, 3) - 1]),
    ])
    def test_runs_in_threads_share_one_table(self, stay_go, stay_go_oracle, schedule, formula):
        # the four runs start together and grow the table every 250 steps;
        # a growth that read a stale length would misplace every later rate
        configs = [QLearnConfig(schedule=schedule, steps=12_000, seed=seed, epsilon=0.2,
                                checkpoint_every=250) for seed in range(4)]
        expected = [trace_bits(q_learning_run(
            stay_go, replace(c, schedule=replace(schedule)), stay_go_oracle)) for c in configs]
        assert "_rates" not in vars(schedule)
        barrier, results = threading.Barrier(4), [None] * 4

        def run(k):
            barrier.wait()
            results[k] = trace_bits(q_learning_run(stay_go, configs[k], stay_go_oracle))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=run, args=(k,)) for k in range(4)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert results == expected
        table = vars(schedule)["_rates"]
        assert table[0] == 0.0 and len(table) > max(t["visits"][0][0] for t in results)
        assert [r.hex() for r in table[1:]] == [formula(i).hex() for i in range(1, len(table))]

    def test_the_table_is_not_part_of_the_value(self, stay_go, stay_go_oracle):
        schedule = LearningRateSchedule.harmonic(0.7)
        before = (repr(schedule), hash(schedule), len(pickle.dumps(schedule)))
        config = QLearnConfig(schedule=schedule, steps=3000, seed=1)
        q_learning_run(stay_go, config, stay_go_oracle)
        assert len(vars(schedule)["_rates"]) > 1
        assert (repr(schedule), hash(schedule), len(pickle.dumps(schedule))) == before
        assert schedule == LearningRateSchedule.harmonic(0.7)
        copy = pickle.loads(pickle.dumps(schedule))
        assert copy == schedule and "_rates" not in vars(copy)

    def test_signed_zero_rates_stay_apart(self, stay_go, stay_go_oracle):
        # constant(0.0) == constant(-0.0), but from q_init -0.0 an update adds
        # beta * (target - q), and only a -0.0 rate keeps the entry at -0.0
        bits = []
        for c in (0.0, -0.0, 0.0):
            config = QLearnConfig(schedule=LearningRateSchedule.constant(c), steps=2000,
                                  seed=2, q_init=-0.0)
            trace = q_learning_run(stay_go, config, stay_go_oracle)
            assert trace_bits(trace) == trace_bits(
                reference_q_learning_run(stay_go, config, stay_go_oracle))
            bits.append(trace_bits(trace)["q_final"])
        assert bits[0] != bits[1] and bits[0] == bits[2]


class TestCheckpoint:
    def test_an_overflowing_difference_is_inf_without_a_warning(self):
        stars = np.array([[True, False]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cp = _checkpoint(7, [[1e308, 0.0]], np.array([[-1e308, 0.0]]), stars)
        assert cp.step == 7 and cp.supnorm_error == np.inf
        assert type(cp.supnorm_error) is float

    def test_a_nan_entry_gives_a_nan_error(self):
        stars = np.array([[True, False], [True, False]])
        cp = _checkpoint(1, [[np.nan, 0.0], [5.0, 0.0]], np.zeros((2, 2)), stars)
        assert np.isnan(cp.supnorm_error)

    def test_every_action_equal_to_the_row_maximum_is_greedy(self):
        # -0.0 == 0.0, so both signed zeros lead their row
        stars = np.array([[False, True, False], [True, False, False]])
        cp = _checkpoint(1, [-0.0, 0.0, -1.0, 2.0, 3.0, 3.0], np.zeros((2, 3)), stars)
        assert cp.greedy_match.tolist() == [True, False]


def _trace_from_errors(errors):
    checkpoints = tuple(
        Checkpoint(step=i + 1, supnorm_error=e, greedy_match=np.array([True]))
        for i, e in enumerate(errors)
    )
    return ConvergenceTrace(checkpoints=checkpoints, q_final=None, visits=None,
                            max_abs_q=0.0)


class TestConvergenceReport:
    def test_decreasing_errors_order_the_decile_medians(self):
        errors = np.geomspace(1.0, 0.005, 100)
        summary = convergence_report(_trace_from_errors(errors))
        assert summary.last_decile_median_err < summary.first_decile_median_err
        assert summary.final_err == pytest.approx(0.005)
        assert summary.greedy_policy_matched

    def test_constant_errors_give_equal_medians(self):
        summary = convergence_report(_trace_from_errors([0.25] * 40))
        assert summary.first_decile_median_err == summary.last_decile_median_err

    def test_too_few_checkpoints(self):
        with pytest.raises(TooFewCheckpointsError):
            convergence_report(_trace_from_errors([0.1] * 9))
