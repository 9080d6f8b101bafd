"""Utility filters, reward composition, and optimal-policy divergence."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from mdplab import (
    GridMismatchError,
    Mdp,
    NonFiniteRewardError,
    NonMonotoneFilterError,
    RewardHierarchy,
    RewardLevel,
    SchemaError,
    UtilityFilter,
    ValidationError,
    compare_policies,
    compose_reward,
    egoism_vs_humanity,
    hierarchy_from_dict,
    level_with_weight,
    opposed_reward_pair,
    random_mdp,
    stay_go_dynamics,
    sweep_weights,
    table_from_dict,
)
from mdplab import mdp as mdp_module
from mdplab import rewards


class TestUtilityFilter:
    def test_midpoint_interpolation(self):
        filt = UtilityFilter(((0.0, 0.0), (1.0, 0.5), (2.0, 0.6)))
        assert filt.apply(1.5) == pytest.approx(0.55, abs=1e-12)

    def test_end_segments_extrapolate_linearly(self):
        filt = UtilityFilter(((0.0, 0.0), (1.0, 0.5), (2.0, 0.6)))
        assert filt.apply(-2.0) == pytest.approx(-1.0, abs=1e-12)
        assert filt.apply(3.0) == pytest.approx(0.7, abs=1e-12)

    def test_array_input_keeps_shape(self):
        filt = UtilityFilter(((0.0, 0.0), (1.0, 1.0)))
        out = filt.apply(np.array([[0.25, 0.5], [2.0, -1.0]]))
        assert_allclose(out, [[0.25, 0.5], [2.0, -1.0]])

    @pytest.mark.parametrize(
        "knots",
        [
            ((0.0, 0.0),),
            ((0.0, 0.0), (0.0, 1.0)),
            ((1.0, 0.0), (0.0, 1.0)),
            ((0.0, 1.0), (1.0, 0.0)),
            ((0.0, 0.0), (1.0, float("nan"))),
            ((0.0, 0.0), (1e-300, 1e300)),  # infinite end-segment slope
            ((0.0, 0.0), (1.0, 0.5), (1.0 + 1e-15, 1e300)),
            ((0.0, "x"), (1.0, 1.0)),
        ],
    )
    def test_malformed_knots(self, knots):
        with pytest.raises(NonMonotoneFilterError):
            UtilityFilter(knots)

    @pytest.mark.parametrize(
        "knots",
        [
            ((0.0, 0.0, 0.0), (1.0, 1.0)),
            (0.0, 1.0),
            (("0", "0"), ("1", "1")),
            ((False, 0.0), (1.0, 1.0)),
        ],
    )
    def test_knots_must_be_number_pairs(self, knots):
        with pytest.raises(NonMonotoneFilterError):
            UtilityFilter(knots)

    @settings(max_examples=50, deadline=None)
    @given(
        data=st.data(),
        x=st.floats(-10, 10, allow_nan=False),
        y=st.floats(-10, 10, allow_nan=False),
    )
    def test_monotone_on_random_knots(self, data, x, y):
        xs = sorted(
            data.draw(
                st.lists(
                    st.floats(-5, 5, allow_nan=False), min_size=2, max_size=6, unique=True
                )
            )
        )
        ys = sorted(
            data.draw(
                st.lists(
                    st.floats(-5, 5, allow_nan=False),
                    min_size=len(xs),
                    max_size=len(xs),
                )
            )
        )
        slopes = [(ys[1] - ys[0]) / (xs[1] - xs[0]),
                  (ys[-1] - ys[-2]) / (xs[-1] - xs[-2])]
        if not all(np.isfinite(slopes)):
            # knots a subnormal distance apart: the end segment is too steep
            with pytest.raises(NonMonotoneFilterError):
                UtilityFilter(tuple(zip(xs, ys)))
            return
        filt = UtilityFilter(tuple(zip(xs, ys)))
        lo, hi = min(x, y), max(x, y)
        assert filt.apply(lo) <= filt.apply(hi) + 1e-12


    def test_steep_extrapolation_overflows_to_infinity_quietly(self):
        # the end segment is finite but steep; far inputs leave the float
        # range, and callers check for that instead of a numpy warning
        filt = UtilityFilter(((0.0, 0.0), (5e-308, 1.0)))
        assert filt.apply(-10.0) == -np.inf
        assert_allclose(filt.apply(np.array([0.0, 5e-308])), [0.0, 1.0])


def three_level_hierarchy(w0=1.0, w1=0.0, w2=0.0):
    individual = np.array([[1.0, 0.0], [0.25, -0.5]])
    group = np.array([[0.0, 1.0], [0.5, 0.5]])
    humanity = np.array([[-1.0, 0.5], [0.0, 1.0]])
    return RewardHierarchy(
        (
            RewardLevel("individual", individual, w0),
            RewardLevel("group", group, w1),
            RewardLevel("humanity", humanity, w2),
        )
    )


class TestComposeReward:
    def test_single_weight_reproduces_the_level(self):
        hier = three_level_hierarchy(1.0, 0.0, 0.0)
        assert_allclose(compose_reward(hier), hier.levels[0].table)

    def test_opposite_tables_cancel(self):
        table = np.array([[1.0, -2.0], [0.5, 3.0]])
        hier = RewardHierarchy(
            (RewardLevel("plus", table, 0.5), RewardLevel("minus", -table, 0.5))
        )
        assert_allclose(compose_reward(hier), 0.0, atol=1e-15)

    def test_filter_applies_before_the_weight(self):
        filt = UtilityFilter(((0.0, 0.0), (1.0, 0.5), (2.0, 0.6)))
        level = RewardLevel("solo", np.array([[1.5]]), 2.0, filter=filt)
        hier = RewardHierarchy((level,))
        assert compose_reward(hier)[0, 0] == pytest.approx(1.1, abs=1e-12)

    def test_linear_in_weights_with_identity_filters(self, rng):
        base = three_level_hierarchy(0.7, 0.2, 0.1)
        for _ in range(10):
            w1, w2 = rng.uniform(0, 3, size=2)
            a = compose_reward(level_with_weight(base, 1, w1))
            b = compose_reward(level_with_weight(base, 1, w2))
            both = compose_reward(level_with_weight(base, 1, w1 + w2))
            zero = compose_reward(level_with_weight(base, 1, 0.0))
            assert np.abs((a - zero) + (b - zero) - (both - zero)).max() < 1e-12

    def test_grid_mismatch(self):
        with pytest.raises(GridMismatchError):
            RewardHierarchy(
                (
                    RewardLevel("a", np.zeros((2, 2)), 1.0),
                    RewardLevel("b", np.zeros((3, 2)), 1.0),
                )
            )

    def test_weights_must_be_nonnegative_and_positive_in_total(self):
        with pytest.raises(ValidationError):
            RewardLevel("bad", np.zeros((2, 2)), -1.0)
        with pytest.raises(ValidationError):
            RewardHierarchy((RewardLevel("zero", np.zeros((2, 2)), 0.0),))

    @pytest.mark.parametrize("weight", ["1.0", True, None, [1.0]])
    def test_weight_must_be_a_number(self, weight):
        with pytest.raises(ValidationError):
            RewardLevel("bad", np.zeros((2, 2)), weight)

    def test_name_must_be_a_string(self):
        with pytest.raises(SchemaError):
            RewardLevel(["x"], np.zeros((2, 2)), 1.0)

    def test_filter_must_be_a_utility_filter(self):
        # bare knots are rejected where the level is built, not at composition
        with pytest.raises(ValidationError, match="'bad' filter must be a UtilityFilter or None"):
            RewardLevel("bad", np.zeros((2, 2)), 1.0, ((0.0, 0.0), (1.0, 1.0)))

    @pytest.mark.parametrize("levels", [None, 5, "ab", [{"name": "a"}],
                                        [RewardLevel("a", np.zeros((2, 2)), 1.0), None]])
    def test_levels_must_be_reward_levels(self, levels):
        with pytest.raises(ValidationError, match="levels must be an iterable of RewardLevel"):
            RewardHierarchy(levels)

    def test_levels_may_be_any_iterable(self):
        level = RewardLevel("a", np.ones((2, 2)), 1.0)
        assert RewardHierarchy(iter([level])).levels == (level,)


    def test_overflowing_filter_names_its_level(self):
        steep = RewardLevel("steep", [[1e10, 0.0]], 1.0, UtilityFilter(((0, 0), (1, 1e300))))
        hier = RewardHierarchy((RewardLevel("flat", [[0.0, 1.0]], 1.0), steep))
        with pytest.raises(NonFiniteRewardError, match="'steep': the filtered rewards"):
            compose_reward(hier)

    def test_overflowing_weight_names_its_level(self):
        heavy = RewardLevel("heavy", [[1e300, 0.0]], 1e10)
        with pytest.raises(NonFiniteRewardError, match="'heavy': the weighted rewards"):
            compose_reward(RewardHierarchy((heavy,)))

    def test_overflowing_sum_of_levels_raises(self):
        big = RewardLevel("big", [[1e308, 0.0]], 1.0)
        with pytest.raises(NonFiniteRewardError, match="sum of the levels overflows"):
            compose_reward(RewardHierarchy((big, big)))


class TestComparePolicies:
    def test_identical_rewards_have_zero_divergence(self, rng):
        dyn = random_mdp(5, 3, 0.9, rng)
        report = compare_policies(dyn, dyn.rewards, dyn.rewards)
        assert report.divergence == 0.0
        assert report.value_gap == pytest.approx(0.0, abs=1e-9)

    def test_positive_affine_rewards_have_zero_divergence(self, rng):
        for _ in range(5):
            dyn = random_mdp(6, 3, float(rng.choice([0.5, 0.9])), rng)
            table = rng.uniform(-1, 1, size=(6, 3))
            report = compare_policies(dyn, table, 2.0 * table + 5.0)
            assert report.divergence == 0.0

    def test_opposed_pair_disagrees_everywhere(self):
        dyn = stay_go_dynamics(0.5)
        reward_a, reward_b = opposed_reward_pair()
        report = compare_policies(dyn, reward_a, reward_b)
        assert report.divergence == 1.0
        assert report.per_state["s0"]["argmax_a"] == ("go",)
        assert report.per_state["s0"]["argmax_b"] == ("stay",)
        assert report.per_state["s1"]["argmax_a"] == ("stay",)
        assert report.per_state["s1"]["argmax_b"] == ("go",)

    def test_swapping_the_tables_keeps_divergence(self, rng):
        dyn = random_mdp(6, 3, 0.9, rng)
        a = rng.uniform(-1, 1, size=(6, 3))
        b = rng.uniform(-1, 1, size=(6, 3))
        assert (
            compare_policies(dyn, a, b).divergence
            == compare_policies(dyn, b, a).divergence
        )

    def test_a_visited_policy_may_overflow_where_the_optimum_does_not(self):
        # staying is worth -1.7e309 under reward A, going back and forth is
        # finite and optimal
        dyn = stay_go_dynamics(0.9)
        rep = compare_policies(dyn, [[-1.7e308, 0.0], [-1.7e308, 1.0]], [[1.0, 0.0], [1.0, 0.0]])
        assert rep.divergence == 1.0
        assert [e["argmax_a"] for e in rep.per_state.values()] == [("go",), ("go",)]

    def test_grid_mismatch(self, rng):
        dyn = random_mdp(4, 2, 0.9, rng)
        with pytest.raises(GridMismatchError):
            compare_policies(dyn, np.zeros((4, 3)), np.zeros((4, 2)))

    def test_report_serializes(self):
        dyn = stay_go_dynamics(0.5)
        reward_a, reward_b = opposed_reward_pair()
        doc = compare_policies(dyn, reward_a, reward_b).as_dict()
        assert doc["divergence"] == 1.0
        assert doc["per_state"]["s0"]["argmax_a"] == ["go"]
        assert isinstance(doc["per_state"]["s0"]["disjoint"], bool)


class TestSweepWeights:
    def test_zero_grid_is_the_baseline(self):
        dyn, hier = egoism_vs_humanity()
        assert sweep_weights(dyn, hier, 1, [0.0]) == [(0.0, 0.0)]

    def test_repeated_weights_repeat_entries(self):
        dyn, hier = egoism_vs_humanity()
        rows = sweep_weights(dyn, hier, 1, [0.0, 0.0])
        assert rows == [(0.0, 0.0), (0.0, 0.0)]

    def test_egoism_fixture_has_a_step_transition(self):
        # derived with the exact solver: the humanity level pays 0.4 per
        # "go" against the individual level's 1 per "stay", so the optimum
        # flips once the swept weight crosses 2.5
        dyn, hier = egoism_vs_humanity()
        rows = sweep_weights(dyn, hier, 1, [0.0, 1.0, 2.0, 3.0, 4.0])
        assert rows == [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (3.0, 1.0), (4.0, 1.0)]
        divergences = [d for _, d in rows]
        assert divergences == sorted(divergences)

    def test_exact_tie_at_the_threshold_still_intersects(self):
        dyn, hier = egoism_vs_humanity()
        rows = sweep_weights(dyn, hier, 1, [2.5])
        assert rows == [(2.5, 0.0)]

    def test_rows_equal_per_point_comparisons(self):
        # the baseline is solved once; each row must still be exactly the
        # divergence compare_policies reports for that point
        gen = np.random.default_rng(21)
        dyn = random_mdp(12, 3, 0.9, gen)
        hier = RewardHierarchy(tuple(
            RewardLevel(name, gen.normal(0.0, 1.0, size=(12, 3)), weight)
            for name, weight in (("a", 1.0), ("b", 0.5), ("c", 2.0))
        ))
        grid = [0.0, 0.3, 1.0, 2.5, 10.0]
        baseline = level_with_weight(hier, 1, 0.0)
        expected = [
            (w, compare_policies(dyn, compose_reward(baseline),
                                 compose_reward(level_with_weight(hier, 1, w))).divergence)
            for w in grid
        ]
        assert sweep_weights(dyn, hier, 1, grid) == expected

    def test_repeated_and_signed_zero_weights_equal_per_point_comparisons(self):
        gen = np.random.default_rng(22)
        dyn = random_mdp(10, 3, 0.9, gen)
        hier = RewardHierarchy(tuple(
            RewardLevel(name, gen.normal(0.0, 1.0, size=(10, 3)), weight)
            for name, weight in (("a", 1.0), ("b", 0.5))
        ))
        grid = [10.0, -0.0, 100.0, 10.0, 0.0, 3.0, 100.0, -0.0]
        baseline = compose_reward(level_with_weight(hier, 1, 0.0))
        expected = [
            (w, compare_policies(dyn, baseline,
                                 compose_reward(level_with_weight(hier, 1, w))).divergence)
            for w in grid
        ]
        rows = sweep_weights(dyn, hier, 1, grid)
        assert rows == expected
        assert [str(w) for w, _ in rows] == [str(w) for w in grid]
        assert all(type(d) is float for _, d in rows)

    def test_each_distinct_table_is_solved_once(self, monkeypatch):
        dyn, hier = egoism_vs_humanity()
        grid = [1.0, 0.0, 1.0, -0.0, 3.0, 3.0, 1.0]
        distinct = {compose_reward(level_with_weight(hier, 1, w)).tobytes() for w in [0.0, *grid]}
        solved = []
        solve = rewards._solve
        monkeypatch.setattr(rewards, "_solve",
                            lambda dynamics, table: solved.append(table.tobytes())
                            or solve(dynamics, table))
        rows = sweep_weights(dyn, hier, 1, grid)
        assert sorted(solved) == sorted(distinct) and len(solved) == 3
        assert rows == [(1.0, 0.0), (0.0, 0.0), (1.0, 0.0), (-0.0, 0.0), (3.0, 1.0),
                        (3.0, 1.0), (1.0, 0.0)]

    def test_each_reward_table_is_checked_once(self, monkeypatch):
        # tables past max|R| = 1 make policy iteration scale them by a power
        # of two; the scaled copy is not checked again
        gen = np.random.default_rng(23)
        dyn = random_mdp(8, 3, 0.9, gen)
        table_a, table_b, table_c = (gen.normal(0.0, 5.0, size=(8, 3)) for _ in range(3))
        hier = RewardHierarchy((RewardLevel("a", table_a, 1.0), RewardLevel("b", table_b, 2.0)))
        checks, check = [], mdp_module._reward_table
        monkeypatch.setattr(mdp_module, "_reward_table",
                            lambda table, grid: checks.append(table) or check(table, grid))
        compare_policies(dyn, table_a, table_c)
        assert len(checks) == 2
        checks.clear()
        sweep_weights(dyn, hier, 1, [0.0, 1.5, 3.0, 1.5])  # three distinct tables
        assert len(checks) == 3

    def test_no_reward_path_checks_the_dynamics_again(self, monkeypatch):
        dyn, hier = egoism_vs_humanity()
        table_a, table_b = opposed_reward_pair()
        checks, post_init = [], Mdp.__post_init__
        monkeypatch.setattr(Mdp, "__post_init__",
                            lambda mdp: checks.append(mdp) or post_init(mdp))
        compare_policies(dyn, 1e9 * table_a, table_b)  # policy iteration scales one copy
        sweep_weights(dyn, hier, 1, [0.0, 1.5, 3.0, 1.5])
        assert checks == []

    def test_hierarchy_grid_must_match_the_dynamics(self):
        dyn, _ = egoism_vs_humanity()
        hier = RewardHierarchy((RewardLevel("solo", np.zeros((3, 2)), 1.0),))
        with pytest.raises(GridMismatchError):
            sweep_weights(dyn, hier, 0, [1.0])

    def test_grid_validation(self):
        dyn, hier = egoism_vs_humanity()
        with pytest.raises(ValidationError):
            sweep_weights(dyn, hier, 1, [])
        with pytest.raises(ValidationError):
            sweep_weights(dyn, hier, 1, [-1.0])
        with pytest.raises(ValidationError):
            sweep_weights(dyn, hier, 5, [1.0])
        for grid in (5, None):
            with pytest.raises(ValidationError, match="weight grid"):
                sweep_weights(dyn, hier, 1, grid)


class TestHierarchyParsing:
    def doc(self):
        return {
            "levels": [
                {
                    "name": "individual",
                    "weight": 1.0,
                    "rewards": {"s0": {"stay": 1.0, "go": 0.0},
                                "s1": {"stay": 1.0, "go": 0.0}},
                },
                {
                    "name": "humanity",
                    "weight": 2.0,
                    "rewards": {"s0": {"stay": 0.0, "go": 0.4},
                                "s1": {"stay": 0.0, "go": 0.4}},
                    "filter": [[0.0, 0.0], [1.0, 0.5]],
                },
            ]
        }

    def test_parses_levels_and_filters(self):
        hier = hierarchy_from_dict(self.doc(), ("s0", "s1"), ("stay", "go"))
        assert [lvl.name for lvl in hier.levels] == ["individual", "humanity"]
        assert hier.levels[1].filter is not None
        composed = compose_reward(hier)
        # humanity filter halves its table: 1*ind + 2*(0.5*hum)
        assert_allclose(composed, [[1.0, 0.4], [1.0, 0.4]])

    def test_unknown_level_key(self):
        doc = self.doc()
        doc["levels"][0]["priority"] = 3
        with pytest.raises(SchemaError):
            hierarchy_from_dict(doc, ("s0", "s1"), ("stay", "go"))

    def test_missing_reward_cell(self):
        doc = self.doc()
        del doc["levels"][0]["rewards"]["s1"]["go"]
        with pytest.raises(GridMismatchError):
            hierarchy_from_dict(doc, ("s0", "s1"), ("stay", "go"))

    @pytest.mark.parametrize("key, value", [
        ("weight", "1.0"),
        ("weight", True),
        ("filter", [["0", "0"], ["1", "1"]]),
        ("name", ["x"]),
    ])
    def test_mistyped_level_fields(self, key, value):
        # the same number rule as MDP documents: no strings or booleans
        doc = self.doc()
        doc["levels"][1][key] = value
        with pytest.raises(ValidationError):
            hierarchy_from_dict(doc, ("s0", "s1"), ("stay", "go"))

    def test_table_from_dict_rejects_unknown_names(self):
        with pytest.raises(GridMismatchError):
            table_from_dict(("s0",), ("a0",), {"s0": {"a0": 1.0}, "sX": {"a0": 0.0}})


def test_numpy_scalars_are_numbers():
    level = RewardLevel("x", np.zeros((2, 2)), np.int64(1))
    assert level.weight == 1.0 and type(level.weight) is float
    assert UtilityFilter(np.array([[0, 0], [1, 1]])).knots == ((0.0, 0.0), (1.0, 1.0))


def test_numpy_bools_are_not_numbers():
    with pytest.raises(ValidationError, match="weight must be a number"):
        RewardLevel("x", np.zeros((2, 2)), np.bool_(True))
    with pytest.raises(NonMonotoneFilterError, match="must be a number"):
        UtilityFilter(np.array([[False, False], [True, True]]))
