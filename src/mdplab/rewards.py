"""Weighted, utility-filtered reward stacks and optimal-policy divergence.

A hierarchy is an ordered list of reward levels (say individual, group,
humanity), each a full (state, action) table with a nonnegative weight and an
optional monotone utility filter.  Composition is the weighted sum of the
filtered tables.  Divergence between two reward definitions is measured at
the argmax level: the fraction of states where the two induced optimal action
sets are disjoint.  A set holds the actions within ARGMAX_TOL times the spread
of the whole Q* table (max - min) of their state's best value, so the
divergence is invariant to positive affine reward changes.
"""

from dataclasses import dataclass, replace

import numpy as np

from .mdp import (
    GridMismatchError,
    NonFiniteRewardError,
    SchemaError,
    ValidationError,
    argmax_sets,
    as_integer,
    as_number,
    check_object,
    frozen_array,
    table_from_dict,
    with_rewards,
)
from .solve import policy_iteration

ARGMAX_TOL = 1e-7


class NonMonotoneFilterError(ValidationError):
    """Utility filter knots are not a monotone piecewise-linear map."""


@dataclass(frozen=True)
class UtilityFilter:
    """Piecewise-linear monotone map given by (input, output) knots.

    Inputs must be strictly increasing and outputs nondecreasing; beyond the
    first and last knots the end segments continue linearly, so their slopes
    must be finite.
    """

    knots: tuple

    def __post_init__(self):
        try:
            pairs = [(x, y) for x, y in self.knots]
        except (TypeError, ValueError):
            raise NonMonotoneFilterError("filter knots must be (input, output) pairs") from None
        knots = tuple(
            tuple(as_number(v, "a filter knot", NonMonotoneFilterError) for v in pair)
            for pair in pairs
        )
        if len(knots) < 2:
            raise NonMonotoneFilterError("a filter needs at least 2 knots")
        xs = [x for x, _ in knots]
        ys = [y for _, y in knots]
        if not all(np.isfinite(xs)) or not all(np.isfinite(ys)):
            raise NonMonotoneFilterError("filter knots must be finite")
        if any(b <= a for a, b in zip(xs, xs[1:])):
            raise NonMonotoneFilterError("knot inputs must be strictly increasing")
        if any(b < a for a, b in zip(ys, ys[1:])):
            raise NonMonotoneFilterError("knot outputs must be nondecreasing")
        slopes = [(ys[1] - ys[0]) / (xs[1] - xs[0]),
                  (ys[-1] - ys[-2]) / (xs[-1] - xs[-2])]
        if not all(np.isfinite(slopes)):
            raise NonMonotoneFilterError("end-segment slopes must be finite")
        object.__setattr__(self, "knots", knots)

    def apply(self, values):
        """Evaluate the map at an array (or scalar) of inputs."""
        xs = np.array([x for x, _ in self.knots])
        ys = np.array([y for _, y in self.knots])
        values = frozen_array(values, "filter inputs")
        flat = np.atleast_1d(values)
        out = np.interp(flat, xs, ys)
        # A steep end segment extrapolates to +-inf, which callers check for.
        with np.errstate(over="ignore"):
            lo = flat < xs[0]
            if lo.any():
                slope = (ys[1] - ys[0]) / (xs[1] - xs[0])
                out[lo] = ys[0] + slope * (flat[lo] - xs[0])
            hi = flat > xs[-1]
            if hi.any():
                slope = (ys[-1] - ys[-2]) / (xs[-1] - xs[-2])
                out[hi] = ys[-1] + slope * (flat[hi] - xs[-1])
        return float(out[0]) if values.ndim == 0 else out.reshape(values.shape)


@dataclass(frozen=True, eq=False)
class RewardLevel:
    """One layer of the reward stack: a named table with a weight."""

    name: str
    table: np.ndarray
    weight: float
    filter: UtilityFilter = None

    def __post_init__(self):
        if not isinstance(self.name, str):
            raise SchemaError(f"a level name must be a string, got {self.name!r}")
        table = frozen_array(self.table, f"level {self.name!r} table")
        if table.ndim != 2:
            raise GridMismatchError(f"level {self.name!r} table must be (S, A)")
        if not np.all(np.isfinite(table)):
            raise NonFiniteRewardError(f"level {self.name!r} has non-finite rewards")
        weight = as_number(self.weight, f"level {self.name!r} weight", ValidationError)
        if not np.isfinite(weight) or weight < 0.0:
            raise ValidationError(f"level {self.name!r} weight must be >= 0")
        if self.filter is not None and not isinstance(self.filter, UtilityFilter):
            raise ValidationError(f"level {self.name!r} filter must be a UtilityFilter or None")
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "weight", weight)


@dataclass(frozen=True, eq=False)
class RewardHierarchy:
    levels: tuple

    def __post_init__(self):
        levels = tuple(self.levels) if np.iterable(self.levels) else (None,)
        if not all(isinstance(level, RewardLevel) for level in levels):
            raise ValidationError(f"levels must be an iterable of RewardLevel, got {self.levels!r}")
        if not levels:
            raise ValidationError("hierarchy needs at least one level")
        shape = levels[0].table.shape
        for level in levels:
            if level.table.shape != shape:
                raise GridMismatchError(
                    f"level {level.name!r} grid {level.table.shape} does not "
                    f"match {shape}"
                )
        if sum(level.weight for level in levels) <= 0.0:
            raise ValidationError("hierarchy weights must sum to a positive value")
        object.__setattr__(self, "levels", levels)


def _composed(levels, weights):
    total = np.zeros(levels[0].table.shape)
    # An overflow is reported by naming its level, not as a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        for level, weight in zip(levels, weights):
            filtered = level.filter.apply(level.table) if level.filter else level.table
            weighted = weight * filtered
            if not np.isfinite(weighted).all():
                stage = "weighted" if np.isfinite(filtered).all() else "filtered"
                raise NonFiniteRewardError(
                    f"level {level.name!r}: the {stage} rewards overflow"
                )
            total = total + weighted
    if not np.isfinite(total).all():
        raise NonFiniteRewardError("the weighted sum of the levels overflows")
    return total


def compose_reward(hierarchy):
    """Weighted sum of the filtered level tables: R = sum_l w_l f_l(T_l)."""
    return _composed(hierarchy.levels, [level.weight for level in hierarchy.levels])


def hierarchy_from_dict(doc, states, actions):
    """Hierarchy from {"levels": [{"name", "weight", "rewards", "filter"?}]}."""
    check_object(doc, ("levels",), (), "hierarchy document")
    if not isinstance(doc["levels"], list):
        raise SchemaError("levels must be a list")
    levels = []
    for k, entry in enumerate(doc["levels"]):
        check_object(entry, ("name", "weight", "rewards"), ("filter",), f"levels[{k}]")
        levels.append(
            RewardLevel(
                name=entry["name"],
                table=table_from_dict(states, actions, entry["rewards"]),
                weight=entry["weight"],
                filter=UtilityFilter(entry["filter"]) if "filter" in entry else None,
            )
        )
    return RewardHierarchy(tuple(levels))


@dataclass(frozen=True, eq=False)
class DivergenceReport:
    """Per-state optimal-action sets for two reward definitions.

    ``divergence`` is the fraction of states whose argmax sets are disjoint.
    ``value_gap`` compares the two optimal value vectors after each is
    rescaled to [0, 1] (informational; values are not affine-invariant, the
    argmax sets are).
    """

    per_state: dict
    divergence: float
    value_gap: float

    def as_dict(self):
        return {
            "per_state": {
                s: {
                    "argmax_a": list(entry["argmax_a"]),
                    "argmax_b": list(entry["argmax_b"]),
                    "disjoint": entry["disjoint"],
                }
                for s, entry in self.per_state.items()
            },
            "divergence": self.divergence,
            "value_gap": self.value_gap,
        }


def _unit_scale(v):
    span = v.max() - v.min()
    if span <= 0.0:
        return np.zeros_like(v)
    return (v - v.min()) / span


def _solve(dynamics, table):
    return policy_iteration(with_rewards(dynamics, table))


def _disjoint(sets_a, sets_b):
    """Mask of the states whose two argmax sets share no action."""
    return ~(sets_a & sets_b).any(axis=1)


def _divergence(dynamics, sol_a, sol_b):
    """Argmax-set and unit-scaled value comparison of two solutions."""
    sets_a = argmax_sets(sol_a.q_star.values, ARGMAX_TOL)
    sets_b = argmax_sets(sol_b.q_star.values, ARGMAX_TOL)
    disjoint = _disjoint(sets_a, sets_b)
    per_state = {}
    for s, tops_a, tops_b, d in zip(dynamics.states, sets_a, sets_b, disjoint.tolist()):
        names_a = tuple(a for a, top in zip(dynamics.actions, tops_a) if top)
        names_b = tuple(a for a, top in zip(dynamics.actions, tops_b) if top)
        per_state[s] = {"argmax_a": names_a, "argmax_b": names_b, "disjoint": d}
    gap = np.abs(_unit_scale(sol_a.v_star.values) - _unit_scale(sol_b.v_star.values)).max()
    return DivergenceReport(
        per_state=per_state,
        divergence=float(disjoint.mean()),
        value_gap=float(gap),
    )


def compare_policies(dynamics, reward_a, reward_b):
    """Solve the dynamics under both reward tables and compare optimal actions.

    Each induced MDP is solved exactly by policy iteration, so no sweep cap
    limits gamma; an action within 1e-7 (max Q* - min Q*) of its state's best
    action value belongs to its argmax set.
    """
    return _divergence(dynamics, _solve(dynamics, reward_a), _solve(dynamics, reward_b))


def _level_index(hierarchy, level_index):
    level_index = as_integer(level_index, "level index")
    if not 0 <= level_index < len(hierarchy.levels):
        raise ValidationError(f"no level at index {level_index}")
    return level_index


def sweep_weights(dynamics, hierarchy, level_index, grid):
    """Divergence of the composed objective as one level's weight varies.

    For each weight in the grid the hierarchy is recomposed with that weight
    on the chosen level and compared (argmax divergence) against the baseline
    composition where the same level has weight zero; each distinct composed
    table is solved once.  Returns a list of (weight, divergence) pairs.
    """
    if not np.iterable(grid):
        raise ValidationError("weight grid must be a sequence of numbers")
    grid = [as_number(w, "a grid weight", ValidationError) for w in grid]
    if not grid:
        raise ValidationError("weight grid must be nonempty")
    if any(not np.isfinite(w) or w < 0.0 for w in grid):
        raise ValidationError("weights must be finite and >= 0")
    level_index = _level_index(hierarchy, level_index)
    weights = [level.weight for level in hierarchy.levels]
    solved, tops = {}, []  # argmax sets by composed-table bytes, and per weight
    for w in [0.0, *grid]:
        weights[level_index] = w  # checked above, so no RewardLevel re-checks its table
        table = _composed(hierarchy.levels, weights)
        if (key := table.tobytes()) not in solved:
            solved[key] = argmax_sets(_solve(dynamics, table).q_star.values, ARGMAX_TOL)
        tops.append(solved[key])
    return [(w, float(_disjoint(tops[0], t).mean())) for w, t in zip(grid, tops[1:])]


def level_with_weight(hierarchy, level_index, weight):
    """Copy of the hierarchy with one level's weight replaced."""
    level_index = _level_index(hierarchy, level_index)
    levels = list(hierarchy.levels)
    levels[level_index] = replace(levels[level_index], weight=weight)
    return RewardHierarchy(tuple(levels))
