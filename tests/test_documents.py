"""Document parsers are total: mangled input returns or raises ValidationError."""

import copy

from hypothesis import given, settings
from hypothesis import strategies as st

from mdplab import (
    ValidationError,
    hierarchy_from_dict,
    mdp_to_dict,
    stay_go_mdp,
    table_from_dict,
    validate_mdp,
)

STATES = ("s0", "s1")
ACTIONS = ("stay", "go")

MDP_DOC = mdp_to_dict(stay_go_mdp())
TABLE_DOC = {"s0": {"stay": 0.0, "go": 0.0}, "s1": {"stay": 1.0, "go": 0.0}}
HIERARCHY_DOC = {
    "levels": [
        {"name": "individual", "weight": 1.0, "rewards": copy.deepcopy(TABLE_DOC)},
        {"name": "humanity", "weight": 2.0, "rewards": copy.deepcopy(TABLE_DOC),
         "filter": [[0.0, 0.0], [1.0, 0.5]]},
    ]
}

# JSON values, with integers beyond the float range and non-finite floats
# (Python's json module reads NaN, Infinity and arbitrarily long integers)
leaves = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=10**308, max_value=10**400)
    | st.floats()
    | st.sampled_from(["", "s0", "s1", "stay", "go", "1.0", "levels", "x"])
)
json_values = st.recursive(
    leaves,
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.sampled_from(["s0", "s1", "stay", "go", "sX", "name",
                                       "weight", "rewards", "filter", ""]),
                      children, max_size=3),
    max_leaves=8,
)


def _paths(obj, prefix=()):
    yield prefix
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _paths(value, prefix + (key,))
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from _paths(value, prefix + (i,))


@st.composite
def mangled(draw, doc):
    """A copy of doc with one to three nodes replaced, deleted or extended."""
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(sorted(_paths(doc), key=repr)))
        if not path:
            doc = draw(json_values)
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        action = draw(st.sampled_from(["replace", "delete", "extend"]))
        if action == "replace":
            parent[path[-1]] = draw(leaves | json_values)
        elif action == "delete":
            del parent[path[-1]]
        elif isinstance(parent[path[-1]], dict):
            parent[path[-1]][draw(st.sampled_from(["sX", "s0", "go", "extra"]))] = (
                draw(json_values))
        elif isinstance(parent[path[-1]], list):
            parent[path[-1]].append(draw(json_values))
    return doc


def _total(parse, doc):
    try:
        parse(doc)
    except ValidationError:
        pass


@settings(max_examples=200, deadline=None)
@given(doc=mangled(MDP_DOC))
def test_validate_mdp_is_total(doc):
    _total(validate_mdp, doc)


@settings(max_examples=200, deadline=None)
@given(doc=mangled(TABLE_DOC))
def test_table_from_dict_is_total(doc):
    _total(lambda d: table_from_dict(STATES, ACTIONS, d), doc)


@settings(max_examples=200, deadline=None)
@given(doc=mangled(HIERARCHY_DOC))
def test_hierarchy_from_dict_is_total(doc):
    _total(lambda d: hierarchy_from_dict(d, STATES, ACTIONS), doc)
