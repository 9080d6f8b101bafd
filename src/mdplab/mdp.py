"""Finite discounted MDPs: validation, serialization, sampling, evaluation.

States and actions are ordered tuples of string identifiers; transition
kernels are dense (S, A, S) arrays and rewards are (S, A) arrays.  All
container types are immutable after construction and safe to share across
threads.  Random streams (``numpy.random.Generator``, PCG64) are single-owner:
one stream per running experiment.
"""

import ctypes
import functools
import json
import threading
from dataclasses import dataclass, field

import numpy as np

ROW_SUM_TOL = 1e-9
STACK_BYTES = 1 << 19  # sized for L2: P_pi bytes per stacked solve, value iteration history bytes
ONE_THREAD_N = 100  # smaller solves gave the same bits on 1 and 2 OpenBLAS threads
_NUMBER_TYPES = (int, float, np.integer, np.floating)  # built once; as_number runs per entry
_BLAS_LOCK = threading.Lock()  # the thread count is process-wide: held from set to restore


class ValidationError(ValueError):
    """Base class for document and input validation failures."""


class SchemaError(ValidationError):
    """Document structure is wrong: unknown keys, wrong types, bad names."""


class RowSumError(ValidationError):
    """A transition row has entries outside [0, 1] or does not sum to 1."""


class GammaRangeError(ValidationError):
    """Discount factor outside [0, 1)."""


class MissingEntryError(ValidationError):
    """A (state, action) pair lacks a transition row or a reward entry."""


class GridMismatchError(MissingEntryError):
    """A {state: {action: entry}} document or a reward table does not cover
    the (state, action) grid: an entry is missing or a key is unknown."""


class NonFiniteRewardError(ValidationError):
    """A reward entry is NaN or infinite."""


class ValueOverflowError(ValidationError):
    """Values left the floating-point range: the rewards are too large for
    the discount factor, or for a policy-gradient step."""


class SingularSystemError(RuntimeError):
    """A discounted, stationary or differential-value system is singular."""


class UnknownStateError(ValidationError):
    pass


class UnknownActionError(ValidationError):
    pass


def frozen_array(value, where, dtype=float):
    """A read-only ``dtype`` copy of an array of ints or floats: as in ``as_number``,
    a bool, a string or any other entry, or a ragged row, raises ValidationError,
    and with an integer ``dtype`` so does a float entry or one out of its range."""
    try:
        arr = np.asarray(value)
    except ValueError:  # ragged rows
        arr = None
    # numpy reads a bool beside numbers as a number and ints past int64 as floats or
    # objects, so the entries of anything but an ndarray (it has one dtype) are scanned
    scan = [] if arr is None or isinstance(value, np.ndarray) else (
        np.asarray(value, dtype=object).ravel().tolist())
    # numpy holds an array of the target dtype only when every entry is in range
    if arr is not None and np.dtype(dtype).kind == "i" and arr.dtype != dtype and arr.size and (
            arr.dtype.kind in "iu" or scan and all(isinstance(x, (int, np.integer)) for x in scan)):
        info = np.iinfo(dtype)
        if wide := [x for x in scan or (arr.min(), arr.max()) if not info.min <= x <= info.max]:
            raise ValidationError(f"every entry of {where} must be a number in the "
                                  f"{np.dtype(dtype)} range; {wide[0]} is out of range")
    if arr is None or arr.dtype.kind not in "iuf" or any(
            isinstance(x, (bool, np.bool_)) for x in scan):
        raise ValidationError(f"every entry of {where} must be a number")
    if arr.dtype.kind == "f" and np.dtype(dtype).kind != "f":
        raise ValidationError(f"every entry of {where} must be an integer")
    arr = arr.astype(dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class Mdp:
    """A finite discounted MDP, checked here whether built by constructor,
    ``make_mdp`` or ``dataclasses.replace``: distinct nonempty ``states`` and
    ``actions`` names, ``gamma`` in [0, 1), ``transitions[s, a]`` a successor
    distribution in [0, 1] summing to 1 within ROW_SUM_TOL, ``rewards[s, a]`` a
    finite (S, A) table; ``reward_bound`` is max |R|."""

    states: tuple
    actions: tuple
    gamma: float
    transitions: np.ndarray
    rewards: np.ndarray
    reward_bound: float = field(init=False)

    def __post_init__(self):
        states = _check_names(self.states, "states")
        actions = _check_names(self.actions, "actions")
        gamma = as_number(self.gamma, "gamma", err=GammaRangeError)
        if not (0.0 <= gamma < 1.0):
            raise GammaRangeError(f"gamma must satisfy 0 <= gamma < 1, got {gamma}")
        n_s, n_a = len(states), len(actions)
        t = frozen_array(self.transitions, "transitions")
        if t.shape != (n_s, n_a, n_s):
            raise GridMismatchError(f"transitions must have shape {(n_s, n_a, n_s)}, got {t.shape}")
        if not np.all(np.isfinite(t)):
            raise RowSumError("transition probabilities must be finite")
        if t.min() < 0.0 or t.max() > 1.0:
            raise RowSumError("transition probabilities must lie in [0, 1]")
        row_err = np.abs(t.sum(axis=2) - 1.0)
        if row_err.max() > ROW_SUM_TOL:
            s, a = np.unravel_index(row_err.argmax(), row_err.shape)
            raise RowSumError(f"transition row ({states[s]!r}, {actions[a]!r}) sums to "
                              f"{float(t[s, a].sum())!r}, not 1 within {ROW_SUM_TOL}")
        r = _reward_table(self.rewards, (n_s, n_a))
        vars(self).update(states=states, actions=actions, gamma=gamma, transitions=t,
                          rewards=r, reward_bound=float(np.abs(r).max()))

    def _copy(self, rewards):
        # the one unchecked copy: the checked dynamics with an (S, A) float
        # table already valid on them, made read-only here
        rewards.setflags(write=False)
        copy = object.__new__(type(self))
        vars(copy).update(vars(self), rewards=rewards, reward_bound=float(np.abs(rewards).max()))
        return copy

    def scaled(self, shift):
        """Copy with every reward times 2^-shift, shift >= 0, not checked again:
        a power-of-two scale down keeps a checked table finite on its grid."""
        return self._copy(np.ldexp(self.rewards, -shift))

    @property
    def n_states(self):
        return len(self.states)

    @property
    def n_actions(self):
        return len(self.actions)

    def state_index(self, state):
        try:
            return self.states.index(state)
        except ValueError:
            raise UnknownStateError(f"unknown state: {state!r}") from None

    def action_index(self, action):
        try:
            return self.actions.index(action)
        except ValueError:
            raise UnknownActionError(f"unknown action: {action!r}") from None


@dataclass(frozen=True, eq=False)
class Policy:
    """Deterministic (state -> action) or stochastic (state -> simplex row).

    ``actions`` holds action indices for deterministic policies; ``probs`` is
    an (S, A) row-stochastic matrix for stochastic ones; each is checked here.
    """

    kind: str
    actions: np.ndarray = None
    probs: np.ndarray = None

    def __post_init__(self):
        if self.kind == "deterministic" and self.probs is None:
            arr = frozen_array(self.actions, "policy actions", np.int64)
            if arr.ndim != 1:
                raise ValidationError("deterministic policy needs a 1-D integer array")
            if arr.size and arr.min() < 0:
                raise ValidationError("action indices must be nonnegative")
            object.__setattr__(self, "actions", arr)
        elif self.kind == "stochastic" and self.actions is None:
            arr = frozen_array(self.probs, "policy probabilities")
            if arr.ndim != 2:
                raise ValidationError("stochastic policy needs an (S, A) matrix")
            if not np.all(np.isfinite(arr)):
                raise ValidationError("policy probabilities must be finite")
            if arr.min() < 0.0 or arr.max() > 1.0:
                raise ValidationError("policy probabilities must lie in [0, 1]")
            if np.abs(arr.sum(axis=1) - 1.0).max() > ROW_SUM_TOL:
                raise ValidationError("policy rows must sum to 1 within 1e-9")
            object.__setattr__(self, "probs", arr)
        else:
            raise ValidationError(f"a policy is 'deterministic' with actions only or "
                                  f"'stochastic' with probs only, got kind {self.kind!r}")

    @classmethod
    def deterministic(cls, action_indices):
        return cls("deterministic", actions=action_indices)

    @classmethod
    def stochastic(cls, probs):
        return cls("stochastic", probs=probs)

    def as_dict(self, mdp):
        probs = policy_probs(mdp, self)  # the policy must fit the grid
        if self.kind == "deterministic":
            return {s: mdp.actions[a] for s, a in zip(mdp.states, self.actions)}
        return labeled(mdp, probs)


@dataclass(frozen=True, eq=False)
class ValueFunction:
    """State values; every entry is bounded by reward_bound / (1 - gamma)."""

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", frozen_array(self.values, "values"))

    def as_dict(self, mdp):
        return labeled(mdp, self.values)


class QTable(ValueFunction):
    """Action values indexed (state, action)."""


def labeled(mdp, array):
    """JSON-ready {state: x} of an (S,) array, or {state: {action: x}} of an
    (S, A) array, keyed by the MDP's names; entries are Python numbers."""
    if array.shape not in ((mdp.n_states,), (mdp.n_states, mdp.n_actions)):
        raise ValidationError(f"an array of shape {array.shape} does not fit the grid")
    if array.ndim == 1:
        return dict(zip(mdp.states, array.tolist()))
    return {s: dict(zip(mdp.actions, row)) for s, row in zip(mdp.states, array.tolist())}


def _check_names(names, what):
    if not isinstance(names, (list, tuple)) or len(names) == 0:
        raise SchemaError(f"{what} must be a nonempty list of identifiers")
    for name in names:
        if not isinstance(name, str) or not name:
            raise SchemaError(f"{what} must be nonempty strings, got {name!r}")
    if len(set(names)) != len(names):
        raise SchemaError(f"duplicate {what}")
    return tuple(names)


def as_number(value, where, err=SchemaError):
    """The number rule of every document and argument: an int, a float or a
    numpy integer or floating scalar, not a bool (nor ``np.bool_``) and not
    a string, returned as a float; anything else raises ``err``."""
    # bool is an int subclass; JSON true/false is not a number here
    if isinstance(value, bool) or not isinstance(value, _NUMBER_TYPES):
        raise err(f"{where} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # a JSON integer beyond the float range
        raise err(f"{where} is too large for a float") from None


def as_integer(value, where):
    """The integer rule of library counts: an int or a numpy integer, not a
    bool, returned as an int; anything else, a float included, raises
    ValidationError rather than being truncated."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValidationError(f"{where} must be an integer, got {value!r}")
    return int(value)


def check_object(doc, required, optional, where, err=SchemaError):
    """Check that ``doc`` is a JSON object holding every key of ``required``
    and no key outside ``required`` and ``optional``.  A non-object raises
    SchemaError; an unknown or missing key raises ``err``."""
    if not isinstance(doc, dict):
        raise SchemaError(f"{where} must be a JSON object")
    unknown = [key for key in doc if key not in required and key not in optional]
    if unknown:
        raise err(f"{where} has unknown keys {unknown}")
    missing = [key for key in required if key not in doc]
    if missing:
        raise err(f"{where} is missing {missing}")


def _grid(doc, states, actions, what, entry):
    """Walk a {state: {action: entry}} document over the whole grid.

    Every state and every action must appear and nothing else may; each
    entry is parsed by ``entry(value, where)``.  Returns the parsed entries
    as an (S, A, ...) float array.
    """
    check_object(doc, states, (), what, GridMismatchError)
    for s in states:
        check_object(doc[s], actions, (), f"{what}[{s!r}]", GridMismatchError)
    return np.array(
        [[entry(doc[s][a], f"{what}[{s!r}][{a!r}]") for a in actions] for s in states],
        dtype=float,
    )


def _reward_entry(value, where):
    if isinstance(value, dict):
        raise SchemaError(
            f"{where} maps successors to rewards; "
            "rewards must be a single number per (state, action)"
        )
    value = as_number(value, where, err=NonFiniteRewardError)
    if not np.isfinite(value):
        raise NonFiniteRewardError(f"{where} is not finite")
    return value


def table_from_dict(states, actions, doc):
    """Reward table (S, A) from a {state: {action: number}} document."""
    return _grid(doc, states, actions, "rewards", _reward_entry)


def _reward_table(rewards, grid):
    # the one reward-table check, of Mdp and with_rewards alike
    r = frozen_array(rewards, "rewards")
    if r.shape != grid:
        raise GridMismatchError(f"rewards must have shape {grid}, got {r.shape}")
    if not np.all(np.isfinite(r)):
        raise NonFiniteRewardError("rewards must be finite")
    return r


def make_mdp(states, actions, gamma, transitions, rewards):
    """Build a validated Mdp from arrays; ``Mdp`` checks every field."""
    return Mdp(states, actions, gamma, transitions, rewards)


def with_rewards(mdp, rewards):
    """Copy of an Mdp with a new reward table: only the table is checked."""
    return mdp._copy(_reward_table(rewards, (mdp.n_states, mdp.n_actions)))


def validate_mdp(doc, require_rewards=True):
    """Validate a parsed MDP document and return an Mdp.

    The document is a JSON object with exactly the keys states, actions,
    gamma, transitions, rewards.  Omitted transition targets mean probability
    zero; unknown keys are rejected.  Rewards are one number per (state,
    action); per-successor reward maps are rejected.
    """
    required = ("states", "actions", "gamma", "transitions")
    if require_rewards:
        required += ("rewards",)
    check_object(doc, required, ("rewards",), "MDP document")
    states = _check_names(doc["states"], "states")
    actions = _check_names(doc["actions"], "actions")
    index = {s: k for k, s in enumerate(states)}

    def transition_row(entry, where):
        if not isinstance(entry, dict):
            raise SchemaError(f"{where} must map successor states to probabilities")
        row = [0.0] * len(states)
        for nxt, p in entry.items():
            if (k := index.get(nxt)) is None:
                raise SchemaError(f"{where} mentions unknown state {nxt!r}")
            # as_number returns a float unchanged; only other values pay for the location
            row[k] = p if type(p) is float else as_number(p, f"{where}[{nxt!r}]", RowSumError)
        return row

    transitions = _grid(doc["transitions"], states, actions, "transitions", transition_row)
    rewards = np.zeros((len(states), len(actions)))
    if "rewards" in doc:  # present unless require_rewards is false
        rewards = table_from_dict(states, actions, doc["rewards"])
    return make_mdp(states, actions, doc["gamma"], transitions, rewards)


def mdp_to_dict(mdp):
    """Serializable document for an Mdp; zero-probability targets are omitted."""
    transitions = {
        s: {
            a: {nxt: p for nxt, p in zip(mdp.states, row) if p != 0.0}
            for a, row in zip(mdp.actions, rows)
        }
        for s, rows in zip(mdp.states, mdp.transitions.tolist())
    }
    return {
        "states": list(mdp.states),
        "actions": list(mdp.actions),
        "gamma": mdp.gamma,
        "transitions": transitions,
        "rewards": labeled(mdp, mdp.rewards),
    }


def load_json(path):
    """Parse a UTF-8 JSON file; a file that is not UTF-8, not JSON, or
    nested too deeply to parse raises SchemaError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
            raise SchemaError(f"{path}: not valid JSON ({exc})") from exc


def load_mdp(path):
    """Read and validate an MDP JSON file."""
    return validate_mdp(load_json(path))


def load_dynamics(path):
    """Read an MDP JSON file whose rewards key is optional (defaults to 0)."""
    return validate_mdp(load_json(path), require_rewards=False)


def successor_cdf(transitions):
    """Inverse-CDF table of successor draws: each transition row's running
    sums with the last entry dropped, so the right-side search index of a
    uniform is at most S - 1 and a draw at or above a row total that rounds
    below 1 lands on the last state."""
    return np.cumsum(transitions, axis=-1)[..., :-1]


def step(mdp, state, action, rng):
    """Sample one transition; returns (reward, next_state).

    The successor is drawn by inverse CDF (``successor_cdf``), consuming
    exactly one uniform from ``rng``.
    """
    s = mdp.state_index(state)
    a = mdp.action_index(action)
    nxt = int(np.searchsorted(successor_cdf(mdp.transitions[s, a]), rng.random(), side="right"))
    return float(mdp.rewards[s, a]), mdp.states[nxt]


def expectations(mdp, probs):
    """Expected reward R_pi (S,) and state chain P_pi (S, S) of an (S, A)
    action-probability array, or of each policy in a (K, S, A) stack."""
    r_pi = (probs * mdp.rewards).sum(axis=-1)
    p_pi = np.einsum("...sa,saz->...sz", probs, mdp.transitions)
    return r_pi, p_pi


def policy_probs(mdp, policy):
    """(S, A) action probabilities of a policy on the MDP's grid; a
    deterministic policy gives one-hot rows."""
    if policy.kind == "deterministic":
        if len(policy.actions) != mdp.n_states:
            raise ValidationError("policy does not cover every state exactly once")
        if policy.actions.size and policy.actions.max() >= mdp.n_actions:
            raise ValidationError("policy refers to an out-of-range action")
        return np.eye(mdp.n_actions)[policy.actions]
    if policy.probs.shape != (mdp.n_states, mdp.n_actions):
        raise ValidationError("policy does not match the (state, action) grid")
    return policy.probs


def argmax_sets(q, tol):
    """The optimal-action sets of an (S, A) action-value array, as an (S, A)
    bool mask: the actions within ``tol`` times the spread of the whole table
    (max Q - min Q) of their state's best value, so a positive affine map of
    the rewards keeps the sets.  A positive ``tol`` cuts at least 2 eps max|Q|,
    the table's own rounding, so a large shift keeps exact ties; 0 keeps only
    exact ties."""
    span_tol = tol * (q.max() - q.min())
    if tol > 0:
        span_tol = max(span_tol, 2.0 * np.finfo(float).eps * np.abs(q).max())
    return q >= q.max(axis=1, keepdims=True) - span_tol


@functools.cache
def _blas_threads_setter():
    """numpy's bundled OpenBLAS ``openblas_set_num_threads_local`` (it returns the
    old count), or None under another BLAS; looked up at the first large solve."""
    try:
        setter = ctypes.CDLL(np.linalg._umath_linalg.__file__).openblas_set_num_threads_local
    except (AttributeError, OSError):
        return None
    setter.argtypes, setter.restype = [ctypes.c_int], ctypes.c_int
    return setter


def _singular(err, flag):  # LAPACK's singular-system report, as np.linalg.solve raises it
    raise np.linalg.LinAlgError("Singular matrix")


def solve_system(system, rhs, what):
    """x with system @ x = rhs, for one (n, n) system or a (..., n, n) stack;
    a singular system raises SingularSystemError naming ``what``.  With n >=
    ONE_THREAD_N the process runs one OpenBLAS thread during the solve, so
    its bits do not depend on the caller's thread count."""
    serial = system.shape[-1] >= ONE_THREAD_N and _blas_threads_setter()
    if serial:
        _BLAS_LOCK.acquire()
        old = serial(1)
    try:
        # np.linalg.solve's gufunc and errstate, without its wrapper's checks
        with np.errstate(all="ignore", invalid="call", call=_singular):
            return np.linalg._umath_linalg.solve1(system, rhs, signature="dd->d")
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(f"{what} system is singular: {exc}") from exc
    finally:
        if serial:
            serial(old)
            _BLAS_LOCK.release()


def evaluate(mdp, probs):
    """Discounted values V (S,) of an (S, A) action-probability array, or
    (K, S) of each policy in a (K, S, A) stack: one direct solve of
    (I - gamma P_pi) V = R_pi per policy, built in P_pi's own buffer.  A
    stack whose P_pi passes STACK_BYTES is solved in consecutive sub-stacks;
    other ``probs`` (not an ndarray ending in (S, A)) raise ValidationError."""
    shape = (mdp.n_states, mdp.n_actions)
    if not isinstance(probs, np.ndarray) or probs.shape[-2:] != shape:
        raise ValidationError(f"probs must be an ndarray whose shape ends in {shape}")
    per_stack = max(1, STACK_BYTES // (8 * mdp.n_states ** 2))
    if probs.ndim == 3 and len(probs) > per_stack:
        return np.concatenate([evaluate(mdp, probs[k:k + per_stack])
                               for k in range(0, len(probs), per_stack)])
    r_pi, system = expectations(mdp, probs)
    system *= -mdp.gamma
    # a view of the fresh C-contiguous system's diagonal; 1 + (-gamma p) rounds as 1 - gamma p
    system.reshape(system.shape[:-2] + (-1,))[..., ::mdp.n_states + 1] += 1.0
    return solve_system(system, r_pi, "discounted-value")


def policy_evaluate(mdp, policy):
    """Unique fixed point of V = R_pi + gamma P_pi V, by a direct linear solve."""
    return ValueFunction(evaluate(mdp, policy_probs(mdp, policy)))
