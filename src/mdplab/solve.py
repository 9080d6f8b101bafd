"""Dynamic-programming solvers and the random-policy dominance check.

Everything here is a pure function of immutable inputs; argmax ties are
always broken toward the lowest action index.
"""

import math
from dataclasses import dataclass

import numpy as np

from .mdp import (STACK_BYTES, Policy, QTable, ValidationError, ValueFunction,
                  ValueOverflowError, as_count, as_number, evaluate, frozen_array)

DOMINANCE_SLACK = 1e-7
MAX_SWEEPS = 1_000_000
MAX_POLICY_ITERATIONS = 10_000


class SweepLimitError(ValidationError):
    """A solver reached its iteration cap: value iteration would need more
    than MAX_SWEEPS sweeps (gamma is too close to 1, or epsilon too small,
    for the rewards), or policy iteration did not stabilize within
    MAX_POLICY_ITERATIONS iterations."""


def _lookahead(mdp, v, out=None):
    # the package's one R + gamma (P v), unchecked: v is already an (S,) float
    # array, and out, if given, an (S, A) buffer that does not change the bits
    q = np.matmul(mdp.transitions, v, out=out)
    q *= mdp.gamma
    return np.add(mdp.rewards, q, out=q)


def q_from_v(mdp, v):
    """One-step lookahead: Q(s, a) = R(s, a) + gamma sum_s' P(s'|s, a) V(s')."""
    v = frozen_array(v, "v")
    if v.shape != (mdp.n_states,):
        raise ValidationError(f"v must have shape {(mdp.n_states,)}, got {v.shape}")
    return _lookahead(mdp, v)


def bellman_backup(mdp, v):
    """Optimality backup (T V)(s) = max_a [R + gamma P V], a gamma-contraction."""
    return q_from_v(mdp, v).max(axis=1)


@dataclass(frozen=True, eq=False)
class SolveResult:
    """Optimal values, action values, and a greedy deterministic policy."""

    v_star: ValueFunction
    q_star: QTable
    pi_star: Policy
    iterations: int
    residual: float

    def as_dict(self, mdp):
        return {
            "v_star": self.v_star.as_dict(mdp),
            "q_star": self.q_star.as_dict(mdp),
            "pi_star": self.pi_star.as_dict(mdp),
            "iterations": self.iterations,
            "residual": self.residual,
        }


def _result_from_v(mdp, v, iterations, shift=0):
    # Undo a 2^-shift reward scale; one more lookahead makes v_star = max_a q_star.
    with np.errstate(over="ignore", invalid="ignore"):
        q = _lookahead(mdp, np.ldexp(v, shift))
    if not np.isfinite(q).all():
        raise ValueOverflowError(
            f"values overflow; rewards are too large for gamma {mdp.gamma}"
        )
    v_star = q.max(axis=1)
    residual = float(np.abs(_lookahead(mdp, v_star).max(axis=1) - v_star).max())
    return SolveResult(
        v_star=ValueFunction(v_star),
        q_star=QTable(q),
        pi_star=Policy.deterministic(q.argmax(axis=1)),
        iterations=iterations,
        residual=residual,
    )


def _sweep_bound(gamma, r_max, threshold):
    # From V = 0, sweep k changes V by at most gamma^(k - 1) r_max (the
    # contraction bound), so value iteration stops by the first k where
    # that falls below the threshold.  From any sweep whose change is r_max,
    # the same holds with that sweep counted as the first.
    if r_max < threshold:  # also gamma = 0, where the threshold is infinite
        return 1
    return 2 + int((math.log(threshold) - math.log(r_max)) / math.log(gamma))


def value_iteration(mdp, epsilon):
    """Iterate V <- T V from V = 0 until V is within epsilon of optimal.

    Stops once the sup-norm sweep change falls below epsilon (1 - gamma) /
    (2 gamma), the classical guarantee for an epsilon-accurate value; a
    gamma of 0 stops after the first sweep, which is already exact.  Raises
    SweepLimitError before the first sweep when the contraction bound allows
    more than MAX_SWEEPS sweeps, or when MAX_SWEEPS sweeps pass without
    convergence (rounding can keep the change above a tiny threshold), and
    ValueOverflowError once the change is not finite, since it can then
    never fall below the threshold.  Sweeps run in blocks no longer than the
    sweeps done, the contraction bound from the last change, or STACK_BYTES
    of history and changes; a block's changes are tested after it, in sweep
    order, so every outcome is that of testing each sweep as it is made.
    """
    epsilon = as_number(epsilon, "epsilon", ValidationError)
    gamma = mdp.gamma
    threshold = epsilon * (1.0 - gamma) / (2.0 * gamma) if gamma > 0.0 else np.inf
    # a threshold that underflows to 0 could never be met
    if not (epsilon > 0.0 and threshold > 0.0):
        raise ValidationError(f"epsilon must be > 0 and not underflow, got {epsilon}")
    bound = _sweep_bound(gamma, mdp.reward_bound, threshold)
    if bound > MAX_SWEEPS:
        raise SweepLimitError(
            f"value iteration may need {bound} sweeps, more than {MAX_SWEEPS}; "
            f"gamma {gamma} is too close to 1 for epsilon {epsilon}"
        )
    # sweep k writes row k + 1 of a history allocated once; row 0 starts a block
    rows = min(max(1, STACK_BYTES // (16 * mdp.n_states)), bound)
    q = np.empty((mdp.n_states, mdp.n_actions))
    hist, diff = np.empty((rows + 1, mdp.n_states)), np.empty((rows, mdp.n_states))
    hist[0], done, change = 0.0, 0, mdp.reward_bound
    # An overflow is reported by the finiteness check below, not as a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            block = min(rows, MAX_SWEEPS - done, max(done, 1),
                        _sweep_bound(gamma, change, threshold))
            for k in range(block):
                np.maximum.reduce(_lookahead(mdp, hist[k], q), axis=1, out=hist[k + 1])
            step = np.subtract(hist[1:block + 1], hist[:block], out=diff[:block])
            for k, change in enumerate(np.abs(step, out=step).max(axis=1).tolist(), 1):
                if not change < math.inf:  # inf or NaN
                    raise ValueOverflowError(
                        f"value iteration overflowed after {done + k} sweeps "
                        f"(sweep change {change}); rewards are too large for gamma {gamma}"
                    )
                if change < threshold:
                    break
            done += k
            if change < threshold or done == MAX_SWEEPS:
                break
            hist[0] = hist[block]
    if not change < threshold:
        raise SweepLimitError(
            f"value iteration did not converge in {MAX_SWEEPS} sweeps "
            f"(last change {change}); rounding keeps the change above "
            f"the threshold {threshold}"
        )
    return _result_from_v(mdp, hist[k], done)


def policy_iteration(mdp):
    """Alternate exact evaluation and greedy improvement until no state gains.

    Every state moves to its lowest-index greedy action until the policy is
    unchanged, or until two moves in a row raise no value by more than
    8 eps max|V| / (1 - gamma), the rounding of the solve: policies tied up
    to rounding could cycle, and one such move can still open a gain that
    recurs.  pi_star is the lowest-index argmax of q_star.  Rewards are
    scaled by a power of two to max|R| <= 1, which scales each value exactly,
    so only V* can overflow (ValueOverflowError).  Raises SweepLimitError
    after MAX_POLICY_ITERATIONS.
    """
    shift = max(math.frexp(mdp.reward_bound)[1], 0)
    scaled = mdp.scaled(shift) if shift else mdp
    acts = np.zeros(mdp.n_states, dtype=np.int64)
    rounding = 8.0 * np.finfo(float).eps / (1.0 - mdp.gamma)
    one_hot = np.eye(mdp.n_actions)
    v_prev, flat = None, 0
    for iterations in range(1, MAX_POLICY_ITERATIONS + 1):
        v = evaluate(scaled, one_hot[acts])
        if v_prev is not None:
            flat = 0 if (v - v_prev).max() > rounding * np.abs(v).max() else flat + 1
            if flat == 2:
                break
        greedy = _lookahead(scaled, v).argmax(axis=1)
        if (greedy == acts).all():
            break
        acts, v_prev = greedy, v
    else:
        raise SweepLimitError(
            f"policy iteration did not stabilize in {MAX_POLICY_ITERATIONS} iterations"
        )
    return _result_from_v(mdp, v, iterations, shift)


@dataclass(frozen=True, eq=False)
class DominanceReport:
    """Outcome of checking sampled stochastic policies against the optimum.

    A violation entry is (trial, state, policy value, optimal value); any
    violation falsifies the solver, not the existence result, so it is
    reported rather than raised.
    """

    passed: bool
    deterministic: bool
    trials: int
    max_excess: float
    violations: tuple


def verify_deterministic_optimality(mdp, trials, rng, slack=DOMINANCE_SLACK):
    """Solve for the optimal deterministic policy, then try to beat it.

    Samples ``trials`` stochastic policies from ``rng``, a numpy.random.Generator
    (else ValidationError), with rows drawn from a flat Dirichlet (full support
    on the simplex), evaluates each exactly, and records every state where a
    sampled policy exceeds V* + slack (a finite number >= 0, else ValidationError).
    """
    trials = as_count(trials, "trials")
    slack = as_number(slack, "slack", ValidationError)
    if not 0.0 <= slack < math.inf:
        raise ValidationError(f"slack must be finite and >= 0, got {slack}")
    if not isinstance(rng, np.random.Generator):
        raise ValidationError(f"rng must be a numpy.random.Generator, got {rng!r}")
    solution = policy_iteration(mdp)
    v_star = solution.v_star.values
    values = evaluate(mdp, rng.dirichlet(np.ones(mdp.n_actions), size=(trials, mdp.n_states)))
    excess = values - v_star
    bad = np.argwhere(excess > slack)
    violations = tuple(
        (int(n), mdp.states[s], float(values[n, s]), float(v_star[s]))
        for n, s in bad
    )
    return DominanceReport(
        passed=not violations,
        deterministic=solution.pi_star.kind == "deterministic",
        trials=trials,
        max_excess=float(excess.max()),
        violations=violations,
    )
