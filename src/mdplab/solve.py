"""Dynamic-programming solvers and the random-policy dominance check.

Everything here is a pure function of immutable inputs; argmax ties are
always broken toward the lowest action index.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .mdp import (
    Policy,
    QTable,
    ValidationError,
    ValueFunction,
    expectations,
    policy_evaluate,
)

DOMINANCE_SLACK = 1e-7
MAX_SWEEPS = 1_000_000
MAX_POLICY_ITERATIONS = 10_000


class ValueOverflowError(ValidationError):
    """Values left the floating-point range: the rewards are too large for
    the discount factor, or for a policy-gradient step."""


class SweepLimitError(ValidationError):
    """A solver reached its iteration cap: value iteration would need more
    than MAX_SWEEPS sweeps (gamma is too close to 1, or epsilon too small,
    for the rewards), or policy iteration did not stabilize within
    MAX_POLICY_ITERATIONS iterations."""


def q_from_v(mdp, v):
    """One-step lookahead: Q(s, a) = R(s, a) + gamma sum_s' P(s'|s, a) V(s')."""
    return mdp.rewards + mdp.gamma * (mdp.transitions @ np.asarray(v, dtype=float))


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


def _result_from_v(mdp, v, iterations):
    # One extra lookahead makes v_star = max_a q_star hold exactly.
    with np.errstate(over="ignore", invalid="ignore"):
        q = q_from_v(mdp, v)
    if not np.isfinite(q).all():
        raise ValueOverflowError(
            f"values overflow; rewards are too large for gamma {mdp.gamma}"
        )
    v_star = q.max(axis=1)
    residual = float(np.abs(bellman_backup(mdp, v_star) - v_star).max())
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
    # that falls below the threshold.
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
    never fall below the threshold.
    """
    epsilon = float(epsilon)
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
    v = np.zeros(mdp.n_states)
    # An overflow is reported by the finiteness check below, not as a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        for iterations in range(1, MAX_SWEEPS + 1):
            nxt = bellman_backup(mdp, v)
            change = np.abs(nxt - v).max()
            if not change < np.inf:  # inf or NaN
                raise ValueOverflowError(
                    f"value iteration overflowed after {iterations} sweeps "
                    f"(sweep change {change}); rewards are too large for gamma {gamma}"
                )
            v = nxt
            if change < threshold:
                break
        else:
            raise SweepLimitError(
                f"value iteration did not converge in {MAX_SWEEPS} sweeps "
                f"(last change {change}); rounding keeps the change above "
                f"the threshold {threshold}"
            )
    return _result_from_v(mdp, v, iterations)


def policy_iteration(mdp):
    """Alternate exact evaluation and greedy improvement until the policy is stable.

    Returns an exactly optimal deterministic stationary policy: at
    termination its evaluation is a fixed point of greedy improvement.
    Raises ValueOverflowError when the optimal values are not finite, and
    SweepLimitError when MAX_POLICY_ITERATIONS iterations pass without a
    stable policy.
    """
    acts = np.zeros(mdp.n_states, dtype=np.int64)
    v_prev = None
    # An overflow is reported by _result_from_v, not as a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        for iterations in range(1, MAX_POLICY_ITERATIONS + 1):
            v = policy_evaluate(mdp, Policy.deterministic(acts)).values
            greedy = q_from_v(mdp, v).argmax(axis=1)
            if np.array_equal(greedy, acts):
                break
            # Guard against float ping-pong between equally good policies.
            if v_prev is not None and np.abs(v - v_prev).max() < 1e-14:
                acts = greedy
                v = policy_evaluate(mdp, Policy.deterministic(acts)).values
                break
            acts = greedy
            v_prev = v
        else:
            raise SweepLimitError(
                f"policy iteration did not stabilize in {MAX_POLICY_ITERATIONS} iterations"
            )
    return replace(_result_from_v(mdp, v, iterations), pi_star=Policy.deterministic(acts))


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

    Samples ``trials`` stochastic policies with rows drawn from a flat
    Dirichlet (full support on the simplex), evaluates each exactly, and
    records every state where a sampled policy exceeds V* + slack.
    """
    trials = int(trials)
    if trials < 1:
        raise ValidationError("trials must be >= 1")
    solution = policy_iteration(mdp)
    v_star = solution.v_star.values
    n_s, n_a = mdp.n_states, mdp.n_actions

    probs = rng.dirichlet(np.ones(n_a), size=(trials, n_s))
    r_pis, p_pis = expectations(mdp, probs)
    systems = np.eye(n_s) - mdp.gamma * p_pis
    values = np.linalg.solve(systems, r_pis[..., None])[..., 0]

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
