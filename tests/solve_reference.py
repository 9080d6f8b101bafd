"""Test-only references, kept verbatim: the value-iteration loop as it was
before it swept in preallocated buffers, and the policy-iteration loop and
``evaluate`` as they were before the one-hot table was built once per call
and the diagonal was reached through a strided view.

Every sweep allocates its lookahead, its maximum and its change afresh, and
tests its change on its own.  ``test_loop_equivalence.py`` asserts that
``mdplab.solve.value_iteration``, ``mdplab.solve.policy_iteration`` and
``mdplab.mdp.evaluate`` reproduce every output bit of them.  Do not optimise
these copies.
"""

import math

import numpy as np

from mdplab.mdp import (STACK_BYTES, ValidationError, ValueOverflowError, as_number,
                        expectations, solve_system)
from mdplab.solve import (MAX_POLICY_ITERATIONS, MAX_SWEEPS, SweepLimitError, _result_from_v,
                          _sweep_bound)


def _lookahead(mdp, v):
    return mdp.rewards + mdp.gamma * (mdp.transitions @ v)


def reference_value_iteration(mdp, epsilon):
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
    v = np.zeros(mdp.n_states)
    # An overflow is reported by the finiteness check below, not as a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        for iterations in range(1, MAX_SWEEPS + 1):
            nxt = _lookahead(mdp, v).max(axis=1)
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


def reference_evaluate(mdp, probs):
    per_stack = max(1, STACK_BYTES // (8 * mdp.n_states ** 2))
    if probs.ndim == 3 and len(probs) > per_stack:
        return np.concatenate([reference_evaluate(mdp, probs[k:k + per_stack])
                               for k in range(0, len(probs), per_stack)])
    r_pi, system = expectations(mdp, probs)
    system *= -mdp.gamma
    np.einsum("...ii->...i", system)[...] += 1.0  # 1 + (-gamma p) rounds as 1 - gamma p
    return solve_system(system, r_pi, "discounted-value")


def reference_policy_iteration(mdp):
    shift = max(math.frexp(mdp.reward_bound)[1], 0)
    scaled = mdp.scaled(shift) if shift else mdp
    acts = np.zeros(mdp.n_states, dtype=np.int64)
    rounding = 8.0 * np.finfo(float).eps / (1.0 - mdp.gamma)
    v_prev, flat = None, 0
    for iterations in range(1, MAX_POLICY_ITERATIONS + 1):
        v = reference_evaluate(scaled, np.eye(mdp.n_actions)[acts])
        if v_prev is not None:
            flat = 0 if (v - v_prev).max() > rounding * np.abs(v).max() else flat + 1
            if flat == 2:
                break
        greedy = _lookahead(scaled, v).argmax(axis=1)
        if np.array_equal(greedy, acts):
            break
        acts, v_prev = greedy, v
    else:
        raise SweepLimitError(
            f"policy iteration did not stabilize in {MAX_POLICY_ITERATIONS} iterations"
        )
    return _result_from_v(mdp, v, iterations, shift)
