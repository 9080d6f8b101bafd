"""Test-only reference: the value-iteration loop as it was before it swept in
preallocated buffers, kept verbatim.

Every sweep allocates its lookahead, its maximum and its change afresh.
``test_loop_equivalence.py`` asserts that ``mdplab.solve.value_iteration``
reproduces every output bit of it.  Do not optimise this copy.
"""

import numpy as np

from mdplab.mdp import ValidationError, ValueOverflowError, as_number
from mdplab.solve import MAX_SWEEPS, SweepLimitError, _result_from_v, _sweep_bound


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
