"""Test-only references: earlier forms of the gradient check and the ascent, kept verbatim.

``reference_gradient_check`` is ``mdplab.gradient.gradient_check`` as it was
before the S 2A perturbed chains were stacked across states: it builds and
solves the 2A chains of one state at a time.  ``reference_ascent_trace`` is
``mdplab.gradient.ascent_trace`` as it was before theta was checked once on
entry: every step sends theta through ``softmax_policy``'s checks and the
softmax rows through ``Policy.stochastic``'s.  ``test_gradient.py`` and
``test_loop_equivalence.py`` assert that the library reproduces every output
bit of them.  Do not optimise these copies.
"""

import numpy as np

from mdplab.gradient import (FD_STEP, REL_FLOOR, GradientReport, ReducibleChainError,
                             _chain, _differential, average_reward,
                             policy_gradient_analytic, softmax_policy)
from mdplab.mdp import (ValidationError, ValueOverflowError, as_integer, as_number,
                        frozen_array, policy_probs)


def reference_gradient_check(mdp, theta):
    theta = frozen_array(theta, "theta")
    analytic = policy_gradient_analytic(mdp, theta)
    n_s, n_a = theta.shape
    base = softmax_policy(theta).probs
    bumps = np.concatenate([np.eye(n_a), -np.eye(n_a)]) * FD_STEP
    numeric = np.empty_like(analytic)
    for s in range(n_s):
        probs = np.repeat(base[None], 2 * n_a, axis=0)
        probs[:, s] = softmax_policy(theta[s] + bumps).probs
        j = _chain(mdp, probs)[3]
        numeric[s] = (j[:n_a] - j[n_a:]) / (2.0 * FD_STEP)
    diff = np.abs(analytic - numeric)
    rel = diff / np.maximum(REL_FLOOR, np.abs(numeric))
    return GradientReport(
        analytic=analytic,
        numeric=numeric,
        max_abs_diff=float(diff.max()),
        max_rel_diff=float(rel.max()),
    )


def _reference_gradient(mdp, theta):
    policy = softmax_policy(theta)
    r_pi, p_pi, mu, j = _chain(mdp, policy_probs(mdp, policy))
    q = _differential(mdp, r_pi, p_pi, mu, j)
    v = (policy.probs * q).sum(axis=1)
    return mu[:, None] * policy.probs * (q - v[:, None]), j


def reference_ascent_trace(mdp, theta0, step_size, iters):
    step_size = as_number(step_size, "step_size", ValidationError)
    if not (np.isfinite(step_size) and step_size > 0.0):
        raise ValidationError(f"step_size must be finite and > 0, got {step_size}")
    iters = as_integer(iters, "iters")
    if iters < 1:
        raise ValidationError("iters must be >= 1")
    theta = frozen_array(theta0, "theta0")
    js = []
    grad_norms = []
    try:
        for k in range(iters):
            grad, j = _reference_gradient(mdp, theta)
            # An overflow is reported by the finiteness check below, not as a warning.
            with np.errstate(over="ignore"):
                norm = float(np.sqrt((grad * grad).sum()))
            if not np.isfinite(norm):
                raise ValueOverflowError(
                    f"the gradient norm overflows at iteration {k}; "
                    "rewards are too large for an ascent step"
                )
            js.append(j)
            grad_norms.append(norm)
            # An overflowing step is reported by the finiteness check below.
            with np.errstate(over="ignore"):
                theta = theta + step_size * grad
            if not np.isfinite(theta).all():
                raise ValueOverflowError(
                    f"theta overflows at iteration {k}; step_size {step_size} is too large"
                )
        js.append(average_reward(mdp, theta))
    except ReducibleChainError as exc:
        exc.j_trace = np.array(js)
        exc.theta = theta
        raise
    return theta, np.array(js), grad_norms
