"""Test-only reference: the per-state finite-difference gradient check, kept verbatim.

This is ``mdplab.gradient.gradient_check`` as it was before the S 2A perturbed
chains were stacked across states: it builds and solves the 2A chains of one
state at a time.  ``test_gradient.py`` asserts that the library check
reproduces every output bit of it.  Do not optimise this copy.
"""

import numpy as np

from mdplab.gradient import (FD_STEP, REL_FLOOR, GradientReport, _chain,
                             policy_gradient_analytic, softmax_policy)
from mdplab.mdp import frozen_array


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
