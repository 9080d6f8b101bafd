#!/usr/bin/env python3
"""Climbing the long-run average reward with exact policy gradients.

Policies here are row softmaxes over a logit table.  The objective is the
stationary average reward J(theta); its gradient has the closed form
mu(s) pi(a|s) (Q(s,a) - V(s)) with differential (Poisson) action values, and
every analytic gradient is checkable against central finite differences.
"""

from pathlib import Path

import numpy as np

from mdplab import (
    differential_q,
    gradient_ascent,
    gradient_check,
    load_mdp,
    policy_iteration,
    softmax_policy,
    stationary_distribution,
)

world = load_mdp(Path(__file__).parent / "data" / "stay_go.json")

# Uniform policy first: zero logits.
theta = np.zeros((world.n_states, world.n_actions))
policy = softmax_policy(theta)
mu = stationary_distribution(world, policy)
q, j = differential_q(world, policy, mu)
print("uniform policy:")
print("  stationary distribution:", {s: float(p) for s, p in zip(world.states, mu)})
print("  average reward J:", j)
print("  differential Q:", q.as_dict(world))

# Verify the gradient formula numerically before trusting it.
report = gradient_check(world, theta)
print("\ngradient check at theta = 0:")
print("  analytic:", report.analytic.round(6).tolist())
print("  numeric: ", report.numeric.round(6).tolist())
print("  max abs diff:", f"{report.max_abs_diff:.2e}",
      " max rel diff:", f"{report.max_rel_diff:.2e}")

# Ascend.  The J trace is monotone for small steps and the final greedy
# policy matches the dynamic-programming optimum on this world.
theta_final, js = gradient_ascent(world, theta, step_size=0.1, iters=2000)
print("\ngradient ascent (step 0.1):")
for k in (0, 10, 50, 200, 1000, 2000):
    print(f"  iter {k:>5}  J = {js[k]:.6f}")

greedy = {s: world.actions[a] for s, a in zip(world.states, theta_final.argmax(axis=1))}
print("greedy actions after ascent:", greedy)
print("dynamic-programming optimum:", policy_iteration(world).pi_star.as_dict(world))
