"""Softmax policies, stationary distributions, and average-reward gradients.

The objective here is the long-run average reward
J(theta) = sum_s mu(s) sum_a pi(a|s) R(s, a) under the stationary
distribution mu of the policy-induced chain, which exists and is unique when
that chain is irreducible.  Action values are differential (Poisson) values:
the solution of Q = R - J + P V with V the policy average of Q, pinned down
by the normalization mu . V = 0.
"""

from dataclasses import dataclass

import numpy as np

from .mdp import (STACK_BYTES, Policy, QTable, SingularSystemError, ValidationError,
                  ValueOverflowError, as_count, as_number, expectations, frozen_array,
                  policy_probs, solve_system)

FD_STEP = 1e-5
REL_FLOOR = 1e-8


class NonFiniteThetaError(ValidationError):
    """Policy logits must be finite."""


class ReducibleChainError(RuntimeError):
    """The policy-induced chain is not irreducible, so no unique stationary
    distribution exists.  When raised mid-ascent the partial objective trace
    and last parameters are attached as ``j_trace`` and ``theta``."""


def softmax_policy(theta):
    """Row-wise softmax policy over logits theta with shape (S, A).

    The row maximum is subtracted before exponentiation, so extreme logits
    saturate instead of overflowing.
    """
    theta = frozen_array(theta, "theta")
    if theta.ndim != 2:
        raise ValidationError("theta must be an (S, A) array")
    if not np.all(np.isfinite(theta)):
        raise NonFiniteThetaError("theta must be finite")
    return Policy.stochastic(_softmax(theta))


def _softmax(theta):
    # the math of softmax_policy alone, for (K, A) logits the package built itself
    with np.errstate(over="ignore"):  # a spread past the float range: exp(-inf) is 0
        e = np.exp(theta - theta.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def _strongly_connected(adj):
    """True when every node of the boolean graph adj reaches node 0 and is
    reached from it, which makes the graph strongly connected."""
    if adj[0].all() and adj[:, 0].all():  # each node is one step from 0 and to 0
        return True
    for graph in (adj, adj.T):
        seen = np.zeros(len(graph), dtype=bool)
        seen[0] = True
        frontier = seen
        # each pass adds a node or returns, so it ends within len(graph) passes
        while not seen.all():
            frontier = graph[frontier].any(axis=0) & ~seen
            if not frontier.any():
                return False
            seen = seen | frontier
    return True


def _gain(mu, r_pi):
    """J = mu . R_pi, of one chain or of each chain in a stack."""
    return (mu[..., None, :] @ r_pi[..., None])[..., 0, 0]


def _chain(mdp, probs):
    """R_pi, P_pi, the stationary distribution mu and the gain J of the chain
    induced by an (S, A) action-probability array, or of each chain induced
    by a (K, S, A) stack.

    mu is one solve of the bordered system (I - P^T + 1 1^T) mu = 1, which is
    nonsingular exactly when the chain has a single recurrent class (Kemeny &
    Snell, Finite Markov Chains).  Raises ReducibleChainError unless every
    chain's positive-probability graph is strongly connected; the graph check
    runs once per distinct support pattern in the stack.
    """
    r_pi, p_pi = expectations(mdp, probs)
    n = p_pi.shape[-1]
    patterns = {adj.tobytes(): adj for adj in (p_pi > 0.0).reshape(-1, n, n)}
    if not all(_strongly_connected(adj) for adj in patterns.values()):
        raise ReducibleChainError(
            "induced chain is not strongly connected; "
            "the stationary distribution is not unique"
        )
    system = np.eye(n) + 1.0 - np.swapaxes(p_pi, -1, -2)
    mu = solve_system(system, np.ones(p_pi.shape[:-1]), "stationary")
    mu = mu / mu.sum(axis=-1, keepdims=True)
    return r_pi, p_pi, mu, _gain(mu, r_pi)


def stationary_distribution(mdp, policy):
    """Left fixed point of the policy-induced chain, as a probability vector:
    one direct solve, so slow-mixing chains cost no more than fast ones.
    Raises ReducibleChainError when the chain is not strongly connected."""
    return _chain(mdp, policy_probs(mdp, policy))[2]


def differential_q(mdp, policy, mu):
    """Average reward J and the differential action values under the policy.

    J = mu . R_pi for the mu given.  Solves (I - P_pi + 1 mu^T) V = R_pi - J,
    which embeds the normalization mu . V = 0 into the otherwise
    rank-deficient Poisson system, then Q(s, a) = R(s, a) - J + P(.|s, a) . V.
    """
    r_pi, p_pi = expectations(mdp, policy_probs(mdp, policy))
    mu = frozen_array(mu, "mu")
    if mu.shape != (mdp.n_states,):
        raise ValidationError(f"mu must have shape {(mdp.n_states,)}, got {mu.shape}")
    if not np.all(np.isfinite(mu)):
        raise ValidationError("mu must be finite")
    j = float(_gain(mu, r_pi))
    return QTable(_differential(mdp, r_pi, p_pi, mu, j)), j


def _differential(mdp, r_pi, p_pi, mu, j):
    n = p_pi.shape[0]
    system = np.eye(n) - p_pi + np.outer(np.ones(n), mu)
    v = solve_system(system, r_pi - j, "differential-value")
    v -= mu @ v
    return mdp.rewards - j + mdp.transitions @ v


def _gradient(mdp, probs):
    """Exact gradient of J at the (S, A) softmax probabilities, and J, from
    one chain build."""
    r_pi, p_pi, mu, j = _chain(mdp, probs)
    q = _differential(mdp, r_pi, p_pi, mu, j)
    v = (probs * q).sum(axis=1)
    return mu[:, None] * probs * (q - v[:, None]), j


def average_reward(mdp, theta):
    """J(theta): stationary-average one-step reward of the softmax policy."""
    return float(_chain(mdp, policy_probs(mdp, softmax_policy(theta)))[3])


def policy_gradient_analytic(mdp, theta):
    """Exact gradient of J for the row-softmax parameterization.

    grad[s, a] = mu(s) pi(a|s) (Q(s, a) - V(s)) with V the policy average of
    Q; this is the closed form of the score-function expectation
    E[grad log pi * Q] taken under mu and pi, no sampling involved.
    """
    return _gradient(mdp, policy_probs(mdp, softmax_policy(theta)))[0]


@dataclass(frozen=True, eq=False)
class GradientReport:
    """Analytic gradient next to its central-difference estimate."""

    analytic: np.ndarray
    numeric: np.ndarray
    max_abs_diff: float
    max_rel_diff: float


def gradient_check(mdp, theta):
    """Compare the analytic gradient with central differences of J.

    numeric[s, a] = (J(theta + h e) - J(theta - h e)) / 2h per coordinate,
    with h = FD_STEP; the relative difference uses max(1e-8, |numeric|) as
    denominator.  A bump in row s changes only that row of the policy; all S 2A
    perturbed chains are solved as separate systems, in stacks of whole states.
    """
    theta = frozen_array(theta, "theta")
    base = policy_probs(mdp, softmax_policy(theta))
    analytic = _gradient(mdp, base)[0]
    n_s, n_a = theta.shape
    bumps = np.concatenate([np.eye(n_a), -np.eye(n_a)]) * FD_STEP
    bumped = _softmax((theta[:, None] + bumps).reshape(-1, n_a)).reshape(n_s, -1, n_a)
    j = np.empty((n_s, 2 * n_a))
    per_stack = max(1, STACK_BYTES // (2 * n_a * n_s * n_s * 8))
    for rows in np.split(np.arange(n_s), range(per_stack, n_s, per_stack)):
        probs = np.tile(base, (len(rows), 2 * n_a, 1, 1))
        probs[rows - rows[0], :, rows] = bumped[rows]
        j[rows] = _chain(mdp, probs.reshape(-1, n_s, n_a))[3].reshape(len(rows), -1)
    numeric = (j[:, :n_a] - j[:, n_a:]) / (2.0 * FD_STEP)
    diff = np.abs(analytic - numeric)
    rel = diff / np.maximum(REL_FLOOR, np.abs(numeric))
    return GradientReport(
        analytic=analytic,
        numeric=numeric,
        max_abs_diff=float(diff.max()),
        max_rel_diff=float(rel.max()),
    )


def ascent_trace(mdp, theta0, step_size, iters):
    """Plain gradient ascent on J; returns (theta_final, J trace, gradient norms).

    The trace holds J(theta_k) for k = 0..iters, so its last entry is the
    objective at the returned parameters; the norms are the Euclidean norms
    of the iters gradients applied.  If the induced chain becomes reducible
    mid-run (softmax rows can underflow to exact zeros), the raised
    ReducibleChainError carries the partial trace as ``j_trace`` and the
    last parameters as ``theta``.  A gradient whose norm is not finite
    raises ValueOverflowError before its step is taken, and so does a step
    that overflows theta.
    """
    step_size = as_number(step_size, "step_size", ValidationError)
    if not (np.isfinite(step_size) and step_size > 0.0):
        raise ValidationError(f"step_size must be finite and > 0, got {step_size}")
    iters = as_count(iters, "iters")
    theta = frozen_array(theta0, "theta0")
    probs = policy_probs(mdp, softmax_policy(theta))  # each step keeps theta finite and (S, A)
    js = []
    grad_norms = []
    try:
        for k in range(iters):
            grad, j = _gradient(mdp, probs)
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
            probs = _softmax(theta)
        js.append(float(_chain(mdp, probs)[3]))
    except ReducibleChainError as exc:
        exc.j_trace = np.array(js)
        exc.theta = theta
        raise
    return theta, np.array(js), grad_norms


def gradient_ascent(mdp, theta0, step_size, iters):
    """Plain gradient ascent on J; ``ascent_trace`` without the gradient norms."""
    theta, js, _ = ascent_trace(mdp, theta0, step_size, iters)
    return theta, js
