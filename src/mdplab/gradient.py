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

from .mdp import Policy, QTable, ValidationError, expectations, policy_probs
from .solve import ValueOverflowError

FD_STEP = 1e-5
REL_FLOOR = 1e-8


class NonFiniteThetaError(ValidationError):
    """Policy logits must be finite."""


class ReducibleChainError(RuntimeError):
    """The policy-induced chain is not irreducible, so no unique stationary
    distribution exists.  When raised mid-ascent the partial objective trace
    and last parameters are attached as ``j_trace`` and ``theta``."""


class SingularSystemError(RuntimeError):
    """The stationary or differential-value linear system could not be solved."""


def softmax_policy(theta):
    """Row-wise softmax policy over logits theta with shape (S, A).

    The row maximum is subtracted before exponentiation, so extreme logits
    saturate instead of overflowing.
    """
    theta = np.asarray(theta, dtype=float)
    if theta.ndim != 2:
        raise ValidationError("theta must be an (S, A) array")
    if not np.all(np.isfinite(theta)):
        raise NonFiniteThetaError("theta must be finite")
    z = theta - theta.max(axis=1, keepdims=True)
    e = np.exp(z)
    return Policy.stochastic(e / e.sum(axis=1, keepdims=True))


def _strongly_connected(adj):
    """True when every node of the boolean graph adj reaches node 0 and is
    reached from it, which makes the graph strongly connected."""
    for graph in (adj, adj.T):
        seen = np.zeros(len(graph), dtype=bool)
        seen[0] = True
        frontier = seen
        # each pass adds at least one node, so it stops within len(graph) passes
        while frontier.any():
            reach = graph[frontier].any(axis=0)
            frontier = reach & ~seen
            seen = seen | reach
        if not seen.all():
            return False
    return True


def _stationary(p_pi):
    """Stationary distribution of a chain (S, S), or of each chain in a stack
    (K, S, S).

    One solve of the bordered system (I - P^T + 1 1^T) mu = 1, which is
    nonsingular exactly when the chain has a single recurrent class (Kemeny &
    Snell, Finite Markov Chains).  Raises ReducibleChainError unless every
    chain's positive-probability graph is strongly connected; the graph check
    runs once per distinct support pattern in the stack.
    """
    n = p_pi.shape[-1]
    patterns = {adj.tobytes(): adj for adj in (p_pi > 0.0).reshape(-1, n, n)}
    if not all(_strongly_connected(adj) for adj in patterns.values()):
        raise ReducibleChainError(
            "induced chain is not strongly connected; "
            "the stationary distribution is not unique"
        )
    system = np.eye(n) + 1.0 - np.swapaxes(p_pi, -1, -2)
    try:
        mu = np.linalg.solve(system, np.ones(p_pi.shape[:-1])[..., None])[..., 0]
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(f"stationary system is singular: {exc}") from exc
    return mu / mu.sum(axis=-1, keepdims=True)


def stationary_distribution(mdp, policy):
    """Left fixed point of the policy-induced chain, as a probability vector.

    A direct solve of the bordered system (I - P_pi^T + 1 1^T) mu = 1, so
    slow-mixing chains cost no more than fast ones.  Raises
    ReducibleChainError when the positive-probability graph is not strongly
    connected.
    """
    _, p_pi = expectations(mdp, policy_probs(mdp, policy))
    return _stationary(p_pi)


def differential_q(mdp, policy, mu):
    """Average reward J and the differential action values under the policy.

    Solves (I - P_pi + 1 mu^T) V = R_pi - J, which embeds the normalization
    mu . V = 0 into the otherwise rank-deficient Poisson system, then
    Q(s, a) = R(s, a) - J + P(.|s, a) . V.
    """
    r_pi, p_pi = expectations(mdp, policy_probs(mdp, policy))
    q, j = _differential(mdp, r_pi, p_pi, np.asarray(mu, dtype=float))
    return QTable(q), j


def _differential(mdp, r_pi, p_pi, mu):
    j = float(mu @ r_pi)
    n = p_pi.shape[0]
    system = np.eye(n) - p_pi + np.outer(np.ones(n), mu)
    try:
        v = np.linalg.solve(system, r_pi - j)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(f"differential-value system is singular: {exc}") from exc
    v -= mu @ v
    return mdp.rewards - j + mdp.transitions @ v, j


def _gradient(mdp, theta):
    """Exact gradient of J at theta, and J; R_pi and P_pi are built once."""
    policy = softmax_policy(theta)
    r_pi, p_pi = expectations(mdp, policy_probs(mdp, policy))
    mu = _stationary(p_pi)
    q, j = _differential(mdp, r_pi, p_pi, mu)
    v = (policy.probs * q).sum(axis=1)
    return mu[:, None] * policy.probs * (q - v[:, None]), j


def average_reward(mdp, theta):
    """J(theta): stationary-average one-step reward of the softmax policy."""
    r_pi, p_pi = expectations(mdp, policy_probs(mdp, softmax_policy(theta)))
    return float(_stationary(p_pi) @ r_pi)


def policy_gradient_analytic(mdp, theta):
    """Exact gradient of J for the row-softmax parameterization.

    grad[s, a] = mu(s) pi(a|s) (Q(s, a) - V(s)) with V the policy average of
    Q; this is the closed form of the score-function expectation
    E[grad log pi * Q] taken under mu and pi, no sampling involved.
    """
    return _gradient(mdp, theta)[0]


@dataclass(frozen=True, eq=False)
class GradientReport:
    """Analytic gradient next to its central-difference estimate."""

    analytic: np.ndarray
    numeric: np.ndarray
    max_abs_diff: float
    max_rel_diff: float


def gradient_check(mdp, theta, h=FD_STEP):
    """Compare the analytic gradient with central differences of J.

    numeric[s, a] = (J(theta + h e) - J(theta - h e)) / 2h per coordinate;
    the relative difference uses max(1e-8, |numeric|) as denominator.  A bump
    in row s changes only that row of the policy, so the 2A perturbed chains
    of one state are built and solved as one stack.
    """
    h = float(h)
    if not h > 0.0:
        raise ValidationError("h must be > 0")
    theta = np.asarray(theta, dtype=float)
    analytic = policy_gradient_analytic(mdp, theta)
    n_s, n_a = theta.shape
    base = softmax_policy(theta).probs
    bumps = np.concatenate([np.eye(n_a), -np.eye(n_a)]) * h
    numeric = np.empty_like(analytic)
    for s in range(n_s):
        probs = np.repeat(base[None], 2 * n_a, axis=0)
        probs[:, s] = softmax_policy(theta[s] + bumps).probs
        r_pi, p_pi = expectations(mdp, probs)
        j = (_stationary(p_pi) * r_pi).sum(axis=1)
        numeric[s] = (j[:n_a] - j[n_a:]) / (2.0 * h)
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
    raises ValueOverflowError before its step is taken.
    """
    step_size = float(step_size)
    if not step_size > 0.0:
        raise ValidationError("step_size must be > 0")
    if int(iters) < 1:
        raise ValidationError("iters must be >= 1")
    theta = np.array(theta0, dtype=float)
    js = []
    grad_norms = []
    try:
        for k in range(int(iters)):
            grad, j = _gradient(mdp, theta)
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
            theta = theta + step_size * grad
        js.append(average_reward(mdp, theta))
    except ReducibleChainError as exc:
        exc.j_trace = np.array(js)
        exc.theta = theta
        raise
    return theta, np.array(js), grad_norms


def gradient_ascent(mdp, theta0, step_size, iters):
    """Plain gradient ascent on J; ``ascent_trace`` without the gradient norms."""
    theta, js, _ = ascent_trace(mdp, theta0, step_size, iters)
    return theta, js
