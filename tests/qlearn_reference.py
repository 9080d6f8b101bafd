"""Test-only reference: the scalar Q-learning step loop, kept verbatim.

This is ``mdplab.qlearn.q_learning_run`` as it was before its step loop was
rewritten for speed.  The golden traces in ``data/qlearn_golden.json`` were
recorded from it, and ``test_qlearn_equivalence.py`` asserts that the library
loop reproduces every output bit of it.  Do not optimise this copy.
"""

from bisect import bisect_right

import numpy as np

from mdplab.mdp import QTable, ValidationError
from mdplab.qlearn import Checkpoint, ConvergenceTrace

_CHUNK = 1 << 18


def reference_q_learning_run(mdp, config, oracle):
    n_s, n_a = mdp.n_states, mdp.n_actions
    q_star = oracle.q_star.values
    if q_star.shape != (n_s, n_a):
        raise ValidationError("oracle was not computed on this MDP")
    star_sets = [
        frozenset(np.nonzero(row >= row.max() - 1e-9)[0].tolist()) for row in q_star
    ]
    cum = [
        [np.cumsum(mdp.transitions[s, a]).tolist() for a in range(n_a)]
        for s in range(n_s)
    ]
    rewards = mdp.rewards.tolist()
    gamma = mdp.gamma
    eps = config.epsilon
    rate = config.schedule.rate
    every = config.checkpoint_every

    q = [[float(config.q_init)] * n_a for _ in range(n_s)]
    visits = [[0] * n_a for _ in range(n_s)]
    uniform_mode = config.start == "uniform"
    s = 0 if uniform_mode else mdp.state_index(config.start)
    max_abs = abs(float(config.q_init))

    rng = np.random.default_rng(config.seed)
    checkpoints = []
    t = 0
    remaining = config.steps
    while remaining > 0:
        block = rng.random((min(remaining, _CHUNK), 4)).tolist()
        remaining -= len(block)
        for u0, u1, u2, u3 in block:
            t += 1
            if uniform_mode:
                s = int(u0 * n_s)
            row = q[s]
            if u1 < eps:
                a = int(u2 * n_a)
            else:
                a = 0
                best = row[0]
                for j in range(1, n_a):
                    if row[j] > best:
                        best = row[j]
                        a = j
            nxt = bisect_right(cum[s][a], u3)
            if nxt >= n_s:
                nxt = n_s - 1
            visits[s][a] += 1
            beta = rate(visits[s][a])
            value = row[a] + beta * (rewards[s][a] + gamma * max(q[nxt]) - row[a])
            row[a] = value
            if value > max_abs:
                max_abs = value
            elif -value > max_abs:
                max_abs = -value
            s = nxt
            if t % every == 0:
                err = 0.0
                match = []
                for i in range(n_s):
                    qi = q[i]
                    top = max(qi)
                    hit = False
                    for j in range(n_a):
                        d = qi[j] - q_star[i, j]
                        if d < 0.0:
                            d = -d
                        if d > err:
                            err = d
                        if qi[j] == top and j in star_sets[i]:
                            hit = True
                    match.append(hit)
                checkpoints.append(Checkpoint(t, err, np.array(match)))

    return ConvergenceTrace(
        checkpoints=tuple(checkpoints),
        q_final=QTable(np.array(q)),
        visits=np.array(visits, dtype=np.int64),
        max_abs_q=max_abs,
    )


def trace_bits(trace):
    """Every output field of a trace, with floats as ``float.hex()`` strings."""
    return {
        "checkpoints": [
            [cp.step, float(cp.supnorm_error).hex(),
             "".join("1" if m else "0" for m in cp.greedy_match.tolist())]
            for cp in trace.checkpoints
        ],
        "q_final": [[v.hex() for v in row] for row in trace.q_final.values.tolist()],
        "visits": trace.visits.tolist(),
        "max_abs_q": float(trace.max_abs_q).hex(),
    }
