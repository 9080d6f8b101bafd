"""Tabular Q-learning with visit-indexed learning rates.

The learning rate applied to an update is schedule(i) where i counts how many
times that particular (state, action) pair has been updated, including the
current step.  A schedule satisfies the stochastic-approximation conditions
(Robbins-Monro) when the per-pair rates sum to infinity while their squares
sum to a finite value; ``classify_schedule`` decides this analytically for
the harmonic-power and constant families.
"""

import threading
from bisect import bisect_right
from dataclasses import dataclass
from itertools import repeat
from math import inf

import numpy as np

from .mdp import (QTable, ValidationError, ValueOverflowError, argmax_sets, as_count,
                  as_integer, as_number, per_stack, successor_cdf)

# Longest table of schedule.rates a schedule keeps (about 8 MB harmonic, 2 MB
# constant, which repeats one float); a visit index past it calls schedule.rate.
_RATE_TABLE_CAP = 1 << 18
_RATES_LOCK = threading.Lock()  # runs in several threads may grow one schedule's table
OPTIMAL_SET_TOL = 1e-9


class NegativeRateError(ValidationError):
    """A schedule produces a rate below 0."""


class RateAtLeastOneError(ValidationError):
    """A schedule produces rates above 1 (or a constant rate of 1 or more)."""


class TooFewCheckpointsError(ValidationError):
    """Convergence summaries need at least 10 checkpoints."""


@dataclass(frozen=True)
class LearningRateSchedule:
    """Rule mapping the i-th visit of a (state, action) pair to a step size,
    checked here for ``harmonic``, ``constant`` and ``from_table`` alike; ``rates``
    defines each family's rates.  ``q_learning_run`` keeps the rates it builds on
    the schedule for later runs, outside its value (==, hash, repr and pickle)."""

    family: str
    p: float = None
    c: float = None
    table: tuple = None

    def __post_init__(self):
        given = {name for name in ("p", "c", "table") if getattr(self, name) is not None}
        if self.family == "harmonic" and given <= {"p"}:
            p = as_number(self.p, "harmonic power", ValidationError)
            if not np.isfinite(p):
                raise ValidationError("p must be finite")
            if p <= 0.0:
                raise RateAtLeastOneError(f"harmonic power must be > 0 "
                                          f"(p={p} gives rates >= 1 forever)")
            object.__setattr__(self, "p", p)
        elif self.family == "constant" and given <= {"c"}:
            c = as_number(self.c, "constant rate", ValidationError)
            if not np.isfinite(c) or c < 0.0:
                raise NegativeRateError(f"constant rate must be >= 0, got {c}")
            if c >= 1.0:
                raise RateAtLeastOneError(f"constant rate must be < 1, got {c}")
            object.__setattr__(self, "c", c)
        elif self.family == "table" and given <= {"table"}:
            if not np.iterable(self.table):
                raise ValidationError("rate table must be a sequence; each rate must be a number")
            values = tuple(as_number(v, "a table rate", ValidationError) for v in self.table)
            if not values:
                raise ValidationError("rate table must be nonempty")
            if any(not np.isfinite(v) or v < 0.0 for v in values):
                raise NegativeRateError("table rates must be finite and >= 0")
            if any(v > 1.0 for v in values):
                raise RateAtLeastOneError("table rates must be <= 1")
            object.__setattr__(self, "table", values)
        else:
            raise ValidationError(f"a schedule is 'harmonic' with p, 'constant' with c or "
                                  f"'table' with table only, got family {self.family!r}")

    @classmethod
    def harmonic(cls, p):
        return cls("harmonic", p=p)

    @classmethod
    def constant(cls, c):
        return cls("constant", c=c)

    @classmethod
    def from_table(cls, values):
        return cls("table", table=values)

    def __getstate__(self):
        return {k: v for k, v in vars(self).items() if k != "_rates"}

    def rate(self, i):
        """Step size for the i-th visit of a pair (i >= 1): ``rates(i, i + 1)[0]``."""
        i = as_integer(i, "visit index")
        return self.rates(i, i + 1)[0]

    def rates(self, start, stop):
        """Step sizes, as floats, for the integer visit indices 1 <= start <= i < stop
        (else ValidationError): harmonic(p) gives Python's ``i ** -p`` (p > 0, so
        the first visit's rate is 1), constant(c) gives c (0 <= c < 1), and
        from_table(values) gives values[i - 1], the last entry repeating past the end."""
        start, stop = as_integer(start, "start"), as_integer(stop, "stop")
        if start < 1:
            raise ValidationError(f"visit indices start at 1, got start {start}")
        if self.family == "harmonic":
            neg = -self.p
            return [i ** neg for i in range(start, stop)]
        if self.family == "constant":
            return [self.c] * (stop - start)
        table = self.table
        return list(table[start - 1:stop - 1]) + [table[-1]] * (stop - max(start, len(table) + 1))


@dataclass(frozen=True)
class ScheduleVerdict:
    """Divergent-sum / finite-square-sum verdict for a schedule.

    ``condition_i`` is "pass" when the per-pair rates sum to infinity,
    ``condition_ii`` when the squared rates sum to a finite value; values are
    "pass", "fail", or "unknown".  ``rm_valid`` is None when indeterminate.
    For finite tables only the partial sums over the declared horizon are
    knowable, so both conditions come back unknown with the partial sums
    attached as diagnostics.
    """

    condition_i: str
    condition_ii: str
    rm_valid: bool = None
    partial_sum: float = None
    partial_sum_sq: float = None

    def as_dict(self):
        out = {
            "condition_i": self.condition_i,
            "condition_ii": self.condition_ii,
            "rm_valid": self.rm_valid,
        }
        if self.partial_sum is not None:
            out["partial_sum"] = self.partial_sum
            out["partial_sum_sq"] = self.partial_sum_sq
        return out


def classify_schedule(schedule):
    """Classify a schedule against the stochastic-approximation conditions.

    harmonic(p): sum i**-p diverges iff p <= 1; sum i**-2p is finite iff
    p > 1/2, so the schedule is valid exactly for 1/2 < p <= 1.  constant(c):
    the plain sum diverges for any c > 0 but the squared sum does too.
    """
    if schedule.family == "harmonic":
        cond_i = schedule.p <= 1.0
        cond_ii = schedule.p > 0.5
        return ScheduleVerdict(
            "pass" if cond_i else "fail",
            "pass" if cond_ii else "fail",
            rm_valid=cond_i and cond_ii,
        )
    if schedule.family == "constant":
        if schedule.c == 0.0:
            return ScheduleVerdict("fail", "pass", rm_valid=False)
        return ScheduleVerdict("pass", "fail", rm_valid=False)
    total = float(sum(schedule.table))
    total_sq = float(sum(v * v for v in schedule.table))
    return ScheduleVerdict(
        "unknown", "unknown", rm_valid=None, partial_sum=total, partial_sum_sq=total_sq
    )


@dataclass(frozen=True)
class QLearnConfig:
    """Run parameters for a Q-learning experiment.

    ``start`` is "uniform" for per-step uniform restarts (the acting state is
    redrawn uniformly before every step, which keeps every pair visited), or
    a state name to follow a single continuing trajectory from that state.
    """

    schedule: LearningRateSchedule
    steps: int
    seed: int = 0
    epsilon: float = 0.1
    checkpoint_every: int = 1000
    q_init: float = 0.0
    start: str = "uniform"

    def __post_init__(self):
        if not isinstance(self.schedule, LearningRateSchedule):
            raise ValidationError(f"schedule {self.schedule!r} is not a LearningRateSchedule")
        if as_integer(self.seed, "seed") < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")
        for name in ("steps", "checkpoint_every"):
            as_count(getattr(self, name), name)
        for name in ("epsilon", "q_init"):
            as_number(getattr(self, name), name, err=ValidationError)
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValidationError("epsilon must lie in [0, 1]")
        if not np.isfinite(self.q_init):
            raise ValidationError("q_init must be finite")
        if not isinstance(self.start, str):
            raise ValidationError(f"start must be 'uniform' or a state name, got {self.start!r}")


@dataclass(frozen=True, eq=False)
class Checkpoint:
    """Snapshot of learning progress at a step count.

    ``greedy_match[s]`` is True when the learned greedy action set at state s
    intersects the oracle's optimal action set.
    """

    step: int
    supnorm_error: float
    greedy_match: np.ndarray


@dataclass(frozen=True, eq=False)
class ConvergenceTrace:
    """A run's checkpoints, final table and max |Q|; ``visits`` is the (S, A)
    int64 array of per-pair update counts, which sums to the step count."""

    checkpoints: tuple
    q_final: QTable
    visits: np.ndarray
    max_abs_q: float


def _checkpoint(step, table, q_star, stars):
    """Sup-norm distance of the finite (S, A) ``table`` to the oracle (NaN at a NaN oracle
    entry) and, per state, whether an action equal to its row's maximum is in ``stars``."""
    with np.errstate(over="ignore"):  # +-1e308 entries differ by inf
        err = np.abs(table - q_star).max()
    greedy = table == table.max(axis=1, keepdims=True)
    return Checkpoint(step, float(err), (greedy & stars).any(axis=1))


def q_learning_run(mdp, config, oracle):
    """Run seeded tabular Q-learning against a solved oracle.

    Every step consumes four uniforms from a PCG64 stream seeded with
    config.seed: restart draw, exploration coin, exploration action, and
    transition draw (inverse CDF, ``successor_cdf``); when every row has one
    successor (no running sum in (0, 1)), the last is drawn but not read and the
    successor is looked up.  Behavior is epsilon-greedy with ties to the lowest
    action index; the update bootstraps on the sampled successor.  The trace
    records the sup-norm distance to the oracle's action values every
    ``checkpoint_every`` steps.  Uniforms are drawn per segment, at most
    per_stack(32) steps ending at a checkpoint or at the run's end, so no update
    depends on ``checkpoint_every``; a run whose values overflow raises
    ValueOverflowError at that segment's end.  Rates come from the schedule's kept
    table, grown up to _RATE_TABLE_CAP.  The table, visits, rewards and successors
    are flat lists indexed by the pair k = s * A + a.  Each state keeps the k of
    its row's first maximum and a runner-up bound on the row's other entries; a
    row is rescanned only when an update lowers its maximum to the bound or below.
    """
    if not isinstance(config, QLearnConfig):
        raise ValidationError(f"config must be a QLearnConfig, got {type(config).__name__}")
    if not isinstance(getattr(oracle, "q_star", None), QTable):
        raise ValidationError(f"oracle must have a QTable q_star, got {type(oracle).__name__}")
    n_s, n_a = mdp.n_states, mdp.n_actions
    q_star = oracle.q_star.values
    if q_star.shape != (n_s, n_a):
        raise ValidationError("oracle was not computed on this MDP")
    stars = argmax_sets(q_star, OPTIMAL_SET_TOL)
    cdf = successor_cdf(mdp.transitions)
    # with no running sum strictly inside (0, 1), the search index of every
    # uniform in [0, 1) is the row's count of zero sums: a fixed successor
    fixed = not ((cdf > 0.0) & (cdf < 1.0)).any()
    cum = ((cdf <= 0.0).sum(axis=-1).ravel() if fixed else cdf.reshape(n_s * n_a, -1)).tolist()
    rewards = mdp.rewards.ravel().tolist()
    gamma = mdp.gamma
    schedule = config.schedule
    rates = vars(schedule).setdefault("_rates", [0.0])  # [0.0, rate(1), rate(2), ...]
    cap = _RATE_TABLE_CAP
    every = int(config.checkpoint_every)

    q = [float(config.q_init)] * (n_s * n_a)
    top = list(range(0, n_s * n_a, n_a))
    second = [q[0]] * n_s  # bounds every entry of row s but its top
    visits = [0] * (n_s * n_a)
    uniform_mode = config.start == "uniform"
    s = 0 if uniform_mode else mdp.state_index(config.start)
    hi, lo = abs(q[0]), -abs(q[0])  # running max and min: max |Q| is max(hi, -lo)

    rng = np.random.default_rng(config.seed)
    checkpoints = []
    t = 0
    steps = int(config.steps)
    # One pass per segment turns its (seg, 4) uniforms into flat per-step lists,
    # truncating u * n as int() does: the restart state (uniform mode only), the
    # exploring pair index (the bare action in trajectory mode) or -1 for a
    # greedy step, and the transition draw (unread when successors are fixed).
    while t < steps:
        seg = min(steps - t, every - t % every, per_stack(32))  # 32 bytes of uniforms a step
        t += seg
        u = rng.random((seg, 4))
        acting = (u[:, 0] * n_s).astype(np.int64) if uniform_mode else 0
        pick = acting * n_a + (u[:, 2] * n_a).astype(np.int64)
        explore = np.where(u[:, 1] < config.epsilon, pick, -1).tolist()
        acting = acting.tolist() if uniform_mode else repeat(None)
        # cover every visit index this segment can reach, up to the cap
        need = min(max(visits) + seg + 1, cap)
        if need > len(rates):
            with _RATES_LOCK:  # another thread may have grown it meanwhile
                if need > len(rates):
                    rates += schedule.rates(len(rates), need)
        for s0, k, u3 in zip(acting, explore, repeat(None) if fixed else u[:, 3].tolist()):
            if uniform_mode:
                s = s0
            elif k >= 0:
                k += s * n_a
            g = top[s]
            if k < 0:  # greedy: the first maximum, the lowest tied index
                k = g
            nxt = cum[k] if fixed else bisect_right(cum[k], u3)
            i = visits[k] + 1
            visits[k] = i
            beta = rates[i] if i < cap else schedule.rate(i)  # the table covers i < cap
            qa, m = q[k], q[g]  # read before q[k] is written: on a greedy step k == g
            value = qa + beta * (rewards[k] + gamma * q[top[nxt]] - qa)
            q[k] = value
            if value > m or (value == m and k <= g):
                if k != g:  # a new leader: the old maximum bounds the rest
                    top[s], second[s] = k, m
                if value > hi:  # value >= m >= lo here
                    hi = value
            else:
                if value > second[s]:  # a lowered maximum above the bound still leads
                    if k != g:
                        second[s] = value
                elif k == g:  # the maximum fell to the bound
                    base = s * n_a
                    row = q[base:base + n_a]
                    g = top[s] = q.index(max(row), base)
                    row[g - base] = -inf
                    second[s] = max(row)
                if value < lo:  # value <= m <= hi here
                    lo = value
            s = nxt
        table = np.reshape(q, (n_s, n_a))
        if not np.isfinite(table).all():  # an overflow's inf or NaN stays in its entry
            raise ValueOverflowError(f"Q-learning values overflow within {t} steps; "
                                     f"rewards or q_init are too large for gamma {gamma}")
        if t % every == 0:
            checkpoints.append(_checkpoint(t, table, q_star, stars))

    return ConvergenceTrace(checkpoints=tuple(checkpoints), q_final=QTable(table),
                            visits=np.array(visits, dtype=np.int64).reshape(n_s, n_a),
                            max_abs_q=max(hi, -lo))


@dataclass(frozen=True)
class ConvergenceSummary:
    first_decile_median_err: float
    last_decile_median_err: float
    final_err: float
    greedy_policy_matched: bool


def convergence_report(trace):
    """Summarize a trace: early/late decile medians and the final state.

    ``greedy_policy_matched`` is True when, at the final checkpoint, every
    state's learned greedy action set intersects the oracle's optimal set.
    """
    errs = [cp.supnorm_error for cp in trace.checkpoints]
    n = len(errs)
    if n < 10:
        raise TooFewCheckpointsError(f"need >= 10 checkpoints, got {n}")
    k = n // 10
    return ConvergenceSummary(
        first_decile_median_err=float(np.median(errs[:k])),
        last_decile_median_err=float(np.median(errs[-k:])),
        final_err=float(errs[-1]),
        greedy_policy_matched=bool(trace.checkpoints[-1].greedy_match.all()),
    )
