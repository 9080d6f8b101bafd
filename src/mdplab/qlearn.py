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

import numpy as np

from .mdp import QTable, ValidationError, argmax_sets, as_integer, as_number, successor_cdf

_CHUNK = 1 << 14
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
        for name in ("seed", "steps", "checkpoint_every"):
            as_integer(getattr(self, name), name)
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")
        if self.steps < 1:
            raise ValidationError("steps must be >= 1")
        if self.checkpoint_every < 1:
            raise ValidationError("checkpoint_every must be >= 1")
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


def _checkpoint(step, q, best, q_star, stars):
    """Sup-norm distance to the oracle (NaN if any entry is NaN) and, per state,
    whether an action equal to the row maximum ``best[s]`` the step loop keeps
    (the object ``max(q[s])`` returns) is in the optimal mask ``stars``."""
    table = np.array(q)
    with np.errstate(over="ignore", invalid="ignore"):  # +-1e308 entries differ by inf
        err = np.abs(table - q_star).max()
    greedy = table == np.array(best)[:, None]
    return Checkpoint(step, float(err), (greedy & stars).any(axis=1))


def q_learning_run(mdp, config, oracle):
    """Run seeded tabular Q-learning against a solved oracle.

    Every step consumes four uniforms from a PCG64 stream seeded with
    config.seed: restart draw, exploration coin, exploration action, and
    transition draw (inverse CDF, ``successor_cdf``).  When no running sum of
    ``successor_cdf`` lies in (0, 1), every row has one successor: the
    transition uniform is drawn but not read, and the successor is looked up.
    Behavior is epsilon-greedy over the current table with ties to the lowest
    action index; the update bootstraps on the sampled successor either way.  The
    trace records the sup-norm distance to the oracle's action values every
    ``checkpoint_every`` steps.  The uniforms are drawn per segment, at most
    _CHUNK steps ending at a checkpoint or at the run's end; PCG64 fills a
    block in order, so no update depends on ``checkpoint_every``.  Rates come from
    the schedule's kept table, grown up to _RATE_TABLE_CAP to cover each segment.
    """
    n_s, n_a = mdp.n_states, mdp.n_actions
    q_star = oracle.q_star.values
    if q_star.shape != (n_s, n_a):
        raise ValidationError("oracle was not computed on this MDP")
    stars = argmax_sets(q_star, OPTIMAL_SET_TOL)
    cdf = successor_cdf(mdp.transitions)
    # with no running sum strictly inside (0, 1), the search index of every
    # uniform in [0, 1) is the row's count of zero sums: a fixed successor
    fixed = not ((cdf > 0.0) & (cdf < 1.0)).any()
    cum = ((cdf <= 0.0).sum(axis=-1) if fixed else cdf).tolist()
    rewards = mdp.rewards.tolist()
    gamma = mdp.gamma
    eps = config.epsilon
    schedule = config.schedule
    rates = vars(schedule).setdefault("_rates", [0.0])  # [0.0, rate(1), rate(2), ...]
    cap = _RATE_TABLE_CAP
    every = int(config.checkpoint_every)

    q = [[float(config.q_init)] * n_a for _ in range(n_s)]
    # best[s] is the object max(q[s]) returns and top[s] its index, so a step
    # re-scans a row only when its maximum goes down or a NaN comes in
    best = [row[0] for row in q]
    top = [0] * n_s
    visits = [[0] * n_a for _ in range(n_s)]
    uniform_mode = config.start == "uniform"
    s = 0 if uniform_mode else mdp.state_index(config.start)
    # max |Q| is max(hi, -lo) over the running maximum and minimum
    hi = abs(float(config.q_init))
    lo = -hi

    rng = np.random.default_rng(config.seed)
    checkpoints = []
    t = 0
    steps = int(config.steps)
    # One pass per segment, its (seg, 4) uniforms turned into flat per-step
    # lists with the same multiply and truncation as int(u * n): the restart
    # state (uniform mode only), the exploration action or -1 when the coin
    # says greedy, and the transition draw (unread when successors are fixed).
    while t < steps:
        seg = min(steps - t, every - t % every, _CHUNK)
        t += seg
        u = rng.random((seg, 4))
        acting = (u[:, 0] * n_s).astype(np.int64).tolist() if uniform_mode else repeat(None)
        explore = np.where(u[:, 1] < eps, (u[:, 2] * n_a).astype(np.int64), -1).tolist()
        # cover every visit index this segment can reach, up to the cap
        need = min(max(map(max, visits)) + seg + 1, cap)
        if need > len(rates):
            with _RATES_LOCK:  # another thread may have grown it meanwhile
                if need > len(rates):
                    rates += schedule.rates(len(rates), need)
        for s0, a, u3 in zip(acting, explore, repeat(None) if fixed else u[:, 3].tolist()):
            if uniform_mode:
                s = s0
            row = q[s]
            if a < 0:  # greedy: the first maximum, the lowest tied index
                a = top[s]
            nxt = cum[s][a] if fixed else bisect_right(cum[s][a], u3)
            counts = visits[s]
            i = counts[a] + 1
            counts[a] = i
            # below the cap the table covers every index this segment reaches
            beta = rates[i] if i < cap else schedule.rate(i)
            qa = row[a]
            value = qa + beta * (rewards[s][a] + gamma * best[nxt] - qa)
            row[a] = value
            m = best[s]
            g = top[s]
            if value > m or (value == m and a <= g):
                best[s], top[s] = value, a
            elif a == g or value != value:  # the old maximum went down, or a NaN came in
                m = max(row)
                best[s], top[s] = m, row.index(m)
            if value > hi:
                hi = value
            elif value < lo:
                lo = value
            s = nxt
        if t % every == 0:
            checkpoints.append(_checkpoint(t, q, best, q_star, stars))

    return ConvergenceTrace(
        checkpoints=tuple(checkpoints),
        q_final=QTable(np.array(q)),
        visits=np.array(visits, dtype=np.int64),
        max_abs_q=max(hi, -lo),
    )


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
