"""Command-line front end: solve, qlearn, pg, compare, sweep, check-schedule.

Structured results go to stdout as JSON; time series go to the ``--out`` CSV
file (or stdout when no file is given).  CSV files are written to a temp path
and renamed on success, so a failed run never leaves a partial file.  All
stochastic subcommands derive their randomness from the global ``--seed``
(default 0, must be >= 0) through a single PCG64 stream.

Exit codes: 0 success, 1 usage error, 2 input validation or I/O error
(including a file that is not UTF-8 or nests too deeply to parse, a string or
boolean where a document needs a number, rewards so large for gamma that the
exact values overflow or so large that a policy-gradient norm overflows, a
gamma so close to 1 that solve's value iteration would need over 10**6 sweeps,
a policy iteration that does not stabilize in 10**4 iterations, filter knots
whose end segments have infinite slope, and a hierarchy level whose rewards
overflow), 3 schedule fails the divergent/finite-sum conditions, 4 schedule
indeterminate, 5 theorem-hypothesis violation (reducible chain or singular
system).
"""

import argparse
import json
import os
import sys

import numpy as np

from .gradient import (
    ReducibleChainError,
    SingularSystemError,
    ascent_trace,
    gradient_check,
    softmax_policy,
    stationary_distribution,
)
from .mdp import ValidationError, labeled, load_dynamics, load_json, load_mdp, table_from_dict
from .qlearn import LearningRateSchedule, QLearnConfig, classify_schedule, q_learning_run
from .rewards import compare_policies, hierarchy_from_dict, sweep_weights
from .solve import policy_iteration, value_iteration


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(1, f"error: {message}\n")


def _fmt(value):
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def emit_csv(records, header, out_path=None):
    """Write rows as UTF-8, LF-terminated CSV with full-precision numbers."""
    lines = [",".join(header)]
    for record in records:
        if len(record) != len(header):
            raise ValidationError("record arity does not match the header")
        lines.append(",".join(_fmt(v) for v in record))
    text = "\n".join(lines) + "\n"
    if out_path is None:
        sys.stdout.write(text)
        return
    tmp_path = f"{out_path}.tmp"
    try:
        with open(tmp_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp_path, out_path)
    except OSError:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


def _emit_json(obj):
    sys.stdout.write(json.dumps(obj) + "\n")


def _add_schedule_flags(parser):
    parser.add_argument(
        "--family",
        choices=("harmonic", "constant", "table"),
        default="harmonic",
        help="learning-rate family (default harmonic)",
    )
    parser.add_argument("--p", type=float, default=1.0, help="harmonic power")
    parser.add_argument("--c", type=float, default=0.5, help="constant rate")
    parser.add_argument("--table", default=None, help="comma-separated rates")


def _floats(text, what):
    try:
        return [float(v) for v in text.split(",")]
    except ValueError:
        raise ValidationError(f"cannot parse {what} {text!r}") from None


def _schedule_from_args(args):
    if args.family == "harmonic":
        return LearningRateSchedule.harmonic(args.p)
    if args.family == "constant":
        return LearningRateSchedule.constant(args.c)
    if args.table is None:
        raise ValidationError("--family table requires --table")
    return LearningRateSchedule.from_table(_floats(args.table, "rate table"))


def _build_parser():
    parser = _Parser(prog="mdplab", description="Finite-MDP laboratory")
    parser.add_argument("--seed", type=int, default=0, help="PRNG seed (default 0)")
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    p = sub.add_parser("solve", help="optimal values and policy by value iteration")
    p.add_argument("--mdp", required=True, help="MDP JSON file")
    p.add_argument("--epsilon", type=float, default=1e-8)

    p = sub.add_parser("qlearn", help="tabular Q-learning against the exact solution")
    p.add_argument("--mdp", required=True)
    _add_schedule_flags(p)
    p.add_argument("--epsilon", type=float, default=0.1, help="exploration rate")
    p.add_argument("--steps", type=int, default=100_000)
    p.add_argument("--checkpoint-every", type=int, default=1000)
    p.add_argument("--q-init", type=float, default=0.0)
    p.add_argument(
        "--start",
        default="uniform",
        help='"uniform" for per-step uniform restarts or a state name',
    )
    p.add_argument("--out", default=None, help="CSV output path (default stdout)")

    p = sub.add_parser("check-schedule", help="divergent/finite-sum conditions")
    _add_schedule_flags(p)

    p = sub.add_parser("pg", help="average-reward softmax policy gradient ascent")
    p.add_argument("--mdp", required=True)
    p.add_argument("--init", choices=("zeros", "gaussian"), default="zeros")
    p.add_argument("--step-size", type=float, default=0.1)
    p.add_argument("--iters", type=int, default=100)
    p.add_argument("--check", action="store_true", help="run a finite-difference check")
    p.add_argument("--out", default=None, help="per-iteration CSV path")

    p = sub.add_parser("compare", help="optimal-action divergence of two rewards")
    p.add_argument("--dynamics", required=True, help="MDP JSON (rewards optional)")
    p.add_argument("--reward-a", required=True, help="reward table JSON")
    p.add_argument("--reward-b", required=True, help="reward table JSON")

    p = sub.add_parser("sweep", help="divergence as one level's weight varies")
    p.add_argument("--dynamics", required=True)
    p.add_argument("--hierarchy", required=True, help="hierarchy JSON file")
    p.add_argument("--level", type=int, required=True, help="level index to sweep")
    p.add_argument("--grid", required=True, help="comma-separated weights")
    p.add_argument("--out", default=None, help="CSV output path (default stdout)")

    return parser


def _cmd_solve(args):
    mdp = load_mdp(args.mdp)
    result = value_iteration(mdp, args.epsilon)
    _emit_json(result.as_dict(mdp))
    return 0


def _cmd_qlearn(args):
    mdp = load_mdp(args.mdp)
    config = QLearnConfig(
        schedule=_schedule_from_args(args),
        steps=args.steps,
        seed=args.seed,
        epsilon=args.epsilon,
        checkpoint_every=args.checkpoint_every,
        q_init=args.q_init,
        start=args.start,
    )
    oracle = policy_iteration(mdp)
    trace = q_learning_run(mdp, config, oracle)
    records = [
        (cp.step, cp.supnorm_error, bool(cp.greedy_match.all()))
        for cp in trace.checkpoints
    ]
    emit_csv(records, ("step", "supnorm_error", "greedy_match"), args.out)
    return 0


def _cmd_check_schedule(args):
    verdict = classify_schedule(_schedule_from_args(args))
    _emit_json(verdict.as_dict())
    if verdict.rm_valid is None:
        return 4
    return 0 if verdict.rm_valid else 3


def _cmd_pg(args):
    mdp = load_mdp(args.mdp)
    shape = (mdp.n_states, mdp.n_actions)
    if args.init == "zeros":
        theta0 = np.zeros(shape)
    else:
        theta0 = np.random.default_rng(args.seed).normal(0.0, 0.1, size=shape)
    theta, js, grad_norms = ascent_trace(mdp, theta0, args.step_size, args.iters)
    if args.out is not None:
        records = [(k, js[k], grad_norms[k]) for k in range(len(grad_norms))]
        emit_csv(records, ("iter", "J", "grad_norm"), args.out)
    mu = stationary_distribution(mdp, softmax_policy(theta))
    summary = {"theta": labeled(mdp, theta), "mu": labeled(mdp, mu), "j": float(js[-1])}
    if args.check:
        report = gradient_check(mdp, theta)
        summary["gradient_check"] = {
            "max_abs_diff": report.max_abs_diff,
            "max_rel_diff": report.max_rel_diff,
        }
    _emit_json(summary)
    return 0


def _cmd_compare(args):
    dynamics = load_dynamics(args.dynamics)
    reward_a = table_from_dict(dynamics.states, dynamics.actions, load_json(args.reward_a))
    reward_b = table_from_dict(dynamics.states, dynamics.actions, load_json(args.reward_b))
    report = compare_policies(dynamics, reward_a, reward_b)
    _emit_json(report.as_dict())
    return 0


def _cmd_sweep(args):
    dynamics = load_dynamics(args.dynamics)
    hierarchy = hierarchy_from_dict(load_json(args.hierarchy), dynamics.states, dynamics.actions)
    rows = sweep_weights(dynamics, hierarchy, args.level, _floats(args.grid, "weight grid"))
    emit_csv(rows, ("weight", "divergence"), args.out)
    return 0


_COMMANDS = {
    "solve": _cmd_solve,
    "qlearn": _cmd_qlearn,
    "check-schedule": _cmd_check_schedule,
    "pg": _cmd_pg,
    "compare": _cmd_compare,
    "sweep": _cmd_sweep,
}


def _fail(code, exc):
    message = " ".join(str(exc).split())
    sys.stderr.write(f"error: {message}\n")
    return code


def run(argv):
    """Dispatch a command line; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code or 0
    if args.command is None:
        sys.stderr.write("error: a subcommand is required\n")
        return 1
    if args.seed < 0:
        return _fail(2, f"--seed must be >= 0, got {args.seed}")
    try:
        return _COMMANDS[args.command](args)
    except ValidationError as exc:
        return _fail(2, exc)
    except (ReducibleChainError, SingularSystemError) as exc:
        return _fail(5, exc)
    except OSError as exc:
        return _fail(2, exc)


def main():
    sys.exit(run(sys.argv[1:]))
