"""The benchmark workloads and the layer probe of traced runs.

Every input is derived from the workload seed; mdplab only sees the
generated worlds, documents and seeds.  Every op checks its outputs against
the package's own exact oracles (or the fixed values the README and the
acceptance suite state) and returns a digest of the bytes or float bits it
produced, so repeated passes must reproduce it exactly.
"""

import contextlib
import hashlib
import io
import json
import math
import subprocess
import sys
from dataclasses import dataclass

import numpy as np

import mdplab.cli
from mdplab import (
    LearningRateSchedule,
    QLearnConfig,
    RewardHierarchy,
    RewardLevel,
    compare_policies,
    convergence_report,
    differential_q,
    gradient_ascent,
    gradient_check,
    load_mdp,
    mdp_to_dict,
    policy_evaluate,
    policy_iteration,
    q_learning_run,
    random_mdp,
    softmax_policy,
    stationary_distribution,
    stay_go_mdp,
    sweep_weights,
    validate_mdp,
    value_iteration,
    verify_deterministic_optimality,
)

from harness import Op, Outcome

CHILD_TIMEOUT_S = 120


def _sha(data):
    return hashlib.sha256(data).hexdigest()


def _hex_digest(*arrays):
    """sha256 over the exact float bits (``float.hex``) of every value given."""
    parts = []
    for arr in arrays:
        parts.extend(float(x).hex() for x in np.ravel(np.asarray(arr, dtype=float)))
        parts.append("|")
    return _sha(",".join(parts).encode())


# ---------------------------------------------------------------- CLI commands

DATA = "demos/data"
CLI_COMMANDS = ("solve", "qlearn", "check-schedule", "pg", "compare", "sweep")
CLI_SIZES = {  # qlearn steps, qlearn checkpoint interval, pg iterations
    "full": (200_000, 10_000, 2000),
    "tiny": (20_000, 1_000, 200),
}


@dataclass
class CliInputs:
    root: str
    env: dict
    tmp: str
    qlearn_seed: int
    steps: int
    every: int
    iters: int
    v_star: np.ndarray  # exact optimum of the stay/go fixture, from policy_iteration


def cli_argv(inputs, command, out_path):
    """The README invocation of ``command``; only --seed and --out are ours."""
    if command == "solve":
        return ["solve", "--mdp", f"{DATA}/stay_go.json", "--epsilon", "1e-8"]
    if command == "qlearn":
        return [
            "--seed", str(inputs.qlearn_seed), "qlearn", "--mdp", f"{DATA}/stay_go.json",
            "--family", "harmonic", "--p", "1", "--epsilon", "0.2",
            "--steps", str(inputs.steps), "--checkpoint-every", str(inputs.every),
            "--out", out_path,
        ]
    if command == "check-schedule":
        return ["check-schedule", "--family", "harmonic", "--p", "2"]
    if command == "pg":
        return [
            "pg", "--mdp", f"{DATA}/stay_go.json", "--step-size", "0.1",
            "--iters", str(inputs.iters), "--check",
        ]
    if command == "compare":
        return [
            "compare", "--dynamics", f"{DATA}/stay_go_dynamics.json",
            "--reward-a", f"{DATA}/reward_home_s1.json",
            "--reward-b", f"{DATA}/reward_home_s0.json",
        ]
    return [
        "sweep", "--dynamics", f"{DATA}/stay_go_dynamics.json",
        "--hierarchy", f"{DATA}/hierarchy.json", "--level", "1", "--grid", "0,1,2,3,4",
    ]


def check_cli_output(inputs, command, code, stdout, csv):
    """Oracle checks on one CLI result; returns a list of failed checks."""
    want_code = 3 if command == "check-schedule" else 0
    if code != want_code:
        return [f"exit code {code}, expected {want_code}"]
    errors = []
    try:
        if command == "solve":
            doc = json.loads(stdout)
            v = np.array([doc["v_star"]["s0"], doc["v_star"]["s1"]])
            if np.abs(v - inputs.v_star).max() > 1e-7 or np.abs(v - [1.0, 2.0]).max() > 1e-7:
                errors.append(f"V* = {v.tolist()}, expected (1, 2)")
            if doc["pi_star"] != {"s0": "go", "s1": "stay"}:
                errors.append(f"pi* = {doc['pi_star']}")
        elif command == "qlearn":
            lines = csv.decode().splitlines()
            rows = [line.split(",") for line in lines[1:]]
            want_rows = inputs.steps // inputs.every
            if stdout or lines[0] != "step,supnorm_error,greedy_match":
                errors.append("unexpected stdout or CSV header")
            if len(rows) != want_rows:
                errors.append(f"{len(rows)} CSV rows, expected {want_rows}")
            if any(not math.isfinite(float(r[1])) for r in rows):
                errors.append("non-finite error in the CSV")
            if [int(r[0]) for r in rows] != [inputs.every * (k + 1) for k in range(len(rows))]:
                errors.append("CSV steps are not the checkpoint grid")
        elif command == "check-schedule":
            doc = json.loads(stdout)
            if doc != {"condition_i": "fail", "condition_ii": "pass", "rm_valid": False}:
                errors.append(f"verdict {doc}")
        elif command == "pg":
            doc = json.loads(stdout)
            rel = doc["gradient_check"]["max_rel_diff"]
            if not rel < 1e-5:
                errors.append(f"gradient check max_rel_diff {rel}")
            if abs(sum(doc["mu"].values()) - 1.0) > 1e-9:
                errors.append("mu does not sum to 1")
        elif command == "compare":
            doc = json.loads(stdout)
            if doc["divergence"] != 1.0:
                errors.append(f"divergence {doc['divergence']}, expected 1.0")
        else:
            rows = [line.split(",") for line in stdout.decode().splitlines()[1:]]
            got = [(float(w), float(d)) for w, d in rows]
            if got != [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (3.0, 1.0), (4.0, 1.0)]:
                errors.append(f"sweep rows {got}")
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        errors.append(f"unparsable output: {type(exc).__name__}: {exc}")
    return errors


def run_child(argv, env, cwd):
    """Run one child process to completion; returns (exit code, stdout bytes)."""
    proc = subprocess.run(
        argv, cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        timeout=CHILD_TIMEOUT_S,
    )
    return proc.returncode, proc.stdout


def _cli_subprocess_op(inputs, command):
    out_path = f"{inputs.tmp}/sub-{command}.csv"
    argv = [sys.executable, "-m", "mdplab", *cli_argv(inputs, command, out_path)]

    def run(tr):
        with tr.span(f"cli.{command}"):
            code, stdout = run_child(argv, inputs.env, inputs.root)
        return _cli_outcome(inputs, command, code, stdout, out_path)

    return Op(f"cli/{command}", run)


def _cli_inprocess_op(inputs, command):
    out_path = f"{inputs.tmp}/run-{command}.csv"
    argv = cli_argv(inputs, command, out_path)

    def run(tr):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.chdir(inputs.root):
            with tr.span(f"cli.run.{command}"):
                code = mdplab.cli.run(argv)
        return _cli_outcome(inputs, command, code, buf.getvalue().encode(), out_path)

    # Same label as the subprocess op: the in-process bytes must match the child's.
    return Op(f"cli/{command}", run)


def _cli_outcome(inputs, command, code, stdout, out_path):
    csv = b""
    if command == "qlearn" and code == 0:
        with open(out_path, "rb") as fh:
            csv = fh.read()
    errors = check_cli_output(inputs, command, code, stdout, csv)
    return Outcome(f"{_sha(stdout)}:{_sha(csv)}", errors)


def cli_inputs(ctx, tr):
    """Inputs of the README commands; the expected V* comes from policy_iteration."""
    steps, every, iters = CLI_SIZES[ctx.size]
    mdp = load_mdp(f"{ctx.root}/{DATA}/stay_go.json")
    with tr.span("solve.policy_iteration"):
        oracle = policy_iteration(mdp)
    return CliInputs(
        root=ctx.root, env=ctx.child_env, tmp=ctx.tmp,
        qlearn_seed=int(np.random.default_rng(ctx.seed).integers(1, 2**31)),
        steps=steps, every=every, iters=iters, v_star=oracle.v_star.values,
    )


def cli_ops(inputs):
    """The six README commands, each as a child process and in-process."""
    child = [_cli_subprocess_op(inputs, c) for c in CLI_COMMANDS]
    return child, [_cli_inprocess_op(inputs, c) for c in CLI_COMMANDS]


def import_ops(ctx):
    """Start-up controls and target: bare interpreter, numpy, and mdplab."""
    ops = []
    for name, code in (("python", "pass"), ("numpy", "import numpy"), ("mdplab", "import mdplab")):
        argv = [sys.executable, "-c", code]

        def run(tr, name=name, argv=argv):
            with tr.span(f"import.{name}"):
                status, _ = run_child(argv, ctx.child_env, ctx.root)
            return Outcome("", [] if status == 0 else [f"exit code {status}"])

        ops.append(Op(f"import/{name}", run))
    return ops


# ---------------------------------------------------------------- qlearn_seeds

QLEARN_SIZES = {  # stay/go seeds, random 50x5 seeds, random 50x5 steps and checkpoint interval
    "full": (2, 1, 200_000, 10_000),
    "tiny": (1, 1, 40_000, 2_000),
}
STAY_GO_STEPS = 200_000  # the acceptance qlearn_finals configuration
STAY_GO_EVERY = 10_000
CONVERGED_ERR = 0.01
CONVERGED_MIN_RATIO = 0.9  # acceptance 4a: at least 18 of 20 harmonic runs below 0.01


@dataclass
class QRun:
    world: str
    mdp: object
    oracle: object
    config: object


class QlearnSeeds:
    name = "qlearn_seeds"
    tail_pct = 90  # inside the random 50x5 runs, the slowest third of the samples

    def setup(self, ctx, tr):
        n_stay_go, n_random, random_steps, random_every = QLEARN_SIZES[ctx.size]
        gen = np.random.default_rng(ctx.seed)
        stay_go = stay_go_mdp(0.5)
        with tr.span("worlds.random_mdp"):
            random50 = random_mdp(50, 5, 0.9, gen)
        oracles = {}
        for world, mdp in (("stay_go", stay_go), ("random50", random50)):
            with tr.span("solve.policy_iteration"):
                oracles[world] = policy_iteration(mdp)
        runs = []
        schedules = (LearningRateSchedule.harmonic(1.0), LearningRateSchedule.constant(0.5))
        plan = (("stay_go", stay_go, n_stay_go, STAY_GO_STEPS, STAY_GO_EVERY),
                ("random50", random50, n_random, random_steps, random_every))
        for world, mdp, n_seeds, steps, every in plan:
            for seed in gen.integers(1, 2**31, size=n_seeds):
                for schedule in schedules:
                    config = QLearnConfig(
                        schedule=schedule, steps=steps, seed=int(seed), epsilon=0.2,
                        checkpoint_every=every, start="uniform",
                    )
                    runs.append(QRun(world, mdp, oracles[world], config))
        return runs

    def ops(self, runs):
        return [_qlearn_op(run) for run in runs]

    def probe_ops(self, runs):
        first = {}
        for run in runs:
            if run.config.schedule.family == "harmonic":
                first.setdefault(run.world, run)
        return [_qlearn_op(run) for run in first.values()]

    def run_checks(self, outcomes):
        runs = [o for o in outcomes if "converged" in o.facts]
        good = sum(o.facts["converged"] for o in runs)
        if runs and good < CONVERGED_MIN_RATIO * len(runs):
            return [f"only {good}/{len(runs)} harmonic stay/go runs below {CONVERGED_ERR}"]
        return []


def _qlearn_op(run):
    cfg = run.config
    label = f"{run.world}/{cfg.schedule.family}/seed{cfg.seed}"

    def op(tr):
        with tr.span("qlearn.q_learning_run"):
            trace = q_learning_run(run.mdp, cfg, run.oracle)
        with tr.span("qlearn.convergence_report"):
            summary = convergence_report(trace)
        errs = [cp.supnorm_error for cp in trace.checkpoints]
        tr.add("qlearn.q_learning_run.steps", cfg.steps)
        tr.add(f"qlearn.q_learning_run.{run.world}.steps", cfg.steps)
        tr.add("qlearn.q_learning_run.checkpoints", len(errs))
        errors = []
        if len(errs) != cfg.steps // cfg.checkpoint_every:
            errors.append(f"{len(errs)} checkpoints")
        if not all(math.isfinite(e) for e in errs):
            errors.append("non-finite checkpoint error")
        facts = {}
        if run.world == "stay_go" and cfg.schedule.family == "harmonic":
            converged = summary.final_err < CONVERGED_ERR and summary.greedy_policy_matched
            facts["converged"] = converged
            tr.add("qlearn.harmonic_runs")
            tr.add("qlearn.harmonic_converged", int(converged))
        digest = _sha("\n".join(float(e).hex() for e in errs).encode())
        return Outcome(digest, errors, facts)

    return Op(label, op)


# ---------------------------------------------------------------- oracle_suite

GAMMAS = (0.5, 0.9, 0.95)
SMALL_STATES = (2, 3, 4, 5, 6, 8, 10, 12, 14, 16, 18, 20)
LARGE_STATES, LARGE_ACTIONS, LARGE_GAMMA = 100, 4, 0.95
ORACLE_SIZES = {"full": (36, 4), "tiny": (6, 1)}  # small items, large items per pass
TRIALS = 200  # random stochastic policies per dominance check, as in acceptance
SWEEP_GRID = (0.0, 0.5, 1.0, 2.0, 4.0)
ASCENT_ITERS = 10
ASCENT_STEP = 0.1


@dataclass
class Item:
    label: str
    mdp: object
    small: bool
    table: np.ndarray  # reward table compared against its positive affine image
    hierarchy: object
    theta: np.ndarray
    verify_seed: int


class OracleSuite:
    name = "oracle_suite"
    tail_pct = 95  # inside the four large items, the slowest tenth of the samples

    def setup(self, ctx, tr):
        n_small, n_large = ORACLE_SIZES[ctx.size]
        shapes = [
            (SMALL_STATES[i % len(SMALL_STATES)], 2 + (i + i // len(SMALL_STATES)) % 4,
             GAMMAS[(i // len(SMALL_STATES)) % 3], True)
            for i in range(n_small)
        ]
        shapes += [(LARGE_STATES, LARGE_ACTIONS, LARGE_GAMMA, False)] * n_large
        items = []
        for i, (n_s, n_a, gamma, small) in enumerate(shapes):
            gen = np.random.default_rng([ctx.seed, i])
            with tr.span("worlds.random_mdp"):
                mdp = random_mdp(n_s, n_a, gamma, gen)
            levels = tuple(
                RewardLevel(name, gen.uniform(-1.0, 1.0, size=(n_s, n_a)), weight)
                for name, weight in (("individual", 1.0), ("group", 0.0), ("humanity", 0.5))
            )
            items.append(Item(
                label=f"{'small' if small else 'large'}{i}/S{n_s}A{n_a}g{gamma}",
                mdp=mdp,
                small=small,
                table=gen.uniform(-1.0, 1.0, size=(n_s, n_a)),
                hierarchy=RewardHierarchy(levels),
                theta=gen.normal(0.0, 0.5, size=(n_s, n_a)),
                verify_seed=int(gen.integers(2**31)),
            ))
        return items

    def ops(self, items):
        return [Op(item.label, lambda tr, item=item: oracle_item(item, tr)) for item in items]

    def probe_ops(self, items):
        small = max((i for i in items if i.small), key=lambda i: i.mdp.n_states)
        large = next(i for i in items if not i.small)
        return self.ops([small, large])

    def run_checks(self, outcomes):
        return []


def oracle_item(item, tr):
    """One study item: document round-trip, solvers, dominance, rewards, gradients."""
    errors = []
    n_s, n_a = item.mdp.n_states, item.mdp.n_actions
    with tr.span("mdp.mdp_to_dict"):
        doc = mdp_to_dict(item.mdp)
    text = json.dumps(doc)
    parsed = json.loads(text)
    with tr.span("mdp.validate_mdp"):
        mdp = validate_mdp(parsed)
    tr.add("mdp.validate_mdp.kib", len(text) / 1024.0)
    if not (np.array_equal(mdp.transitions, item.mdp.transitions)
            and np.array_equal(mdp.rewards, item.mdp.rewards) and mdp.gamma == item.mdp.gamma):
        errors.append("document round-trip changed the MDP")

    with tr.span("solve.value_iteration"):
        vi = value_iteration(mdp, 1e-8)
    tr.add("solve.value_iteration.sweeps", vi.iterations)
    tr.add("solve.value_iteration.gbytes_computed", 8.0 * n_s * n_s * n_a * vi.iterations / 1e9)
    with tr.span("solve.policy_iteration"):
        pi = policy_iteration(mdp)
    tr.add("solve.policy_iteration.iterations", pi.iterations)
    v_star = pi.v_star.values
    if not np.abs(vi.v_star.values - v_star).max() < 1e-6:
        errors.append("value and policy iteration disagree by 1e-6 or more")
    with tr.span("mdp.policy_evaluate"):
        evaluated = policy_evaluate(mdp, pi.pi_star).values
    if not np.abs(evaluated - v_star).max() < 1e-7:
        errors.append("the PI policy does not evaluate to V* within 1e-7")
    with tr.span("solve.verify_deterministic_optimality"):
        report = verify_deterministic_optimality(
            mdp, TRIALS, np.random.default_rng(item.verify_seed)
        )
    tr.add("solve.verify_deterministic_optimality.trials", report.trials)
    if not (report.passed and report.deterministic):
        errors.append(f"a stochastic policy beats V* by {report.max_excess}")

    with tr.span("rewards.compare_policies"):
        divergence = compare_policies(mdp, item.table, 2.0 * item.table + 5.0).divergence
    if divergence != 0.0:
        errors.append(f"positive affine reward map diverges by {divergence}")
    with tr.span("rewards.sweep_weights"):
        rows = sweep_weights(mdp, item.hierarchy, 1, SWEEP_GRID)
    tr.add("rewards.sweep_weights.grid_points", len(rows))
    sweep = np.array([d for _, d in rows])
    if [w for w, _ in rows] != list(SWEEP_GRID) or sweep[0] != 0.0:
        errors.append("sweep at the baseline weight must have divergence 0")
    if not np.allclose(sweep * n_s, np.round(sweep * n_s), rtol=0.0, atol=1e-12):
        errors.append("sweep divergences are not fractions of the states")

    parts = [vi.v_star.values, v_star, pi.pi_star.actions, sweep]
    if item.small:
        errors += _gradient_checks(mdp, item.theta, tr, parts)
    return Outcome(_hex_digest(*parts), errors)


def _gradient_checks(mdp, theta, tr, parts):
    errors = []
    n_s, n_a = theta.shape
    with tr.span("gradient.gradient_check"):
        report = gradient_check(mdp, theta)
    tr.add("gradient.gradient_check.j_evals", 2 * n_s * n_a)
    # Relative 1e-5, plus 1e-10 absolute: central differences of J carry about
    # 1e-11 of roundoff, which is 1e-5 of a gradient entry near 1e-6.
    fd_diff = np.abs(report.analytic - report.numeric)
    if not np.all(fd_diff <= 1e-5 * np.abs(report.numeric) + 1e-10):
        errors.append(
            f"gradient check max_rel_diff {report.max_rel_diff}, max_abs_diff {report.max_abs_diff}"
        )

    policy = softmax_policy(theta)
    probs = policy.probs
    with tr.span("gradient.stationary_distribution"):
        mu = stationary_distribution(mdp, policy)
    p_pi = np.einsum("sa,saz->sz", probs, mdp.transitions)
    r_pi = (probs * mdp.rewards).sum(axis=1)
    if not (np.abs(mu - mu @ p_pi).sum() < 1e-9 and abs(mu.sum() - 1.0) < 1e-12):
        errors.append("stationary residual |mu (I - P_pi)|_1 is 1e-9 or more")
    with tr.span("gradient.differential_q"):
        q, j = differential_q(mdp, policy, mu)
    v = (probs * q.values).sum(axis=1)
    if not (np.abs(v - (r_pi - j + p_pi @ v)).max() < 1e-8 and abs(mu @ v) < 1e-9):
        errors.append("differential values do not solve the Poisson system")
    with tr.span("gradient.gradient_ascent"):
        _, js = gradient_ascent(mdp, theta, ASCENT_STEP, ASCENT_ITERS)
    tr.add("gradient.gradient_ascent.iters", ASCENT_ITERS)
    if not (np.all(np.isfinite(js)) and js[-1] >= js[0]):
        errors.append("gradient ascent lowered J")
    parts += [report.analytic, mu, q.values, js]
    return errors


WORKLOADS = {w.name: w for w in (QlearnSeeds(), OracleSuite())}

# Span name -> statistics reported for it (see harness.layer_metrics).
LAYER_SPANS = {
    "import.python": ("median_ms",),
    "import.numpy": ("median_ms",),
    "import.mdplab": ("median_ms",),
    **{f"cli.run.{c}": ("median_ms",) for c in CLI_COMMANDS},
    **{f"cli.{c}": ("median_ms",) for c in CLI_COMMANDS},
    "mdp.mdp_to_dict": ("self_s",),
    "mdp.validate_mdp": ("calls", "self_s"),
    "mdp.policy_evaluate": ("calls", "self_s", "p50_us"),
    "solve.value_iteration": ("calls", "self_s", "p50_us"),
    "solve.policy_iteration": ("calls", "self_s"),
    "solve.verify_deterministic_optimality": ("calls", "self_s"),
    "qlearn.q_learning_run": ("calls", "self_s"),
    "qlearn.convergence_report": ("calls", "self_s"),
    "gradient.gradient_check": ("calls", "self_s", "p50_us"),
    "gradient.stationary_distribution": ("calls", "self_s", "p50_us"),
    "gradient.differential_q": ("calls", "self_s", "p50_us"),
    "gradient.gradient_ascent": ("calls", "self_s"),
    "rewards.compare_policies": ("calls", "self_s"),
    "rewards.sweep_weights": ("calls", "self_s"),
    "worlds.random_mdp": ("self_s",),
}
COUNTERS = (
    "solve.value_iteration.sweeps",
    "solve.value_iteration.gbytes_computed",
    "solve.policy_iteration.iterations",
    "solve.verify_deterministic_optimality.trials",
    "qlearn.q_learning_run.steps",
    "qlearn.q_learning_run.checkpoints",
    "gradient.gradient_check.j_evals",
    "gradient.gradient_ascent.iters",
    "rewards.sweep_weights.grid_points",
)

