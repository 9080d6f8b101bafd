"""mdplab benchmark: closed-loop workloads checked against exact oracles.

    python3 perfbench/run.py --workload oracle_suite --seed 1 --seconds 50 --trace 0

Run from the root of a source tree (``src/mdplab`` and ``demos/data`` must be
there).  ``--trace 0`` measures the end-to-end metrics untraced for about
``--seconds`` seconds; ``--trace 1`` runs a fixed number of passes untraced
and then traced, adds the layer probe, and prints the per-layer metrics.
The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (each ``{"value", "unit"}``).  Spans, digests and
the environment go to ``.perfbench_out/``.  Exit code 0 when every check
holds, 1 when any op failed, 2 when the tree or the arguments are unusable.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_CHILD = "import sys; sys.path[:0] = sys.argv[1:3]; import run; run.child_setup(*sys.argv[3:])"

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

UNITS = {
    "_ms": "ms", ".calls": "count", ".self_s": "s", ".p50_us": "us",
    ".gbytes_computed": "GB", ".us_per_kib": "us/KiB", ".us_per_step": "us",
    ".ms_per_point": "ms", "_per_s": "1/s", "_ratio": "ratio", ".unattributed_s": "s",
}
TRACE_PASSES = 2  # fixed, so the counters of a traced run repeat exactly for a seed
PROBE_REPEATS = 3


def unit_of(name):
    for suffix, unit in UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


@dataclass
class Context:
    root: str
    seed: int
    size: str
    tmp: str
    child_env: dict


def environment():
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }


def peak_rss_mb():
    # Linux reports ru_maxrss in KiB.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def child_setup(name, seed, size, root, tmp):
    import harness
    import workloads

    ctx = Context(root, int(seed), size, tmp, dict(os.environ))
    workloads.WORKLOADS[name].setup(ctx, harness.NullTracer())


def setup_sampler(name, ctx):
    """A callable timing one set-up in a fresh interpreter, and the list of its times.

    One set-up is what starting the study costs: interpreter, imports,
    worlds, oracle solves and inputs.  The run samples it between passes, so
    the median covers the whole run rather than one moment of it.  Each time
    is normalized by calibration loops timed just before and after it.
    """
    import harness

    argv = [sys.executable, "-c", SETUP_CHILD, str(HERE), str(Path(ctx.root) / "src"),
            name, str(ctx.seed), ctx.size, ctx.root, ctx.tmp]
    times = []

    def sample():
        cal = [harness.calibrate() for _ in range(harness.CAL_AROUND_SETUP)]
        start = time.perf_counter()
        subprocess.run(argv, env=ctx.child_env, stdout=subprocess.DEVNULL, check=True, timeout=120)
        seconds = time.perf_counter() - start
        cal += [harness.calibrate() for _ in range(harness.CAL_AROUND_SETUP)]
        times.append(harness.normalized(seconds, cal))

    return sample, times


def setup_in_process(setup, ctx, tracer, op_id):
    tracer.op = op_id
    with tracer.span("setup"):
        inputs = setup(ctx, tracer)
    tracer.op = None
    return inputs


def normalized_ms(log, ops):
    """Latencies in ms at the reference speed: per op, and per sample.

    On a shared virtual machine a CPU runs 1.7x slower in spells of about
    0.5 to 3 seconds, and the share of time spent in them drifts from one
    minute to the next.  The calibration loop sees the same spells, so a
    latency divided by the loop times taken just before and after it keeps
    the op's cost and drops the machine's state.  Per op, the mean latency
    over the run's passes is divided by the mean of all its loop times.
    """
    import harness

    by_label, per_sample = {}, []
    for k, (seconds, around) in enumerate(zip(log.latencies, log.cal_around)):
        per_sample.append(harness.normalized(seconds, around) * 1e3)
        latencies, loop_times = by_label.setdefault(ops[k % len(ops)].label, ([], []))
        latencies.append(seconds)
        loop_times.extend(around)
    per_op = {
        label: harness.normalized(statistics.fmean(latencies), loop_times) * 1e3
        for label, (latencies, loop_times) in by_label.items()
    }
    return per_op, per_sample


def end_to_end(workload, per_op, per_sample, setup_s):
    import harness

    return {
        "setup_s": setup_s,
        "wall_s": sum(per_op.values()) / 1e3,
        "op_p50_ms": harness.percentile(per_sample, 50),
        "op_tail_ms": harness.percentile(per_sample, workload.tail_pct),
        "peak_rss_mb": peak_rss_mb(),
    }


def per_layer(tracer, untraced_wall, traced_wall):
    import harness

    import workloads

    spans, counts = tracer.spans, tracer.counts
    out = harness.layer_metrics(tracer, workloads.LAYER_SPANS)
    for key in workloads.COUNTERS:
        out[key] = counts.get(key, 0)

    def ratio(num, den, scale=1.0):
        return num * scale / den if den else 0.0

    out["mdp.validate_mdp.us_per_kib"] = ratio(
        out["mdp.validate_mdp.self_s"], counts.get("mdp.validate_mdp.kib", 0), 1e6
    )
    q_runs = [s for s in spans if s.name == "qlearn.q_learning_run"]
    for world in ("stay_go", "random50"):
        busy = sum(s.end - s.start for s in q_runs if f":{world}/" in s.op)
        steps = counts.get(f"qlearn.q_learning_run.{world}.steps", 0)
        out[f"qlearn.q_learning_run.{world}.us_per_step"] = ratio(busy, steps, 1e6)
    out["qlearn_steps_per_s"] = ratio(
        counts.get("qlearn.q_learning_run.steps", 0), sum(s.end - s.start for s in q_runs)
    )
    out["qlearn.converged_ratio"] = ratio(
        counts.get("qlearn.harmonic_converged", 0), counts.get("qlearn.harmonic_runs", 0)
    )
    out["rewards.sweep_weights.ms_per_point"] = ratio(
        out["rewards.sweep_weights.self_s"], out["rewards.sweep_weights.grid_points"], 1e3
    )
    walls = harness.op_walls(tracer)
    out["trace.overhead_ratio"] = traced_wall / untraced_wall - 1.0
    out["trace.unattributed_s"] = sum(
        own for s, own in zip(spans, tracer.self_times()) if s.name == "op"
    )
    return out, walls


def run_workload(name, seed, seconds, trace, size="full"):
    """Run one workload; returns the result dict (plus a ``detail`` entry)."""
    import harness
    import workloads

    workload = workloads.WORKLOADS[name]
    tmp_parent = ROOT / ".perfbench_tmp"
    tmp_parent.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(dir=tmp_parent)
    try:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
        )
        ctx = Context(str(ROOT), seed, size, tmp, env)
        tracer = harness.Tracer(name) if trace else harness.NullTracer()
        inputs = setup_in_process(workload.setup, ctx, tracer, f"setup:{name}")
        ops = workload.ops(inputs)
        runner = harness.Runner()
        # One untimed op outside the measurement lets caches fill first.
        runner.run_op(ops[0], harness.NullTracer(), harness.PhaseLog(), "warmup")
        detail = {"environment": environment(), "seed": seed, "size": size}
        if not trace:
            sample_setup, setup_times = setup_sampler(name, ctx)
            sample_setup()
            log = runner.run_passes(
                ops, tracer, seconds=seconds, between=sample_setup, calibrated=True
            )
            per_op, per_sample = normalized_ms(log, ops)
            metrics = end_to_end(workload, per_op, per_sample, statistics.median(setup_times))
            logs = [log]
            lat_ms = [x * 1e3 for x in log.latencies]
            detail["samples"] = {
                "ops": len(lat_ms), "passes": len(log.pass_walls), "tail_pct": workload.tail_pct,
                "raw_p50_ms": harness.percentile(lat_ms, 50),
                "raw_ops_per_s": log.attempted / log.wall,
                "cal_mean_ms": statistics.fmean(c for pair in log.cal_around for c in pair) * 1e3,
                "setup_runs": len(setup_times),
            }
            detail["op_normalized_ms"] = per_op
            detail["latencies_ms"] = lat_ms
            detail["cal_around_ms"] = [[c * 1e3 for c in pair] for pair in log.cal_around]
            detail["setup_s"] = setup_times
        else:
            passes = TRACE_PASSES if size == "full" else 1
            plain = runner.run_passes(ops, harness.NullTracer(), passes=passes, prefix="u")
            traced = runner.run_passes(ops, tracer, passes=passes, prefix="t")
            probe = harness.PhaseLog()
            for k, op in enumerate(probe_ops(name, ctx, inputs, tracer)):
                runner.run_op(op, tracer, probe, f"probe{k}:{op.label}")
            tracer.op = None
            metrics, walls = per_layer(tracer, plain.wall, traced.wall)
            logs = [plain, traced, probe]
            detail["spans"] = [list(s) for s in tracer.spans]
            detail["op_walls"] = walls
        failures = [f for log in logs for f in log.failures]
        outcomes = list(logs[0].outcomes.values())
        failures += [("run", e) for e in workload.run_checks(outcomes)]
        detail["digests"] = {label: o.digest for label, o in logs[0].outcomes.items()}
        detail["failures"] = failures
        return {
            "correct": not failures,
            "attempted": sum(log.attempted for log in logs),
            "failed": len(failures),
            "metrics": metrics,
            "detail": detail,
        }
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp_parent.rmdir()
        except OSError:
            pass


def probe_ops(name, ctx, inputs, tracer):
    """Fixed calls into every layer, so each traced run reads every layer metric.

    Interpreter and import start-up, the six README commands as child
    processes and in-process, and one representative op of each workload.
    """
    import workloads

    per_workload = {name: inputs}
    for other, workload in workloads.WORKLOADS.items():
        if other not in per_workload:
            per_workload[other] = setup_in_process(workload.setup, ctx, tracer, f"setup:{other}")
    cli = setup_in_process(workloads.cli_inputs, ctx, tracer, "setup:cli")
    child, in_process = workloads.cli_ops(cli)
    # Start-up is noisy: the child-process timings are medians of three.
    ops = (workloads.import_ops(ctx) + child) * PROBE_REPEATS + in_process
    for other, workload in workloads.WORKLOADS.items():
        ops += workload.probe_ops(per_workload[other])
    return ops


def pin_to_one_cpu():
    """Keep this process and the children it starts on one CPU.

    The slow spells of a shared machine come and go on each CPU on its own,
    so the calibration loop only speaks for an op or a set-up that ran on
    the same CPU.
    """
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("qlearn_seeds", "oracle_suite"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1 or args.seed < 0:
        parser.error("--seconds must be >= 1 and --seed >= 0")

    src = ROOT / "src"
    if not (src / "mdplab" / "__init__.py").is_file() or not (ROOT / "demos" / "data").is_dir():
        sys.stderr.write(f"error: no mdplab source tree (src/mdplab, demos/data) under {ROOT}\n")
        return 2
    sys.path.insert(0, str(src))
    import mdplab

    if Path(mdplab.__file__).resolve().parent != src / "mdplab":
        sys.stderr.write(f"error: imported mdplab from {mdplab.__file__}, not {src}\n")
        return 2

    pin_to_one_cpu()
    result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    detail = result.pop("detail")
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps({**result, **detail}, indent=1, default=str) + "\n")
    for label, message in detail["failures"][:20]:
        sys.stderr.write(f"FAILED {label}: {message}\n")
    if "samples" in detail:
        print(f"samples: {json.dumps(detail['samples'])}")
    result["metrics"] = {
        k: {"value": v, "unit": END_TO_END.get(k) or unit_of(k)}
        for k, v in result["metrics"].items()
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
