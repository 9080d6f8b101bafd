#!/usr/bin/env python3
"""Learning the optimal action values from raw interaction.

Q-learning converges to the exact action values when, per (state, action)
pair, the learning rates sum to infinity but their squares do not.  The
classifier below decides those two conditions for whole schedule families;
the experiment then watches the sup-norm error against the exact solution
shrink along a seeded run.
"""

from pathlib import Path

from mdplab import (
    LearningRateSchedule,
    QLearnConfig,
    classify_schedule,
    convergence_report,
    load_mdp,
    policy_iteration,
    q_learning_run,
)

world = load_mdp(Path(__file__).parent / "data" / "stay_go.json")
oracle = policy_iteration(world)
print("exact action values:", oracle.q_star.as_dict(world))

# Which step-size rules are even eligible to converge?
print("\nschedule classification (divergent sum / finite square sum):")
for label, schedule in [
    ("1/n      ", LearningRateSchedule.harmonic(1.0)),
    ("1/n^0.75 ", LearningRateSchedule.harmonic(0.75)),
    ("1/n^2    ", LearningRateSchedule.harmonic(2.0)),
    ("const 0.5", LearningRateSchedule.constant(0.5)),
]:
    verdict = classify_schedule(schedule)
    print(f"  {label} -> sum: {verdict.condition_i:7s} sum of squares: "
          f"{verdict.condition_ii:7s} valid: {verdict.rm_valid}")

# One seeded run: epsilon-greedy behavior, per-pair visit counts indexing the
# learning rate, acting state redrawn uniformly each step so every pair keeps
# getting visited.
config = QLearnConfig(
    schedule=LearningRateSchedule.harmonic(1.0),
    steps=200_000,
    seed=1,
    epsilon=0.2,
    checkpoint_every=20_000,
)
trace = q_learning_run(world, config, oracle)
print("\nsup-norm error along the run (schedule 1/n):")
first_err = trace.checkpoints[0].supnorm_error
for cp in trace.checkpoints:
    bar = "#" * max(1, int(40 * cp.supnorm_error / first_err))
    print(f"  step {cp.step:>7,}  error {cp.supnorm_error:8.5f}  {bar}")

summary = convergence_report(trace)
print("\nearly-decile median error:", f"{summary.first_decile_median_err:.4f}")
print("late-decile median error: ", f"{summary.last_decile_median_err:.4f}")
print("final error:              ", f"{summary.final_err:.4f}")
print("greedy actions all optimal:", summary.greedy_policy_matched)
print("visit counts:", trace.visits.tolist())
