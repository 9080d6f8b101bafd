"""Acceptance suite: one test per exit criterion, at its stated tolerance.

Run `pytest tests/test_acceptance.py -v -s` for one printed line per
criterion.  Everything is seeded; the whole module runs in well under two
minutes on a laptop.
"""

import json
import subprocess
import sys

import numpy as np
import pytest

from mdplab import (
    LearningRateSchedule,
    QLearnConfig,
    classify_schedule,
    compare_policies,
    convergence_report,
    egoism_vs_humanity,
    gradient_ascent,
    gradient_check,
    make_mdp,
    mdp_to_dict,
    opposed_reward_pair,
    policy_evaluate,
    policy_iteration,
    q_learning_run,
    random_mdp,
    softmax_policy,
    stay_go_dynamics,
    stay_go_mdp,
    sweep_weights,
    value_iteration,
    verify_deterministic_optimality,
)

GAMMAS = (0.5, 0.9, 0.95)


def _passed(label):
    print(f"\nACCEPTANCE {label}: PASS")


@pytest.fixture(scope="module")
def mdp_suite():
    """100 seeded random MDPs with |S| <= 20, |A| <= 5, gamma in {.5, .9, .95}."""
    suite = []
    for i in range(100):
        gen = np.random.default_rng(1000 + i)
        n_s = int(gen.integers(2, 21))
        n_a = int(gen.integers(2, 6))
        suite.append(random_mdp(n_s, n_a, GAMMAS[i % 3], gen))
    return suite


@pytest.fixture(scope="module")
def qlearn_finals(stay_go_acceptance):
    """Final sup-norm errors over seeds 1..20 for both acceptance schedules."""
    mdp, oracle = stay_go_acceptance
    finals = {"harmonic": [], "constant": []}
    matched = []
    for seed in range(1, 21):
        for name, schedule in (
            ("harmonic", LearningRateSchedule.harmonic(1.0)),
            ("constant", LearningRateSchedule.constant(0.5)),
        ):
            config = QLearnConfig(
                schedule=schedule,
                steps=200_000,
                seed=seed,
                epsilon=0.2,
                checkpoint_every=10_000,
                start="uniform",
            )
            summary = convergence_report(q_learning_run(mdp, config, oracle))
            finals[name].append(summary.final_err)
            if name == "harmonic":
                matched.append(summary.greedy_policy_matched)
    return finals, matched


@pytest.fixture(scope="module")
def stay_go_acceptance():
    mdp = stay_go_mdp()
    return mdp, policy_iteration(mdp)


def test_criterion_1_deterministic_optimum_dominates(mdp_suite):
    for i, mdp in enumerate(mdp_suite):
        solution = policy_iteration(mdp)
        assert solution.pi_star.kind == "deterministic"
        evaluated = policy_evaluate(mdp, solution.pi_star).values
        assert np.abs(evaluated - solution.v_star.values).max() < 1e-7
        report = verify_deterministic_optimality(
            mdp, 200, np.random.default_rng(5000 + i), slack=1e-7
        )
        assert report.passed, f"mdp {i}: {report.violations[:3]}"
    _passed("1 (optimal deterministic stationary policy, 100 random MDPs)")


def test_criterion_2_bellman_machinery(mdp_suite):
    for i, mdp in enumerate(mdp_suite):
        gen = np.random.default_rng(7000 + i)
        scale = mdp.reward_bound / (1.0 - mdp.gamma)
        v = gen.uniform(-scale, scale, size=(100, mdp.n_states))
        w = gen.uniform(-scale, scale, size=(100, mdp.n_states))
        tv = (mdp.rewards + mdp.gamma * np.einsum("saz,nz->nsa", mdp.transitions, v)).max(2)
        tw = (mdp.rewards + mdp.gamma * np.einsum("saz,nz->nsa", mdp.transitions, w)).max(2)
        lhs = np.abs(tv - tw).max(axis=1)
        rhs = mdp.gamma * np.abs(v - w).max(axis=1)
        assert (lhs <= rhs + 1e-12).all()

        pi = policy_iteration(mdp)
        assert np.abs(pi.v_star.values - pi.q_star.values.max(axis=1)).max() < 1e-9
        vi = value_iteration(mdp, 1e-8)
        assert np.abs(vi.v_star.values - pi.v_star.values).max() < 1e-6
    _passed("2 (contraction, consistency, solver agreement)")


def test_criterion_3_schedule_conditions():
    verdicts = {
        p: classify_schedule(LearningRateSchedule.harmonic(p)).rm_valid
        for p in (0.4, 0.5, 0.6, 0.75, 1.0, 1.5, 2.0)
    }
    assert verdicts == {
        0.4: False, 0.5: False, 0.6: True, 0.75: True, 1.0: True,
        1.5: False, 2.0: False,
    }
    for c in (0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99):
        verdict = classify_schedule(LearningRateSchedule.constant(c))
        assert verdict.condition_ii == "fail"
        assert verdict.rm_valid is False
    _passed("3 (divergent-sum / finite-square-sum classification)")


def test_criterion_4a_harmonic_schedule_converges(qlearn_finals):
    finals, matched = qlearn_finals
    errors = np.array(finals["harmonic"])
    n_below = int((errors < 0.01).sum())
    assert n_below >= 18, f"only {n_below}/20 runs below 0.01: {errors}"
    passing_matched = [m for e, m in zip(errors, matched) if e < 0.01]
    assert all(passing_matched)
    _passed(
        "4a (Q-learning 1/n convergence: "
        f"{n_below}/20 below 0.01, median {np.median(errors):.2e})"
    )


@pytest.mark.xfail(
    strict=True,
    reason=(
        "unattainable on this fixture: its transitions and rewards are "
        "deterministic, so Q-learning targets carry no sampling noise and the "
        "constant-rate run is an exact asynchronous contraction that reaches "
        "the fixed point to machine precision (~4e-16), several orders below "
        "the 1/n run (~4e-3) instead of 5x above it; the required direction "
        "presupposes stochastic transitions"
    ),
)
def test_criterion_4b_constant_schedule_contrast(qlearn_finals):
    finals, _ = qlearn_finals
    median_harmonic = float(np.median(finals["harmonic"]))
    median_constant = float(np.median(finals["constant"]))
    print(
        f"\nmedians: harmonic {median_harmonic:.3e}, constant {median_constant:.3e}, "
        f"ratio {median_constant / median_harmonic:.3e}"
    )
    assert median_constant >= 5.0 * median_harmonic
    _passed("4b (constant schedule 5x worse)")


def test_criterion_5_gradient_identity(rng):
    gen = np.random.default_rng(42)
    for _ in range(20):
        n_s = int(gen.integers(2, 11))
        n_a = int(gen.integers(2, 5))
        mdp = random_mdp(n_s, n_a, 0.9, gen)
        theta = gen.normal(0.0, 0.5, size=(n_s, n_a))
        report = gradient_check(mdp, theta)
        assert report.max_rel_diff < 1e-5, report.max_rel_diff

        probs = softmax_policy(theta).probs
        for s in range(n_s):
            identity = probs[s] @ (np.eye(n_a) - probs[s][None, :])
            assert np.abs(identity).max() <= 1e-12

    bandit = make_mdp(("s0",), ("a0", "a1"), 0.5, np.ones((1, 2, 1)), [[1.0, 0.0]])
    _, js = gradient_ascent(bandit, np.zeros((1, 2)), 0.5, 200)
    assert js[-1] > 0.95
    _passed("5 (analytic gradient vs finite differences, score identity, ascent)")


def test_criterion_6_reward_divergence():
    gen = np.random.default_rng(9)
    for _ in range(20):
        n_s = int(gen.integers(2, 11))
        n_a = int(gen.integers(2, 5))
        dynamics = random_mdp(n_s, n_a, float(gen.choice(GAMMAS)), gen)
        table = gen.uniform(-1.0, 1.0, size=(n_s, n_a))
        report = compare_policies(dynamics, table, 2.0 * table + 5.0)
        assert report.divergence == 0.0

    reward_a, reward_b = opposed_reward_pair()
    report = compare_policies(stay_go_dynamics(0.5), reward_a, reward_b)
    assert report.divergence == 1.0

    dynamics, hierarchy = egoism_vs_humanity()
    rows = sweep_weights(dynamics, hierarchy, 1, [0.0, 1.0, 2.0, 3.0, 4.0])
    assert [d for _, d in rows] == [0.0, 0.0, 0.0, 1.0, 1.0]
    _passed("6 (affine invariance, opposed fixture, weight-sweep step)")


def test_criterion_7_byte_identical_cli_runs(tmp_path):
    mdp_path = tmp_path / "world.json"
    mdp_path.write_text(json.dumps(mdp_to_dict(stay_go_mdp())))

    def invoke(argv, out_name=None):
        cmd = [sys.executable, "-m", "mdplab", *argv]
        out = None
        if out_name is not None:
            out = tmp_path / out_name
            cmd += ["--out", str(out)]
        proc = subprocess.run(cmd, capture_output=True, check=True)
        return proc.stdout, out.read_bytes() if out is not None else b""

    solve_argv = ["solve", "--mdp", str(mdp_path), "--epsilon", "1e-8"]
    first, _ = invoke(solve_argv)
    second, _ = invoke(solve_argv)
    assert first == second

    qlearn_argv = ["--seed", "13", "qlearn", "--mdp", str(mdp_path),
                   "--steps", "20000", "--checkpoint-every", "1000"]
    out1, csv1 = invoke(qlearn_argv, "run1.csv")
    out2, csv2 = invoke(qlearn_argv, "run2.csv")
    assert out1 == out2
    assert csv1 == csv2
    _passed("7 (byte-identical seeded CLI runs)")
