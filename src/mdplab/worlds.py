"""Ready-made worlds and random problem generators used across experiments."""

import numpy as np

from .mdp import ValidationError, as_count, make_mdp, with_rewards
from .rewards import RewardHierarchy, RewardLevel


def stay_go_mdp(gamma=0.5):
    """Two-state world: "stay" self-loops, "go" switches deterministically.

    Staying in s1 pays 1, every other pair pays 0.  With gamma = 0.5 the
    optimum is V* = (1, 2) under the policy {s0: go, s1: stay}.
    """
    transitions = np.zeros((2, 2, 2))
    transitions[0, 0, 0] = 1.0
    transitions[0, 1, 1] = 1.0
    transitions[1, 0, 1] = 1.0
    transitions[1, 1, 0] = 1.0
    rewards = np.array([[0.0, 0.0], [1.0, 0.0]])
    return make_mdp(("s0", "s1"), ("stay", "go"), gamma, transitions, rewards)


def stay_go_dynamics(gamma=0.9):
    """The stay/go transition structure with all-zero rewards."""
    return with_rewards(stay_go_mdp(gamma), np.zeros((2, 2)))


def opposed_reward_pair():
    """Two reward tables for the stay/go grid preferring opposite home states.

    A pays for staying in s1, B pays for staying in s0; under either one the
    optimal policy is to travel to its home state and stay, so the two argmax
    sets are disjoint in every state.
    """
    reward_a = np.array([[0.0, 0.0], [1.0, 0.0]])
    reward_b = np.array([[1.0, 0.0], [0.0, 0.0]])
    return reward_a, reward_b


def egoism_vs_humanity(gamma=0.9):
    """Stay/go dynamics with an individual level opposing a humanity level.

    The individual level (weight 1) pays 1 for "stay" in every state; the
    humanity level (weight to be swept, initially 0) pays 0.4 for "go".  The
    composed optimum flips from stay-everywhere to go-everywhere once the
    humanity weight crosses 1 / 0.4 = 2.5.  Returns (dynamics, hierarchy)
    with the humanity level at index 1.
    """
    dynamics = stay_go_dynamics(gamma)
    individual = RewardLevel(
        "individual", np.array([[1.0, 0.0], [1.0, 0.0]]), weight=1.0
    )
    humanity = RewardLevel(
        "humanity", np.array([[0.0, 0.4], [0.0, 0.4]]), weight=0.0
    )
    return dynamics, RewardHierarchy((individual, humanity))


def random_mdp(n_states, n_actions, gamma, rng):
    """Dense random MDP: flat-Dirichlet transition rows, rewards uniform in [-1, 1].

    Dense rows give every action full support, so any policy induces an
    irreducible chain.  ``rng`` is a numpy.random.Generator (else ValidationError).
    """
    n_states, n_actions = as_count(n_states, "n_states"), as_count(n_actions, "n_actions")
    if not isinstance(rng, np.random.Generator):
        raise ValidationError(f"rng must be a numpy.random.Generator, got {rng!r}")
    transitions = rng.dirichlet(np.ones(n_states), size=(n_states, n_actions))
    rewards = rng.uniform(-1.0, 1.0, size=(n_states, n_actions))
    states = tuple(f"s{i}" for i in range(n_states))
    actions = tuple(f"a{j}" for j in range(n_actions))
    return make_mdp(states, actions, gamma, transitions, rewards)
