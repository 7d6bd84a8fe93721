"""Tests for the generic MCTS engine."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tileseek.mcts import mcts_search_batched


def batched(evaluate):
    """Price a frontier by calling a one-leaf evaluator per leaf."""
    return lambda assignments: [evaluate(a) for a in assignments]


class TestMCTSBasics:
    def test_finds_obvious_optimum_in_tiny_space(self):
        levels = [[0, 1], [0, 1], [0, 1]]

        def evaluate(assignment):
            return float(sum(assignment))

        stats = mcts_search_batched(
            levels, batched(evaluate), iterations=50, seed=3
        )
        assert stats.best_assignment == (1, 1, 1)
        assert stats.best_reward == 3.0

    def test_deterministic_given_seed(self):
        levels = [[1, 2, 3]] * 4

        def evaluate(assignment):
            return 1.0 / (1 + abs(sum(assignment) - 7))

        a = mcts_search_batched(
            levels, batched(evaluate), iterations=60, seed=9
        )
        b = mcts_search_batched(
            levels, batched(evaluate), iterations=60, seed=9
        )
        assert a.best_assignment == b.best_assignment
        assert a.best_reward == b.best_reward

    def test_evaluations_match_iterations(self):
        stats = mcts_search_batched(
            [[0, 1]], batched(lambda a: 1.0), iterations=25, seed=0
        )
        assert stats.evaluations == 25

    def test_prune_excludes_bad_subtrees(self):
        levels = [[0, 1], [0, 1]]
        seen = []

        def evaluate(assignment):
            seen.append(assignment)
            return float(sum(assignment))

        def viable(prefix, level):
            # Forbid choosing 0 at the first level.
            return [v for v in levels[level] if level or v != 0]

        stats = mcts_search_batched(
            levels, batched(evaluate), iterations=30, seed=1,
            viable=viable,
        )
        assert stats.best_assignment[0] == 1
        assert all(a[0] == 1 for a in seen)

    def test_invalid_args_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            mcts_search_batched(
                [[1]], batched(lambda a: 0.0), iterations=0
            )
        with pytest.raises(ValueError, match="at least one"):
            mcts_search_batched(
                [[]], batched(lambda a: 0.0), iterations=5
            )

    def test_zero_reward_everywhere_still_returns_assignment(self):
        stats = mcts_search_batched(
            [[1, 2], [3, 4]], batched(lambda a: 0.0), iterations=10,
            seed=0,
        )
        assert len(stats.best_assignment) == 2

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_beats_first_choice_baseline_on_needle(self, seed):
        # Reward peaks at one specific assignment in a 4^4 space.
        levels = [[0, 1, 2, 3]] * 4
        target = (3, 1, 2, 0)

        def evaluate(assignment):
            matches = sum(
                1 for a, t in zip(assignment, target) if a == t
            )
            return float(matches)

        stats = mcts_search_batched(
            levels, batched(evaluate), iterations=300, seed=seed
        )
        assert stats.best_reward >= 3.0

    def test_tree_grows_with_iterations(self):
        levels = [[0, 1, 2]] * 3

        def evaluate(assignment):
            return float(sum(assignment))

        small = mcts_search_batched(
            levels, batched(evaluate), iterations=5, seed=0
        )
        large = mcts_search_batched(
            levels, batched(evaluate), iterations=200, seed=0
        )
        assert large.tree_nodes > small.tree_nodes
