from collections import Counter

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hybridplan.domains import PlanningProblem, validate_plan
from hybridplan.generators import (
    BlocksDatasetConfig,
    GenerationExhausted,
    MazeDatasetConfig,
    blocks_bfs_length,
    blocks_optimal_plan,
    generate_blocks_dataset,
    generate_maze_dataset,
    maze_distances,
)
from hybridplan.search import astar
from hybridplan.textio import problem_to_json
import reference
from strategies import blocks_problems, maze_grids

SMALL_MAZE = MazeDatasetConfig(split_sizes=(80, 16, 16))
SMALL_BLOCKS = BlocksDatasetConfig(split_sizes=(40, 10, 10))


class TestMazeDataset:
    def test_split_sizes_and_balance(self, small_maze_dataset):
        ds = small_maze_dataset
        assert {k: len(v) for k, v in ds.items()} == {"train": 160, "val": 40, "test": 40}
        for split, per_bucket in (("train", 20), ("val", 5), ("test", 5)):
            counts = Counter(p.optimal_length for p in ds[split])
            assert counts == {length: per_bucket for length in range(1, 9)}

    def test_gold_plans_validate(self, small_maze_dataset):
        for split in small_maze_dataset.values():
            for p in split:
                assert validate_plan(p, p.gold_plan) == (True, None)
                assert len(p.gold_plan) == p.optimal_length

    def test_obstacle_count_fixed(self, small_maze_dataset):
        for p in small_maze_dataset["test"]:
            assert len(p.grid.obstacles) == 10

    def test_optimal_length_matches_bfs_oracle(self, small_maze_dataset):
        for p in small_maze_dataset["test"]:
            dist, _ = maze_distances(p.grid, p.start)
            assert dist[p.goal] == p.optimal_length

    def test_deterministic_under_seed(self):
        a = generate_maze_dataset(5, SMALL_MAZE)
        b = generate_maze_dataset(5, SMALL_MAZE)
        assert [problem_to_json(p) for s in a for p in a[s]] == \
               [problem_to_json(p) for s in b for p in b[s]]

    def test_single_length_config(self):
        cfg = MazeDatasetConfig(min_length=1, max_length=1, split_sizes=(8, 2, 2))
        ds = generate_maze_dataset(3, cfg)
        for split in ds.values():
            assert all(len(p.gold_plan) == 1 for p in split)

    def test_exhaustion(self):
        cfg = MazeDatasetConfig(min_length=20, max_length=20, split_sizes=(1, 1, 1),
                                max_attempts=50)
        with pytest.raises(GenerationExhausted):
            generate_maze_dataset(0, cfg)


class TestBlocksDataset:
    def test_split_sizes(self, small_blocks_dataset):
        assert {k: len(v) for k, v in small_blocks_dataset.items()} == \
               {"train": 60, "val": 20, "test": 20}

    def test_length_bands(self, small_blocks_dataset):
        ds = small_blocks_dataset
        assert all(1 <= p.optimal_length <= 6 for p in ds["train"] + ds["val"])
        assert all(7 <= p.optimal_length <= 10 for p in ds["test"])

    def test_gold_plans_validate(self, small_blocks_dataset):
        for split in small_blocks_dataset.values():
            for p in split:
                assert validate_plan(p, p.gold_plan) == (True, None)
                assert len(p.gold_plan) == p.optimal_length

    def test_block_counts_in_range(self, small_blocks_dataset):
        for split in small_blocks_dataset.values():
            for p in split:
                assert 4 <= len(p.blocks) <= 7

    def test_no_duplicates(self, small_blocks_dataset):
        keys = [(p.start, p.goal) for s in small_blocks_dataset.values() for p in s]
        assert len(keys) == len(set(keys))

    def test_deterministic_under_seed(self):
        a = generate_blocks_dataset(9, SMALL_BLOCKS)
        b = generate_blocks_dataset(9, SMALL_BLOCKS)
        assert [problem_to_json(p) for s in a for p in a[s]] == \
               [problem_to_json(p) for s in b for p in b[s]]

    def test_astar_oracle_matches_exhaustive_bfs_on_4_blocks(self, small_blocks_dataset):
        checked = 0
        for split in small_blocks_dataset.values():
            for p in split:
                if len(p.blocks) == 4:
                    assert blocks_bfs_length(p) == p.optimal_length
                    checked += 1
        assert checked > 0

    def test_exhaustion(self):
        cfg = BlocksDatasetConfig(test_lengths=(40, 50), split_sizes=(0, 0, 1),
                                  max_attempts=100)
        with pytest.raises(GenerationExhausted):
            generate_blocks_dataset(0, cfg)


def test_blocks_optimal_plan_identity():
    from hybridplan.domains import canonical_blocks

    s = canonical_blocks([["A", "B"], ["C"]])
    universe = PlanningProblem(domain="blocks", start=s, goal=s, blocks=("A", "B", "C"))
    assert blocks_optimal_plan(universe, s, s) == ()


NINE = ("10", "9", "A", "_1", "b", "c", "C", "a", "0")


def blocks_problem(blocks, start, goal):
    return PlanningProblem(domain="blocks", start=start, goal=goal, blocks=blocks)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(blocks_problems(max_blocks=6))
# 8 and 9 blocks take 4-bit fields, which the drawn universes never reach;
# starts a few moves from the goal keep the reference search cheap
@example(blocks_problem(tuple("ABCDEFGH"), (("A", "B", "C", "D"), ("E", "F"), ("G", "H")),
                        (("A", "B", "C"), ("D", "G"), ("E", "F", "H"))))
@example(blocks_problem(NINE, (("10", "9", "A"), ("_1", "b", "c"), ("C", "a", "0")),
                        (("10", "9"), ("A", "c", "0"), ("C", "a", "b", "_1"))))
@example(blocks_problem(NINE, (("10", "9", "A"), ("_1", "b", "c"), ("C", "a", "0")),
                        (("10", "9", "A"), ("_1", "b"), ("C", "a", "0", "c"))))
def test_blocks_oracle_gives_the_reference_plan(problem):
    """The oracle runs the engine loop, whose successors come from the
    kernel with their heuristic corrected per move: it gives the plan of
    the reference A*, which expands through step and scores every state
    afresh."""
    assert blocks_optimal_plan(problem, problem.start, problem.goal) == \
        reference.blocks_optimal_plan(problem)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(blocks_problems(max_blocks=6))
def test_gold_plans_are_the_engine_plans(problem):
    """Searched through a problem of the same block universe whose own start
    and goal are neither of the pair's, the oracle gives the plan it gives
    through the pair's own problem, which is the Sys2 engine's A* plan: the
    universe's states never enter the search."""
    blocks = problem.blocks
    assume(len(blocks) > 1)  # one block has one state
    others = [s for s in (tuple((b,) for b in blocks), (blocks,), (blocks[::-1],))
              if s not in (problem.start, problem.goal)]
    universe = PlanningProblem(domain="blocks", start=others[0], goal=others[-1], blocks=blocks)
    plan = blocks_optimal_plan(problem, problem.start, problem.goal)
    assert blocks_optimal_plan(universe, problem.start, problem.goal) == plan == astar(problem).plan


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(maze_grids(), st.data())
def test_maze_bfs_is_the_reference_bfs(grid, data):
    """The maze oracle, which expands the moves that search expands, gives
    the distances and parents of a BFS over maze_step, on 1x1 to 9x9 grids."""
    free = grid.free_cells()
    if not free:
        return
    start = data.draw(st.sampled_from(free))
    assert maze_distances(grid, start) == reference.maze_distances(grid, start)
