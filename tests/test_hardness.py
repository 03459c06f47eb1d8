import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridplan.domains import MazeGrid, PlanningProblem, canonical_blocks
from hybridplan.hardness import (
    blocks_distance,
    hardness_fn,
    obstacle_count,
    rank_problems,
)
import reference
from strategies import maze_grids


def hardness(selector, problem, a, b):
    return hardness_fn(selector, problem)(a, b)


def maze_problem(obstacles, start=(0, 0), goal=(4, 4)):
    return PlanningProblem(domain="maze", start=start, goal=goal,
                           grid=MazeGrid(5, 5, frozenset(obstacles)))


class TestMazeObstacles:
    def test_counts_inside_rectangle_only(self):
        p = maze_problem({(1, 1), (3, 3)})
        assert hardness("maze-obstacles", p, (0, 0), (2, 2)) == 1

    def test_symmetry(self):
        rng = random.Random(1)
        for _ in range(100):
            p = maze_problem({(rng.randrange(5), rng.randrange(5)) for _ in range(5)}
                             - {(0, 0), (4, 4)})
            a = (rng.randrange(5), rng.randrange(5))
            b = (rng.randrange(5), rng.randrange(5))
            assert hardness("maze-obstacles", p, a, b) == hardness("maze-obstacles", p, b, a)

    def test_monotone_under_containment(self):
        grid = MazeGrid(5, 5, frozenset({(1, 1), (2, 3), (3, 2)}))
        inner = obstacle_count(grid, (1, 1), (2, 2))
        outer = obstacle_count(grid, (0, 0), (4, 4))
        assert inner <= outer

    def test_degenerate_pair_is_zero(self):
        p = maze_problem({(1, 1)})
        assert hardness("maze-obstacles", p, (2, 2), (2, 2)) == 0


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(maze_grids(), st.data())
def test_obstacle_count_is_the_brute_force_count(grid, data):
    """Either order of the corners counts the obstacles that a visit of
    every cell of the rectangle finds, on 1x1 to 9x9 grids."""
    cells = st.tuples(st.integers(0, grid.rows - 1), st.integers(0, grid.cols - 1))
    a, b = data.draw(cells), data.draw(cells)
    assert obstacle_count(grid, a, b) == obstacle_count(grid, b, a) == \
        reference.obstacle_count(grid, a, b)


class TestMazeManhattan:
    def test_is_manhattan(self):
        p = maze_problem(())
        assert hardness("maze-manhattan", p, (0, 0), (3, 4)) == 7
        assert hardness("maze-manhattan", p, (3, 4), (0, 0)) == 7


class TestBlocksDistance:
    def _problem(self, start, goal, blocks):
        return PlanningProblem(domain="blocks", start=start, goal=goal, blocks=blocks)

    def test_identity_zero(self):
        s = canonical_blocks([["A", "B"], ["C"]])
        p = self._problem(s, s, ("A", "B", "C"))
        assert hardness("blocks-distance", p, s, s) == 0

    def test_swap_costs_three(self):
        a = canonical_blocks([["A", "B"]])
        b = canonical_blocks([["B", "A"]])
        # A misplaced on table: +1; B misplaced and buried: +2
        assert blocks_distance(a, b) == 3

    def test_above_neighbor_counts(self):
        # A keeps its support but loses its rider: misplaced under the OR
        # reading (+1); B is misplaced and buried (+2)
        a = canonical_blocks([["A", "B"]])
        b = canonical_blocks([["A"], ["B"]])
        assert blocks_distance(a, b) == 3

    def test_unstack_costs(self):
        # B loses its rider (+1, on table); C changes support and is off
        # the table (+2)
        a = canonical_blocks([["A"], ["B", "C"]])
        b = canonical_blocks([["A"], ["B"], ["C"]])
        assert blocks_distance(a, b) == 3


class TestRanking:
    def test_pairwise_order(self):
        light = maze_problem({(4, 0)}, start=(0, 0), goal=(2, 2))
        heavy = maze_problem({(1, 1), (2, 2)}, start=(0, 0), goal=(3, 3))
        assert rank_problems([heavy, light], "maze-obstacles") == [light, heavy]

    def test_stability_on_ties(self):
        problems = [maze_problem((), start=(0, 0), goal=(i, 0)) for i in range(1, 5)]
        assert rank_problems(problems, "maze-obstacles") == problems

    def test_agrees_with_recomputation_oracle(self):
        rng = random.Random(17)
        problems = []
        for _ in range(100):
            obstacles = set()
            while len(obstacles) < 6:
                obstacles.add((rng.randrange(5), rng.randrange(5)))
            grid = MazeGrid(5, 5, frozenset(obstacles))
            free = grid.free_cells()
            start, goal = rng.sample(free, 2)
            problems.append(PlanningProblem(domain="maze", start=start, goal=goal, grid=grid))
        ranked = rank_problems(problems, "maze-obstacles")
        scores = [hardness("maze-obstacles", p, p.start, p.goal) for p in ranked]
        assert scores == sorted(scores)
        assert sorted(map(id, ranked)) == sorted(map(id, problems))


def test_unknown_selector_rejected():
    p = maze_problem(())
    with pytest.raises(ValueError):
        hardness_fn("maze-euclid", p)


def test_default_selectors():
    """No selector means the domain's default: obstacles for mazes (not
    Manhattan distance), blocks distance for blocks."""
    p = maze_problem({(1, 1)})
    assert hardness(None, p, (0, 0), (2, 2)) == hardness("maze-obstacles", p, (0, 0), (2, 2)) == 1
    assert hardness("maze-manhattan", p, (0, 0), (2, 2)) == 4
    a = canonical_blocks([["A", "B"]])
    b = canonical_blocks([["B", "A"]])
    blocks = PlanningProblem(domain="blocks", start=a, goal=b, blocks=("A", "B"))
    assert hardness(None, blocks, a, b) == blocks_distance(a, b) == 3
