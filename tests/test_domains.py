import random

import pytest

from hybridplan.domains import (
    MAZE_ACTIONS,
    MazeGrid,
    PlanningProblem,
    blocks_step,
    canonical_blocks,
    maze_step,
    plan_states,
    render_maze,
    validate_plan,
    valid_actions,
)


def maze_problem(rows=5, cols=5, obstacles=(), start=(0, 0), goal=(4, 4)):
    return PlanningProblem(domain="maze", start=start, goal=goal,
                           grid=MazeGrid(rows, cols, frozenset(obstacles)))


def blocks_problem(start, goal, blocks):
    return PlanningProblem(domain="blocks", start=start, goal=goal, blocks=blocks)


GRID5 = MazeGrid(5, 5)


class TestMazeStep:
    def test_up_decreases_row(self):
        assert maze_step(GRID5, (2, 2), "up") == ((1, 2), None)

    def test_out_of_bounds(self):
        assert maze_step(GRID5, (0, 0), "up") == (None, "out-of-bounds")

    def test_obstacle(self):
        grid = MazeGrid(5, 5, frozenset({(1, 2)}))
        assert maze_step(grid, (2, 2), "up") == (None, "obstacle")

    def test_all_directions(self):
        assert maze_step(GRID5, (2, 2), "down") == ((3, 2), None)
        assert maze_step(GRID5, (2, 2), "left") == ((2, 1), None)
        assert maze_step(GRID5, (2, 2), "right") == ((2, 3), None)

    def test_reversibility(self):
        inverse = {"up": "down", "down": "up", "left": "right", "right": "left"}
        rng = random.Random(7)
        for _ in range(200):
            obstacles = frozenset(
                (rng.randrange(5), rng.randrange(5)) for _ in range(6))
            grid = MazeGrid(5, 5, obstacles)
            free = grid.free_cells()
            if not free:
                continue
            s = rng.choice(free)
            a = rng.choice(MAZE_ACTIONS)
            nxt, _ = maze_step(grid, s, a)
            if nxt is not None:
                back, _ = maze_step(grid, nxt, inverse[a])
                assert back == s


class TestBlocksStep:
    def test_legal_move(self):
        state = canonical_blocks([["A", "B"], ["C"]])
        nxt, reason = blocks_step(state, ("B", "C"))
        assert reason is None
        assert nxt == canonical_blocks([["A"], ["C", "B"]])

    def test_block_not_clear(self):
        state = canonical_blocks([["A", "B"]])
        assert blocks_step(state, ("A", "table")) == (None, "block-not-clear")

    def test_self_move(self):
        state = canonical_blocks([["A"], ["B"]])
        assert blocks_step(state, ("A", "A")) == (None, "self-move")

    def test_table_noop_is_self_move(self):
        state = canonical_blocks([["A"], ["B"]])
        assert blocks_step(state, ("A", "table")) == (None, "self-move")

    def test_destination_not_clear(self):
        state = canonical_blocks([["A", "B"], ["C"]])
        assert blocks_step(state, ("C", "A")) == (None, "destination-not-clear")

    def test_destination_missing(self):
        state = canonical_blocks([["A"], ["B"]])
        assert blocks_step(state, ("A", "Z")) == (None, "destination-missing")

    def test_conserves_blocks(self):
        rng = random.Random(3)
        state = canonical_blocks([["A", "B"], ["C", "D"], ["E"]])
        problem = blocks_problem(state, state, ("A", "B", "C", "D", "E"))
        for _ in range(100):
            actions = valid_actions(problem, state)
            action = rng.choice(actions)
            nxt, reason = blocks_step(state, action)
            assert reason is None
            assert sorted(b for s in nxt for b in s) == ["A", "B", "C", "D", "E"]
            state = nxt

    def test_canonical_ordering(self):
        assert canonical_blocks([["C"], ["A", "B"]]) == (("A", "B"), ("C",))


class TestValidActions:
    def test_interior_cell(self):
        p = maze_problem()
        assert valid_actions(p, (2, 2)) == ["up", "down", "left", "right"]

    def test_corner(self):
        p = maze_problem()
        assert valid_actions(p, (0, 0)) == ["down", "right"]

    def test_blocks_canonical_order(self):
        # both on table: table moves are no-ops and excluded
        state = canonical_blocks([["A"], ["B"]])
        p = blocks_problem(state, state, ("A", "B"))
        assert valid_actions(p, state) == [("A", "B"), ("B", "A")]

    def test_blocks_with_stack(self):
        state = canonical_blocks([["A", "B"], ["C"]])
        p = blocks_problem(state, state, ("A", "B", "C"))
        assert valid_actions(p, state) == [("B", "C"), ("B", "table"), ("C", "B")]


class TestValidatePlan:
    def test_empty_plan_identity(self):
        p = maze_problem(start=(1, 1), goal=(1, 1))
        assert validate_plan(p, ()) == (True, None)

    def test_straight_line(self):
        p = maze_problem(start=(0, 0), goal=(0, 2))
        assert validate_plan(p, ("right", "right")) == (True, None)

    def test_fails_at_step(self):
        p = maze_problem(start=(0, 0), goal=(0, 2))
        ok, idx = validate_plan(p, ("right", "up"))
        assert not ok and idx == 2

    def test_wrong_endpoint(self):
        p = maze_problem(start=(0, 0), goal=(0, 2))
        ok, idx = validate_plan(p, ("right",))
        assert not ok and idx == 1

    def test_transition_determinism(self):
        p = maze_problem()
        plan = ("down", "right", "down", "right")
        assert plan_states(p, plan) == plan_states(p, plan)


def test_render_maze():
    p = maze_problem(rows=3, cols=3, obstacles={(1, 1)}, start=(0, 0), goal=(2, 2))
    assert render_maze(p) == "S..\n.#.\n..G"


def test_problem_validation_rejects_bad_states():
    with pytest.raises(ValueError):
        maze_problem(start=(9, 9))
    with pytest.raises(ValueError):
        maze_problem(obstacles={(0, 0)})
    with pytest.raises(ValueError):
        blocks_problem((("A",),), (("A",), ("A",)), ("A",))
