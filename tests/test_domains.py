import copy
import pickle
import random
from dataclasses import FrozenInstanceError, replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hybridplan.domains import (
    MAZE_ACTIONS,
    MazeGrid,
    PlanningProblem,
    _manhattan,
    blocks_step,
    candidate_actions,
    canonical_blocks,
    decode,
    encode,
    expander,
    greedy_walk,
    heuristic_for,
    maze_step,
    plan_states,
    render_maze,
    skeleton,
    step,
    validate_plan,
)
from hybridplan.hardness import _neighbor_maps
import reference
from strategies import blocks_problems, maze_grids, maze_problems, states_of


def maze_problem(rows=5, cols=5, obstacles=(), start=(0, 0), goal=(4, 4)):
    return PlanningProblem(domain="maze", start=start, goal=goal,
                           grid=MazeGrid(rows, cols, frozenset(obstacles)))


def blocks_problem(start, goal, blocks):
    return PlanningProblem(domain="blocks", start=start, goal=goal, blocks=blocks)


def successors(problem, state):
    """(action, successor) for every valid action from a search state: the
    moves of the expansion kernel without a goal."""
    return [(a, nxt) for a, nxt, _ in expander(problem)(state, None)]


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
            action, _ = rng.choice(successors(problem, encode(problem, state)))
            nxt, reason = blocks_step(state, action)
            assert reason is None
            assert sorted(b for s in nxt for b in s) == ["A", "B", "C", "D", "E"]
            state = nxt

    def test_canonical_ordering(self):
        assert canonical_blocks([["C"], ["A", "B"]]) == (("A", "B"), ("C",))


class TestValidActions:
    def test_interior_cell(self):
        p = maze_problem()
        assert [a for a, _ in successors(p, (2, 2))] == ["up", "down", "left", "right"]

    def test_corner(self):
        p = maze_problem()
        assert [a for a, _ in successors(p, (0, 0))] == ["down", "right"]

    def test_blocks_canonical_order(self):
        # both on table: table moves are no-ops and excluded
        state = canonical_blocks([["A"], ["B"]])
        p = blocks_problem(state, state, ("A", "B"))
        assert [a for a, _ in successors(p, encode(p, state))] == [("A", "B"), ("B", "A")]

    def test_blocks_with_stack(self):
        state = canonical_blocks([["A", "B"], ["C"]])
        p = blocks_problem(state, state, ("A", "B", "C"))
        assert [a for a, _ in successors(p, encode(p, state))] == [
            ("B", "C"), ("B", "table"), ("C", "B")]


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

    def test_step_of_no_action_of_the_domain_fails(self):
        assert validate_plan(maze_problem(), (("A", "B"),)) == (False, 1)
        p = blocks_problem((("A",), ("B",)), (("A", "B"),), ("A", "B"))
        assert validate_plan(p, (("Z", "A"),)) == (False, 1)
        assert validate_plan(p, ("down",)) == (False, 1)

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
    with pytest.raises(ValueError):  # repeated labels
        blocks_problem((("A",), ("A",)), (("A",), ("A",)), ("A", "A"))
    with pytest.raises(ValueError):  # a block named like the table
        blocks_problem((("A",), ("table",)), (("A",), ("table",)), ("A", "table"))
    for rows, obstacles in ((3.0, ()), (True, ()), (3, {(1, 1.0)})):
        with pytest.raises(ValueError):
            MazeGrid(rows, 3, frozenset(obstacles))


def test_blocks_states_are_canonical_at_construction():
    p = blocks_problem((("C",), ("A", "B")), (("C", "B"), ("A",)), ("A", "B", "C"))
    assert p.start == canonical_blocks([["A", "B"], ["C"]]) == (("A", "B"), ("C",))
    assert p.goal == (("A",), ("C", "B"))


def test_small_universes_have_int_search_states():
    """A blocks search state is an int, never a tuple, so that one of a
    one- or two-block universe cannot look like a maze cell; decode gives
    the stacks back."""
    p = blocks_problem((("A", "B"),), (("A",), ("B",)), ("A", "B"))
    single = blocks_problem((("A",),), (("A",),), ("A",))
    for problem in (p, single):
        for state in (problem.start, problem.goal):
            assert type(encode(problem, state)) is int
            assert decode(problem, encode(problem, state)) == state


def test_blocks_problem_needs_a_block():
    """A state of no blocks has no text that parse_state accepts, so such a
    problem could be saved but not loaded."""
    with pytest.raises(ValueError, match="at least one block"):
        blocks_problem((), (), ())


# ---------------------------------------------------------------- properties

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)

# 16 blocks take 5-bit fields in a search state; the drawn universes, of at
# most 9 blocks, take 1 to 4
SIXTEEN_BLOCKS = blocks_problem(
    (("9", "0", "C", "3"), ("A", "_"), ("b", "1", "2", "a", "4"), ("5",), ("6", "B", "7", "8")),
    (("0", "1", "2", "3", "4", "5", "6", "7", "8", "9"), ("A", "B", "C"), ("_", "a", "b")),
    tuple("0123456789ABC_ab"))


problems = st.one_of(maze_problems(), blocks_problems())


def legal_state(problem, state):
    if problem.domain == "maze":
        (r, c), grid = state, problem.grid
        return 0 <= r < grid.rows and 0 <= c < grid.cols and state not in grid.obstacles
    return sorted(b for stack in state for b in stack) == sorted(problem.blocks)


@PROPERTY
@given(problems, st.data())
def test_slotted_problems_keep_their_contracts(problem, data):
    """A problem's geometry is set at construction, survives the pickle
    round trip that the process pool makes, is set again by replace, and
    takes no part in ==, hash or repr. Problems and grids are frozen and
    carry no __dict__."""
    assert problem.geometry == reference.geometry(problem)
    unpickled = pickle.loads(pickle.dumps(problem))
    assert unpickled == problem and unpickled.geometry == problem.geometry
    moved = replace(problem, start=data.draw(states_of(problem)),
                    goal=data.draw(states_of(problem)), problem_id="moved")
    assert moved.geometry == reference.geometry(moved)
    odd = copy.copy(problem)
    object.__setattr__(odd, "geometry", None)
    assert odd == problem and hash(odd) == hash(problem) and repr(odd) == repr(problem)
    assert "geometry" not in repr(problem)
    for obj, name in ((problem, "start"), (problem, "geometry"), (problem.grid, "rows")):
        if obj is not None:
            with pytest.raises(FrozenInstanceError):
                setattr(obj, name, None)
            assert not hasattr(obj, "__dict__")


@PROPERTY
@given(st.one_of(maze_problems(), blocks_problems(max_blocks=9)), st.data())
def test_valid_actions_are_the_legal_steps(problem, data):
    state = data.draw(states_of(problem))
    legal = [(a, step(problem, state, a)[0]) for a in candidate_actions(problem)]
    moves = [(a, decode(problem, nxt)) for a, nxt in successors(problem, encode(problem, state))]
    assert moves == [(a, nxt) for a, nxt in legal if nxt is not None]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(maze_grids())
def test_maze_moves_are_the_reference_steps(grid):
    """From every free cell of a 1x1 to 9x9 grid, maze_step gives the
    reference step for every action, out-of-bounds and obstacle probes
    included, and the kernel's moves are the reference filter of maze_step
    over MAZE_ACTIONS."""
    free = grid.free_cells()
    if not free:
        return
    problem = PlanningProblem(domain="maze", start=free[0], goal=free[0], grid=grid)
    for cell in free:
        for action in MAZE_ACTIONS:
            assert maze_step(grid, cell, action) == reference.maze_step(grid, cell, action)
        assert successors(problem, cell) == reference.maze_moves(grid, cell)


def kernel_states(problem):
    """Strategy for a state of the problem's maze or block universe that
    favours the ends of the move rules: a free cell on the grid's edge or
    corner, every block on the table, one tower."""
    if problem.domain == "maze":
        grid = problem.grid
        rim = [(r, c) for r, c in grid.free_cells()
               if r in (0, grid.rows - 1) or c in (0, grid.cols - 1)]
        return st.one_of(st.sampled_from(rim), states_of(problem)) if rim else states_of(problem)
    blocks = problem.blocks
    return st.one_of(states_of(problem),
                     st.just(canonical_blocks([b] for b in blocks)),
                     st.permutations(blocks).map(lambda order: (tuple(order),)))


@PROPERTY
@given(st.one_of(maze_problems(), blocks_problems(max_blocks=9)), st.data())
def test_the_kernel_scores_successors_as_heuristic_for(problem, data):
    """Toward a drawn goal, expand(s, h(s)) gives every valid successor n of
    s in canonical order with t' = h(n), h being heuristic_for's; without a
    goal every t' is None."""
    state, goal = (encode(problem, data.draw(kernel_states(problem))) for _ in range(2))
    h = heuristic_for(problem, goal)
    moves = reference.valid_successors(problem, state)
    assert expander(problem, goal)(state, h(state)) == [(a, n, h(n)) for a, n in moves]
    assert expander(problem)(state, None) == [(a, n, None) for a, n in moves]


# coordinates that are cells of small grids, out of range or negative, and
# bools and floats that equal ints
COORDINATES = st.one_of(st.integers(-2, 10), st.booleans(), st.sampled_from((0.0, 1.0, 2.5, -1.0)))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 9), st.integers(1, 9),
       st.frozensets(st.tuples(COORDINATES, COORDINATES), max_size=12))
@example(3, 3, frozenset({(True, 0)}))
@example(3, 3, frozenset({(0, 1.0)}))
@example(3, 3, frozenset({(0, 0), (2, 2)}))
def test_maze_grid_builds_or_names_the_bad_obstacle(rows, cols, obstacles):
    """A grid either builds or raises the ValueError whose message the
    reference obstacle loop gives."""
    expected = reference.maze_grid_error(rows, cols, obstacles)
    if expected is None:
        assert MazeGrid(rows, cols, obstacles).obstacles == obstacles
    else:
        with pytest.raises(ValueError) as info:
            MazeGrid(rows, cols, obstacles)
        assert str(info.value) == expected


def pairwise_mismatch(a, b):
    """Blocks of state a whose supporting block (or table) differs in b."""
    below_a, below_b = _neighbor_maps(a)[0], _neighbor_maps(b)[0]
    return sum(1 for block in below_a if below_a[block] != below_b.get(block))


@PROPERTY
@given(st.one_of(maze_problems(), blocks_problems(max_blocks=9)))
@example(SIXTEEN_BLOCKS)
def test_goal_bound_heuristic_is_the_pairwise_distance(problem):
    pairwise = _manhattan if problem.domain == "maze" else pairwise_mismatch
    h = heuristic_for(problem, encode(problem, problem.goal))
    assert h(encode(problem, problem.start)) == pairwise(problem.start, problem.goal)


@PROPERTY
@given(problems)
def test_skeleton_is_none_or_a_legal_chain(problem):
    """On both domains the skeleton is None, or a chain of states from start
    to goal in which each state is a successor of the one
    before it."""
    states = skeleton(problem)
    if states is None:
        return
    assert states[0] == problem.start and states[-1] == problem.goal
    assert all(legal_state(problem, s) for s in states)
    for a, b in zip(states, states[1:]):
        assert encode(problem, b) in [nxt for _, nxt in successors(problem, encode(problem, a))]


@PROPERTY
@given(problems, st.one_of(st.none(), st.integers(0, 12)))
def test_greedy_walk_never_revisits_and_respects_cap(problem, step_cap):
    actions, states = greedy_walk(problem, problem.start, problem.goal, step_cap)
    assert len(states) == len(actions) + 1 and states[0] == problem.start
    assert len(set(states)) == len(states)
    if step_cap is not None:
        assert len(actions) <= step_cap
    elif problem.domain == "blocks":
        assert len(actions) <= 8 * len(problem.blocks)
    if problem.domain == "maze":
        # no maze cap: the distinct states are free cells, fewer than 4 per cell
        cells = problem.grid.rows * problem.grid.cols
        assert len(actions) < cells - len(problem.grid.obstacles) < 4 * cells
    assert plan_states(problem, actions) == states


@PROPERTY
@given(st.one_of(maze_problems(), blocks_problems()), st.sampled_from((0, 1, None)))
def test_greedy_walk_is_the_reference_walk(problem, step_cap):
    """The walk takes the reference walk's moves, heuristic_for scoring
    each successor, with caps of 0 and 1 moves and the default."""
    assert greedy_walk(problem, problem.start, problem.goal, step_cap) == \
        reference.greedy_walk(problem, problem.start, problem.goal, step_cap)


@PROPERTY
@given(blocks_problems(max_blocks=9))
@example(SIXTEEN_BLOCKS)
def test_blocks_search_states_round_trip(problem):
    """A blocks state survives encode and decode, and every successor of
    its search state is blocks_step's state, encoded. Universes of 1 to 9
    blocks are drawn, so fields of 1 to 4 bits, and one of 16."""
    for state in (problem.start, problem.goal):
        on = encode(problem, state)
        assert decode(problem, on) == state
        for action, nxt in successors(problem, on):
            assert decode(problem, nxt) == blocks_step(state, action)[0]
            assert encode(problem, decode(problem, nxt)) == nxt
