"""Hypothesis strategies for random maze and blocks problems, shared by
the property tests."""

from hypothesis import strategies as st

from hybridplan.domains import MazeGrid, PlanningProblem, canonical_blocks
from hybridplan.generators import maze_distances


@st.composite
def maze_grids(draw, max_side=9):
    """A grid of 1x1 to max_side x max_side cells with random obstacles,
    border cells among them."""
    rows, cols = draw(st.integers(1, max_side)), draw(st.integers(1, max_side))
    cells = [(r, c) for r in range(rows) for c in range(cols)]
    return MazeGrid(rows, cols, draw(st.frozensets(st.sampled_from(cells))))


@st.composite
def maze_problems(draw, max_side=6):
    rows, cols = draw(st.integers(1, max_side)), draw(st.integers(1, max_side))
    cells = [(r, c) for r in range(rows) for c in range(cols)]
    start, goal = draw(st.sampled_from(cells)), draw(st.sampled_from(cells))
    obstacles = draw(st.frozensets(st.sampled_from(cells))) - {start, goal}
    return PlanningProblem(domain="maze", start=start, goal=goal,
                           grid=MazeGrid(rows, cols, obstacles))


@st.composite
def blocks_states(draw, blocks):
    order = draw(st.permutations(blocks))
    stacks = [[order[0]]]
    for block in order[1:]:
        if draw(st.booleans()):
            stacks.append([block])
        else:
            stacks[-1].append(block)
    return canonical_blocks(stacks)


# labels such as 10, 9, A, _1 and b, which sort in that order: not by
# length, number or character class
BLOCK_LABELS = st.text("0123456789ABCabc_", min_size=1, max_size=2)

# word labels beyond ASCII, which JSON text escapes: é, ß, Ω, 名 and the
# digit ٣ all match \w
WORD_LABELS = st.text("Abé_ßΩ名٣", min_size=1, max_size=2)


@st.composite
def blocks_problems(draw, max_blocks=6, labels=BLOCK_LABELS):
    blocks = tuple(sorted(draw(st.lists(labels, min_size=1, max_size=max_blocks,
                                        unique=True))))
    return PlanningProblem(domain="blocks", start=draw(blocks_states(blocks)),
                           goal=draw(blocks_states(blocks)), blocks=blocks)


def states_of(problem):
    """Strategy for a legal state of the problem's maze or blocks universe."""
    if problem.domain == "maze":
        return st.sampled_from(problem.grid.free_cells())
    return blocks_states(problem.blocks)


def reachable_states(problem):
    """Strategy for a state reachable from the problem's start: a cell of
    the start's maze component, or any state of the block universe."""
    if problem.domain == "maze":
        return st.sampled_from(sorted(maze_distances(problem.grid, problem.start)[0]))
    return blocks_states(problem.blocks)
