"""Planning domains: grid-maze navigation and blocks stacking.

Problem states are plain hashable values: a maze state is a ``(row, col)``
tuple, a blocks state is a tuple of stacks, each stack a bottom-to-top
tuple of block labels, with stacks sorted by their bottom block so equal
configurations compare equal. expander and heuristic_for take search
states instead: encode leaves a maze cell as it is and packs a blocks state
into one int, block i's field holding the sorted-universe index of the
block under it plus one, 0 for the table; decode inverts it. Only this
module reads the packing. Searches and oracles encode their start and goal
once; every state they hand back is decoded.

Every per-domain decision of the planners lives here: the step semantics,
the search heuristic, the expansion kernel, the greedy walk behind the
fast planner, and the skeleton over which the controller places its
search window. The kernel (expander) is the one source of successors for
the search engines (whose A* also gives the blocks optimal plans), the
greedy walk and the exhaustive BFS oracle: it builds the valid moves
only, each with its successor's heuristic value, worked out from its
parent's (one field's correction on blocks, the successor's Manhattan
distance on maze), so no caller scores a successor from scratch. The
skeleton follows one rule on both domains: the greedy walk's states when
the walk reaches the goal, else None. The path reconstruction that every
search shares (_reconstruct) lives here too.

MazeGrid and PlanningProblem are frozen, slotted dataclasses. A problem's
geometry (its domain, grid fields or block universe, start and goal, the
key of the sweep memo) is a field that __post_init__ sets once, alongside
its checks; it takes no part in ==, hash or repr, and replace sets it
again.

A maze move goes one cell up, down, left or right (up decreases the row
index) and is valid when it lands on a cell of the grid that is not an
obstacle. One helper, _maze_moves, lists the valid moves from a cell by
that rule, testing the four neighbours inline: it gives the kernel's maze
successors and the generator's BFS.
maze_step applies the rule to a single action and names why an invalid one
fails, for step, plan checks and the trace's invalid probes.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

MAZE_ACTIONS = ("up", "down", "left", "right")

# up decreases the row index (screen order)
_MAZE_DELTAS = {
    "up": (-1, 0),
    "down": (1, 0),
    "left": (0, -1),
    "right": (0, 1),
}

TABLE = "table"
_BLOCK_LABEL = re.compile(r"\w+")  # the labels that move(...) text can name


@dataclass(frozen=True, slots=True)
class MazeGrid:
    rows: int
    cols: int
    obstacles: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        rows, cols = self.rows, self.cols
        if type(rows) is not int or type(cols) is not int or rows <= 0 or cols <= 0:
            raise ValueError("grid dimensions must be positive integers")
        for (r, c) in self.obstacles:
            if type(r) is not int or type(c) is not int \
                    or not (0 <= r < rows and 0 <= c < cols):
                raise ValueError(f"obstacle {(r, c)} is not a cell of the grid")

    def free_cells(self):
        return [
            (r, c)
            for r in range(self.rows)
            for c in range(self.cols)
            if (r, c) not in self.obstacles
        ]


DOMAINS = ("maze", "blocks")


@dataclass(frozen=True, slots=True)
class PlanningProblem:
    domain: str  # one of DOMAINS
    start: object
    goal: object
    grid: MazeGrid | None = None
    blocks: tuple = ()  # block universe, sorted labels (blocks domain)
    gold_plan: tuple | None = None
    optimal_length: int | None = None
    problem_id: str = ""
    split: str = ""
    # What the problem's plans and searches depend on: its domain, grid or
    # block universe, start and goal, not its id, split or gold plan. The
    # grid enters by its fields, whose frozenset of obstacles keeps its hash.
    geometry: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        """Checks the problem against its grid or block universe and sets
        its geometry. Blocks states are canonicalized, so a state written
        with its stacks out of bottom order equals its canonical form."""
        domain = self.domain
        if domain == "maze":
            grid = self.grid
            if grid is None:
                raise ValueError("maze problem needs a grid")
            rows, cols, obstacles = grid.rows, grid.cols, grid.obstacles
            start, goal = self.start, self.goal
            for name, s in (("start", start), ("goal", goal)):
                r, c = s
                if not (0 <= r < rows and 0 <= c < cols):
                    raise ValueError(f"{name} {s} out of bounds")
                if s in obstacles:
                    raise ValueError(f"{name} {s} is an obstacle")
            geometry = domain, rows, cols, obstacles, start, goal
        elif domain == "blocks":
            blocks = self.blocks
            if not blocks:
                raise ValueError("blocks problem needs at least one block")
            if len(set(blocks)) != len(blocks):
                raise ValueError("block labels must be distinct")
            if TABLE in blocks:
                raise ValueError(f"a block may not be named {TABLE!r}")
            if not all(type(b) is str and _BLOCK_LABEL.fullmatch(b) for b in blocks):
                raise ValueError("block labels must be words of letters, digits and _")
            universe = sorted(blocks)
            for name in ("start", "goal"):
                state = canonical_blocks(getattr(self, name))
                if sorted(b for stack in state for b in stack) != universe:
                    raise ValueError(f"{name} does not use the block universe exactly once each")
                object.__setattr__(self, name, state)
            geometry = domain, blocks, self.start, self.goal
        else:
            raise ValueError(f"unknown domain {domain!r}")
        object.__setattr__(self, "geometry", geometry)


def canonical_blocks(stacks):
    """Drop empty stacks and sort by bottom block label."""
    return tuple(sorted((tuple(s) for s in stacks if s), key=lambda s: s[0]))


def maze_step(grid, state, action):
    """Apply a maze action. Returns (next_state, None) or (None, reason)."""
    dr, dc = _MAZE_DELTAS[action]
    r, c = state[0] + dr, state[1] + dc
    if not (0 <= r < grid.rows and 0 <= c < grid.cols):
        return None, "out-of-bounds"
    nxt = (r, c)
    if nxt in grid.obstacles:
        return None, "obstacle"
    return nxt, None


def _maze_moves(grid, cell):
    """(action, next cell) for every valid move from a cell of the grid, in
    canonical order: the moves for which maze_step gives a next cell, its
    four neighbours tested inline."""
    r, c = cell
    obstacles = grid.obstacles
    out = []
    if r > 0 and (nxt := (r - 1, c)) not in obstacles:
        out.append(("up", nxt))
    if r + 1 < grid.rows and (nxt := (r + 1, c)) not in obstacles:
        out.append(("down", nxt))
    if c > 0 and (nxt := (r, c - 1)) not in obstacles:
        out.append(("left", nxt))
    if c + 1 < grid.cols and (nxt := (r, c + 1)) not in obstacles:
        out.append(("right", nxt))
    return out


def blocks_step(state, action):
    """Move a clear block onto the table or onto another clear block.

    Returns (next_state, None) or (None, reason) with reason one of
    block-not-clear | destination-not-clear | destination-missing | self-move.
    """
    block, dest = action
    if block == dest:
        return None, "self-move"
    src = None
    for i, s in enumerate(state):
        if block in s:
            src = i
            break
    if src is None:
        raise ValueError(f"unknown block {block!r}")
    if state[src][-1] != block:
        return None, "block-not-clear"
    if dest == TABLE:
        if len(state[src]) == 1:
            # already on the table; moving it there changes nothing
            return None, "self-move"
        new = [list(s) for s in state]
        new[src].pop()
        new.append([block])
        return canonical_blocks(new), None
    if not any(dest in s for s in state):
        return None, "destination-missing"
    tops = {s[-1]: i for i, s in enumerate(state)}
    if dest not in tops:
        return None, "destination-not-clear"
    new = [list(s) for s in state]
    new[src].pop()
    new[tops[dest]].append(block)
    return canonical_blocks(new), None


def step(problem, state, action):
    if problem.domain == "maze":
        return maze_step(problem.grid, state, action)
    return blocks_step(state, action)


def candidate_actions(problem):
    """All actions probed during search, in canonical order (including
    ones that will turn out invalid)."""
    if problem.domain == "maze":
        return list(MAZE_ACTIONS)
    return [a for onto in _universe(problem.blocks).moves for a in onto if a[0] != a[1]]


class _Universe(NamedTuple):
    """A block universe's search-state layout: block b, by sorted label,
    owns the field at bit shifts[b] of a search state, holding its
    support's index + 1, 0 for the table. A field has n.bit_length() bits,
    so that its largest value, n, fits."""

    labels: tuple  # sorted block labels
    index: dict  # label -> its index in labels
    moves: tuple  # moves[b][d]: block b onto block d, [b][-1] onto the table
    shifts: tuple  # bit offset of each block's field
    place: tuple  # place[b][d] = (d + 1) << shifts[b]: b's field holding "on d"; [b][-1] = 0
    mask: int  # one field's bits, unshifted
    low: int  # the lowest bit of every field


@lru_cache(maxsize=64)  # problem files may bring any number of universes
def _universe(blocks):
    """The _Universe of a block universe. Every search shares its move
    tuples, in canonical order (by sorted label, the table last), so that
    the parent maps of long searches hold no copies."""
    labels = tuple(sorted(blocks))
    width = len(labels).bit_length()
    shifts = tuple(range(0, width * len(labels), width))
    return _Universe(
        labels,
        {b: i for i, b in enumerate(labels)},
        tuple(tuple((b, d) for d in (*labels, TABLE)) for b in labels),
        shifts,
        tuple((*((d + 1) << s for d in range(len(labels))), 0) for s in shifts),
        (1 << width) - 1,
        sum(1 << s for s in shifts),
    )


def encode(problem, state):
    """The search state of a problem state: a maze cell as it is, a blocks
    state as its packed supports."""
    if problem.domain == "maze":
        return state
    universe = _universe(problem.blocks)
    index, place = universe.index, universe.place
    return sum(place[index[top]][index[below]]
               for stack in state for below, top in zip(stack, stack[1:]))


def decode(problem, state):
    """The problem state of a search state; canonical, since stacks are
    built bottom first in universe order."""
    if problem.domain == "maze":
        return state
    universe = _universe(problem.blocks)
    labels, mask = universe.labels, universe.mask
    on = [state >> s & mask for s in universe.shifts]
    above = [None] * len(on)
    for block, below in enumerate(on):
        if below:
            above[below - 1] = block
    stacks = []
    for block, below in enumerate(on):
        if not below:
            stack = []
            while block is not None:
                stack.append(labels[block])
                block = above[block]
            stacks.append(tuple(stack))
    return tuple(stacks)


def _reconstruct(came_from, state, start):
    """The actions from start to state, following came_from's (parent,
    action) links back from state."""
    actions = []
    while state != start:
        parent, action = came_from[state]
        actions.append(action)
        state = parent
    actions.reverse()
    return tuple(actions)


def _manhattan(a, b):
    return abs(a[0] - b[0]) + abs(a[1] - b[1])


def heuristic_for(problem, goal):
    """The domain's admissible, consistent distance estimate to the search
    state `goal`, as a function h(state): Manhattan distance for mazes, for
    blocks the number of blocks whose support differs from the goal's: the
    fields of on ^ goal that are not zero. Adding each field's low bits to
    all ones carries into its top bit exactly when one of them is set, and
    never past it."""
    if problem.domain == "maze":
        return lambda state: _manhattan(state, goal)
    universe = _universe(problem.blocks)
    top = universe.low * (universe.mask + 1 >> 1)
    rest = universe.low * (universe.mask >> 1)
    return lambda on: ((((x := on ^ goal) & rest) + rest | x) & top).bit_count()


def expander(problem, goal=None):
    """The expansion kernel of a problem's search toward the search state
    goal: expand(state, t) gives (action, successor, t') for every valid
    action from state, in canonical order, t being state's heuristic_for
    value and t' its successor's. A maze t' is the successor's Manhattan
    distance; a blocks t' is t corrected for the moved block's field alone,
    since no other field changed. With no goal, every t' is None.

    A blocks expansion reads the state's fields once and builds only the
    clear blocks' moves, clear block b onto each other clear block d and
    then onto the table (d = -1) unless it is on it, each successor as b's
    cleared state plus place[b][d]."""
    if problem.domain == "maze":
        grid = problem.grid
        if goal is None:
            return lambda cell, t: [(a, nxt, None) for a, nxt in _maze_moves(grid, cell)]
        gr, gc = goal
        return lambda cell, t: [(a, nxt, abs(nxt[0] - gr) + abs(nxt[1] - gc))
                                for a, nxt in _maze_moves(grid, cell)]
    _, _, moves, shifts, place, mask, _ = _universe(problem.blocks)
    want = None if goal is None else [goal >> s & mask for s in shifts]

    def expand(state, t):
        on = [state >> s & mask for s in shifts]
        clear = [b for b in range(len(on)) if b + 1 not in on]
        dests = [*clear, -1]
        out = []
        append = out.append
        for b in clear:
            below, onto, put = on[b], moves[b], place[b]
            base = state - (below << shifts[b])
            if want is None:
                for d in dests if below else clear:
                    if d != b:
                        append((onto[d], base + put[d], None))
            else:
                w = want[b]
                t_b = t - (below != w)
                for d in dests if below else clear:
                    if d != b:
                        append((onto[d], base + put[d], t_b + (d + 1 != w)))
        return out

    return expand


def greedy_walk(problem, start, goal, step_cap=None):
    """Search-free walk: repeatedly take the valid action whose successor
    minimizes the domain heuristic to the goal, never revisiting a state;
    ties break in canonical action order. Stops at the goal, at a dead end,
    or after step_cap moves (default: 8 per block on blocks, none on maze,
    where a walk that never revisits a cell stops within its free cells).

    Returns (actions, states), the problem states running from start to
    where the walk stopped."""
    if step_cap is None:
        step_cap = 8 * len(problem.blocks) if problem.domain == "blocks" else sys.maxsize
    cur, goal = encode(problem, start), encode(problem, goal)
    expand = expander(problem, goal)
    t = heuristic_for(problem, goal)(cur)
    states = [cur]
    seen = {cur}
    actions = []
    while cur != goal and len(actions) < step_cap:
        best = None
        for action, nxt, score in expand(cur, t):
            if nxt in seen:
                continue
            if best is None or score < best[0]:
                best = (score, action, nxt)
        if best is None:
            break
        t, action, cur = best
        seen.add(cur)
        actions.append(action)
        states.append(cur)
    return tuple(actions), [decode(problem, s) for s in states]


def skeleton(problem):
    """Search-free state sequence from start to goal over which the
    controller places its search window, or None when there is none.

    One rule for both domains: the greedy walk's states when the walk
    reaches the goal, else None. Only the walk's cap differs: 2 moves per
    block on blocks, none on maze. The walk's moves are not
    charged as states explored."""
    cap = 2 * len(problem.blocks) if problem.domain == "blocks" else None
    _, states = greedy_walk(problem, problem.start, problem.goal, cap)
    return states if states[-1] == problem.goal else None


def validate_plan(problem, plan):
    """Execute the plan from the start state.

    Returns (True, None) when every transition is legal and the final
    state equals the goal, else (False, failing_step_index) with steps
    counted from 1; a goal mismatch at the end reports index len(plan).
    An empty plan is valid iff start == goal. A step that is no action of
    the problem (a move in a maze, an unknown block) fails like an illegal
    one.
    """
    state = problem.start
    for i, action in enumerate(plan):
        try:
            nxt, _ = step(problem, state, action)
        except (KeyError, ValueError):  # not an action of the problem's domain
            nxt = None
        if nxt is None:
            return False, i + 1
        state = nxt
    if state != problem.goal:
        return False, max(len(plan), 1)
    return True, None


def plan_states(problem, plan):
    """State sequence s0..sn traversed by a plan (must be valid steps)."""
    states = [problem.start]
    for action in plan:
        nxt, reason = step(problem, states[-1], action)
        if nxt is None:
            raise ValueError(f"illegal step {action!r}: {reason}")
        states.append(nxt)
    return states


def render_maze(problem):
    """Text rendering: '.' free, '#' obstacle, 'S' start, 'G' goal."""
    grid = problem.grid
    rows = []
    for r in range(grid.rows):
        row = []
        for c in range(grid.cols):
            if (r, c) == problem.start:
                row.append("S")
            elif (r, c) == problem.goal:
                row.append("G")
            elif (r, c) in grid.obstacles:
                row.append("#")
            else:
                row.append(".")
        rows.append("".join(row))
    return "\n".join(rows)
