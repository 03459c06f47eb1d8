"""Hardness functions over (sub-)goals and hardness-based ranking.

Three selectors: maze-obstacles counts obstacle cells in the rectangle
spanned by the two states, maze-manhattan is plain Manhattan distance,
blocks-distance charges 1 per misplaced block plus 1 more when the
misplaced block is buried in a stack.
"""

from __future__ import annotations

from functools import partial

from .domains import _manhattan

# The selectors that apply to each domain; the first is its default.
SELECTORS = {
    "maze": ("maze-obstacles", "maze-manhattan"),
    "blocks": ("blocks-distance",),
}


def _neighbor_maps(state):
    """(below, above) of a blocks state: each block's neighbor under and
    over it, None for the table and for a clear top."""
    below, above = {}, {}
    for stack in state:
        prev = None
        for block in stack:
            below[block] = prev
            if prev is not None:
                above[prev] = block
            prev = block
        above[prev] = None
    return below, above


def blocks_distance(a, b):
    """A block is misplaced when its neighbor below or above differs
    between the two states; buried misplaced blocks cost double."""
    below_a, above_a = _neighbor_maps(a)
    below_b, above_b = _neighbor_maps(b)
    cost = 0
    for block in below_a:
        misplaced = below_a[block] != below_b.get(block) or above_a[block] != above_b.get(block)
        if misplaced:
            cost += 1
            if below_a[block] is not None:
                cost += 1
    return cost


def obstacle_count(grid, a, b):
    """The number of the grid's obstacle cells in the rectangle that has
    cells a and b at opposite corners, its border rows and columns
    included; symmetric in a and b."""
    r0, r1 = a[0], b[0]
    if r0 > r1:
        r0, r1 = r1, r0
    c0, c1 = a[1], b[1]
    if c0 > c1:
        c0, c1 = c1, c0
    count = 0
    for r, c in grid.obstacles:
        if r0 <= r <= r1 and c0 <= c <= c1:
            count += 1
    return count


def hardness_fn(selector, problem):
    """h(a, b) over the problem's states under the named selector, or under
    the domain's default when selector is None; h(a, a) is 0."""
    name = selector or SELECTORS[problem.domain][0]
    if name == "maze-obstacles":
        measure = partial(obstacle_count, problem.grid)
    elif name == "maze-manhattan":
        measure = _manhattan
    elif name == "blocks-distance":
        measure = blocks_distance
    else:
        raise ValueError(f"unknown hardness selector {name!r}")
    return lambda a, b: 0 if a == b else measure(a, b)


def rank_problems(problems, selector):
    """Stable ascending sort by hardness of the (start, goal) pair."""
    return sorted(problems, key=lambda p: hardness_fn(selector, p)(p.start, p.goal))
