"""Seeded problem-set generators for both domains.

Mazes: 5x5 grids with a fixed obstacle count, balanced so every optimal
plan length bucket holds an equal share per split. Blocks: random stack
configurations of 4-7 blocks, split by optimal plan length so the test
split is strictly longer-horizon than train/val.

The maze oracle is a plain BFS over the moves that search expands
(domains._maze_moves); tests/reference.py holds it equal to one over
maze_step. The blocks gold plans are the engines' own A* plans:
blocks_optimal_plan runs search's loop under an account that counts
nothing, on one problem per block universe, which generate_blocks_dataset
builds once per call. Two checks stand apart from that loop: the
exhaustive BFS of blocks_bfs_length, over the goal-free kernel
(domains.expander), whose lengths the tests hold equal to the oracle's;
and tests/reference.blocks_optimal_plan, an A* that expands through step
and scores each successor with heuristic_for, whose plans the tests hold
equal to the oracle's.
"""

from __future__ import annotations

import random
import string
from collections import deque
from dataclasses import dataclass

from .domains import (
    MazeGrid,
    PlanningProblem,
    _maze_moves,
    _reconstruct,
    canonical_blocks,
    encode,
    expander,
)
from .search import _search


class GenerationExhausted(Exception):
    """Raised when a bucket cannot be filled within the attempt limit."""


@dataclass(frozen=True)
class MazeDatasetConfig:
    rows: int = 5
    cols: int = 5
    obstacle_fraction: float = 0.4
    min_length: int = 1
    max_length: int = 8
    split_sizes: tuple = (3200, 400, 400)  # train / val / test
    max_attempts: int = 2_000_000

    @property
    def obstacle_count(self):
        return int(self.obstacle_fraction * self.rows * self.cols)


@dataclass(frozen=True)
class BlocksDatasetConfig:
    min_blocks: int = 4
    max_blocks: int = 7
    split_sizes: tuple = (3000, 250, 200)
    train_lengths: tuple = (1, 6)  # also val
    test_lengths: tuple = (7, 10)
    max_attempts: int = 2_000_000


SPLITS = ("train", "val", "test")


def maze_distances(grid, start):
    """BFS distances and parents from start over free cells, expanding the
    maze moves that search expands (domains._maze_moves)."""
    dist = {start: 0}
    parent = {}
    queue = deque([start])
    while queue:
        cur = queue.popleft()
        for action, nxt in _maze_moves(grid, cur):
            if nxt not in dist:
                dist[nxt] = dist[cur] + 1
                parent[nxt] = (cur, action)
                queue.append(nxt)
    return dist, parent


def generate_maze_dataset(seed, config=MazeDatasetConfig()):
    """Returns {split: [PlanningProblem]} balanced over plan lengths."""
    rng = random.Random(seed)
    lengths = range(config.min_length, config.max_length + 1)
    n_lengths = len(lengths)
    for size in config.split_sizes:
        if size % n_lengths != 0:
            raise ValueError("split sizes must divide evenly across length buckets")
    quota = {
        (split, length): size // n_lengths
        for split, size in zip(SPLITS, config.split_sizes)
        for length in lengths
    }
    cells = [(r, c) for r in range(config.rows) for c in range(config.cols)]
    out = {split: [] for split in SPLITS}
    attempts = 0
    while any(quota.values()):
        attempts += 1
        if attempts > config.max_attempts:
            missing = {k: v for k, v in quota.items() if v}
            raise GenerationExhausted(f"unfilled maze buckets after {attempts - 1} attempts: {missing}")
        obstacles = frozenset(rng.sample(cells, config.obstacle_count))
        grid = MazeGrid(config.rows, config.cols, obstacles)
        free = grid.free_cells()
        start = rng.choice(free)
        dist, parent = maze_distances(grid, start)
        candidates = [
            (goal, d)
            for goal, d in dist.items()
            if config.min_length <= d <= config.max_length
        ]
        rng.shuffle(candidates)
        for goal, length in candidates:
            open_splits = [s for s in SPLITS if quota[(s, length)] > 0]
            if not open_splits:
                continue
            # fill the neediest split first so buckets close together
            split = max(open_splits, key=lambda s: (quota[(s, length)], -SPLITS.index(s)))
            quota[(split, length)] -= 1
            out[split].append((grid, start, goal, _reconstruct(parent, goal, start)))
            break  # one problem per sampled grid keeps grids varied
    for split in SPLITS:
        # ids follow the shuffled order; each problem is built once, with its id
        rng.shuffle(out[split])
        out[split] = [
            PlanningProblem(domain="maze", start=start, goal=goal, grid=grid, gold_plan=plan,
                            optimal_length=len(plan), split=split,
                            problem_id=f"maze-{split}-{i:05d}")
            for i, (grid, start, goal, plan) in enumerate(out[split])
        ]
    return out


def random_blocks_state(rng, blocks):
    """Random stack configuration: blocks placed one by one, each going
    onto a uniformly chosen existing stack or a new one."""
    order = list(blocks)
    rng.shuffle(order)
    stacks = []
    for block in order:
        slot = rng.randrange(len(stacks) + 1)
        if slot == len(stacks):
            stacks.append([block])
        else:
            stacks[slot].append(block)
    return canonical_blocks(stacks)


def _uncounted(parent, g, successors, fresh):
    """The account of a search whose explored states nobody reads."""
    return 0


def blocks_optimal_plan(problem, start, goal):
    """An optimal plan from start to goal in the problem's block universe,
    or None when unreachable: the plan of the engines' A* (mismatch
    heuristic, admissible and consistent), which counts nothing here."""
    return _search(problem, start, goal, "astar", _uncounted)[0]


def generate_blocks_dataset(seed, config=BlocksDatasetConfig()):
    """Returns {split: [PlanningProblem]} with train/val in the short
    length band and test in the long one; duplicate (start, goal) pairs
    are dropped."""
    rng = random.Random(seed)
    remaining = dict(zip(SPLITS, config.split_sizes))
    out = {split: [] for split in SPLITS}
    seen = set()
    # one problem per block universe, through which the oracle searches it
    universes = {}
    for n in range(config.min_blocks, config.max_blocks + 1):
        blocks = tuple(string.ascii_uppercase[:n])
        universes[n] = PlanningProblem(domain="blocks", start=(blocks,), goal=(blocks,),
                                       blocks=blocks)
    attempts = 0
    while any(remaining.values()):
        attempts += 1
        if attempts > config.max_attempts:
            raise GenerationExhausted(f"unfilled blocks splits after {attempts - 1} attempts: {remaining}")
        short_open = remaining["train"] > 0 or remaining["val"] > 0
        if short_open:
            n = rng.randint(config.min_blocks, config.max_blocks)
        else:
            # long-horizon pairs come almost exclusively from big universes
            n = rng.randint(max(config.min_blocks, config.max_blocks - 1), config.max_blocks)
        universe = universes[n]
        blocks = universe.blocks
        start = random_blocks_state(rng, blocks)
        goal = random_blocks_state(rng, blocks)
        if start == goal:
            continue
        key = (start, goal)
        if key in seen:
            continue
        plan = blocks_optimal_plan(universe, start, goal)
        length = len(plan)
        lo, hi = config.train_lengths
        tlo, thi = config.test_lengths
        if lo <= length <= hi and short_open:
            split = max(("train", "val"), key=lambda s: remaining[s])
        elif tlo <= length <= thi and remaining["test"] > 0:
            split = "test"
        else:
            continue
        seen.add(key)
        remaining[split] -= 1
        out[split].append(PlanningProblem(
            domain="blocks", start=start, goal=goal, blocks=blocks, gold_plan=plan,
            optimal_length=length, split=split, problem_id=f"blocks-{split}-{len(out[split]):05d}"))
    return out


def blocks_bfs_length(problem):
    """Exhaustive BFS oracle length; independent of the A* route."""
    if problem.start == problem.goal:
        return 0
    start, goal = encode(problem, problem.start), encode(problem, problem.goal)
    expand = expander(problem)
    dist = {start: 0}
    queue = deque([start])
    while queue:
        cur = queue.popleft()
        for _, nxt, _ in expand(cur, None):
            if nxt in dist:
                continue
            dist[nxt] = dist[cur] + 1
            if nxt == goal:
                return dist[nxt]
            queue.append(nxt)
    return None
