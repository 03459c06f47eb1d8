"""Deliberate search planners (A*, BFS, DFS) with full exploration traces.

One search loop serves all three engines; they differ only in their
frontier (a heap on (f, t, insertion order), a FIFO queue, a LIFO stack).
Every probe made while expanding a state is logged as an ExplorationEvent,
including invalid ones (out-of-bounds, obstacle, precondition failure,
already-visited), so that a run's states-explored count covers both valid
and invalid explorations. The recording caps of TraceConfig apply to every
engine: the valid cap keeps the lowest-t probes of an expansion (probe
order for BFS and DFS, which have no t), the invalid cap a seeded random
sample. Runs can be truncated afterwards to a state budget: a truncated
run keeps its plan only if the goal was discovered within the budget.
"""

from __future__ import annotations

import heapq
import itertools
import random
from collections import deque
from dataclasses import dataclass, replace

from .domains import _expand, heuristic_for

VALID = "valid"
INVALID = "invalid"


@dataclass(frozen=True)
class TraceConfig:
    """Recording options for a search run.

    valid_cap / invalid_cap limit how many valid / invalid probes get
    recorded per expansion (the blocks-domain verbalization cap); capped
    probes still enter the frontier. seed drives the random choice of
    which invalid probes to keep.
    """

    valid_cap: int | None = None
    invalid_cap: int | None = None
    seed: int = 0


@dataclass(frozen=True)
class ExplorationEvent:
    index: int
    state: object  # probed successor; None when the probe has no legal result
    parent_state: object
    action: object
    validity: str  # "valid" | "invalid"
    reason: str | None = None
    g: int | None = None
    t: int | None = None
    f: int | None = None


@dataclass(frozen=True)
class SearchRun:
    problem: object
    algorithm: str  # "astar" | "bfs" | "dfs"
    events: tuple
    plan: tuple | None
    events_at_goal: int | None  # recorded-event count when the goal was found

    @property
    def states_explored(self):
        return len(self.events)


def _reconstruct(came_from, state, start):
    actions = []
    while state != start:
        parent, action = came_from[state]
        actions.append(action)
        state = parent
    actions.reverse()
    return tuple(actions)


def _frontier(algorithm, start, t):
    """(items, pop, push) for an engine's frontier. push takes one
    expansion's children as (state, g, t) tuples in probe order.

    A* pops the lowest (f, t, insertion order); BFS is a FIFO queue; DFS is
    a LIFO stack that gets each expansion's children in reverse, so the
    first canonical action is explored first."""
    if algorithm == "astar":
        items = [(t, t, 0, start)]
        tie = itertools.count(1)

        def push(children):
            for state, g, t in children:
                heapq.heappush(items, (g + t, t, next(tie), state))

        return items, lambda: heapq.heappop(items)[3], push
    items = deque([start])
    if algorithm == "bfs":
        return items, items.popleft, lambda children: items.extend(c[0] for c in children)
    return items, items.pop, lambda children: items.extend(c[0] for c in reversed(children))


def _record(events, probes, parent_state, config, rng):
    """Append one expansion's probes, given as (state, action, validity,
    reason, g, t, f) tuples, to events under the recording caps.

    The valid cap keeps the lowest-t probes (a stable sort, so probe order
    for engines without t); the invalid cap keeps a seeded random sample.
    Kept probes stay in probe order."""
    valid_cap, invalid_cap = config.valid_cap, config.invalid_cap
    if valid_cap is not None or invalid_cap is not None:
        valid = [i for i, p in enumerate(probes) if p[2] == VALID]
        invalid = [i for i, p in enumerate(probes) if p[2] == INVALID]
        if valid_cap is not None and len(valid) > valid_cap:
            valid = sorted(valid, key=lambda i: probes[i][5] or 0)[:valid_cap]
        if invalid_cap is not None and len(invalid) > invalid_cap:
            invalid = rng.sample(invalid, invalid_cap)
        keep = set(valid) | set(invalid)
        probes = [p for i, p in enumerate(probes) if i in keep]
    for state, action, validity, reason, g, t, f in probes:
        events.append(ExplorationEvent(len(events), state, parent_state,
                                       action, validity, reason, g, t, f))


def _search(problem, algorithm, config):
    """The search loop shared by every engine; only the frontier differs.

    A state counts as visited once generated. A* alone re-opens a generated,
    unclosed state that is reached more cheaply. The search stops after the
    expansion that generates the goal."""
    start, goal = problem.start, problem.goal
    if start == goal:
        return SearchRun(problem, algorithm, (), (), 0)
    h = heuristic_for(problem, goal) if algorithm == "astar" else None
    frontier, pop, push = _frontier(algorithm, start, h(start) if h else None)
    rng = random.Random(config.seed)
    events = []
    g_score = {start: 0}
    came_from = {}
    closed = set()
    while frontier:
        current = pop()
        if current in closed:
            continue
        closed.add(current)
        g = g_score[current] + 1
        probes, children = [], []
        goal_found = False
        for action, nxt, reason in _expand(problem, current):
            if nxt is None:
                probes.append((None, action, INVALID, reason, None, None, None))
                continue
            if nxt in g_score:
                probes.append((nxt, action, INVALID, "already-visited", None, None, None))
                if h and g < g_score[nxt] and nxt not in closed:
                    g_score[nxt] = g
                    came_from[nxt] = (current, action)
                    children.append((nxt, g, h(nxt)))
                continue
            g_score[nxt] = g
            came_from[nxt] = (current, action)
            t = h(nxt) if h else None
            probes.append((nxt, action, VALID, None, g, t, g + t if h else None))
            if nxt == goal:
                goal_found = True
            else:
                children.append((nxt, g, t))
        _record(events, probes, current, config, rng)
        if goal_found:
            plan = _reconstruct(came_from, goal, start)
            return SearchRun(problem, algorithm, tuple(events), plan, len(events))
        push(children)
    return SearchRun(problem, algorithm, tuple(events), None, None)


def astar(problem, config=TraceConfig()):
    """A* with unit edge costs; optimal under the admissible, consistent
    domain heuristics."""
    return _search(problem, "astar", config)


def bfs(problem, config=TraceConfig()):
    """Breadth-first search; optimal in these unit-cost domains."""
    return _search(problem, "bfs", config)


def dfs(problem, config=TraceConfig()):
    """Depth-first search; returns the first plan found, not necessarily
    optimal."""
    return _search(problem, "dfs", config)


ENGINES = {"astar": astar, "bfs": bfs, "dfs": dfs}


def run_engine(name, problem, config=TraceConfig()):
    try:
        engine = ENGINES[name]
    except KeyError:
        raise ValueError(f"unknown engine {name!r}") from None
    return engine(problem, config)


def reached_within(events_at_goal, cap):
    """Whether a run that found its goal after `events_at_goal` recorded
    events (None: never) keeps its plan when cut after `cap` events."""
    return events_at_goal is not None and events_at_goal <= cap


def truncate_run(run, cap):
    """Cut a run after `cap` recorded events. The plan survives only if the
    goal had been discovered within the first `cap` events."""
    if cap < 1:
        raise ValueError("cap must be >= 1")
    if cap >= len(run.events):
        return run
    reached = reached_within(run.events_at_goal, cap)
    return replace(
        run,
        events=run.events[:cap],
        plan=run.plan if reached else None,
        events_at_goal=run.events_at_goal if reached else None,
    )

