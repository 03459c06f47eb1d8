"""Deliberate search planners (A*, BFS, DFS) with full exploration traces.

One search loop serves all three engines; they differ only in their
frontier. A* pops the lowest (f, t, insertion order) from a heap and
pushes each fresh or re-opened child as the loop meets it, in probe order;
BFS appends an expansion's fresh children to a FIFO queue in one go, and
DFS to a LIFO stack in reverse, so that the first canonical action is
explored first.
Every probe made while expanding a state counts as explored, including
invalid ones (out-of-bounds, obstacle, precondition failure,
already-visited), so that a run's states-explored count covers both valid
and invalid explorations. The recording caps of TraceConfig apply to every
engine: per expansion, the valid cap keeps the lowest-t valid probes (probe
order for BFS and DFS, which have no t), the invalid cap a seeded random
sample of the invalid ones.

The loop runs on domains' search states (a maze cell, a blocks state
packed into one int), which it only hashes and compares. The domain's
expansion kernel (domains.expander) gives each expansion's valid
successors with their heuristic t, worked out from the parent's t under
A* and None for BFS and DFS, so the loop scores no state from scratch but
the start. It hands each expansion's (action, successor, t) triples to
one of two accounts:

- the event recorder (astar, bfs, dfs, run_engine) chooses the kept probes
  of candidate_actions and labels only those, an invalid one with step's
  reason, as ExplorationEvents, the corpora's trace. An event holds only
  what the recorder knows; its step index, validity word and f = g + t
  are worked out when textio renders it. Its states are problem states,
  each decoded from its search state once per run;
- the counter (explore, the scoring entry) takes the fixed probe count less
  the fresh successors as invalid, adds min(valid, valid cap) + min(invalid,
  invalid cap) and builds no probe, event or random sample. The caps choose
  which probes are recorded, never how many: the count is len(events).

A search stops at the expansion that generates its goal, so a run that
finds a plan has counted all its states explored by then: cut to a state
budget, it keeps its plan only when its count is within the budget.
"""

from __future__ import annotations

import heapq
import random
from collections import deque
from dataclasses import dataclass
from typing import NamedTuple

from .domains import (
    _reconstruct,
    candidate_actions,
    decode,
    encode,
    expander,
    heuristic_for,
    step,
)


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


class ExplorationEvent(NamedTuple):
    """One recorded probe: action tried from parent_state. A probe is valid
    exactly when it has no reason; a valid one carries its g and, under A*,
    its heuristic t."""

    state: object  # probed successor as a problem state; None when the probe has no legal result
    parent_state: object
    action: object
    reason: str | None = None
    g: int | None = None
    t: int | None = None


@dataclass(frozen=True)
class SearchRun:
    """A recorded run; its states explored is len(events)."""

    events: tuple
    plan: tuple | None


class _Decoded(dict):
    """Each search state's problem state, decoded on first use."""

    def __init__(self, problem):
        self.problem = problem

    def __missing__(self, state):
        value = self[state] = decode(self.problem, state)
        return value


def _recorder(problem, config, events):
    """The event account: appends each expansion's probes, those of
    candidate_actions, to events as ExplorationEvents under the recording
    caps; returns how many.

    The valid cap keeps the lowest-t fresh probes (a stable sort, so probe
    order for engines without t); the invalid cap keeps a seeded random
    sample of the positions of the others. Only the kept probes
    are labelled, in probe order: a probe whose successor is not fresh is
    already-visited, one without a successor gets step's reason. The
    seeded sample, and so config.seed, exists only under an invalid cap."""
    valid_cap, invalid_cap = config.valid_cap, config.invalid_cap
    capped = valid_cap is not None or invalid_cap is not None
    rng = random.Random(config.seed) if invalid_cap is not None else None
    probes = candidate_actions(problem)
    position = {action: i for i, action in enumerate(probes)} if capped else None
    # a maze cell is its own problem state; no event pays to decode it
    decoded = _Decoded(problem) if problem.domain == "blocks" else None

    def record(parent, g, successors, fresh):
        nexts = {a: nxt for a, nxt, _ in successors}
        kept = probes
        if capped:
            # successors come in probe order, so equal t keep probe order below
            valid = {position[a]: t or 0 for a, nxt, t in successors if nxt in fresh}
            invalid = [i for i in range(len(probes)) if i not in valid]
            if invalid_cap is not None and len(invalid) > invalid_cap:
                keep = set(rng.sample(invalid, invalid_cap))
            else:
                keep = set(invalid)
            keep.update(sorted(valid, key=valid.get)[:valid_cap])
            kept = [probes[i] for i in sorted(keep)]
        if decoded is not None:
            parent = decoded[parent]
        for action in kept:
            nxt = nexts.get(action)
            state = nxt if decoded is None or nxt is None else decoded[nxt]
            if nxt in fresh:
                event = ExplorationEvent(state, parent, action, None, g, fresh[nxt])
            elif nxt is not None:
                event = ExplorationEvent(state, parent, action, "already-visited")
            else:
                event = ExplorationEvent(None, parent, action, step(problem, parent, action)[1])
            events.append(event)
        return len(kept)

    return record


def _counter(problem, config):
    """The counting account: how many events the recorder would keep of an
    expansion, from the universe's fixed probe count and its fresh states."""
    valid_cap, invalid_cap = config.valid_cap, config.invalid_cap
    probes = len(candidate_actions(problem))

    def count(parent, g, successors, fresh):
        valid = len(fresh)
        invalid = probes - valid
        if valid_cap is not None and valid > valid_cap:
            valid = valid_cap
        if invalid_cap is not None and invalid > invalid_cap:
            invalid = invalid_cap
        return valid + invalid

    return count


def _search(problem, start, goal, algorithm, account):
    """The search loop shared by every engine; only the frontier differs.

    A state counts as visited once generated. A* alone re-opens a generated,
    unclosed state that is reached more cheaply. Each expansion's
    successors, the expander's (action, successor, t) triples, are passed
    to account(parent, g, successors, fresh), fresh mapping each newly
    generated state to its t, which returns how many states it counts as
    explored. The fresh states are BFS's and DFS's children; A* has pushed
    its own by then. The search stops after the expansion that generates
    the goal.

    Returns (plan, states explored); the plan is None when the goal is
    never found."""
    if start == goal:
        return (), 0
    start, goal = encode(problem, start), encode(problem, goal)
    astar = algorithm == "astar"
    expand = expander(problem, goal if astar else None)
    if astar:
        t = heuristic_for(problem, goal)(start)
        frontier, tie = [(t, t, 0, start)], 0
        pop, push = heapq.heappop, heapq.heappush
    else:
        t, lifo = None, algorithm == "dfs"
        frontier = deque([start])
        pop = frontier.pop if lifo else frontier.popleft
    explored = 0
    g_score = {start: 0}
    g_of = g_score.get
    came_from = {}
    closed = set()
    while frontier:
        if astar:
            _, t, _, current = pop(frontier)
        else:
            current = pop()
        if current in closed:
            continue
        closed.add(current)
        g = g_score[current] + 1
        successors = expand(current, t)
        fresh = {}
        for action, nxt, t_nxt in successors:
            old = g_of(nxt)
            if old is None:
                fresh[nxt] = t_nxt
            elif not astar or g >= old or nxt in closed:
                continue
            g_score[nxt] = g
            came_from[nxt] = (current, action)
            if astar:
                tie += 1
                push(frontier, (g + t_nxt, t_nxt, tie, nxt))
        explored += account(current, g, successors, fresh)
        if goal in fresh:
            return _reconstruct(came_from, goal, start), explored
        if not astar:
            frontier.extend(reversed(fresh) if lifo else fresh)
    return None, explored


def _traced(problem, algorithm, config):
    events = []
    plan, _ = _search(problem, problem.start, problem.goal, algorithm,
                      _recorder(problem, config, events))
    return SearchRun(tuple(events), plan)


def astar(problem, config=TraceConfig()):
    """A* with unit edge costs; optimal under the admissible, consistent
    domain heuristics."""
    return _traced(problem, "astar", config)


def bfs(problem, config=TraceConfig()):
    """Breadth-first search; optimal in these unit-cost domains."""
    return _traced(problem, "bfs", config)


def dfs(problem, config=TraceConfig()):
    """Depth-first search; returns the first plan found, not necessarily
    optimal."""
    return _traced(problem, "dfs", config)


ENGINES = {"astar": astar, "bfs": bfs, "dfs": dfs}


def run_engine(name, problem, config=TraceConfig()):
    try:
        engine = ENGINES[name]
    except KeyError:
        raise ValueError(f"unknown engine {name!r}") from None
    return engine(problem, config)


def explore(name, problem, start, goal, config=TraceConfig()):
    """Score engine `name` from `start` to `goal` in the problem's maze or
    block universe without building a trace: (plan, states explored),
    equal to the plan and len(events) of the engine's run."""
    if name not in ENGINES:
        raise ValueError(f"unknown engine {name!r}")
    return _search(problem, start, goal, name, _counter(problem, config))
