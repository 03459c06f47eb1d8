"""Deliberate search planners (A*, BFS, DFS) with full exploration traces.

One search loop serves all three engines; they differ only in their
frontier. A* pops the lowest (f, t, insertion order) from a heap and
pushes each fresh or re-opened child as the loop meets it, in probe order;
BFS appends an expansion's fresh children to a FIFO queue in one go, and
DFS to a LIFO stack in reverse, so that the first canonical action is
explored first.
Every probe made while expanding a state counts as explored, including
invalid ones (out-of-bounds, obstacle, precondition failure,
already-visited). Per expansion, TraceConfig's valid cap keeps the lowest-t
valid probes (probe order for BFS and DFS, which have no t), its invalid
cap a seeded random sample of the invalid ones.

The loop runs on domains' search states (a maze cell, a blocks state
packed into one int), which it only hashes and compares. The kernel
(domains.expander) gives each expansion's valid successors with their
heuristic t (None for BFS and DFS), worked out from the parent's, so the
loop scores no state from scratch but the start. It hands each
expansion's (action, successor, t) triples to one of two accounts:

- the recorder (record, and astar, bfs, dfs, run_engine) labels only the
  kept probes, an invalid one with step's reason, and hands each to a
  sink: textio's CorpusWriter, or the one building ExplorationEvents;
- the counter (explore, the scoring entry) counts min(valid, valid cap) +
  min(invalid, invalid cap), invalid being the fixed probe count less the
  fresh successors, and builds no probe, event or sample: the count is
  len(events).

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
    Decoded,
    _reconstruct,
    candidate_actions,
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


def _recorder(problem, config, sink, decoded):
    """The recording account: hands each expansion's kept probes, in probe
    order, to sink(state, parent, action, reason, g, t); returns how many.
    A fresh successor is valid, one not fresh already-visited, and a probe
    without one (state None) gets step's reason, from decoded[parent] on
    blocks. The seeded sample, so config.seed, exists only under an
    invalid cap."""
    valid_cap, invalid_cap = config.valid_cap, config.invalid_cap
    capped = valid_cap is not None or invalid_cap is not None
    rng = random.Random(config.seed) if invalid_cap is not None else None
    probes = candidate_actions(problem)
    position = {action: i for i, action in enumerate(probes)} if capped else None

    def account(parent, g, successors, fresh):
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
        here = parent if decoded is None else decoded[parent]
        for action in kept:
            nxt = nexts.get(action)
            if nxt in fresh:
                sink(nxt, parent, action, None, g, fresh[nxt])
            elif nxt is not None:
                sink(nxt, parent, action, "already-visited", None, None)
            else:
                sink(None, parent, action, step(problem, here, action)[1], None, None)
        return len(kept)

    return account


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


def record(name, problem, config, sink, decoded):
    """Engine `name`'s plan, each kept probe handed to sink over search
    states (see _recorder); decoded is a domains.Decoded."""
    plan, _ = _search(problem, problem.start, problem.goal, _engine(name),
                      _recorder(problem, config, sink, decoded))
    return plan


def _traced(problem, algorithm, config):
    """A SearchRun; its blocks events are decoded after the search."""
    events = []

    def sink(*probe):
        events.append(ExplorationEvent(*probe))

    decoded = Decoded(problem) if problem.domain == "blocks" else None
    plan, _ = _search(problem, problem.start, problem.goal, algorithm,
                      _recorder(problem, config, sink, decoded))
    if decoded is not None:
        events = [ExplorationEvent(None if e.state is None else decoded[e.state],
                                   decoded[e.parent_state], e.action, e.reason, e.g, e.t)
                  for e in events]
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


def _engine(name):
    if name not in ENGINES:
        raise ValueError(f"unknown engine {name!r}")
    return name


def run_engine(name, problem, config=TraceConfig()):
    return ENGINES[_engine(name)](problem, config)


def explore(name, problem, start, goal, config=TraceConfig()):
    """Score engine `name` from `start` to `goal` in the problem's maze or
    block universe without building a trace: (plan, states explored),
    equal to the plan and len(events) of the engine's run."""
    return _search(problem, start, goal, _engine(name), _counter(problem, config))
