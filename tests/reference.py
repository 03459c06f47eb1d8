"""Reference implementations that the tests hold the package against."""

import heapq
from collections import Counter
from dataclasses import replace

from hybridplan.domains import _reconstruct, encode, heuristic_for, valid_actions


def truncate_run(run, cap):
    """Cut a run after `cap` recorded events. A cut run has no plan: a
    search generates its goal in its last expansion, so a run that found
    its goal had recorded all its events by then."""
    if cap < 1:
        raise ValueError("cap must be >= 1")
    if cap >= len(run.events):
        return run
    return replace(run, events=run.events[:cap], plan=None)


def capped_totals(sizes):
    """totals[c] = sum(min(s, c) for s in sizes) for every c from 0 to
    max(sizes), as the running total total(c) = total(c - 1) + #{sizes >= c}."""
    at = Counter(sizes)
    reaching = len(sizes) - at[0]  # sizes >= 1
    totals = [0]
    for c in range(1, max(sizes) + 1):
        totals.append(totals[-1] + reaching)
        reaching -= at[c]
    return totals


def blocks_optimal_plan(problem):
    """Lean A* (mismatch heuristic, admissible and consistent) returning an
    optimal plan, or None when unreachable."""
    start, goal = encode(problem, problem.start), encode(problem, problem.goal)
    if start == goal:
        return ()
    h = heuristic_for(problem, goal)
    g_score = {start: 0}
    came_from = {}
    counter = 0
    frontier = [(h(start), counter, start)]
    closed = set()
    while frontier:
        _, _, current = heapq.heappop(frontier)
        if current in closed:
            continue
        closed.add(current)
        for action, nxt in valid_actions(problem, current):
            tentative = g_score[current] + 1
            if nxt in g_score and tentative >= g_score[nxt]:
                continue
            g_score[nxt] = tentative
            came_from[nxt] = (current, action)
            if nxt == goal:
                return _reconstruct(came_from, goal, start)
            counter += 1
            heapq.heappush(frontier, (tentative + h(nxt), counter, nxt))
    return None
