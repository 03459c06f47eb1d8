"""Reference implementations that the tests hold the package against."""

import heapq
import itertools
import json
import sys
from collections import Counter, deque
from dataclasses import replace

from hybridplan.controller import SYS1, SYS2, easy_count, meta_plan, window_length
from hybridplan.domains import (
    MAZE_ACTIONS,
    _reconstruct,
    candidate_actions,
    decode,
    encode,
    heuristic_for,
    plan_states,
    step,
)
from hybridplan.hardness import hardness_fn, rank_problems
from hybridplan.search import run_engine
from hybridplan.textio import (
    TEMPLATE_VERSION,
    metaplan_record,
    problem_from_json,
    problem_input_text,
    render_action,
    render_state,
    trace_record,
    verbalize_plan,
)


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


def controller_dataset(problems, config):
    """The controller dataset as one loop over the ranked problems that
    picks each record's shape and builds its meta-plan with meta_plan and
    the selector's hardness function: the floor((1-x)*N) easiest are one
    Sys1 sub-goal; a hard problem with no step, or under no-subgoal, is one
    Sys2 sub-goal; any other gets a window of window_length(x, n) steps
    over its gold plan's states."""
    ranked = rank_problems(problems, config.selector)
    n_easy = easy_count(config.x, len(ranked))
    records = []
    for i, problem in enumerate(ranked):
        states = (problem.start, problem.goal)
        if i < n_easy:
            shape = SYS1
        elif config.variant == "no-subgoal" or not problem.gold_plan:
            shape = SYS2
        else:
            states = plan_states(problem, problem.gold_plan)
            shape = window_length(config.x, len(states) - 1)
        hfn = hardness_fn(config.selector, problem)
        records.append((problem, meta_plan(states, shape, config.variant, hfn)))
    return records


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
        for action, nxt in valid_successors(problem, current):
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


def trace_mirror(run):
    """A run's structured trace mirror as a dict, {"events": [...],
    "plan": [...] | None}, one dict per event."""
    events = []
    for index, e in enumerate(run.events):
        event = {"index": index, "from": render_state(e.parent_state),
                 "action": render_action(e.action)}
        if e.reason is None:
            f = None if e.t is None else e.g + e.t
            event.update(validity="valid", to=render_state(e.state), g=e.g, t=e.t, f=f)
        else:
            event["validity"] = f"invalid:{e.reason}"
        events.append(event)
    plan = None if run.plan is None else [render_action(a) for a in run.plan]
    return {"events": events, "plan": plan}


def corpus_lines(problems, controller_records, engine, trace):
    """{kind: lines} of the three corpora that emit_datasets writes, each
    line a record dict dumped with sorted keys, its mirror a dict."""
    def line(problem, kind, target_text, structured):
        record = {"id": problem.problem_id, "kind": kind, "template_version": TEMPLATE_VERSION,
                  "input_text": problem_input_text(problem), "target_text": target_text,
                  "structured": structured}
        return json.dumps(record, sort_keys=True) + "\n"

    sys2 = []
    for p in problems:
        run = run_engine(engine, p, trace)
        sys2.append(line(p, "sys2", trace_record(run)[0], trace_mirror(run)))
    return {
        "sys1": [line(p, "sys1", verbalize_plan(p.gold_plan),
                      {"actions": [render_action(a) for a in p.gold_plan]}) for p in problems],
        "sys2": sys2,
        "controller": [line(p, "controller", *metaplan_record(meta))
                       for p, meta in controller_records],
    }


# up decreases the row index
MAZE_DELTAS = {"up": (-1, 0), "down": (1, 0), "left": (0, -1), "right": (0, 1)}


def load_problem_lines(path):
    """What load_problems(path) gives for a file of one domain, each line
    decoded by json.loads: ({split: [problem]}, None), or (None, the number
    of the first line that json.loads or problem_from_json rejects)."""
    out = {}
    with open(path, encoding="utf-8") as fh:
        for i, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                problem = problem_from_json(json.loads(line))
            except (AttributeError, KeyError, TypeError, ValueError):
                return None, i
            out.setdefault(problem.split or "all", []).append(problem)
    return out, None


def geometry(problem):
    """What a problem's plans and searches depend on, read off its fields:
    its domain, grid fields or block universe, start and goal."""
    grid = problem.grid
    if grid is None:
        return problem.domain, problem.blocks, problem.start, problem.goal
    return problem.domain, grid.rows, grid.cols, grid.obstacles, problem.start, problem.goal


def maze_grid_error(rows, cols, obstacles):
    """The message of the ValueError that MazeGrid(rows, cols, obstacles)
    raises, or None when the grid is well formed: the obstacle loop, naming
    the first bad obstacle in iteration order."""
    if type(rows) is not int or type(cols) is not int or rows <= 0 or cols <= 0:
        return "grid dimensions must be positive integers"
    for (r, c) in obstacles:
        if type(r) is not int or type(c) is not int or not (0 <= r < rows and 0 <= c < cols):
            return f"obstacle {(r, c)} is not a cell of the grid"
    return None


def maze_step(grid, state, action):
    """One maze action through the grid's bounds test: (next_state, None)
    or (None, reason)."""
    dr, dc = MAZE_DELTAS[action]
    nxt = (state[0] + dr, state[1] + dc)
    if not (0 <= nxt[0] < grid.rows and 0 <= nxt[1] < grid.cols):
        return None, "out-of-bounds"
    if nxt in grid.obstacles:
        return None, "obstacle"
    return nxt, None


def maze_moves(grid, cell):
    """(action, next cell) for each action of MAZE_ACTIONS that maze_step
    takes somewhere."""
    out = []
    for action in MAZE_ACTIONS:
        nxt, _ = maze_step(grid, cell, action)
        if nxt is not None:
            out.append((action, nxt))
    return out


def maze_distances(grid, start):
    """BFS distances and parents from start, probing maze_step four times
    per cell."""
    dist = {start: 0}
    parent = {}
    queue = deque([start])
    while queue:
        cur = queue.popleft()
        for action, nxt in maze_moves(grid, cur):
            if nxt not in dist:
                dist[nxt] = dist[cur] + 1
                parent[nxt] = (cur, action)
                queue.append(nxt)
    return dist, parent


def obstacle_count(grid, a, b):
    """The obstacles among the cells of the rectangle with corners a and b,
    found by visiting every cell of it."""
    rows = range(min(a[0], b[0]), max(a[0], b[0]) + 1)
    cols = range(min(a[1], b[1]), max(a[1], b[1]) + 1)
    return sum((r, c) in grid.obstacles for r in rows for c in cols)


def valid_successors(problem, state):
    """(action, successor) for every action of candidate_actions that step
    takes somewhere from the search state `state`, in that order, over
    search states."""
    here = decode(problem, state)
    out = []
    for action in candidate_actions(problem):
        nxt, _ = step(problem, here, action)
        if nxt is not None:
            out.append((action, encode(problem, nxt)))
    return out


def frontier(algorithm, start, t):
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


def search(problem, start, goal, algorithm, account):
    """The search loop of every engine, one frontier per engine: each
    expansion's valid successors, scored from scratch with heuristic_for
    under A*, are handed to account(parent, g, successors, fresh), fresh
    mapping each newly generated state to its t; the loop stops after the
    expansion that generates the goal. Returns (plan, states explored)."""
    if start == goal:
        return (), 0
    start, goal = encode(problem, start), encode(problem, goal)
    h = heuristic_for(problem, goal) if algorithm == "astar" else None
    items, pop, push = frontier(algorithm, start, h(start) if h else None)
    explored = 0
    g_score = {start: 0}
    came_from = {}
    closed = set()
    while items:
        current = pop()
        if current in closed:
            continue
        closed.add(current)
        g = g_score[current] + 1
        successors = valid_successors(problem, current)
        fresh, children = {}, []
        for action, nxt in successors:
            if nxt in g_score:
                if h and g < g_score[nxt] and nxt not in closed:
                    g_score[nxt] = g
                    came_from[nxt] = (current, action)
                    children.append((nxt, g, h(nxt)))
                continue
            g_score[nxt] = g
            came_from[nxt] = (current, action)
            t = fresh[nxt] = h(nxt) if h else None
            children.append((nxt, g, t))
        explored += account(current, g, successors, fresh)
        if goal in fresh:
            return _reconstruct(came_from, goal, start), explored
        push(children)
    return None, explored


def greedy_walk(problem, start, goal, step_cap=None):
    """The walk that takes the valid action whose successor has the lowest
    heuristic_for score, first in canonical order on ties, never revisiting
    a state, until the goal, a dead end or step_cap moves (default 8 per
    block on blocks, none on maze): (actions, problem states)."""
    if step_cap is None:
        step_cap = 8 * len(problem.blocks) if problem.domain == "blocks" else sys.maxsize
    cur, goal = encode(problem, start), encode(problem, goal)
    h = heuristic_for(problem, goal)
    states = [cur]
    seen = {cur}
    actions = []
    while cur != goal and len(actions) < step_cap:
        best = None
        for action, nxt in valid_successors(problem, cur):
            if nxt in seen:
                continue
            score = h(nxt)
            if best is None or score < best[0]:
                best = (score, action, nxt)
        if best is None:
            break
        _, action, cur = best
        seen.add(cur)
        actions.append(action)
        states.append(cur)
    return tuple(actions), [decode(problem, s) for s in states]
