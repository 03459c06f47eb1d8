"""Hybrid executive: dispatches each sub-goal to the fast greedy planner
or a search engine, concatenates the sub-plans in order, and sums the
states-explored accounting.

The fast planner emits whatever path it walked even when it never reached
the goal; validity is judged downstream by the plan validator, and its
states-explored equals the emitted plan length. Search sub-goals are
scored by search.explore, which counts the states explored and builds no
trace, so no outcome carries a search run: an outcome is its plan and
states explored, cut to the budget by the greedy cut or reached_within.

A SweepMemo lets the passes of a budget sweep solve each skeleton and each
distinct sub-goal once, then cut the cached outcome to each pass's budget;
it also keeps what the controller and the scorer compute per problem.
"""

from __future__ import annotations

from dataclasses import dataclass

from .controller import SYS1, SubGoal
from .domains import greedy_walk, skeleton
from .search import TraceConfig, explore, reached_within


@dataclass(frozen=True)
class PlannerOutcome:
    plan: tuple | None
    states_explored: int
    mode: str  # "sys1" | "sys2"
    subgoal: SubGoal | None = None


@dataclass(frozen=True)
class HybridRun:
    problem: object
    meta_plan: tuple
    outcomes: tuple
    plan: tuple | None
    states_explored: int


@dataclass(frozen=True)
class EnginesConfig:
    sys2: str = "astar"
    trace: TraceConfig = TraceConfig()
    budget: int | None = None


_MISSING = object()


class SweepMemo(dict):
    """What the passes of one budget sweep share, each value computed on
    first use and keyed on what it depends on:

    - per problem, its skeleton and the controller's gate input;
    - per (problem, window length), where the window optimizer put it;
    - per (problem, meta-plan shape, engine, trace config), the plan and
      states explored of the unbudgeted run, so that an unbudgeted pass
      hands back the same plan tuple for the same shape;
    - per (sub-goal, engine, trace config), the unbudgeted outcome in
      compact form, (plan, states explored, states explored when the
      goal was found). A budgeted pass cuts it to its budget by the rules
      solve_hybrid applies to a fresh one.

    No meta-plan or run is kept. Problems are keyed on their geometry,
    so problems with the same grid, blocks and end states share entries."""

    def kept(self, key, compute, *args):
        """The value kept under key; compute(*args) on first use."""
        value = self.get(key, _MISSING)
        if value is _MISSING:
            value = self[key] = compute(*args)
        return value

    def skeleton(self, problem):
        return self.kept(("skeleton", problem.geometry), skeleton, problem)

    def outcome(self, problem, subgoal, engines):
        key = ("outcome", subgoal.start, subgoal.goal, subgoal.mode, engines.sys2, engines.trace,
               problem.geometry)
        return self.kept(key, _unbudgeted, problem, subgoal, engines)


def _unbudgeted(problem, subgoal, engines):
    """One sub-goal solved without a budget: (plan, states explored,
    states explored when the goal was found); the last is None for the
    greedy planner."""
    if subgoal.mode == SYS1:
        plan, _ = greedy_walk(problem, subgoal.start, subgoal.goal)
        return plan, len(plan), None
    return explore(engines.sys2, problem, subgoal.start, subgoal.goal, engines.trace)


def solve_hybrid(problem, meta_plan, engines=EnginesConfig(), memo=None):
    """Solve the meta-plan's sub-goals in order and concatenate.

    With a global state budget, each sub-goal only gets the remaining
    budget: a search sub-goal keeps its plan only if the goal was found
    within it, and the greedy planner's emitted walk is cut at it. A
    failed search sub-goal (no plan within budget) stops the run with a
    failure outcome; its explored states still count. With a SweepMemo,
    each sub-goal's unbudgeted outcome is taken from it.
    """
    outcomes = []
    parts = []
    total = 0
    failed = False
    for subgoal in meta_plan:
        remaining = None if engines.budget is None else engines.budget - total
        if remaining is not None and remaining <= 0:
            failed = True
            break
        if memo is None:
            plan, se, at_goal = _unbudgeted(problem, subgoal, engines)
        else:
            plan, se, at_goal = memo.outcome(problem, subgoal, engines)
        if remaining is not None and se > remaining:
            if subgoal.mode == SYS1:
                plan = plan[:remaining]
            else:
                plan = plan if reached_within(at_goal, remaining) else None
            se = remaining
        outcomes.append(PlannerOutcome(plan=plan, states_explored=se, mode=subgoal.mode,
                                       subgoal=subgoal))
        total += se
        if plan is None:
            failed = True
            break
        parts.append(plan)
    if failed:
        plan = None
    elif len(parts) == 1:
        plan = parts[0]  # the sub-goal's own tuple, shared with the memo's outcome
    else:
        plan = tuple(a for part in parts for a in part)
    return HybridRun(problem=problem, meta_plan=tuple(meta_plan),
                     outcomes=tuple(outcomes), plan=plan, states_explored=total)
