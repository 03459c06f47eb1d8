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
distinct sub-goal once, then cut the cached outcome to each pass's budget.
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


class SweepMemo(dict):
    """What the passes of one budget sweep share: each problem's skeleton,
    and the unbudgeted outcome of each (sub-goal, engine, trace config) in
    compact form, (plan, states explored, states explored when the goal
    was found). A pass cuts a cached outcome to its budget by the rules
    solve_hybrid applies to a fresh one."""

    def skeleton(self, problem):
        key = (problem.domain, problem.grid, problem.blocks, problem.start, problem.goal)
        if key not in self:
            self[key] = skeleton(problem)
        return self[key]

    def outcome(self, problem, subgoal, engines):
        # eight fields, so never equal to a five-field skeleton key
        key = (problem.domain, problem.grid, problem.blocks, subgoal.start, subgoal.goal,
               subgoal.mode, engines.sys2, engines.trace)
        if key not in self:
            self[key] = _unbudgeted(problem, subgoal, engines)
        return self[key]


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
    plan = None if failed else tuple(a for part in parts for a in part)
    return HybridRun(problem=problem, meta_plan=tuple(meta_plan),
                     outcomes=tuple(outcomes), plan=plan, states_explored=total)
