"""Hybrid executive: dispatches each sub-goal to the fast greedy planner
or a search engine, concatenates the sub-plans in order, and sums the
states-explored accounting.

The fast planner emits whatever path it walked even when it never reached
the goal; validity is judged downstream by the plan validator, and its
states-explored equals the emitted plan length.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .controller import SYS1, SYS2, SubGoal
from .domains import greedy_walk
from .search import TraceConfig, run_engine, truncate_run


@dataclass(frozen=True)
class PlannerOutcome:
    plan: tuple | None
    states_explored: int
    mode: str  # "sys1" | "sys2"
    subgoal: SubGoal | None = None
    run: object | None = None  # SearchRun for sys2 outcomes


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


def greedy_plan(problem, step_cap=None):
    """The fast Sys1 planner: domains.greedy_walk from the problem's start
    to its goal. It emits the walked actions whether or not they reach the
    goal; its states-explored is the plan length."""
    plan, _ = greedy_walk(problem, problem.start, problem.goal, step_cap)
    return PlannerOutcome(plan=plan, states_explored=len(plan), mode=SYS1)


def solve_hybrid(problem, meta_plan, engines=EnginesConfig()):
    """Solve the meta-plan's sub-goals in order and concatenate.

    With a global state budget, each sub-goal only gets the remaining
    budget: search runs are truncated to it and the greedy planner's
    emitted walk is cut at it. A failed search sub-goal (no plan within
    budget) stops the run with a failure outcome; its explored states
    still count.
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
        sub_problem = replace(problem, start=subgoal.start, goal=subgoal.goal,
                              gold_plan=None, optimal_length=None)
        if subgoal.mode == SYS1:
            outcome = greedy_plan(sub_problem)
            if remaining is not None and outcome.states_explored > remaining:
                cut = outcome.plan[:remaining]
                outcome = replace(outcome, plan=cut, states_explored=len(cut))
            outcome = replace(outcome, subgoal=subgoal)
        else:
            run = run_engine(engines.sys2, sub_problem, engines.trace)
            if remaining is not None:
                run = truncate_run(run, remaining)
            outcome = PlannerOutcome(plan=run.plan, states_explored=run.states_explored,
                                     mode=SYS2, subgoal=subgoal, run=run)
        outcomes.append(outcome)
        total += outcome.states_explored
        if outcome.plan is None:
            failed = True
            break
        parts.append(outcome.plan)
    plan = None if failed else tuple(a for part in parts for a in part)
    return HybridRun(problem=problem, meta_plan=tuple(meta_plan),
                     outcomes=tuple(outcomes), plan=plan, states_explored=total)

