"""Hybrid executive: dispatches each sub-goal to the fast greedy planner
or a search engine, concatenates the sub-plans in order, and sums the
states-explored accounting.

The fast planner emits whatever path it walked even when it never reached
the goal; validity is judged downstream by the plan validator, and its
states-explored equals the emitted plan length. Search sub-goals are
scored by search.explore, which counts the states explored and builds no
trace, so no outcome carries a search run: an outcome is its plan and
states explored, and cut_run cuts a run's outcomes to a budget.

A SweepMemo lets the passes of a budget sweep solve each problem once per
meta-plan shape, then cut the kept run to each pass's budget; it also
keeps what the controller computes per problem.
"""

from __future__ import annotations

from dataclasses import dataclass

from .controller import SYS1, SubGoal
from .domains import greedy_walk, skeleton
from .search import TraceConfig, explore


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
    - per (problem, meta-plan shape, controller variant and selector,
      engine, trace config), the unbudgeted run in compact form: its plan,
      its states explored and each sub-goal's (mode, plan, states
      explored). An unbudgeted pass hands back its plan tuple and states
      explored; a budgeted pass cuts it with cut_run.

    No meta-plan, search run or event is kept. Problems are keyed on their
    geometry, so problems with the same grid, blocks and end states share
    entries."""

    def kept(self, key, compute, *args):
        """The value kept under key; compute(*args) on first use."""
        value = self.get(key, _MISSING)
        if value is _MISSING:
            value = self[key] = compute(*args)
        return value

    def skeleton(self, problem):
        return self.kept(("skeleton", problem.geometry), skeleton, problem)


def cut_run(outcomes, budget):
    """(plan, states explored, kept outcomes) of a run cut to a
    states-explored budget (None: no cut), from each sub-goal's unbudgeted
    (mode, plan, states explored) in order.

    Each sub-goal gets what the ones before it left of the budget. A Sys1
    walk that explores more is cut at it; a Sys2 sub-goal that explores
    more has no plan, since a search generates its goal in the last
    expansion it counts. A sub-goal with no plan, or with no budget left
    for it, ends the run without a plan; the states explored so far still
    count. An outcome is unpacked only when the run reaches its sub-goal."""
    kept, total = [], 0
    for outcome in outcomes:
        if budget is not None and total >= budget:
            return None, total, tuple(kept)
        mode, plan, se = outcome
        if budget is not None and se > budget - total:
            plan, se = (plan[:budget - total] if mode == SYS1 else None), budget - total
        kept.append((mode, plan, se))
        total += se
        if plan is None:
            return None, total, tuple(kept)
    if len(kept) == 1:
        return kept[0][1], total, tuple(kept)  # the sub-goal's own plan tuple
    return tuple(a for _, plan, _ in kept for a in plan), total, tuple(kept)


def _solved(problem, subgoal, engines):
    """The sub-goal's unbudgeted (mode, plan, states explored), solved as
    it is unpacked."""
    yield subgoal.mode
    if subgoal.mode == SYS1:
        plan, _ = greedy_walk(problem, subgoal.start, subgoal.goal)
        yield from (plan, len(plan))
    else:
        yield from explore(engines.sys2, problem, subgoal.start, subgoal.goal, engines.trace)


def solve_hybrid(problem, meta_plan, engines=EnginesConfig()):
    """Solve the meta-plan's sub-goals in order and concatenate, cut to the
    global state budget by cut_run. A sub-goal the cut run does not reach
    is not solved."""
    plan, se, kept = cut_run((_solved(problem, s, engines) for s in meta_plan), engines.budget)
    outcomes = tuple(PlannerOutcome(plan=p, states_explored=n, mode=mode, subgoal=subgoal)
                     for (mode, p, n), subgoal in zip(kept, meta_plan))
    return HybridRun(problem=problem, meta_plan=tuple(meta_plan), outcomes=outcomes, plan=plan,
                     states_explored=se)
