"""Hybrid executive: dispatches each sub-goal to the fast greedy planner
or a search engine, concatenates the sub-plans in order, and sums the
states-explored accounting.

The fast planner emits whatever path it walked even when it never reached
the goal; validity is judged downstream by the plan validator, and its
states-explored equals the emitted plan length. Search sub-goals are
scored by search.explore, which counts the states explored and builds no
trace, so no outcome carries a search run. A solved problem has one type
from solve_hybrid to the sweep memo and the scorer, whatever the planner:
a Run of its problem, its plan, its states explored and one Outcome (mode,
plan, states explored) per sub-goal it reached, which cut_run cuts to a
budget and which judges its own plan.
"""

from __future__ import annotations

from typing import NamedTuple

from .controller import SYS1
from .domains import greedy_walk, validate_plan
from .search import TraceConfig, explore


class Outcome(NamedTuple):
    """One sub-goal's part of a run."""

    mode: str  # "sys1" | "sys2"
    plan: tuple | None
    states_explored: int


class Run(NamedTuple):
    """One solved problem: the problem, its sub-plans joined in order, their
    states explored summed, and the outcome of each sub-goal it reached."""

    problem: object
    plan: tuple | None
    states_explored: int
    outcomes: tuple

    @property
    def valid(self):
        if self.plan is None:
            return False
        ok, _ = validate_plan(self.problem, self.plan)
        return ok

    def judge(self):
        """(valid, optimal), replaying the plan once."""
        if self.problem.optimal_length is None:
            raise ValueError(f"problem {self.problem.problem_id!r} has no oracle length")
        valid = self.valid
        return valid, valid and len(self.plan) == self.problem.optimal_length


def cut_run(problem, outcomes, budget):
    """The problem's Run cut to a states-explored budget (None: no cut)
    from each sub-goal's unbudgeted (mode, plan, states explored) in order.

    Each sub-goal gets what the ones before it left of the budget. A Sys1
    walk that explores more is cut at it; a Sys2 sub-goal that explores
    more has no plan, since a search generates its goal in the last
    expansion it counts. A sub-goal with no plan, or with no budget left
    for it, ends the run without a plan; the states explored so far still
    count. An outcome is unpacked only when the run reaches its sub-goal."""
    kept, total = [], 0
    for outcome in outcomes:
        if budget is not None and total >= budget:
            return Run(problem, None, total, tuple(kept))
        mode, plan, se = outcome
        if budget is not None and se > budget - total:
            plan, se = (plan[:budget - total] if mode == SYS1 else None), budget - total
        kept.append(Outcome(mode, plan, se))
        total += se
        if plan is None:
            return Run(problem, None, total, tuple(kept))
    if len(kept) == 1:
        return Run(problem, kept[0].plan, total, tuple(kept))  # the sub-goal's own plan tuple
    return Run(problem, tuple(a for o in kept for a in o.plan), total, tuple(kept))


def _solved(problem, subgoal, engine, trace):
    """The sub-goal's unbudgeted (mode, plan, states explored), solved as
    it is unpacked."""
    yield subgoal.mode
    if subgoal.mode == SYS1:
        plan, _ = greedy_walk(problem, subgoal.start, subgoal.goal)
        yield from (plan, len(plan))
    else:
        yield from explore(engine, problem, subgoal.start, subgoal.goal, trace)


def solve_hybrid(problem, meta_plan, engine="astar", trace=TraceConfig(), budget=None):
    """The Run of the meta-plan's sub-goals solved in order, Sys2 ones by
    the named engine, cut to the global state budget by cut_run. A
    sub-goal the cut run does not reach is not solved."""
    return cut_run(problem, (_solved(problem, s, engine, trace) for s in meta_plan), budget)
