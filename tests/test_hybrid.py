import hashlib
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridplan.controller import SYS1, SYS2, ControllerConfig, HybridController, SubGoal
from hybridplan.domains import MazeGrid, PlanningProblem, greedy_walk, validate_plan
from hybridplan.evaluate import PlannerConfig, SweepMemo, run_planner
from hybridplan.hybrid import Run, cut_run, solve_hybrid
from hybridplan.search import ENGINES, TraceConfig, astar, run_engine
from hybridplan.textio import verbalize_plan
from reference import truncate_run
from strategies import blocks_problems, maze_problems, states_of


def maze_problem(rows, cols, obstacles, start, goal):
    return PlanningProblem(domain="maze", start=start, goal=goal,
                           grid=MazeGrid(rows, cols, frozenset(obstacles)))


def greedy(p, step_cap=None):
    """The fast planner's walk from the problem's start to its goal."""
    return greedy_walk(p, p.start, p.goal, step_cap)[0]


def sys1_se(p):
    """States explored by the fast planner on the whole problem."""
    return solve_hybrid(p, (SubGoal(p.start, p.goal, SYS1),)).states_explored


class TestGreedy:
    def test_corridor(self):
        p = maze_problem(1, 4, (), (0, 0), (0, 3))
        assert greedy(p) == ("right", "right", "right")
        assert sys1_se(p) == 3

    def test_pocket_traps_greedy(self):
        # wall on column 2 with a gap at the bottom; ties send greedy up
        # into the top-left pocket where every neighbor is visited
        wall = {(0, 2), (1, 2), (2, 2), (3, 2)}
        p = maze_problem(5, 5, wall, (2, 0), (2, 4))
        plan = greedy(p)
        assert plan  # it still emits what it walked
        assert validate_plan(p, plan)[0] is False
        assert sys1_se(p) == len(plan)

    def test_blocks_single_move(self):
        from hybridplan.domains import canonical_blocks

        start = canonical_blocks([["A", "B"], ["C"]])
        goal = canonical_blocks([["A"], ["C", "B"]])
        p = PlanningProblem(domain="blocks", start=start, goal=goal, blocks=("A", "B", "C"))
        assert greedy(p) == (("B", "C"),)
        assert sys1_se(p) == 1

    def test_already_at_goal(self):
        p = maze_problem(3, 3, (), (1, 1), (1, 1))
        assert greedy(p) == () and sys1_se(p) == 0

    def test_step_cap(self):
        p = maze_problem(5, 5, (), (0, 0), (4, 4))
        assert len(greedy(p, step_cap=2)) == 2


class TestSolveHybrid:
    def test_concatenates_chained_subplans(self):
        p = maze_problem(5, 5, (), (0, 0), (0, 4))
        meta = (SubGoal((0, 0), (0, 2), SYS1), SubGoal((0, 2), (0, 4), SYS2))
        run = solve_hybrid(p, meta)
        assert run.plan == ("right",) * 4
        assert validate_plan(p, run.plan) == (True, None)
        assert run.states_explored == sum(o.states_explored for o in run.outcomes)

    def test_budget_truncates_middle_subgoal(self):
        p = maze_problem(5, 5, (), (0, 0), (4, 4))
        meta = (SubGoal((0, 0), (1, 1), SYS1),
                SubGoal((1, 1), (3, 3), SYS2),
                SubGoal((3, 3), (4, 4), SYS1))
        full = solve_hybrid(p, meta)
        assert validate_plan(p, full.plan)[0]
        sys2_se = full.outcomes[1].states_explored
        budget = full.outcomes[0].states_explored + sys2_se - 1
        cut = solve_hybrid(p, meta, budget=budget)
        assert cut.plan is None
        assert cut.states_explored <= budget

    def test_budget_cuts_sys1_walk(self):
        p = maze_problem(1, 5, (), (0, 0), (0, 4))
        meta = (SubGoal((0, 0), (0, 4), SYS1),)
        run = solve_hybrid(p, meta, budget=2)
        assert run.plan == ("right", "right")
        assert run.states_explored == 2
        assert not validate_plan(p, run.plan)[0]

    def test_pure_sys1_equivalence(self, small_maze_dataset):
        for p in small_maze_dataset["test"][:40]:
            bare = greedy(p)
            hybrid = solve_hybrid(p, (SubGoal(p.start, p.goal, SYS1),))
            assert hybrid.plan == bare
            assert hybrid.states_explored == len(bare)

    def test_pure_sys2_equivalence(self, small_maze_dataset):
        for p in small_maze_dataset["test"][:40]:
            bare = astar(p)
            hybrid = solve_hybrid(p, (SubGoal(p.start, p.goal, SYS2),))
            assert hybrid.plan == bare.plan
            assert hybrid.states_explored == len(bare.events)

    def test_composition_soundness(self, small_maze_dataset):
        ctl = HybridController(ControllerConfig(x=0.5)).fit(small_maze_dataset["train"])
        for p in small_maze_dataset["test"]:
            meta = ctl.decompose(p)
            run = solve_hybrid(p, meta)
            if all(o.plan is not None and
                   validate_plan(replace(p, start=s.start, goal=s.goal), o.plan)[0]
                   for o, s in zip(run.outcomes, meta)) and len(run.outcomes) == len(meta):
                assert validate_plan(p, run.plan) == (True, None)

    def test_se_additivity(self, small_maze_dataset):
        ctl = HybridController(ControllerConfig(x=0.75)).fit(small_maze_dataset["train"])
        for p in small_maze_dataset["test"][:40]:
            run = solve_hybrid(p, ctl.decompose(p))
            assert run.states_explored == sum(o.states_explored for o in run.outcomes)

    def test_determinism(self, small_maze_dataset):
        ctl = HybridController(ControllerConfig(x=0.5)).fit(small_maze_dataset["train"])
        p = small_maze_dataset["test"][0]
        assert solve_hybrid(p, ctl.decompose(p)) == solve_hybrid(p, ctl.decompose(p))

    def test_engine_choice(self):
        p = maze_problem(4, 4, (), (0, 0), (3, 3))
        meta = (SubGoal(p.start, p.goal, SYS2),)
        for engine in ("astar", "bfs", "dfs"):
            run = solve_hybrid(p, meta, engine)
            assert validate_plan(p, run.plan)[0]
            assert run.plan == run_engine(engine, p).plan


# sha256 over the greedy Sys1 plans of the small test splits, per domain.
GOLDEN_GREEDY_DIGESTS = {
    "maze": "acda8134402cc9318a25c8770d348b5c5dbe02a20c121aaf6ae15f9325195389",
    "blocks": "824fb09fbe0c119cf67215ba5d3f3d75ad3f53695686ad3ce09243021e0ec510",
}


@pytest.mark.parametrize("domain", sorted(GOLDEN_GREEDY_DIGESTS))
def test_golden_greedy_digests(domain, small_maze_dataset, small_blocks_dataset):
    dataset = small_maze_dataset if domain == "maze" else small_blocks_dataset
    digest = hashlib.sha256()
    for p in dataset["test"]:
        digest.update(verbalize_plan(greedy(p)).encode())
        digest.update(b"\n\n")
    assert digest.hexdigest() == GOLDEN_GREEDY_DIGESTS[domain]


def records(memo):
    """The ProblemRecords of every table of the memo."""
    return [record for table in memo.values() for record in table.values()]


class TestSweepMemo:
    def test_outcome_is_the_compact_unbudgeted_run(self, small_maze_dataset):
        """The memo keeps one compact unbudgeted run per problem and shape:
        its problem, its plan, its states explored and each sub-goal's
        (mode, plan, states explored), the plan tuple shared with its one
        sub-goal's."""
        for p in small_maze_dataset["test"][:10]:
            run = run_engine("bfs", p)
            walk = greedy(p)
            for kind, expected in (("sys2", (run.plan, len(run.events), SYS2)),
                                   ("sys1", (walk, len(walk), SYS1))):
                memo = SweepMemo()
                run_planner([p], PlannerConfig(kind=kind, engine="bfs", memo=memo))
                plan, se, mode = expected
                [record] = records(memo)
                [(shape, kept)] = record.runs.items()
                assert shape == mode and type(kept) is Run
                assert kept == (p, plan, se, ((mode, plan, se),))
                assert kept.problem is p
                assert plan is None or kept.plan is kept.outcomes[0].plan

    def test_keys_on_the_maze_not_only_the_subgoal(self):
        open_maze = maze_problem(3, 3, (), (0, 0), (0, 2))
        walled = maze_problem(3, 3, {(0, 1), (1, 1)}, (0, 0), (0, 2))
        assert open_maze.problem_id == walled.problem_id
        config = PlannerConfig(kind="sys2")
        memo = SweepMemo()
        for budget in (None, 3, 100):
            for p in (open_maze, walled):
                assert run_planner([p], replace(config, memo=memo), budget) == \
                    run_planner([p], config, budget)
        [open_run], [walled_run] = (run_planner([p], replace(config, memo=memo))
                                    for p in (open_maze, walled))
        assert open_run.plan != walled_run.plan
        assert sorted(r.problem.geometry for r in records(memo)) == \
            sorted((open_maze.geometry, walled.geometry))

    def test_a_record_scores_each_problem_object_as_itself(self, small_maze_dataset):
        """Two problem objects of one id and geometry share a record, and
        so a solve, but each gets a Run of its own oracle length."""
        p = small_maze_dataset["test"][0]
        copy = replace(p, optimal_length=p.optimal_length + 1)
        config = PlannerConfig(kind="sys2", memo=SweepMemo())
        [first], [second] = (run_planner([q], config) for q in (p, copy))
        assert first.problem is p and second.problem is copy
        assert first.judge() == (True, True) and second.judge() == (True, False)
        assert len(records(config.memo)) == 1

    def test_clear_empties(self, small_maze_dataset):
        memo = SweepMemo()
        p = small_maze_dataset["test"][0]
        for kind in ("sys1", "sys2"):
            run_planner([p], PlannerConfig(kind=kind, memo=memo))
        assert len(memo) == 2 and len(records(memo)) == 2
        memo.clear()
        assert len(memo) == 0


# ---------------------------------------------------------------- properties

CAPS = {"nocaps": TraceConfig(), "caps": TraceConfig(valid_cap=3, invalid_cap=2, seed=0)}

# at most 4 blocks keeps uninformed search on random sub-goals fast
small_problems = st.one_of(maze_problems(), blocks_problems(max_blocks=4))


@st.composite
def meta_plans(draw, problem):
    """1-3 sub-goals chained from the start to the goal through random
    states, each with a random mode."""
    chain = [problem.start, *draw(st.lists(states_of(problem), max_size=2)), problem.goal]
    return tuple(SubGoal(a, b, draw(st.sampled_from((SYS1, SYS2))))
                 for a, b in zip(chain, chain[1:]))


@pytest.mark.parametrize("engine", sorted(ENGINES))
@pytest.mark.parametrize("caps", sorted(CAPS))
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_memo_gives_the_fresh_outcomes(engine, caps, data):
    """Over budgets drawn at random (None among them), cut_run over the
    outcomes of the unbudgeted run that a sweep memo keeps gives the Run of
    a fresh solve_hybrid with that budget: its plan, its states explored
    and each sub-goal's (mode, plan, states explored). A run's states
    explored is the sum of its outcomes' and stays within the budget, and a
    fresh outcome is its sub-goal's unbudgeted solve cut to the remaining
    budget: the recorded search run by the reference truncation, the greedy
    walk by its prefix."""
    problem = data.draw(small_problems)
    meta = data.draw(meta_plans(problem))
    budgets = data.draw(st.lists(st.one_of(st.none(), st.integers(1, 80)), min_size=1, max_size=4))
    full = solve_hybrid(problem, meta, engine, CAPS[caps])
    assert cut_run(problem, full.outcomes, None) == full
    for budget in budgets:
        fresh = solve_hybrid(problem, meta, engine, CAPS[caps], budget)
        assert cut_run(problem, full.outcomes, budget) == fresh
        assert len(fresh.outcomes) <= len(meta)
        assert [o.mode for o in fresh.outcomes] == [s.mode for s in meta[:len(fresh.outcomes)]]
        assert fresh.states_explored == sum(o.states_explored for o in fresh.outcomes)
        assert budget is None or fresh.states_explored <= budget
        spent = 0
        for o, subgoal in zip(fresh.outcomes, meta):
            sub = replace(problem, start=subgoal.start, goal=subgoal.goal)
            if o.mode == SYS2:
                run = run_engine(engine, sub, CAPS[caps])
                if budget is not None:
                    run = truncate_run(run, budget - spent)
                assert (o.plan, o.states_explored) == (run.plan, len(run.events))
            else:
                walk = greedy(sub)[:None if budget is None else budget - spent]
                assert (o.plan, o.states_explored) == (walk, len(walk))
            spent += o.states_explored
