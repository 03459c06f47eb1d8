import hashlib
import itertools
import json
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridplan import search
from hybridplan.controller import SYS2, SubGoal
from hybridplan.domains import (
    MazeGrid,
    PlanningProblem,
    candidate_actions,
    canonical_blocks,
    encode,
    heuristic_for,
    plan_states,
    step,
    validate_plan,
)
from hybridplan.generators import blocks_bfs_length, blocks_optimal_plan, maze_distances
from hybridplan.evaluate import PlannerConfig, run_planner
from hybridplan.hybrid import cut_run, solve_hybrid
from hybridplan.search import TraceConfig, astar, bfs, dfs, explore, run_engine
from hybridplan.textio import CorpusWriter
import reference
from reference import truncate_run
from strategies import blocks_problems, maze_problems, reachable_states


def maze_problem(rows, cols, obstacles, start, goal):
    return PlanningProblem(domain="maze", start=start, goal=goal,
                           grid=MazeGrid(rows, cols, frozenset(obstacles)))


def random_maze(rng):
    while True:
        obstacles = frozenset(rng.sample(
            [(r, c) for r in range(5) for c in range(5)], 10))
        grid = MazeGrid(5, 5, obstacles)
        free = grid.free_cells()
        start, goal = rng.sample(free, 2)
        return PlanningProblem(domain="maze", start=start, goal=goal, grid=grid)


def manhattan(a, b):
    return heuristic_for(maze_problem(9, 9, (), a, b), b)(a)


def blocks_mismatch(a, b):
    blocks = tuple(sorted(x for stack in a for x in stack))
    problem = PlanningProblem(domain="blocks", start=a, goal=b, blocks=blocks)
    return heuristic_for(problem, encode(problem, b))(encode(problem, a))


class TestHeuristics:
    def test_manhattan(self):
        assert manhattan((0, 0), (3, 4)) == 7
        assert manhattan((2, 2), (2, 2)) == 0

    def test_manhattan_symmetry(self):
        rng = random.Random(0)
        for _ in range(100):
            a = (rng.randrange(9), rng.randrange(9))
            b = (rng.randrange(9), rng.randrange(9))
            assert manhattan(a, b) == manhattan(b, a)

    def test_mismatch_identity(self):
        s = canonical_blocks([["A", "B"], ["C"]])
        assert blocks_mismatch(s, s) == 0

    def test_mismatch_single(self):
        a = canonical_blocks([["A", "B"]])
        b = canonical_blocks([["A"], ["B"]])
        assert blocks_mismatch(a, b) == 1

    def test_mismatch_swap(self):
        a = canonical_blocks([["A", "B"]])
        b = canonical_blocks([["B", "A"]])
        assert blocks_mismatch(a, b) == 2


class TestAstar:
    def test_empty_grid_length(self):
        run = astar(maze_problem(3, 3, (), (0, 0), (2, 2)))
        assert run.plan is not None and len(run.plan) == 4

    def test_unreachable(self):
        # wall of obstacles fully separates start from goal
        wall = {(r, 2) for r in range(5)}
        p = maze_problem(5, 5, wall, (2, 0), (2, 4))
        run = astar(p)
        assert run.plan is None and run.events
        assert explore("astar", p, p.start, p.goal) == (None, len(run.events))

    def test_matches_bfs_oracle(self):
        rng = random.Random(11)
        for _ in range(100):
            p = random_maze(rng)
            dist, _ = maze_distances(p.grid, p.start)
            run = astar(p)
            if p.goal in dist:
                assert run.plan is not None and len(run.plan) == dist[p.goal]
                assert validate_plan(p, run.plan) == (True, None)
            else:
                assert run.plan is None

    def test_f_equals_g_plus_t(self):
        """In a rendered trace, A*'s valid events have f = g + t, BFS's and
        DFS's have neither t nor f, and the indices run 0..n-1 in line
        order."""
        maze = maze_problem(5, 5, {(1, 1), (3, 3)}, (0, 0), (4, 4))
        blocks = PlanningProblem(domain="blocks", start=canonical_blocks([["A", "B"], ["C"]]),
                                 goal=canonical_blocks([["C", "B", "A"]]), blocks=("A", "B", "C"))
        for problem in (maze, blocks):
            for engine in ("astar", "bfs", "dfs"):
                run = run_engine(engine, problem)
                text, structured = CorpusWriter().trace(engine, problem, TraceConfig())
                mirror = json.loads(structured)
                steps = [ln.split(" | ")[0] for ln in text.splitlines() if ln.startswith("step ")]
                assert steps == [f"step {i}" for i in range(len(run.events))]
                assert [e["index"] for e in mirror["events"]] == list(range(len(run.events)))
                valid = [e for e in mirror["events"] if e["validity"] == "valid"]
                assert valid
                for e in valid:
                    if engine == "astar":
                        assert e["t"] is not None and e["f"] == e["g"] + e["t"]
                    else:
                        assert e["t"] is None and e["f"] is None

    def test_every_probe_recorded_once_per_expansion(self):
        rng = random.Random(4)
        for _ in range(20):
            p = random_maze(rng)
            run = astar(p)
            # maze expansions always probe exactly the four actions
            assert len(run.events) % 4 == 0
            expansions = [run.events[i:i + 4] for i in range(0, len(run.events), 4)]
            for group in expansions:
                assert len({e.parent_state for e in group}) == 1
                assert [e.action for e in group] == ["up", "down", "left", "right"]

    def test_determinism(self):
        p = maze_problem(5, 5, {(1, 1), (2, 3), (3, 1)}, (0, 0), (4, 4))
        assert astar(p) == astar(p)

    def test_start_equals_goal(self):
        run = astar(maze_problem(3, 3, (), (1, 1), (1, 1)))
        assert run.plan == () and run.events == ()


class TestBfsDfs:
    def test_bfs_empty_grid(self):
        run = bfs(maze_problem(3, 3, (), (0, 0), (2, 2)))
        assert len(run.plan) == 4

    def test_bfs_matches_astar_length(self):
        rng = random.Random(21)
        for _ in range(100):
            p = random_maze(rng)
            a, b = astar(p), bfs(p)
            assert (a.plan is None) == (b.plan is None)
            if a.plan is not None:
                assert len(a.plan) == len(b.plan)

    def test_dfs_single_step(self):
        p = maze_problem(3, 3, (), (0, 0), (0, 1))
        run = dfs(p)
        assert validate_plan(p, run.plan) == (True, None)

    def test_dfs_takes_long_route(self):
        # two routes; depth-first order commits to the long one
        p = maze_problem(4, 4, {(2, 1), (2, 2)}, (3, 0), (3, 2))
        short = bfs(p)
        long = dfs(p)
        assert validate_plan(p, long.plan) == (True, None)
        assert len(long.plan) > len(short.plan)

    def test_dfs_plans_always_valid(self):
        rng = random.Random(31)
        for _ in range(100):
            p = random_maze(rng)
            run = dfs(p)
            if run.plan is not None:
                assert validate_plan(p, run.plan) == (True, None)

    def test_bfs_explores_more_than_dfs_on_average(self, small_maze_dataset):
        test = small_maze_dataset["test"]
        se_bfs = sum(len(bfs(p).events) for p in test) / len(test)
        se_dfs = sum(len(dfs(p).events) for p in test) / len(test)
        assert se_dfs < se_bfs


class TestBlocksTraceCaps:
    def _expansion_groups(self, run):
        groups = []
        for e in run.events:
            if groups and groups[-1][-1].parent_state == e.parent_state:
                groups[-1].append(e)
            else:
                groups.append([e])
        return groups

    def _problems(self, engine, domain, small_maze_dataset, small_blocks_dataset):
        if domain == "maze":
            return small_maze_dataset["test"]
        problems = small_blocks_dataset["train"][:20]
        if engine != "astar":
            # uninformed search takes seconds per problem beyond 5 blocks
            problems = [p for p in problems if len(p.blocks) <= 5]
        return problems

    @pytest.mark.parametrize("domain", ["maze", "blocks"])
    @pytest.mark.parametrize("engine", ["astar", "bfs", "dfs"])
    def test_caps_respected(self, engine, domain, small_maze_dataset, small_blocks_dataset):
        config = TraceConfig(valid_cap=3, invalid_cap=2, seed=0)
        for p in self._problems(engine, domain, small_maze_dataset, small_blocks_dataset):
            run = run_engine(engine, p, config)
            for group in self._expansion_groups(run):
                assert sum(1 for e in group if e.reason is None) <= 3
                assert sum(1 for e in group if e.reason is not None) <= 2

    @pytest.mark.parametrize("domain", ["maze", "blocks"])
    @pytest.mark.parametrize("engine", ["astar", "bfs", "dfs"])
    def test_caps_do_not_change_plan(self, engine, domain, small_maze_dataset,
                                     small_blocks_dataset):
        for p in self._problems(engine, domain, small_maze_dataset, small_blocks_dataset):
            capped = run_engine(engine, p, TraceConfig(valid_cap=3, invalid_cap=2))
            free = run_engine(engine, p)
            assert capped.plan is not None
            assert capped.plan == free.plan

    def test_capped_se_is_smaller(self, small_blocks_dataset):
        p = small_blocks_dataset["test"][0]
        capped = astar(p, TraceConfig(valid_cap=3, invalid_cap=2))
        free = astar(p)
        assert len(capped.events) < len(free.events)


class TestTruncate:
    def test_identity_when_cap_large(self):
        run = astar(maze_problem(3, 3, (), (0, 0), (2, 2)))
        assert truncate_run(run, len(run.events) + 5) == run
        assert truncate_run(run, len(run.events)) == run

    def test_forced_failure(self):
        run = astar(maze_problem(5, 5, (), (0, 0), (4, 4)))
        cut = truncate_run(run, 1)
        assert cut.plan is None and len(cut.events) == 1

    def test_boundary_at_goal_discovery(self):
        """The goal is found with the last recorded event: a cut at the
        run's count keeps the plan, one event less loses it, in the
        reference cut and in a budgeted hybrid run alike."""
        p = maze_problem(5, 5, {(1, 1)}, (0, 0), (3, 3))
        run = astar(p)
        assert run.plan is not None
        meta = (SubGoal(p.start, p.goal, SYS2),)
        for cap, plan in ((len(run.events), run.plan), (len(run.events) - 1, None)):
            assert truncate_run(run, cap).plan == plan
            assert solve_hybrid(p, meta, budget=cap).plan == plan

    def test_idempotent(self):
        run = bfs(maze_problem(5, 5, (), (0, 0), (4, 4)))
        assert truncate_run(truncate_run(run, 7), 7) == truncate_run(run, 7)

    def test_se_accounting(self):
        run = bfs(maze_problem(5, 5, (), (0, 0), (4, 4)))
        for cap in (1, 3, 10, 10_000):
            assert len(truncate_run(run, cap).events) == min(cap, len(run.events))

    def test_rejects_zero_cap(self):
        run = bfs(maze_problem(3, 3, (), (0, 0), (1, 1)))
        with pytest.raises(ValueError):
            truncate_run(run, 0)


def test_run_engine_dispatch():
    p = maze_problem(3, 3, (), (0, 0), (2, 2))
    assert run_engine("bfs", p) == bfs(p) != dfs(p)
    with pytest.raises(ValueError):
        run_engine("ids", p)


# sha256 over the verbalized traces of a fixed problem set, per engine,
# domain and recording config. Any change to event order, content, caps or
# plans changes a digest.
GOLDEN_TRACE_DIGESTS = {
    ("astar", "maze", "nocaps"): "5f3124b311573636eebeebded4294e64f5e28a9aff21f7e5c61bad45d64981e8",
    ("astar", "maze", "caps"): "12ab71bcaeb2568ddf4d70ab527bc8b140c2b56d39f95baa7d8f05bedb3b8409",
    ("astar", "blocks", "nocaps"): "b8e1bcf14a8a92b639a32b75531987d2ce866853a97c08f20bb88e046c99256b",
    ("astar", "blocks", "caps"): "76194bf0764cf7f557e3e2c336a2ad3617c7d4fa260ed84524c026d68d17136a",
    ("bfs", "maze", "nocaps"): "22fdac47c3a0b081828d475b0952d3fd3a52592e8084537436fe8853fcd982eb",
    ("bfs", "maze", "caps"): "399fb4426d0165fc492339f2174f01d47b37e43efa3cc0984138468188bcd96f",
    ("bfs", "blocks", "nocaps"): "e800314920445d5123d5ce3947c00dacf1d1c200e24ac58cd96f2b10928743c5",
    ("bfs", "blocks", "caps"): "729b502b5218fdc1d0ef56f13ef902b556966a1690a5e3e582123f0be2528e5a",
    ("dfs", "maze", "nocaps"): "521e5323cf3c0364038390629c36f835d384f33f927852c71449621e8e0db52b",
    ("dfs", "maze", "caps"): "9d710f7eee7fac6a24ed270bba6210363d522c4544527e42d642d79248ae19ce",
    ("dfs", "blocks", "nocaps"): "e5e90f7ebbe89e378532e7681377c673483e61c8897ebde104cec718cdab0727",
    ("dfs", "blocks", "caps"): "7d82086a480076350b43f0c6e4123feab8f58b78ad13c7605e944341272a12f4",
}


@pytest.mark.parametrize("engine,domain,caps", sorted(GOLDEN_TRACE_DIGESTS))
def test_golden_trace_digests(engine, domain, caps, small_maze_dataset, small_blocks_dataset):
    if domain == "maze":
        problems = small_maze_dataset["test"]
    else:
        problems = [p for p in small_blocks_dataset["train"] if len(p.blocks) <= 5]
    config = TraceConfig() if caps == "nocaps" else TraceConfig(valid_cap=3, invalid_cap=2, seed=0)
    digest = hashlib.sha256()
    writer = CorpusWriter()
    for p in problems:
        digest.update(writer.trace(engine, p, config)[0].encode())
        digest.update(b"\n\n")
    assert digest.hexdigest() == GOLDEN_TRACE_DIGESTS[(engine, domain, caps)]


@pytest.mark.parametrize("engine", ["astar", "bfs", "dfs"])
@pytest.mark.parametrize("caps", ["nocaps", "caps"])
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(problem=st.one_of(maze_problems(), blocks_problems(max_blocks=4)),
       cap=st.integers(1, 120))
def test_truncation_gives_a_prefix(engine, caps, problem, cap):
    config = TraceConfig() if caps == "nocaps" else TraceConfig(valid_cap=3, invalid_cap=2, seed=0)
    run = run_engine(engine, problem, config)
    cut = truncate_run(run, cap)
    assert cut.events == run.events[:cap]
    assert cut.plan == (run.plan if cap >= len(run.events) else None)
    explored = explore(engine, problem, problem.start, problem.goal, config)
    assert cut_run(problem, ((SYS2, *explored),), cap)[1:3] == (cut.plan, len(cut.events))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.one_of(maze_problems(max_side=5), blocks_problems(max_blocks=4)))
def test_astar_and_bfs_lengths_agree_with_the_oracles(problem):
    """The maze oracle runs its own BFS, apart from the engines'. The blocks
    oracle runs the engine loop's A*, so its independent check is the
    exhaustive BFS of blocks_bfs_length. Agreeing lengths check both."""
    a, b = astar(problem), bfs(problem)
    if problem.domain == "maze":
        oracle = maze_distances(problem.grid, problem.start)[0].get(problem.goal)
    else:
        oracle = len(blocks_optimal_plan(problem, problem.start, problem.goal))
        assert blocks_bfs_length(problem) == oracle
    if oracle is None:
        assert a.plan is None and b.plan is None
    else:
        assert len(a.plan) == len(b.plan) == oracle


@pytest.mark.parametrize("engine", ["astar", "bfs", "dfs"])
@pytest.mark.parametrize("caps", ["nocaps", "caps"])
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_count_equals_the_recorded_trace(engine, caps, data):
    """The counting account gives the plan and event count of the recorded
    run between the same endpoints, caps or not. Every event is step's
    result for its probe: valid and already-visited events carry its
    successor, the other invalid ones its reason; each expansion's events
    follow candidate_actions order."""
    config = TraceConfig() if caps == "nocaps" else TraceConfig(valid_cap=3, invalid_cap=2, seed=0)
    problem = data.draw(st.one_of(maze_problems(), blocks_problems(max_blocks=4)))
    start = data.draw(reachable_states(problem))
    goal = data.draw(st.one_of(st.just(problem.goal), reachable_states(problem)))
    run = run_engine(engine, replace(problem, start=start, goal=goal), config)
    assert explore(engine, problem, start, goal, config) == (run.plan, len(run.events))
    for event in run.events:
        nxt, reason = step(problem, event.parent_state, event.action)
        if event.reason in (None, "already-visited"):
            assert nxt is not None and event.state == nxt
        else:
            assert event.state is None and event.reason == reason
    position = {action: i for i, action in enumerate(candidate_actions(problem))}
    for _, expansion in itertools.groupby(run.events, lambda e: e.parent_state):
        probes = [position[e.action] for e in expansion]
        assert probes == sorted(set(probes))


@pytest.mark.parametrize("engine", ["astar", "bfs", "dfs"])
@pytest.mark.parametrize("caps", ["nocaps", "caps"])
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_the_loop_expands_as_the_reference_loop(engine, caps, data):
    """The search loop hands its account the reference loop's expansions,
    (parent, g, [(action, successor)], fresh) in order, and returns the
    same plan and count, as does the recorded run between the same
    endpoints. The endpoints are the problem's own, or two states of its
    BFS plan, in either order."""
    problem = data.draw(st.one_of(maze_problems(), blocks_problems(max_blocks=5)))
    seed = data.draw(st.integers(0, 2 ** 32))
    config = TraceConfig() if caps == "nocaps" else TraceConfig(valid_cap=3, invalid_cap=2, seed=seed)
    start, goal = problem.start, problem.goal
    plan, _ = reference.search(problem, start, goal, "bfs", lambda *expansion: 0)
    if plan and data.draw(st.booleans()):
        states = plan_states(problem, plan)
        start, goal = data.draw(st.sampled_from(states)), data.draw(st.sampled_from(states))
    count = search._counter(problem, config)

    def account(calls):
        def record(parent, g, successors, fresh):
            calls.append((parent, g, [s[:2] for s in successors], dict(fresh)))
            return count(parent, g, successors, fresh)
        return record

    ours, theirs = [], []
    result = search._search(problem, start, goal, engine, account(ours))
    assert result == reference.search(problem, start, goal, engine, account(theirs))
    assert ours == theirs
    run = run_engine(engine, replace(problem, start=start, goal=goal), config)
    assert (run.plan, len(run.events)) == result


def test_sample_draws_positions_from_length_and_k():
    """random.sample picks its positions from the population's length and k
    alone, so the recorder can draw invalid probes as ordinals. Two
    generators seeded alike stay in step while every draw agrees."""
    for seed in range(200):
        by_value, by_position = random.Random(seed), random.Random(seed)
        for n in range(2, 60):
            population = [(seed, j) for j in range(n)]
            for k in range(1, min(n, 3) + 1):
                ordinals = by_position.sample(range(n), k)
                assert by_value.sample(population, k) == [population[j] for j in ordinals]


@pytest.mark.parametrize("engine", ["astar", "bfs", "dfs"])
@pytest.mark.parametrize("domain", ["maze", "blocks"])
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_goal_is_generated_in_the_last_expansion(engine, domain, data):
    """With caps off, a run that finds a plan (here, to a reachable goal
    other than the start) generates its goal in its last expansion, the
    events that share the last event's parent state, and in no earlier one:
    its count when the goal is found is its count, so a run cut below its
    count has no plan."""
    problem = data.draw(maze_problems() if domain == "maze" else blocks_problems(max_blocks=4))
    goal = data.draw(reachable_states(problem).filter(lambda state: state != problem.start))
    run = run_engine(engine, replace(problem, goal=goal))
    assert run.plan and run.events
    last = [e for e in run.events if e.parent_state == run.events[-1].parent_state]
    assert last == list(run.events[len(run.events) - len(last):])
    generated = [i for i, e in enumerate(run.events) if e.reason is None and e.state == goal]
    assert len(generated) == 1 and generated[0] >= len(run.events) - len(last)


@pytest.mark.parametrize("engine", ["astar", "bfs", "dfs"])
@pytest.mark.parametrize("domain", ["maze", "blocks"])
@pytest.mark.parametrize("valid_cap", [None, 2])
@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_a_run_without_an_invalid_cap_ignores_the_seed(engine, domain, valid_cap, data):
    """The seed drives only the invalid cap's sample, so without that cap
    every seed records the same run."""
    problem = data.draw(maze_problems() if domain == "maze" else blocks_problems(max_blocks=4))
    seed = data.draw(st.integers(1, 2 ** 64))
    assert run_engine(engine, problem, TraceConfig(valid_cap=valid_cap, seed=seed)) == \
           run_engine(engine, problem, TraceConfig(valid_cap=valid_cap))


def test_explore_rejects_unknown_engine():
    p = maze_problem(3, 3, (), (0, 0), (2, 2))
    with pytest.raises(ValueError):
        explore("ids", p, p.start, p.goal)


def test_scoring_builds_no_events(monkeypatch, small_maze_dataset, small_blocks_dataset):
    """solve_hybrid, and run_planner with no memo and from a sweep memo's
    kept run, score by counting."""
    problems = [*small_maze_dataset["test"][:10], *small_blocks_dataset["test"][:3]]
    expected = {}
    for p in problems:
        run = astar(p)
        expected[p.problem_id] = (run.plan, len(run.events))

    def no_events(*args, **kwargs):
        raise AssertionError("an ExplorationEvent was built")

    monkeypatch.setattr(search, "ExplorationEvent", no_events)
    with pytest.raises(AssertionError):
        astar(problems[0])
    config = PlannerConfig(kind="sys2")
    memo = {}
    for p in problems:
        meta = (SubGoal(p.start, p.goal, SYS2),)
        for budget in (None, 5):
            run = solve_hybrid(p, meta, budget=budget)
            assert run_planner([p], config, budget) == [run]
            assert run_planner([p], replace(config, memo=memo), budget) == [run]
        run = solve_hybrid(p, meta)
        assert (run.plan, run.states_explored) == expected[p.problem_id]
