import hashlib
import random
from dataclasses import replace
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridplan import controller, domains, evaluate
from hybridplan.controller import VARIANTS, ControllerConfig, HybridController, ProblemRecord
from hybridplan.domains import MazeGrid, PlanningProblem
from hybridplan.evaluate import (
    PlannerConfig,
    average_se,
    budget_sweep,
    match_budget_cap,
    report_to_csv,
    report_to_markdown,
    report_to_plot_data,
    run_planner,
    score_runs,
)
from hybridplan.hybrid import Run
from hybridplan.search import ENGINES, TraceConfig
from reference import capped_totals
from strategies import blocks_problems, maze_problems


def make_run(valid=True, length=2, optimal=2):
    grid = MazeGrid(5, 5)
    p = PlanningProblem(domain="maze", start=(0, 0), goal=(0, length), grid=grid,
                        optimal_length=optimal)
    plan = ("right",) * length if valid else None
    return Run(p, plan, length, ())


class TestRates:
    def test_validity_counting(self):
        runs = [make_run(), make_run(), make_run(), make_run(valid=False)]
        assert score_runs(runs).validity == Fraction(3, 4)

    def test_all_failures(self):
        runs = [make_run(valid=False)] * 3
        assert score_runs(runs).validity == 0

    def test_empty_is_error(self):
        with pytest.raises(ValueError):
            score_runs([])

    def test_valid_but_suboptimal(self):
        # a valid 2-step plan against an oracle length of 2 is optimal;
        # mark the oracle longer to fake suboptimality is impossible for a
        # straight corridor, so use a detour plan instead
        grid = MazeGrid(5, 5)
        p = PlanningProblem(domain="maze", start=(0, 0), goal=(0, 2), grid=grid,
                            optimal_length=2)
        detour = ("down", "right", "right", "up")
        runs = [Run(p, detour, 4, ())]
        row = score_runs(runs)
        assert row.validity == 1
        assert row.optimality == 0

    def test_optimality_needs_oracle(self):
        p = PlanningProblem(domain="maze", start=(0, 0), goal=(0, 1), grid=MazeGrid(3, 3))
        with pytest.raises(ValueError):
            score_runs([Run(p, ("right",), 1, ())])

    def test_optimality_le_validity(self, small_maze_dataset):
        ctl = HybridController(ControllerConfig(x=0.5)).fit(small_maze_dataset["train"])
        config = PlannerConfig(kind="hybrid", controller=ctl)
        runs = run_planner(small_maze_dataset["test"], config)
        row = score_runs(runs)
        assert row.optimality <= row.validity


class TestMatchBudgetCap:
    def test_spec_example(self):
        assert match_budget_cap([2, 6, 10], 4) == 5

    def test_saturation(self):
        assert match_budget_cap([3, 5, 9], 100) == 9

    def test_all_equal(self):
        assert match_budget_cap([7, 7, 7], 7) == 7

    def test_floor_at_one(self):
        assert match_budget_cap([50, 60], 1) == 1

    def test_one_huge_size(self):
        # no scan up to the largest size: this took 15 s as a linear scan
        assert match_budget_cap([1] * 399 + [200000], 400) == 159601

    def test_zero_sizes(self):
        assert match_budget_cap([0, 0], 3) == 1
        assert match_budget_cap([0, 4, 9], 3) == 5

    def test_agrees_with_exhaustive_scan(self):
        rng = random.Random(13)
        for _ in range(50):
            sizes = [rng.randint(1, 10_000) for _ in range(rng.randint(1, 30))]
            totals = capped_totals(sizes)
            for _ in range(5):
                target = rng.randint(1, 12_000)
                best = 1
                for cap in range(1, max(sizes) + 1):
                    if totals[cap] <= target * len(sizes):
                        best = cap
                assert match_budget_cap(sizes, target) == best


class TestBudgetSweep:
    def test_astar_monotone_validity(self, small_maze_dataset):
        config = PlannerConfig(kind="sys2", engine="astar")
        report = budget_sweep(small_maze_dataset["test"], config, [5, 10, 15, 20])
        validities = [row.validity for row in report.rows]
        assert validities == sorted(validities)
        assert report.rows[-1].budget == "default"
        for row in report.rows:
            assert row.optimality <= row.validity
            if row.budget != "default":
                assert row.avg_se <= row.budget

    def test_sys1_single_row(self, small_maze_dataset):
        config = PlannerConfig(kind="sys1")
        report = budget_sweep(small_maze_dataset["test"], config, [5, 10])
        assert len(report.rows) == 1 and report.rows[0].budget == "default"

    def test_hybrid_saturated_bias_matches_sys2_with_subgoals(self, small_maze_dataset):
        ctl = HybridController(ControllerConfig(x=0.5)).fit(small_maze_dataset["train"])
        config = PlannerConfig(kind="hybrid", controller=ctl)
        saturated = PlannerConfig(kind="hybrid", controller=ctl.with_bias(1.0))
        runs = run_planner(small_maze_dataset["test"], saturated)
        target = int(average_se(runs)) + 1
        report = budget_sweep(small_maze_dataset["test"], config, [target])
        row = report.rows[0]
        assert row.bias == 1.0
        assert row.validity == score_runs(runs).validity
        assert row.avg_se == average_se(runs)

    def test_deterministic(self, small_maze_dataset):
        config = PlannerConfig(kind="sys2", engine="bfs")
        a = budget_sweep(small_maze_dataset["test"], config, [5, 15])
        b = budget_sweep(small_maze_dataset["test"], config, [5, 15])
        assert a == b


class TestRendering:
    def _report(self, small_maze_dataset):
        config = PlannerConfig(kind="sys2", engine="astar")
        return budget_sweep(small_maze_dataset["test"][:20], config, [5])

    def test_csv(self, small_maze_dataset):
        text = report_to_csv(self._report(small_maze_dataset))
        lines = text.strip().splitlines()
        assert lines[0] == "planner,budget,avg_se,validity,optimality,n"
        assert len(lines) == 3

    def test_markdown(self, small_maze_dataset):
        text = report_to_markdown(self._report(small_maze_dataset))
        assert text.startswith("| planner |")

    def test_markdown_shows_bias_and_cap(self, small_maze_dataset):
        report = budget_sweep(small_maze_dataset["test"], _hybrid_config(small_maze_dataset), [5, 20])
        cut, scanned, default = report.rows
        assert cut.cap is not None and cut.bias is None
        assert scanned.bias is not None and scanned.cap is None
        assert default.bias is None and default.cap is None
        lines = report_to_markdown(report).splitlines()
        assert lines[0].endswith("| n | bias | cap |")
        assert lines[2].endswith(f"| - | {cut.cap} |")
        assert lines[3].endswith(f"| {scanned.bias:g} | - |")
        assert lines[4].endswith("| - | - |")

    def test_plot_data(self, small_maze_dataset):
        import json

        text = report_to_plot_data([self._report(small_maze_dataset)])
        data = json.loads(text)
        assert data["series"][0]["planner"] == "astar"
        assert data["series"][0]["points"][-1]["budget"] is None


@pytest.mark.parametrize("kwargs", [
    {"kind": "hybird"}, {"kind": "SYS1"}, {"kind": "sys2", "engine": "ids"},
    {"kind": "hybrid"}, {"kind": "hybrid", "controller": HybridController()},
], ids=["typo-kind", "upper-kind", "engine", "no-controller", "unfitted"])
def test_planner_config_rejects_bad_values(kwargs):
    """A config that no planner runs fails where it is built, not in a
    pass or in label()."""
    with pytest.raises(ValueError):
        PlannerConfig(**kwargs)
    with pytest.raises(ValueError):
        replace(PlannerConfig(kind="sys1"), **kwargs)


def _hybrid_config(dataset):
    ctl = HybridController(ControllerConfig(x=0.5)).fit(dataset["train"])
    return PlannerConfig(kind="hybrid", controller=ctl)


def test_workers_match_serial(small_maze_dataset):
    """For sys1, sys2 and the hybrid, with no budget or a cut, a pass over
    two worker processes gives the Runs of the serial memo-less pass and of
    a pass from a sweep memo."""
    problems = small_maze_dataset["test"][:20]
    for config in (PlannerConfig(kind="sys1"), PlannerConfig(kind="sys2"),
                   _hybrid_config(small_maze_dataset)):
        memo = {}
        for budget in (None, 5):
            serial = run_planner(problems, config, budget)
            assert run_planner(problems, replace(config, memo=memo), budget) == serial
            assert run_planner(problems, config, budget, workers=2) == serial


def test_sweep_workers_match_serial(small_maze_dataset):
    # worker processes, which share no memo, must not change a row
    config = _hybrid_config(small_maze_dataset)
    problems = small_maze_dataset["test"][:20]
    serial = budget_sweep(problems, config, [5, 20])
    assert serial.rows[0].bias is None and serial.rows[1].bias is not None  # cut, bias scan
    assert budget_sweep(problems, config, [5, 20], workers=2) == serial


def _compact(value):
    if value is None or type(value) in (int, float, str):
        return True
    return isinstance(value, (tuple, list)) and all(_compact(x) for x in value)


def _kept(memo):
    """Each value the memo keeps of a problem: its gate input and skeleton
    once computed, and per meta-plan shape the Run, checked to hold the
    record's problem, without that problem."""
    for table in memo.values():
        for record in table.values():
            kept = vars(record)
            yield from (kept[name] for name in ("gate", "skeleton") if name in kept)
            for run in record.runs.values():
                assert type(run) is Run and run.problem is record.problem
                yield run[1:]


def test_sweep_memo_lives_for_one_sweep(small_maze_dataset, monkeypatch):
    memos, filled = [], []
    original = evaluate.run_planner

    def run_planner(problems, config, budget=None, workers=1):
        runs = original(problems, config, budget=budget, workers=workers)
        memos.append(config.memo)
        filled.append(len(config.memo))
        # numbers, states, plans, skeletons, hybrid Runs and tuples of them: no search
        # runs, events or meta-plans
        assert all(_compact(value) for value in _kept(config.memo))
        return runs

    monkeypatch.setattr(evaluate, "run_planner", run_planner)
    config = _hybrid_config(small_maze_dataset)
    budget_sweep(small_maze_dataset["test"], config, [5, 20])
    assert len(memos) > 2 and all(m is memos[0] for m in memos) and min(filled) > 0
    assert len(memos[0]) == 0
    assert config.memo is None
    budget_sweep(small_maze_dataset["test"], config, [5])
    assert memos[-1] is not memos[0]


def test_sweep_computes_each_shape_once(small_maze_dataset, monkeypatch):
    """Work counts, not times: in a hybrid sweep with truncation and bias
    passes, each problem's gate input (its hardness) is computed at most
    once, the window optimizer runs at most once per skeleton and window
    length, unbudgeted passes solve each (problem, meta-plan shape) at most
    once, and a budgeted pass neither solves nor places a window: it cuts
    the kept runs."""
    gates, windows, unbudgeted, passes, budgeted_work = [], [], [], [], []
    original_gate, original_window = HybridController.gate_input, controller.window_start
    original_solve, original_run_planner = evaluate.solve_hybrid, evaluate.run_planner

    def in_budgeted_pass():
        return passes[-1][1] is not None

    def gate_input(self, problem):
        gates.append(problem.problem_id)
        return original_gate(self, problem)

    def window_start(states, w, variant, hfn):
        windows.append((tuple(states), w))
        if in_budgeted_pass():
            budgeted_work.append(("window_start", w))
        return original_window(states, w, variant, hfn)

    def solve_hybrid(problem, meta_plan, engine, trace, budget=None):
        if budget is None:
            unbudgeted.append(problem.problem_id)
        if in_budgeted_pass():
            budgeted_work.append(("solve_hybrid", problem.problem_id))
        return original_solve(problem, meta_plan, engine, trace, budget)

    def run_planner(problems, config, budget=None, workers=1):
        passes.append((config.controller, budget))
        return original_run_planner(problems, config, budget, workers)

    monkeypatch.setattr(HybridController, "gate_input", gate_input)
    monkeypatch.setattr(controller, "window_start", window_start)
    monkeypatch.setattr(evaluate, "solve_hybrid", solve_hybrid)
    monkeypatch.setattr(evaluate, "run_planner", run_planner)
    problems = small_maze_dataset["test"]
    report = budget_sweep(problems, _hybrid_config(small_maze_dataset), [5, 20])
    assert report.rows[0].cap is not None and report.rows[1].bias is not None
    assert len(passes) > 10 and sum(budget is not None for _, budget in passes) == 1
    assert sorted(gates) == sorted(set(p.problem_id for p in problems))
    assert windows and len(windows) == len(set(windows))
    shapes = {(p.geometry, ctl.shape(ProblemRecord(p, partial(original_gate, ctl))))
              for ctl, budget in passes if budget is None for p in problems}
    assert len(unbudgeted) <= len(shapes) < len(passes) * len(problems) // 4
    assert budgeted_work == []


# every name through which a pass can compute a gate input or a skeleton
GATE_AND_SKELETON = ((HybridController, "gate_input"), (domains, "skeleton"),
                     (controller, "skeleton"))


def counted_calls(monkeypatch, targets):
    """Patch each (module, name) target, for the test's length, to append
    its name to the returned list on every call."""
    work = []

    def counted(module, name):
        original = getattr(module, name)

        def count(*args, **kwargs):
            work.append(name)
            return original(*args, **kwargs)
        monkeypatch.setattr(module, name, count)

    for module, name in targets:
        counted(module, name)
    return work


def test_a_pass_over_seen_shapes_does_no_work(small_maze_dataset, monkeypatch):
    """Work counts, not times: once a memo has seen every problem's shape
    at a bias, an unbudgeted pass at that bias computes no gate input or
    skeleton, places no window and solves nothing, and hands back the very
    Runs that first solved each shape; a budgeted pass solves
    nothing either."""
    work = counted_calls(monkeypatch, GATE_AND_SKELETON + (
        (controller, "window_start"), (evaluate, "solve_hybrid")))
    problems = small_maze_dataset["test"]
    config = replace(_hybrid_config(small_maze_dataset), memo={})
    saturated = replace(config, controller=config.controller.with_bias(0.5))
    first = [run_planner(problems, c) for c in (config, saturated)]
    assert {"gate_input", "skeleton", "window_start", "solve_hybrid"} <= set(work)
    assert {len(table) for table in config.memo.values()} == {len(problems)}
    work.clear()
    for c, runs in zip((config, saturated, config), first + first[:1]):
        again = run_planner(problems, c)
        assert all(a is b for a, b in zip(again, runs, strict=True))
    cut = run_planner(problems, config, budget=3)
    assert work == []
    assert cut == run_planner(problems, replace(config, memo=None), budget=3)


biases = st.one_of(st.sampled_from((0.0, 0.05, 0.5)), st.floats(-0.3, 0.3))


@st.composite
def planner_configs(draw, train):
    """A planner of a random kind, engine, trace config and controller
    (variant, seed, x and bias), fitted on the train problems."""
    ctl = HybridController(ControllerConfig(
        x=draw(st.floats(0, 1)), bias=draw(biases),
        variant=draw(st.sampled_from(VARIANTS)), seed=draw(st.integers(0, 2)))).fit(train)
    return PlannerConfig(kind=draw(st.sampled_from(("hybrid", "hybrid", "hybrid", "sys1", "sys2"))),
                         engine=draw(st.sampled_from(sorted(ENGINES))),
                         trace=draw(st.sampled_from((TraceConfig(), TraceConfig(3, 2, 0)))),
                         controller=ctl)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_memo_passes_give_the_fresh_runs(data):
    """A sequence of run_planner passes that share one sweep memo gives
    exactly the Runs of the same passes without it. A pass either
    rebiases the last planner, as a sweep's bias scan does, or switches to
    another planner; it has a random budget or none. The problems have
    distinct ids, and the last shares its geometry with the first."""
    problems = data.draw(st.sampled_from((maze_problems(max_side=8), blocks_problems(max_blocks=4))))
    train = data.draw(st.lists(problems, min_size=1, max_size=6))
    test = data.draw(st.lists(problems, min_size=1, max_size=4))
    test = [replace(p, problem_id=f"p{i}", optimal_length=0) for i, p in enumerate(test + test[:1])]
    config = data.draw(planner_configs(train))
    memo = {}
    for _ in range(data.draw(st.integers(1, 6))):
        if data.draw(st.booleans()):
            config = replace(config, controller=config.controller.with_bias(data.draw(biases)))
        else:
            config = data.draw(planner_configs(train))
        budget = data.draw(st.one_of(st.none(), st.integers(1, 60)))
        fresh = run_planner(test, config, budget=budget)
        assert run_planner(test, replace(config, memo=memo), budget=budget) == fresh


def test_memo_shared_by_window_planners_gives_the_fresh_runs(small_maze_dataset):
    """One memo shared by hybrid planners whose windows differ in placement
    rule or length gives each planner its fresh runs."""
    train, test = small_maze_dataset["train"], small_maze_dataset["test"]
    memo = {}
    for variant in ("sliding-window", "edge-window"):
        for x in (0.25, 0.75):
            ctl = HybridController(ControllerConfig(x=x, variant=variant)).fit(train)
            config = PlannerConfig(kind="hybrid", controller=ctl)
            assert run_planner(test, replace(config, memo=memo)) == run_planner(test, config)


@pytest.mark.parametrize("domain", ["maze", "blocks"])
def test_pure_planners_are_the_controllers_ends(domain, small_maze_dataset, small_blocks_dataset,
                                                monkeypatch):
    """System 1 and System 2 are System-1.x at its two ends: a sys1 planner
    gives exactly the Runs, outcomes included, of a hybrid fitted at x=0,
    and a sys2 planner those of a hybrid fitted at x=1 under no-subgoal,
    for every engine with caps on and off, budgeted or not, with and
    without a sweep memo. A pure planner computes no gate input and no
    skeleton."""
    if domain == "maze":
        train, problems = small_maze_dataset["train"], small_maze_dataset["test"]
    else:
        train = small_blocks_dataset["train"]
        problems = [p for p in train if len(p.blocks) <= 5]
    ends = {"sys1": ControllerConfig(x=0.0),
            "sys2": ControllerConfig(x=1.0, variant="no-subgoal")}
    traces = (TraceConfig(), TraceConfig(valid_cap=3, invalid_cap=2, seed=0))
    cases = [(kind, engine, trace)
             for kind in ends for engine in sorted(ENGINES) for trace in traces]
    expected = {}
    for kind, engine, trace in cases:
        ctl = HybridController(ends[kind]).fit(train)
        hybrid = PlannerConfig(kind="hybrid", engine=engine, trace=trace, controller=ctl)
        for budget in (None, 5):
            expected[kind, engine, trace, budget] = run_planner(problems, hybrid, budget)
    work = counted_calls(monkeypatch, GATE_AND_SKELETON)
    for kind, engine, trace in cases:
        pure = PlannerConfig(kind=kind, engine=engine, trace=trace)
        memo = {}
        for budget in (None, 5, None):
            runs = expected[kind, engine, trace, budget]
            assert any(run.outcomes for run in runs)
            assert run_planner(problems, pure, budget) == runs
            assert run_planner(problems, replace(pure, memo=memo), budget) == runs
    assert work == []


def test_run_planner_budget_none_vs_cap(small_maze_dataset):
    config = PlannerConfig(kind="sys2", engine="astar")
    p = small_maze_dataset["test"][0]
    [free] = run_planner([p], config)
    [capped] = run_planner([p], config, budget=1)
    assert capped.states_explored == 1
    assert free.states_explored >= capped.states_explored


# sha256 over report_to_csv of budget sweeps on the small datasets: the maze
# test split (targets 5,10,20,25; the hybrid's rows take both truncation and
# the bias scan) and the blocks train problems with at most 5 blocks (targets
# 5,10,20,25,100), with and without the 3/2 recording caps. The hybrid is
# pinned over every engine; a test id names the engine unless it is A*, the
# default.
GOLDEN_SWEEP_DIGESTS = {
    ("maze", "astar", "hybrid", "nocaps"):
        "7c6213b6d311470424872aa9ef59744e285d6e05f0622c8932bd38584455e4dd",
    ("maze", "astar", "sys2", "nocaps"):
        "3a092a2aa75696247e681aa5531bcbf76b55055f1dca56eed2e2f7be4d0ffb28",
    ("maze", "astar", "sys1", "nocaps"):
        "d3ee8b3d9abcf6eec49aa937c4181cf811f1d9973117ad89549f139b82385114",
    ("blocks", "astar", "hybrid", "nocaps"):
        "f89d9684f4df91180a446a85c377642a845cc5b6e6cb3e92ea435e81447f57cd",
    ("blocks", "astar", "hybrid", "caps"):
        "3748d9ead826dfc4bf21dc762f1bcf8abc3c2ebd9832d38eaa9cf354f6614547",
    ("maze", "bfs", "hybrid", "nocaps"):
        "70747352d221829c54967ed123ff4a13a1d88c39970456deb4536ca05fbe54b0",
    ("maze", "bfs", "hybrid", "caps"):
        "b941f38a14ca482e6b5ac2824be0c1d71953362cf72530d1d6d91047f7de1ceb",
    ("maze", "dfs", "hybrid", "nocaps"):
        "6fc540ed866a35b9b0407f093288ecbd7fc4ddcdfe010f56df2e13726fd0b677",
    ("maze", "dfs", "hybrid", "caps"):
        "33f0445766e9306ea5746be74c02194ed252d4beca99ac3e0727e04a2f9681c9",
    ("blocks", "bfs", "hybrid", "nocaps"):
        "e07043790f6296ea6e090eb5f1a558acacb035c714296d510afcec330d46698d",
    ("blocks", "bfs", "hybrid", "caps"):
        "07a8c5baa1ce0a20ed5d68546a265560369bb4b32faafae4e71d71d3b7bea40c",
    ("blocks", "dfs", "hybrid", "nocaps"):
        "1114196a38ca00a948827acbf908e2cbe631940fc4fbe3b0fbc2f8f93147cc0f",
    ("blocks", "dfs", "hybrid", "caps"):
        "a1d85a3d1a66ee25f3de655e3154b350ad1870369ee1167cd8f3191a25c57f94",
}


def _golden_sweep(domain, engine, kind, caps, small_maze_dataset, small_blocks_dataset):
    if domain == "maze":
        train = small_maze_dataset["train"]
        problems, budgets = small_maze_dataset["test"], [5, 10, 20, 25]
    else:
        train = small_blocks_dataset["train"]
        problems, budgets = [p for p in train if len(p.blocks) <= 5], [5, 10, 20, 25, 100]
    trace = TraceConfig() if caps == "nocaps" else TraceConfig(valid_cap=3, invalid_cap=2, seed=0)
    controller = HybridController(ControllerConfig(x=0.5)).fit(train) if kind == "hybrid" else None
    config = PlannerConfig(kind=kind, engine=engine, trace=trace, controller=controller)
    return report_to_csv(budget_sweep(problems, config, budgets))


@pytest.mark.parametrize(
    "domain,engine,kind,caps", sorted(GOLDEN_SWEEP_DIGESTS),
    ids=["-".join(part for part in key if part != "astar") for key in sorted(GOLDEN_SWEEP_DIGESTS)])
def test_golden_sweep_digests(domain, engine, kind, caps, small_maze_dataset, small_blocks_dataset):
    csv_text = _golden_sweep(domain, engine, kind, caps, small_maze_dataset, small_blocks_dataset)
    assert (hashlib.sha256(csv_text.encode()).hexdigest()
            == GOLDEN_SWEEP_DIGESTS[(domain, engine, kind, caps)])
