"""Acceptance suite: every criterion prints one PASS/FAIL line (visible
with pytest -s) and asserts at its stated tolerance."""

import json
import random
import time
from dataclasses import replace
from fractions import Fraction

import pytest

from hybridplan.controller import (
    SYS1,
    SYS2,
    ControllerConfig,
    HybridController,
    build_controller_dataset,
    meta_plan,
    window_length,
)
from hybridplan.domains import greedy_walk, plan_states, validate_plan
from hybridplan.evaluate import (
    PlannerConfig,
    budget_sweep,
    match_budget_cap,
    run_planner,
    score_runs,
)
from hybridplan.generators import blocks_bfs_length
from hybridplan.hybrid import solve_hybrid
from hybridplan.hardness import hardness_fn
from hybridplan.search import ENGINES, TraceConfig, astar, bfs, dfs
from hybridplan.textio import (
    CorpusWriter,
    metaplan_record,
    parse_metaplan_text,
    parse_plan_text,
    parse_trace_text,
    verbalize_plan,
)

from reference import capped_totals
from test_controller import brute_force_window


def report(name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def fitted_controller(maze_dataset):
    return HybridController(ControllerConfig(x=0.5)).fit(maze_dataset["train"])


def test_criterion_1_astar_reproduction(maze_dataset):
    t0 = time.monotonic()
    test = maze_dataset["test"]
    runs = [astar(p) for p in test]
    elapsed = time.monotonic() - t0
    validity = Fraction(
        sum(1 for r, p in zip(runs, test) if r.plan is not None and validate_plan(p, r.plan)[0]),
        len(runs))
    optimality = Fraction(
        sum(1 for r, p in zip(runs, test)
            if r.plan is not None and len(r.plan) == p.optimal_length
            and validate_plan(p, r.plan)[0]),
        len(runs))
    avg_se = sum(len(r.events) for r in runs) / len(runs)
    ok = (validity == 1 and optimality == 1 and 17 <= avg_se <= 28 and elapsed < 60)
    report("criterion 1 (A* reproduction)", ok,
           f"validity={float(validity):.2f} optimality={float(optimality):.2f} "
           f"avg_se={avg_se:.1f} (band [17, 28], paper value 22.4) time={elapsed:.1f}s")


def test_criterion_2_truncated_astar_degradation(maze_dataset):
    config = PlannerConfig(kind="sys2", engine="astar")
    rep = budget_sweep(maze_dataset["test"], config, [5, 10, 15, 20])
    at5 = rep.rows[0]
    validities = [row.validity for row in rep.rows]
    ok = (float(at5.avg_se) <= 5 and at5.validity < Fraction(35, 100)
          and validities == sorted(validities))
    report("criterion 2 (truncated A* degradation)", ok,
           f"validity@~5={float(at5.validity):.3f} (< 0.35) "
           f"grid validities={[round(float(v), 3) for v in validities]} nondecreasing")


def test_criterion_3_hybrid_advantage(maze_dataset, fitted_controller):
    test = maze_dataset["test"]
    astar_cfg = PlannerConfig(kind="sys2", engine="astar")
    hybrid_cfg = PlannerConfig(kind="hybrid", engine="astar", controller=fitted_controller)
    astar_rep = budget_sweep(test, astar_cfg, [5, 10])
    hybrid_rep = budget_sweep(test, hybrid_cfg, [5, 10])
    margins = {}
    ok = True
    for a_row, h_row in zip(astar_rep.rows[:2], hybrid_rep.rows[:2]):
        margins[a_row.budget] = float(h_row.validity - a_row.validity)
        if h_row.validity < a_row.validity:
            ok = False
    report("criterion 3 (hybrid advantage at matched budgets)", ok,
           f"validity margins (hybrid - A*) at budgets 5/10: "
           f"{margins[5]:+.3f} / {margins[10]:+.3f}")


def test_criterion_4_decomposition_fidelity(maze_dataset):
    rng = random.Random(42)
    problems = [p for p in rng.sample(maze_dataset["train"], 250)
                if p.optimal_length >= 1][:200]
    mismatches = 0
    for p in problems:
        for x in (0.25, 0.5, 0.75):
            states = plan_states(p, p.gold_plan)
            meta = meta_plan(states, window_length(x, len(states) - 1), "sliding-window",
                             hardness_fn("maze-obstacles", p))
            su, sv = brute_force_window(p, p.gold_plan, x, "maze-obstacles")
            sys2 = [sg for sg in meta if sg.mode == SYS2][0]
            if (sys2.start, sys2.goal) != (su, sv):
                mismatches += 1
    easy_ok = True
    for x in (0.25, 0.5, 0.75):
        records = build_controller_dataset(problems, ControllerConfig(x=x))
        easy = sum(1 for _, m in records if len(m) == 1 and m[0].mode == SYS1)
        if easy != int((1 - x) * len(problems)):
            easy_ok = False
    base = HybridController(ControllerConfig(x=0.5)).fit(maze_dataset["train"])
    counts = []
    for bias in (-1.0, -0.5, 0.0, 0.5, 1.0):
        ctl = base.with_bias(bias)
        counts.append(sum(
            sum(1 for sg in ctl.decompose(p) if sg.mode == SYS2)
            for p in maze_dataset["test"]))
    monotone = counts == sorted(counts)
    ok = mismatches == 0 and easy_ok and monotone
    report("criterion 4 (decomposition fidelity)", ok,
           f"window-oracle mismatches={mismatches}/600, easy-count exact={easy_ok}, "
           f"hard counts over bias sweep={counts} nondecreasing={monotone}")


def test_criterion_5_bfs_dfs_properties(maze_dataset):
    test = maze_dataset["test"]
    bfs_runs = [bfs(p) for p in test]
    dfs_runs = [dfs(p) for p in test]
    bfs_optimal = all(r.plan is not None and len(r.plan) == p.optimal_length
                      for r, p in zip(bfs_runs, test))
    dfs_valid = all(r.plan is not None and validate_plan(p, r.plan)[0]
                    for r, p in zip(dfs_runs, test))
    se_bfs = sum(len(r.events) for r in bfs_runs) / len(test)
    se_dfs = sum(len(r.events) for r in dfs_runs) / len(test)
    ok = bfs_optimal and dfs_valid and se_dfs < se_bfs
    report("criterion 5 (BFS/DFS properties)", ok,
           f"BFS all optimal={bfs_optimal}, DFS all valid={dfs_valid}, "
           f"avg SE DFS={se_dfs:.1f} < BFS={se_bfs:.1f}")


def test_criterion_6_blocks_data_contract(blocks_dataset):
    sizes = {k: len(v) for k, v in blocks_dataset.items()}
    sizes_ok = sizes == {"train": 3000, "val": 250, "test": 200}
    gold_ok = all(validate_plan(p, p.gold_plan) == (True, None)
                  for s in blocks_dataset.values() for p in s)
    bands_ok = (all(1 <= p.optimal_length <= 6
                    for p in blocks_dataset["train"] + blocks_dataset["val"])
                and all(7 <= p.optimal_length <= 10 for p in blocks_dataset["test"]))
    four_block_test = [p for p in blocks_dataset["test"] if len(p.blocks) == 4]
    oracle_ok = all(
        len(astar(p).plan) == blocks_bfs_length(p) for p in four_block_test)
    ok = sizes_ok and gold_ok and bands_ok and oracle_ok
    report("criterion 6 (blocks data contract)", ok,
           f"splits={sizes}, gold valid={gold_ok}, length bands ok={bands_ok}, "
           f"A*==BFS on {len(four_block_test)} four-block test instances={oracle_ok}")


def test_criterion_6b_astar_matches_bfs_oracle_on_four_blocks(blocks_dataset):
    # the four-block population lives in train/val; keep the cross-check
    # meaningful there too
    sample = [p for p in blocks_dataset["val"] if len(p.blocks) == 4][:40]
    assert sample
    for p in sample:
        assert len(astar(p).plan) == blocks_bfs_length(p) == p.optimal_length


def test_criterion_7_dataset_round_trip(maze_dataset, blocks_dataset, tmp_path):
    rng = random.Random(9)
    plans_ok = all(
        parse_plan_text(verbalize_plan(p.gold_plan)) == p.gold_plan
        for p in rng.sample(maze_dataset["train"], 1000))
    trace_sample = rng.sample(maze_dataset["train"], 1000)
    writer = CorpusWriter()
    traces_ok = all(parse_trace_text(text) == json.loads(structured) for text, structured in
                    (writer.trace("astar", p, TraceConfig()) for p in trace_sample))
    records = build_controller_dataset(maze_dataset["train"], ControllerConfig(x=0.5))
    meta_sample = rng.sample(records, 1000)
    metas_ok = all(
        parse_metaplan_text(metaplan_record(m)[0]) == metaplan_record(m)[1]
        for _, m in meta_sample)

    caps_ok = True
    cap_cfg = TraceConfig(valid_cap=3, invalid_cap=2, seed=0)
    for p in blocks_dataset["train"][:100]:
        run = astar(p, cap_cfg)
        per_parent = {}
        for e in run.events:
            per_parent.setdefault(e.parent_state, []).append(e)
        for group in per_parent.values():
            if (sum(1 for e in group if e.reason is None) > 3
                    or sum(1 for e in group if e.reason is not None) > 2):
                caps_ok = False

    from hybridplan.textio import emit_datasets

    train = maze_dataset["train"][:50]
    small_records = build_controller_dataset(train, ControllerConfig(x=0.5))
    trace = TraceConfig(seed=0)
    m1 = emit_datasets(train, small_records, "astar", trace, str(tmp_path / "a"), seed=0)
    m2 = emit_datasets(train, small_records, "astar", trace, str(tmp_path / "b"), seed=0)
    bytes_ok = all(m1["files"][k]["sha256"] == m2["files"][k]["sha256"]
                   for k in ("sys1", "sys2", "controller"))
    ok = plans_ok and traces_ok and metas_ok and caps_ok and bytes_ok
    report("criterion 7 (dataset round-trip)", ok,
           f"plan/trace/meta round-trips over 1000 each={plans_ok}/{traces_ok}/{metas_ok}, "
           f"blocks caps 3+2 respected={caps_ok}, re-emission byte-identical={bytes_ok}")


def test_criterion_8_budget_matcher_oracle():
    rng = random.Random(77)
    checked = 0
    ok = True
    for _ in range(50):
        sizes = [rng.randint(1, 10_000) for _ in range(rng.randint(1, 40))]
        totals = capped_totals(sizes)
        for _ in range(5):
            target = rng.randint(1, 11_000)
            best = 1
            for cap in range(1, max(sizes) + 1):
                if totals[cap] <= target * len(sizes):
                    best = cap
            if match_budget_cap(sizes, target) != best:
                ok = False
            checked += 1
    report("criterion 8 (budget matcher oracle)", ok,
           f"{checked} multiset/target pairs agree with the exhaustive scan")


def test_criterion_9_saturation_equivalences(maze_dataset, fitted_controller):
    test = maze_dataset["test"]
    sat = HybridController(
        ControllerConfig(x=0.5, bias=1.0, variant="no-subgoal")).fit(maze_dataset["train"])
    sys2_ok = True
    for p in test:
        hybrid = solve_hybrid(p, sat.decompose(p), "astar")
        bare = astar(p)
        if hybrid.plan != bare.plan or hybrid.states_explored != len(bare.events):
            sys2_ok = False
    pure1 = HybridController(ControllerConfig(x=0.0)).fit(maze_dataset["train"])
    sys1_ok = True
    for p in test:
        hybrid = solve_hybrid(p, pure1.decompose(p))
        bare, _ = greedy_walk(p, p.start, p.goal)
        if hybrid.plan != bare or hybrid.states_explored != len(bare):
            sys1_ok = False
    ok = sys1_ok and sys2_ok
    report("criterion 9 (saturation equivalences)", ok,
           f"x'=1 no-subgoal == bare A* per problem: {sys2_ok}; "
           f"x=0 == bare greedy per problem: {sys1_ok}")


X_GRID = (0.0, 0.25, 0.5, 0.75, 1.0)


@pytest.fixture(scope="module")
def matched_rows(maze_dataset):
    """Per engine and x in X_GRID on the maze test split: the hybrid's
    report row, and the row of the engine truncated by match_budget_cap
    (over its own unbudgeted sizes) to the hybrid's average SE."""
    test = maze_dataset["test"]
    fitted = HybridController().fit(maze_dataset["train"])
    rows = {}
    for engine in ENGINES:
        plain = PlannerConfig(kind="sys2", engine=engine, memo={})
        sizes = [r.states_explored for r in run_planner(test, plain)]
        memo = {}
        for x in X_GRID:
            controller = replace(fitted, config=ControllerConfig(x=x))
            hybrid = score_runs(run_planner(test, PlannerConfig(
                kind="hybrid", engine=engine, controller=controller, memo=memo)))
            cap = match_budget_cap(sizes, hybrid.avg_se)
            rows[engine, x] = hybrid, score_runs(run_planner(test, plain, budget=cap))
    return rows


def test_criterion_10_controllability(matched_rows):
    """Maze half: for every engine, the hybrid's average SE rises strictly
    over x. The blocks half waits for every blocks problem to have a
    skeleton (ROADMAP item 1); today most blocks test problems have none,
    so the blocks hybrid hands them whole to its engine at every x > 0."""
    curves = {engine: [float(matched_rows[engine, x][0].avg_se) for x in X_GRID]
              for engine in ENGINES}
    ok = all(all(a < b for a, b in zip(se, se[1:])) for se in curves.values())
    report("criterion 10 (controllability, maze)", ok,
           "hybrid avg SE over x=" + "/".join(f"{x:g}" for x in X_GRID) + ": "
           + "; ".join(f"{e} " + ", ".join(f"{v:.1f}" for v in se)
                       for e, se in curves.items()) + " strictly rising")


def test_criterion_11_generalizability(matched_rows):
    """Maze part: for every engine and x in {.25, .5, .75}, the hybrid's
    validity is at least 0.2 above that of its own engine truncated to the
    hybrid's average SE. The blocks part waits for ROADMAP items 1 and 4."""
    margins = {(engine, x): float(hybrid.validity - truncated.validity)
               for (engine, x), (hybrid, truncated) in matched_rows.items()
               if 0.0 < x < 1.0}
    ok = all(m >= 0.2 for m in margins.values())
    report("criterion 11 (generalizability, maze)", ok,
           "validity margins (hybrid - truncated engine) at x=.25/.5/.75: "
           + "; ".join(f"{e} " + " / ".join(f"{margins[e, x]:+.3f}" for x in X_GRID[1:-1])
                       for e in ENGINES) + " (each >= 0.2)")
