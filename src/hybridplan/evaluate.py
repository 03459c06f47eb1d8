"""Metrics, budget matching, and budget sweeps, whose passes share a
sweep memo (a plain dict: PlannerConfig.memo).

Every planner is a HybridController, whose meta-plan solve_hybrid solves
into a hybrid.Run that judges its own plan; System 1 and System 2 are its
ends, x=0 and x=1 under no-subgoal (PURE_CONTROLLERS). run_planner gives
a pass one of two routes: without a memo, or over worker processes, one
map of the controller's decompose and solve_hybrid; with a memo, a loop
over the controller.ProblemRecord the memo keeps of each problem.

Rates are exact fractions internally; rendering rounds to one decimal
place (percent) / three places (rates). Budget matching picks the largest
truncation cap whose resulting average states-explored stays at or below
the target.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import partial

from .controller import ControllerConfig, HybridController, ProblemRecord
from .hybrid import cut_run, solve_hybrid
from .search import ENGINES, TraceConfig


@dataclass(frozen=True)
class BudgetRow:
    budget: object  # numeric target or "default"
    avg_se: Fraction
    validity: Fraction
    optimality: Fraction
    n: int
    bias: float | None = None  # set when reached via test-time control
    cap: int | None = None  # set when reached by truncation


@dataclass(frozen=True)
class BudgetReport:
    planner: str
    rows: tuple


KINDS = ("sys1", "sys2", "hybrid")
# the pure planners as the controller's ends; neither reads training hardness
PURE_CONTROLLERS = {"sys1": HybridController(ControllerConfig(x=0.0)),
                    "sys2": HybridController(ControllerConfig(x=1.0, variant="no-subgoal"))}


@dataclass(frozen=True)
class PlannerConfig:
    kind: str  # one of KINDS
    engine: str = "astar"
    trace: TraceConfig = TraceConfig()
    controller: HybridController | None = None  # fitted; hybrid only
    # The sweep memo, which the passes of one budget_sweep share (no part of
    # the config's value): one table per sweep-invariant config part (kind,
    # engine, trace config, controller variant, selector and seed), mapping
    # each problem's (problem_id, geometry) to its ProblemRecord, so no record
    # reaches another maze or block universe under the same id. No meta-plan,
    # search run or event is kept.
    memo: dict | None = field(default=None, compare=False, hash=False, repr=False)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown planner kind {self.kind!r}")
        if self.engine not in ENGINES:
            raise ValueError(f"unknown search engine {self.engine!r}")
        if self.kind == "hybrid" and (self.controller is None
                                      or self.controller.training_hardness is None):
            raise ValueError("a hybrid planner needs a fitted controller")

    def label(self):
        if self.kind == "sys1":
            return "sys1-greedy"
        if self.kind == "sys2":
            return self.engine
        cfg = self.controller.config
        return f"hybrid-x{cfg.x:g}-{self.engine}"


def average_se(runs):
    if not runs:
        raise ValueError("average states-explored of an empty run set is undefined")
    return Fraction(sum(r.states_explored for r in runs), len(runs))


def match_budget_cap(sizes, target):
    """Largest integer cap c with mean(min(size, c)) <= target; 1 when
    even the smallest cap overshoots.

    Between two neighbouring sizes in ascending order the capped total is
    linear in c, so the first stretch in which it passes the target holds
    the answer; no cap above the largest size is considered."""
    if target < 1:
        raise ValueError("target budget must be >= 1")
    sizes = sorted(sizes)
    if not sizes:
        raise ValueError("no trace sizes to match against")
    total_target = target * len(sizes)
    below = 0  # total of the sizes under the current stretch
    for k, size in enumerate(sizes):
        # for c from sizes[k - 1] up to size: capped total = below + c * (n - k)
        cap = (total_target - below) // (len(sizes) - k)
        if cap < size:
            return max(1, int(cap))
        below += size
    return max(1, sizes[-1])


def run_planner(problems, config, budget=None, workers=1):
    """The Run of each problem, in order: the meta-plan its controller (a
    pure planner's from PURE_CONTROLLERS) decomposes it into, solved by
    solve_hybrid and cut to the budget.

    Without a memo, or in worker processes, which share none, the pass is
    one map: decompose gives each problem's meta-plan in this process, and
    solve_hybrid solves it here or in the pool. With a memo, the pass
    looks up its table once and each problem's ProblemRecord once. The
    gate rule reads the record's gate input and skeleton for the problem's
    meta-plan shape; the unbudgeted run of each shape is solved once, and
    a later unbudgeted pass hands back that very Run, while a budgeted pass
    cuts its outcomes with cut_run."""
    controller = PURE_CONTROLLERS.get(config.kind, config.controller)
    if config.memo is None or workers > 1:
        solve = partial(solve_hybrid, engine=config.engine, trace=config.trace, budget=budget)
        meta_plans = map(controller.decompose, problems)
        if workers == 1:
            return list(map(solve, problems, meta_plans))
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(solve, problems, meta_plans,
                                 chunksize=max(1, len(problems) // (4 * workers))))
    c = controller.config  # the key holds what every pass of a sweep shares
    table = config.memo.setdefault((config.kind, config.engine, config.trace,
                                    c.variant, c.selector, c.seed), {})
    runs = []
    for problem in problems:
        key = problem.problem_id, problem.geometry
        record = table.get(key)
        if record is None:
            record = table[key] = ProblemRecord(problem, controller.gate_input)
        shape = controller.shape(record)
        run = record.runs.get(shape)
        if run is None:
            run = record.runs[shape] = solve_hybrid(
                problem, controller.decompose(problem, shape, lambda: record.skeleton),
                config.engine, config.trace)
        if budget is not None:
            run = cut_run(problem, run.outcomes, budget)
        elif run.problem is not problem:  # another object of the same id and geometry
            run = run._replace(problem=problem)
        runs.append(run)
    return runs


def score_runs(runs, budget="default", bias=None, cap=None):
    """The report row of a run set: its average states explored and its
    validity and optimality rates, each plan validated once."""
    avg_se = average_se(runs)
    judged = [run.judge() for run in runs]
    return BudgetRow(budget=budget, avg_se=avg_se,
                     validity=Fraction(sum(valid for valid, _ in judged), len(runs)),
                     optimality=Fraction(sum(optimal for _, optimal in judged), len(runs)),
                     n=len(runs), bias=bias, cap=cap)


BIAS_STEP = 0.05


def budget_sweep(problems, config, budgets, workers=1):
    """One report row per distinct target budget plus the planner's default
    row; a sys1 planner gets its default row alone, whatever the budgets.

    Targets below the default average are reached by truncation via
    match_budget_cap; for hybrid planners, targets above the default are
    reached by sweeping the controller bias upward in steps of 0.05 and
    keeping the largest bias whose average stays within the target.

    Every pass solves its problems from one memo, so each problem is
    solved once per meta-plan shape, a later unbudgeted pass hands back
    the kept Runs and a truncation pass only cuts the kept runs; the
    memo is emptied when the sweep returns.
    """
    memo = {}
    try:
        return _sweep(problems, replace(config, memo=memo), sorted(set(budgets)), workers)
    finally:
        memo.clear()


def _sweep(problems, config, budgets, workers):
    default_runs = run_planner(problems, config, workers=workers)
    default_avg = average_se(default_runs)
    rows = []
    if config.kind == "sys1":
        return BudgetReport(config.label(), (score_runs(default_runs),))
    sizes = [r.states_explored for r in default_runs]
    for target in budgets:
        if target < default_avg:
            cap = match_budget_cap(sizes, target)
            runs = run_planner(problems, config, budget=cap, workers=workers)
            rows.append(score_runs(runs, target, cap=cap))
        elif config.kind == "hybrid":
            best = (default_runs, None)
            steps = int(round(1.0 / BIAS_STEP))
            base_bias = config.controller.config.bias
            for i in range(1, steps + 1):
                bias = min(1.0, base_bias + i * BIAS_STEP)
                biased = replace(config, controller=config.controller.with_bias(bias))
                runs = run_planner(problems, biased, workers=workers)
                if average_se(runs) <= target:
                    best = (runs, bias)
                if bias >= 1.0:
                    break
            rows.append(score_runs(best[0], target, bias=best[1]))
        else:
            rows.append(score_runs(default_runs, target))
    rows.append(score_runs(default_runs))
    return BudgetReport(config.label(), tuple(rows))


def report_to_csv(report):
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["planner", "budget", "avg_se", "validity", "optimality", "n"])
    for row in report.rows:
        writer.writerow([
            report.planner, row.budget, f"{float(row.avg_se):.1f}",
            f"{float(row.validity):.3f}", f"{float(row.optimality):.3f}", row.n,
        ])
    return buf.getvalue()


def report_to_markdown(report):
    """The report as a markdown table, with the bias or the truncation cap
    by which each row reached its budget ("-" for neither)."""
    lines = [
        "| planner | budget | avg SE | validity | optimality | n | bias | cap |",
        "|---|---|---|---|---|---|---|---|",
    ]
    for row in report.rows:
        bias = "-" if row.bias is None else f"{row.bias:g}"
        cap = "-" if row.cap is None else row.cap
        lines.append(
            f"| {report.planner} | {row.budget} | {float(row.avg_se):.1f} "
            f"| {100 * float(row.validity):.1f} | {100 * float(row.optimality):.1f} | {row.n} "
            f"| {bias} | {cap} |"
        )
    return "\n".join(lines) + "\n"


def report_to_plot_data(reports):
    """One series per planner, for external plotting."""
    series = []
    for report in reports:
        points = [
            {"budget": (None if row.budget == "default" else row.budget),
             "avg_se": float(row.avg_se), "validity": float(row.validity),
             "optimality": float(row.optimality)}
            for row in report.rows
        ]
        series.append({"planner": report.planner, "points": points})
    return json.dumps({"series": series}, indent=2) + "\n"
