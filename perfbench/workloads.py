"""The four benchmark workloads: input set-up, one closed-loop pass, and
the output checks.

A pass drives `hybridplan.cli.main` the way a user runs the stage. The
checks re-derive what the stage reported from the stage's own outputs
and from library calls the benchmark makes itself, outside the timing.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import hashlib
import io
import json
import os
import random
from fractions import Fraction

from hybridplan import cli, domains, evaluate, generators, textio

# Blocks universes are capped at 6 blocks in every workload: the cost of a
# 7-block search has so heavy a tail that a seed-sized sample of 7-block
# instances varies by more than the benchmark's bounds from seed to seed.
BLOCKS_SWEEP_TRAIN = (200, 0, 0)  # calibrates the controller; the sweep runs on the fixed set
# 120 long-horizon instances, written once by
#   generate_blocks_dataset(0, BlocksDatasetConfig(max_blocks=6, split_sizes=(0, 0, 120)))
# Even at 6 blocks, search work on freshly sampled long-horizon sets of this
# size varies by about 20% between seeds; a seed-drawn renaming of the blocks
# changes every trace but only about 5% of the total work.
BLOCKS_SWEEP_BASE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                 "data", "blocks-long-test.jsonl")
# The generator's work on a seed varies with how many pairs it samples before
# the splits fill: over seeds 11-20 the blocks_step count spread (IQR/median)
# by 0.11 at 1200/100/80 and by 0.06 at this size.
BLOCKS_GEN_SIZES = (2400, 200, 160)
BLOCKS_CORPUS_SIZES = (400, 0, 0)
MAX_BLOCKS = 6
# The hybrid's default average SE on the maze test split lies between 12.8 and
# 15.1 over seeds 1-12. A target of 15 would be met by a one-pass truncation on
# some seeds and by the 20-pass bias scan on others, which makes throughput
# bimodal across seeds; 20 and 25 always take the bias scan.
SWEEP_BUDGETS = "5,10,20,25"


class CheckFailed(Exception):
    pass


def sha256_file(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def run_stage(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise CheckFailed(f"hybridplan {' '.join(argv)} exited with code {code}")


def blocks_config(sizes):
    return generators.BlocksDatasetConfig(max_blocks=MAX_BLOCKS, split_sizes=sizes)


def expect(ok, message):
    if not ok:
        raise CheckFailed(message)


class Workload:
    """One workload. Subclasses give `setup`, `operations` and `check`.

    An operation is one stage call plus its output checks; it fails when
    the call raises or a check fails.
    """

    name = ""

    def __init__(self, seed, work_dir):
        self.seed = seed
        self.work = work_dir
        self.problem_count = 0

    def path(self, name):
        return os.path.join(self.work, name)

    def setup(self, rep_dir):
        """Generate this workload's inputs from the seed into rep_dir, set
        problem_count and return {file name: sha256}."""
        raise NotImplementedError

    def operations(self):
        """[(operation name, callable running the stage)] for one pass."""
        raise NotImplementedError

    def outputs(self, op_name):
        """Output files of one operation, whose digests are recorded."""
        raise NotImplementedError

    def check(self, op_name):
        """Verify the outputs of the operation's last pass; raises CheckFailed."""
        raise NotImplementedError


def _save(path, splits):
    textio.save_problems(path, splits)
    return sha256_file(path)


# ---------------------------------------------------------------- sweeps

class _RunPlannerCapture:
    """Keeps every (config, budget, runs) that `budget_sweep` asks
    `evaluate.run_planner` for, so the check can rebuild each report row."""

    def __init__(self):
        self.calls = []
        self._original = None

    def install(self):
        original = self._original = evaluate.run_planner

        @functools.wraps(original)
        def run_planner(problems, config, budget=None, workers=1):
            runs = original(problems, config, budget=budget, workers=workers)
            self.calls.append((config, budget, runs))
            return runs

        evaluate.run_planner = run_planner

    def uninstall(self):
        evaluate.run_planner = self._original


def _read_csv_rows(path):
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    expect(lines and lines[0] == "planner,budget,avg_se,validity,optimality,n",
           f"{path}: unexpected header")
    return [line.split(",") for line in lines[1:]]


def _row_figures(runs):
    """avg SE, validity and optimality of a run set, with every plan
    re-validated through domains.validate_plan."""
    n = len(runs)
    valid = optimal = 0
    for run in runs:
        if run.plan is None:
            continue
        ok, _ = domains.validate_plan(run.problem, run.plan)
        if ok:
            valid += 1
            optimal += len(run.plan) == run.problem.optimal_length
    return (Fraction(sum(r.states_explored for r in runs), n),
            Fraction(valid, n), Fraction(optimal, n))


def _largest_cap(sizes, target):
    """Independent oracle for evaluate.match_budget_cap: the largest cap in
    [1, max(sizes)] whose capped total stays within target * n, found by
    bisection (the capped total never falls as the cap grows); 1 when no
    cap fits."""
    def fits(cap):
        return sum(min(s, cap) for s in sizes) <= target * len(sizes)

    low, high = 1, max(sizes)
    while low < high:
        mid = (low + high + 1) // 2
        if fits(mid):
            low = mid
        else:
            high = mid - 1
    return low


def check_sweep(csv_path, calls, problems, budgets, planner_kind):
    """Rebuild every sweep row from the captured planner passes and match
    it against the CSV the stage wrote."""
    rows = _read_csv_rows(csv_path)
    expect(calls, "the sweep made no planner pass")
    default_config, default_budget, default_runs = calls[0]
    expect(default_budget is None, "the first sweep pass is not the default pass")
    expect([r.problem.problem_id for r in default_runs] == [p.problem_id for p in problems],
           "the default pass did not cover the test split in order")
    default_avg = Fraction(sum(r.states_explored for r in default_runs), len(default_runs))
    sizes = [r.states_explored for r in default_runs]
    expected = []
    rest = list(calls[1:])
    for target in sorted(budgets):
        if target < default_avg:
            expect(rest, f"no truncation pass for target {target}")
            _, cap, runs = rest.pop(0)
            expect(cap == _largest_cap(sizes, target),
                   f"target {target}: cap {cap} is not the largest within the target")
            expect(all(r.states_explored <= cap for r in runs), f"target {target}: a run exceeds cap {cap}")
            figures = _row_figures(runs)
            expect(figures[0] <= target, f"target {target}: truncation row avg SE {float(figures[0])} over target")
        elif planner_kind == "hybrid":
            base_bias = default_config.controller.config.bias
            steps = int(round(1.0 / evaluate.BIAS_STEP))
            chosen = default_runs
            for i in range(1, steps + 1):
                bias = min(1.0, base_bias + i * evaluate.BIAS_STEP)
                expect(rest, f"target {target}: bias scan stopped early")
                config, budget, runs = rest.pop(0)
                expect(budget is None and config.controller.config.bias == bias,
                       f"target {target}: unexpected bias pass")
                if Fraction(sum(r.states_explored for r in runs), len(runs)) <= target:
                    chosen = runs
                if bias >= 1.0:
                    break
            figures = _row_figures(chosen)
        else:
            figures = _row_figures(default_runs)
        expected.append((str(target), figures))
    expect(not rest, f"{len(rest)} planner passes not accounted for by any row")
    default_figures = _row_figures(default_runs)
    expected.append(("default", default_figures))
    expect(len(rows) == len(expected), f"{csv_path}: {len(rows)} rows, expected {len(expected)}")
    for row, (budget, (avg, validity, optimality)) in zip(rows, expected):
        want = [budget, f"{float(avg):.1f}", f"{float(validity):.3f}",
                f"{float(optimality):.3f}", str(len(problems))]
        expect(row[1:] == want, f"{csv_path}: row {row[1:]} != re-derived {want}")
    return default_figures


class _SweepWorkload(Workload):
    planners = ()  # (planner name, extra CLI flags)
    # The test split is cut into this many problem files, one sweep each, so
    # that no operation runs for long between two readings of the host speed.
    chunks = 1

    def __init__(self, seed, work_dir):
        super().__init__(seed, work_dir)
        self.captures = {name: _RunPlannerCapture() for name, _, _ in self._operations()}

    def _operations(self):
        return [(f"{planner}-{k}", k, flags)
                for k in range(self.chunks) for planner, flags in self.planners]

    def _save_splits(self, rep_dir, train, test):
        self.problem_count = len(test)
        size = -(-len(test) // self.chunks)
        files = {}
        for k in range(self.chunks):
            name = f"problems-{k}.jsonl"
            files[name] = _save(os.path.join(rep_dir, name),
                                {"train": train, "test": test[k * size:(k + 1) * size]})
        return files

    def operations(self):
        ops = []
        for name, k, flags in self._operations():
            def run(name=name, k=k, flags=flags):
                self.captures[name].calls.clear()
                self.captures[name].install()
                try:
                    run_stage(["sweep", "--problems", self.path(f"problems-{k}.jsonl"),
                               "--split", "test", "--sys2", "astar", "--x", "0.5",
                               "--budgets", SWEEP_BUDGETS, "--workers", "1",
                               "--seed", str(self.seed), "--out", self.path(f"{name}.csv"),
                               *flags])
                finally:
                    self.captures[name].uninstall()
            ops.append((name, run))
        return ops

    def outputs(self, op_name):
        return [self.path(f"{op_name}.csv")]

    def check(self, op_name):
        kind = "hybrid" if op_name.startswith("hybrid") else "sys2"
        budgets = [int(b) for b in SWEEP_BUDGETS.split(",")]
        chunk = op_name.rsplit("-", 1)[1]
        test = textio.load_problems(self.path(f"problems-{chunk}.jsonl"))["test"]
        _, validity, optimality = check_sweep(
            self.path(f"{op_name}.csv"), self.captures[op_name].calls, test, budgets, kind)
        if kind == "sys2":
            expect(validity == 1 and optimality == 1,
                   "untruncated A* is not 100% valid and optimal")


class MazeSweep(_SweepWorkload):
    """400 maze test problems; hybrid x=0.5 A* and plain A* swept over SE
    targets 5,10,20,25: the paper's headline curve, where
    evaluate/hybrid/controller re-solving dominates."""

    name = "maze-sweep"
    planners = (("hybrid-astar", ["--planner", "system1x"]),
                ("astar", ["--planner", "system2"]))

    def setup(self, rep_dir):
        splits = generators.generate_maze_dataset(self.seed)
        return self._save_splits(rep_dir, splits["train"], splits["test"])


def relabel_blocks(problem, rng):
    """The same instance with its blocks renamed by a random permutation."""
    labels = list(problem.blocks)
    names = dict(zip(labels, rng.sample(labels, len(labels))))

    def state(stacks):
        return domains.canonical_blocks([[names[b] for b in stack] for stack in stacks])

    return dataclasses.replace(
        problem, start=state(problem.start), goal=state(problem.goal),
        gold_plan=tuple((names[b], d if d == domains.TABLE else names[d])
                        for b, d in problem.gold_plan))


class BlocksSweep(_SweepWorkload):
    """120 long-horizon blocks problems (5-6 blocks, 7-10 moves; a fixed set
    the seed renames) in hybrid x=0.5 A* sweeps reached by truncation only:
    uncapped A*, blocks_step and match_budget_cap dominate."""

    name = "blocks-sweep"
    planners = (("hybrid-astar", ["--planner", "system1x"]),)
    chunks = 4

    def setup(self, rep_dir):
        rng = random.Random(self.seed)
        test = [relabel_blocks(p, rng) for p in textio.load_problems(BLOCKS_SWEEP_BASE)["test"]]
        train = generators.generate_blocks_dataset(self.seed, blocks_config(BLOCKS_SWEEP_TRAIN))
        return self._save_splits(rep_dir, train["train"], test)


# ---------------------------------------------------------------- generation

class BlocksGen(Workload):
    """gen-blocks at 2400/200/160 problems: the lean A* oracle probes all n^2
    moves through valid_actions and blocks_step, so generators and domains
    do nearly all the work."""

    name = "blocks-gen"

    def setup(self, rep_dir):
        # The stage has no input file; its set-up is a warm-up generation at
        # a twentieth of the scale, so first-call costs stay out of the timing.
        small = tuple(max(1, s // 20) for s in BLOCKS_GEN_SIZES)
        splits = generators.generate_blocks_dataset(self.seed, blocks_config(small))
        self.problem_count = sum(BLOCKS_GEN_SIZES)
        return {"warmup.jsonl": _save(os.path.join(rep_dir, "warmup.jsonl"), splits)}

    def operations(self):
        def run():
            original = cli.BlocksDatasetConfig
            # gen-blocks has no flag for split sizes; the stage is run with
            # the reduced sizes by swapping the config it constructs.
            cli.BlocksDatasetConfig = lambda: blocks_config(BLOCKS_GEN_SIZES)
            try:
                run_stage(["gen-blocks", "--seed", str(self.seed),
                           "--out", self.path("blocks_problems.jsonl")])
            finally:
                cli.BlocksDatasetConfig = original
        return [("gen-blocks", run)]

    def outputs(self, op_name):
        return [self.path("blocks_problems.jsonl")]

    def check(self, op_name):
        config = blocks_config(BLOCKS_GEN_SIZES)
        splits = textio.load_problems(self.path("blocks_problems.jsonl"))
        counts = tuple(len(splits.get(s, [])) for s in generators.SPLITS)
        expect(counts == config.split_sizes, f"split sizes {counts} != {config.split_sizes}")
        seen_ids, seen_pairs = set(), set()
        for split, problems in splits.items():
            lo, hi = config.test_lengths if split == "test" else config.train_lengths
            for p in problems:
                expect(p.problem_id not in seen_ids, f"duplicate id {p.problem_id}")
                expect((p.start, p.goal) not in seen_pairs, f"duplicate pair {p.problem_id}")
                seen_ids.add(p.problem_id)
                seen_pairs.add((p.start, p.goal))
                ok, _ = domains.validate_plan(p, p.gold_plan)
                expect(ok, f"{p.problem_id}: gold plan does not reach the goal")
                expect(len(p.gold_plan) == p.optimal_length and lo <= p.optimal_length <= hi,
                       f"{p.problem_id}: length {p.optimal_length} outside {lo}-{hi}")
                if len(p.blocks) == 4:
                    expect(generators.blocks_bfs_length(p) == p.optimal_length,
                           f"{p.problem_id}: gold plan is not optimal by exhaustive BFS")


# ---------------------------------------------------------------- corpora

class CorpusEmit(Workload):
    """emit-datasets on 3200 maze and 400 blocks train problems: the write
    path, where textio verbalizes, mirrors, serializes and hashes full and
    capped traces."""

    name = "corpus-emit"
    corpora = (("maze", []), ("blocks", ["--blocks-caps"]))

    def setup(self, rep_dir):
        maze = generators.generate_maze_dataset(self.seed)
        blocks = generators.generate_blocks_dataset(self.seed, blocks_config(BLOCKS_CORPUS_SIZES))
        self.problem_count = len(maze["train"]) + len(blocks["train"])
        return {"maze.jsonl": _save(os.path.join(rep_dir, "maze.jsonl"), maze),
                "blocks.jsonl": _save(os.path.join(rep_dir, "blocks.jsonl"), blocks)}

    def operations(self):
        ops = []
        for domain, flags in self.corpora:
            def run(domain=domain, flags=flags):
                run_stage(["emit-datasets", "--problems", self.path(f"{domain}.jsonl"),
                           "--x", "0.5", "--sys2", "astar", "--seed", str(self.seed),
                           "--out", self.path(f"corpus-{domain}"), *flags])
            ops.append((domain, run))
        return ops

    def outputs(self, op_name):
        out = self.path(f"corpus-{op_name}")
        return [os.path.join(out, name) for name in
                ("manifest.json", "sys1.jsonl", "sys2.jsonl", "controller.jsonl")]

    def check(self, op_name):
        out = self.path(f"corpus-{op_name}")
        with open(os.path.join(out, "manifest.json"), encoding="utf-8") as fh:
            manifest = json.load(fh)
        problems = {p.problem_id: p for p in
                    textio.load_problems(self.path(f"{op_name}.jsonl"))["train"]}
        for kind, entry in manifest["files"].items():
            path = os.path.join(out, entry["path"])
            expect(sha256_file(path) == entry["sha256"], f"{path}: sha256 differs from the manifest")
            with open(path, encoding="utf-8") as fh:
                records = [json.loads(line) for line in fh]
            expect(len(records) == entry["count"] == len(problems),
                   f"{path}: {len(records)} records, manifest says {entry['count']}")
            for rec in records:
                problem = problems[rec["id"]]
                text, mirror = rec["target_text"], rec["structured"]
                if kind == "sys2":
                    expect(textio.parse_trace_text(text) == mirror,
                           f"{rec['id']}: trace does not round-trip")
                    plan = mirror["plan"]
                    expect(plan is not None and domains.validate_plan(
                        problem, tuple(textio.parse_action(a) for a in plan))[0],
                        f"{rec['id']}: traced plan is not valid")
                elif kind == "sys1":
                    plan = textio.parse_plan_text(text)
                    expect([textio.render_action(a) for a in plan] == mirror["actions"],
                           f"{rec['id']}: plan does not round-trip")
                    expect(domains.validate_plan(problem, plan)[0], f"{rec['id']}: gold plan invalid")
                else:
                    expect(textio.parse_metaplan_text(text) == mirror,
                           f"{rec['id']}: meta-plan does not round-trip")


WORKLOADS = {w.name: w for w in (MazeSweep, BlocksSweep, BlocksGen, CorpusEmit)}
