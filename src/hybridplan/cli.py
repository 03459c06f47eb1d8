"""Command-line entry point.

Subcommands: gen-maze, gen-blocks, build-controller-data, emit-datasets,
plan, eval, sweep. All stages are deterministic under --seed; an optional
JSON config file mirrors every flag, with flags taking precedence.

Exit codes: 0 success, 2 usage error, 3 data error, 4 generation
exhaustion.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .controller import VARIANTS, ControllerConfig, HybridController, build_controller_dataset
from .domains import validate_plan
from .evaluate import (
    PlannerConfig,
    budget_sweep,
    report_to_csv,
    report_to_markdown,
    report_to_plot_data,
    run_planner,
    score_runs,
)
from .generators import (
    BlocksDatasetConfig,
    GenerationExhausted,
    MazeDatasetConfig,
    generate_blocks_dataset,
    generate_maze_dataset,
)
from .hardness import SELECTORS
from .search import ENGINES, TraceConfig
from .textio import (
    ParseError,
    emit_datasets,
    load_problems,
    metaplan_record,
    render_action,
    save_problems,
    write_atomic,
    write_jsonl_atomic,
)

EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_EXHAUSTED = 4

DEFAULT_OUT_DIR_ENV = "HYBRIDPLAN_OUT_DIR"

SELECTOR_NAMES = tuple(name for names in SELECTORS.values() for name in names)
DATASET_VARIANTS = tuple(v for v in VARIANTS if v != "random")  # random has no dataset


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors reach main() as UsageError. Flags
    must be spelled out, so that --budget is no abbreviation of --budgets."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        raise UsageError(message)


def _out_path(args, default_name):
    if args.out:
        return args.out
    return os.path.join(os.environ.get(DEFAULT_OUT_DIR_ENV, "."), default_name)


def _positive_int(text):
    """argparse type of a states-explored budget or a worker count."""
    if not text.strip().isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


def _budget_list(text):
    """argparse type of comma-separated budgets, at least one of them."""
    budgets = [_positive_int(b) for b in text.split(",") if b]
    if not budgets:
        raise argparse.ArgumentTypeError(f"expected at least one budget, got {text!r}")
    return budgets


def _controller_config(args, problems):
    """ControllerConfig from the flags; the selector must apply to the
    problems' domain."""
    if args.selector is not None and problems and \
            args.selector not in SELECTORS[problems[0].domain]:
        raise UsageError(f"--selector {args.selector} does not apply to "
                         f"{problems[0].domain} problems")
    return ControllerConfig(x=args.x, bias=getattr(args, "bias", 0.0), variant=args.variant,
                            selector=args.selector, seed=args.seed)


def _trace_config(args):
    caps = {}
    if getattr(args, "blocks_caps", False):
        caps = {"valid_cap": 3, "invalid_cap": 2}
    return TraceConfig(seed=args.seed, **caps)


def _planner_config(args, train_problems):
    if args.planner == "system1":
        return PlannerConfig(kind="sys1")
    if args.planner == "system2":
        return PlannerConfig(kind="sys2", engine=args.sys2, trace=_trace_config(args))
    controller = HybridController(_controller_config(args, train_problems)).fit(train_problems)
    return PlannerConfig(kind="hybrid", engine=args.sys2,
                         trace=_trace_config(args), controller=controller)


def cmd_generate(args):
    """gen-maze and gen-blocks. The config classes are looked up here, at
    call time, so that a caller may swap them for smaller ones."""
    domain = args.command.removeprefix("gen-")
    if domain == "maze":
        splits = generate_maze_dataset(args.seed, MazeDatasetConfig())
    else:
        splits = generate_blocks_dataset(args.seed, BlocksDatasetConfig())
    path = _out_path(args, f"{domain}_problems.jsonl")
    save_problems(path, splits)
    counts = {k: len(v) for k, v in splits.items()}
    print(f"{args.command}: wrote {sum(counts.values())} problems {counts} -> {path}")
    return 0


def _load_split(args, split, *also):
    """The problem file's {split: [problem]}, with problems built for split,
    which the file must have, and the splits in also; other splits map to None."""
    splits = load_problems(args.problems, {split, *also})
    if split not in splits:
        raise ParseError(f"split {split!r} not present in {args.problems} "
                         f"(has: {', '.join(sorted(splits)) or 'none'})")
    return splits


def _planned_split(args, scored):
    """The problems of args.split and the planner the flags configure, its
    controller fitted on the train split (or on the problems, when the file
    has no train split). The problems that eval and sweep score each need
    the oracle length their optimality is judged by."""
    fit_on = ("train",) if args.planner == "system1x" else ()
    splits = _load_split(args, args.split, *fit_on)
    problems = splits[args.split]
    if scored:
        for problem in problems:
            if problem.optimal_length is None:
                raise ParseError(f"problem {problem.problem_id!r} in {args.problems} "
                                 "has no optimal_length to score optimality against")
    return problems, _planner_config(args, splits.get("train", problems))


def _controller_dataset(args):
    """The train split, whose gold plans build-controller-data and
    emit-datasets decompose and write (each must reach its goal), and its
    controller dataset."""
    train = _load_split(args, "train")["train"]
    for problem in train:
        if problem.gold_plan is None:
            raise ParseError(f"problem {problem.problem_id!r} in {args.problems} has no gold plan")
        ok, at = validate_plan(problem, problem.gold_plan)
        if not ok:
            raise ParseError(f"problem {problem.problem_id!r} in {args.problems}: gold plan "
                             f"fails at step {at} of {len(problem.gold_plan)}")
    return train, build_controller_dataset(train, _controller_config(args, train))


def cmd_build_controller_data(args):
    _, records = _controller_dataset(args)
    out = []
    for problem, meta in records:
        text, mirror = metaplan_record(meta)
        out.append({"id": problem.problem_id, "subgoals": mirror["subgoals"], "target_text": text})
    path = _out_path(args, "controller_data.jsonl")
    write_jsonl_atomic(path, out)
    n_easy = sum(1 for r in out if len(r["subgoals"]) == 1 and r["subgoals"][0]["mode"] == "sys1")
    print(f"build-controller-data: {len(out)} records ({n_easy} fast-only) -> {path}")
    return 0


def cmd_emit_datasets(args):
    train, records = _controller_dataset(args)
    out_dir = _out_path(args, "datasets")
    manifest = emit_datasets(train, records, args.sys2, _trace_config(args), out_dir,
                             seed=args.seed)
    counts = {k: v["count"] for k, v in manifest["files"].items()}
    print(f"emit-datasets: {counts} -> {out_dir}")
    return 0


def cmd_plan(args):
    problems, config = _planned_split(args, scored=False)
    runs = run_planner(problems, config, budget=args.budget, workers=args.workers)
    out = [
        {"id": r.problem.problem_id,
         "plan": [render_action(a) for a in r.plan] if r.plan is not None else None,
         "states_explored": r.states_explored,
         "valid": r.valid}
        for r in runs
    ]
    path = _out_path(args, "runs.jsonl")
    write_jsonl_atomic(path, out)
    validity = sum(rec["valid"] for rec in out) / len(out)
    print(f"plan: {config.label()} on {len(runs)} problems, validity {validity:.3f} -> {path}")
    return 0


def cmd_eval(args):
    problems, config = _planned_split(args, scored=True)
    row = score_runs(run_planner(problems, config, budget=args.budget, workers=args.workers))
    print(
        f"eval: {config.label()} n={row.n} "
        f"validity={float(row.validity):.3f} "
        f"optimality={float(row.optimality):.3f} "
        f"avg_se={float(row.avg_se):.1f}"
    )
    return 0


def cmd_sweep(args):
    problems, config = _planned_split(args, scored=True)
    report = budget_sweep(problems, config, args.budgets, workers=args.workers)
    if args.plot_data:  # first, so that a bad --plot-data path leaves --out as it was
        write_atomic(args.plot_data, [report_to_plot_data([report])])
    path = _out_path(args, "sweep.csv")
    write_atomic(path, [report_to_csv(report)])
    if args.markdown:
        print(report_to_markdown(report), end="")
    print(f"sweep: {config.label()} {len(report.rows)} rows -> {path}")
    return 0


def _add_common(parser, problems=True):
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default=None, help="output path (default under $%s)" % DEFAULT_OUT_DIR_ENV)
    parser.add_argument("--config", default=None, help="JSON config file mirroring the flags")
    if problems:
        # required, from the flag or the config file (checked in main)
        parser.add_argument("--problems", default=None, help="problem-set JSONL file")


def _add_engine_flag(parser):
    parser.add_argument("--sys2", choices=tuple(ENGINES), default="astar")


def _add_caps_flag(parser):
    parser.add_argument("--blocks-caps", action="store_true",
                        help="record at most 3 valid / 2 invalid probes per expansion")


def _add_controller_flags(parser, variants, bias=False):
    parser.add_argument("--x", type=float, default=0.5)
    if bias:
        parser.add_argument("--bias", type=float, default=0.0)
    parser.add_argument("--variant", choices=variants, default="sliding-window")
    parser.add_argument("--selector", choices=SELECTOR_NAMES, default=None)


def _add_planner_flags(parser):
    parser.add_argument("--planner", choices=("system1", "system2", "system1x"), default="system1x")
    _add_engine_flag(parser)
    _add_controller_flags(parser, VARIANTS, bias=True)
    parser.add_argument("--split", default="test",
                        help="split to run (default test); system1x also reads train to fit "
                             "its controller, and other splits are checked but not built")
    parser.add_argument("--workers", type=_positive_int, default=1,
                        help="worker processes per planner pass (default 1); workers do not "
                             "share a sweep's memo, so more than one makes sweeps slower")
    _add_caps_flag(parser)


def build_parser():
    parser = _Parser(prog="hybridplan", description="hybrid fast/deliberate planning pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, text in (("gen-maze", "generate the balanced maze problem set"),
                       ("gen-blocks", "generate the blocks problem set")):
        _add_common(sub.add_parser(name, help=text), problems=False)

    p = sub.add_parser("build-controller-data", help="decompose gold plans into labeled sub-goals")
    _add_common(p)
    _add_controller_flags(p, DATASET_VARIANTS)

    p = sub.add_parser("emit-datasets", help="emit the three training corpora")
    _add_common(p)
    _add_controller_flags(p, DATASET_VARIANTS)
    _add_engine_flag(p)
    _add_caps_flag(p)

    for name, text in (("plan", "run a planner over a split, write per-problem runs"),
                       ("eval", "score a planner on a split")):
        p = sub.add_parser(name, help=text)
        _add_common(p)
        _add_planner_flags(p)
        p.add_argument("--budget", type=_positive_int, default=None)

    p = sub.add_parser("sweep", help="budget sweep producing a CSV report")
    _add_common(p)
    _add_planner_flags(p)
    p.add_argument("--budgets", type=_budget_list, default="5,10,15,20")
    p.add_argument("--markdown", action="store_true")
    p.add_argument("--plot-data", default=None)

    return parser


COMMANDS = {
    "gen-maze": cmd_generate,
    "gen-blocks": cmd_generate,
    "build-controller-data": cmd_build_controller_data,
    "emit-datasets": cmd_emit_datasets,
    "plan": cmd_plan,
    "eval": cmd_eval,
    "sweep": cmd_sweep,
}


def _config_argv(args):
    """The flags that the JSON config file args.config stands for, so that
    its values pass through the flags' types and choices."""
    try:
        with open(args.config, encoding="utf-8") as fh:
            values = json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: not JSON, or not UTF-8 text
        raise ParseError(f"bad config file {args.config}: {exc}")
    if not isinstance(values, dict):
        raise UsageError(f"config file {args.config} must hold a JSON object")
    argv = []
    for key, value in values.items():
        attr = key.replace("-", "_")
        if attr == "config" or not hasattr(args, attr):
            raise UsageError(f"unknown config key {key!r}")
        flag = "--" + attr.replace("_", "-")
        if isinstance(getattr(args, attr), bool):  # an on/off switch
            if not isinstance(value, bool):
                raise UsageError(f"config key {key!r} must be true or false, got {value!r}")
            argv += [flag] if value else []
        elif isinstance(value, (str, int, float)):
            argv.append(f"{flag}={value}")
        else:
            raise UsageError(f"config key {key!r} must be a string or a number, got {value!r}")
    return argv


def main(argv=None):
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(argv)
        if args.config:
            # the command line comes last, so its flags win over the file's
            args = parser.parse_args([args.command, *_config_argv(args), *argv[1:]])
        if hasattr(args, "problems") and args.problems is None:
            raise UsageError("--problems is required, as a flag or in the config file")
        if hasattr(args, "x") and not 0.0 <= args.x <= 1.0:
            raise UsageError(f"--x must lie in [0, 1], got {args.x}")
        if hasattr(args, "bias") and not -1.0 <= args.bias <= 1.0:
            raise UsageError(f"--bias must lie in [-1, 1], got {args.bias}")
        return COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ParseError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except GenerationExhausted as exc:
        print(f"generation exhausted: {exc}", file=sys.stderr)
        return EXIT_EXHAUSTED


if __name__ == "__main__":
    sys.exit(main())
