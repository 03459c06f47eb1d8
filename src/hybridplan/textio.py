"""Text rendering and parsing: problem serialization, verbalized plans,
search trajectories, and meta-plans, plus the three-corpus dataset
emitter.

The verbalization grammar is versioned; every emitted record embeds the
version string and a structured mirror of its target text, and the
parsers reproduce that mirror exactly (round-trip identity). The emitter
writes each record's JSON line itself, byte for byte what
json.dumps(record, sort_keys=True) writes: a trace's mirror is JSON text
made in the pass that verbalizes the trace, and no mirror dict is built.

The problem loader decodes each line with one JSONDecoder.raw_decode on
the line stripped of JSON whitespace, rejecting trailing data, so that it
accepts exactly the lines that json.loads accepts. Within one call it
parses each distinct state text and gold-plan action text once, and
problem_from_json builds each problem with one direct constructor call.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from json.encoder import encode_basestring_ascii as _quote

from .domains import DOMAINS, MAZE_ACTIONS, MazeGrid, PlanningProblem, render_maze
from .search import run_engine

TEMPLATE_VERSION = "grammar-v1"


class ParseError(ValueError):
    def __init__(self, message, line_no=None, token=None):
        detail = message
        if line_no is not None:
            detail += f" (line {line_no}"
            if token is not None:
                detail += f", token {token!r}"
            detail += ")"
        super().__init__(detail)
        self.line_no = line_no
        self.token = token


# ---------------------------------------------------------------- states

def render_state(state):
    if isinstance(state, tuple) and state and isinstance(state[0], tuple):
        return "|".join(map(",".join, state))
    if (isinstance(state, tuple) and len(state) == 2
            and isinstance(state[0], int) and isinstance(state[1], int)):
        return f"({state[0]},{state[1]})"
    raise ValueError(f"unrenderable state {state!r}")


_MAZE_STATE_RE = re.compile(r"^\((-?\d+),(-?\d+)\)$")


def parse_state(text, line_no=None):
    text = text.strip()
    m = _MAZE_STATE_RE.match(text)
    if m:
        return (int(m.group(1)), int(m.group(2)))
    stacks = []
    for part in text.split("|"):
        blocks = [b for b in part.split(",") if b]
        if not blocks:
            raise ParseError("empty stack in state", line_no, text)
        stacks.append(tuple(blocks))
    return tuple(stacks)


# ---------------------------------------------------------------- actions

def render_action(action):
    if isinstance(action, str):
        return action
    block, dest = action
    return f"move({block},{dest})"


_MOVE_RE = re.compile(r"^move\((\w+),(\w+)\)$")


def parse_action(token, line_no=None):
    token = token.strip()
    if token in MAZE_ACTIONS:
        return token
    m = _MOVE_RE.match(token)
    if m:
        return (m.group(1), m.group(2))
    raise ParseError("unknown action", line_no, token)


# ---------------------------------------------------------------- plans

def verbalize_plan(plan):
    lines = ["PLAN:"]
    lines.extend(render_action(a) for a in plan)
    return "\n".join(lines)


def parse_plan_text(text):
    lines = [ln for ln in text.strip().splitlines()]
    if not lines or lines[0].strip() != "PLAN:":
        raise ParseError("expected PLAN: header", 1, lines[0].strip() if lines else "")
    actions = []
    for i, ln in enumerate(lines[1:], start=2):
        ln = ln.strip()
        if not ln:
            continue
        actions.append(parse_action(ln, i))
    return tuple(actions)


# ---------------------------------------------------------------- traces

def trace_record(run):
    """(text, structured): the verbalized trace, and its structured mirror
    {"events": [...], "plan": [...] | None} as the JSON text that
    json.dumps(mirror, sort_keys=True) writes, from one pass over
    run.events. Each distinct state and action is rendered and quoted once
    per run, and each event is written with its keys in sorted order.
    Every mirror field is read off, or worked out from, the event its line
    is written from: the index is the event's position, an event without a
    reason is valid, and f = g + t. So parse_trace_text(text) ==
    json.loads(structured) without parsing."""
    names, actions = {}, {}
    lines = []
    events = []
    for index, e in enumerate(run.events):
        src = names.get(e.parent_state)
        if src is None:
            src = names[e.parent_state] = _named(render_state(e.parent_state))
        action = actions.get(e.action)
        if action is None:
            action = actions[e.action] = _named(render_action(e.action))
        if e.reason is None:
            to = names.get(e.state)
            if to is None:
                to = names[e.state] = _named(render_state(e.state))
            g, t = e.g, e.t
            if t is None:
                scores, f, t = f"g={g}", "null", "null"
            else:
                f = g + t
                scores = f"g={g} t={t} f={f}"
            lines.append(f"step {index} | from {src[0]} | action {action[0]} | valid -> {to[0]} "
                         f"| {scores}")
            events.append(f'{{"action": {action[1]}, "f": {f}, "from": {src[1]}, "g": {g}, '
                          f'"index": {index}, "t": {t}, "to": {to[1]}, "validity": "valid"}}')
        else:
            validity = f"invalid:{e.reason}"
            lines.append(f"step {index} | from {src[0]} | action {action[0]} | {validity}")
            events.append(f'{{"action": {action[1]}, "from": {src[1]}, "index": {index}, '
                          f'"validity": {_quote(validity)}}}')
    if run.plan is None:
        lines.append("NO PLAN")
        plan = "null"
    else:
        lines.append(verbalize_plan(run.plan))
        plan = json.dumps([render_action(a) for a in run.plan])
    return "\n".join(lines), f'{{"events": [{", ".join(events)}], "plan": {plan}}}'


def _named(text):
    return text, _quote(text)


_VALID_EVENT_RE = re.compile(
    r"^step (\d+) \| from (.+) \| action (.+) \| valid -> (.+) \| g=(\d+)(?: t=(\d+) f=(\d+))?$"
)
_INVALID_EVENT_RE = re.compile(
    r"^step (\d+) \| from (.+) \| action (.+) \| invalid:([\w-]+)$"
)


def parse_trace_text(text):
    """Returns the structured mirror: {"events": [...], "plan": [...] | None}."""
    lines = text.strip().splitlines()
    events = []
    plan = None
    i = 0
    while i < len(lines):
        ln = lines[i].strip()
        if ln == "PLAN:":
            plan = parse_plan_text("\n".join(lines[i:]))
            break
        if ln == "NO PLAN":
            plan = None
            break
        m = _VALID_EVENT_RE.match(ln)
        if m:
            events.append({
                "index": int(m.group(1)),
                "from": render_state(parse_state(m.group(2), i + 1)),
                "action": render_action(parse_action(m.group(3), i + 1)),
                "validity": "valid",
                "to": render_state(parse_state(m.group(4), i + 1)),
                "g": int(m.group(5)),
                "t": int(m.group(6)) if m.group(6) is not None else None,
                "f": int(m.group(7)) if m.group(7) is not None else None,
            })
        else:
            m = _INVALID_EVENT_RE.match(ln)
            if not m:
                raise ParseError("malformed trace line", i + 1, ln)
            events.append({
                "index": int(m.group(1)),
                "from": render_state(parse_state(m.group(2), i + 1)),
                "action": render_action(parse_action(m.group(3), i + 1)),
                "validity": f"invalid:{m.group(4)}",
            })
        i += 1
    else:
        raise ParseError("trace is missing its plan block", len(lines), "")
    return {"events": events, "plan": list(map(render_action, plan)) if plan is not None else None}


# ---------------------------------------------------------------- meta-plans

def metaplan_record(meta_plan):
    """The verbalized meta-plan and its structured mirror, {"subgoals":
    [...]}, from one pass over the sub-goals, so that
    parse_metaplan_text(text) == mirror without parsing."""
    lines = []
    subgoals = []
    for k, sg in enumerate(meta_plan, start=1):
        src, dst = render_state(sg.start), render_state(sg.goal)
        lines.append(f"subgoal {k} | {src} -> {dst} | {sg.mode.upper()}")
        subgoals.append({"from": src, "to": dst, "mode": sg.mode})
    if not subgoals:
        raise ValueError("meta-plan has no sub-goals")
    return "\n".join(lines), {"subgoals": subgoals}


_SUBGOAL_RE = re.compile(r"^subgoal (\d+) \| (.+) -> (.+) \| (SYS1|SYS2)$")


def parse_metaplan_text(text):
    subgoals = []
    for i, ln in enumerate(text.strip().splitlines(), start=1):
        ln = ln.strip()
        if not ln:
            continue
        m = _SUBGOAL_RE.match(ln)
        if not m:
            raise ParseError("malformed subgoal line", i, ln)
        subgoals.append({
            "from": render_state(parse_state(m.group(2), i)),
            "to": render_state(parse_state(m.group(3), i)),
            "mode": m.group(4).lower(),
        })
    if not subgoals:
        raise ParseError("meta-plan has no subgoal lines", 1, "")
    return {"subgoals": subgoals}


# ---------------------------------------------------------------- problems

def problem_to_json(problem):
    rec = {
        "id": problem.problem_id,
        "domain": problem.domain,
        "start": render_state(problem.start),
        "goal": render_state(problem.goal),
        "gold_plan": [render_action(a) for a in problem.gold_plan] if problem.gold_plan is not None else None,
        "optimal_length": problem.optimal_length,
        "split": problem.split,
    }
    if problem.domain == "maze":
        rec["grid"] = {
            "rows": problem.grid.rows,
            "cols": problem.grid.cols,
            "obstacles": sorted(list(map(list, problem.grid.obstacles))),
        }
    else:
        rec["blocks"] = list(problem.blocks)
    return rec


def problem_from_json(rec, states=None, actions=None):
    """A problem from its record. Its id and split must be strings. An
    optimal length must be a non-negative integer that agrees with the
    gold plan's length and is 0 only when start is the goal. states and
    actions, when given, map state texts and gold-plan action texts to
    their parses; a text found there is not parsed again, and one parsed
    here is added. A maze action is taken as it is."""
    domain = rec["domain"]
    if states is None:
        states = {}
    start = _parsed(rec["start"], states, parse_state)
    goal = _parsed(rec["goal"], states, parse_state)
    problem_id, split = rec.get("id", ""), rec.get("split", "")
    if type(problem_id) is not str or type(split) is not str:
        raise ValueError("id and split must be strings")
    gold_plan, length = rec.get("gold_plan"), rec.get("optimal_length")
    if gold_plan is not None:
        if actions is None:
            actions = {}
        gold_plan = tuple(a if a in MAZE_ACTIONS else _parsed(a, actions, parse_action)
                          for a in gold_plan)
    if domain == "maze":
        g = rec["grid"]
        grid = MazeGrid(g["rows"], g["cols"], frozenset(map(tuple, g["obstacles"])))
        problem = PlanningProblem(domain, start, goal, grid, gold_plan=gold_plan,
                                  optimal_length=length, problem_id=problem_id, split=split)
    else:
        blocks = rec["blocks"]
        if not isinstance(blocks, list):
            raise ValueError(f"blocks must be a list of labels, not {type(blocks).__name__}")
        problem = PlanningProblem(domain, start, goal, blocks=tuple(blocks), gold_plan=gold_plan,
                                  optimal_length=length, problem_id=problem_id, split=split)
    if length is not None:
        if type(length) is not int or length < 0:
            raise ValueError(f"optimal_length {length!r} is not a non-negative integer")
        if gold_plan is not None and length != len(gold_plan):
            raise ValueError(f"optimal_length {length} but the gold plan has {len(gold_plan)} steps")
        if length == 0 and problem.start != problem.goal:
            raise ValueError("optimal_length 0 but start is not the goal")
    return problem


def _parsed(text, parsed, parse):
    """parse(text), looked up in or added to the dict parsed. A text that
    is not a str is parsed each time, so that it fails as it would in
    parse."""
    if type(text) is not str:
        return parse(text)
    value = parsed.get(text)
    if value is None:
        value = parsed[text] = parse(text)
    return value


def problem_input_text(problem):
    if problem.domain == "maze":
        return (f"maze {problem.grid.rows}x{problem.grid.cols}\n{render_maze(problem)}\n"
                f"start {render_state(problem.start)} goal {render_state(problem.goal)}")
    return f"blocks {render_state(problem.start)} -> {render_state(problem.goal)}"


def save_problems(path, problems_by_split):
    records = [
        problem_to_json(p)
        for split in sorted(problems_by_split)
        for p in problems_by_split[split]
    ]
    write_jsonl_atomic(path, records)


_JSON_SPACE = " \t\n\r"  # the whitespace that JSON allows around a value
_decode = json.JSONDecoder().raw_decode


def load_problems(path, splits=None):
    """{split: [problem]} of a problem file, whose records all name one
    domain; a record without a split is in split "all". Given a set of
    splits, only their records are built into problems and every other
    split of the file maps to None: a record of such a split is checked
    only to be a JSON object with a string split and the file's domain.
    A line is decoded as json.loads decodes it, by raw_decode on the line
    stripped of JSON whitespace; trailing data fails the line. Each
    distinct state text, and each gold-plan action text that is not a maze
    action, is parsed once per call; no parse outlives the call. The
    problems are slotted, their geometry set at construction."""
    out = {}
    states, actions = {}, {}  # text -> its parse, shared by this file's records
    domain = None
    try:
        with open(path, encoding="utf-8") as fh:
            for i, line in enumerate(fh, start=1):
                text = line.strip(_JSON_SPACE)
                if not text or text.isspace():
                    continue
                try:
                    rec, end = _decode(text)
                    if end != len(text):
                        raise json.JSONDecodeError("Extra data", text, end)
                    if not isinstance(rec, dict):
                        raise ValueError(f"expected a JSON object, got {type(rec).__name__}")
                    split, rec_domain = rec.get("split", ""), rec["domain"]
                    if type(split) is not str:
                        raise ValueError("split must be a string")
                    split = split or "all"
                    problem = None
                    if splits is None or split in splits:
                        problem = problem_from_json(rec, states, actions)
                    elif rec_domain not in DOMAINS:
                        raise ValueError(f"unknown domain {rec_domain!r}")
                except (AttributeError, KeyError, TypeError, ValueError) as exc:
                    # AttributeError and TypeError: a field of the wrong JSON type,
                    # such as "start": 5 or "obstacles": 5
                    raise ParseError(f"corrupt problem record in {path}: {exc}", i) from exc
                domain = domain or rec_domain
                if rec_domain != domain:
                    raise ParseError(f"{rec_domain} problem in {path}, which began with "
                                     f"{domain} problems", i)
                if problem is None:
                    out[split] = None
                else:
                    out.setdefault(split, []).append(problem)
    except UnicodeDecodeError as exc:  # its position is within a read chunk, not the file
        raise ParseError(f"problem file {path} is not UTF-8 text ({exc.reason})") from exc
    return out


# ---------------------------------------------------------------- emission

def write_atomic(path, chunks):
    """Single-writer atomic emit: write the text chunks to a temp file,
    then rename it over path. On any failure, the rename's included, the
    temp file is removed."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def write_jsonl_atomic(path, records):
    """One JSON line per record, sorted keys, written by write_atomic."""
    write_atomic(path, (json.dumps(rec, sort_keys=True) + "\n" for rec in records))


def _sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def emit_datasets(problems, controller_records, engine, trace, out_dir, seed=0):
    """Write the three training corpora (fast-planner, search-trace, and
    controller records) plus a manifest with counts and hashes.

    problems: the problem list supplying fast-planner targets and search
    traces (typically the train split); it is read twice. Each trace is the
    named engine's run under the TraceConfig trace. controller_records
    comes from build_controller_dataset. A problem without a gold plan is
    rejected before any file is written.
    """
    os.makedirs(out_dir, exist_ok=True)

    heads = {}  # problem -> its line's quoted id and input text, shared by its three records
    tail = f', "template_version": {_quote(TEMPLATE_VERSION)}}}\n'

    def line(problem, kind, target_text, structured):
        """The record's JSON line, byte for byte what json.dumps(record,
        sort_keys=True) writes; structured is JSON text."""
        head = heads.get(problem)
        if head is None:
            head = heads[problem] = (f'{{"id": {_quote(problem.problem_id)}, '
                                     f'"input_text": {_quote(problem_input_text(problem))}')
        return (f'{head}, "kind": "{kind}", "structured": {structured}, '
                f'"target_text": {_quote(target_text)}{tail}')

    sys1_lines = []
    for p in problems:
        if p.gold_plan is None:
            raise ValueError(f"problem {p.problem_id!r} has no gold plan")
        actions = json.dumps({"actions": [render_action(a) for a in p.gold_plan]})
        sys1_lines.append(line(p, "sys1", verbalize_plan(p.gold_plan), actions))

    controller_lines = []
    for p, meta in controller_records:
        text, mirror = metaplan_record(meta)
        controller_lines.append(line(p, "controller", text, json.dumps(mirror, sort_keys=True)))

    paths = {
        "sys1": os.path.join(out_dir, "sys1.jsonl"),
        "sys2": os.path.join(out_dir, "sys2.jsonl"),
        "controller": os.path.join(out_dir, "controller.jsonl"),
    }
    counts = {"sys1": len(sys1_lines), "sys2": len(sys1_lines),
              "controller": len(controller_lines)}
    write_atomic(paths["sys1"], sys1_lines)
    write_atomic(paths["controller"], controller_lines)
    # the traces are the bulk of the corpus: each is written as it is made,
    # so that only one is held at a time
    write_atomic(paths["sys2"], (line(p, "sys2", *trace_record(run_engine(engine, p, trace)))
                                 for p in problems))

    config_text = json.dumps({
        "engine": engine,
        "valid_cap": trace.valid_cap,
        "invalid_cap": trace.invalid_cap,
        "trace_seed": trace.seed,
        "seed": seed,
    }, sort_keys=True)
    manifest = {
        "template_version": TEMPLATE_VERSION,
        "seed": seed,
        "config_hash": hashlib.sha256(config_text.encode()).hexdigest(),
        "files": {
            kind: {"path": os.path.basename(path), "count": counts[kind], "sha256": _sha256(path)}
            for kind, path in paths.items()
        },
    }
    write_atomic(os.path.join(out_dir, "manifest.json"),
                 [json.dumps(manifest, indent=2, sort_keys=True), "\n"])
    return manifest
