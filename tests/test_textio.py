import hashlib
import json
import random
import re
import string
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hybridplan import textio
from hybridplan.controller import (
    SYS1,
    SYS2,
    ControllerConfig,
    SubGoal,
    build_controller_dataset,
    meta_plan,
    window_length,
)
from hybridplan.domains import MAZE_ACTIONS, MazeGrid, PlanningProblem, canonical_blocks
from hybridplan.generators import BlocksDatasetConfig, generate_blocks_dataset
from hybridplan.hardness import SELECTORS, hardness_fn
from hybridplan.search import ENGINES, TraceConfig, astar, run_engine
from hybridplan.textio import (
    CorpusWriter,
    ParseError,
    emit_datasets,
    metaplan_record,
    parse_action,
    parse_metaplan_text,
    parse_plan_text,
    parse_state,
    parse_trace_text,
    problem_from_json,
    problem_input_text,
    problem_to_json,
    render_action,
    render_state,
    save_problems,
    load_problems,
    verbalize_plan,
)
from reference import corpus_lines, load_problem_lines, trace_mirror, trace_record
from strategies import WORD_LABELS, blocks_problems, blocks_states, maze_problems, states_of

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)


class TestStatesAndActions:
    def test_maze_state(self):
        assert render_state((2, 3)) == "(2,3)"
        assert parse_state("(2,3)") == (2, 3)

    def test_blocks_state(self):
        s = canonical_blocks([["A", "B"], ["C"]])
        assert render_state(s) == "A,B|C"
        assert parse_state("A,B|C") == s

    def test_actions(self):
        assert render_action("up") == "up"
        assert parse_action("up") == "up"
        assert render_action(("A", "table")) == "move(A,table)"
        assert parse_action("move(A,B)") == ("A", "B")

    def test_no_empty_state(self):
        with pytest.raises(ValueError):
            render_state(())
        with pytest.raises(ParseError):
            parse_state("")

    def test_unknown_action_token(self):
        with pytest.raises(ParseError):
            parse_action("diag", line_no=3)


LABELS = st.text(string.ascii_letters + string.digits + "_", min_size=1, max_size=3)
MAZE_STATES = st.tuples(st.integers(-1000, 1000), st.integers(-1000, 1000))
BLOCKS_STATES = st.lists(LABELS, min_size=1, max_size=6, unique=True).flatmap(
    lambda labels: blocks_states(tuple(labels)))
ACTIONS = st.one_of(st.sampled_from(sorted(MAZE_ACTIONS)),
                    st.tuples(LABELS, st.one_of(LABELS, st.just("table"))))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(state=st.one_of(MAZE_STATES, BLOCKS_STATES), action=ACTIONS)
def test_parse_inverts_render(state, action):
    assert parse_state(render_state(state)) == state
    assert parse_action(render_action(action)) == action


class TestPlanRoundTrip:
    def test_empty_plan(self):
        text = verbalize_plan(())
        assert text == "PLAN:"
        assert parse_plan_text(text) == ()

    def test_simple_plan(self):
        assert parse_plan_text(verbalize_plan(("right", "down"))) == ("right", "down")

    def test_unknown_token_names_line(self):
        with pytest.raises(ParseError) as err:
            parse_plan_text("PLAN:\nright\ndiag")
        assert err.value.line_no == 3 and err.value.token == "diag"

    def test_missing_header(self):
        with pytest.raises(ParseError):
            parse_plan_text("right\ndown")

    def test_random_plans_identity(self):
        rng = random.Random(5)
        for _ in range(500):
            plan = tuple(rng.choice(("up", "down", "left", "right"))
                         for _ in range(rng.randrange(0, 10)))
            assert parse_plan_text(verbalize_plan(plan)) == plan


class TestTraceRoundTrip:
    def test_event_line_count(self, small_maze_dataset):
        p = small_maze_dataset["test"][0]
        run = astar(p)
        text = CorpusWriter().trace("astar", p, TraceConfig())[0]
        lines = text.splitlines()
        assert sum(1 for ln in lines if ln.startswith("step ")) == len(run.events)
        assert "PLAN:" in lines

    def test_round_trip(self, small_maze_dataset):
        writer = CorpusWriter()
        for p in small_maze_dataset["test"][:50]:
            text, structured = writer.trace("astar", p, TraceConfig())
            assert parse_trace_text(text) == json.loads(structured)

    def test_bfs_trace_has_no_heuristic_scores(self, small_maze_dataset):
        text = CorpusWriter().trace("bfs", small_maze_dataset["test"][0], TraceConfig())[0]
        mirror = parse_trace_text(text)
        valid = [e for e in mirror["events"] if e["validity"] == "valid"]
        assert valid and all(e["t"] is None and e["f"] is None for e in valid)

    def test_failed_run(self):
        wall = frozenset((r, 2) for r in range(5))
        p = PlanningProblem(domain="maze", start=(2, 0), goal=(2, 4),
                            grid=MazeGrid(5, 5, wall))
        text = CorpusWriter().trace("astar", p, TraceConfig())[0]
        assert text.endswith("NO PLAN")
        assert parse_trace_text(text)["plan"] is None

    def test_malformed_line(self):
        with pytest.raises(ParseError):
            parse_trace_text("step 0 | broken\nPLAN:")


@pytest.mark.parametrize("engine", ["astar", "bfs", "dfs"])
@pytest.mark.parametrize("caps", ["nocaps", "caps"])
@PROPERTY
@given(problem=st.one_of(maze_problems(), blocks_problems(max_blocks=5)),
       seed=st.integers(0, 2**32 - 1))
@example(problem=PlanningProblem(domain="maze", start=(1, 0), goal=(1, 2),  # walled off
                                 grid=MazeGrid(3, 3, frozenset({(0, 1), (1, 1), (2, 1)}))),
         seed=0)
def test_parsed_trace_equals_the_one_pass_mirror(engine, caps, problem, seed):
    """The writer's trace is the reference verbalization of the engine's
    recorded events, and its mirror is built from the probes, so parsing
    the text checks it: scores only where A* has them, and no plan for a
    failed run."""
    config = TraceConfig() if caps == "nocaps" else TraceConfig(valid_cap=3, invalid_cap=2,
                                                                seed=seed)
    run = run_engine(engine, problem, config)
    text, structured = CorpusWriter().trace(engine, problem, config)
    mirror = json.loads(structured)
    assert parse_trace_text(text) == mirror
    assert trace_record(run) == (text, structured)
    assert len(mirror["events"]) == len(run.events)
    for event in mirror["events"]:
        if event["validity"] == "valid" and engine != "astar":
            assert event["t"] is None and event["f"] is None
        elif event["validity"] == "valid":
            assert event["f"] == event["g"] + event["t"]
    if run.plan is None:
        assert text.splitlines()[-1] == "NO PLAN" and mirror["plan"] is None
    else:
        assert mirror["plan"] == [render_action(a) for a in run.plan]


FOUR_ON_TABLE = PlanningProblem(domain="blocks", start=(("A",), ("B",), ("C",), ("D",)),
                                goal=(("A", "B", "C", "D"),), blocks=("A", "B", "C", "D"))
FIVE_ON_TABLE = PlanningProblem(domain="blocks", start=(("a",), ("b",), ("c",), ("d",), ("e",)),
                                goal=(("e", "d"), ("c", "b", "a")),
                                blocks=("a", "b", "c", "d", "e"))


@PROPERTY
@given(engine=st.sampled_from(sorted(ENGINES)),
       problems=st.tuples(blocks_problems(min_blocks=4, max_blocks=4),
                          maze_problems(max_side=3),
                          blocks_problems(min_blocks=5, max_blocks=5),
                          maze_problems(min_side=4)),
       seed=st.one_of(st.none(), st.integers(0, 2**32 - 1)))
@example(problems=(FOUR_ON_TABLE, PlanningProblem(domain="maze", start=(0, 0), goal=(1, 1),
                                                  grid=MazeGrid(2, 2)),
                   FIVE_ON_TABLE, PlanningProblem(domain="maze", start=(0, 0), goal=(4, 3),
                                                  grid=MazeGrid(5, 4))),
         engine="bfs", seed=None)
def test_one_writer_names_each_universe_apart(engine, problems, seed):
    """One writer, as one emit call uses it, traces problems of a 4- and a
    5-block universe and of two maze sizes in turn, each equal to the
    reference verbalization of the engine's events: a packed state is named
    within its own universe (both blocks examples start at packed state 0,
    every block on the table)."""
    config = TraceConfig() if seed is None else TraceConfig(valid_cap=3, invalid_cap=2, seed=seed)
    writer = CorpusWriter()
    for problem in problems:
        assert writer.trace(engine, problem, config) == \
            trace_record(run_engine(engine, problem, config))


# ids that JSON text escapes: a quote, a backslash, a newline, non-ASCII
# characters and a lone surrogate
AWKWARD_IDS = ('say "hi"', "back\\slash", "two\nlines", "é名", "lone \ud800 surrogate")


@PROPERTY
@given(problem=st.one_of(maze_problems(), blocks_problems(max_blocks=4),
                         blocks_problems(max_blocks=4, labels=WORD_LABELS)),
       problem_id=st.one_of(st.sampled_from(AWKWARD_IDS), st.text(max_size=4)),
       x=st.sampled_from((0.0, 0.5, 1.0)))
@example(problem=PlanningProblem(domain="blocks", start=(("é", "名"),), goal=(("名", "é"),),
                                 blocks=("é", "名")),
         problem_id="".join(AWKWARD_IDS), x=0.5)
def test_emitted_lines_are_the_sorted_key_dumps(tmp_path_factory, problem, problem_id, x):
    """For every engine, caps off and on, each corpus line is what
    json.dumps(record, sort_keys=True) writes of the record built with dict
    mirrors, and each trace's JSON text is that of its dict mirror, a
    failed run's included."""
    plan = astar(problem).plan
    if plan is not None:
        problem = replace(problem, problem_id=problem_id, gold_plan=plan, optimal_length=len(plan))
        records = build_controller_dataset([problem], ControllerConfig(x=x))
        out = tmp_path_factory.mktemp("corpus")
    for engine in ENGINES:
        for config in (TraceConfig(), TraceConfig(valid_cap=3, invalid_cap=2, seed=0)):
            run = run_engine(engine, problem, config)
            assert CorpusWriter().trace(engine, problem, config)[1] == \
                json.dumps(trace_mirror(run), sort_keys=True)
            if plan is None:
                continue
            emit_datasets([problem], records, engine, config, str(out))
            for kind, lines in corpus_lines([problem], records, engine, config).items():
                with open(out / f"{kind}.jsonl", encoding="utf-8") as fh:
                    assert fh.readlines() == lines


@PROPERTY
@given(labels=st.lists(st.text(min_size=1, max_size=3).filter(lambda label: label != "table"),
                       min_size=2, max_size=3, unique=True))
@example(labels=["A-1", "B"])
def test_block_labels_are_rejected_or_round_trip(labels):
    """A blocks problem is built only on labels that its move text can
    name, so the A* trace of turning its one stack upside down parses
    back."""
    try:
        problem = PlanningProblem(domain="blocks", start=(tuple(labels),),
                                  goal=(tuple(reversed(labels)),), blocks=tuple(labels))
    except ValueError:
        return
    text, structured = CorpusWriter().trace("astar", problem, TraceConfig())
    assert parse_trace_text(text) == json.loads(structured)


@PROPERTY
@given(data=st.data())
def test_parsed_metaplan_equals_the_one_pass_mirror(data):
    problem = data.draw(st.one_of(maze_problems(), blocks_problems(max_blocks=4)))
    assume(problem.domain == "blocks" and len(problem.blocks) > 1
           or problem.domain == "maze" and len(problem.grid.free_cells()) > 1)
    states = data.draw(st.lists(states_of(problem), min_size=2, max_size=12, unique=True))
    if data.draw(st.booleans()):
        meta = (SubGoal(states[0], states[-1], data.draw(st.sampled_from((SYS1, SYS2)))),)
    else:
        hfn = hardness_fn(data.draw(st.sampled_from(SELECTORS[problem.domain])), problem)
        w = window_length(data.draw(st.floats(0.0, 1.0, exclude_min=True)), len(states) - 1)
        meta = meta_plan(states, w, data.draw(st.sampled_from(("sliding-window", "edge-window"))),
                         hfn)
    text, mirror = metaplan_record(meta)
    assert parse_metaplan_text(text) == mirror
    assert metaplan_record(meta) == (text, mirror)
    assert [(sg["from"], sg["to"], sg["mode"]) for sg in mirror["subgoals"]] == \
           [(render_state(sg.start), render_state(sg.goal), sg.mode) for sg in meta]


class TestMetaplanRoundTrip:
    def test_round_trip(self, small_maze_dataset):
        records = build_controller_dataset(
            small_maze_dataset["train"][:100], ControllerConfig(x=0.5))
        for _, meta in records:
            text, mirror = metaplan_record(meta)
            assert parse_metaplan_text(text) == mirror

    def test_line_shape(self):
        from hybridplan.controller import SYS1, SubGoal

        meta = (SubGoal((0, 0), (1, 1), SYS1),)
        assert metaplan_record(meta)[0] == "subgoal 1 | (0,0) -> (1,1) | SYS1"

    def test_malformed(self):
        with pytest.raises(ParseError):
            parse_metaplan_text("subgoal one | x -> y | SYS3")


SPLIT_NAMES = ("train", "val", "test", "all")  # "all": a record with no split


def split_record(problem, split):
    rec = problem_to_json(problem)
    if split == "all":
        del rec["split"]
    else:
        rec["split"] = split
    return rec


@PROPERTY
@given(data=st.data())
def test_loading_some_splits_is_the_full_load_restricted(tmp_path_factory, data):
    """Loading a set of splits builds just the full load's problems of
    those splits and maps the file's other splits to None. A record of a
    second domain fails both loads, in whichever split it is."""
    domain, other = data.draw(st.permutations(("maze", "blocks")))
    problems = {"maze": maze_problems(max_side=4), "blocks": blocks_problems(max_blocks=4)}
    drawn = data.draw(st.lists(st.tuples(problems[domain], st.sampled_from(SPLIT_NAMES)),
                               max_size=8))
    records = [split_record(replace(p, problem_id=f"p{i}"), split)
               for i, (p, split) in enumerate(drawn)]
    foreign = bool(records) and data.draw(st.booleans())
    if foreign:
        records.insert(data.draw(st.integers(0, len(records))),
                       split_record(data.draw(problems[other]),
                                    data.draw(st.sampled_from(SPLIT_NAMES))))
    path = tmp_path_factory.getbasetemp() / "splits.jsonl"
    path.write_text("".join(json.dumps(rec) + "\n" for rec in records))
    wanted = data.draw(st.sets(st.sampled_from(SPLIT_NAMES)))
    if foreign:
        for splits in (None, wanted):
            with pytest.raises(ParseError):
                load_problems(path, splits)
        return
    full = load_problems(path)
    assert load_problems(path, wanted) == \
           {split: built if split in wanted else None for split, built in full.items()}


JSON_SPACE = " \t\n\r"
JSON_NUMBER = re.compile(r"(?<=[\[ ])-?\d+(?=[,\]}])")  # a number value, not one in a string
LINE_EDITS = ("json-space", "other-space", "bom", "trailing", "constant")


@st.composite
def edited_lines(draw, line):
    """A record line changed by one to three edits: JSON-whitespace
    padding, a non-JSON whitespace character at an end, a leading byte
    order mark, trailing data, or a number value made NaN or Infinity."""
    for edit in draw(st.lists(st.sampled_from(LINE_EDITS), min_size=1, max_size=3)):
        if edit == "json-space":
            line = draw(st.text(JSON_SPACE, max_size=3)) + line + draw(st.text(JSON_SPACE, max_size=3))
        elif edit == "other-space":
            space = draw(st.sampled_from("\x0c\xa0"))
            line = draw(st.sampled_from((space + line, line + space)))
        elif edit == "bom":
            line = "\ufeff" + line
        elif edit == "trailing":
            line += draw(st.sampled_from(("x", "{}", "1", " 0", "]", ",", " null", "\t{")))
        elif numbers := list(JSON_NUMBER.finditer(line)):
            number = draw(st.sampled_from(numbers))
            line = (line[:number.start()] + draw(st.sampled_from(("NaN", "Infinity", "-Infinity")))
                    + line[number.end():])
    return line


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_loader_accepts_the_lines_that_json_loads_accepts(tmp_path_factory, small_maze_dataset,
                                                          small_blocks_dataset, data):
    """A file of record lines, some edited, loads as the json.loads-based
    reference loads it, or fails with a ParseError naming the line on
    which the reference fails."""
    dataset = data.draw(st.sampled_from((small_maze_dataset, small_blocks_dataset)))
    lines = [json.dumps(problem_to_json(p), sort_keys=True) for p in dataset["test"][:4]]
    lines = [data.draw(edited_lines(line)) if data.draw(st.booleans()) else line for line in lines]
    path = tmp_path_factory.getbasetemp() / "edited.jsonl"
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    expected, bad_line = load_problem_lines(path)
    if bad_line is None:
        assert load_problems(path) == expected
    else:
        with pytest.raises(ParseError) as failure:
            load_problems(path)
        assert failure.value.line_no == bad_line


class TestProblemSerialization:
    def test_round_trip_maze(self, small_maze_dataset):
        for p in small_maze_dataset["test"][:20]:
            assert problem_from_json(problem_to_json(p)) == p

    def test_round_trip_blocks(self, small_blocks_dataset):
        for p in small_blocks_dataset["test"][:20]:
            assert problem_from_json(problem_to_json(p)) == p

    def test_save_load(self, tmp_path, small_maze_dataset):
        path = tmp_path / "problems.jsonl"
        save_problems(path, small_maze_dataset)
        loaded = load_problems(path)
        assert {k: len(v) for k, v in loaded.items()} == \
               {k: len(v) for k, v in small_maze_dataset.items()}
        assert loaded["test"] == small_maze_dataset["test"]

    def test_load_parses_each_state_text_once_per_call(self, tmp_path, monkeypatch,
                                                       small_maze_dataset, small_blocks_dataset):
        """Each distinct state text, and each gold-plan action text that is
        not a maze action, is parsed once per load_problems call."""
        parsed = {"parse_state": [], "parse_action": []}
        for name, texts in parsed.items():
            real = getattr(textio, name)
            monkeypatch.setattr(textio, name, lambda text, line_no=None, real=real, texts=texts:
                                texts.append(text) or real(text, line_no))
        for dataset in (small_maze_dataset, small_blocks_dataset):
            path = tmp_path / "problems.jsonl"
            save_problems(path, dataset)
            for texts in parsed.values():
                texts.clear()
            first, second = load_problems(path), load_problems(path)
            assert first == second == dataset
            problems = [p for split in first.values() for p in split]
            states = {render_state(s) for p in problems for s in (p.start, p.goal)}
            actions = {render_action(a) for p in problems for a in p.gold_plan
                       if a not in MAZE_ACTIONS}
            assert Counter(parsed["parse_state"]) == {text: 2 for text in states}
            assert Counter(parsed["parse_action"]) == {text: 2 for text in actions}
            assert bool(actions) == (dataset is small_blocks_dataset)

    def test_load_corrupt(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"domain": "maze"\n')
        with pytest.raises(ParseError):
            load_problems(path)

    def test_input_text_contains_grid(self, small_maze_dataset):
        p = small_maze_dataset["test"][0]
        text = problem_input_text(p)
        assert "S" in text and "G" in text and "start" in text

    # sha256 over the JSON records of every split of the small datasets, and
    # of 120 long-horizon blocks problems (5-6 blocks, 7-10 moves), where the
    # blocks oracle does most of its work; pins the generators' output and
    # its serialization.
    GOLDEN_PROBLEM_DIGESTS = {
        "maze": "a17894a8e73f8eb671139eabbe1ed766637cdd84b7fe3478f1581a95b7704fcb",
        "blocks": "57f865520f3bf5e69cedab33aa6984e8dcd3a349e1e0361c6580cf6d098b8ac6",
        "blocks-long": "118d5787b29fc4b7a0f141e93a766b876c5d9f9719cf479982e628e6fe6273bc",
    }

    @pytest.mark.parametrize("name", sorted(GOLDEN_PROBLEM_DIGESTS))
    def test_golden_problem_digests(self, name, request):
        if name == "blocks-long":
            dataset = generate_blocks_dataset(
                0, BlocksDatasetConfig(max_blocks=6, split_sizes=(0, 0, 120)))
        else:
            dataset = request.getfixturevalue(f"small_{name}_dataset")
        digest = hashlib.sha256()
        for split in ("train", "val", "test"):
            for p in dataset[split]:
                digest.update(json.dumps(problem_to_json(p), sort_keys=True).encode())
                digest.update(b"\n")
        assert digest.hexdigest() == self.GOLDEN_PROBLEM_DIGESTS[name]


class TestEmitDatasets:
    def _emit(self, tmp_path, dataset, sub="d1"):
        train = dataset["train"][:30]
        records = build_controller_dataset(train, ControllerConfig(x=0.5))
        out = tmp_path / sub
        manifest = emit_datasets(train, records, "astar", TraceConfig(seed=0), str(out), seed=0)
        return out, manifest

    def test_counts(self, tmp_path, small_maze_dataset):
        out, manifest = self._emit(tmp_path, small_maze_dataset)
        for kind in ("sys1", "sys2", "controller"):
            assert manifest["files"][kind]["count"] == 30
            path = out / manifest["files"][kind]["path"]
            assert sum(1 for _ in open(path)) == 30

    def test_byte_identical_rerun(self, tmp_path, small_maze_dataset):
        out1, m1 = self._emit(tmp_path, small_maze_dataset, "a")
        out2, m2 = self._emit(tmp_path, small_maze_dataset, "b")
        for kind in ("sys1", "sys2", "controller"):
            assert m1["files"][kind]["sha256"] == m2["files"][kind]["sha256"]
            assert (out1 / f"{kind}.jsonl").read_bytes() == (out2 / f"{kind}.jsonl").read_bytes()

    def test_records_carry_structured_mirror(self, tmp_path, small_maze_dataset):
        out, _ = self._emit(tmp_path, small_maze_dataset)
        with open(out / "sys2.jsonl") as fh:
            for line in fh:
                rec = json.loads(line)
                assert parse_trace_text(rec["target_text"]) == rec["structured"]

    def test_blocks_emission_honors_caps(self, tmp_path, small_blocks_dataset):
        train = small_blocks_dataset["train"][:10]
        records = build_controller_dataset(train, ControllerConfig(x=0.5))
        out = tmp_path / "blocks"
        emit_datasets(train, records, "astar", TraceConfig(valid_cap=3, invalid_cap=2), str(out),
                      seed=0)
        with open(out / "sys2.jsonl") as fh:
            for line in fh:
                rec = json.loads(line)
                events = rec["structured"]["events"]
                groups = {}
                for e in events:
                    groups.setdefault(e["from"], []).append(e)
                for group in groups.values():
                    assert sum(1 for e in group if e["validity"] == "valid") <= 3
                    assert sum(1 for e in group if e["validity"] != "valid") <= 2

    # sha256 of the three corpora emitted from the whole small train splits
    # (A*, controller at x=0.5), caps off and 3/2.
    GOLDEN_CORPUS_DIGESTS = {
        ("maze", "nocaps"): (
            "769e215ab47b8bb7e05393c12bf5f1bcd5c51d10c04eff3a3b063cb2d8e83438",
            "f0dc8e47ed7e7a7276b949de93f7313f72cac840a160b5b132f77963a7a038ac",
            "ad24c0f5753cfb48848f33e6a6be32e5650d5c914fe26af3193d275501762d31"),
        ("maze", "caps"): (
            "769e215ab47b8bb7e05393c12bf5f1bcd5c51d10c04eff3a3b063cb2d8e83438",
            "e2034702f60d642b97d339fa10678b3dafe194892645bb221c3a31e959f1834a",
            "ad24c0f5753cfb48848f33e6a6be32e5650d5c914fe26af3193d275501762d31"),
        ("blocks", "nocaps"): (
            "cfb4d813f144b6da66f155ed3343a44c07ebab6e8670326cc9986206f63d9eaf",
            "617a0a72056cb5b5fc317288f0fad2a400ed024b670deb9bb14b9d48e3cd87e4",
            "e3cf3912ea861a7873bde06420f56ab07ffcf5b4184887c14a8b427028695146"),
        ("blocks", "caps"): (
            "cfb4d813f144b6da66f155ed3343a44c07ebab6e8670326cc9986206f63d9eaf",
            "deb16d9d013c5932114475275afef602eda1bccfb73e474bf6605f97173d3ff0",
            "e3cf3912ea861a7873bde06420f56ab07ffcf5b4184887c14a8b427028695146"),
    }

    # sha256 of the three corpora emitted by BFS and DFS, whose valid events
    # carry no t and no f, caps off and 3/2 (controller at x=0.5), from the
    # problems of test_golden_trace_digests: the small maze test split and
    # the small blocks train problems of at most 5 blocks.
    GOLDEN_BFS_DFS_CORPUS_DIGESTS = {
        ("bfs", "maze", "nocaps"): (
            "cb8099d7fb25d5782e6825f3f15be26e20780a6d013435314fc9854e977fad39",
            "0fafdf5997a251d4c84dddba833286a3e2fcf5fa740702a98aa2cd70bbca003b",
            "5ed54f61877843e6b21cd35e76f8794a469d59f222440613a6f6db86f90c2f7c"),
        ("bfs", "maze", "caps"): (
            "cb8099d7fb25d5782e6825f3f15be26e20780a6d013435314fc9854e977fad39",
            "f0962080e061d4842b4baa5b36dc2338e821f6d914a37b500890e5d5c5bf0c9f",
            "5ed54f61877843e6b21cd35e76f8794a469d59f222440613a6f6db86f90c2f7c"),
        ("bfs", "blocks", "nocaps"): (
            "1dbae1c829bacd9bcfaac77da5d37b3d0594a16af1132ee74a049334d4042c72",
            "6b7adcefc58daf933700b5ab08bb529fce50ad7ea604292f0341dbde50a6b8e4",
            "9f43dc26d30b883c0e898d4ce01443fb584edeb4bb86f0befb44942e4505b6a1"),
        ("bfs", "blocks", "caps"): (
            "1dbae1c829bacd9bcfaac77da5d37b3d0594a16af1132ee74a049334d4042c72",
            "ca61097b178c04747169c55afac66210ca6bb75347861556a953e79a12286652",
            "9f43dc26d30b883c0e898d4ce01443fb584edeb4bb86f0befb44942e4505b6a1"),
        ("dfs", "maze", "nocaps"): (
            "cb8099d7fb25d5782e6825f3f15be26e20780a6d013435314fc9854e977fad39",
            "3c53ea02d85ec5c5d82b5618b600b96276ced12c0e811f30f1aa3a9ab733bfe3",
            "5ed54f61877843e6b21cd35e76f8794a469d59f222440613a6f6db86f90c2f7c"),
        ("dfs", "maze", "caps"): (
            "cb8099d7fb25d5782e6825f3f15be26e20780a6d013435314fc9854e977fad39",
            "0e238c4448b8847ee5f1138d4400e07d45406f6103219c0eae0c07f9142eca6b",
            "5ed54f61877843e6b21cd35e76f8794a469d59f222440613a6f6db86f90c2f7c"),
        ("dfs", "blocks", "nocaps"): (
            "1dbae1c829bacd9bcfaac77da5d37b3d0594a16af1132ee74a049334d4042c72",
            "dd3db21517a07136384550398184322bfab4f425ba7661569c06ca8d3e2fae97",
            "9f43dc26d30b883c0e898d4ce01443fb584edeb4bb86f0befb44942e4505b6a1"),
        ("dfs", "blocks", "caps"): (
            "1dbae1c829bacd9bcfaac77da5d37b3d0594a16af1132ee74a049334d4042c72",
            "1960e033fc80cea2f6f1f5b29ce4c34f3370680f36dded521c62a6b8da8edc5a",
            "9f43dc26d30b883c0e898d4ce01443fb584edeb4bb86f0befb44942e4505b6a1"),
    }

    @staticmethod
    def _corpus_digests(out, train, caps, engine="astar"):
        trace = TraceConfig(seed=0)
        if caps == "caps":
            trace = TraceConfig(valid_cap=3, invalid_cap=2, seed=0)
        records = build_controller_dataset(train, ControllerConfig(x=0.5))
        emit_datasets(train, records, engine, trace, str(out))
        return tuple(hashlib.sha256((out / f"{kind}.jsonl").read_bytes()).hexdigest()
                     for kind in ("sys1", "sys2", "controller"))

    @pytest.mark.parametrize("domain,caps", sorted(GOLDEN_CORPUS_DIGESTS))
    def test_golden_corpus_digests(self, tmp_path, domain, caps, small_maze_dataset,
                                   small_blocks_dataset):
        train = (small_maze_dataset if domain == "maze" else small_blocks_dataset)["train"]
        assert self._corpus_digests(tmp_path, train, caps) == \
               self.GOLDEN_CORPUS_DIGESTS[(domain, caps)]

    @pytest.mark.parametrize("engine,domain,caps", sorted(GOLDEN_BFS_DFS_CORPUS_DIGESTS))
    def test_golden_bfs_dfs_corpus_digests(self, tmp_path, engine, domain, caps,
                                           small_maze_dataset, small_blocks_dataset):
        if domain == "maze":
            problems = small_maze_dataset["test"]
        else:
            problems = [p for p in small_blocks_dataset["train"] if len(p.blocks) <= 5]
        assert self._corpus_digests(tmp_path, problems, caps, engine) == \
               self.GOLDEN_BFS_DFS_CORPUS_DIGESTS[(engine, domain, caps)]

    def test_emit_never_parses(self, tmp_path, monkeypatch, small_maze_dataset,
                               small_blocks_dataset):
        """The mirrors come from the runs and meta-plans, not from parsing
        the emitted text: with every textio parser made to raise, the
        corpora still keep their golden digests."""
        def no_parse(*args, **kwargs):
            raise AssertionError("a textio parser was called")

        for name in ("parse_state", "parse_action", "parse_plan_text", "parse_trace_text",
                     "parse_metaplan_text"):
            monkeypatch.setattr(textio, name, no_parse)
        with pytest.raises(AssertionError):
            problem_from_json(problem_to_json(small_maze_dataset["train"][0]))
        for domain, caps in sorted(self.GOLDEN_CORPUS_DIGESTS):
            train = (small_maze_dataset if domain == "maze" else small_blocks_dataset)["train"]
            out = tmp_path / f"{domain}-{caps}"
            assert self._corpus_digests(out, train, caps) == \
                   self.GOLDEN_CORPUS_DIGESTS[(domain, caps)]

    def test_no_partial_files_on_error(self, tmp_path, small_maze_dataset):
        from hybridplan.textio import write_jsonl_atomic

        path = tmp_path / "out.jsonl"

        class Boom:
            def __iter__(self):
                raise RuntimeError("boom")

        def bad_records():
            yield {"ok": 1}
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError):
            write_jsonl_atomic(str(path), bad_records())
        assert not path.exists()
        assert not (tmp_path / "out.jsonl.tmp").exists()
