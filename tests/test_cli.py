import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridplan.cli import main
from hybridplan.textio import load_problems, save_problems

# one small valid record per domain; the probes below edit them
MAZE_RECORD = {"id": "m", "domain": "maze", "grid": {"rows": 3, "cols": 3, "obstacles": [[1, 1]]},
               "start": "(0,0)", "goal": "(2,2)", "gold_plan": ["down", "down", "right", "right"],
               "optimal_length": 4, "split": "test"}
BLOCKS_RECORD = {"id": "b", "domain": "blocks", "blocks": ["A", "B", "C"], "start": "A,B|C",
                 "goal": "C,B,A", "gold_plan": ["move(B,C)", "move(A,B)"], "optimal_length": 2,
                 "split": "test"}


@pytest.fixture(scope="module")
def problems_file(tmp_path_factory, small_maze_dataset):
    path = tmp_path_factory.mktemp("data") / "maze.jsonl"
    save_problems(str(path), small_maze_dataset)
    return str(path)


@pytest.fixture(scope="module")
def blocks_file(tmp_path_factory, small_blocks_dataset):
    # at most 5 blocks keeps uninformed search fast
    path = tmp_path_factory.mktemp("data") / "blocks.jsonl"
    save_problems(str(path), {split: [p for p in problems if len(p.blocks) <= 5]
                              for split, problems in small_blocks_dataset.items()})
    return str(path)


class TestGenMaze:
    @pytest.fixture(scope="class")
    def seed1_maze_file(self, tmp_path_factory):
        """The problem file of one gen-maze run at seed 1."""
        out = tmp_path_factory.mktemp("gen") / "maze.jsonl"
        assert main(["gen-maze", "--seed", "1", "--out", str(out)]) == 0
        return out

    def test_writes_full_dataset(self, seed1_maze_file):
        splits = load_problems(str(seed1_maze_file))
        assert {k: len(v) for k, v in splits.items()} == \
               {"train": 3200, "val": 400, "test": 400}
        assert hashlib.sha256(seed1_maze_file.read_bytes()).hexdigest() == \
               "92cd538c9c606b8b191885f1438bde36e2991b0208e6c9d0074bf5fe5516d1e9"

    def test_identical_seeds_identical_artifacts(self, seed1_maze_file, maze_dataset, tmp_path):
        """The CLI's file is the one that the session's own generation at
        seed 1 saves."""
        saved = tmp_path / "saved.jsonl"
        save_problems(str(saved), maze_dataset)
        assert seed1_maze_file.read_bytes() == saved.read_bytes()

    def test_loads_the_session_dataset(self, seed1_maze_file, maze_dataset):
        assert_loads_as(seed1_maze_file, maze_dataset)


def assert_loads_as(path, dataset):
    """load_problems of path gives the problems of dataset, each with its
    geometry."""
    loaded = load_problems(str(path))
    assert loaded == dataset
    assert {split: [p.geometry for p in problems] for split, problems in loaded.items()} == \
           {split: [p.geometry for p in problems] for split, problems in dataset.items()}


def test_seed1_blocks_file(blocks_dataset, tmp_path):
    """The file that gen-blocks --seed 1 writes: save_problems of the
    session's own generation at seed 1, which loads back as it."""
    path = tmp_path / "blocks.jsonl"
    save_problems(str(path), blocks_dataset)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == \
           "5bb260690df7bae18c3b763e5cf502572381704da3d7334b4e00cf8c215cb93b"
    assert_loads_as(path, blocks_dataset)


@pytest.mark.parametrize("command,config", [("gen-maze", "MazeDatasetConfig"),
                                            ("gen-blocks", "BlocksDatasetConfig")])
def test_generation_exhausted_exits_4(tmp_path, monkeypatch, capsys, command, config):
    from hybridplan import cli, generators

    monkeypatch.setattr(cli, config, lambda: getattr(generators, config)(max_attempts=1))
    out = tmp_path / "problems.jsonl"
    assert main([command, "--out", str(out)]) == 4
    assert capsys.readouterr().err.startswith("generation exhausted:")
    assert not out.exists()


class TestValidation:
    def test_bad_x_exits_2(self, problems_file, capsys):
        code = main(["plan", "--problems", problems_file, "--x", "1.5"])
        assert code == 2
        assert "x" in capsys.readouterr().err

    def test_bad_bias_exits_2(self, problems_file):
        assert main(["eval", "--problems", problems_file, "--bias", "3"]) == 2

    def test_missing_problems_file_exits_3(self, tmp_path):
        assert main(["eval", "--problems", str(tmp_path / "nope.jsonl")]) == 3

    def test_corrupt_problems_file_exits_3(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{not json\n")
        assert main(["eval", "--problems", str(bad)]) == 3

    def test_problems_file_not_utf8_exits_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_bytes(b"\xff{}\n")
        assert main(["eval", "--problems", str(bad)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and str(bad) in err

    @pytest.mark.parametrize("field,value", [
        (None, [1, 2]),  # the whole line is not a JSON object
        ("obstacles", 5),
        ("start", 5),
    ])
    def test_badly_typed_problem_line_exits_3(self, small_maze_dataset, tmp_path, field, value,
                                              capsys):
        from hybridplan.textio import problem_to_json

        good = json.dumps(problem_to_json(small_maze_dataset["test"][0]))
        rec = problem_to_json(small_maze_dataset["test"][1])
        if field == "obstacles":
            rec["grid"]["obstacles"] = value
        elif field is not None:
            rec[field] = value
        path = tmp_path / "maze.jsonl"
        path.write_text(good + "\n" + json.dumps(rec if field else value) + "\n")
        assert main(["eval", "--problems", str(path), "--planner", "system2"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and "(line 2)" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("domain,edit", [
        ("blocks", lambda rec: {**rec, "blocks": "".join(rec["blocks"])}),
        ("maze", lambda rec: {**rec, "optimal_length": rec["optimal_length"] + 1}),
        ("maze", lambda rec: {**rec, "optimal_length": 0, "gold_plan": None}),
        ("maze", lambda rec: {**rec, "optimal_length": "3", "gold_plan": None}),
        ("blocks", lambda rec: {**rec, "blocks": ["A", "A"], "start": "A|A", "goal": "A|A",
                                "gold_plan": [], "optimal_length": 0}),
        ("blocks", lambda rec: {**rec, "blocks": ["A", "table"], "start": "A|table",
                                "goal": "table,A", "gold_plan": ["move(A,table)"],
                                "optimal_length": 1}),
        ("maze", lambda rec: {**rec, "grid": {**rec["grid"], "rows": float(rec["grid"]["rows"])}}),
        ("maze", lambda rec: {**rec, "grid": {**rec["grid"], "obstacles": [[1, 1.5]]}}),
        ("maze", lambda rec: {**rec, "id": [rec["id"]]}),
        ("maze", lambda rec: {**rec, "split": [rec["split"]]}),
        ("blocks", lambda rec: {**rec, "blocks": ["A-1", "B"], "start": "A-1|B",
                                "goal": "A-1,B", "gold_plan": None, "optimal_length": 1}),
        ("maze", lambda rec: {**BLOCKS_RECORD, "split": rec["split"]}),
    ], ids=["blocks-as-string", "length-not-the-gold-plans", "length-0-but-start-is-not-goal",
            "length-not-an-integer", "repeated-blocks", "block-named-table", "float-rows",
            "float-obstacle", "list-id", "list-split", "block-label-not-a-word",
            "second-domain"])
    def test_inconsistent_problem_line_exits_3(self, small_maze_dataset, small_blocks_dataset,
                                               tmp_path, domain, edit, capsys):
        from hybridplan.textio import problem_to_json

        test = (small_maze_dataset if domain == "maze" else small_blocks_dataset)["test"]
        good = json.dumps(problem_to_json(test[0]))
        rec = edit(problem_to_json(test[1]))
        path = tmp_path / f"{domain}.jsonl"
        path.write_text(good + "\n" + json.dumps(rec) + "\n")
        assert main(["eval", "--problems", str(path), "--planner", "system2"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and "(line 2)" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["eval", "--planner", "system2", "--budget", "0"],
        ["eval", "--planner", "system1x", "--budget", "-3"],
        ["sweep", "--planner", "system2", "--budgets", "0,5"],
        ["sweep", "--planner", "system2", "--budgets", ","],
        ["sweep", "--planner", "system2", "--budgets", ""],
    ])
    def test_bad_budget_exits_2(self, problems_file, argv, capsys):
        assert main(argv + ["--problems", problems_file]) == 2
        assert capsys.readouterr().err.startswith("usage error:")

    def test_sweep_takes_no_budget(self, problems_file, capsys):
        assert main(["sweep", "--problems", problems_file, "--budget", "5"]) == 2
        assert capsys.readouterr().err.startswith("usage error:")

    @pytest.mark.parametrize("argv", [
        ["eval", "--workers", "0"],
        ["eval", "--workers", "-3"],
        ["sweep", "--workers", "0"],
    ])
    def test_bad_workers_exits_2(self, problems_file, argv, capsys):
        assert main(argv + ["--problems", problems_file]) == 2
        assert capsys.readouterr().err.startswith("usage error:")

    @pytest.mark.parametrize("command", ["eval", "sweep"])
    def test_problem_without_oracle_length_exits_3(self, small_maze_dataset, tmp_path,
                                                    command, capsys):
        problem = replace(small_maze_dataset["test"][0], optimal_length=None)
        path = tmp_path / "maze.jsonl"
        save_problems(str(path), {"test": [problem]})
        assert main([command, "--problems", str(path), "--planner", "system1",
                     "--out", str(tmp_path / "out.csv")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and problem.problem_id in err

    @pytest.mark.parametrize("command,data,selector", [
        ("eval", "blocks", "maze-manhattan"),
        ("eval", "blocks", "maze-obstacles"),
        ("eval", "maze", "blocks-distance"),
        ("build-controller-data", "maze", "nonsense"),
    ])
    def test_bad_selector_exits_2(self, problems_file, blocks_file, command, data, selector,
                                  capsys):
        path = blocks_file if data == "blocks" else problems_file
        assert main([command, "--problems", path, "--selector", selector]) == 2
        assert capsys.readouterr().err.startswith("usage error:")


class TestPlanEvalSweep:
    def test_plan_writes_runs(self, problems_file, tmp_path, capsys):
        out = tmp_path / "runs.jsonl"
        code = main(["plan", "--problems", problems_file, "--planner", "system2",
                     "--sys2", "astar", "--out", str(out)])
        assert code == 0
        runs = [json.loads(l) for l in open(out)]
        assert len(runs) == 40
        assert all(r["valid"] for r in runs)
        assert "validity 1.000" in capsys.readouterr().out

    def test_eval_summary_line(self, problems_file, capsys):
        assert main(["eval", "--problems", problems_file, "--planner", "system1"]) == 0
        out = capsys.readouterr().out
        assert "validity=" in out and "avg_se=" in out

    def test_sweep_csv(self, problems_file, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--problems", problems_file, "--planner", "system1x",
                     "--x", "0.5", "--sys2", "astar", "--budgets", "5,10,15,20",
                     "--out", str(out), "--markdown"])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("planner,budget")
        assert len(lines) == 6  # header + 4 budgets + default
        assert "| planner |" in capsys.readouterr().out

    def test_sweep_plot_data(self, problems_file, tmp_path):
        out = tmp_path / "sweep.csv"
        plot = tmp_path / "plot.json"
        main(["sweep", "--problems", problems_file, "--planner", "system2",
              "--budgets", "5", "--out", str(out), "--plot-data", str(plot)])
        data = json.loads(plot.read_text())
        assert data["series"]

    def test_sweep_takes_each_budget_once(self, problems_file, tmp_path):
        csvs = []
        for budgets in ("5,5,10", "5,10"):
            out = tmp_path / f"{budgets}.csv"
            assert main(["sweep", "--problems", problems_file, "--planner", "system2",
                         "--budgets", budgets, "--out", str(out)]) == 0
            csvs.append(out.read_text())
        assert csvs[0] == csvs[1]

    def test_sweep_data_error_leaves_out_as_it_was(self, problems_file, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        out.write_text("before\n")
        assert main(["sweep", "--problems", problems_file, "--planner", "system1",
                     "--out", str(out), "--plot-data", str(tmp_path / "missing" / "x.json")]) == 3
        assert capsys.readouterr().err.startswith("data error:")
        assert out.read_text() == "before\n"

    @pytest.mark.parametrize("flag", ["--out", "--plot-data"])
    def test_sweep_output_onto_a_directory_exits_3_leaving_no_temp_file(
            self, problems_file, tmp_path, flag, capsys):
        outputs = {"--out": tmp_path / "sweep.csv", "--plot-data": tmp_path / "plot.json"}
        outputs[flag] = tmp_path / "taken"
        outputs[flag].mkdir()
        argv = ["sweep", "--problems", problems_file, "--planner", "system1", "--budgets", "5"]
        for name, path in outputs.items():
            argv += [name, str(path)]
        assert main(argv) == 3
        assert capsys.readouterr().err.startswith("data error:")
        assert not (tmp_path / "taken.tmp").exists()

    @pytest.mark.parametrize("planner,engine", [("system2", "bfs"), ("system1x", "dfs")])
    def test_blocks_caps_with_uninformed_engine(self, blocks_file, planner, engine, capsys):
        code = main(["eval", "--problems", blocks_file, "--planner", planner,
                     "--sys2", engine, "--blocks-caps"])
        assert code == 0
        assert "validity=" in capsys.readouterr().out

    def test_blocks_goal_with_stacks_out_of_bottom_order(self, tmp_path, capsys):
        path = tmp_path / "blocks.jsonl"
        path.write_text(json.dumps({
            "id": "unsorted-goal", "domain": "blocks", "blocks": ["A", "B", "C"],
            "start": "A,B|C", "goal": "C|B,A", "gold_plan": None,
            "optimal_length": 2, "split": "test"}) + "\n")
        assert main(["eval", "--problems", str(path), "--planner", "system2"]) == 0
        out = capsys.readouterr().out
        assert "validity=1.000" in out and "optimality=1.000" in out


# sha256 of the files the CLI writes on the module fixtures, each holding
# train, val and test splits: sweeps at the default budgets 5,10,15,20 and
# the controller dataset, all at seed 0.
GOLDEN_CLI_DIGESTS = {
    ("blocks", "build-controller-data", None):
        "aad7b7376ab0c4dd23435f6f661507007279eea6062dd1155b9b5d7ebd17f21f",
    ("blocks", "sweep", "system1x"):
        "2f8729b4afbeec0b533605ae90c70404e2d11ab84e3b210cbf02a5797e413bf5",
    ("blocks", "sweep", "system2"):
        "aadf841b7f139a6e95400936da1d3228a1457b335564478b00e08febb94e5bea",
    ("maze", "build-controller-data", None):
        "ff4d772b7770639840666abcab024c77f2dfa5eccf03d917d02fa9fc6ff2df51",
    ("maze", "sweep", "system1x"):
        "5e56261ef6848766a4bd939f087b4fcdf4d92ae176b5c4834489a47e062011e9",
    ("maze", "sweep", "system2"):
        "c13e087805fffab4ebb8f8d0950318539546e311077c6906f914132d6d4be7e8",
}


@pytest.mark.parametrize("data,command,planner", sorted(GOLDEN_CLI_DIGESTS, key=str))
def test_golden_cli_digests(problems_file, blocks_file, tmp_path, data, command, planner):
    out = tmp_path / "out"
    argv = [command, "--problems", blocks_file if data == "blocks" else problems_file,
            "--out", str(out)]
    assert main(argv + (["--planner", planner] if planner else [])) == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == GOLDEN_CLI_DIGESTS[(data, command, planner)]


class TestControllerData:
    def test_build_controller_data(self, problems_file, tmp_path, capsys):
        out = tmp_path / "controller.jsonl"
        code = main(["build-controller-data", "--problems", problems_file,
                     "--x", "0.5", "--out", str(out)])
        assert code == 0
        records = [json.loads(l) for l in open(out)]
        assert len(records) == 160
        easy = [r for r in records
                if len(r["subgoals"]) == 1 and r["subgoals"][0]["mode"] == "sys1"]
        assert len(easy) == 80

    def test_emit_datasets(self, problems_file, tmp_path):
        out = tmp_path / "datasets"
        code = main(["emit-datasets", "--problems", problems_file,
                     "--x", "0.5", "--out", str(out)])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["files"]["sys1"]["count"] == 160
        for kind in ("sys1", "sys2", "controller"):
            assert (out / f"{kind}.jsonl").exists()


    @pytest.mark.parametrize("command", ["build-controller-data", "emit-datasets"])
    @pytest.mark.parametrize("record,step", [
        ({**BLOCKS_RECORD, "gold_plan": ["move(A,A)", "move(A,B)"]}, 1),
        ({**BLOCKS_RECORD, "gold_plan": ["move(Z,C)", "move(A,B)"]}, 1),
        ({**BLOCKS_RECORD, "gold_plan": ["move(B,C)", "move(B,A)"]}, 2),
        ({**MAZE_RECORD, "gold_plan": ["up", "down", "right", "right"]}, 1),
        ({**MAZE_RECORD, "gold_plan": ["right", "right", "down", "move(A,B)"]}, 4),
        ({**MAZE_RECORD, "gold_plan": ["down", "up", "down", "down"]}, 4),
    ], ids=["self-move", "unknown-block", "blocks-off-the-goal", "out-of-bounds",
            "move-in-a-maze", "maze-off-the-goal"])
    def test_bad_gold_plan_exits_3_writing_nothing(self, tmp_path, command, record, step,
                                                   capsys):
        path = tmp_path / "problems.jsonl"
        path.write_text(json.dumps({**record, "split": "train"}) + "\n")
        out = tmp_path / "out"
        assert main([command, "--problems", str(path), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and repr(record["id"]) in err
        assert f"step {step} " in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["build-controller-data", "emit-datasets"])
    @pytest.mark.parametrize("variant", ["sliding-window", "edge-window"])
    def test_train_problem_with_no_step_is_one_sys2_subgoal(self, tmp_path, command, variant):
        zero = {**MAZE_RECORD, "id": "z", "goal": MAZE_RECORD["start"], "gold_plan": [],
                "optimal_length": 0}
        path = tmp_path / "problems.jsonl"
        path.write_text("".join(json.dumps({**rec, "split": "train"}) + "\n"
                                for rec in (MAZE_RECORD, zero)))
        out = tmp_path / "out"
        assert main([command, "--problems", str(path), "--x", "1", "--variant", variant,
                     "--out", str(out)]) == 0
        if command == "emit-datasets":
            records = [json.loads(l) for l in open(out / "controller.jsonl")]
            subgoals = {r["id"]: r["structured"]["subgoals"] for r in records}
        else:
            subgoals = {r["id"]: r["subgoals"] for r in map(json.loads, open(out))}
        s = zero["start"]
        assert subgoals["z"] == [{"from": s, "to": s, "mode": "sys2"}]

    def test_emit_datasets_manifest_onto_a_directory_exits_3_leaving_no_temp_file(
            self, problems_file, tmp_path, capsys):
        out = tmp_path / "datasets"
        (out / "manifest.json").mkdir(parents=True)
        code = main(["emit-datasets", "--problems", problems_file, "--out", str(out)])
        assert code == 3
        assert capsys.readouterr().err.startswith("data error:")
        assert not (out / "manifest.json.tmp").exists()


class TestUnreadSplits:
    """A command builds problems only from the splits it reads. A record of
    any other split is still checked to be a JSON object with a string
    split and the file's domain."""

    @pytest.fixture
    def lines(self, small_maze_dataset):
        """Four records of each split: train on lines 1-4, val on 5-8, test
        on 9-12."""
        from hybridplan.textio import problem_to_json

        return [json.dumps(problem_to_json(p)) for split in ("train", "val", "test")
                for p in small_maze_dataset[split][:4]]

    @staticmethod
    def write(tmp_path, lines, name="maze.jsonl"):
        path = tmp_path / name
        path.write_text("".join(line + "\n" for line in lines))
        return str(path)

    @staticmethod
    def edited(lines, at, edit):
        rec = json.loads(lines[at])
        edit(rec)
        return [*lines[:at], json.dumps(rec), *lines[at + 1:]]

    @classmethod
    def with_obstacles_5(cls, lines, at):
        return cls.edited(lines, at, lambda rec: rec["grid"].update(obstacles=5))

    def test_corrupt_train_record_is_not_read_by_system2(self, tmp_path, lines, capsys):
        summaries = []
        for name, text in (("clean.jsonl", lines), ("bad.jsonl", self.with_obstacles_5(lines, 1))):
            assert main(["eval", "--problems", self.write(tmp_path, text, name),
                         "--planner", "system2"]) == 0
            summaries.append(capsys.readouterr().out)
        assert summaries[0] == summaries[1]

    def test_corrupt_train_record_is_read_by_system1x(self, tmp_path, lines, capsys):
        path = self.write(tmp_path, self.with_obstacles_5(lines, 1))
        assert main(["eval", "--problems", path, "--planner", "system1x"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error: corrupt problem record") and "(line 2)" in err

    @pytest.mark.parametrize("at", [0, 5, 11], ids=["train", "val", "test"])
    def test_non_string_split_exits_3(self, tmp_path, lines, at, capsys):
        path = self.write(tmp_path, self.edited(lines, at, lambda rec: rec.update(split=5)))
        assert main(["eval", "--problems", path, "--planner", "system2"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and f"(line {at + 1})" in err

    @pytest.mark.parametrize("line,at", [
        (json.dumps({**BLOCKS_RECORD, "split": "val"}), 6),
        (json.dumps({**MAZE_RECORD, "domain": "chess", "split": "val"}), 0),
        (json.dumps({**MAZE_RECORD, "split": "val"})[:-1], 6),
        (json.dumps(["val"]), 6),
    ], ids=["second-domain", "unknown-domain-first", "not-json", "not-an-object"])
    def test_bad_line_in_an_unread_split_exits_3(self, tmp_path, lines, line, at, capsys):
        path = self.write(tmp_path, [*lines[:at], line, *lines[at:]])
        assert main(["eval", "--problems", path, "--planner", "system2"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and f"(line {at + 1})" in err

    def test_corrupt_test_record_is_not_read_by_emit_datasets(self, tmp_path, lines):
        corpora = []
        for name, text in (("clean", lines), ("bad", self.with_obstacles_5(lines, 10))):
            out = tmp_path / name
            assert main(["emit-datasets", "--problems", self.write(tmp_path, text),
                         "--out", str(out)]) == 0
            corpora.append({f.name: f.read_bytes() for f in out.iterdir()})
        assert corpora[0] == corpora[1]

    def test_absent_split_names_the_splits_present(self, tmp_path, lines, capsys):
        path = self.write(tmp_path, lines)
        assert main(["eval", "--problems", path, "--split", "tset"]) == 3
        err = capsys.readouterr().err
        assert err == f"data error: split 'tset' not present in {path} (has: test, train, val)\n"


@pytest.mark.parametrize("command", ["emit-datasets", "plan", "eval", "sweep"])
def test_blocks_caps_help(command, capsys):
    """Every command with --blocks-caps explains it in its --help."""
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--help"])
    assert exit_info.value.code == 0
    help_text = " ".join(capsys.readouterr().out.split())
    assert "--blocks-caps record at most 3 valid / 2 invalid probes per expansion" in help_text


class TestConfigFile:
    def test_config_file_mirrors_flags(self, problems_file, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"planner": "system1"}))
        assert main(["eval", "--problems", problems_file, "--config", str(cfg)]) == 0
        assert "sys1-greedy" in capsys.readouterr().out

    def test_flags_override_config(self, problems_file, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"planner": "system1"}))
        assert main(["eval", "--problems", problems_file, "--config", str(cfg),
                     "--planner", "system2", "--sys2", "bfs"]) == 0
        assert "bfs" in capsys.readouterr().out

    def test_config_file_supplies_problems(self, problems_file, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"problems": problems_file, "planner": "system1"}))
        assert main(["eval", "--config", str(cfg)]) == 0
        assert "sys1-greedy" in capsys.readouterr().out

    @pytest.mark.parametrize("with_config", [False, True])
    def test_missing_problems_exits_2(self, tmp_path, with_config, capsys):
        argv = ["eval", "--planner", "system1"]
        if with_config:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"planner": "system1"}))
            argv += ["--config", str(cfg)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and "--problems" in err

    def test_config_file_not_utf8_exits_3(self, problems_file, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(b"\xff{}")
        assert main(["eval", "--problems", problems_file, "--config", str(cfg)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and str(cfg) in err

    def test_unknown_config_key_exits_2(self, problems_file, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"frobnicate": 1}))
        assert main(["eval", "--problems", problems_file, "--config", str(cfg)]) == 2

    def test_explicit_flag_equal_to_default_beats_config(self, problems_file, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"x": 0.3}))
        assert main(["eval", "--problems", problems_file, "--config", str(cfg),
                     "--x", "0.5"]) == 0
        assert "hybrid-x0.5-" in capsys.readouterr().out

    def test_config_values_go_through_flag_types(self, problems_file, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"x": "0.25"}))
        assert main(["eval", "--problems", problems_file, "--config", str(cfg)]) == 0
        assert "hybrid-x0.25-" in capsys.readouterr().out

    @pytest.mark.parametrize("command,values", [
        ("sweep", {"budgets": [5, 10]}),
        ("eval", [1, 2]),
        ("eval", {"x": "abc"}),
        ("eval", {"planner": "bogus"}),
        ("eval", {"blocks_caps": "yes"}),
    ])
    def test_bad_config_value_exits_2(self, problems_file, tmp_path, command, values, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(values))
        assert main([command, "--problems", problems_file, "--config", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith("usage error:")


def test_default_out_dir_env(tmp_path, monkeypatch, small_maze_dataset):
    monkeypatch.setenv("HYBRIDPLAN_OUT_DIR", str(tmp_path))
    path = tmp_path / "maze.jsonl"
    save_problems(str(path), small_maze_dataset)
    assert main(["plan", "--problems", str(path), "--planner", "system1"]) == 0
    assert (tmp_path / "runs.jsonl").exists()


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 6) | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                 max_size=3),
    max_leaves=6)


@pytest.fixture(scope="module")
def fuzz_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "problems.jsonl"


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(record=st.sampled_from((MAZE_RECORD, BLOCKS_RECORD)), data=st.data())
def test_any_field_value_loads_or_exits_3(fuzz_file, record, data):
    """A problem line with any one field, the grid's included, replaced by
    a JSON value either is scored or exits 3 with a data error line."""
    fields = [*record, *(["grid." + k for k in record["grid"]] if "grid" in record else [])]
    field = data.draw(st.sampled_from(fields))
    value = data.draw(JSON_VALUES)
    record = json.loads(json.dumps(record))
    if field.startswith("grid."):
        record["grid"][field[5:]] = value
    else:
        record[field] = value
    fuzz_file.write_text(json.dumps(record) + "\n")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["eval", "--problems", str(fuzz_file), "--planner", "system1x"])
    assert code == 0 or code == 3 and err.getvalue().startswith("data error:"), err.getvalue()


def test_module_runs_the_cli():
    """python -m hybridplan runs the command line from a checkout."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (str(src), os.environ.get("PYTHONPATH"))))}
    done = subprocess.run([sys.executable, "-m", "hybridplan", "--help"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: hybridplan")
