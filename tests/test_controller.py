import hashlib
from dataclasses import replace

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hybridplan.controller import (
    SYS1,
    SYS2,
    VARIANTS,
    ControllerConfig,
    HybridController,
    SubGoal,
    build_controller_dataset,
    meta_plan,
    window_length,
)
from hybridplan.domains import (
    MazeGrid,
    PlanningProblem,
    decode,
    encode,
    greedy_walk,
    plan_states,
    skeleton,
)
from hybridplan.evaluate import BIAS_STEP
from hybridplan.hardness import SELECTORS, hardness_fn
from hybridplan.textio import metaplan_record
from reference import controller_dataset, valid_successors
from strategies import blocks_problems, maze_problems, states_of


def gold_window(problem, x, variant="sliding-window"):
    """The window optimizer over the problem's gold plan, default selector."""
    states = plan_states(problem, problem.gold_plan)
    return meta_plan(states, window_length(x, len(states) - 1), variant, hardness_fn(None, problem))


def brute_force_window(problem, gold_plan, x, selector):
    """Independent enumeration of every placement of the x*n window."""
    states = plan_states(problem, gold_plan)
    n = len(states) - 1
    w = window_length(x, n)
    hfn = hardness_fn(selector, problem)
    scored = []
    for u in range(0, n - w + 1):
        v = u + w
        score = hfn(states[0], states[u]) - hfn(states[u], states[v]) + hfn(states[v], states[n])
        scored.append((score, u, v))
    _, u, v = min(scored, key=lambda t: (t[0], t[1]))
    return states[u], states[v]


def assert_chained(problem, meta):
    assert meta[0].start == problem.start
    assert meta[-1].goal == problem.goal
    for a, b in zip(meta, meta[1:]):
        assert a.goal == b.start
    assert sum(1 for sg in meta if sg.mode == SYS2) == 1
    assert 1 <= len(meta) <= 3


class TestSlidingWindow:
    def test_matches_bruteforce_oracle(self, small_maze_dataset):
        problems = [p for p in small_maze_dataset["train"] if p.optimal_length >= 2][:100]
        for p in problems:
            for x in (0.25, 0.5, 0.75):
                meta = gold_window(p, x)
                su, sv = brute_force_window(p, p.gold_plan, x, "maze-obstacles")
                sys2 = [sg for sg in meta if sg.mode == SYS2][0]
                assert (sys2.start, sys2.goal) == (su, sv)
                assert_chained(p, meta)

    def test_x_one_whole_plan_window(self, small_maze_dataset):
        p = next(p for p in small_maze_dataset["train"] if p.optimal_length == 8)
        meta = gold_window(p, 1.0)
        assert meta == tuple(meta) and len(meta) == 1
        assert meta[0].mode == SYS2
        assert (meta[0].start, meta[0].goal) == (p.start, p.goal)

    def test_length_one_plan_clamps(self, small_maze_dataset):
        p = next(p for p in small_maze_dataset["train"] if p.optimal_length == 1)
        meta = gold_window(p, 0.3)
        assert len(meta) == 1 and meta[0].mode == SYS2


class TestEdgeWindow:
    def test_only_edge_placements(self, small_maze_dataset):
        problems = [p for p in small_maze_dataset["train"] if p.optimal_length >= 4][:50]
        for p in problems:
            meta = gold_window(p, 0.5, "edge-window")
            assert len(meta) <= 2
            sys2 = [sg for sg in meta if sg.mode == SYS2][0]
            assert sys2.start == p.start or sys2.goal == p.goal
            assert_chained(p, meta)

    def test_never_beats_sliding_window(self, small_maze_dataset):
        problems = [p for p in small_maze_dataset["train"] if p.optimal_length >= 4][:50]
        for p in problems:
            states = plan_states(p, p.gold_plan)
            hfn = hardness_fn("maze-obstacles", p)

            def objective(meta):
                sys2 = [sg for sg in meta if sg.mode == SYS2][0]
                return (hfn(p.start, sys2.start) - hfn(sys2.start, sys2.goal)
                        + hfn(sys2.goal, p.goal))

            slide = objective(gold_window(p, 0.5))
            edge = objective(gold_window(p, 0.5, "edge-window"))
            assert edge >= slide

    def test_x_one_single_window(self, small_maze_dataset):
        p = next(p for p in small_maze_dataset["train"] if p.optimal_length >= 4)
        meta = gold_window(p, 1.0, "edge-window")
        assert len(meta) == 1 and meta[0].mode == SYS2


class TestBuildControllerDataset:
    def test_easy_count_floor(self, small_maze_dataset):
        problems = small_maze_dataset["train"][:9]
        records = build_controller_dataset(problems, ControllerConfig(x=0.5))
        easy = [m for _, m in records if len(m) == 1 and m[0].mode == SYS1]
        assert len(easy) == int(0.5 * 9) == 4

    def test_x_zero_all_easy(self, small_maze_dataset):
        problems = small_maze_dataset["train"][:20]
        records = build_controller_dataset(problems, ControllerConfig(x=0.0))
        assert all(len(m) == 1 and m[0].mode == SYS1 for _, m in records)

    def test_x_one_no_easy(self, small_maze_dataset):
        problems = small_maze_dataset["train"][:20]
        records = build_controller_dataset(problems, ControllerConfig(x=1.0))
        for p, m in records:
            assert len(m) == 1 and m[0].mode == SYS2
            assert (m[0].start, m[0].goal) == (p.start, p.goal)

    def test_hard_instances_are_the_hardest(self, small_maze_dataset):
        problems = small_maze_dataset["train"][:40]
        records = build_controller_dataset(problems, ControllerConfig(x=0.5))
        scores = [hardness_fn("maze-obstacles", p)(p.start, p.goal) for p, _ in records]
        assert scores == sorted(scores)

    def test_variant_no_subgoal(self, small_maze_dataset):
        problems = small_maze_dataset["train"][:10]
        records = build_controller_dataset(problems, ControllerConfig(x=1.0, variant="no-subgoal"))
        assert all(m[0].mode == SYS2 and len(m) == 1 for _, m in records)

    @pytest.mark.parametrize("variant", ["sliding-window", "edge-window"])
    def test_hard_problem_with_no_step_is_one_sys2_subgoal(self, variant):
        s = ("A", "B"), ("C",)
        problem = PlanningProblem(domain="blocks", start=s, goal=s, blocks=("A", "B", "C"),
                                  gold_plan=(), optimal_length=0)
        config = ControllerConfig(x=1.0, variant=variant)
        expected = (SubGoal(s, s, SYS2),)
        assert build_controller_dataset([problem], config) == [(problem, expected)]
        assert HybridController(config).fit([problem]).decompose(problem) == expected

    def test_rejects_random_variant(self, small_maze_dataset):
        # the runtime random variant gates by a coin flip; the dataset has no such labels
        with pytest.raises(ValueError, match="random"):
            build_controller_dataset(small_maze_dataset["train"][:10],
                                     ControllerConfig(variant="random"))


@st.composite
def walked_problems(draw, problems):
    """A problem whose gold plan is a random walk of 0 to 8 valid moves from
    its start and whose goal is where the walk ends; the empty walk gives
    start == goal and an empty gold plan."""
    problem = draw(problems)
    state, plan = encode(problem, problem.start), []
    for _ in range(draw(st.integers(0, 8))):
        moves = valid_successors(problem, state)
        if not moves:
            break
        action, state = draw(st.sampled_from(moves))
        plan.append(action)
    return replace(problem, goal=decode(problem, state), gold_plan=tuple(plan),
                   optimal_length=len(plan))


DATASET_XS = (0.0, 0.05, 0.25, 1 / 3, 0.5, 0.75, 0.8, 1.0)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.one_of(st.lists(walked_problems(maze_problems()), min_size=1, max_size=6),
                 st.lists(walked_problems(blocks_problems(max_blocks=5)), min_size=1,
                          max_size=6)))
@example([PlanningProblem(domain="maze", start=(0, 1), goal=(0, 1), grid=MazeGrid(2, 2),
                          gold_plan=(), optimal_length=0)])
@example([PlanningProblem(domain="blocks", start=(("A",), ("B",)), goal=(("A",), ("B",)),
                          blocks=("A", "B"), gold_plan=(), optimal_length=0)])
def test_dataset_is_the_reference_loop(problems):
    """build_controller_dataset, which turns each shape into a meta-plan
    through decompose, gives the records of the reference loop that calls
    meta_plan with a hardness function itself, for every dataset variant,
    each selector of the domain and each x."""
    for variant in VARIANTS:
        for selector in SELECTORS[problems[0].domain]:
            for x in DATASET_XS:
                config = ControllerConfig(x=x, variant=variant, selector=selector)
                if variant == "random":
                    with pytest.raises(ValueError, match="random"):
                        build_controller_dataset(problems, config)
                    continue
                assert build_controller_dataset(problems, config) == \
                    controller_dataset(problems, config)


class TestRuntimeController:
    def _fitted(self, ds, **kwargs):
        return HybridController(ControllerConfig(**kwargs)).fit(ds["train"])

    def test_requires_fit(self, small_maze_dataset):
        ctl = HybridController(ControllerConfig(x=0.5))
        with pytest.raises(RuntimeError):
            ctl.decompose(small_maze_dataset["test"][0])

    def test_easy_below_threshold(self, small_maze_dataset):
        ctl = self._fitted(small_maze_dataset, x=0.5)
        tau = ctl.threshold
        for p in small_maze_dataset["test"]:
            meta = ctl.decompose(p)
            score = hardness_fn("maze-obstacles", p)(p.start, p.goal)
            if score < tau:
                assert len(meta) == 1 and meta[0].mode == SYS1
            else:
                assert any(sg.mode == SYS2 for sg in meta)

    def test_saturated_bias_all_hard(self, small_maze_dataset):
        ctl = self._fitted(small_maze_dataset, x=0.5, bias=1.0)
        for p in small_maze_dataset["test"][:40]:
            meta = ctl.decompose(p)
            assert any(sg.mode == SYS2 for sg in meta)
            assert_chained(p, meta)

    def test_x_zero_all_easy(self, small_maze_dataset):
        ctl = self._fitted(small_maze_dataset, x=0.0)
        for p in small_maze_dataset["test"]:
            meta = ctl.decompose(p)
            assert meta == (meta[0],) and meta[0].mode == SYS1

    def test_monotone_in_bias(self, small_maze_dataset):
        counts = []
        for step in range(-10, 11):
            ctl = self._fitted(small_maze_dataset, x=0.5, bias=step / 10)
            hard = sum(
                1 for p in small_maze_dataset["test"]
                if any(sg.mode == SYS2 for sg in ctl.decompose(p)))
            counts.append(hard)
        assert counts == sorted(counts)

    def test_random_variant_monotone_and_seeded(self, small_maze_dataset):
        test = small_maze_dataset["test"]
        counts = []
        for bias in (-1.0, -0.5, 0.0, 0.5, 1.0):
            ctl = self._fitted(small_maze_dataset, x=0.5, bias=bias, variant="random", seed=3)
            hard = sum(1 for p in test if ctl.decompose(p)[0].mode == SYS2)
            counts.append(hard)
        assert counts == sorted(counts)
        a = self._fitted(small_maze_dataset, x=0.5, variant="random", seed=3)
        b = self._fitted(small_maze_dataset, x=0.5, variant="random", seed=3)
        assert [a.decompose(p) for p in test] == [b.decompose(p) for p in test]

    def test_no_subgoal_variant(self, small_maze_dataset):
        ctl = self._fitted(small_maze_dataset, x=0.5, bias=1.0, variant="no-subgoal")
        for p in small_maze_dataset["test"][:20]:
            meta = ctl.decompose(p)
            assert meta == ((meta[0]),) if len(meta) == 1 else False
            assert meta[0].mode == SYS2
            assert (meta[0].start, meta[0].goal) == (p.start, p.goal)

    def test_decompositions_chain(self, small_maze_dataset):
        ctl = self._fitted(small_maze_dataset, x=0.75)
        for p in small_maze_dataset["test"]:
            assert_chained_or_single(p, ctl.decompose(p))


def test_decimal_x_gives_the_exact_easy_share():
    """At x = k/100 the dataset labels exactly the 100 - k easiest of 100
    problems fast-only and the runtime gate takes percentile 100 - k, also
    at each x + i * BIAS_STEP that a sweep's bias scan passes through: in
    floats 1 - 0.8 is 0.19999999999999996, which must not lose a problem."""
    grid = MazeGrid(1, 101)
    # hardness (Manhattan distance) 1..100
    problems = [PlanningProblem(domain="maze", start=(0, 0), goal=(0, d), grid=grid,
                                gold_plan=("right",) * d) for d in range(1, 101)]

    def threshold(k):  # percentile 100 - k of hardness 1..100
        return float("inf") if k == 0 else 101 - k

    for k in range(101):
        config = ControllerConfig(x=k / 100, variant="no-subgoal", selector="maze-manhattan")
        records = build_controller_dataset(problems, config)
        easy = [p.goal[1] for p, m in records if m[0].mode == SYS1]
        assert easy == list(range(1, 101 - k)), k
        assert HybridController(config).fit(problems).threshold == threshold(k), k
    step = round(100 * BIAS_STEP)
    for x in (0.25, 0.5, 0.75):
        ctl = HybridController(ControllerConfig(x=x, selector="maze-manhattan")).fit(problems)
        for i in range(1, 100 // step + 1):
            k = min(100, round(100 * x) + i * step)
            assert ctl.with_bias(min(1.0, i * BIAS_STEP)).threshold == threshold(k), (x, i)


def test_fitted_gate_agrees_with_the_dataset_at_any_x():
    """The fitted gate sizes its easy share by the dataset's rule: at x = 1/3
    over 300 problems of distinct hardness both leave the 200 easiest
    fast-only, where a gate that took a percentile of x rounded to two
    places would leave 198."""
    grid = MazeGrid(1, 301)
    # hardness (Manhattan distance) 1..300
    problems = [PlanningProblem(domain="maze", start=(0, 0), goal=(0, d), grid=grid,
                                gold_plan=("right",) * d) for d in range(1, 301)]
    config = ControllerConfig(x=1 / 3, variant="no-subgoal", selector="maze-manhattan")
    records = build_controller_dataset(problems, config)
    assert sum(m[0].mode == SYS1 for _, m in records) == 200
    ctl = HybridController(config).fit(problems)
    assert ctl.threshold == 201
    assert sum(ctl.decompose(p)[0].mode == SYS1 for p in problems) == 200


def assert_chained_or_single(problem, meta):
    assert meta[0].start == problem.start
    assert meta[-1].goal == problem.goal
    for a, b in zip(meta, meta[1:]):
        assert a.goal == b.start


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_window_optimizer_properties(data):
    """Over random sequences of distinct states: the sub-goals chain from s0
    to sn, the one Sys2 sub-goal spans window_length(x, n) steps (from an
    end for edge-window), and it is the first placement of least objective
    among the allowed ones, found by enumeration."""
    problem = data.draw(st.one_of(maze_problems(), blocks_problems(max_blocks=4)))
    assume(problem.domain == "blocks" and len(problem.blocks) > 1
           or problem.domain == "maze" and len(problem.grid.free_cells()) > 1)
    states = data.draw(st.lists(states_of(problem), min_size=2, max_size=12, unique=True))
    x = data.draw(st.floats(0.0, 1.0, exclude_min=True))
    variant = data.draw(st.sampled_from(("sliding-window", "edge-window")))
    hfn = hardness_fn(data.draw(st.sampled_from(SELECTORS[problem.domain])), problem)
    n = len(states) - 1
    w = window_length(x, n)
    meta = meta_plan(states, w, variant, hfn)

    assert meta[0].start == states[0] and meta[-1].goal == states[-1]
    for a, b in zip(meta, meta[1:]):
        assert a.goal == b.start
    sys2 = [sg for sg in meta if sg.mode == SYS2]
    assert len(sys2) == 1
    u, v = states.index(sys2[0].start), states.index(sys2[0].goal)
    assert v - u == w
    starts = range(n - w + 1) if variant == "sliding-window" else sorted({0, n - w})
    scored = [(hfn(states[0], states[s]) - hfn(states[s], states[s + w])
               + hfn(states[s + w], states[n]), s) for s in starts]
    assert min(scored) == (hfn(states[0], states[u]) - hfn(states[u], states[v])
                           + hfn(states[v], states[n]), u)


class TestMazeSkeleton:
    def test_is_the_greedy_walk_or_none(self, small_maze_dataset):
        """The skeleton is None exactly when the greedy walk misses the goal,
        and otherwise it is the walk's states. Both outcomes occur among the
        40 problems, so neither half of the rule goes unchecked."""
        reached = []
        for p in small_maze_dataset["test"][:40]:
            _, walk = greedy_walk(p, p.start, p.goal)
            reached.append(walk[-1] == p.goal)
            assert skeleton(p) == (walk if reached[-1] else None)
        assert any(reached) and not all(reached)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ControllerConfig(x=1.5)
        with pytest.raises(ValueError):
            ControllerConfig(bias=2.0)
        with pytest.raises(ValueError):
            ControllerConfig(variant="oracle")


# sha256 over the verbalized runtime meta-plans of the small test splits,
# per domain and variant, for x in 0.25, 0.5 and 0.75. Any change to the
# gate, the skeletons or the window optimizer changes a digest.
GOLDEN_METAPLAN_DIGESTS = {
    ("maze", "sliding-window"): "74b57386536b04d092e49f7f14695e6ca38c3d8854de23ad39ee985849f4a9cb",
    ("maze", "edge-window"): "5a6c18b7cdce9a31b7e0298e8143afd71180af52f4aefa080caf6f9eacf932ab",
    ("blocks", "sliding-window"): "0278c3ebe7dfe788db5959850e9e789c494682819bcc092ee3858d805ec27eac",
    ("blocks", "edge-window"): "8f53a2d3aa2f140adb8201269c55992a91c3831f0949fdef294485be13c1bc99",
    ("maze", "no-subgoal"): "d0cd6d04c6daf2e8cc593c5b9a3edfba2670c644b8bb61ee9139519134e23006",
    ("maze", "random"): "c095b778acabe2b9025040411a7c9a5437c42956065d1ebfe1350c411dd831b1",
    ("blocks", "no-subgoal"): "369e1f8a70552316d496ff0466123cad36fb0aeef059841cb47fe6a75d473e6d",
    ("blocks", "random"): "490a7683c8ef2ca5d45a60fbdff8c506e9bdaca02ef950e91feb75c821699ab7",
}


@pytest.mark.parametrize("domain,variant", sorted(GOLDEN_METAPLAN_DIGESTS))
def test_golden_metaplan_digests(domain, variant, small_maze_dataset, small_blocks_dataset):
    dataset = small_maze_dataset if domain == "maze" else small_blocks_dataset
    digest = hashlib.sha256()
    for x in (0.25, 0.5, 0.75):
        ctl = HybridController(ControllerConfig(x=x, variant=variant)).fit(dataset["train"])
        for p in dataset["test"]:
            digest.update(metaplan_record(ctl.decompose(p))[0].encode())
            digest.update(b"\n\n")
    assert digest.hexdigest() == GOLDEN_METAPLAN_DIGESTS[(domain, variant)]


# sha256 over the verbalized controller-dataset records (problem id, then
# meta-plan) of the small train splits, per domain and variant, for x in
# 0.25, 0.5 and 0.75. Any change to the ranking, the easy/hard split or
# the window optimizer on gold plans changes a digest.
GOLDEN_DATASET_DIGESTS = {
    ("maze", "sliding-window"): "3a65fd229d45808dcf991425108bb315ef30da085ee37affd09e6fa8a1cacbb6",
    ("maze", "edge-window"): "b03f6ef7883f57ccb3ec30dfe78b8a6544d3d30b5934056adf44576a4b898953",
    ("maze", "no-subgoal"): "d1110458e0455de95839b35b21e8495336d9b3dc99bc545fa29572bf79a97c57",
    ("blocks", "sliding-window"): "acf4348287fa784f0f2f7796dfa55f4bf8526e93d5829ba4388b3c88adc6f595",
    ("blocks", "edge-window"): "5d8b239a0a1c93e1d66910be59bfc29eba7699f34e8d7ead60ff6eae6afbca61",
    ("blocks", "no-subgoal"): "e34fd602962db87e026c17d877701f885ef7e6752e3b4fb69f24814101a19521",
}


@pytest.mark.parametrize("domain,variant", sorted(GOLDEN_DATASET_DIGESTS))
def test_golden_controller_dataset_digests(domain, variant, small_maze_dataset,
                                           small_blocks_dataset):
    dataset = small_maze_dataset if domain == "maze" else small_blocks_dataset
    digest = hashlib.sha256()
    for x in (0.25, 0.5, 0.75):
        config = ControllerConfig(x=x, variant=variant)
        for p, meta in build_controller_dataset(dataset["train"], config):
            digest.update(f"{p.problem_id}\n{metaplan_record(meta)[0]}\n\n".encode())
    assert digest.hexdigest() == GOLDEN_DATASET_DIGESTS[(domain, variant)]
