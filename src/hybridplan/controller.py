"""Sub-goal decomposition: training-data construction and the runtime
controller.

Training side: rank problems by hardness, label the easiest (1-x)*N as
fast-planner-only, and decompose the rest with the window optimizer,
which places a contiguous x*n chunk of the gold plan under deliberate
search (anywhere, or at either end for the edge-window ablation),
minimizing h(s0, su) - h(su, sv) + h(sv, sg).

Runtime side: a deterministic controller fitted on training-set
hardness. An instance is gated hard when its hardness reaches that of the
first problem the training side would label hard at the effective x';
hard instances get a search-free skeleton state sequence over which the
same window optimizer runs. Both sides turn a shape into a meta-plan
with HybridController.decompose, the one caller of meta_plan; the runtime
reads a problem's gate input and skeleton through a ProblemRecord.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from functools import cached_property

from .domains import plan_states, skeleton
from .hardness import hardness_fn, rank_problems

SYS1 = "sys1"
SYS2 = "sys2"

VARIANTS = ("sliding-window", "edge-window", "no-subgoal", "random")

_MISSING = object()


@dataclass(frozen=True)
class SubGoal:
    start: object
    goal: object
    mode: str  # "sys1" | "sys2"


@dataclass(frozen=True)
class ControllerConfig:
    x: float = 0.5
    bias: float = 0.0
    variant: str = "sliding-window"
    selector: str | None = None  # None -> domain default
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.x <= 1.0:
            raise ValueError("hybridization factor x must lie in [0, 1]")
        if not -1.0 <= self.bias <= 1.0:
            raise ValueError("bias must lie in [-1, 1]")
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown controller variant {self.variant!r}")

    @cached_property  # read per problem and pass in a sweep
    def effective_x(self):
        return min(1.0, max(0.0, self.x + self.bias))


def window_length(x, n):
    return max(1, min(n, round(x * n)))


def window_start(states, w, variant, hfn):
    """The window optimizer over a state sequence s0..sn: the first step u
    of the w-step window, placed anywhere, or only at either end for the
    edge-window variant, at the (u, u + w) that minimizes
    h(s0, su) - h(su, su+w) + h(su+w, sn); the first placement wins ties."""
    n = len(states) - 1
    if variant == "edge-window":
        starts = (0, n - w) if n > w else (0,)
    else:
        starts = range(n - w + 1)
    s0, sg = states[0], states[-1]
    # min keeps the first of equal scores
    return min(starts, key=lambda i: (hfn(s0, states[i]) - hfn(states[i], states[i + w])
                                      + hfn(states[i + w], sg)))


def meta_plan(states, shape, variant, hfn):
    """The meta-plan of a shape over the state sequence s0..sn: SYS1 or SYS2
    is one sub-goal of that mode from s0 to sn; a window length w is a
    w-step Sys2 sub-goal placed by window_start, with the stretches before
    and after it, when not empty, as Sys1 sub-goals."""
    if shape in (SYS1, SYS2):
        return (SubGoal(states[0], states[-1], shape),)
    u = window_start(states, shape, variant, hfn)
    v = u + shape
    stretches = ((0, u, SYS1), (u, v, SYS2), (v, len(states) - 1, SYS1))
    return tuple(SubGoal(states[a], states[b], mode) for a, b, mode in stretches if a < b)


def easy_count(x, n):
    """floor((1 - x) * n), exact for a decimal x: the product is rounded to
    9 places first, since 1 - 0.8 is 0.19999999999999996 in floats."""
    return int(round((1.0 - x) * n, 9))


def build_controller_dataset(problems, config):
    """Label the floor((1-x)*N) easiest problems fast-only and decompose
    the gold plans of the rest. Returns [(problem, meta_plan)] in ranked
    order. A hard problem with no step, or under the no-subgoal variant, is
    one Sys2 sub-goal. The random variant has no dataset: it gates by a
    coin flip and places no window."""
    if config.variant == "random":
        raise ValueError("the random variant has no controller dataset")
    ranked = rank_problems(problems, config.selector)
    n_easy = easy_count(config.x, len(ranked))
    decompose = HybridController(config).decompose
    records = []
    for i, problem in enumerate(ranked):
        if problem.gold_plan is None:
            raise ValueError(f"problem {problem.problem_id!r} has no gold plan")
        if i < n_easy:
            shape = SYS1
        elif config.variant == "no-subgoal" or not problem.gold_plan:
            shape = SYS2
        else:
            states = plan_states(problem, problem.gold_plan)
            shape = window_length(config.x, len(states) - 1)
        # the window, when there is one, is placed over the gold plan's states
        records.append((problem, decompose(problem, shape, lambda: states)))
    return records


class ProblemRecord:
    """The lazy holder of a problem's two inputs to the gate rule: its gate
    input and its skeleton, each computed on first read and at most once.
    In a SweepMemo, runs also keeps per meta-plan shape the unbudgeted Run."""

    __slots__ = ("problem", "runs", "_gate_input", "_gate", "_skeleton")

    def __init__(self, problem, gate_input):
        self.problem = problem
        self.runs = {}
        self._gate_input = gate_input  # problem -> gate input
        self._gate = self._skeleton = _MISSING

    def gate(self):
        if self._gate is _MISSING:
            self._gate = self._gate_input(self.problem)
        return self._gate

    def skeleton(self):
        if self._skeleton is _MISSING:
            self._skeleton = skeleton(self.problem)
        return self._skeleton


@dataclass(frozen=True)
class HybridController:
    """Runtime gate + decomposer: a config and the sorted hardness of the
    training set it was fitted on.

    An instance is gated hard when its gate input (its hardness, or for the
    random variant a seeded coin draw) reaches the threshold: the training
    hardness that the dataset's easy count at the effective hybridization
    factor leaves first among the hard ones. The meta-plan's shape follows
    from the gate alone: fast-only (SYS1), one Sys2 sub-goal (SYS2), or a
    Sys2 window of window_length(x, n) steps over the n-step search-free
    skeleton.
    """

    config: ControllerConfig = ControllerConfig()
    training_hardness: tuple | None = None  # ascending; None until fitted

    def fit(self, problems):
        """A copy fitted on the problems' hardness."""
        return replace(self, training_hardness=tuple(sorted(
            hardness_fn(self.config.selector, p)(p.start, p.goal) for p in problems)))

    def with_bias(self, bias):
        return replace(self, config=replace(self.config, bias=bias))

    @cached_property  # read per problem and pass in a sweep
    def threshold(self):
        """Hardness cutoff: instances at or above it are gated hard."""
        hardness = self.training_hardness
        if hardness is None:
            raise RuntimeError("controller is not calibrated; call fit() first")
        idx = easy_count(self.config.effective_x, len(hardness))
        return float("inf") if idx >= len(hardness) else hardness[idx]

    def gate_input(self, problem):
        """What the gate reads of a problem, whatever x is: the seeded coin
        draw for the random variant, else the hardness of (start, goal)."""
        if self.config.variant == "random":
            return random.Random(f"{self.config.seed}:{problem.problem_id}").random()
        return hardness_fn(self.config.selector, problem)(problem.start, problem.goal)

    def shape(self, gate, states):
        """The gate rule: the shape of a problem's meta-plan, SYS1
        (fast-only), SYS2 (one Sys2 sub-goal) or the length of the Sys2
        window over its skeleton, from the problem's two inputs. gate()
        gives its gate input and states() its skeleton; the rule calls each
        only when it reads it, so x at 0 or 1 reads no gate input and only a
        problem gated hard under a window variant reads its skeleton."""
        config, x = self.config, self.config.effective_x
        if x <= 0.0:
            return SYS1
        if x < 1.0:
            g = gate()
            if not (g < x if config.variant == "random" else g >= self.threshold):
                return SYS1
        if config.variant in ("no-subgoal", "random"):
            return SYS2
        states = states()
        if states is None or len(states) < 2:
            return SYS2
        return window_length(x, len(states) - 1)

    def decompose(self, problem, shape=None, states=None):
        """The problem's meta-plan, of the shape the gate rule gives it (or
        gave it, when passed). states(), passed with the shape, gives the
        states a window is placed over: the problem's skeleton at run time,
        or its gold plan's states for the controller dataset. When no shape
        is passed, the rule reads a ProblemRecord of the problem, whose
        skeleton, computed on first read, serves the rule and the window
        alike."""
        if shape is None:
            record = ProblemRecord(problem, self.gate_input)
            shape, states = self.shape(record.gate, record.skeleton), record.skeleton
        if shape in (SYS1, SYS2):  # one sub-goal, for which no hardness is read
            return meta_plan((problem.start, problem.goal), shape, None, None)
        return meta_plan(states(), shape, self.config.variant,
                         hardness_fn(self.config.selector, problem))
