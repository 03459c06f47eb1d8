"""Sub-goal decomposition: training-data construction and the runtime
controller.

Training side: rank problems by hardness, label the easiest (1-x)*N as
fast-planner-only, and decompose the rest with the window optimizer,
which places a contiguous x*n chunk of the gold plan under deliberate
search (anywhere, or at either end for the edge-window ablation),
minimizing h(s0, su) - h(su, sv) + h(sv, sg).

Runtime side: a deterministic controller calibrated on training-set
hardness. An instance is gated hard when its hardness reaches the
(1-x')-th percentile threshold; hard instances get a search-free skeleton
state sequence over which the same window optimizer runs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

from .domains import plan_states, skeleton
from .hardness import hardness_fn, rank_problems

SYS1 = "sys1"
SYS2 = "sys2"

VARIANTS = ("sliding-window", "edge-window", "no-subgoal", "random")


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

    @property
    def effective_x(self):
        return min(1.0, max(0.0, self.x + self.bias))


def window_length(x, n):
    return max(1, min(n, round(x * n)))


def decompose_states(states, x, variant, hfn):
    """The window optimizer over a state sequence s0..sn: a window of
    window_length(x, n) steps placed anywhere, or only at either end for
    the edge-window variant, at the (u, v) that minimizes
    h(s0, su) - h(su, sv) + h(sv, sn); the first placement wins ties. The
    window is the meta-plan's one Sys2 sub-goal; the stretches before and
    after it, when not empty, are Sys1 sub-goals."""
    if x <= 0:
        raise ValueError("x must be positive for a search window; x = 0 means fast-only")
    n = len(states) - 1
    if n < 1:
        raise ValueError("state sequence must contain at least one step")
    w = window_length(x, n)
    if variant == "edge-window":
        starts = (0, n - w) if n > w else (0,)
    else:
        starts = range(n - w + 1)
    s0, sg = states[0], states[-1]
    # min keeps the first of equal scores
    u = min(starts, key=lambda i: (hfn(s0, states[i]) - hfn(states[i], states[i + w])
                                   + hfn(states[i + w], sg)))
    v = u + w
    subgoals = []
    if u > 0:
        subgoals.append(SubGoal(s0, states[u], SYS1))
    subgoals.append(SubGoal(states[u], states[v], SYS2))
    if v < n:
        subgoals.append(SubGoal(states[v], sg, SYS1))
    return tuple(subgoals)


def build_controller_dataset(problems, config):
    """Label the floor((1-x)*N) easiest problems fast-only and decompose
    the gold plans of the rest. Returns [(problem, meta_plan)] in ranked
    order."""
    ranked = rank_problems(problems, config.selector)
    n_easy = int((1.0 - config.x) * len(ranked))
    records = []
    for i, problem in enumerate(ranked):
        if problem.gold_plan is None:
            raise ValueError(f"problem {problem.problem_id!r} has no gold plan")
        if i < n_easy:
            meta = (SubGoal(problem.start, problem.goal, SYS1),)
        elif config.variant == "no-subgoal":
            meta = (SubGoal(problem.start, problem.goal, SYS2),)
        else:
            meta = decompose_states(plan_states(problem, problem.gold_plan), config.x,
                                    config.variant, hardness_fn(config.selector, problem))
        records.append((problem, meta))
    return records


class HybridController:
    """Runtime gate + decomposer, calibrated once on a training set.

    fit() records the training hardness distribution; decompose() gates
    an instance hard when its hardness reaches the percentile threshold
    implied by the effective hybridization factor, then decomposes hard
    instances over a search-free skeleton.
    """

    def __init__(self, config=ControllerConfig()):
        self.config = config
        self._sorted_hardness = None

    def with_bias(self, bias):
        clone = HybridController(replace(self.config, bias=bias))
        clone._sorted_hardness = self._sorted_hardness
        return clone

    def fit(self, problems):
        self._sorted_hardness = sorted(hardness_fn(self.config.selector, p)(p.start, p.goal)
                                       for p in problems)
        return self

    def threshold(self):
        """Hardness cutoff: instances at or above it are gated hard."""
        if self._sorted_hardness is None:
            raise RuntimeError("controller is not calibrated; call fit() first")
        percentile = int((1.0 - self.config.effective_x) * 100)
        idx = percentile * len(self._sorted_hardness) // 100
        if idx >= len(self._sorted_hardness):
            return float("inf")
        return self._sorted_hardness[idx]

    def _is_hard(self, problem, hfn):
        x = self.config.effective_x
        if self.config.variant == "random":
            rng = random.Random(f"{self.config.seed}:{problem.problem_id}")
            return rng.random() < x
        if x <= 0.0:
            return False
        if x >= 1.0:
            return True
        return hfn(problem.start, problem.goal) >= self.threshold()

    def decompose(self, problem, skeleton_of=None):
        """The problem's meta-plan. skeleton_of(problem) gives the skeleton
        when the caller keeps one per problem; default domains.skeleton."""
        hfn = hardness_fn(self.config.selector, problem)
        if not self._is_hard(problem, hfn):
            return (SubGoal(problem.start, problem.goal, SYS1),)
        if self.config.variant in ("no-subgoal", "random"):
            return (SubGoal(problem.start, problem.goal, SYS2),)
        states = (skeleton_of or skeleton)(problem)
        if states is None or len(states) < 2:
            return (SubGoal(problem.start, problem.goal, SYS2),)
        return decompose_states(states, self.config.effective_x, self.config.variant, hfn)
