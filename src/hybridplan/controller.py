"""Sub-goal decomposition: training-data construction and the runtime
controller.

Training side: rank problems by hardness, label the easiest (1-x)*N as
fast-planner-only, and decompose the rest with a sliding window that
places a contiguous x*n chunk of the gold plan under deliberate search,
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
from .hardness import default_selector, hardness_fn

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


def _decompose_states(states, x, hfn, placements=None):
    """Window optimizer over a state sequence s0..sn. placements limits
    the candidate (u, v) pairs; default is every contiguous placement."""
    if x <= 0:
        raise ValueError("x must be positive for a search window; x = 0 means fast-only")
    n = len(states) - 1
    if n < 1:
        raise ValueError("state sequence must contain at least one step")
    w = window_length(x, n)
    if placements is None:
        placements = [(u, u + w) for u in range(n - w + 1)]
    s0, sg = states[0], states[-1]
    best = None
    best_uv = None
    for u, v in placements:
        score = hfn(s0, states[u]) - hfn(states[u], states[v]) + hfn(states[v], sg)
        if best is None or score < best:
            best = score
            best_uv = (u, v)
    u, v = best_uv
    subgoals = []
    if u > 0:
        subgoals.append(SubGoal(s0, states[u], SYS1))
    subgoals.append(SubGoal(states[u], states[v], SYS2))
    if v < n:
        subgoals.append(SubGoal(states[v], sg, SYS1))
    return tuple(subgoals)


def sliding_window_decompose(problem, gold_plan, x, selector=None):
    selector = selector or default_selector(problem.domain)
    states = plan_states(problem, gold_plan)
    return _decompose_states(states, x, hardness_fn(selector, problem))


def _edge_window_states(states, x, hfn):
    """Window optimizer restricted to the placements at either end."""
    n = len(states) - 1
    w = window_length(x, n)
    placements = [(0, w)] + ([(n - w, n)] if n - w != 0 else [])
    return _decompose_states(states, x, hfn, placements)


def edge_window_decompose(problem, gold_plan, x, selector=None):
    """Ablation: the search window sits at the beginning or the end of the
    plan, never the middle, so at most two sub-goals result."""
    selector = selector or default_selector(problem.domain)
    states = plan_states(problem, gold_plan)
    return _edge_window_states(states, x, hardness_fn(selector, problem))


def build_controller_dataset(problems, config):
    """Label the floor((1-x)*N) easiest problems fast-only and decompose
    the rest. Returns [(problem, meta_plan)] in ranked order."""
    from .hardness import rank_problems

    if not problems:
        return []
    selector = config.selector or default_selector(problems[0].domain)
    ranked = rank_problems(problems, selector)
    n_easy = int((1.0 - config.x) * len(ranked))
    records = []
    for i, problem in enumerate(ranked):
        if problem.gold_plan is None:
            raise ValueError(f"problem {problem.problem_id!r} has no gold plan")
        if i < n_easy:
            meta = (SubGoal(problem.start, problem.goal, SYS1),)
        elif config.variant == "edge-window":
            meta = edge_window_decompose(problem, problem.gold_plan, config.x, selector)
        elif config.variant == "no-subgoal":
            meta = (SubGoal(problem.start, problem.goal, SYS2),)
        else:
            meta = sliding_window_decompose(problem, problem.gold_plan, config.x, selector)
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

    def _selector(self, problem):
        return self.config.selector or default_selector(problem.domain)

    def fit(self, problems):
        values = []
        for p in problems:
            hfn = hardness_fn(self._selector(p), p)
            values.append(hfn(p.start, p.goal))
        self._sorted_hardness = sorted(values)
        return self

    @property
    def calibration(self):
        return tuple(self._sorted_hardness) if self._sorted_hardness is not None else None

    def load_calibration(self, values):
        self._sorted_hardness = sorted(values)
        return self

    def threshold(self, effective_x=None):
        """Hardness cutoff: instances at or above it are gated hard."""
        if self._sorted_hardness is None:
            raise RuntimeError("controller is not calibrated; call fit() first")
        x = self.config.effective_x if effective_x is None else effective_x
        percentile = int((1.0 - x) * 100)
        idx = percentile * len(self._sorted_hardness) // 100
        if idx >= len(self._sorted_hardness):
            return float("inf")
        return self._sorted_hardness[idx]

    def _is_hard(self, problem):
        x = self.config.effective_x
        if self.config.variant == "random":
            rng = random.Random(f"{self.config.seed}:{problem.problem_id}")
            return rng.random() < x
        if x <= 0.0:
            return False
        if x >= 1.0:
            return True
        hfn = hardness_fn(self._selector(problem), problem)
        return hfn(problem.start, problem.goal) >= self.threshold()

    def decompose(self, problem, skeleton_of=None):
        """The problem's meta-plan. skeleton_of(problem) gives the skeleton
        when the caller keeps one per problem; default domains.skeleton."""
        if not self._is_hard(problem):
            return (SubGoal(problem.start, problem.goal, SYS1),)
        if self.config.variant in ("no-subgoal", "random"):
            return (SubGoal(problem.start, problem.goal, SYS2),)
        states = (skeleton_of or skeleton)(problem)
        if states is None or len(states) < 2:
            return (SubGoal(problem.start, problem.goal, SYS2),)
        x = max(self.config.effective_x, 1e-9)
        hfn = hardness_fn(self._selector(problem), problem)
        if self.config.variant == "edge-window":
            return _edge_window_states(states, x, hfn)
        return _decompose_states(states, x, hfn)
