"""Span tracer for the hybridplan package, installed from outside it.

`Tracer.install()` replaces every public function of the package modules,
wherever a module binds it (its own namespace, another module's
`from ... import`, or a dispatch dict such as `search.ENGINES`), with a
wrapper that records a span and counts the call. `uninstall()` puts the
originals back. No file under `src/` is touched.

A span's self time is its duration minus the time covered by its child
spans, so the self times of all operations add up to the time spent
inside the outermost wrapped call (`cli.main`).
"""

from __future__ import annotations

import json
import math
import os
import time
import types

LAYERS = ("domains", "search", "generators", "hardness", "controller",
          "hybrid", "evaluate", "textio", "cli")

# The domain step functions form one operation: `step` dispatches to them.
GROUPS = {"domains.maze_step": "domains.step", "domains.blocks_step": "domains.step"}

# Called once per probe, state or token: counted and timed, but no span is
# kept for them, which would take gigabytes on the blocks workloads.
HOT = {
    "domains.step", "domains.valid_actions", "domains.candidate_actions",
    "domains.canonical_blocks", "domains.validate_plan", "domains.plan_states",
    "search.manhattan", "search.blocks_mismatch", "search.heuristic_for",
    "hardness.hardness", "hardness.hardness_fn", "hardness.blocks_distance",
    "hardness.obstacle_count", "hardness.default_selector",
    "controller.window_length", "generators.random_blocks_state",
    "textio.render_state", "textio.parse_state", "textio.render_action",
    "textio.parse_action", "textio.verbalize_plan", "textio.parse_plan_text",
    "textio.problem_to_json", "textio.problem_from_json", "textio.problem_input_text",
}

# Operations whose individual durations are kept for percentiles.
TIMED = ("search.astar", "search.bfs", "search.dfs", "hybrid.solve_hybrid")

# Classes whose public methods are entry points into their layer.
CLASSES = ("HybridController",)

ENGINES = ("astar", "bfs", "dfs")
MAX_SPANS = 200_000


class Op:
    __slots__ = ("name", "layer", "calls", "entries", "self_s", "hot", "durations")

    def __init__(self, name):
        self.name = name
        self.layer = name.split(".", 1)[0]
        self.calls = 0
        self.entries = 0  # calls made from outside the op's layer
        self.self_s = 0.0
        self.hot = name in HOT
        self.durations = [] if name in TIMED else None


class Tracer:
    def __init__(self):
        self.ops = {}
        self.stack = []  # open frames: [op, start, child_s, span_id, token]
        self.spans = []  # (trace_id, span_id, parent_id, op name, start, end)
        self.spans_dropped = 0
        self.trace_id = 0
        self._next_span = 0
        self._saved = []
        self.counters = dict.fromkeys((
            "step_legal", "engine_events", "engine_probes", "trunc_kept",
            "trunc_searched", "hybrid_se", "hybrid_sys2_se", "accepted",
            "bytes_written"), 0)
        # distinct inputs per pass (the pass index is the trace id)
        self.decompose_keys = set()
        self.solve_keys = set()
        self._hooks = {
            "domains.step": (None, self._after_step),
            "search.truncate_run": (None, self._after_truncate),
            "hybrid.solve_hybrid": (None, self._after_hybrid),
            "controller.HybridController.decompose": (None, self._after_decompose),
            "evaluate.solve_one": (None, self._after_solve_one),
            "generators.generate_blocks_dataset": (None, self._after_generate),
            "textio.write_jsonl_atomic": (None, self._after_write),
        }
        for engine in ENGINES:
            self._hooks[f"search.{engine}"] = (self._before_engine, self._after_engine)

    def op(self, name):
        name = GROUPS.get(name, name)
        op = self.ops.get(name)
        if op is None:
            op = self.ops[name] = Op(name)
        return op

    # ------------------------------------------------------------ hooks

    def _after_step(self, token, args, kwargs, result):
        if result[0] is not None:
            self.counters["step_legal"] += 1

    def _before_engine(self):
        return self.op("domains.step").calls

    def _after_engine(self, token, args, kwargs, result):
        self.counters["engine_events"] += len(result.events)
        self.counters["engine_probes"] += self.op("domains.step").calls - token

    def _after_truncate(self, token, args, kwargs, result):
        self.counters["trunc_kept"] += len(result.events)
        self.counters["trunc_searched"] += len(args[0].events)

    def _after_hybrid(self, token, args, kwargs, result):
        self.counters["hybrid_se"] += result.states_explored
        self.counters["hybrid_sys2_se"] += sum(
            o.states_explored for o in result.outcomes if o.mode == "sys2")

    def _after_decompose(self, token, args, kwargs, result):
        controller, problem = args[0], args[1]
        self.decompose_keys.add((self.trace_id, problem.problem_id, controller.config.effective_x))

    def _after_solve_one(self, token, args, kwargs, result):
        problem, config = args[0], args[1]
        x = config.controller.config.effective_x if config.controller is not None else None
        self.solve_keys.add((self.trace_id, problem.problem_id, config.kind, config.engine, x))

    def _after_generate(self, token, args, kwargs, result):
        self.counters["accepted"] += sum(len(v) for v in result.values())

    def _after_write(self, token, args, kwargs, result):
        path = args[0] if args else kwargs["path"]
        self.counters["bytes_written"] += os.path.getsize(path)

    # ------------------------------------------------------------ wrapping

    def _wrap(self, op, fn):
        stack, spans, ops_hook = self.stack, self.spans, self._hooks.get(op.name)
        before, after = ops_hook if ops_hook else (None, None)
        durations = op.durations
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            if stack and stack[-1][0] is op:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else None
            if parent is None or parent[0].layer != op.layer:
                op.entries += 1
            if op.hot:
                span_id = parent[3] if parent else None
            else:
                span_id = tracer._next_span
                tracer._next_span += 1
            frame = [op, 0.0, 0.0, span_id, before() if before else None]
            stack.append(frame)
            start = frame[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                op.calls += 1
                op.self_s += duration - frame[2]
                if parent is not None:
                    parent[2] += duration
                if durations is not None:
                    durations.append(duration)
                if not op.hot:
                    if len(spans) < MAX_SPANS:
                        spans.append((tracer.trace_id, span_id,
                                      parent[3] if parent else None, op.name, start, end))
                    else:
                        tracer.spans_dropped += 1
            if after is not None:
                after(frame[4], args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__module__ = fn.__module__
        return traced

    def install(self, package):
        """Wrap the public functions of every layer module of `package`."""
        modules = [getattr(package, name) for name in LAYERS]
        wrappers = {}

        def wrapped(fn, qualname):
            key = id(fn)
            if key not in wrappers:
                layer = fn.__module__.rsplit(".", 1)[-1]
                wrappers[key] = self._wrap(self.op(f"{layer}.{qualname}"), fn)
            return wrappers[key]

        def ours(obj):
            return (isinstance(obj, types.FunctionType)
                    and obj.__module__.startswith(package.__name__ + ".")
                    and not obj.__name__.startswith("_"))

        for module in modules:
            for name, obj in list(vars(module).items()):
                if name.startswith("_"):
                    continue
                if ours(obj):
                    self._set(module, name, wrapped(obj, obj.__name__))
                elif isinstance(obj, dict) and obj and all(ours(v) for v in obj.values()):
                    self._set(module, name, {k: wrapped(v, v.__name__) for k, v in obj.items()})
                elif isinstance(obj, type) and obj.__module__ == module.__name__ and name in CLASSES:
                    for attr, fn in list(vars(obj).items()):
                        if ours(fn):
                            self._set(obj, attr, wrapped(fn, f"{name}.{attr}"))
        return self

    def _set(self, owner, name, value):
        self._saved.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def uninstall(self):
        for owner, name, value in reversed(self._saved):
            setattr(owner, name, value)
        self._saved.clear()

    # ------------------------------------------------------------ reporting

    def layer_self_s(self, layer):
        return sum(op.self_s for op in self.ops.values() if op.layer == layer)

    def total_self_s(self):
        return sum(op.self_s for op in self.ops.values())

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for trace_id, span_id, parent, name, start, end in self.spans:
                fh.write(json.dumps({"trace": trace_id, "id": span_id, "parent": parent,
                                     "name": name, "start": start, "end": end}) + "\n")


def percentile(values, q):
    """Nearest-rank percentile; 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def ratio(num, den):
    return num / den if den else 0.0


# (metric name, unit); per-pass values for counts and seconds
LAYER_METRICS = [
    ("domains.step.calls", "count"), ("domains.step.self_s", "s"),
    ("domains.step.valid_ratio", "ratio"),
    ("domains.valid_actions.calls", "count"), ("domains.valid_actions.self_s", "s"),
    *[(f"search.{e}.{m}", u) for e in ENGINES
      for m, u in (("calls", "count"), ("self_s", "s"), ("ms.p50", "ms"), ("ms.p99", "ms"))],
    ("search.recorded_ratio", "ratio"), ("search.truncate.kept_ratio", "ratio"),
    ("hybrid.solve_hybrid.calls", "count"), ("hybrid.solve_hybrid.self_s", "s"),
    ("hybrid.solve_hybrid.ms.p50", "ms"), ("hybrid.solve_hybrid.ms.p99", "ms"),
    ("hybrid.greedy_plan.self_s", "s"), ("hybrid.sys2_se_share", "ratio"),
    ("controller.decompose.calls", "count"), ("controller.decompose.self_s", "s"),
    ("controller.decompose.distinct_ratio", "ratio"),
    ("controller.build_controller_dataset.self_s", "s"),
    ("hardness.calls", "count"), ("hardness.self_s", "s"),
    ("evaluate.run_planner.calls", "count"), ("evaluate.solve_one.calls", "count"),
    ("evaluate.solve_one.distinct_ratio", "ratio"), ("evaluate.match_budget_cap.self_s", "s"),
    ("generators.blocks_optimal_plan.calls", "count"),
    ("generators.blocks_optimal_plan.self_s", "s"), ("generators.accept_ratio", "ratio"),
    ("textio.verbalize_trace.self_s", "s"), ("textio.trace_mirror.self_s", "s"),
    ("textio.parse_trace_text.self_s", "s"),
    ("textio.write_jsonl_atomic.self_s", "s"), ("textio.bytes_written", "bytes"),
    ("textio.load_problems.self_s", "s"),
    ("cli.self_s", "s"),
    *[(f"{layer}.layer_self_s", "s") for layer in LAYERS if layer not in ("hardness", "cli")],
    ("trace.overhead", "ratio"), ("trace.accounted_share", "ratio"),
]


def layer_metrics(tracer, passes):
    """Per-layer metrics of a traced run; counts and times are per pass."""
    ops, c = tracer.ops, tracer.counters

    def op(name):
        return ops.get(name) or Op(name)

    def per_pass(value):
        return value / passes

    step = op("domains.step")
    decompose = op("controller.HybridController.decompose")
    solve_one = op("evaluate.solve_one")
    out = {
        "domains.step.calls": per_pass(step.calls),
        "domains.step.self_s": per_pass(step.self_s),
        "domains.step.valid_ratio": ratio(c["step_legal"], step.calls),
        "domains.valid_actions.calls": per_pass(op("domains.valid_actions").calls),
        "domains.valid_actions.self_s": per_pass(op("domains.valid_actions").self_s),
        "search.recorded_ratio": ratio(c["engine_events"], c["engine_probes"]),
        "search.truncate.kept_ratio": ratio(c["trunc_kept"], c["trunc_searched"]),
        "hybrid.greedy_plan.self_s": per_pass(op("hybrid.greedy_plan").self_s),
        "hybrid.sys2_se_share": ratio(c["hybrid_sys2_se"], c["hybrid_se"]),
        "controller.decompose.calls": per_pass(decompose.calls),
        "controller.decompose.self_s": per_pass(decompose.self_s),
        "controller.decompose.distinct_ratio": ratio(len(tracer.decompose_keys), decompose.calls),
        "controller.build_controller_dataset.self_s":
            per_pass(op("controller.build_controller_dataset").self_s),
        "hardness.calls": per_pass(sum(o.entries for o in ops.values() if o.layer == "hardness")),
        "hardness.self_s": per_pass(tracer.layer_self_s("hardness")),
        "evaluate.run_planner.calls": per_pass(op("evaluate.run_planner").calls),
        "evaluate.solve_one.calls": per_pass(solve_one.calls),
        "evaluate.solve_one.distinct_ratio": ratio(len(tracer.solve_keys), solve_one.calls),
        "evaluate.match_budget_cap.self_s": per_pass(op("evaluate.match_budget_cap").self_s),
        "generators.blocks_optimal_plan.calls": per_pass(op("generators.blocks_optimal_plan").calls),
        "generators.blocks_optimal_plan.self_s": per_pass(op("generators.blocks_optimal_plan").self_s),
        # two random states make one sampled (start, goal) pair
        "generators.accept_ratio": ratio(c["accepted"], op("generators.random_blocks_state").calls / 2),
        "textio.verbalize_trace.self_s": per_pass(op("textio.verbalize_trace").self_s),
        "textio.trace_mirror.self_s": per_pass(op("textio.trace_mirror").self_s),
        "textio.parse_trace_text.self_s": per_pass(op("textio.parse_trace_text").self_s),
        "textio.write_jsonl_atomic.self_s": per_pass(op("textio.write_jsonl_atomic").self_s),
        "textio.bytes_written": per_pass(c["bytes_written"]),
        "textio.load_problems.self_s": per_pass(op("textio.load_problems").self_s),
        "cli.self_s": per_pass(tracer.layer_self_s("cli")),
    }
    for name in ("search.astar", "search.bfs", "search.dfs", "hybrid.solve_hybrid"):
        o = op(name)
        out[f"{name}.calls"] = per_pass(o.calls)
        out[f"{name}.self_s"] = per_pass(o.self_s)
        out[f"{name}.ms.p50"] = 1000 * percentile(o.durations, 0.50)
        out[f"{name}.ms.p99"] = 1000 * percentile(o.durations, 0.99)
    for layer in LAYERS:
        if layer not in ("hardness", "cli"):
            out[f"{layer}.layer_self_s"] = per_pass(tracer.layer_self_s(layer))
    return out


# ---------------------------------------------------------------- engine matrix

MATRIX_FIELDS = (("events", "count"), ("probes", "count"),
                 ("recorded_ratio", "ratio"), ("self_s", "s"))
MATRIX_COMBOS = [(engine, domain, caps) for engine in ENGINES
                 for domain in ("maze", "blocks") for caps in ("nocaps", "caps")]
MATRIX_METRICS = [(f"matrix.{e}.{d}.{c}.{field}", unit)
                  for e, d, c in MATRIX_COMBOS for field, unit in MATRIX_FIELDS]
MATRIX_METRICS.append(("matrix.failed", "count"))


def engine_matrix(package, instances, seed):
    """Run {astar, bfs, dfs} x {maze, blocks} x {caps off, caps 3/2} over
    small instances under a fresh tracer each. Returns (metrics, rows);
    a combination that raises is reported by its exception name."""
    search = package.search
    metrics, rows, failed = {}, [], 0
    for engine, domain, caps in MATRIX_COMBOS:
        config = search.TraceConfig(seed=seed, **(
            {"valid_cap": 3, "invalid_cap": 2} if caps == "caps" else {}))
        tracer = Tracer().install(package)
        errors = []
        try:
            for problem in instances[domain]:
                try:
                    search.run_engine(engine, problem, config)
                except Exception as exc:  # reported per combination below
                    errors.append(type(exc).__name__)
        finally:
            tracer.uninstall()
        c = tracer.counters
        key = f"matrix.{engine}.{domain}.{caps}"
        metrics[f"{key}.events"] = c["engine_events"]
        metrics[f"{key}.probes"] = c["engine_probes"]
        metrics[f"{key}.recorded_ratio"] = ratio(c["engine_events"], c["engine_probes"])
        metrics[f"{key}.self_s"] = tracer.ops[f"search.{engine}"].self_s
        failed += bool(errors)
        rows.append((engine, domain, caps, len(instances[domain]), len(errors),
                     errors[0] if errors else None, metrics[f"{key}.events"],
                     metrics[f"{key}.probes"], metrics[f"{key}.recorded_ratio"],
                     metrics[f"{key}.self_s"]))
    metrics["matrix.failed"] = failed
    return metrics, rows


PER_LAYER = LAYER_METRICS + MATRIX_METRICS
