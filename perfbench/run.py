"""hybridplan benchmark.

Run one workload from the root of a checkout:

    python3 perfbench/run.py --workload maze-sweep --seed 1 --seconds 20 --trace 0

Workloads: maze-sweep, blocks-sweep, blocks-gen, corpus-emit (see
workloads.py and BENCHMARK.json for why each was chosen); `--workload all`
runs the four in turn, each in its own process. Each is a
closed loop: one client in one process, `--workers 1`, and a pass starts
only after the previous one ended. Passes repeat the same inputs until
`--seconds` have gone by.

`--trace 0` prints the end-to-end metrics, with every time scaled to the
reference host speed (see host_slowdown) and the raw figure beside it;
`--trace 1` runs one
untraced pass, then traced passes, then the engine matrix, and prints
the per-layer metrics. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}. The exit code is 1
when an output check failed, 2 when the sources are missing.

Every run appends its record to perfbench/out/results.jsonl. Compare two
such files (parent, then change):

    python3 perfbench/run.py --compare parent.jsonl change.jsonl [--claim WORKLOAD:METRIC]
"""

from __future__ import annotations

import argparse
import hashlib
import heapq
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
SETUP_REPS = 3
# reference_loop's time on an unloaded vCPU of the measuring host (Intel Xeon,
# 2.1 GHz, CPython 3.11.7)
REFERENCE_S = 0.020
# A pass slows by about this power of the reference loop's slowdown: the slope
# of log pass time on log slowdown was 0.50-0.56 within runs, and over sets of
# ten runs 0.6 left the smallest spread.
SLOWDOWN_EXPONENT = 0.6

END_TO_END_UNITS = {"setup_s": "s", "problems_per_s": "1/s", "cpu_ms_per_problem": "ms",
                    "peak_rss_mib": "MiB"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"))
    parser.add_argument("--claim", action="append", default=[], metavar="WORKLOAD:METRIC")
    args = parser.parse_args(argv)
    if not args.compare and (args.workload is None or args.seed is None or args.seconds is None):
        parser.error("--workload, --seed and --seconds are required")
    return args


def cpu_seconds():
    """CPU time of this process and of the child processes it waited for."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def reference_loop():
    """Fixed pure-Python work shaped like the planners' inner loops: tuples
    as dict keys, a heap and a sort."""
    seen, heap = {}, []
    for i in range(20000):
        state = (i % 97, i % 89, (i * 7) % 101)
        if state not in seen:
            seen[state] = i
        heapq.heappush(heap, (i % 13, i))
    sorted(seen.values())
    while heap:
        heapq.heappop(heap)


def host_slowdown():
    """How many times slower than on an unloaded host the workloads run
    right now: reference_loop's slowdown over REFERENCE_S (fastest of three
    timings) to the power SLOWDOWN_EXPONENT.

    The host is shared: the same work ran up to 2x slower for minutes at a
    time, in CPU time as much as in wall time. Dividing each timing by the
    slowdown measured just before and after it roughly halved the spread of
    a fixed workload timed in 20 s windows."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        reference_loop()
        times.append(time.perf_counter() - start)
    return (min(times) / REFERENCE_S) ** SLOWDOWN_EXPONENT


def code_digest():
    """sha256 over the package sources and the benchmark's own files."""
    digest = hashlib.sha256()
    for path in sorted([*(SRC / "hybridplan").glob("*.py"), *BENCH_DIR.glob("*.py"),
                        *(BENCH_DIR / "data").glob("*")]):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


class Run:
    """One benchmark run of one workload."""

    def __init__(self, workload_cls, seed):
        self.work = OUT / "work" / f"{workload_cls.name}-s{seed}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.workload = workload_cls(seed, str(self.work))
        self.attempted = 0
        self.failed = []  # (pass index, operation, reason)
        self.digests = {}  # operation -> {file: sha256} of its first pass

    def setup(self):
        """Set up SETUP_REPS times; returns [(seconds, host slowdown)]."""
        times, digests = [], []
        slowdown = host_slowdown()
        for rep in range(SETUP_REPS):
            rep_dir = self.work / f"setup-{rep}"
            rep_dir.mkdir()
            start = time.perf_counter()
            digests.append(self.workload.setup(str(rep_dir)))
            elapsed = time.perf_counter() - start
            after = host_slowdown()
            times.append((elapsed, (slowdown + after) / 2))
            slowdown = after
        if any(d != digests[0] for d in digests):
            self.failed.append((None, "setup", "inputs differ between set-ups of one seed"))
        for name in digests[0]:
            os.replace(self.work / "setup-0" / name, self.work / name)
        self.digests["inputs"] = digests[0]
        return times

    def one_pass(self, index, tracer=None, package=None):
        """Run every operation of one pass; returns (wall s, cpu s, host
        slowdown), the slowdown weighted by the time of each operation and
        measured just before and after it."""
        from workloads import sha256_file

        wall = cpu = scaled = 0.0
        slowdown = host_slowdown()
        for name, run in self.workload.operations():
            self.attempted += 1
            if tracer is not None:
                tracer.trace_id = index
                tracer.install(package)
            c0, t0 = cpu_seconds(), time.perf_counter()
            try:
                run()
                error = None
            except Exception as exc:  # a stage that raises is a failed operation
                error = f"{type(exc).__name__}: {exc}"
            finally:
                op_wall = time.perf_counter() - t0
                cpu += cpu_seconds() - c0
                if tracer is not None:
                    tracer.uninstall()
            after = host_slowdown()
            wall += op_wall
            scaled += op_wall / ((slowdown + after) / 2)
            slowdown = after
            if error is None:
                digests = {os.path.basename(p): sha256_file(p) for p in self.workload.outputs(name)}
                if self.digests.setdefault(name, digests) != digests:
                    error = "outputs differ from the first pass on the same inputs"
            if error is not None:
                self.failed.append((index, name, error))
        return wall, cpu, wall / scaled

    def loop(self, seconds, tracer=None, package=None, first_index=0):
        """Passes until `seconds` are up, at least one."""
        passes = []
        start = time.perf_counter()
        while not passes or time.perf_counter() - start < seconds:
            passes.append(self.one_pass(first_index + len(passes), tracer, package))
        return passes

    def check(self, passes):
        """Check the outputs once, after the timed passes. Every pass wrote
        the same bytes or already failed, so a failed check fails the
        operation in every pass."""
        from workloads import CheckFailed

        for name, _ in self.workload.operations():
            try:
                self.workload.check(name)
            except CheckFailed as exc:
                self.failed.extend((index, name, str(exc)) for index in passes)

    def compare_stored_digests(self):
        """Outputs of the same code and seed must match across runs."""
        path = OUT / "digests.json"
        store = json.loads(path.read_text()) if path.exists() else {}
        key = f"{code_digest()} {self.workload.name} {self.workload.seed}"
        previous = store.setdefault(key, self.digests)
        for name, digests in self.digests.items():
            if name in previous and previous[name] != digests:
                self.failed.append((None, name, "outputs differ from an earlier run of the same code"))
        path.write_text(json.dumps(store, indent=1, sort_keys=True))


def measure(args, workload_cls):
    import hybridplan
    import tracer as tr
    from compare import quartiles

    run = Run(workload_cls, args.seed)
    setup_times = run.setup()
    n = run.workload.problem_count
    lines = [f"perfbench {workload_cls.name} seed={args.seed} problems={n} "
             f"loop=closed clients=1 workers=1 trace={args.trace}"]
    record = {"workload": workload_cls.name, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "problems": n, "python": platform.python_version(),
              "nproc": os.cpu_count(), "code_sha256": code_digest()}
    if not args.trace:
        passes = run.loop(args.seconds)
        peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        run.check(range(len(passes)))
        # every time is taken at the reference host speed; raw figures beside it
        series = {
            "setup_s": ([t / s for t, s in setup_times], [t for t, _ in setup_times]),
            "problems_per_s": ([n * s / w for w, _, s in passes], [n / w for w, _, _ in passes]),
            "cpu_ms_per_problem": ([1000 * c / s / n for _, c, s in passes],
                                   [1000 * c / n for _, c, _ in passes]),
        }
        metrics = {name: statistics.median(scaled) for name, (scaled, _) in series.items()}
        metrics["peak_rss_mib"] = peak_rss
        units = {k: END_TO_END_UNITS[k] for k in metrics}
        record.update(passes=passes, setup_times=setup_times,
                      raw={name: statistics.median(raw) for name, (_, raw) in series.items()})
        slowdowns = [s for _, _, s in passes]
        lines.append(f"passes={len(passes)} set-ups={len(setup_times)} host slowdown "
                     f"{min(slowdowns):.3f}-{max(slowdowns):.3f} (reference loop {REFERENCE_S} s)")
        for name, (scaled, raw) in series.items():
            q1, med, q3 = quartiles(scaled, method="inclusive")
            lines.append(f"  {name:<20} {med:12.4f} {units[name]:<6} (median of {len(scaled)}, "
                         f"q1 {q1:.4f}, q3 {q3:.4f}; raw {statistics.median(raw):.4f}; "
                         f"problems={n})")
        lines.append(f"  {'peak_rss_mib':<20} {metrics['peak_rss_mib']:12.4f} MiB")
    else:
        (ref_wall, _, ref_slowdown), = run.loop(0)
        tracer = tr.Tracer()
        passes = run.loop(args.seconds, tracer, hybridplan, first_index=1)
        run.check(range(len(passes) + 1))
        traced_wall = sum(wall for wall, _, _ in passes)
        metrics = tr.layer_metrics(tracer, len(passes))
        metrics["trace.overhead"] = (len(passes) * ref_wall / ref_slowdown
                                     / sum(wall / s for wall, _, s in passes))
        metrics["trace.accounted_share"] = tracer.total_self_s() / traced_wall
        if not 0.9 <= metrics["trace.accounted_share"] <= 1.0 + 1e-9:
            run.failed.append((None, "trace", "layer self times do not account for the traced wall time"))
        spans_path = OUT / f"spans-{workload_cls.name}-s{args.seed}.jsonl"
        tracer.write_spans(spans_path)
        matrix, rows = tr.engine_matrix(hybridplan, matrix_instances(args.seed), args.seed)
        metrics.update(matrix)
        units = dict(tr.PER_LAYER)
        lines.append(f"untraced pass {ref_wall:.3f} s; {len(passes)} traced passes {traced_wall:.3f} s; "
                     f"overhead x{metrics['trace.overhead']:.3f}; self times account for "
                     f"{100 * metrics['trace.accounted_share']:.1f}% of traced wall time; "
                     f"{len(tracer.spans)} spans -> {spans_path.relative_to(ROOT)}"
                     + (f" ({tracer.spans_dropped} not kept)" if tracer.spans_dropped else ""))
        for name, unit in tr.LAYER_METRICS:
            lines.append(f"  {name:<45} {metrics[name]:14.6f} {unit}")
        lines.append("engine matrix (engine domain caps: instances, events, probes, recorded_ratio, self_s)")
        for engine, domain, caps, count, errors, error, events, probes, rec, self_s in rows:
            status = f"FAILED {error} on {errors}/{count}" if errors else "ok"
            lines.append(f"  {engine:<5} {domain:<6} {caps:<6} n={count:<3} events={events:<8} "
                         f"probes={probes:<8} recorded_ratio={rec:.4f} self_s={self_s:.4f} {status}")
    declared = declared_metrics(args.trace)
    if {k: units[k] for k in metrics} != declared:
        print("perfbench: metrics differ from those BENCHMARK.json declares", file=sys.stderr)
        return 2
    run.compare_stored_digests()
    for name, digests in run.digests.items():
        for file, digest in sorted(digests.items()):
            lines.append(f"digest {name} {file} {digest}")
    failed_ops = len({(index, name) for index, name, _ in run.failed})
    attempted = max(run.attempted, failed_ops, 1)
    lines.append(f"  {'error_rate':<20} {failed_ops / attempted:12.4f} ratio "
                 f"({failed_ops} failed of {attempted} operations)")
    for index, name, reason in run.failed:
        lines.append(f"FAILED pass={index} operation={name}: {reason}")
    correct = failed_ops == 0
    if correct:
        shutil.rmtree(run.work)  # the outputs live on as digests; a failed run keeps them
    record.update(correct=correct, attempted=attempted, failed=failed_ops,
                  error_rate=failed_ops / attempted, metrics=metrics,
                  digests=run.digests)
    with open(OUT / "results.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")
    print("\n".join(lines))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed_ops,
                      "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}))
    return 0 if correct else 1


def declared_metrics(trace):
    """{name: unit} of the metrics BENCHMARK.json declares for this mode."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def matrix_instances(seed):
    """Small instances on which uncapped BFS and DFS stay cheap."""
    from hybridplan import generators

    maze = generators.generate_maze_dataset(
        seed, generators.MazeDatasetConfig(split_sizes=(0, 0, 16)))["test"]
    blocks = generators.generate_blocks_dataset(
        seed, generators.BlocksDatasetConfig(max_blocks=5, split_sizes=(12, 0, 0)))["train"]
    return {"maze": maze, "blocks": blocks}


def main(argv=None):
    args = parse_args(argv)
    if args.compare:
        import compare
        return compare.main(args.compare, args.claim, ROOT / "BENCHMARK.json")
    if not (SRC / "hybridplan" / "__init__.py").is_file():
        print(f"perfbench: no hybridplan sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload == "all":
        # one process per workload, so that peak_rss_mib covers that workload only
        return max(subprocess.run([sys.executable, __file__, "--workload", name,
                                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                                   "--trace", str(args.trace)]).returncode
                   for name in WORKLOADS)
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)} or all",
              file=sys.stderr)
        return 2
    return measure(args, WORKLOADS[args.workload])


if __name__ == "__main__":
    sys.exit(main())
