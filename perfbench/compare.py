"""Compare two result sets (parent, then change) written by run.py.

One row per workload and end-to-end metric: both medians and quartiles,
the bound from BENCHMARK.json, and a verdict:

- worse: the change's median is worse than the parent's by more than the bound;
- better: the change's median is better by more than the distance between
  the parent's quartiles; a claimed metric must also win at least 9 in 10
  of the runs paired by seed (ties count for neither);
- within-bound: neither, with the parent's spread inside the bound;
- unresolved: the parent's spread is wider than the bound and not every
  change run reads better than every parent run.
"""

from __future__ import annotations

import json
import statistics


def load(path):
    runs = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            if rec["trace"] == 0:
                runs.setdefault(rec["workload"], []).append(rec)
    return runs


def quartiles(values, method="exclusive"):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method=method)
    return q1, med, q3


def verdict(parent, change, bound, lower_is_better, pairs=None):
    """parent, change: value lists; pairs: [(parent, change)] for a claim."""
    sign = 1 if lower_is_better else -1
    p_q1, p_med, p_q3 = quartiles(parent)
    _, c_med, _ = quartiles(change)
    worse_by = sign * (c_med - p_med) / p_med
    all_better = max(sign * v for v in change) < min(sign * v for v in parent)
    won = None
    if pairs is not None:
        won = sum(1 for p, c in pairs if sign * c < sign * p)
    if worse_by > bound:
        return "worse", won
    if (p_q3 - p_q1) / p_med > bound and not all_better:
        return "unresolved", won
    resolved_gain = -worse_by * p_med > (p_q3 - p_q1) or all_better
    if resolved_gain and (won is None or won >= 0.9 * len(pairs)):
        return "better", won
    return "within-bound", won


def main(paths, claims, benchmark_path):
    with open(benchmark_path, encoding="utf-8") as fh:
        metrics = json.load(fh)["end_to_end"]
    parent, change = load(paths[0]), load(paths[1])
    claimed = {tuple(c.split(":", 1)) for c in claims}
    print(f"{'workload':<13} {'metric':<19} {'unit':<5} {'parent median [q1, q3] n':<32} "
          f"{'change median [q1, q3] n':<32} {'change':>8} {'bound':>6}  verdict")
    for workload in sorted(set(parent) | set(change)):
        p_runs, c_runs = parent.get(workload, []), change.get(workload, [])
        if not p_runs or not c_runs:
            print(f"{workload:<13} missing in {'parent' if not p_runs else 'change'}")
            continue
        for m in metrics:
            name = m["name"]
            pv = [r["metrics"][name] for r in p_runs]
            cv = [r["metrics"][name] for r in c_runs]
            pairs = None
            if (workload, name) in claimed:
                by_seed = {r["seed"]: r["metrics"][name] for r in p_runs}
                pairs = [(by_seed[r["seed"]], r["metrics"][name]) for r in c_runs
                         if r["seed"] in by_seed]
            result, won = verdict(pv, cv, m["bound"], m["better"] == "lower", pairs)
            p_q1, p_med, p_q3 = quartiles(pv)
            c_q1, c_med, c_q3 = quartiles(cv)
            row = (f"{workload:<13} {name:<19} {m['unit']:<5} "
                   f"{f'{p_med:.4g} [{p_q1:.4g}, {p_q3:.4g}] {len(pv)}':<32} "
                   f"{f'{c_med:.4g} [{c_q1:.4g}, {c_q3:.4g}] {len(cv)}':<32} "
                   f"{100 * (c_med - p_med) / p_med:+7.1f}% {m['bound']:>6}  {result}")
            if pairs is not None:
                row += f" (claimed: won {won} of {len(pairs)} seed pairs, needs {0.9 * len(pairs):g})"
            print(row)
        p_failed = sum(r["failed"] for r in p_runs)
        c_failed = sum(r["failed"] for r in c_runs)
        if c_failed > p_failed:
            print(f"{workload:<13} more failed operations: {c_failed} against {p_failed}; "
                  "no gain on this workload counts")
    return 0
