"""Reference implementations that the tests hold the package against."""

from collections import Counter
from dataclasses import replace

from hybridplan.search import reached_within


def truncate_run(run, cap):
    """Cut a run after `cap` recorded events. The plan survives only if the
    goal had been discovered within the first `cap` events."""
    if cap < 1:
        raise ValueError("cap must be >= 1")
    if cap >= len(run.events):
        return run
    reached = reached_within(run.events_at_goal, cap)
    return replace(
        run,
        events=run.events[:cap],
        plan=run.plan if reached else None,
        events_at_goal=run.events_at_goal if reached else None,
    )


def capped_totals(sizes):
    """totals[c] = sum(min(s, c) for s in sizes) for every c from 0 to
    max(sizes), as the running total total(c) = total(c - 1) + #{sizes >= c}."""
    at = Counter(sizes)
    reaching = len(sizes) - at[0]  # sizes >= 1
    totals = [0]
    for c in range(1, max(sizes) + 1):
        totals.append(totals[-1] + reaching)
        reaching -= at[c]
    return totals
