"""Reference implementations that the tests hold the package against."""

from collections import Counter
from dataclasses import replace


def truncate_run(run, cap):
    """Cut a run after `cap` recorded events. A cut run has no plan: a
    search generates its goal in its last expansion, so a run that found
    its goal had recorded all its events by then."""
    if cap < 1:
        raise ValueError("cap must be >= 1")
    if cap >= len(run.events):
        return run
    return replace(run, events=run.events[:cap], plan=None)


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
