"""Order statistics and the comparison verdict used by the benchmark."""

from __future__ import annotations

import statistics

# choosing-metrics §1: a tail percentile needs at least this many samples beyond it.
TAIL_BEYOND = 10
# choosing-metrics §8: a gain needs this many pairs, this share of them won.
MIN_PAIRS = 10
WIN_SHARE = 0.9


def tail(values: list[float], beyond: int = TAIL_BEYOND) -> tuple[float, float, int]:
    """The highest nearest-rank percentile with at least ``beyond`` samples above it.

    Returns ``(value, percentile, sample count)``. The value has rank
    ``n - beyond`` in ascending order, so exactly ``beyond`` samples rank after
    it. With ``beyond`` samples or fewer no percentile qualifies, and the
    minimum is returned with its percentile ``100 / n``.
    """
    if not values:
        raise ValueError("tail of an empty sample")
    ordered = sorted(values)
    rank = max(1, len(ordered) - beyond)
    return ordered[rank - 1], 100.0 * rank / len(ordered), len(ordered)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile, as ``statistics.quantiles`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent: list[float], change: list[float], bound: float, better: str) -> str:
    """Classify a change against its parent on one metric and one workload.

    ``parent[i]`` and ``change[i]`` form pair i. The rules are those of
    choosing-metrics §6.5 and §8:

    - ``better``: at least 10 pairs, the change wins at least 9 in 10 of them
      (ties count for neither side), and the medians differ in its favour by
      more than the parent's interquartile spread;
    - ``worse``: the change's median is worse than the parent's by more than
      ``bound`` times the parent's median;
    - ``unresolved``: the parent's own spread is wider than that bound, and not
      every run of the change reads better than every run of the parent;
    - ``unchanged``: otherwise.
    """
    sign = 1.0 if better == "higher" else -1.0
    p_q1, p_med, p_q3 = quartiles(parent)
    c_med = statistics.median(change)
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    gain = sign * (c_med - p_med)
    if len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs) and gain > p_q3 - p_q1:
        return "better"
    if -gain > bound * abs(p_med):
        return "worse"
    if better == "higher":
        all_better = min(change) > max(parent)
    else:
        all_better = max(change) < min(parent)
    if p_q3 - p_q1 > bound * abs(p_med) and not all_better:
        return "unresolved"
    return "unchanged"
