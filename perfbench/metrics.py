"""Order statistics shared by the runner and the proving script."""

from __future__ import annotations

import statistics

TAIL_PERCENTILES = (99.9, 99.0, 90.0)
TAIL_BEYOND = 10


def nearest_rank(sorted_values, p: float):
    """Smallest sample with at least p percent of the samples at or below it."""
    tenths = round(p * 10)  # integer arithmetic: 0.9 * 100 is not exact
    k = max(1, -(-tenths * len(sorted_values) // 1000))
    return sorted_values[k - 1], len(sorted_values) - k


def tail(values) -> tuple[float, float, int]:
    """(value, percentile, sample count) at the highest percentile of
    TAIL_PERCENTILES that has at least TAIL_BEYOND samples beyond it.

    The ladder is the nines, so a run that fits a few more or fewer
    rounds keeps its percentile. Below 100 samples the median stands in.
    """
    ordered = sorted(values)
    for p in TAIL_PERCENTILES:
        value, beyond = nearest_rank(ordered, p)
        if beyond >= TAIL_BEYOND:
            return value, p, len(ordered)
    return nearest_rank(ordered, 50.0)[0], 50.0, len(ordered)


def quartile_spread(values) -> float:
    """Distance between first and third quartile, as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def job_times(times: dict[int, list[float]]):
    """(jobs_per_s, job_p50_s, tail) from each job's times over the rounds.

    The machine's speed drifts by tens of percent over seconds, so each
    job is represented by the median of its repetitions. A round then
    takes the sum of those medians, and the percentiles are taken over
    all timed jobs with each job at its median time.
    """
    typical = {i: statistics.median(ts) for i, ts in times.items() if ts}
    per_round = sum(typical.values())
    weighted = [typical[i] for i, ts in times.items() for _ in ts]
    return len(typical) / per_round, statistics.median(weighted), tail(weighted)
