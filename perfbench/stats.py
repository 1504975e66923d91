"""Pure helpers of the benchmark: percentiles, span self time, accounting.

Nothing here imports the program, so the helpers are testable on
their own (``perfbench/tests``).
"""

from __future__ import annotations

import math

import numpy as np

#: Percentiles the tail metric may sit at, lowest first.
TAIL_LADDER = (90.0, 95.0, 97.5, 98.0, 99.0, 99.5, 99.8, 99.9, 99.95, 99.99)

#: Samples that must lie beyond the reported tail percentile.
MIN_BEYOND = 10


def rank_of(q: float, n: int) -> int:
    """1-based nearest rank of percentile ``q`` among ``n`` samples."""
    return max(1, math.ceil(q / 100.0 * n - 1e-9))


def beyond(q: float, n: int) -> int:
    """Samples strictly above the nearest-rank ``q`` percentile."""
    return n - rank_of(q, n)


def choose_tail_percentile(n: int, ladder=TAIL_LADDER) -> "float | None":
    """Highest percentile of ``ladder`` with >= 10 of ``n`` samples beyond."""
    fit = [q for q in ladder if beyond(q, n) >= MIN_BEYOND]
    return max(fit) if fit else None


def tail_value(samples, q: float) -> float:
    """Nearest-rank ``q`` percentile; raises if < 10 samples lie beyond."""
    values = np.sort(np.asarray(samples, dtype=float))
    n = values.size
    if beyond(q, n) < MIN_BEYOND:
        raise ValueError(
            f"p{q:g} of {n} samples leaves {beyond(q, n)} beyond it "
            f"(need >= {MIN_BEYOND}); the run measured too few slots"
        )
    return float(values[rank_of(q, n) - 1])


def window_tails(latencies, window: int, q: float) -> "list[float]":
    """Percentile ``q`` of each consecutive ``window``-slot chunk.

    A trailing partial chunk is dropped, so every value rests on the
    same number of samples.
    """
    return [
        tail_value(latencies[k : k + window], q)
        for k in range(0, len(latencies) - window + 1, window)
    ]


def self_times(spans, lo: float = -math.inf, hi: float = math.inf) -> "dict[str, float]":
    """Self time per span name, counting only the part inside ``[lo, hi]``.

    ``spans`` are ``(name, start, end, parent, slot)`` records in call
    order, where ``parent`` indexes the enclosing span (-1 for a root).
    A span's self time is its duration minus the time its direct
    children cover; children run inside their parent's call, so they
    are disjoint, ordered sub-intervals.  Summed over names, the result
    is the time inside ``[lo, hi]`` that some span covers.
    """
    children: "list[list[int]]" = [[] for _ in spans]
    for idx, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(idx)

    def clipped(a: float, b: float) -> float:
        return max(0.0, min(b, hi) - max(a, lo))

    out: "dict[str, float]" = {}
    for idx, (name, start, end, _, _) in enumerate(spans):
        own, cursor = 0.0, start
        for child in children[idx]:
            own += clipped(cursor, spans[child][1])
            cursor = spans[child][2]
        own += clipped(cursor, end)
        out[name] = out.get(name, 0.0) + own
    return out


def lower_bound(workload, tier2_price, link_price, edge_i, edge_j) -> float:
    """Cheapest-route bound: sum_t sum_j lambda_jt min_{e in E_j}(a_i(e)t + c_et).

    The bound ``obs.health`` uses: every unit of tier-1 demand must
    cross some SLA edge and use its tier-2 cloud, so no feasible slot
    costs less, and the slot bounds sum to a bound on the offline
    optimum.  Arrays are ``(T, J)``, ``(T, I)`` and ``(T, E)`` (or one
    slot's 1-D rows).
    """
    workload = np.atleast_2d(np.asarray(workload, dtype=float))
    route = (np.atleast_2d(np.asarray(tier2_price, dtype=float))[:, edge_i]
             + np.atleast_2d(np.asarray(link_price, dtype=float)))
    cheapest = np.full(workload.shape, np.inf)
    for e, j in enumerate(edge_j):
        np.minimum(cheapest[:, j], route[:, e], out=cheapest[:, j])
    return float(np.sum(workload * cheapest, where=workload > 0))


def failed_slots(paths, served, feasible) -> int:
    """Slots not decided by the primary path, unserved, or infeasible."""
    return sum(
        1
        for path, ok_served, ok_feasible in zip(paths, served, feasible, strict=True)
        if path != "primary" or not ok_served or not ok_feasible
    )


def median(values) -> float:
    return float(np.median(np.asarray(values, dtype=float)))
