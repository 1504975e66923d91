"""Seeded inputs of the benchmark workloads.

Everything the program is given is drawn here from the benchmark's
``--seed`` alone, before the first call into the program, so the same
seed yields the same arrays (and fingerprint) on every machine.
"""

from __future__ import annotations

import numpy as np

#: Corpus full-size geo topology: 24 regions x 10 edge clouds, one PoP
#: per region, k = 1 (``repro.scenarios.catalog.SIZE_PARAMS["full"]``).
N_REGIONS = 24
EDGES_PER_REGION = 10

#: Wikipedia-like traces per paper-k2 run.  The Newton work of a slot
#: depends on the trace's noise draw, so one draw per run would make the
#: run's figures mostly a property of the seed.
PAPER_TRACES = 3

#: Flat per-unit link price (the Table-II tier of a 200 GB link).
LINK_PRICE = 0.05


def corpus_demand_and_prices(seed: int, horizon: int) -> "dict[str, np.ndarray]":
    """Time-zone-shifted diurnal load with flash crowds and price spikes.

    Each region gets a continental UTC offset; its edge clouds peak at
    14:00 local time with a per-cloud volume factor and 5 % hourly
    noise.  Flash crowds triple a region's demand along a 6-12 h
    triangular ramp; price spikes multiply one PoP's electricity price
    by 8 for 4 h.  Capacities are provisioned from the true peaks, so
    every slot stays feasible.
    """
    rng = np.random.default_rng(seed)
    n_edges = N_REGIONS * EDGES_PER_REGION
    region = np.arange(n_edges) // EDGES_PER_REGION
    hours = np.arange(horizon)

    utc = rng.integers(-8, -4, size=N_REGIONS)
    peak_hour = (14 - utc) % 24
    volume = np.exp(rng.normal(0.0, 0.2, size=n_edges))
    phase = 2 * np.pi * (hours[:, None] - peak_hour[region][None, :]) / 24
    workload = volume * (1.0 + 0.4 * np.cos(phase))
    workload *= rng.lognormal(0.0, 0.05, size=(horizon, n_edges))

    for _ in range(max(horizon // 200, 1)):
        r = rng.integers(N_REGIONS)
        length = int(rng.integers(6, 13))
        start = int(rng.integers(0, max(horizon - length, 1)))
        ramp = 1.0 + 2.0 * (1.0 - np.abs(np.linspace(-1.0, 1.0, length)))
        stop = min(start + length, horizon)
        workload[start:stop, region == r] *= ramp[: stop - start, None]

    pop_phase = 2 * np.pi * (hours[:, None] - peak_hour[None, :]) / 24
    base = rng.uniform(30.0, 60.0, size=N_REGIONS)
    tier2_price = base * (1.0 + 0.3 * np.cos(pop_phase))
    tier2_price *= rng.lognormal(0.0, 0.1, size=(horizon, N_REGIONS))
    for _ in range(max(horizon // 150, 1)):
        r = rng.integers(N_REGIONS)
        start = int(rng.integers(0, max(horizon - 4, 1)))
        tier2_price[start : start + 4, r] *= 8.0

    link_price = np.full((horizon, n_edges), LINK_PRICE)
    return {
        "workload": workload,
        "tier2_price": tier2_price,
        "link_price": link_price,
    }


def paper_trace(seed: int, horizon: int) -> "dict[str, np.ndarray]":
    """The paper's Wikipedia-like hourly trace (Fig. 4a regime).

    ``PAPER_TRACES`` independent draws, shape ``(PAPER_TRACES, horizon)``;
    episode ``k`` of a run serves draw ``k mod PAPER_TRACES``.
    """
    from repro.util.rng import spawn_generators
    from repro.workloads.wikipedia import WikipediaLikeWorkload

    return {"trace": np.stack([
        WikipediaLikeWorkload(horizon=horizon, seed=rng).generate()
        for rng in spawn_generators(seed, PAPER_TRACES)
    ])}


def variants(workload: str) -> int:
    """Distinct input draws a run of ``workload`` cycles through."""
    return PAPER_TRACES if workload == "paper-k2" else 1


def generate(workload: str, seed: int, horizon: int) -> "dict[str, np.ndarray]":
    """The named workload's input arrays for ``seed``."""
    if workload == "paper-k2":
        return paper_trace(seed, horizon)
    return corpus_demand_and_prices(seed, horizon)


def fingerprint(arrays: "dict[str, np.ndarray]") -> str:
    """SHA-256 of the generated arrays (``repro.util.digest``)."""
    from repro.util.digest import array_digest

    return array_digest(sorted(arrays.items()))
