"""The built-in scenario corpus.

Six named scenarios over generated continent-scale topologies
(:mod:`repro.topology.generate`), each materializable at two sizes:

========== ======================= =======================
size       regions x edge clouds    horizon
========== ======================= =======================
``smoke``  4 x 3   (12 tier-1)      24 h
``full``   24 x 10 (240 tier-1)     48 h
========== ======================= =======================

* ``geo-diurnal`` — time-zone-shifted diurnal demand (the steady
  state);
* ``flash-crowd`` — a spike cascading east-to-west across regions on
  top of the diurnal base (Perez-Salazar et al.'s flash-crowd regime);
* ``regional-failure`` — one region's demand collapses and resurges
  onto the survivors while its local electricity price spikes
  (correlated failure);
* ``adversarial`` — repeated V-shaped ramps with expensive
  reconfiguration, the Thm 2/3 regime where greedy/FHC ratios blow up;
* ``price-spike`` — diurnal demand under an 8x electricity price
  shock in half the regions (price-driven rebalancing);
* ``ntier-continental`` — a 3-tier metro -> regional -> core
  hierarchy at continental scale (evaluation-only; >2 tiers).

All two-tier scenarios stay in the ``k = 1`` single-PoP-per-region
regime: the SLA graph is a star forest with one component per region,
which is exactly the class where the batched backend's closed forms
apply (docs/SOLVER_BACKENDS.md).  Every random draw flows through
``np.random.default_rng(seed)`` in a fixed order, so each
``(name, size, seed)`` triple reproduces its golden fingerprint.
"""

from __future__ import annotations

import numpy as np

from repro.scenarios.base import BuiltScenario, Scenario, register
from repro.topology.generate import (
    GeneratedTopology,
    GeoTopologyConfig,
    generate_topology,
)
from repro.workloads.synthetic import diurnal_profile

#: Per-size topology/horizon knobs shared by every two-tier scenario.
SIZE_PARAMS = {
    "smoke": {"n_regions": 4, "tier1_per_region": 3, "horizon": 24},
    "full": {"n_regions": 24, "tier1_per_region": 10, "horizon": 48},
}


def _geo(size: str, seed: int, **overrides) -> "tuple[GeneratedTopology, int]":
    """Generated topology + horizon for one size point."""
    params = SIZE_PARAMS[size]
    config = GeoTopologyConfig(
        n_regions=params["n_regions"],
        tier1_per_region=params["tier1_per_region"],
        pops_per_region=1,
        k=1,
        seed=seed,
        **overrides,
    )
    return generate_topology(config), params["horizon"]


def _diurnal_workload(
    topo: GeneratedTopology,
    horizon: int,
    rng: np.random.Generator,
    base: float = 1.0,
    amplitude: float = 0.4,
    jitter: float = 0.2,
) -> np.ndarray:
    """Time-zone-shifted diurnal demand per edge cloud.

    Each cloud's local peak stays at 14:00 local time: the profile's
    peak hour shifts with the cloud's longitude (15 degrees per hour).
    ``jitter`` adds a per-cloud lognormal volume factor.
    """
    scales = np.exp(rng.normal(0.0, jitter, size=topo.n_tier1))
    cols = []
    for j in range(topo.n_tier1):
        tz = int(np.round(topo.tier1_lon[j] / 15.0))  # hours vs UTC (negative)
        peak = (14 - tz) % 24
        cols.append(scales[j] * diurnal_profile(horizon, base, amplitude, 24, peak))
    return np.column_stack(cols)


def _region_order_west(topo: GeneratedTopology) -> np.ndarray:
    """Regions ordered east -> west (descending center longitude)."""
    return np.argsort(-topo.region_lon, kind="stable")


# ----------------------------------------------------------------------
# 1. geo-diurnal
# ----------------------------------------------------------------------
def _build_geo_diurnal(size: str, seed: int) -> BuiltScenario:
    topo, horizon = _geo(size, seed)
    rng = np.random.default_rng(seed + 1)
    workload = _diurnal_workload(topo, horizon, rng)
    return BuiltScenario(
        "geo-diurnal", size, seed,
        instance=topo.build_instance(workload), topology=topo,
        notes=["steady-state diurnal demand; local peak 14:00 in every region"],
    )


# ----------------------------------------------------------------------
# 2. flash-crowd
# ----------------------------------------------------------------------
def _build_flash_crowd(size: str, seed: int) -> BuiltScenario:
    topo, horizon = _geo(size, seed)
    rng = np.random.default_rng(seed + 1)
    workload = _diurnal_workload(topo, horizon, rng)
    # The crowd breaks out in the easternmost region at hour 6 and
    # cascades westward: each subsequent region spikes 2 h later at
    # 85 % of the previous height (viral decay).  Spikes rise
    # instantly and taper linearly over 3 h — the shape that defeats
    # prediction-based control.
    order = _region_order_west(topo)
    width, t0, height = 3, 6, 3.0
    taper = np.linspace(1.0, 0.0, width, endpoint=False)
    for rank, region in enumerate(order):
        start = t0 + 2 * rank
        if start >= horizon:
            break
        stop = min(start + width, horizon)
        clouds = np.flatnonzero(topo.tier1_region == region)
        bump = height * (0.85 ** rank) * taper[: stop - start]
        workload[start:stop, clouds] += bump[:, None]
    return BuiltScenario(
        "flash-crowd", size, seed,
        instance=topo.build_instance(workload), topology=topo,
        notes=["spike cascade east->west, 2 h lag, 0.85 decay per hop"],
    )


# ----------------------------------------------------------------------
# 3. regional-failure
# ----------------------------------------------------------------------
def _build_regional_failure(size: str, seed: int) -> BuiltScenario:
    topo, horizon = _geo(size, seed)
    rng = np.random.default_rng(seed + 1)
    workload = _diurnal_workload(topo, horizon, rng)
    # Region 0 (the first metro anchor) fails for 6 hours starting at
    # hour 8: its demand collapses to 10 % (clients fail over via
    # DNS/anycast) and the lost volume resurges uniformly onto every
    # surviving cloud.  Its local electricity market simultaneously
    # spikes 10x (the grid event that took the region down).
    failed = 0
    start, stop = 8, min(8 + 6, horizon)
    down = np.flatnonzero(topo.tier1_region == failed)
    up = np.flatnonzero(topo.tier1_region != failed)
    lost = 0.9 * workload[start:stop, down].sum(axis=1)
    workload[np.ix_(np.arange(start, stop), down)] *= 0.1
    workload[np.ix_(np.arange(start, stop), up)] += (
        lost / max(up.size, 1)
    )[:, None]

    # Default prices, then the failed region's PoP price shock.
    base = topo.build_instance(workload)
    tier2_price = base.tier2_price.copy()
    failed_pops = np.flatnonzero(topo.tier2_region == failed)
    tier2_price[np.ix_(np.arange(start, stop), failed_pops)] *= 10.0
    return BuiltScenario(
        "regional-failure", size, seed,
        instance=topo.build_instance(workload, tier2_price=tier2_price),
        topology=topo,
        notes=[f"region 0 down hours [{start},{stop}); 10x local price shock"],
    )


# ----------------------------------------------------------------------
# 4. adversarial
# ----------------------------------------------------------------------
def _build_adversarial(size: str, seed: int) -> BuiltScenario:
    # Thm 2/3 regime: repeated deep V-shaped ramps under expensive
    # reconfiguration (recon_weight 5e3 instead of 1e3).  Greedy and
    # FHC-style controllers pay the valley teardown every cycle; the
    # regularized online controller's ratio stays bounded.
    topo, horizon = _geo(size, seed, recon_weight=5e3)
    rng = np.random.default_rng(seed + 1)
    peak, valley, cycle = 1.8, 0.05, 12
    half = cycle // 2
    vee = np.concatenate(
        [np.linspace(peak, valley, half), np.linspace(valley, peak, half)]
    )
    profile = np.tile(vee, horizon // cycle + 1)[:horizon]
    jitter = 1.0 + 0.1 * rng.random((horizon, topo.n_tier1))
    workload = profile[:, None] * jitter
    return BuiltScenario(
        "adversarial", size, seed,
        instance=topo.build_instance(workload), topology=topo,
        notes=["repeated V-ramps, recon_weight 5e3 (Thm 2/3 stress shape)"],
    )


# ----------------------------------------------------------------------
# 5. price-spike
# ----------------------------------------------------------------------
def _build_price_spike(size: str, seed: int) -> BuiltScenario:
    topo, horizon = _geo(size, seed)
    rng = np.random.default_rng(seed + 1)
    workload = _diurnal_workload(topo, horizon, rng)
    base = topo.build_instance(workload)
    # An 8x electricity price spike hits the odd-indexed regions'
    # markets for 4 hours in the afternoon peak — the regime where
    # price-aware rebalancing pays and switching costs bite back.
    tier2_price = base.tier2_price.copy()
    start, stop = 13, min(13 + 4, horizon)
    shocked = np.flatnonzero(topo.tier2_region % 2 == 1)
    tier2_price[np.ix_(np.arange(start, stop), shocked)] *= 8.0
    return BuiltScenario(
        "price-spike", size, seed,
        instance=topo.build_instance(workload, tier2_price=tier2_price),
        topology=topo,
        notes=[f"8x price shock, odd regions, hours [{start},{stop})"],
    )


# ----------------------------------------------------------------------
# 6. ntier-continental (>2 tiers, evaluation-only)
# ----------------------------------------------------------------------
def _build_ntier_continental(size: str, seed: int) -> BuiltScenario:
    """3-tier metro -> regional -> core hierarchy on the geo placement.

    Edge clouds and regional nodes come from the same generated
    placement as the two-tier scenarios; a small core tier sits on
    top.  Each edge cloud links to its own and the next region's node
    (path diversity), each regional node to two cores.  Capacities
    are peak-provisioned bottom-up with the same 1.25 headroom rule.
    """
    from repro.model.network import Cloud
    from repro.ntier import LayeredNetwork, LayerLink, NTierInstance

    topo, horizon = _geo(size, seed)
    n_cores = 2 if size == "smoke" else 4
    rng = np.random.default_rng(seed + 1)
    workload = _diurnal_workload(topo, horizon, rng)
    peaks = workload.max(axis=0)
    R = topo.n_regions

    # Regional (mid) capacity: 1.25x the peaks it can be asked to
    # carry — its own region's plus the previous region's (which links
    # forward to it).
    region_peak = np.array(
        [peaks[topo.tier1_region == r].sum() for r in range(R)]
    )
    mid_cap = 1.25 * (region_peak + np.roll(region_peak, 1))
    core_cap = 1.25 * np.full(n_cores, 2.0 * region_peak.sum() / n_cores)

    edge = [Cloud(topo.tier1_name(j), np.inf) for j in range(topo.n_tier1)]
    mid = [
        Cloud(f"regional-{r}", float(mid_cap[r]), 60.0) for r in range(R)
    ]
    top = [Cloud(f"core-{u}", float(core_cap[u]), 90.0) for u in range(n_cores)]

    links = []
    for j in range(topo.n_tier1):
        r = int(topo.tier1_region[j])
        for u in {r, (r + 1) % R}:
            links.append(LayerLink(1, j, u, 1.25 * float(peaks[j]) + 1e-6, 40.0))
    for r in range(R):
        for v in {r % n_cores, (r + 1) % n_cores}:
            links.append(LayerLink(2, r, v, float(mid_cap[r]) + 1e-6, 40.0))
    net = LayeredNetwork([edge, mid, top], links)

    node_price = 0.05 * (1.0 + 0.3 * rng.random((horizon, net.n_upper_nodes)))
    link_price = 0.02 * np.ones((horizon, net.n_links))
    inst = NTierInstance(net, workload, node_price, link_price)
    return BuiltScenario(
        "ntier-continental", size, seed, ntier=inst, topology=topo,
        notes=[f"3-tier {topo.n_tier1}x{R}x{n_cores}; evaluation-only"],
    )


# ----------------------------------------------------------------------
register(Scenario(
    name="geo-diurnal",
    summary="time-zone-shifted diurnal demand on a continent-scale topology",
    details=(
        "Every edge cloud sees a sinusoidal day/night profile peaking at "
        "14:00 local time, with a per-cloud lognormal volume factor.  The "
        "steady-state baseline the other scenarios perturb; also the CI "
        "smoke scenario (golden fingerprint + full-size serve)."
    ),
    builder=_build_geo_diurnal,
    default_seed=11,
))
register(Scenario(
    name="flash-crowd",
    summary="spike cascade sweeping east-to-west across regions",
    details=(
        "Diurnal base plus a flash crowd breaking out in the easternmost "
        "region at hour 6 and hopping one region westward every 2 hours at "
        "85% of the previous height, each spike tapering over 3 hours.  "
        "The unpredictable-burst regime of Perez-Salazar et al."
    ),
    builder=_build_flash_crowd,
    default_seed=12,
))
register(Scenario(
    name="regional-failure",
    summary="correlated regional failure with load resurge + price shock",
    details=(
        "Region 0 fails for 6 hours: its demand drops to 10% and the lost "
        "volume resurges uniformly onto the surviving clouds while the "
        "failed region's electricity price spikes 10x.  Exercises "
        "correlated cross-region rebalancing under switching costs."
    ),
    builder=_build_regional_failure,
    default_seed=13,
))
register(Scenario(
    name="adversarial",
    summary="Thm 2/3-style repeated V-ramps with expensive reconfiguration",
    details=(
        "Deep V-shaped demand ramps repeating every 12 hours under a "
        "reconfiguration weight of 5e3.  The lower-bound construction "
        "regime of Theorems 2-3: greedy and FHC-style controllers pay the "
        "teardown every cycle while the regularized controller hedges."
    ),
    builder=_build_adversarial,
    default_seed=14,
))
register(Scenario(
    name="price-spike",
    summary="8x electricity price shock in half the regions",
    details=(
        "Diurnal demand with an 8x price spike hitting the odd-indexed "
        "regions' electricity markets for 4 afternoon hours.  The "
        "price-driven rebalancing regime: moving off the shocked PoPs "
        "saves operating cost but costs reconfiguration both ways."
    ),
    builder=_build_price_spike,
    default_seed=15,
))
register(Scenario(
    name="ntier-continental",
    summary="3-tier metro->regional->core hierarchy at continental scale",
    details=(
        "The N-tier (>2) generalization on the same geographic placement: "
        "edge clouds feed per-region regional nodes (with one-region "
        "failover links) which feed a small core tier.  Evaluation-only "
        "(the serve runtime drives the two-tier model)."
    ),
    builder=_build_ntier_continental,
    default_seed=16,
    serveable=False,
    tiers=3,
))
