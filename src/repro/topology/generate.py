"""Continent-scale geo topology generator.

The paper's evaluation lives on an 18x48 grid; the ROADMAP's north
star is serving heavy traffic over continent-scale networks.  This
module generates those: seeded city/PoP placement with real lat/lon,
hundreds of tier-1 edge clouds clustered around metro regions,
RTT-derived k-NN SLA subsets via :mod:`repro.topology.geo`, and
capacity/price provisioning through :mod:`repro.topology.capacity`
and :mod:`repro.pricing` — the same substrates the paper topology
uses, scaled up.

Placement model (the SIGMETRICS'25 CloudRouting PoP-map shape):

* ``n_regions`` metro regions.  The first 18 anchor on the AT&T-era
  IDC metros (:data:`repro.topology.sites.ATT_SITES`); additional
  regions draw seeded uniform positions inside the continental
  bounding box.
* Each region hosts ``pops_per_region`` tier-2 PoPs (region center
  plus a small seeded jitter) and ``tier1_per_region`` tier-1 edge
  clouds scattered around the center with a Gaussian radius of
  ``spread_km``.
* SLAs come from k-nearest-neighbour assignment on great-circle RTT.
  With ``regional_sla=True`` (the default) each edge cloud's k-NN is
  confined to its home region's PoPs, so SLA components never span
  regions: each region contributes between 1 and ``pops_per_region
  // k`` connected components — exactly one when ``k ==
  pops_per_region`` (in particular the corpus's single-PoP regions).
  P2(t) separates exactly along these components; at ``k == 1`` each
  is a star, and P2(t) is solved in closed form.

Everything is a pure function of :class:`GeoTopologyConfig` (the seed
included): two calls with equal configs produce bitwise-identical
placements, assignments and instances, which the scenario corpus pins
with golden SHA-256 fingerprints (see :mod:`repro.scenarios`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.model.instance import Instance
from repro.model.network import Cloud, CloudNetwork, SLAEdge, sla_components
from repro.pricing.bandwidth import bandwidth_price
from repro.pricing.electricity import ElectricityPriceModel
from repro.topology.capacity import provision_capacities
from repro.topology.geo import haversine_matrix, k_nearest
from repro.topology.sites import ATT_SITES
from repro.util.digest import array_digest
from repro.util.rng import as_generator
from repro.util.validation import check_nonnegative

#: Continental bounding box for regions beyond the 18 metro anchors.
_LAT_RANGE = (27.0, 47.0)
_LON_RANGE = (-122.0, -72.0)

#: Great-circle round-trip time per km of fiber path (~1 ms / 100 km:
#: light in fiber covers ~204 km one-way per ms, and real paths are
#: longer than the geodesic).
RTT_MS_PER_KM = 0.01

_KM_PER_DEG_LAT = 111.32


@dataclass(frozen=True)
class GeoTopologyConfig:
    """Sizing and seeding of a generated continent-scale topology.

    Parameters
    ----------
    n_regions:
        Metro regions; with ``regional_sla`` and ``k ==
        pops_per_region`` each is one SLA component.
    pops_per_region:
        Tier-2 PoPs per region (total tier-2 = regions x PoPs).
    tier1_per_region:
        Edge clouds per region (total tier-1 = regions x this).
    k:
        SLA size: each edge cloud may use its ``k`` RTT-closest PoPs.
        Must not exceed ``pops_per_region`` under ``regional_sla``.
    regional_sla:
        Confine each edge cloud's k-NN to its home region's PoPs, so
        SLA components never span regions (one per region when ``k ==
        pops_per_region``).  With ``False`` the k-NN is global and
        components may merge across regions.
    spread_km:
        Gaussian scatter radius of edge clouds around region centers.
    pop_jitter_km:
        Gaussian scatter of PoPs around region centers.
    headroom:
        Capacity provisioning multiplier (1.25 = peak at 80 %).
    recon_weight:
        Paper knob ``b``: reconfiguration price as a multiple of the
        resource's time-mean operating price.
    bandwidth_capacity_gb:
        Nominal per-link capacity for the Table-II price-tier lookup.
    market_share:
        Fraction of PoPs in an hourly real-time electricity market.
    seed:
        Single seed governing placement *and* default price synthesis.
    """

    n_regions: int = 12
    pops_per_region: int = 1
    tier1_per_region: int = 8
    k: int = 1
    regional_sla: bool = True
    spread_km: float = 150.0
    pop_jitter_km: float = 25.0
    headroom: float = 1.25
    recon_weight: float = 1e3
    bandwidth_capacity_gb: float = 200.0
    market_share: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_regions < 1:
            raise ValueError("n_regions must be >= 1")
        if self.pops_per_region < 1:
            raise ValueError("pops_per_region must be >= 1")
        if self.tier1_per_region < 1:
            raise ValueError("tier1_per_region must be >= 1")
        limit = (
            self.pops_per_region
            if self.regional_sla
            else self.n_regions * self.pops_per_region
        )
        if not (1 <= self.k <= limit):
            scope = "pops_per_region" if self.regional_sla else "total PoPs"
            raise ValueError(f"k must be in [1, {limit}] ({scope}), got {self.k}")
        if self.spread_km <= 0 or self.pop_jitter_km < 0:
            raise ValueError("spread_km must be > 0 and pop_jitter_km >= 0")
        if self.headroom <= 1.0:
            raise ValueError("headroom must exceed 1.0")
        if self.recon_weight < 0:
            raise ValueError("recon_weight must be >= 0")

    @property
    def n_tier2(self) -> int:
        return self.n_regions * self.pops_per_region

    @property
    def n_tier1(self) -> int:
        return self.n_regions * self.tier1_per_region


@dataclass
class GeneratedTopology:
    """A generated placement + SLA assignment, ready to build instances.

    Arrays are indexed globally: tier-2 PoP ``i = r * pops_per_region
    + p`` lives in region ``r``; tier-1 cloud ``j = r *
    tier1_per_region + e`` likewise.  ``assignment`` is the ``(J, k)``
    k-NN SLA assignment (global PoP indices, nearest first);
    ``distance_km``/``rtt_ms`` are the full ``(J, I)`` matrices.
    """

    config: GeoTopologyConfig
    region_lat: np.ndarray
    region_lon: np.ndarray
    tier2_lat: np.ndarray
    tier2_lon: np.ndarray
    tier2_region: np.ndarray
    tier1_lat: np.ndarray
    tier1_lon: np.ndarray
    tier1_region: np.ndarray
    distance_km: np.ndarray
    rtt_ms: np.ndarray
    assignment: np.ndarray

    # ------------------------------------------------------------------
    @property
    def n_tier2(self) -> int:
        return self.tier2_lat.shape[0]

    @property
    def n_tier1(self) -> int:
        return self.tier1_lat.shape[0]

    @property
    def n_regions(self) -> int:
        return self.region_lat.shape[0]

    def tier2_name(self, i: int) -> str:
        r, p = divmod(i, self.config.pops_per_region)
        return f"pop-r{r}-{p}"

    def tier1_name(self, j: int) -> str:
        r, e = divmod(j, self.config.tier1_per_region)
        return f"edge-r{r}-{e}"

    def sla_component_count(self) -> int:
        """Connected components of the SLA graph that carry tier-1 work.

        PoPs no edge cloud selected are isolated and not counted (they
        receive no allocation).  Under ``regional_sla`` with
        ``k == pops_per_region`` this equals ``n_regions``.
        """
        k = self.assignment.shape[1]
        _, roots_j = sla_components(
            self.n_tier2,
            self.n_tier1,
            self.assignment.ravel(),
            np.repeat(np.arange(self.n_tier1), k),
        )
        return int(np.unique(roots_j).size)

    # ------------------------------------------------------------------
    def build_instance(
        self,
        workload: np.ndarray,
        tier2_price: "np.ndarray | None" = None,
        link_price: "np.ndarray | None" = None,
        price_seed: "int | None" = None,
    ) -> Instance:
        """Provision capacities from the workload and build an instance.

        ``workload`` is ``(T, J)`` demand per edge cloud.  Tier-2
        operating prices default to the Table-I electricity model over
        the PoP locations (seeded by ``price_seed``, defaulting to the
        topology seed); link prices default to the flat Table-II
        bandwidth tier.  Pass overrides to model scenario shocks
        (price spikes, regional failures) — capacities always come
        from the *true* workload peaks, so shocked instances remain
        feasible.
        """
        cfg = self.config
        workload = check_nonnegative("workload", np.atleast_2d(workload))
        if workload.shape[1] != self.n_tier1:
            raise ValueError(
                f"workload has {workload.shape[1]} columns, "
                f"expected {self.n_tier1}"
            )
        T = workload.shape[0]
        k = self.assignment.shape[1]

        peaks = workload.max(axis=0)
        caps = provision_capacities(
            peaks, self.assignment, self.n_tier2, cfg.headroom
        )

        if tier2_price is None:
            elec = ElectricityPriceModel(market_share=cfg.market_share)
            seed = cfg.seed if price_seed is None else price_seed
            tier2_price = elec.series(
                list(zip(self.tier2_lat, self.tier2_lon)),
                T,
                seed=as_generator(seed),
            )
        tier2_price = np.asarray(tier2_price, dtype=float)
        if link_price is None:
            unit = float(bandwidth_price(cfg.bandwidth_capacity_gb))
            link_price = np.full((T, self.n_tier1 * k), unit)
        link_price = np.asarray(link_price, dtype=float)

        tier2_recon = cfg.recon_weight * tier2_price.mean(axis=0)
        link_recon = cfg.recon_weight * np.atleast_2d(link_price).mean(axis=0)

        tier2_clouds = [
            Cloud(
                self.tier2_name(i),
                float(caps.tier2[i]),
                float(tier2_recon[i]),
                (float(self.tier2_lat[i]), float(self.tier2_lon[i])),
            )
            for i in range(self.n_tier2)
        ]
        tier1_clouds = [
            Cloud(
                self.tier1_name(j),
                np.inf,
                0.0,
                (float(self.tier1_lat[j]), float(self.tier1_lon[j])),
            )
            for j in range(self.n_tier1)
        ]
        edges = [
            SLAEdge(
                tier2=int(self.assignment[j, m]),
                tier1=j,
                capacity=float(caps.edges[j * k + m]),
                recon_price=float(link_recon[j * k + m]),
            )
            for j in range(self.n_tier1)
            for m in range(k)
        ]
        network = CloudNetwork(tier2_clouds, tier1_clouds, edges)
        return Instance(network, workload, tier2_price, link_price)

    # ------------------------------------------------------------------
    def fingerprint(self) -> str:
        """SHA-256 over placement + assignment (the generator's output)."""
        return array_digest(
            [
                ("region_lat", self.region_lat),
                ("region_lon", self.region_lon),
                ("tier2_lat", self.tier2_lat),
                ("tier2_lon", self.tier2_lon),
                ("tier2_region", self.tier2_region),
                ("tier1_lat", self.tier1_lat),
                ("tier1_lon", self.tier1_lon),
                ("tier1_region", self.tier1_region),
                ("assignment", self.assignment),
            ]
        )

    def __repr__(self) -> str:
        return (
            f"GeneratedTopology(regions={self.n_regions}, "
            f"|I|={self.n_tier2}, |J|={self.n_tier1}, "
            f"k={self.assignment.shape[1]})"
        )


# ----------------------------------------------------------------------
def _scatter(
    rng: np.random.Generator,
    center_lat: np.ndarray,
    center_lon: np.ndarray,
    count: int,
    radius_km: float,
) -> "tuple[np.ndarray, np.ndarray]":
    """``count`` seeded points around each center, Gaussian in km.

    Returns flattened ``(n_centers * count,)`` lat/lon arrays, points
    grouped by center (center-major order).  Longitude displacement is
    corrected by the local latitude cosine so the scatter is isotropic
    in km, and latitudes are clipped to stay on the hemisphere.
    """
    n = center_lat.shape[0]
    d_north = rng.normal(0.0, radius_km, size=(n, count))
    d_east = rng.normal(0.0, radius_km, size=(n, count))
    lat = center_lat[:, None] + d_north / _KM_PER_DEG_LAT
    lat = np.clip(lat, -89.0, 89.0)
    lon = center_lon[:, None] + d_east / (
        _KM_PER_DEG_LAT * np.cos(np.radians(lat))
    )
    return lat.ravel(), lon.ravel()


def generate_topology(config: GeoTopologyConfig) -> GeneratedTopology:
    """Generate a seeded continent-scale placement + SLA assignment.

    A pure function of ``config``: the RNG draw order is fixed
    (region centers, then PoP jitter, then edge-cloud scatter), so
    equal configs yield bitwise-identical topologies.
    """
    rng = as_generator(config.seed)

    # Region centers: metro anchors first, seeded box draws beyond.
    n_anchor = min(config.n_regions, len(ATT_SITES))
    region_lat = np.array([s.lat for s in ATT_SITES[:n_anchor]], dtype=float)
    region_lon = np.array([s.lon for s in ATT_SITES[:n_anchor]], dtype=float)
    extra = config.n_regions - n_anchor
    if extra > 0:
        region_lat = np.concatenate(
            [region_lat, rng.uniform(*_LAT_RANGE, size=extra)]
        )
        region_lon = np.concatenate(
            [region_lon, rng.uniform(*_LON_RANGE, size=extra)]
        )

    tier2_lat, tier2_lon = _scatter(
        rng, region_lat, region_lon, config.pops_per_region, config.pop_jitter_km
    )
    tier2_region = np.repeat(
        np.arange(config.n_regions, dtype=np.intp), config.pops_per_region
    )
    tier1_lat, tier1_lon = _scatter(
        rng, region_lat, region_lon, config.tier1_per_region, config.spread_km
    )
    tier1_region = np.repeat(
        np.arange(config.n_regions, dtype=np.intp), config.tier1_per_region
    )

    distance_km = haversine_matrix(tier1_lat, tier1_lon, tier2_lat, tier2_lon)
    rtt_ms = distance_km * RTT_MS_PER_KM

    if config.regional_sla:
        # k-NN among the home region's PoPs only: sub-matrix columns are
        # ascending global indices, so k_nearest's stable tie rule maps
        # back to "smallest global PoP index wins" — same rule as the
        # global path.
        assignment = np.empty((config.n_tier1, config.k), dtype=np.intp)
        for r in range(config.n_regions):
            pops = np.flatnonzero(tier2_region == r)
            rows = np.flatnonzero(tier1_region == r)
            local = k_nearest(distance_km[np.ix_(rows, pops)], config.k)
            assignment[rows] = pops[local]
    else:
        assignment = k_nearest(distance_km, config.k)

    return GeneratedTopology(
        config=config,
        region_lat=region_lat,
        region_lon=region_lon,
        tier2_lat=tier2_lat,
        tier2_lon=tier2_lon,
        tier2_region=tier2_region,
        tier1_lat=tier1_lat,
        tier1_lon=tier1_lon,
        tier1_region=tier1_region,
        distance_km=distance_km,
        rtt_ms=rtt_ms,
        assignment=assignment,
    )
