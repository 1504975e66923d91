"""Two-tier cloud network topology (Section II-A of the paper).

A :class:`CloudNetwork` holds:

* tier-2 clouds ``i in I`` (Internet-core clouds) with capacity ``C_i``
  and reconfiguration price ``b_i``;
* tier-1 clouds ``j in J`` (edge clouds) with optional capacity
  ``C_j`` and reconfiguration price ``f_j`` (the paper's full model;
  the reduced problem P1 drops the tier-1 cost term ``F_1``);
* SLA edges ``(i, j)``: tier-1 cloud ``j`` may route its workload to
  tier-2 cloud ``i`` only if ``(i, j)`` is an edge.  Each edge carries
  a network capacity ``B_ij`` and a network reconfiguration price
  ``d_ij``.

All quantities are stored as dense NumPy arrays indexed by cloud index
or edge index; aggregation between edge space and cloud space uses
cached sparse incidence matrices so that per-slot algorithm steps are
fully vectorized.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np
import scipy.sparse as sp

from repro.util.validation import check_nonnegative, check_positive


@dataclass(frozen=True)
class Cloud:
    """A single cloud (either tier).

    Parameters
    ----------
    name:
        Human-readable identifier (unique within its tier).
    capacity:
        Resource capacity (``C_i`` for tier-2, ``C_j`` for tier-1).
        ``inf`` is allowed for effectively uncapacitated clouds.
    recon_price:
        Unit reconfiguration price (``b_i`` / ``f_j``), charged per
        unit of *increase* of the cloud's total allocation.
    location:
        Optional ``(latitude, longitude)`` used by the topology layer
        to build SLA subsets from geographic distance.
    """

    name: str
    capacity: float
    recon_price: float = 0.0
    location: tuple[float, float] | None = None

    def __post_init__(self) -> None:
        if not (self.capacity > 0):
            raise ValueError(f"cloud {self.name!r}: capacity must be > 0")
        if not (self.recon_price >= 0):
            raise ValueError(f"cloud {self.name!r}: recon_price must be >= 0")


@dataclass(frozen=True)
class SLAEdge:
    """An SLA-feasible (tier-2 cloud, tier-1 cloud) pair.

    Parameters
    ----------
    tier2, tier1:
        Integer indices into the network's tier-2 / tier-1 cloud lists.
    capacity:
        Network capacity ``B_ij`` between the two clouds.
    recon_price:
        Network reconfiguration price ``d_ij``.
    """

    tier2: int
    tier1: int
    capacity: float
    recon_price: float = 0.0

    def __post_init__(self) -> None:
        if not (self.capacity > 0):
            raise ValueError(f"edge ({self.tier2},{self.tier1}): capacity must be > 0")
        if not (self.recon_price >= 0):
            raise ValueError(f"edge ({self.tier2},{self.tier1}): recon_price must be >= 0")


class CloudNetwork:
    """Immutable two-tier cloud network with SLA edges.

    The constructor validates that every tier-1 cloud has at least one
    SLA edge (otherwise its workload could never be served) and that
    edges reference valid cloud indices with no duplicates.
    """

    def __init__(
        self,
        tier2: Sequence[Cloud],
        tier1: Sequence[Cloud],
        edges: Iterable[SLAEdge],
    ) -> None:
        self.tier2_clouds = tuple(tier2)
        self.tier1_clouds = tuple(tier1)
        self.edges = tuple(edges)
        if not self.tier2_clouds:
            raise ValueError("network needs at least one tier-2 cloud")
        if not self.tier1_clouds:
            raise ValueError("network needs at least one tier-1 cloud")
        if not self.edges:
            raise ValueError("network needs at least one SLA edge")

        n_i, n_j, n_e = len(self.tier2_clouds), len(self.tier1_clouds), len(self.edges)
        seen: set[tuple[int, int]] = set()
        for e in self.edges:
            if not (0 <= e.tier2 < n_i):
                raise ValueError(f"edge references unknown tier-2 index {e.tier2}")
            if not (0 <= e.tier1 < n_j):
                raise ValueError(f"edge references unknown tier-1 index {e.tier1}")
            if (e.tier2, e.tier1) in seen:
                raise ValueError(f"duplicate SLA edge ({e.tier2},{e.tier1})")
            seen.add((e.tier2, e.tier1))

        # Index arrays: edge -> tier-2 index, edge -> tier-1 index.
        self.edge_i = np.array([e.tier2 for e in self.edges], dtype=np.intp)
        self.edge_j = np.array([e.tier1 for e in self.edges], dtype=np.intp)

        covered = np.zeros(n_j, dtype=bool)
        covered[self.edge_j] = True
        if not covered.all():
            missing = [self.tier1_clouds[j].name for j in np.flatnonzero(~covered)]
            raise ValueError(f"tier-1 clouds without any SLA edge: {missing}")

        # Parameter arrays.
        self.tier2_capacity = check_positive(
            "tier2_capacity", np.array([c.capacity for c in self.tier2_clouds])
        )
        self.tier2_recon_price = check_nonnegative(
            "tier2_recon_price", np.array([c.recon_price for c in self.tier2_clouds])
        )
        self.tier1_capacity = np.array([c.capacity for c in self.tier1_clouds], dtype=float)
        self.tier1_recon_price = check_nonnegative(
            "tier1_recon_price", np.array([c.recon_price for c in self.tier1_clouds])
        )
        self.edge_capacity = check_positive(
            "edge_capacity", np.array([e.capacity for e in self.edges])
        )
        self.edge_recon_price = check_nonnegative(
            "edge_recon_price", np.array([e.recon_price for e in self.edges])
        )

        self._n_i, self._n_j, self._n_e = n_i, n_j, n_e

        # Sparse aggregation matrices (CSR): rows are clouds, columns edges.
        ones = np.ones(n_e)
        self._agg_i = sp.csr_matrix(
            (ones, (self.edge_i, np.arange(n_e))), shape=(n_i, n_e)
        )
        self._agg_j = sp.csr_matrix(
            (ones, (self.edge_j, np.arange(n_e))), shape=(n_j, n_e)
        )

        # Edge lists per cloud, precomputed for algorithms that need them.
        self._edges_of_i: tuple[np.ndarray, ...] = tuple(
            np.flatnonzero(self.edge_i == i) for i in range(n_i)
        )
        self._edges_of_j: tuple[np.ndarray, ...] = tuple(
            np.flatnonzero(self.edge_j == j) for j in range(n_j)
        )

    # ------------------------------------------------------------------
    # Sizes
    # ------------------------------------------------------------------
    @property
    def n_tier2(self) -> int:
        """Number of tier-2 clouds |I|."""
        return self._n_i

    @property
    def n_tier1(self) -> int:
        """Number of tier-1 clouds |J|."""
        return self._n_j

    @property
    def n_edges(self) -> int:
        """Number of SLA edges |E|."""
        return self._n_e

    # ------------------------------------------------------------------
    # SLA subsets
    # ------------------------------------------------------------------
    def edges_of_tier2(self, i: int) -> np.ndarray:
        """Edge indices whose tier-2 endpoint is cloud ``i`` (the set J_i)."""
        return self._edges_of_i[i]

    def edges_of_tier1(self, j: int) -> np.ndarray:
        """Edge indices whose tier-1 endpoint is cloud ``j`` (the set I_j)."""
        return self._edges_of_j[j]

    def sla_tier2_of(self, j: int) -> np.ndarray:
        """Tier-2 cloud indices in I_j (SLA-feasible for tier-1 cloud j)."""
        return self.edge_i[self._edges_of_j[j]]

    def sla_tier1_of(self, i: int) -> np.ndarray:
        """Tier-1 cloud indices in J_i (served by tier-2 cloud i)."""
        return self.edge_j[self._edges_of_i[i]]

    # ------------------------------------------------------------------
    # Edge-space <-> cloud-space maps (vectorized hot paths)
    # ------------------------------------------------------------------
    def aggregate_tier2(self, edge_values: np.ndarray) -> np.ndarray:
        """Sum edge-indexed values per tier-2 cloud.

        Accepts shape ``(E,)`` or ``(T, E)``; returns ``(I,)`` or ``(T, I)``.
        """
        edge_values = np.asarray(edge_values, dtype=float)
        if edge_values.ndim == 1:
            return self._agg_i @ edge_values
        return (self._agg_i @ edge_values.T).T

    def aggregate_tier1(self, edge_values: np.ndarray) -> np.ndarray:
        """Sum edge-indexed values per tier-1 cloud (``(E,)`` or ``(T,E)``)."""
        edge_values = np.asarray(edge_values, dtype=float)
        if edge_values.ndim == 1:
            return self._agg_j @ edge_values
        return (self._agg_j @ edge_values.T).T

    def expand_tier2(self, cloud_values: np.ndarray) -> np.ndarray:
        """Broadcast tier-2 cloud values onto edges (``(I,)``/``(T,I)`` input)."""
        cloud_values = np.asarray(cloud_values, dtype=float)
        return cloud_values[..., self.edge_i]

    def expand_tier1(self, cloud_values: np.ndarray) -> np.ndarray:
        """Broadcast tier-1 cloud values onto edges (``(J,)``/``(T,J)`` input)."""
        cloud_values = np.asarray(cloud_values, dtype=float)
        return cloud_values[..., self.edge_j]

    @property
    def tier2_incidence(self) -> sp.csr_matrix:
        """Sparse ``(I, E)`` 0/1 matrix mapping edges to tier-2 clouds."""
        return self._agg_i

    @property
    def tier1_incidence(self) -> sp.csr_matrix:
        """Sparse ``(J, E)`` 0/1 matrix mapping edges to tier-1 clouds."""
        return self._agg_j

    # ------------------------------------------------------------------
    def __repr__(self) -> str:
        return (
            f"CloudNetwork(|I|={self.n_tier2}, |J|={self.n_tier1}, "
            f"|E|={self.n_edges})"
        )


def complete_bipartite_network(
    tier2: Sequence[Cloud],
    tier1: Sequence[Cloud],
    edge_capacity: float,
    edge_recon_price: float = 0.0,
) -> CloudNetwork:
    """Build a network in which every tier-1 cloud may use every tier-2 cloud.

    Convenience constructor for examples and tests where the SLA is
    unrestricted (``I_j = I`` for all ``j``).
    """
    edges = [
        SLAEdge(i, j, edge_capacity, edge_recon_price)
        for i in range(len(tier2))
        for j in range(len(tier1))
    ]
    return CloudNetwork(tier2, tier1, edges)


def sla_components(
    n_tier2: int, n_tier1: int, edge_i: np.ndarray, edge_j: np.ndarray
) -> "tuple[np.ndarray, np.ndarray]":
    """Connected components of the bipartite (tier-2, tier-1) SLA graph.

    Union-find over ``n_tier2 + n_tier1`` nodes (tier-2 cloud ``i`` is
    node ``i``, tier-1 cloud ``j`` is node ``n_tier2 + j``) with one
    union per SLA edge ``(edge_i[e], edge_j[e])``, in edge order.
    Returns ``(root_i, root_j)``: the root node of every tier-2 and
    every tier-1 cloud's component.  Equal roots mean one component,
    and for a given edge list the roots are fixed, so ascending roots
    enumerate the components in a reproducible order.  A tier-2 cloud
    without SLA edges is a component of its own.
    """
    parent = list(range(n_tier2 + n_tier1))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i, j in zip(np.asarray(edge_i).tolist(), np.asarray(edge_j).tolist()):
        ra, rb = find(i), find(n_tier2 + j)
        if ra != rb:
            parent[ra] = rb
    root_i = np.array([find(i) for i in range(n_tier2)], dtype=np.intp)
    root_j = np.array([find(n_tier2 + j) for j in range(n_tier1)], dtype=np.intp)
    return root_i, root_j
