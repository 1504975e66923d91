"""Layered (N-tier) cloud network topology.

Tier 1 holds the edge clouds where workloads originate; tiers
``2 .. N`` hold upper clouds with capacities and reconfiguration
prices; SLA links connect consecutive tiers.  Service paths run from a
tier-1 cloud up through one cloud per tier to a top-tier cloud; the
SLA is the set of links, so the feasible paths are exactly the chains
of SLA links (the paper: "multiple paths may exist to satisfy the SLA
... via different clouds in the intermediate tiers").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.sparse as sp

from repro.model.network import Cloud


@dataclass(frozen=True)
class LayerLink:
    """An SLA link between tier ``stage`` and tier ``stage + 1``.

    ``lower``/``upper`` are node indices within their tiers.
    """

    stage: int  # 1-based: connects tier `stage` to tier `stage+1`
    lower: int
    upper: int
    capacity: float
    recon_price: float = 0.0

    def __post_init__(self) -> None:
        if self.stage < 1:
            raise ValueError("stage must be >= 1")
        if not (self.capacity > 0):
            raise ValueError("link capacity must be > 0")
        if self.recon_price < 0:
            raise ValueError("link recon_price must be >= 0")


class LayeredNetwork:
    """An N-tier topology with enumerated service paths.

    Parameters
    ----------
    tiers:
        ``tiers[0]`` is the tier-1 (edge) cloud list; ``tiers[n]`` for
        ``n >= 1`` are upper tiers ordered bottom-up.  Needs
        ``len(tiers) >= 2``.
    links:
        SLA links; ``stage`` is 1-based (stage ``n`` connects
        ``tiers[n-1]`` to ``tiers[n]``).
    max_paths:
        Safety cap on path enumeration.
    """

    def __init__(
        self,
        tiers: "Sequence[Sequence[Cloud]]",
        links: "Sequence[LayerLink]",
        max_paths: int = 100_000,
    ) -> None:
        if len(tiers) < 2:
            raise ValueError("need at least two tiers")
        self.tiers = [tuple(t) for t in tiers]
        if any(len(t) == 0 for t in self.tiers):
            raise ValueError("every tier needs at least one cloud")
        self.n_tiers = len(self.tiers)
        self.links = tuple(links)
        for link in self.links:
            if link.stage >= self.n_tiers:
                raise ValueError(f"link stage {link.stage} exceeds tier count")
            if not (0 <= link.lower < len(self.tiers[link.stage - 1])):
                raise ValueError("link lower endpoint out of range")
            if not (0 <= link.upper < len(self.tiers[link.stage])):
                raise ValueError("link upper endpoint out of range")

        # ---- flattened upper-node indexing (tiers 2..N) ----------------
        self.node_tier_offsets: list[int] = []
        off = 0
        for n in range(1, self.n_tiers):
            self.node_tier_offsets.append(off)
            off += len(self.tiers[n])
        self.n_upper_nodes = off
        self.node_capacity = np.concatenate(
            [[c.capacity for c in self.tiers[n]] for n in range(1, self.n_tiers)]
        ).astype(float)
        self.node_recon_price = np.concatenate(
            [[c.recon_price for c in self.tiers[n]] for n in range(1, self.n_tiers)]
        ).astype(float)

        # ---- link indexing ---------------------------------------------
        self.n_links = len(self.links)
        self.link_capacity = np.array([l.capacity for l in self.links], dtype=float)
        self.link_recon_price = np.array(
            [l.recon_price for l in self.links], dtype=float
        )

        # adjacency per stage: lower node -> list of link indices
        self._adj: list[dict[int, list[int]]] = [
            {} for _ in range(self.n_tiers - 1)
        ]
        for idx, link in enumerate(self.links):
            self._adj[link.stage - 1].setdefault(link.lower, []).append(idx)

        # ---- path enumeration -------------------------------------------
        self.paths: list[tuple[int, tuple[int, ...]]] = []  # (origin j, link idx chain)
        for j in range(len(self.tiers[0])):
            self._walk(j, j, 0, [], max_paths)
        if not self.paths:
            raise ValueError("no SLA-feasible paths exist")
        origins = np.array([p[0] for p in self.paths], dtype=np.intp)
        covered = np.zeros(len(self.tiers[0]), dtype=bool)
        covered[origins] = True
        if not covered.all():
            missing = [self.tiers[0][j].name for j in np.flatnonzero(~covered)]
            raise ValueError(f"tier-1 clouds with no path to the top tier: {missing}")
        self.n_paths = len(self.paths)
        self.path_origin = origins

        # incidence: path -> upper nodes, path -> links (sparse 0/1)
        rows_n, cols_n, rows_l, cols_l = [], [], [], []
        for p, (_, chain) in enumerate(self.paths):
            for link_idx in chain:
                link = self.links[link_idx]
                rows_l.append(p)
                cols_l.append(link_idx)
                node_flat = self.node_tier_offsets[link.stage - 1] + link.upper
                rows_n.append(p)
                cols_n.append(node_flat)
        self.path_node_incidence = sp.csr_matrix(
            (np.ones(len(rows_n)), (rows_n, cols_n)),
            shape=(self.n_paths, self.n_upper_nodes),
        )
        self.path_link_incidence = sp.csr_matrix(
            (np.ones(len(rows_l)), (rows_l, cols_l)),
            shape=(self.n_paths, self.n_links),
        )
        ones = np.ones(self.n_paths)
        self.origin_incidence = sp.csr_matrix(
            (ones, (self.path_origin, np.arange(self.n_paths))),
            shape=(len(self.tiers[0]), self.n_paths),
        )

    # ------------------------------------------------------------------
    def _walk(
        self,
        origin: int,
        node: int,
        stage: int,
        chain: "list[int]",
        max_paths: int,
    ) -> None:
        """DFS over SLA links from tier-1 ``origin`` to the top tier."""
        if stage == self.n_tiers - 1:
            if len(self.paths) >= max_paths:
                raise ValueError(f"path enumeration exceeded max_paths={max_paths}")
            self.paths.append((origin, tuple(chain)))
            return
        for link_idx in self._adj[stage].get(node, ()):  # ordered, deterministic
            link = self.links[link_idx]
            chain.append(link_idx)
            self._walk(origin, link.upper, stage + 1, chain, max_paths)
            chain.pop()

    # ------------------------------------------------------------------
    @property
    def n_tier1(self) -> int:
        return len(self.tiers[0])

    def node_flat_index(self, tier: int, node: int) -> int:
        """Flattened upper-node index for 1-based tier >= 2."""
        if tier < 2:
            raise ValueError("flattened indexing covers tiers >= 2")
        return self.node_tier_offsets[tier - 2] + node

    def tier_of_flat_node(self, flat: int) -> int:
        """1-based tier number of a flattened upper-node index."""
        for n in range(len(self.node_tier_offsets) - 1, -1, -1):
            if flat >= self.node_tier_offsets[n]:
                return n + 2
        raise ValueError(f"bad flat node index {flat}")

    def __repr__(self) -> str:
        sizes = "x".join(str(len(t)) for t in self.tiers)
        return (
            f"LayeredNetwork(tiers={sizes}, links={self.n_links}, "
            f"paths={self.n_paths})"
        )
