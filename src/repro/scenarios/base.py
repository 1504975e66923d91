"""Scenario registry core: named, deterministic workload scenarios.

A *scenario* is a named recipe that deterministically builds a full
problem instance — topology, workload, prices — from ``(size, seed)``
alone.  The registry is the corpus's single source of truth: the CLI
(``repro scenario list|describe|run``), the golden-snapshot tests and
the CI smoke jobs all resolve names through it.

Determinism contract
--------------------
``build(size, seed)`` must be a pure function of its arguments: all
randomness flows through ``np.random.default_rng`` streams derived
from the seed, and no wall-clock, filesystem or environment state may
enter.  :meth:`BuiltScenario.fingerprint` condenses every generated
array into one SHA-256 hex digest (:func:`repro.util.digest.
array_digest`); the golden suite pins these digests, so any change to
a generator's draw order or arithmetic is caught as a fingerprint
diff, never as a silent drift of experiment inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.model.instance import Instance
from repro.topology.generate import GeneratedTopology
from repro.util.digest import array_digest

#: The two size points every scenario must support.  ``smoke`` builds
#: in milliseconds and runs through tier-1 tests; ``full`` is the
#: continent-scale configuration (hundreds of tier-1 clouds).
SCENARIO_SIZES = ("smoke", "full")


@dataclass
class BuiltScenario:
    """A materialized scenario: instance + provenance.

    Exactly one of ``instance`` (two-tier) / ``ntier`` is set,
    matching the owning :class:`Scenario`'s ``tiers``.  ``topology``
    carries the generated placement when the scenario runs on a
    generated geo topology (all built-ins do).
    """

    name: str
    size: str
    seed: int
    instance: "Instance | None" = None
    topology: "GeneratedTopology | None" = None
    ntier: "object | None" = None  # NTierInstance (import kept lazy)
    notes: "list[str]" = field(default_factory=list)

    def fingerprint(self) -> str:
        """SHA-256 over every generated array (placement, workload, prices,
        capacities).  Equal ``(name, size, seed)`` must reproduce it."""
        items: "list[tuple[str, np.ndarray]]" = []
        if self.topology is not None:
            topo = self.topology
            items += [
                ("topo/tier2_lat", topo.tier2_lat),
                ("topo/tier2_lon", topo.tier2_lon),
                ("topo/tier1_lat", topo.tier1_lat),
                ("topo/tier1_lon", topo.tier1_lon),
                ("topo/assignment", topo.assignment),
            ]
        if self.instance is not None:
            inst = self.instance
            net = inst.network
            items += [
                ("workload", inst.workload),
                ("tier2_price", inst.tier2_price),
                ("link_price", inst.link_price),
                ("tier2_capacity", net.tier2_capacity),
                ("tier2_recon", net.tier2_recon_price),
                ("edge_capacity", net.edge_capacity),
                ("edge_recon", net.edge_recon_price),
                ("edge_i", net.edge_i),
                ("edge_j", net.edge_j),
            ]
        if self.ntier is not None:
            inst = self.ntier
            net = inst.network
            links = net.links
            items += [
                ("ntier/workload", inst.workload),
                ("ntier/node_price", inst.node_price),
                ("ntier/link_price", inst.link_price),
                ("ntier/node_capacity", net.node_capacity),
                ("ntier/link_capacity", net.link_capacity),
                ("ntier/link_stage", np.array([l.stage for l in links])),
                ("ntier/link_lower", np.array([l.lower for l in links])),
                ("ntier/link_upper", np.array([l.upper for l in links])),
                ("ntier/link_recon", np.array([l.recon_price for l in links])),
            ]
        if not items:
            raise ValueError(f"scenario {self.name!r} built nothing to hash")
        return array_digest(items)

    @property
    def horizon(self) -> int:
        inst = self.instance if self.instance is not None else self.ntier
        return inst.horizon

    def describe_shape(self) -> str:
        """One-line shape summary for the CLI."""
        if self.instance is not None:
            net = self.instance.network
            return (
                f"2-tier |I|={net.n_tier2} |J|={net.n_tier1} "
                f"|E|={net.n_edges} T={self.horizon}"
            )
        net = self.ntier.network
        sizes = "x".join(str(len(t)) for t in net.tiers)
        return (
            f"{net.n_tiers}-tier {sizes} links={net.n_links} "
            f"paths={net.n_paths} T={self.horizon}"
        )


@dataclass(frozen=True)
class Scenario:
    """A registered scenario recipe.

    ``build(size, seed)`` materializes it; ``seed=None`` selects
    ``default_seed`` (the seed golden fingerprints are pinned at).
    ``serveable`` marks scenarios the streaming serve runtime can
    drive — two-tier scenarios; the N-tier scenario is
    evaluation-only.
    """

    name: str
    summary: str
    details: str
    builder: "Callable[[str, int], BuiltScenario]"
    default_seed: int = 0
    serveable: bool = True
    tiers: int = 2

    def build(self, size: str = "smoke", seed: "int | None" = None) -> BuiltScenario:
        if size not in SCENARIO_SIZES:
            raise ValueError(
                f"unknown scenario size {size!r}; choose from {SCENARIO_SIZES}"
            )
        actual = self.default_seed if seed is None else int(seed)
        built = self.builder(size, actual)
        built.name, built.size, built.seed = self.name, size, actual
        return built


_REGISTRY: "dict[str, Scenario]" = {}


def register(scenario: Scenario) -> Scenario:
    """Add a scenario to the registry (name must be unused)."""
    if scenario.name in _REGISTRY:
        raise ValueError(f"scenario {scenario.name!r} already registered")
    _REGISTRY[scenario.name] = scenario
    return scenario


def scenario_names() -> "tuple[str, ...]":
    """Registered scenario names, in registration order."""
    return tuple(_REGISTRY)


def get_scenario(name: str) -> Scenario:
    """Look up one scenario; raises ``KeyError`` with the known names."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; known: {', '.join(_REGISTRY) or '(none)'}"
        ) from None


def all_scenarios() -> "tuple[Scenario, ...]":
    """Every registered scenario, in registration order."""
    return tuple(_REGISTRY.values())
