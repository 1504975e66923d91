"""Shared fixtures: small deterministic networks and instances."""

from __future__ import annotations

from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest

from repro.model import Cloud, CloudNetwork, Instance, SLAEdge
from repro.solvers.backends import BatchedNewtonBackend


@contextmanager
def coupled_only():
    """Solve every P2(t) built inside the block with the coupled barrier.

    Star graphs normally take the closed form; this is the reference
    run the closed form is compared against.
    """
    with mock.patch.object(
        BatchedNewtonBackend, "applies", staticmethod(lambda network: False)
    ):
        yield


def make_network(
    n_tier2: int = 4,
    n_tier1: int = 6,
    k: int = 2,
    tier2_capacity: float = 10.0,
    edge_capacity: float = 7.0,
    tier2_recon: float = 20.0,
    edge_recon: float = 12.0,
) -> CloudNetwork:
    """A deterministic ring-ish SLA topology used across the suite."""
    tier2 = [Cloud(f"i{i}", tier2_capacity, tier2_recon) for i in range(n_tier2)]
    tier1 = [Cloud(f"j{j}", np.inf) for j in range(n_tier1)]
    edges = [
        SLAEdge((j + m) % n_tier2, j, edge_capacity, edge_recon)
        for j in range(n_tier1)
        for m in range(k)
    ]
    return CloudNetwork(tier2, tier1, edges)


def make_instance(
    network: CloudNetwork,
    horizon: int = 16,
    seed: int = 0,
    peak: float = 2.0,
) -> Instance:
    """Feasible diurnal-ish instance on the given network."""
    rng = np.random.default_rng(seed)
    T, J = horizon, network.n_tier1
    base = 0.5 * peak * (1.0 + 0.8 * np.sin(np.arange(T) * 2 * np.pi / 12.0))
    lam = np.clip(base[:, None] * (1.0 + 0.15 * rng.random((T, J))), 0.01, None)
    a = 1.0 + 0.5 * rng.random((T, network.n_tier2))
    c = 0.4 + 0.1 * rng.random((T, network.n_edges))
    return Instance(network, lam, a, c)


@pytest.fixture
def small_network() -> CloudNetwork:
    return make_network()


@pytest.fixture
def small_instance(small_network) -> Instance:
    return make_instance(small_network)


@pytest.fixture
def single_edge_instance() -> Instance:
    """One tier-2 cloud, one tier-1 cloud, one SLA edge.

    With zero link costs this collapses to the scalar problem (4),
    enabling exact comparison against the closed-form recursion.
    """
    tier2 = [Cloud("i0", capacity=5.0, recon_price=8.0)]
    tier1 = [Cloud("j0", capacity=np.inf)]
    edges = [SLAEdge(0, 0, capacity=5.0, recon_price=0.0)]
    net = CloudNetwork(tier2, tier1, edges)
    rng = np.random.default_rng(3)
    T = 24
    lam = np.clip(
        2.5 + 2.0 * np.sin(np.arange(T) / 2.5) + 0.2 * rng.random(T), 0.05, 5.0
    )[:, None]
    a = (1.0 + 0.5 * rng.random(T))[:, None]
    c = np.zeros((T, 1))
    return Instance(net, lam, a, c)
