"""Property-based tests for the continent-scale topology generator.

The invariants the scenario corpus (and the batched solver backend)
lean on: SLA cover validity, one component per region under regional
SLAs, capacity feasibility of built instances, and bitwise seed
determinism.
"""

import numpy as np
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st
from scipy.sparse.csgraph import connected_components

from repro.model.feasibility import check_instance_feasible, necessary_conditions
from repro.model.network import sla_components
from repro.topology.generate import GeoTopologyConfig, generate_topology

@st.composite
def configs(draw):
    n_regions = draw(st.integers(1, 6))
    pops = draw(st.integers(1, 3))
    regional = draw(st.booleans())
    k_max = pops if regional else n_regions * pops
    return GeoTopologyConfig(
        n_regions=n_regions,
        pops_per_region=pops,
        tier1_per_region=draw(st.integers(1, 4)),
        k=draw(st.integers(1, min(3, k_max))),
        regional_sla=regional,
        seed=draw(st.integers(0, 10_000)),
    )


@settings(max_examples=50, deadline=None)
@given(config=configs())
def test_sla_cover_is_valid(config):
    """Every tier-1 cloud gets k distinct in-range PoPs, nearest first,
    confined to its home region under regional SLAs."""
    topo = generate_topology(config)
    assert topo.assignment.shape == (config.n_tier1, config.k)
    for j in range(topo.n_tier1):
        row = topo.assignment[j]
        assert len(set(row.tolist())) == config.k
        assert ((row >= 0) & (row < topo.n_tier2)).all()
        assert (np.diff(topo.distance_km[j, row]) >= 0).all()
        if config.regional_sla:
            assert (topo.tier2_region[row] == topo.tier1_region[j]).all()


@settings(max_examples=50, deadline=None)
@given(config=configs())
def test_component_count_bounds(config):
    """Regional SLAs never span regions: every region contributes at
    least one and at most ``pops_per_region // k`` components (each
    component uses >= k of the region's PoPs), collapsing to exactly
    one when k == pops_per_region.  Global SLAs can merge regions."""
    topo = generate_topology(config)
    count = topo.sla_component_count()
    if config.regional_sla:
        per_region_max = config.pops_per_region // config.k
        assert config.n_regions <= count <= config.n_regions * per_region_max
        if config.k == config.pops_per_region:
            assert count == config.n_regions
    else:
        assert 1 <= count <= config.n_regions * config.pops_per_region


@settings(max_examples=25, deadline=None)
@given(config=configs(), wseed=st.integers(0, 10_000), horizon=st.integers(1, 6))
def test_built_instances_are_capacity_feasible(config, wseed, horizon):
    """The provisioning rule must always leave the instance servable."""
    topo = generate_topology(config)
    rng = np.random.default_rng(wseed)
    workload = 10.0 * rng.random((horizon, topo.n_tier1))
    instance = topo.build_instance(workload)
    assert necessary_conditions(instance).ok
    assert check_instance_feasible(instance).ok


@settings(max_examples=25, deadline=None)
@given(config=configs())
def test_seed_determinism_is_bitwise(config):
    a, b = generate_topology(config), generate_topology(config)
    assert a.fingerprint() == b.fingerprint()
    np.testing.assert_array_equal(a.assignment, b.assignment)
    np.testing.assert_array_equal(a.tier1_lat, b.tier1_lat)
    np.testing.assert_array_equal(a.tier2_lon, b.tier2_lon)
    # ... and the seed is live: a different seed moves the placement.
    other = generate_topology(
        GeoTopologyConfig(
            n_regions=config.n_regions,
            pops_per_region=config.pops_per_region,
            tier1_per_region=config.tier1_per_region,
            k=config.k,
            regional_sla=config.regional_sla,
            seed=config.seed + 1,
        )
    )
    assert other.fingerprint() != a.fingerprint()


@settings(max_examples=25, deadline=None)
@given(config=configs(), wseed=st.integers(0, 10_000))
def test_generator_components_match_built_network(config, wseed):
    """The generator's component count equals the number of components
    holding tier-1 clouds in the built network's SLA graph, and
    ``sla_components`` groups the clouds exactly as scipy's connected
    components do."""
    topo = generate_topology(config)
    rng = np.random.default_rng(wseed)
    workload = 1.0 + rng.random((2, topo.n_tier1))
    net = topo.build_instance(workload).network
    root_i, root_j = sla_components(net.n_tier2, net.n_tier1, net.edge_i, net.edge_j)
    assert np.unique(root_j).size == topo.sla_component_count()
    n = net.n_tier2 + net.n_tier1
    graph = sp.coo_matrix(
        (np.ones(net.n_edges), (net.edge_i, net.n_tier2 + net.edge_j)), shape=(n, n)
    )
    _, labels = connected_components(graph, directed=False)
    roots = np.concatenate([root_i, root_j])
    assert np.array_equal(labels[:, None] == labels, roots[:, None] == roots)
