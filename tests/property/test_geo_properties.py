"""Property-based tests for the geographic helpers (repro.topology.geo)."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.topology.geo import _EARTH_RADIUS_KM, haversine_matrix, k_nearest

#: Half the Earth's circumference: no two points are farther apart.
HALF_CIRCUMFERENCE_KM = np.pi * _EARTH_RADIUS_KM

lats = st.floats(-90.0, 90.0, allow_nan=False)
lons = st.floats(-180.0, 180.0, allow_nan=False)


def coord_arrays(n):
    # Draw the length first: filtering independent lengths for a match
    # rejected most draws and tripped Hypothesis's filter_too_much check.
    return st.integers(n, 8).flatmap(
        lambda size: st.tuples(
            st.lists(lats, min_size=size, max_size=size).map(np.array),
            st.lists(lons, min_size=size, max_size=size).map(np.array),
        )
    )


@settings(max_examples=60, deadline=None)
@given(coords=coord_arrays(1))
def test_square_matrix_is_symmetric_with_zero_diagonal(coords):
    lat, lon = coords
    d = haversine_matrix(lat, lon, lat, lon)
    assert d.shape == (lat.size, lat.size)
    np.testing.assert_allclose(d, d.T, atol=1e-9)
    np.testing.assert_allclose(np.diag(d), 0.0, atol=1e-9)


@settings(max_examples=60, deadline=None)
@given(a=coord_arrays(1), b=coord_arrays(1))
def test_distances_nonnegative_and_bounded_by_half_circumference(a, b):
    d = haversine_matrix(a[0], a[1], b[0], b[1])
    assert d.shape == (a[0].size, b[0].size)
    assert (d >= 0.0).all()
    assert (d <= HALF_CIRCUMFERENCE_KM + 1e-6).all()


@settings(max_examples=60, deadline=None)
@given(a=coord_arrays(1), b=coord_arrays(1))
def test_swapping_point_sets_transposes(a, b):
    ab = haversine_matrix(a[0], a[1], b[0], b[1])
    ba = haversine_matrix(b[0], b[1], a[0], a[1])
    np.testing.assert_allclose(ab, ba.T, atol=1e-9)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    m=st.integers(1, 7),
    n=st.integers(1, 7),
    k=st.integers(1, 7),
)
def test_k_nearest_rows_are_valid_and_sorted(seed, m, n, k):
    k = min(k, n)
    rng = np.random.default_rng(seed)
    d = rng.random((m, n)) * 1e4
    idx = k_nearest(d, k)
    assert idx.shape == (m, k)
    for row in range(m):
        chosen = idx[row]
        assert len(set(chosen.tolist())) == k  # distinct columns
        picked = np.sort(d[row, chosen])
        rest = np.delete(d[row], chosen)
        # Nearest-first within the row, and no closer column left out.
        assert (np.diff(d[row, chosen]) >= 0).all()
        if rest.size:
            assert picked[-1] <= rest.min() + 1e-12
