"""Single linkage against the dense epsilon-graph reference.

``_dense_reference`` joins points at distance <= threshold in a dense n x n
adjacency matrix and takes its connected components; the gap is the smallest
distance over pairs with different labels.  ``single_linkage`` must give the
same labels and the same gap, bit for bit, from one spanning tree over the
distinct rows.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial.distance import pdist, squareform

from fejerlab.clustering import single_linkage
from fejerlab.dynamics import OSCILLATING, Trajectory, detect_limit


def _dense_reference(points, threshold):
    dists = squareform(pdist(np.asarray(points, dtype=float)))
    _, labels = connected_components(csr_matrix(dists <= threshold), directed=False)
    different = labels[:, None] != labels[None, :]
    return labels, float(dists[different].min()) if different.any() else math.inf


@st.composite
def point_sets(draw):
    """Points in R^1..R^4 with repeated rows, signed zeros and a threshold
    that is often one of their pairwise distances."""
    d = draw(st.integers(1, 4))
    coord = st.sampled_from([0.0, -0.0, 0.5, -1.0, 2.0]) | st.floats(-3.0, 3.0)
    row = st.lists(coord, min_size=d, max_size=d)
    rows = draw(st.lists(row, min_size=1, max_size=6))
    picks = draw(st.lists(st.integers(0, len(rows) - 1), min_size=1, max_size=14))
    pts = np.array([rows[i] for i in picks], dtype=float).reshape(len(picks), d)
    thresholds = st.just(0.0) | st.floats(0.0, 6.0)
    if len(pts) > 1:
        thresholds = thresholds | st.sampled_from(pdist(pts).tolist())
    return pts, draw(thresholds)


@settings(max_examples=400, deadline=None)
@given(point_sets())
@example((np.array([[1.5, -2.0]]), 0.0))  # one point
@example((np.full((5, 3), 0.25), 1e-9))  # every point equal
@example((np.array([[0.0], [-0.0], [1.0], [-0.0], [1.0]]), 0.0))  # signed zeros
@example((np.array([[0.0, 0.0], [3.0, 4.0], [0.0, 0.0], [6.0, 8.0]]), 5.0))
def test_single_linkage_matches_the_dense_reference(case):
    pts, threshold = case
    labels, gap = single_linkage(pts, threshold)
    ref_labels, ref_gap = _dense_reference(pts, threshold)
    assert np.array_equal(labels, ref_labels)
    assert gap == ref_gap


@pytest.mark.parametrize("threshold", [-1e-12, float("nan")])
def test_single_linkage_rejects_a_negative_threshold(threshold):
    with pytest.raises(ValueError, match="threshold must be non-negative"):
        single_linkage(np.zeros((3, 2)), threshold)


def test_detect_limit_on_an_exact_three_cycle_matches_the_reference():
    cycle = np.array([[0.1, 0.7], [-0.3, 0.2], [0.9, -0.4]])
    tail = np.tile(cycle, (334, 1))[:1000]
    est = detect_limit(Trajectory(tail), 1000, 1e-9)
    ref_labels, ref_gap = _dense_reference(tail, 1e-8)
    centers = np.stack([tail[ref_labels == c].mean(axis=0) for c in range(3)])
    assert est.status == OSCILLATING
    assert np.array_equal(est.cluster_labels, ref_labels)
    assert est.cluster_gap == ref_gap
    assert np.array_equal(est.cluster_points, centers)
