"""Single linkage against the dense epsilon-graph reference.

``_dense_reference`` joins points at distance <= threshold in a dense n x n
adjacency matrix and takes its connected components; the gap is the smallest
distance over pairs with different labels.  ``single_linkage`` must give the
same labels and the same gap, bit for bit, from one spanning tree over the
distinct rows.  ``_cover_reference`` covers points one at a time;
``greedy_cover`` must choose the same representatives and assignment.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial.distance import cdist, pdist, squareform

from fejerlab.clustering import greedy_cover, single_linkage
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


def _cover_reference(points, radius):
    """Each point joins the first nearest representative chosen before it,
    or becomes one where none is within ``radius``."""
    reps, assignment = [points[0]], [0]
    for p in points[1:]:
        dists = cdist(p[None], np.asarray(reps))[0]
        q = int(np.argmin(dists))
        if not dists[q] <= radius:
            reps.append(p)
            q = len(reps) - 1
        assignment.append(q)
    return np.asarray(reps), np.asarray(assignment)


@pytest.mark.parametrize(
    "d, lattice, radius",
    [(1, False, 0.25), (2, False, 4.0), (3, True, 3.0), (4, True, 3.0)],
    ids=["walk-r1", "walk-r2", "lattice-r3", "lattice-r4"],
)
def test_greedy_cover_matches_the_pointwise_reference(d, lattice, radius):
    # random walks over two block boundaries that need hundreds of
    # representatives; on an integer lattice many points lie at exactly the
    # same distance from two representatives, where the first must win
    rng = np.random.default_rng(d)
    steps = rng.integers(-1, 2, (9000, d)) if lattice else rng.standard_normal((9000, d))
    pts = np.cumsum(steps, axis=0).astype(float)
    reps, assignment = greedy_cover(pts, radius)
    ref_reps, ref_assignment = _cover_reference(pts, radius)
    assert len(ref_reps) >= 200
    assert np.array_equal(reps, ref_reps)
    assert np.array_equal(assignment, ref_assignment)
