"""Greedy covering and single linkage for cluster-set estimation.

Single linkage merges at the edges of a minimum spanning tree (Gower & Ross,
Applied Statistics 18, 1969): one tree gives the components and their gap.
"""

from __future__ import annotations

import numpy as np
from scipy.cluster.hierarchy import fcluster, linkage
from scipy.spatial.distance import cdist, pdist


def greedy_cover(points: np.ndarray, radius: float) -> tuple[np.ndarray, np.ndarray]:
    """Cover ``points`` (n, d) by balls of ``radius`` in visiting order.

    Returns (representatives (k, d), assignment (n,)): each point is within
    ``radius`` of its assigned representative, and representatives are
    pairwise more than ``radius`` apart.  Deterministic in point order.
    """
    pts = np.asarray(points, dtype=float)
    n = pts.shape[0]
    if n == 0:
        raise ValueError("cannot cover an empty point set")
    reps = [pts[0]]
    assignment = np.zeros(n, dtype=int)
    start, block = 1, 4096
    while start < n:
        stop = min(start + block, n)
        chunk = pts[start:stop]
        dists = cdist(chunk, np.asarray(reps))
        nearest = np.argmin(dists, axis=1)
        covered = dists[np.arange(len(chunk)), nearest] <= radius
        if covered.all():
            assignment[start:stop] = nearest
            start = stop
            continue
        first_out = int(np.argmin(covered))  # first False
        assignment[start : start + first_out] = nearest[:first_out]
        reps.append(chunk[first_out])
        assignment[start + first_out] = len(reps) - 1
        start = start + first_out + 1
    return np.asarray(reps), assignment


def single_linkage(points: np.ndarray, threshold: float) -> tuple[np.ndarray, float]:
    """Components of the graph joining points at distance <= ``threshold``.

    Labels number them by first appearance in point order; the gap is the
    smallest distance between points of different components (inf for one).
    A tail cycling through k distinct points costs O(k^2) distances.
    """
    if not threshold >= 0.0:
        raise ValueError("threshold must be non-negative")
    pts = np.asarray(points, dtype=float)
    rows, inverse = np.unique(pts, axis=0, return_inverse=True)
    if len(rows) == 1:
        return np.zeros(len(pts), dtype=int), np.inf
    tree = linkage(pdist(rows), "single")
    # numpy 2.0.0 returns the inverse in another shape
    merged = fcluster(tree, threshold, "distance")[inverse.reshape(-1)]
    _, first, labels = np.unique(merged, return_index=True, return_inverse=True)
    gap = float(tree[:, 2].min(initial=np.inf, where=tree[:, 2] > threshold))
    return np.argsort(np.argsort(first))[labels], gap
