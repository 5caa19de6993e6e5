"""Greedy covering and single linkage for cluster-set estimation.

Single linkage merges at the edges of a minimum spanning tree (Gower & Ross,
Applied Statistics 18, 1969): one tree gives the components and their gap.
"""

from __future__ import annotations

import numpy as np


def greedy_cover(points: np.ndarray, radius: float) -> tuple[np.ndarray, np.ndarray]:
    """Cover ``points`` (n, d) by balls of ``radius`` in visiting order.

    Returns (representatives (k, d), assignment (n,)): each point is within
    ``radius`` of its assigned representative, the first nearest of those
    chosen before it, and representatives are pairwise more than ``radius``
    apart.  Deterministic in point order.  Each block of points is measured
    against the representatives once, and against each representative it
    adds only once: O(n k) distances.
    """
    from scipy.spatial.distance import cdist

    pts = np.asarray(points, dtype=float)
    n = pts.shape[0]
    if n == 0:
        raise ValueError("cannot cover an empty point set")
    reps = [pts[0]]
    assignment = np.zeros(n, dtype=int)
    block = 4096
    for start in range(1, n, block):
        chunk = pts[start : start + block]
        dists = cdist(chunk, np.asarray(reps))
        nearest = np.argmin(dists, axis=1)
        best = dists[np.arange(len(chunk)), nearest]
        i = 0
        while True:
            out = np.flatnonzero(~(best[i:] <= radius))
            if not out.size:
                break
            i += int(out[0])  # the first point left uncovered is a new representative
            reps.append(chunk[i])
            nearest[i] = len(reps) - 1
            rest = slice(i + 1, None)
            new = cdist(chunk[rest], chunk[i : i + 1])[:, 0]
            closer = new < best[rest]  # strictly: argmin keeps the first of equals
            nearest[rest][closer] = len(reps) - 1
            best[rest][closer] = new[closer]
            i += 1
        assignment[start : start + len(chunk)] = nearest
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
    from scipy.cluster.hierarchy import fcluster, linkage
    from scipy.spatial.distance import pdist

    tree = linkage(pdist(rows), "single")
    # numpy 2.0.0 returns the inverse in another shape
    merged = fcluster(tree, threshold, "distance")[inverse.reshape(-1)]
    _, first, labels = np.unique(merged, return_index=True, return_inverse=True)
    gap = float(tree[:, 2].min(initial=np.inf, where=tree[:, 2] > threshold))
    return np.argsort(np.argsort(first))[labels], gap
