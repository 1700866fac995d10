"""Exact reference solvers that the k-center tests compare the greedy against."""

import itertools

import numpy as np

from corelite import CoreliteError
from corelite.coreset import CoresetSelection, _check_k
from corelite.corpus import EmbeddingMatrix


def coverage_radius(emb: EmbeddingMatrix, centers) -> float:
    """Max over all points of the distance to their nearest center."""
    centers = list(centers)
    if not centers:
        raise CoreliteError("center list must be non-empty")
    n = emb.n
    for c in centers:
        if not 0 <= c < n:
            raise CoreliteError(f"center index {c} out of range for n={n}")
    X = np.ascontiguousarray(emb.data, dtype=np.float64)
    C = X[centers]
    d2 = (
        np.einsum("ij,ij->i", X, X)[:, None]
        - 2.0 * (X @ C.T)
        + np.einsum("ij,ij->i", C, C)[None, :]
    )
    np.maximum(d2, 0.0, out=d2)
    d_min = np.sqrt(d2.min(axis=1))
    d_min[centers] = 0.0  # centers cover themselves exactly
    return float(d_min.max())


def brute_force_k_center(emb: EmbeddingMatrix, k: int) -> CoresetSelection:
    """Exact k-center by exhaustive enumeration; test oracle for n <= 16."""
    n = emb.n
    if n > 16:
        raise CoreliteError("oracle limited to n ≤ 16")
    _check_k(n, k)
    X = np.ascontiguousarray(emb.data, dtype=np.float64)
    diff = X[:, None, :] - X[None, :, :]
    D = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))

    best_subset: tuple[int, ...] | None = None
    best_radius = np.inf
    # combinations() yields index sets in lexicographic order, so keeping
    # strictly better radii leaves the lexicographically smallest tie winner.
    for subset in itertools.combinations(range(n), k):
        radius = D[:, subset].min(axis=1).max()
        if radius < best_radius:
            best_radius = radius
            best_subset = subset
    assert best_subset is not None
    return CoresetSelection(
        center_indices=best_subset,
        coverage_radius=float(best_radius),
        k=k,
        seed=0,
    )
