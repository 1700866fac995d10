"""k-Center greedy coreset selection over embedding matrices.

The greedy farthest-first traversal gives a 2-approximation of the optimal
coverage radius.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import CoreliteError
from .corpus import EmbeddingMatrix

# Default lite-set sizes per dataset. Datasets at full size are kept whole.
LITE_K_DEFAULTS: dict[str, int] = {
    "chartqa": 400,
    "docvqa": 400,
    "infovqa": 200,
    "flickr30k": 400,
    "nocaps": 400,
    "textcaps": 300,
    "refcoco": 500,
    "textvqa": 300,
    "mathvista": 1000,
    "ai2d": 300,
    "llava-w": 60,
    "mme": 2374,
    "mmmu": 900,
    "cmmmu": 900,
    "seed-bench": 700,
}


@dataclass(frozen=True)
class CoresetSelection:
    """Chosen centers in selection order, with provenance for reproducibility."""

    center_indices: tuple[int, ...]
    coverage_radius: float
    k: int
    seed: int
    metric: str = "l2"

    def __post_init__(self):
        if len(self.center_indices) != self.k:
            raise CoreliteError("selection must contain exactly k centers")
        if len(set(self.center_indices)) != self.k:
            raise CoreliteError("center indices must be distinct")
        if self.coverage_radius < 0:
            raise CoreliteError("coverage radius must be non-negative")


@dataclass(frozen=True)
class SubsetGap:
    full_mean: float
    subset_mean: float
    gap: float


def normalize_rows(block: np.ndarray) -> np.ndarray:
    """Scale each row to unit L2 norm (norms in float64), as float32.

    Zero rows are left untouched.
    """
    norms = np.sqrt(np.square(block, dtype=np.float64).sum(axis=1, keepdims=True))
    norms[norms == 0.0] = 1.0
    return np.divide(block, norms, out=np.empty(block.shape, np.float32))


def uniform_index(seed: int, n: int) -> int:
    """Draw uniformly from 0..n-1 (n >= 1) with SplitMix64 seeded by `seed`.

    Fully specified, so seeded draws reproduce across platforms. Outputs in
    the final partial bucket are rejected, so the draw is exactly uniform.
    """
    mask = (1 << 64) - 1
    bound = (1 << 64) - ((1 << 64) % n)
    state = seed & mask
    while True:
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        z ^= z >> 31
        if z < bound:
            return z % n


def _check_k(n: int, k: int) -> None:
    if n == 0:
        raise CoreliteError("cannot select from an empty matrix")
    if not 1 <= k <= n:
        raise CoreliteError(f"k must be in 1..{n}, got {k}")


def _min_center_dists(
    X: np.ndarray, sq_norms: np.ndarray, center: np.ndarray
) -> np.ndarray:
    """Distances from every row of X to one center."""
    d2 = sq_norms - 2.0 * (X @ center) + float(center @ center)
    np.maximum(d2, 0.0, out=d2)
    return np.sqrt(d2)


def k_center_greedy(
    emb: EmbeddingMatrix,
    k: int,
    seed: int = 0,
    workers: int = 1,
) -> CoresetSelection:
    """Greedy farthest-first k-center selection.

    The first center is `uniform_index(seed, n)`; each later center is the
    point farthest from the current centers, ties broken by lowest index.

    `workers` is accepted for compatibility and ignored: numpy's BLAS
    already spreads each distance GEMV over the available cores.
    """
    n = emb.n
    _check_k(n, k)
    X = np.ascontiguousarray(emb.data, dtype=np.float64)
    sq_norms = np.einsum("ij,ij->i", X, X)

    first = uniform_index(seed, n)
    # min_dist holds each point's distance to its nearest center, and -inf
    # at the centers themselves (np.minimum keeps it), so argmax never picks
    # a center twice.
    centers = [first]
    min_dist = _min_center_dists(X, sq_norms, X[first])
    min_dist[first] = -np.inf
    for _ in range(k - 1):
        # np.argmax takes the first (lowest index) maximum: the tie rule.
        u = int(np.argmax(min_dist))
        centers.append(u)
        np.minimum(min_dist, _min_center_dists(X, sq_norms, X[u]), out=min_dist)
        min_dist[u] = -np.inf

    return CoresetSelection(
        center_indices=tuple(centers),
        coverage_radius=max(float(min_dist.max()), 0.0),  # 0.0 when k == n
        k=k,
        seed=seed,
    )


def subset_gap(per_instance_scores, subset) -> SubsetGap:
    """Absolute difference between the full-set mean score and a subset's mean."""
    scores = np.asarray(list(per_instance_scores), dtype=np.float64)
    subset = list(subset)
    if scores.size == 0:
        raise CoreliteError("score list must be non-empty")
    if not subset:
        raise CoreliteError("subset must be non-empty")
    if len(set(subset)) != len(subset):
        raise CoreliteError("subset indices must be distinct")
    for i in subset:
        if not 0 <= i < scores.size:
            raise CoreliteError(f"subset index {i} out of range")
    with np.errstate(all="ignore"):  # an overflow shows as a non-finite gap
        full_mean = float(scores.mean())
        subset_mean = float(scores[subset].mean())
    gap = abs(full_mean - subset_mean)
    if not np.isfinite(gap):  # so is the gap when either mean is not finite
        raise CoreliteError("score means or their gap overflow float64")
    return SubsetGap(full_mean, subset_mean, gap)
