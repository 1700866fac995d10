"""k-Center greedy coreset selection over embedding matrices.

The greedy farthest-first traversal gives a 2-approximation of the optimal
coverage radius. numpy is imported only by the embedding code, when it runs,
so `gap` starts without it: its means are plain Python in numpy's order.
"""

from __future__ import annotations

import math
from functools import reduce
from operator import add

from . import CoreliteError, Record
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


class CoresetSelection(Record):
    """Chosen centers in selection order, with provenance for reproducibility."""

    __slots__ = ("center_indices", "coverage_radius", "k", "seed", "metric")
    _defaults = {"metric": lambda: "l2"}

    def _check(self):
        if len(self.center_indices) != self.k:
            raise CoreliteError("selection must contain exactly k centers")
        if len(set(self.center_indices)) != self.k:
            raise CoreliteError("center indices must be distinct")
        if self.coverage_radius < 0:
            raise CoreliteError("coverage radius must be non-negative")


class SubsetGap(Record):
    __slots__ = ("full_mean", "subset_mean", "gap")


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


def k_center_greedy(
    emb: EmbeddingMatrix,
    k: int,
    seed: int = 0,
    workers: int = 1,
) -> CoresetSelection:
    """Greedy farthest-first k-center selection under L2 distance.

    The first center is `uniform_index(seed, n)`; each later center is the
    point farthest from the current centers, ties broken by lowest index.
    Distances are float64, computed over `emb.data` itself and its row norms
    `emb.sq_norms`, which every matrix holds from the moment it is built or
    loaded: the greedy makes no copy of the matrix and no pass of its own over
    it before the first step.

    `workers` is accepted for compatibility and ignored: numpy's BLAS
    already spreads each distance GEMV over the available cores.
    """
    import numpy as np

    n = emb.n
    _check_k(n, k)
    X, sq_norms = emb.data, emb.sq_norms

    # min_dist holds each point's distance to its nearest center, +inf before
    # the first, and -inf at the centers themselves (np.minimum keeps it), so
    # argmax never picks a center twice.
    centers = []
    min_dist = np.full(n, np.inf)
    u = uniform_index(seed, n)
    for _ in range(k):
        centers.append(u)
        center = X[u]
        d2 = sq_norms - 2.0 * (X @ center) + float(center @ center)
        np.maximum(d2, 0.0, out=d2)
        np.minimum(min_dist, np.sqrt(d2), out=min_dist)
        min_dist[u] = -np.inf
        # np.argmax takes the first (lowest index) maximum: the tie rule.
        u = int(np.argmax(min_dist))

    return CoresetSelection(
        center_indices=tuple(centers),
        coverage_radius=max(float(min_dist.max()), 0.0),  # 0.0 when k == n
        k=k,
        seed=seed,
    )


def _pairwise_sum(v: list[float], lo: int, hi: int) -> float:
    """Sum v[lo:hi] in the float64 order of numpy's pairwise summation.

    Under 8 values: in turn from 0.0. Up to 128: eight accumulators seeded
    with the first eight values and stepped by 8, combined as a tree, then
    the tail in turn. Longer runs split at a multiple of 8 near the middle.
    """
    n = hi - lo
    if n < 8:
        return reduce(add, v[lo:hi], 0.0)
    if n <= 128:
        end = hi - n % 8
        r = [reduce(add, v[lo + j:end:8]) for j in range(8)]
        total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        return reduce(add, v[end:hi], total)
    half = n // 2
    half -= half % 8
    return _pairwise_sum(v, lo, lo + half) + _pairwise_sum(v, lo + half, hi)


def _mean(v: list[float]) -> float:
    """`np.mean` of a non-empty float64 list, bit for bit.

    numpy adds the sum to a 0.0 accumulator, which turns a -0.0 sum into 0.0.
    """
    return (0.0 + _pairwise_sum(v, 0, len(v))) / len(v)


def subset_gap(per_instance_scores, subset) -> SubsetGap:
    """Absolute difference between the full-set mean score and a subset's mean."""
    scores = [float(s) for s in per_instance_scores]
    subset = list(subset)
    if not scores:
        raise CoreliteError("score list must be non-empty")
    if not subset:
        raise CoreliteError("subset must be non-empty")
    if len(set(subset)) != len(subset):
        raise CoreliteError("subset indices must be distinct")
    for i in subset:
        if not 0 <= i < len(scores):
            raise CoreliteError(f"subset index {i} out of range")
    full_mean = _mean(scores)
    subset_mean = _mean([scores[i] for i in subset])
    gap = abs(full_mean - subset_mean)
    if not math.isfinite(gap):  # so is the gap when either mean is not finite
        raise CoreliteError("score means or their gap overflow float64")
    return SubsetGap(full_mean, subset_mean, gap)
