"""Score normalization to 0-100, cross-dataset aggregation, and lite-vs-full correlation.

Only the correlations import numpy, when they run, so `aggregate` starts
without it.
"""

from __future__ import annotations

import math
import sys
from typing import TYPE_CHECKING

from . import CoreliteError, Record
from .corpus import ScaleSpec, ScoreTable, read_json

if TYPE_CHECKING:
    import numpy as np

DEFAULT_SCALE = (0.0, 100.0)


def load_scales(path) -> ScaleSpec:
    """Read a {"<dataset>": {"min": ..., "max": ...}} JSON config; errors name it."""
    raw = read_json(path)
    try:
        if not isinstance(raw, dict):
            raise CoreliteError("expected a JSON object of dataset scales")
        scales = {}
        for dataset, spec in raw.items():
            if not isinstance(spec, dict) or "min" not in spec or "max" not in spec:
                raise CoreliteError(f"scale for {dataset!r} must have min and max")
            scales[dataset] = (spec["min"], spec["max"])
        return ScaleSpec(scales)
    except CoreliteError as exc:
        raise CoreliteError(f"{path}: {exc}") from None


def resolve_scale(scales: ScaleSpec, dataset: str, raw: float) -> tuple[float, float]:
    """Scale for a dataset; defaults to (0, 100) but refuses to guess for raw > 100."""
    if dataset in scales.scales:
        return scales.scales[dataset]
    if raw > DEFAULT_SCALE[1]:
        raise CoreliteError(
            f"dataset {dataset!r}: score {raw} exceeds the default (0, 100) scale; "
            "configure an explicit scale"
        )
    return DEFAULT_SCALE


def normalize_score(raw: float, scale: tuple[float, float]) -> float:
    """Affine rescale to 0-100, clamped; judge-style metrics may exceed declared maxima."""
    lo, hi = scale
    if not hi > lo:
        raise CoreliteError("scale max must exceed min")
    value = 100.0 * (raw - lo) / (hi - lo)
    return min(100.0, max(0.0, value))


class AggregateResult(Record):
    __slots__ = ("per_model", "weighting")  # "unweighted" | "instance_weighted"


class CorrelationResult(Record):
    # method: "pearson" | "spearman"
    __slots__ = ("per_dataset", "method", "sample_count", "undefined_reason")


def aggregate(
    scores: ScoreTable,
    scales: ScaleSpec,
    weighting: str = "unweighted",
) -> AggregateResult:
    """Normalize each dataset's score to 0-100 and average per model."""
    if weighting not in ("unweighted", "instance_weighted"):
        raise CoreliteError(f"unknown weighting {weighting!r}")
    if not scores.entries:
        raise CoreliteError("score table is empty")

    weighted = weighting == "instance_weighted"
    per_model: dict[str, float] = {}
    for model in scores.models():
        # The unweighted mean is the weighted one with every weight 1.
        total = weight_sum = 0
        for dataset in sorted(d for m, d in scores.entries if m == model):
            key = (model, dataset)
            raw = scores.entries[key]
            value = normalize_score(raw, resolve_scale(scales, dataset, raw))
            if weighted and key not in scores.counts:
                raise CoreliteError(
                    f"instance-weighted aggregation needs a count for {key}"
                )
            weight = scores.counts[key] if weighted else 1
            total += weight * value
            weight_sum += weight
        per_model[model] = total / weight_sum
    return AggregateResult(per_model, weighting)


def pearson(x, y) -> float:
    """Product-moment correlation with 64-bit accumulation."""
    import numpy as np

    x = np.asarray(list(x), dtype=np.float64)
    y = np.asarray(list(y), dtype=np.float64)
    if x.shape != y.shape:
        raise CoreliteError(f"length mismatch: {x.size} vs {y.size}")
    if x.size < 2:
        raise CoreliteError("correlation needs at least 2 points")
    if x.min() == x.max() or y.min() == y.max():  # exact, unlike a mean's deviations
        raise CoreliteError("undefined correlation: constant input")
    with np.errstate(all="ignore"):  # an overflow shows as a non-finite sum
        xc = x - x.mean()
        yc = y - y.mean()
        sxy, sxx, syy = float(xc @ yc), float(xc @ xc), float(yc @ yc)
    denom = math.sqrt(sxx * syy)
    if not (math.isfinite(sxy) and math.isfinite(denom)):
        raise CoreliteError("undefined correlation: sums not finite in float64")
    if min(sxx, syy, sxx * syy) < sys.float_info.min:  # subnormal or 0
        raise CoreliteError("undefined correlation: sums underflow float64")
    return sxy / denom


def _average_ranks(v: np.ndarray) -> np.ndarray:
    """Ranks 1..n with ties assigned the mean of their rank range."""
    import numpy as np

    # A run of equal values ending at sorted position j (1-based) covers
    # ranks j - count + 1 .. j, whose mean is j - (count - 1) / 2.
    _, inverse, counts = np.unique(v, return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - (counts - 1) / 2.0)[inverse]


def spearman(x, y) -> float:
    """Rank correlation: pearson over average-ranked data."""
    import numpy as np

    x = np.asarray(list(x), dtype=np.float64)
    y = np.asarray(list(y), dtype=np.float64)
    return pearson(_average_ranks(x), _average_ranks(y))


_METHODS = {"pearson": pearson, "spearman": spearman}


def correlate_lite(
    full: ScoreTable, lite: ScoreTable, method: str = "pearson"
) -> CorrelationResult:
    """Per-dataset correlation between full-set and lite-set model scores."""
    if method not in _METHODS:
        raise CoreliteError(f"unknown method {method!r}")
    estimator = _METHODS[method]

    datasets = sorted(set(full.datasets()) & set(lite.datasets()))
    per_dataset: dict[str, float | None] = {}
    sample_count: dict[str, int] = {}
    undefined_reason: dict[str, str] = {}
    for dataset in datasets:
        models = sorted(
            {m for m, d in full.entries if d == dataset}
            & {m for m, d in lite.entries if d == dataset}
        )
        sample_count[dataset] = len(models)
        if len(models) < 2:
            per_dataset[dataset] = None
            undefined_reason[dataset] = (
                f"only {len(models)} shared model(s); need at least 2"
            )
            continue
        xs = [full.entries[(m, dataset)] for m in models]
        ys = [lite.entries[(m, dataset)] for m in models]
        try:
            per_dataset[dataset] = estimator(xs, ys)
        except CoreliteError as exc:
            per_dataset[dataset] = None
            undefined_reason[dataset] = str(exc)
    return CorrelationResult(per_dataset, method, sample_count, undefined_reason)
