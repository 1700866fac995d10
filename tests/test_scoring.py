import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corelite import CoreliteError
from corelite.corpus import ScaleSpec, ScoreTable
from corelite.scoring import (
    _average_ranks,
    aggregate,
    correlate_lite,
    load_scales,
    normalize_score,
    pearson,
    resolve_scale,
    spearman,
)


def pearson_oracle(x, y):
    """Direct two-pass formula in plain Python; independent of the implementation."""
    n = len(x)
    mx = sum(x) / n
    my = sum(y) / n
    sxy = sum((a - mx) * (b - my) for a, b in zip(x, y))
    sxx = sum((a - mx) ** 2 for a in x)
    syy = sum((b - my) ** 2 for b in y)
    return sxy / math.sqrt(sxx * syy)


def average_ranks_oracle(v):
    """Tie-averaged ranks by a scan over the sorted values; the _average_ranks oracle."""
    order = np.argsort(v, kind="stable")
    ranks = np.empty(v.size, dtype=np.float64)
    sorted_v = v[order]
    i = 0
    while i < v.size:
        j = i
        while j < v.size and sorted_v[j] == sorted_v[i]:
            j += 1
        ranks[order[i:j]] = (i + j + 1) / 2.0
        i = j
    return ranks


class TestNormalize:
    def test_identity_scale(self):
        assert normalize_score(50.0, (0.0, 100.0)) == 50.0

    def test_endpoints(self):
        assert normalize_score(2800.0, (0.0, 2800.0)) == 100.0
        assert normalize_score(0.0, (0.0, 2800.0)) == 0.0

    def test_mme_value(self):
        assert normalize_score(1841.8, (0.0, 2800.0)) == pytest.approx(65.78, abs=0.01)

    def test_clamping(self):
        assert normalize_score(120.0, (0.0, 100.0)) == 100.0
        assert normalize_score(-5.0, (0.0, 100.0)) == 0.0

    def test_bad_scale(self):
        with pytest.raises(CoreliteError, match="max must exceed min"):
            normalize_score(1.0, (5.0, 5.0))

    @given(
        st.floats(-1e6, 1e6),
        st.floats(-1e5, 1e5),
        st.floats(1e-3, 1e5),
    )
    def test_range_and_monotone(self, raw, lo, width):
        scale = (lo, lo + width)
        value = normalize_score(raw, scale)
        assert 0.0 <= value <= 100.0
        assert normalize_score(raw + 1.0, scale) >= value


class TestResolveScale:
    def test_explicit_scale_used(self):
        scales = ScaleSpec({"mme": (0.0, 2800.0)})
        assert resolve_scale(scales, "mme", 1841.8) == (0.0, 2800.0)

    def test_default_for_percentage(self):
        assert resolve_scale(ScaleSpec({}), "ai2d", 66.6) == (0.0, 100.0)

    def test_refuses_to_guess(self):
        with pytest.raises(CoreliteError, match="mme"):
            resolve_scale(ScaleSpec({}), "mme", 1841.8)


class TestAggregate:
    def _table(self, entries, counts=None):
        return ScoreTable(entries, counts or {})

    def test_single_dataset(self):
        table = self._table({("m1", "ai2d"): 66.6})
        result = aggregate(table, ScaleSpec({}))
        assert result.per_model["m1"] == 66.6

    def test_hand_mean(self):
        table = self._table({("m1", "a"): 40.0, ("m1", "b"): 60.0})
        assert aggregate(table, ScaleSpec({})).per_model["m1"] == 50.0

    def test_dataset_permutation_invariant(self):
        a = self._table({("m1", "a"): 40.0, ("m1", "b"): 60.0, ("m1", "c"): 10.0})
        b = self._table({("m1", "c"): 10.0, ("m1", "b"): 60.0, ("m1", "a"): 40.0})
        assert aggregate(a, ScaleSpec({})) == aggregate(b, ScaleSpec({}))

    def test_instance_weighted(self):
        table = self._table(
            {("m1", "a"): 40.0, ("m1", "b"): 60.0},
            {("m1", "a"): 300, ("m1", "b"): 100},
        )
        result = aggregate(table, ScaleSpec({}), weighting="instance_weighted")
        assert result.per_model["m1"] == pytest.approx(45.0)

    def test_weighted_missing_count(self):
        table = self._table({("m1", "a"): 40.0})
        with pytest.raises(CoreliteError, match="count"):
            aggregate(table, ScaleSpec({}), weighting="instance_weighted")

    def test_unweighted_ignores_counts(self):
        with_counts = self._table(
            {("m1", "a"): 40.0, ("m1", "b"): 60.0}, {("m1", "a"): 999}
        )
        without = self._table({("m1", "a"): 40.0, ("m1", "b"): 60.0})
        assert (
            aggregate(with_counts, ScaleSpec({})).per_model
            == aggregate(without, ScaleSpec({})).per_model
        )

    @given(
        st.dictionaries(
            st.tuples(st.sampled_from("xyz"), st.sampled_from("abcde")),
            st.tuples(st.floats(0.0, 100.0), st.integers(1, 10**6)),
            min_size=1,
        ),
        st.booleans(),
    )
    def test_matches_per_weighting_formulas(self, rows, weighted):
        table = self._table(
            {key: raw for key, (raw, _) in rows.items()},
            {key: count for key, (_, count) in rows.items()},
        )
        weighting = "instance_weighted" if weighted else "unweighted"
        result = aggregate(table, ScaleSpec({}), weighting=weighting)
        for model, value in result.per_model.items():
            keys = sorted(key for key in rows if key[0] == model)
            scores = [normalize_score(rows[key][0], (0.0, 100.0)) for key in keys]
            if weighted:
                counts = [rows[key][1] for key in keys]
                expected = sum(w * v for w, v in zip(counts, scores)) / sum(counts)
            else:
                expected = sum(scores) / len(scores)
            assert value == expected  # bit for bit: same additions, same order

    def test_output_in_range(self):
        table = self._table(
            {("m1", "mme"): 1841.8, ("m1", "ai2d"): 66.6, ("m2", "ai2d"): 0.0}
        )
        result = aggregate(table, ScaleSpec({"mme": (0.0, 2800.0)}))
        assert all(0.0 <= v <= 100.0 for v in result.per_model.values())


class TestPearson:
    def test_identity(self):
        assert pearson([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == pytest.approx(1.0)

    def test_perfect_negative_affine(self):
        x = [1.0, 2.0, 5.0]
        y = [-2.0 * v + 3.0 for v in x]
        assert pearson(x, y) == pytest.approx(-1.0)

    def test_hand_value(self):
        expected = 3.0 / math.sqrt(2.0 * 14.0 / 3.0)
        assert pearson([1, 2, 3], [1, 2, 4]) == pytest.approx(expected, abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(CoreliteError, match="length mismatch"):
            pearson([1.0, 2.0], [1.0])

    def test_constant_input(self):
        with pytest.raises(CoreliteError, match="undefined correlation"):
            pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    @pytest.mark.parametrize(
        "x,y",
        [
            ([1e308, 1.7e308, 1.5e308], [1.0, 3.0, 2.0]),  # the mean overflows
            ([1e160, 3e160, 2e160], [1.0, 3.0, 2.0]),  # x's sum of squares
            ([1e100, 3e100, 2e100], [1e100, 3e100, 2e100]),  # their product
        ],
        ids=["mean", "sum-of-squares", "product"],
    )
    def test_overflow_undefined(self, x, y):
        # A non-finite sum must give neither NaN nor 0 (a finite sum over inf).
        with pytest.raises(CoreliteError, match="undefined correlation: sums not"):
            pearson(x, y)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(2, 100), st.integers(0, 2**32 - 1))
    def test_matches_oracle_and_bounded(self, n, bits):
        rng = np.random.default_rng(bits)
        x = rng.uniform(-10, 10, size=n)
        y = rng.uniform(-10, 10, size=n)
        if np.ptp(x) == 0 or np.ptp(y) == 0:
            return
        r = pearson(x, y)
        assert abs(r) <= 1.0 + 1e-12
        assert r == pytest.approx(pearson_oracle(list(x), list(y)), abs=1e-12)

    @given(
        st.floats(0.1, 10.0),
        st.floats(-5.0, 5.0),
        st.floats(0.1, 10.0),
        st.floats(-5.0, 5.0),
        st.integers(0, 2**32 - 1),
    )
    def test_affine_invariance(self, a, b, c, d, bits):
        rng = np.random.default_rng(bits)
        x = rng.uniform(-10, 10, size=20)
        y = rng.uniform(-10, 10, size=20)
        assert pearson(a * x + b, c * y + d) == pytest.approx(
            pearson(x, y), abs=1e-9
        )


class TestSpearman:
    def test_monotone_increasing(self):
        assert spearman([1, 2, 3, 4], [10, 20, 25, 90]) == pytest.approx(1.0)

    def test_monotone_decreasing(self):
        assert spearman([1, 2, 3, 4], [9, 7, 4, 2]) == pytest.approx(-1.0)

    def test_hand_ranks(self):
        assert spearman([1, 2, 3], [10, 30, 20]) == pytest.approx(0.5)

    def test_tie_mean_ranks(self):
        # x ranks (1.5, 1.5, 3); equal inputs correlate exactly.
        assert spearman([5, 5, 9], [5, 5, 9]) == pytest.approx(1.0)

    @given(st.lists(st.sampled_from([-2.0, -0.5, -0.0, 0.0, 1.0, 3.5]), max_size=30))
    def test_average_ranks_match_oracle(self, values):
        v = np.asarray(values, dtype=np.float64)
        assert _average_ranks(v).tobytes() == average_ranks_oracle(v).tobytes()

    def test_signed_zeros_tie(self):
        assert _average_ranks(np.array([0.0, -0.0, 1.0])).tolist() == [1.5, 1.5, 3.0]

    @given(st.integers(0, 2**32 - 1))
    def test_monotone_transform_invariance(self, bits):
        rng = np.random.default_rng(bits)
        x = rng.uniform(-5, 5, size=15)
        y = rng.uniform(-5, 5, size=15)
        assert spearman(np.exp(x), y) == pytest.approx(spearman(x, y), abs=1e-12)
        assert spearman(x, y**3) == pytest.approx(spearman(x, y), abs=1e-12)


class TestCorrelateLite:
    def _tables(self):
        full = ScoreTable(
            {
                ("m1", "ai2d"): 60.0,
                ("m2", "ai2d"): 70.0,
                ("m3", "ai2d"): 80.0,
                ("m1", "mme"): 1500.0,
                ("m2", "mme"): 1700.0,
                ("m3", "mme"): 1900.0,
            }
        )
        lite = ScoreTable(
            {
                ("m1", "ai2d"): 61.0,
                ("m2", "ai2d"): 71.5,
                ("m3", "ai2d"): 79.0,
                ("m1", "mme"): 1490.0,
                ("m2", "mme"): 1710.0,
                ("m3", "mme"): 1880.0,
            }
        )
        return full, lite

    def test_identical_tables(self):
        full, _ = self._tables()
        result = correlate_lite(full, full)
        assert all(r == pytest.approx(1.0) for r in result.per_dataset.values())

    def test_affine_lite(self):
        full, _ = self._tables()
        lite = ScoreTable({k: 0.5 * v + 3.0 for k, v in full.entries.items()})
        result = correlate_lite(full, lite)
        assert all(r == pytest.approx(1.0) for r in result.per_dataset.values())

    def test_two_models_forced_unit(self):
        full = ScoreTable({("m1", "a"): 10.0, ("m2", "a"): 20.0})
        lite = ScoreTable({("m1", "a"): 30.0, ("m2", "a"): 25.0})
        result = correlate_lite(full, lite)
        assert abs(result.per_dataset["a"]) == pytest.approx(1.0)

    def test_single_model_undefined(self):
        full = ScoreTable({("m1", "a"): 10.0})
        lite = ScoreTable({("m1", "a"): 12.0})
        result = correlate_lite(full, lite)
        assert result.per_dataset["a"] is None
        assert "shared model" in result.undefined_reason["a"]

    @pytest.mark.parametrize("method", ["pearson", "spearman"])
    def test_constant_lite_scores_undefined(self, method):
        full = ScoreTable({("m1", "a"): 10.0, ("m2", "a"): 20.0, ("m3", "a"): 30.0})
        lite = ScoreTable({("m1", "a"): 50.0, ("m2", "a"): 50.0, ("m3", "a"): 50.0})
        result = correlate_lite(full, lite, method=method)
        assert result.per_dataset["a"] is None
        assert "constant input" in result.undefined_reason["a"]
        assert result.sample_count["a"] == 3

    def test_overflow_undefined(self):
        full = ScoreTable(
            {("m1", "a"): 1e308, ("m2", "a"): 1.7e308, ("m3", "a"): 1.5e308}
        )
        lite = ScoreTable({("m1", "a"): 1.0, ("m2", "a"): 3.0, ("m3", "a"): 2.0})
        result = correlate_lite(full, lite)
        assert result.per_dataset["a"] is None
        assert "not finite" in result.undefined_reason["a"]

    def test_models_sorted_lexicographically(self):
        full, lite = self._tables()
        result = correlate_lite(full, lite)
        assert result.sample_count == {"ai2d": 3, "mme": 3}

    def test_spearman_method(self):
        full, lite = self._tables()
        result = correlate_lite(full, lite, method="spearman")
        assert result.method == "spearman"
        assert all(r == pytest.approx(1.0) for r in result.per_dataset.values())


class TestLoadScales:
    def test_roundtrip(self, tmp_path):
        p = tmp_path / "scales.json"
        p.write_text('{"mme": {"min": 0, "max": 2800}}')
        spec = load_scales(p)
        assert spec.scales == {"mme": (0.0, 2800.0)}

    def test_missing_max(self, tmp_path):
        p = tmp_path / "scales.json"
        p.write_text('{"mme": {"min": 0}}')
        with pytest.raises(CoreliteError, match="min and max"):
            load_scales(p)

    def test_degenerate_scale(self, tmp_path):
        p = tmp_path / "scales.json"
        p.write_text('{"mme": {"min": 5, "max": 5}}')
        with pytest.raises(CoreliteError, match="max must exceed min"):
            load_scales(p)

    def test_non_object_rejected(self, tmp_path):
        p = tmp_path / "scales.json"
        p.write_text('[{"min": 0, "max": 100}]')
        with pytest.raises(CoreliteError, match="JSON object"):
            load_scales(p)

    def test_non_numeric_bound_rejected(self, tmp_path):
        p = tmp_path / "scales.json"
        p.write_text('{"mme": {"min": "low", "max": 2800}}')
        with pytest.raises(CoreliteError, match="must be numbers"):
            load_scales(p)

    @pytest.mark.parametrize(
        "bound",
        ['"-inf"', '"0"', "true", "null", "-Infinity", "NaN", "1e400", "1" + "0" * 400],
        ids=["str-inf", "str-0", "true", "null", "-Infinity", "NaN", "1e400", "10**400"],
    )
    def test_non_finite_or_quoted_bound_rejected(self, tmp_path, bound):
        p = tmp_path / "scales.json"
        p.write_text(f'{{"mme": {{"min": {bound}, "max": 2800}}}}')
        with pytest.raises(CoreliteError, match="must be numbers"):
            load_scales(p)
        p.write_text(f'{{"mme": {{"min": 0, "max": {bound}}}}}')
        with pytest.raises(CoreliteError, match="must be numbers"):
            load_scales(p)

    def test_range_overflow_rejected(self, tmp_path):
        # Finite bounds whose difference is inf would normalize every score to 0.
        p = tmp_path / "scales.json"
        p.write_text('{"mme": {"min": -1e308, "max": 1e308}}')
        with pytest.raises(CoreliteError, match="by a finite amount"):
            load_scales(p)

    def test_integer_and_float_bounds(self, tmp_path):
        p = tmp_path / "scales.json"
        p.write_text('{"a": {"min": -1, "max": 2.5}, "b": {"min": 0.5, "max": 1e300}}')
        assert load_scales(p).scales == {"a": (-1.0, 2.5), "b": (0.5, 1e300)}
