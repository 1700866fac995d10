import itertools
import re
import tempfile
from functools import reduce
from operator import add
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from corelite import CoreliteError
from corelite.coreset import (
    CoresetSelection,
    _mean,
    k_center_greedy,
    subset_gap,
    uniform_index,
)
from corelite.corpus import (
    _NORM_ROWS,
    EmbeddingMatrix,
    load_embeddings,
    save_embeddings,
)
from oracles import brute_force_k_center, coverage_radius, numpy_subset_gap


def emb_1d(points, ids=None):
    data = np.asarray(points, dtype=np.float32).reshape(-1, 1)
    ids = ids or tuple(f"p{i}" for i in range(len(points)))
    return EmbeddingMatrix(tuple(ids), data)


def distance(a, b) -> float:
    """Euclidean distance with 64-bit accumulation: the oracle for coverage_radius."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise CoreliteError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return float(np.sqrt(np.sum((a - b) ** 2)))


def seed_drawing(first, n):
    """The smallest seed whose first center among n points is `first`."""
    return next(s for s in itertools.count() if uniform_index(s, n) == first)


def emb_from(data, ids=None):
    data = np.asarray(data, dtype=np.float32)
    ids = ids or tuple(f"p{i}" for i in range(data.shape[0]))
    return EmbeddingMatrix(tuple(ids), data)


def normalize_rows_oracle(block):
    """Whole-matrix float64 norms, quotients rounded to float32: normalized rows."""
    norms = np.linalg.norm(block.astype(np.float64), axis=1, keepdims=True)
    safe = np.where(norms == 0.0, 1.0, norms)
    return (block / safe).astype(np.float32)


def normalized_load(block):
    """`block` saved as EMB1 and loaded with `normalize=True`; checks shape and dtype."""
    ids = tuple(f"p{i}" for i in range(len(block)))
    with tempfile.TemporaryDirectory() as tmp:
        save_embeddings(EmbeddingMatrix(ids, block), Path(tmp, "e.bin"), Path(tmp, "e.ids"))
        emb = load_embeddings(Path(tmp, "e.bin"), Path(tmp, "e.ids"), normalize=True)
    assert emb.data.dtype == np.float64 and emb.data.shape == block.shape
    return emb


class TestNormalizeRows:
    """`select`'s row normalization, done as the EMB1 payload is read."""

    @settings(max_examples=200, deadline=None)
    @given(
        hnp.arrays(
            np.float32,
            st.tuples(
                st.one_of(st.integers(1, 8), st.sampled_from(
                    [_NORM_ROWS - 1, _NORM_ROWS, _NORM_ROWS + 1, 2 * _NORM_ROWS + 1])),
                st.integers(1, 8),
            ),
            elements=st.floats(width=32, allow_nan=False, allow_infinity=False),
        ),
        st.data(),
    )
    def test_matches_float64_formula(self, block, data):
        rows = len(block)
        zero = data.draw(st.lists(st.booleans(), min_size=rows, max_size=rows))
        block[np.asarray(zero, dtype=bool)] = 0.0
        expected = normalize_rows_oracle(block).astype(np.float64)
        assert normalized_load(block).data.tobytes() == expected.tobytes()

    def test_zero_row_untouched_and_unit_norms(self):
        block = np.array([[0.0, 0.0], [3.0, 4.0]], dtype=np.float32)
        out = normalized_load(block).data
        assert out.tolist() == [[0.0, 0.0], [0.6000000238418579, 0.800000011920929]]

    def test_row_blocks_match_whole_matrix(self):
        # Wide rows (a 32-row block is over 1 MiB) span two full blocks and a
        # partial one, with zero rows at a block's last and the next one's first row.
        d = 8193
        rng = np.random.default_rng(0)
        n = 2 * _NORM_ROWS + 3
        scale = 10.0 ** rng.integers(-20, 20, (n, 1))
        block = (rng.standard_normal((n, d)) * scale).astype(np.float32)
        block[[_NORM_ROWS - 1, _NORM_ROWS]] = 0.0
        expected = normalize_rows_oracle(block).astype(np.float64)
        assert normalized_load(block).data.tobytes() == expected.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(
        hnp.arrays(
            np.float32,
            st.tuples(st.integers(1, 2 * _NORM_ROWS + 2), st.integers(1, 4)),
            elements=st.floats(-1e6, 1e6, width=32),
        ),
        st.data(),
    )
    def test_greedy_matches_plain_greedy_on_normalized_rows(self, block, data):
        k = data.draw(st.integers(1, len(block)))
        seed = data.draw(st.integers(0, 2**32 - 1))
        normalized = k_center_greedy(normalized_load(block), k, seed=seed)
        plain = k_center_greedy(emb_from(normalize_rows_oracle(block)), k, seed=seed)
        assert normalized.center_indices == plain.center_indices
        assert normalized.coverage_radius.hex() == plain.coverage_radius.hex()


class TestDistance:
    def test_self_distance_zero(self):
        assert distance([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_pythagorean(self):
        assert distance([0.0, 0.0], [3.0, 4.0]) == 5.0

    def test_dimension_mismatch(self):
        with pytest.raises(CoreliteError, match="dimension mismatch"):
            distance([1.0], [1.0, 2.0])

    @given(
        st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=8),
        st.integers(0, 2**32 - 1),
    )
    def test_symmetry(self, a, bits):
        rng = np.random.default_rng(bits)
        b = rng.uniform(-1e3, 1e3, size=len(a))
        assert distance(a, b) == distance(b, a)


class TestUniformIndex:
    """Pinned first-center draws: `select`'s center order depends on them."""

    @pytest.mark.parametrize(
        "seed,n,draw",
        [
            (-1, 10, 6),
            (-(2**40) - 7, 1000, 51),
            (2**64 + 5, 7, 3),
            (2**65 + 123, 1000003, 494897),
            (42, 1, 0),
            # n = 2**63 + 1 rejects about half the outputs: seed 0 rejects
            # one, seed 1 three, seed 2 four, seed 3 none.
            (0, 2**63 + 1, 7960286522194355700),
            (1, 2**63 + 1, 8196980753821780235),
            (2, 2**63 + 1, 5747796768693156649),
            (3, 2**63 + 1, 2092789425003139053),
            (0, 2**64, 0xE220A8397B1DCDAF),  # SplitMix64's published first output
        ],
    )
    def test_pinned_draws(self, seed, n, draw):
        assert uniform_index(seed, n) == draw


class TestGreedy:
    def test_k_equals_n(self):
        sel = k_center_greedy(emb_1d([0.0, 3.0, 10.0]), k=3, seed=0)
        assert sorted(sel.center_indices) == [0, 1, 2]
        assert sel.coverage_radius == 0.0

    def test_k1_radius_is_max_distance(self):
        sel = k_center_greedy(emb_1d([0.0, 3.0, 10.0]), k=1, seed=seed_drawing(0, 3))
        assert sel.center_indices == (0,)
        assert sel.coverage_radius == 10.0

    def test_pair_instance_matches_oracle(self):
        e = emb_1d([0.0, 1.0, 8.0, 9.0])
        sel = k_center_greedy(e, k=2, seed=seed_drawing(0, 4))
        assert sel.center_indices == (0, 3)
        assert sel.coverage_radius == 1.0
        assert brute_force_k_center(e, 2).coverage_radius == 1.0

    def test_k_zero_rejected(self):
        with pytest.raises(CoreliteError, match="k must be"):
            k_center_greedy(emb_1d([0.0]), k=0)

    def test_k_above_n_rejected(self):
        with pytest.raises(CoreliteError, match="k must be"):
            k_center_greedy(emb_1d([0.0]), k=2)

    def test_empty_matrix_rejected(self):
        with pytest.raises(CoreliteError, match="empty"):
            k_center_greedy(emb_from(np.zeros((0, 2))), k=1)

    def test_tie_break_lowest_index(self):
        # From center 0, points 1 and 2 are both at distance 5.
        sel = k_center_greedy(emb_1d([0.0, 5.0, -5.0]), k=2, seed=seed_drawing(0, 3))
        assert sel.center_indices == (0, 1)

    def test_duplicate_points_never_picked_twice(self):
        # After centers 0 and 2 every point is at distance 0; a center must
        # not win that tie again.
        e = emb_1d([0.0, 0.0, 5.0, 5.0])
        sel = k_center_greedy(e, k=4, seed=seed_drawing(0, 4))
        assert sel.center_indices == (0, 2, 1, 3)
        assert sel.coverage_radius == 0.0

    def test_determinism_across_workers(self):
        rng = np.random.default_rng(7)
        e = emb_from(rng.standard_normal((300, 6)).astype(np.float32))
        baseline = k_center_greedy(e, k=20, seed=42, workers=1)
        for workers in (2, 8):
            again = k_center_greedy(e, k=20, seed=42, workers=workers)
            assert again.center_indices == baseline.center_indices
            assert again.coverage_radius == baseline.coverage_radius

    def test_prefix_property(self):
        rng = np.random.default_rng(11)
        e = emb_from(rng.standard_normal((40, 3)).astype(np.float32))
        full = k_center_greedy(e, k=10, seed=5)
        for j in (1, 3, 7):
            assert (
                k_center_greedy(e, k=j, seed=5).center_indices
                == full.center_indices[:j]
            )

    def test_radius_monotone_in_k(self):
        rng = np.random.default_rng(13)
        e = emb_from(rng.standard_normal((50, 4)).astype(np.float32))
        radii = [k_center_greedy(e, k=k, seed=3).coverage_radius for k in range(1, 20)]
        assert all(a >= b for a, b in zip(radii, radii[1:]))

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(2, 12),
        st.integers(1, 4),
        st.integers(1, 3),
        st.integers(0, 2**32 - 1),
    )
    def test_two_approximation(self, n, k, d, bits):
        k = min(k, n)
        rng = np.random.default_rng(bits)
        e = emb_from(rng.uniform(-10, 10, size=(n, d)).astype(np.float32))
        greedy = k_center_greedy(e, k, seed=bits)
        optimal = brute_force_k_center(e, k)
        assert greedy.coverage_radius <= 2.0 * optimal.coverage_radius + 1e-9


class TestCoverageRadius:
    def test_all_points_as_centers(self):
        rng = np.random.default_rng(1)
        e = emb_from(rng.standard_normal((10, 3)).astype(np.float32))
        assert coverage_radius(e, range(10)) == 0.0

    def test_derived_pair_instance(self):
        # Min distances to {0, 9} over {0,1,8,9}: [0, 1, 1, 0].
        assert coverage_radius(emb_1d([0.0, 1.0, 8.0, 9.0]), [0, 3]) == 1.0

    def test_monotone_under_center_superset(self):
        rng = np.random.default_rng(2)
        e = emb_from(rng.standard_normal((20, 2)).astype(np.float32))
        small = coverage_radius(e, [0, 5])
        assert coverage_radius(e, [0, 5, 11]) <= small

    def test_empty_centers_rejected(self):
        with pytest.raises(CoreliteError, match="non-empty"):
            coverage_radius(emb_1d([0.0]), [])

    def test_matches_per_point_enumeration(self):
        rng = np.random.default_rng(3)
        data = rng.uniform(-5, 5, size=(15, 2)).astype(np.float32)
        e = emb_from(data)
        centers = [2, 9, 14]
        expected = max(
            min(distance(data[i], data[c]) for c in centers) for i in range(15)
        )
        assert coverage_radius(e, centers) == pytest.approx(expected, rel=1e-12)


class TestBruteForce:
    def test_k_equals_n_zero_radius(self):
        rng = np.random.default_rng(4)
        e = emb_from(rng.standard_normal((5, 2)).astype(np.float32))
        assert brute_force_k_center(e, 5).coverage_radius == 0.0

    def test_derived_enumeration(self):
        # All 6 two-subsets of {0,1,8,9}: optimum {0 or 1, 8 or 9} has radius 1.
        e = emb_1d([0.0, 1.0, 8.0, 9.0])
        sel = brute_force_k_center(e, 2)
        assert sel.coverage_radius == 1.0
        assert sel.center_indices == (0, 2)  # lexicographically smallest tie winner

    def test_guard_on_large_n(self):
        e = emb_from(np.zeros((17, 1), dtype=np.float32))
        with pytest.raises(CoreliteError, match="n ≤ 16"):
            brute_force_k_center(e, 2)

    def test_is_truly_optimal(self):
        rng = np.random.default_rng(5)
        data = rng.uniform(0, 1, size=(8, 2)).astype(np.float32)
        e = emb_from(data)
        sel = brute_force_k_center(e, 3)
        radii = [
            coverage_radius(e, subset)
            for subset in itertools.combinations(range(8), 3)
        ]
        assert sel.coverage_radius == min(radii)


# Finite float64 scores, with signed zeros, subnormals and values whose sums
# overflow to inf (and inf - inf to nan) drawn often.
_EDGE_SCORES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308]
_scores = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False), st.sampled_from(_EDGE_SCORES)
)
# Lengths on either side of the pairwise sum's 8-wide blocks and 128-value leaves.
_score_lists = st.one_of(
    st.lists(_scores, min_size=1, max_size=300),
    st.sampled_from([7, 8, 9, 127, 128, 129, 136, 255, 256, 257]).flatmap(
        lambda n: st.lists(_scores, min_size=n, max_size=n)
    ),
)


def _numpy_mean(values) -> float:
    with np.errstate(all="ignore"):
        return float(np.mean(np.asarray(values, dtype=np.float64)))


class TestMean:
    """The plain-Python mean equals np.mean bit for bit; float.hex tells -0.0 from 0.0."""

    @settings(max_examples=200, deadline=None)
    @given(_score_lists)
    def test_matches_numpy(self, values):
        assert _mean(values).hex() == _numpy_mean(values).hex()

    @pytest.mark.parametrize("n", [1, 7, 8, 9, 128, 129, 256])
    def test_negative_zeros(self, n):
        assert _mean([-0.0] * n).hex() == _numpy_mean([-0.0] * n).hex() == "0x0.0p+0"

    def test_hundred_thousand_values(self):
        values = np.random.default_rng(12).standard_normal(100_000).tolist()
        assert _mean(values).hex() == _numpy_mean(values).hex()
        # A sequential sum rounds differently here, so the order is what is tested.
        assert (reduce(add, values, 0.0) / len(values)).hex() != _mean(values).hex()


class TestSubsetGap:
    def test_constant_scores(self):
        assert subset_gap([4.0] * 6, [1, 2]).gap == 0.0

    def test_full_set_zero(self):
        assert subset_gap([1.0, 2.0, 5.0], [0, 1, 2]).gap == 0.0

    def test_hand_case(self):
        gap = subset_gap([1.0, 0.0, 0.0, 1.0], [0, 3])
        assert gap.full_mean == 0.5
        assert gap.subset_mean == 1.0
        assert gap.gap == 0.5

    def test_empty_subset_rejected(self):
        with pytest.raises(CoreliteError, match="non-empty"):
            subset_gap([1.0], [])

    def test_empty_scores_rejected(self):
        with pytest.raises(CoreliteError, match="non-empty"):
            subset_gap([], [0])

    def test_duplicate_indices_rejected(self):
        with pytest.raises(CoreliteError, match="distinct"):
            subset_gap([1.0, 2.0], [0, 0])

    @pytest.mark.parametrize(
        "scores,subset",
        [([1.7e308, 1.7e308, 1.0], [0, 1]), ([1.7e308, -1.7e308, 1.7e308], [1])],
        ids=["mean", "gap"],
    )
    def test_overflow_rejected(self, scores, subset):
        # The means (or their gap) exceed float64; numpy's warnings stay quiet.
        with pytest.raises(CoreliteError, match="overflow float64"):
            subset_gap(scores, subset)

    @settings(max_examples=200, deadline=None)
    @given(_score_lists, st.data())
    def test_matches_numpy_oracle(self, scores, data):
        n = len(scores)
        subset = data.draw(st.one_of(
            st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True),
            st.lists(st.integers(-1, n), max_size=4),  # empty, repeated, out of range
        ))
        try:
            expected = numpy_subset_gap(scores, subset)
        except CoreliteError as exc:
            with pytest.raises(CoreliteError, match=f"^{re.escape(str(exc))}$"):
                subset_gap(scores, subset)
            return
        got = subset_gap(scores, subset)
        assert [v.hex() for v in got._values()] == [v.hex() for v in expected._values()]


class TestSelectionInvariants:
    def test_distinct_indices_enforced(self):
        with pytest.raises(CoreliteError, match="distinct"):
            CoresetSelection((0, 0), 1.0, k=2, seed=0)

    def test_k_mismatch_enforced(self):
        with pytest.raises(CoreliteError, match="exactly k"):
            CoresetSelection((0,), 1.0, k=2, seed=0)

    def test_negative_radius_enforced(self):
        with pytest.raises(CoreliteError, match="coverage radius must be non-negative"):
            CoresetSelection((0,), -1.0, k=1, seed=0)
