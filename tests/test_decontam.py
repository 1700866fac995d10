import hashlib
import json
import os
import random
import struct
import sys
import threading
import tracemalloc
from collections import Counter
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from corelite import CoreliteError, decontam
from corelite.corpus import TextDocument, TokenSequence, load_token_corpus, tokenize_text
from corelite.decontam import (
    ContaminationCategory,
    InstanceOverlap,
    NGI_MAGIC,
    _BATCH,
    _Reader,
    _split_words,
    build_image_index,
    build_text_index,
    categorize,
    fnv1a64_many,
    hash_text_ngram,
    load_index,
    save_index,
    scan_image,
    scan_text,
)
from oracles import fnv1a64, ngi1_bytes, overlap_ratio


def doc(doc_id, text):
    return TextDocument(doc_id, text)


def words(n, prefix="w"):
    return " ".join(f"{prefix}{i}" for i in range(n))


def seq(seq_id, tokens):
    return TokenSequence(seq_id, tuple(tokens))


def token_key(token):
    """A text token's NGI1 encoding: u32 byte length, then its UTF-8."""
    raw = token.encode("utf-8")
    return struct.pack("<I", len(raw)) + raw


def text_key(tokens):
    """An exact text n-gram key: its tokens' encodings, in order."""
    return b"".join(map(token_key, tokens))


def oracle_windows(text, n, hashed):
    """(key, token keys) per n-gram window of `text`, as FNV-1a when hashed."""
    key = fnv1a64 if hashed else bytes
    encoded = [token_key(t) for t in tokenize_text(text)]
    windows = [encoded[pos : pos + n] for pos in range(len(encoded) - n + 1)]
    return [(key(b"".join(w)), [key(t) for t in w]) for w in windows]


def text_index_oracle(train, n, freq_threshold, hashed):
    """Table, meaningless keys and tokens, one window of one document at a time.

    One rule for both modes: the meaningless tokens are the tokens of every
    window whose key ends above the threshold, as FNV-1a when hashed.
    """
    windows = [w for d in train for w in oracle_windows(d.text, n, hashed)]
    table = Counter(k for k, _ in windows)
    meaningless = {k for k, c in table.items() if c > freq_threshold}
    tokens = {t for k, w in windows if k in meaningless for t in w}
    return dict(table), meaningless, tokens


def text_scan_oracle(train, bench, n, freq_threshold, hashed, ratio_threshold):
    """(text_hit, matched_windows) per id: `overlap_ratio` one window at a time."""
    table, meaningless, tokens = text_index_oracle(train, n, freq_threshold, hashed)
    index = SimpleNamespace(n=n, meaningless_tokens=tokens)
    found = {}
    for d in bench:
        matched = sum(
            1
            for k, w in oracle_windows(d.text, n, hashed)
            if k in table and k not in meaningless
            and overlap_ratio(w, index) < ratio_threshold
        )
        found[d.id] = (matched > 0, matched)
    return found


class TestBuildTextIndex:
    @settings(max_examples=300, deadline=None)
    @given(
        texts=st.lists(st.lists(st.sampled_from("abc"), max_size=10).map(" ".join),
                       min_size=1, max_size=4),
        picks=st.lists(st.integers(0, 3), max_size=16),
        n=st.integers(1, 3),
        freq_threshold=st.integers(1, 6),
        hashed=st.booleans(),
    )
    def test_repeated_texts_match_one_document_at_a_time(
        self, texts, picks, n, freq_threshold, hashed
    ):
        # Copies of a text count together, so a threshold can fall inside one
        # text's multiplicity: the result must not tell.
        train = [doc(f"d{i}", texts[p % len(texts)]) for i, p in enumerate(picks)]
        index = build_text_index(train, n=n, freq_threshold=freq_threshold, hashed=hashed)
        got = (index.table, index.meaningless, index.meaningless_tokens)
        assert got == text_index_oracle(train, n, freq_threshold, hashed)

    def test_short_document_emits_nothing(self):
        index = build_text_index([doc("a", words(7))])
        assert index.table == {}

    def test_exactly_one_window(self):
        index = build_text_index([doc("a", words(8))])
        assert len(index.table) == 1
        assert next(iter(index.table.values())) == 1

    def test_meaningless_threshold_boundary(self):
        # "more than 10 times": count 10 stays meaningful, count 11 does not.
        ten = [doc(f"t{i}", words(8)) for i in range(10)]
        eleven = [doc(f"e{i}", words(8, "x")) for i in range(11)]
        index = build_text_index(ten + eleven, freq_threshold=10)
        key_ten = text_key(f"w{i}" for i in range(8))
        key_eleven = text_key(f"x{i}" for i in range(8))
        assert index.table[key_ten] == 10
        assert index.table[key_eleven] == 11
        assert key_ten not in index.meaningless
        assert key_eleven in index.meaningless
        assert token_key("x0") in index.meaningless_tokens
        assert token_key("w0") not in index.meaningless_tokens

    @pytest.mark.parametrize("hashed", [False, True], ids=["exact", "hashed"])
    def test_order_independence(self, hashed):
        # Windows near a document's start reach count 3 and are meaningless;
        # reversing the corpus moves the document where each crosses 2.
        docs = [doc(f"d{i}", words(12 + i, f"p{i % 3}")) for i in range(9)]
        shuffled = docs[::-1]
        a = build_text_index(docs, freq_threshold=2, hashed=hashed)
        b = build_text_index(shuffled, freq_threshold=2, hashed=hashed)
        assert a.table == b.table
        assert a.meaningless == b.meaningless
        assert a.meaningless_tokens == b.meaningless_tokens
        assert 0 < len(a.meaningless) < len(a.table)

    def test_hashed_build_reads_corpus_once(self):
        # Three copies of one text and one other: each distinct text once.
        docs = [doc(f"d{i}", words(9)) for i in range(3)] + [doc("e", words(9, "e"))]
        with mock.patch(
            "corelite.decontam.tokenize_text", wraps=tokenize_text
        ) as spy:
            index = build_text_index(docs, freq_threshold=2, hashed=True)
        assert index.meaningless
        assert spy.call_count == len({d.text for d in docs}) == 2

    def test_invalid_params(self):
        with pytest.raises(CoreliteError):
            build_text_index([], n=0)
        with pytest.raises(CoreliteError):
            build_text_index([], freq_threshold=0)

    def test_n_beyond_header_field_rejected(self):
        # NGI1 stores n as a u16.
        with pytest.raises(CoreliteError, match="n must be in 1..65535"):
            build_text_index([], n=1 << 16)


class TestOverlapRatio:
    def test_empty_meaningless_set(self):
        index = build_text_index([doc("a", words(8))])
        assert overlap_ratio([token_key(f"w{i}") for i in range(8)], index) == 0.0

    def test_all_tokens_meaningless(self):
        train = [doc(f"d{i}", words(8)) for i in range(11)]
        index = build_text_index(train)
        assert overlap_ratio([token_key(f"w{i}") for i in range(8)], index) == 1.0

    def test_six_of_eight(self):
        train = [doc(f"d{i}", "a b c d e f g h") for i in range(11)]
        index = build_text_index(train)
        assert overlap_ratio(list(map(token_key, "abcdefqr")), index) == 0.75


# Accented words, and CJK text whose every ideograph or kana letter is a token.
SCAN_WORDS = ["a", "b", "c", "é", "naïve", "日本", "語", "かな"]


class TestScanText:
    @settings(max_examples=300, deadline=None)
    @given(
        texts=st.lists(st.lists(st.sampled_from(SCAN_WORDS), max_size=8).map(" ".join),
                       min_size=1, max_size=4),
        picks=st.lists(st.integers(0, 3), max_size=12),
        bench=st.lists(st.lists(st.sampled_from(SCAN_WORDS), max_size=10).map(" ".join),
                       max_size=4),
        n=st.integers(1, 3),
        freq_threshold=st.integers(1, 3),
        ratio_threshold=st.one_of(
            st.sampled_from([1 / 3, 0.5, 2 / 3, 1.0]),
            st.floats(0, 1.01, exclude_min=True),
        ),
        hashed=st.booleans(),
    )
    def test_matches_one_window_at_a_time(
        self, texts, picks, bench, n, freq_threshold, ratio_threshold, hashed
    ):
        # Repeated training texts make meaningless keys and tokens; the bench
        # holds the training texts themselves beside drawn ones.
        train = [doc(f"t{i}", texts[p % len(texts)]) for i, p in enumerate(picks)]
        bench = [doc(f"b{i}", text) for i, text in enumerate(texts + bench)]
        index = build_text_index(train, n=n, freq_threshold=freq_threshold, hashed=hashed)
        report = scan_text(bench, index, ratio_threshold=ratio_threshold)
        got = {k: (v.text_hit, v.matched_windows) for k, v in report.per_instance.items()}
        assert got == text_scan_oracle(train, bench, n, freq_threshold, hashed,
                                       ratio_threshold)

    def test_verbatim_copy_flagged(self):
        body = "alpha beta gamma delta epsilon zeta eta theta iota"
        index = build_text_index([doc("t", body)])
        report = scan_text([doc("b", body)], index)
        assert report.per_instance["b"].text_hit is True
        assert report.per_instance["b"].category is ContaminationCategory.SIMILAR_QUESTION

    def test_disjoint_doc_clean(self):
        index = build_text_index([doc("t", words(20, "train"))])
        report = scan_text([doc("b", words(20, "bench"))], index)
        assert report.per_instance["b"].text_hit is False
        assert report.text_overlap_pct == 0.0

    def test_planted_twenty_percent(self):
        train = [doc(f"t{i}", words(10, f"t{i}x")) for i in range(30)]
        index = build_text_index(train)
        bench = [doc(f"copy{i}", words(10, f"t{i}x")) for i in range(20)]
        bench += [doc(f"clean{i}", words(10, f"c{i}x")) for i in range(80)]
        report = scan_text(bench, index)
        assert report.text_overlap_pct == 20.0
        assert sum(v.text_hit for v in report.per_instance.values()) == 20

    def test_meaningless_match_suppressed(self):
        boiler = "please answer the following question about the image"
        train = [doc(f"t{i}", boiler) for i in range(11)]
        index = build_text_index(train)
        report = scan_text([doc("b", boiler)], index)
        assert report.per_instance["b"].text_hit is False

    def test_repeated_ids_count_every_scanned_document(self):
        # The report keeps one record per id, but the percentage is over the
        # scanned documents: here the copy hits and the later "a" does not.
        body = "alpha beta gamma delta epsilon zeta eta theta iota"
        index = build_text_index([doc("t", body)])
        report = scan_text([doc("a", body), doc("a", words(9)), doc("b", "x")], index)
        assert report.text_overlap_pct == 100.0 / 3
        assert list(report.per_instance) == ["a", "b"]
        assert report.per_instance["a"].text_hit is False

    def test_nan_ratio_threshold_rejected(self):
        # Every comparison with NaN is false, so a verbatim copy would pass as clean.
        body = "alpha beta gamma delta epsilon zeta eta theta iota"
        index = build_text_index([doc("t", body)])
        with pytest.raises(CoreliteError, match="ratio_threshold must not be NaN"):
            scan_text([doc("b", body)], index, ratio_threshold=float("nan"))

    @pytest.mark.parametrize("threshold", [0.0, -1.0, float("inf"), float("-inf")])
    def test_threshold_not_finite_and_positive_rejected(self, threshold):
        # No overlap ratio is below 0, so at 0 a verbatim copy would pass as clean.
        body = "alpha beta gamma delta epsilon zeta eta theta iota"
        index = build_text_index([doc("t", body)])
        with pytest.raises(CoreliteError, match="must be finite and above 0"):
            scan_text([doc("b", body)], index, ratio_threshold=threshold)

    def test_threshold_monotonicity(self):
        boiler = "m0 m1 m2 m3 m4 m5 m6 m7"
        mixed = "m0 m1 m2 m3 m4 m5 q0 q1"  # 6 of 8 tokens meaningless
        fresh = "a0 a1 a2 a3 a4 a5 a6 a7"
        train = [doc(f"t{i}", boiler) for i in range(11)]
        train += [doc("mix", mixed), doc("fresh", fresh)]
        index = build_text_index(train, freq_threshold=10)
        bench = [doc("b_mix", mixed), doc("b_fresh", fresh)]
        pcts = [
            scan_text(bench, index, ratio_threshold=t).text_overlap_pct
            for t in (0.5, 0.75, 0.76, 1.01)
        ]
        assert pcts == [50.0, 50.0, 100.0, 100.0]
        assert pcts == sorted(pcts)


class TestImageIndex:
    def test_window_count(self):
        index = build_image_index([seq("a", range(32))])
        assert len(index.table) == 25
        assert all(c == 1 for c in index.table.values())

    def test_duplicate_training_images(self):
        index = build_image_index([seq("a", range(32)), seq("b", range(32))])
        assert all(c == 2 for c in index.table.values())
        assert len(index.exact_sequences) == 1

    def test_empty_corpus(self):
        index = build_image_index([])
        assert index.table == {}
        assert index.exact_sequences == frozenset()


class TestScanImage:
    def test_exact_duplicate(self):
        index = build_image_index([seq("t", range(32))])
        report = scan_image([seq("b", range(32))], index)
        inst = report.per_instance["b"]
        assert inst.exact_image and inst.image_hit
        assert inst.matched_windows == 25
        assert inst.category is ContaminationCategory.DUPLICATE_IMAGE

    def test_disjoint_alphabet(self):
        index = build_image_index([seq("t", range(32))])
        report = scan_image([seq("b", range(100, 132))], index)
        assert report.per_instance["b"].image_hit is False
        assert report.image_overlap_pct == 0.0

    def test_single_shared_window(self):
        train = seq("t", range(32))
        bench_tokens = list(range(8)) + list(range(200, 224))
        index = build_image_index([train])
        report = scan_image([seq("b", bench_tokens)], index)
        inst = report.per_instance["b"]
        assert inst.image_hit and not inst.exact_image
        assert inst.matched_windows == 1
        assert inst.category is ContaminationCategory.SIMILAR_IMAGE

    def test_category_conservation(self):
        index = build_image_index([seq("t", range(32))])
        bench = [
            seq("dup", range(32)),
            seq("sim", list(range(8)) + list(range(300, 324))),
            seq("clean", range(100, 132)),
        ]
        report = scan_image(bench, index)
        counts = Counter(inst.category for inst in report.per_instance.values())
        assert sum(counts.values()) == len(bench)
        assert counts[ContaminationCategory.DUPLICATE_IMAGE] == 1
        assert counts[ContaminationCategory.SIMILAR_IMAGE] == 1
        assert counts[ContaminationCategory.CLEAN] == 1


class TestCategorize:
    def test_clean(self):
        assert categorize(False, False, False) is ContaminationCategory.CLEAN

    def test_duplicate_wins(self):
        assert categorize(True, True, True) is ContaminationCategory.DUPLICATE_IMAGE

    def test_similar_question(self):
        assert categorize(True, False, False) is ContaminationCategory.SIMILAR_QUESTION

    def test_similar_image_over_text(self):
        assert categorize(True, True, False) is ContaminationCategory.SIMILAR_IMAGE

    def test_inconsistent_flags(self):
        with pytest.raises(CoreliteError, match="exact_image"):
            categorize(False, False, True)

    def test_instance_derives_its_category(self):
        inst = InstanceOverlap(text_hit=True, image_hit=True, exact_image=False,
                               matched_windows=3)
        assert inst.category is ContaminationCategory.SIMILAR_IMAGE
        with pytest.raises(CoreliteError, match="exact_image"):
            InstanceOverlap(False, False, True, 0)

    def test_category_is_a_str(self):
        # JSON writes a category as its value, and `.value` still works.
        category = ContaminationCategory.SIMILAR_QUESTION
        assert json.dumps({"c": category}) == '{"c": "similar_question"}'
        assert ContaminationCategory.CLEAN.value == "clean"


class TestHashMode:
    def test_fnv1a_reference_values(self):
        # Published FNV-1a 64-bit vectors.
        assert fnv1a64(b"") == 0xCBF29CE484222325
        assert fnv1a64(b"a") == 0xAF63DC4C8601EC8C

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_text_reports_match_exact_mode(self, bits):
        rng = random.Random(bits)
        # Accented and CJK words give tokens of multi-byte UTF-8.
        vocab = [f"v{i}" for i in range(40)] + [
            "café", "naïve", "zürich", "straße", "中", "文", "日本", "データ",
        ]
        train = [
            doc(f"t{i}", " ".join(rng.choices(vocab, k=20))) for i in range(30)
        ]
        train += [doc("copy1", train[0].text), doc("copy2", train[0].text)]
        bench = [
            doc(f"b{i}", " ".join(rng.choices(vocab, k=20))) for i in range(10)
        ]
        # Random 8-grams almost never recur, so splice training text into the
        # bench: windows then hit, and the meaningless tokens of the three
        # copies of t0 push some of them past the ratio threshold.
        for i in range(5):
            shared = rng.choice(train[1:30]).text.split()[i : i + 10]
            bench.append(doc(f"s{i}", " ".join(shared + rng.choices(vocab, k=6))))
        exact = scan_text(bench, build_text_index(train, freq_threshold=2))
        hashed = scan_text(bench, build_text_index(train, freq_threshold=2, hashed=True))
        assert exact == hashed
        assert any(r.matched_windows for r in exact.per_instance.values())

    @pytest.mark.parametrize("text", [words(8), "zürich 中文 naïve straße a b c"])
    def test_hash_text_ngram_is_the_hashed_key(self, text):
        tokens = tokenize_text(text)
        assert len(tokens) == 8
        h = hash_text_ngram(tokens)
        assert h == fnv1a64(text_key(tokens))
        assert list(build_text_index([doc("a", text)], hashed=True).table) == [h]
        assert list(build_text_index([doc("a", text)]).table) == [text_key(tokens)]

    def test_image_reports_match_exact_mode(self):
        rng = random.Random(3)
        train = [
            seq(f"t{i}", [rng.randrange(16) for _ in range(32)]) for i in range(20)
        ]
        bench = [
            seq(f"b{i}", [rng.randrange(16) for _ in range(32)]) for i in range(8)
        ] + [seq("dup", train[0].tokens)]
        exact = scan_image(bench, build_image_index(train))
        hashed = scan_image(bench, build_image_index(train, hashed=True))
        assert exact == hashed


class TestFnvLanes:
    """fnv1a64_many, all keys at once, against the byte-at-a-time oracle."""

    # A small alphabet with the padding byte gives prefixes, equal lengths and
    # keys that end in b"\0"; arbitrary bytes give everything else.
    KEYS = st.lists(
        st.one_of(
            st.binary(max_size=40),
            st.lists(st.sampled_from(b"\0\1\xff"), max_size=6).map(bytes),
        ),
        max_size=30,
    )

    @settings(max_examples=300, deadline=None)
    @given(KEYS)
    @example([])
    @example([b"", b""])
    @example([b"a\0", b"a", b"\0", b"", b"\0\0"])  # the padding byte
    @example([b"ab", b"abcd", b"", b"abc", b"a"])  # prefixes of one another
    @example([b"abcd", b"\0\0\0\0", b"wxy\0", b"abcd"])  # all of one length
    def test_matches_the_oracle(self, keys):
        assert fnv1a64_many(keys) == list(map(fnv1a64, keys))

    def test_more_keys_than_one_batch(self):
        rng = random.Random(7)
        keys = [rng.randbytes(rng.randrange(80)) for _ in range(2 * _BATCH + 3)]
        assert fnv1a64_many(keys) == list(map(fnv1a64, keys))

    def test_hashed_build_splits_batches_between_documents(self):
        # Skewed three-word texts repeat some 8-grams past the threshold. The
        # windows before the third document fall short of a batch, its own
        # take them past it, and the last document alone holds more.
        rng = random.Random(11)
        per_doc = _BATCH // 2 - 100
        sizes = [per_doc, per_doc, per_doc, _BATCH + 50]
        assert sum(sizes[:2]) < _BATCH < sum(sizes[:3])
        train = [doc(f"d{i}", " ".join(rng.choices("xyz", [6, 1, 1], k=size + 7)))
                 for i, size in enumerate(sizes)]
        train.append(doc("copy", train[0].text))
        exact = build_text_index(train, freq_threshold=40)
        hashed = build_text_index(train, freq_threshold=40, hashed=True)
        assert hashed.table == {fnv1a64(k): c for k, c in exact.table.items()}
        assert hashed.meaningless == {fnv1a64(k) for k in exact.meaningless}
        assert 0 < len(exact.meaningless) < len(exact.table)
        assert hashed.meaningless_tokens == set(map(fnv1a64, exact.meaningless_tokens))


class TestKeyInvariant:
    """An exact key is its NGI1 bytes; a hashed index keys by their FNV-1a."""

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.lists(st.sampled_from(["a", "b", "ç", "dé", "x1", "ß"]), max_size=14),
            max_size=10,
        ),
        st.integers(1, 4),
        st.integers(1, 3),
    )
    def test_text(self, corpus, n, freq_threshold):
        train = [doc(f"t{i}", " ".join(ws)) for i, ws in enumerate(corpus)]
        exact = build_text_index(train, n=n, freq_threshold=freq_threshold)
        hashed = build_text_index(
            train, n=n, freq_threshold=freq_threshold, hashed=True
        )
        windows = Counter(
            text_key(tokens[i : i + n])
            for tokens in (tokenize_text(d.text) for d in train)
            for i in range(len(tokens) - n + 1)
        )
        assert exact.table == windows
        assert hashed.table == {fnv1a64(k): c for k, c in exact.table.items()}
        assert hashed.meaningless == {fnv1a64(k) for k in exact.meaningless}
        assert hashed.meaningless_tokens == {
            fnv1a64(t) for t in exact.meaningless_tokens
        }

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.lists(st.sampled_from([0, 1, 2, 2**32 - 1]), min_size=32, max_size=32),
            max_size=8,
        ),
        st.integers(1, 32),
    )
    def test_image(self, corpus, n):
        train = [seq(f"i{i}", tokens) for i, tokens in enumerate(corpus)]
        exact = build_image_index(train, n=n)
        hashed = build_image_index(train, n=n, hashed=True)
        windows = Counter(
            struct.pack(f"<{n}I", *tokens[i : i + n])
            for tokens in corpus
            for i in range(32 - n + 1)
        )
        assert exact.table == windows
        assert hashed.table == {fnv1a64(k): c for k, c in exact.table.items()}
        assert exact.exact_sequences == {struct.pack("<32I", *t) for t in corpus}
        assert hashed.exact_sequences == {fnv1a64(k) for k in exact.exact_sequences}


class TestSerialization:
    def _text_index(self, hashed=False):
        train = [doc(f"t{i}", words(12, f"g{i % 3}")) for i in range(40)]
        return build_text_index(train, freq_threshold=5, hashed=hashed)

    @pytest.mark.parametrize("hashed", [False, True])
    def test_text_roundtrip(self, tmp_path, hashed):
        index = self._text_index(hashed)
        save_index(index, tmp_path / "idx.bin")
        assert load_index(tmp_path / "idx.bin") == index

    @pytest.mark.parametrize("hashed", [False, True])
    def test_image_roundtrip(self, tmp_path, hashed):
        rng = random.Random(9)
        train = [
            seq(f"t{i}", [rng.randrange(64) for _ in range(32)]) for i in range(15)
        ]
        index = build_image_index(train, hashed=hashed)
        save_index(index, tmp_path / "idx.bin")
        assert load_index(tmp_path / "idx.bin") == index

    def test_byte_reproducible(self, tmp_path):
        index = self._text_index()
        save_index(index, tmp_path / "a.bin")
        save_index(index, tmp_path / "b.bin")
        assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()

    def test_save_rejects_other_objects(self, tmp_path):
        with pytest.raises(CoreliteError, match="^cannot serialize dict$"):
            save_index({}, tmp_path / "x.bin")
        assert not any(tmp_path.iterdir())

    def test_bad_magic(self, tmp_path):
        (tmp_path / "x.bin").write_bytes(b"WRONG...")
        with pytest.raises(CoreliteError, match="bad magic"):
            load_index(tmp_path / "x.bin")

    # Bytes per entry of each index `_two_entries` saves: an exact text key
    # holds a u32 length and 8 tokens "w0".."w8" of 4 + 2 bytes.
    ENTRY_SIZE = {("text", False): 4 + 8 * 6 + 8, ("text", True): 16,
                  ("image", False): 4 * 8 + 8, ("image", True): 16}

    def _two_entries(self, tmp_path, kind, hashed):
        """A saved index of two or more entries, its bytes and its entry size.

        Entries start at byte 22, after the 14-byte header and the u64 count.
        """
        if kind == "text":
            index = build_text_index([doc("t", words(9))], hashed=hashed)
        else:
            index = build_image_index([seq("s", range(32))], hashed=hashed)
        path = tmp_path / "idx.bin"
        save_index(index, path)
        return path, bytearray(path.read_bytes()), self.ENTRY_SIZE[kind, hashed]

    @pytest.mark.parametrize("fault", ["repeated-key", "count-zero"])
    @pytest.mark.parametrize("kind,hashed", sorted(ENTRY_SIZE))
    def test_bad_entry_rejected(self, tmp_path, kind, hashed, fault):
        # A dict would keep a repeated key's last count, and so hold fewer
        # keys than the header says; no build writes a count of 0, and a scan
        # would still find its key.
        path, data, size = self._two_entries(tmp_path, kind, hashed)
        if fault == "repeated-key":
            data[22 + size : 22 + 2 * size] = data[22 : 22 + size]
        else:
            data[22 + size - 8 : 22 + size] = bytes(8)  # the first entry's count
        path.write_bytes(data)
        with pytest.raises(CoreliteError) as exc:
            load_index(path)
        assert str(exc.value) == f"{path}: index keys must be distinct, counts above 0"

    @pytest.mark.parametrize("kind,hashed", [("text", True), ("image", False),
                                             ("image", True)],
                             ids=["text-hashed", "image-exact", "image-hashed"])
    def test_repeated_trailer_key_rejected(self, tmp_path, kind, hashed):
        # A set would drop the repeat, so the index would hold fewer keys than
        # its trailer says and save back to other bytes.
        if kind == "text":
            index, width, entry = self._text_index(hashed=True), 8, 16
        else:
            images = [seq(f"s{i}", range(i, i + 32)) for i in range(3)]
            index = build_image_index(images, hashed=hashed)
            width, entry = (8, 16) if hashed else (4 * 32, 4 * 8 + 8)
        path = tmp_path / "idx.bin"
        save_index(index, path)
        data = bytearray(path.read_bytes())
        keys = 22 + len(index.table) * entry + 8  # past the entries and the count
        assert struct.unpack_from("<Q", data, keys - 8)[0] >= 2
        data[keys + width : keys + 2 * width] = data[keys : keys + width]
        path.write_bytes(data)
        with pytest.raises(CoreliteError) as exc:
            load_index(path)
        assert str(exc.value) == f"{path}: trailer keys must be distinct"

    @pytest.mark.parametrize("kept", ["all", "none", "faulted", "others"])
    @pytest.mark.parametrize("fault", ["repeated-key", "count-zero", "out-of-order"])
    @pytest.mark.parametrize("kind,hashed", sorted(ENTRY_SIZE))
    def test_bad_entry_rejected_whatever_is_kept(self, tmp_path, kind, hashed, fault,
                                                 kept):
        # The first two entries in file order: a repeat of the first, a count
        # of 0 in the first, or the two swapped. A filtered load reads and
        # checks every entry, so a kept entry fails as an unkept one does.
        path, data, size = self._two_entries(tmp_path, kind, hashed)
        in_file_order = sorted(load_index(path).table,
                               key=lambda k: struct.pack("<Q", k) if hashed else k)
        first = bytes(data[22 : 22 + size])
        second = bytes(data[22 + size : 22 + 2 * size])
        if fault == "repeated-key":
            data[22 + size : 22 + 2 * size] = first
        elif fault == "count-zero":
            data[22 + size - 8 : 22 + size] = bytes(8)
        else:
            data[22 : 22 + 2 * size] = second + first
        path.write_bytes(data)
        faulted = set(in_file_order[:2])
        keep = {"all": None, "none": set(), "faulted": faulted,
                "others": set(in_file_order[2:])}[kept]
        message = ("keys out of order" if fault == "out-of-order"
                   else "index keys must be distinct, counts above 0")
        with pytest.raises(CoreliteError) as exc:
            load_index(path, None if keep is None else lambda _: keep)
        assert str(exc.value) == f"{path}: {message}"

    @pytest.mark.parametrize("kept", ["all", "none"])
    @pytest.mark.parametrize("fault", ["repeated-key", "out-of-order"])
    @pytest.mark.parametrize("kind,hashed", [("text", True), ("image", False),
                                             ("image", True)],
                             ids=["text-hashed", "image-exact", "image-hashed"])
    def test_bad_trailer_rejected_whatever_is_kept(self, tmp_path, kind, hashed,
                                                   fault, kept):
        if kind == "text":
            index, width, entry = self._text_index(hashed=True), 8, 16
        else:
            images = [seq(f"s{i}", range(i, i + 32)) for i in range(3)]
            index = build_image_index(images, hashed=hashed)
            width, entry = (8, 16) if hashed else (4 * 32, 4 * 8 + 8)
        path = tmp_path / "idx.bin"
        save_index(index, path)
        data = bytearray(path.read_bytes())
        keys = 22 + len(index.table) * entry + 8  # past the entries and the count
        first = bytes(data[keys : keys + width])
        second = bytes(data[keys + width : keys + 2 * width])
        data[keys : keys + 2 * width] = (
            first + first if fault == "repeated-key" else second + first
        )
        path.write_bytes(data)
        message = ("keys out of order" if fault == "out-of-order"
                   else "trailer keys must be distinct")
        with pytest.raises(CoreliteError) as exc:
            load_index(path, None if kept == "all" else lambda _: set())
        assert str(exc.value) == f"{path}: {message}"

    @pytest.mark.parametrize("hashed", [False, True], ids=["exact", "hashed"])
    def test_image_freq_threshold_not_zero_rejected(self, tmp_path, hashed):
        path, data, _ = self._two_entries(tmp_path, "image", hashed)
        data[8:12] = struct.pack("<I", 3)  # the header's freq_threshold
        path.write_bytes(data)
        with pytest.raises(CoreliteError) as exc:
            load_index(path)
        assert str(exc.value) == f"{path}: image index freq_threshold is 3, not 0"

    @pytest.mark.parametrize("filtered", [False, True], ids=["full", "filtered"])
    @pytest.mark.parametrize("hashed", [False, True], ids=["exact", "hashed"])
    @pytest.mark.parametrize("kind", ["text", "image"])
    def test_header_fault_before_body_fault(self, tmp_path, kind, hashed, filtered):
        # A text index with freq_threshold 0 and its entries cut short, or an
        # image index with freq_threshold 3 and a repeated key: both loads
        # name the header's fault, and a filtered load never calls `keep`.
        path, data, size = self._two_entries(tmp_path, kind, hashed)
        if kind == "text":
            data[8:12] = struct.pack("<I", 0)
            del data[22 + size - 3 :]  # in the first entry's count
            message = "freq_threshold must be in 1..4294967295"
        else:
            data[8:12] = struct.pack("<I", 3)
            data[22 + size : 22 + 2 * size] = data[22 : 22 + size]
            message = "image index freq_threshold is 3, not 0"
        path.write_bytes(data)

        def keep(_):
            pytest.fail("keep called with a faulty header")

        with pytest.raises(CoreliteError) as exc:
            load_index(path, keep if filtered else None)
        assert str(exc.value) == f"{path}: {message}"

    def test_truncated(self, tmp_path):
        index = self._text_index()
        save_index(index, tmp_path / "idx.bin")
        raw = (tmp_path / "idx.bin").read_bytes()
        (tmp_path / "idx.bin").write_bytes(raw[:-3])
        with pytest.raises(CoreliteError, match="truncated|trailing"):
            load_index(tmp_path / "idx.bin")


def _forged(tmp_path, n, kind, hashed, body):
    # A valid freq_threshold for the kind (10 for text, 0 for image), so the
    # header's other fields and the body hold the faults.
    freq = 10 if kind == 0 else 0
    path = tmp_path / "forged.bin"
    path.write_bytes(NGI_MAGIC + struct.pack("<HHIBB", 1, n, freq, kind, hashed) + body)
    return path


EMPTY_IMAGE_BODY = struct.pack("<QQ", 0, 0)  # no entries, no exact sequences


class TestForgedHeaders:
    def test_unknown_kind(self, tmp_path):
        path = _forged(tmp_path, 8, 9, 0, EMPTY_IMAGE_BODY)
        with pytest.raises(CoreliteError, match="unknown index kind 9"):
            load_index(path)

    def test_hashed_flag_not_boolean(self, tmp_path):
        path = _forged(tmp_path, 8, 1, 7, EMPTY_IMAGE_BODY)
        with pytest.raises(CoreliteError, match="hashed flag 7"):
            load_index(path)

    @pytest.mark.parametrize("n", [0, 33])
    def test_image_n_out_of_range(self, tmp_path, n):
        # One entry (a key of n ids, count 5), then no exact sequences.
        body = struct.pack("<Q", 1) + bytes(4 * n) + struct.pack("<QQ", 5, 0)
        with pytest.raises(CoreliteError, match="n must be in 1..32"):
            load_index(_forged(tmp_path, n, 1, 0, body))

    def test_exact_text_record_cut_in_key_length(self, tmp_path):
        # One entry announced; the file ends 2 bytes into its u32 key length.
        path = _forged(tmp_path, 8, 0, 0, struct.pack("<Q", 1) + b"\x03\x00")
        with pytest.raises(CoreliteError) as exc:
            load_index(path)
        assert str(exc.value) == f"{path}: truncated index file"

    def test_text_n_zero(self, tmp_path):
        path = _forged(tmp_path, 0, 0, 0, struct.pack("<Q", 0))
        with pytest.raises(CoreliteError, match="n must be in 1"):
            load_index(path)

    @pytest.mark.parametrize("hashed", [False, True], ids=["exact", "hashed"])
    def test_text_freq_threshold_zero(self, tmp_path, hashed):
        # At 0 every key would count as meaningless, so no copy would be flagged.
        path = tmp_path / "t.ngi"
        save_index(build_text_index([doc("t", words(10))], hashed=hashed), path)
        data = bytearray(path.read_bytes())
        data[8:12] = struct.pack("<I", 0)  # the header's freq_threshold
        path.write_bytes(data)
        with pytest.raises(CoreliteError) as exc:
            load_index(path)
        assert str(exc.value) == f"{path}: freq_threshold must be in 1..4294967295"

    @pytest.mark.parametrize(
        "n,key,message",
        [
            (1, b"ab", "token length cut short"),
            (1, struct.pack("<I", 3) + b"abc" + b"xy", "token length cut short"),
            (1, struct.pack("<I", 50) + b"abc", "token runs past the key"),
            (2, struct.pack("<I", 3) + b"abc", "key of 1 tokens, expected 2"),
            (1, struct.pack("<I", 1) + b"\xff", "can't decode"),
        ],
        ids=["2-byte-key", "trailing-bytes", "length-past-key", "token-count", "utf8"],
    )
    def test_malformed_exact_text_key(self, tmp_path, n, key, message):
        # One entry with the given key and count 5; exact text has no trailer.
        body = struct.pack("<QI", 1, len(key)) + key + struct.pack("<Q", 5)
        path = _forged(tmp_path, n, 0, 0, body)
        with pytest.raises(CoreliteError, match=message) as exc:
            load_index(path)
        assert str(path) in str(exc.value)


def text_table_oracle(self, n):
    """The per-key `_split_words` loop that `_Reader.text_table` replaced.

    It yields every entry in one (keys, counts) batch.
    """
    (count,) = struct.unpack("<Q", self.raw(8))
    keys, counts = [], []
    raw = self.raw
    for _ in range(count):
        key = raw(struct.unpack("<I", raw(4))[0])
        try:
            tokens = len(_split_words(key))
        except ValueError as exc:
            raise CoreliteError(f"{self.path}: bad text key ({exc})") from None
        if tokens != n:
            raise CoreliteError(
                f"{self.path}: text key of {tokens} tokens, expected {n}"
            )
        keys.append(key)
        counts.append(struct.unpack("<Q", raw(8))[0])
    yield keys, counts


def _load_outcome(path, text_table):
    """load_index's result fields, or its error message, with `text_table`."""
    with mock.patch.object(_Reader, "text_table", text_table):
        try:
            index = load_index(path)
        except CoreliteError as exc:
            return "error", str(exc)
    return "ok", (index.n, index.freq_threshold, index.table, index.meaningless,
                  index.meaningless_tokens)


# Short ASCII and non-ASCII tokens, the empty token, and tokens of 128 bytes
# or more (whose length prefix holds a byte of 0x80 or more, or not).
_TOKENS = st.one_of(
    st.text(max_size=6),
    st.text(st.characters(max_codepoint=0x7F), max_size=4),
    st.builds(lambda c, k: c * k, st.characters(codec="utf-8"),
              st.integers(120, 300)),
)
_KEY_FAULTS = ("cut-length", "past-key", "extra-token", "missing-token", "bad-utf8")
_FAULTS = ("none", "trailing-bytes", "flip-byte", "truncate",
           "bad-key-then-truncated", *_KEY_FAULTS)


@pytest.fixture(scope="module")
def ngi_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("ngi")


class TestFastTextReader:
    """`_Reader.text_table` against the per-key `_split_words` oracle."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_matches_split_words_oracle(self, ngi_dir, data):
        n = data.draw(st.integers(1, 4), label="n")
        # Distinct grams, written in key order: a file whose keys repeat or
        # descend is rejected after its table.
        grams = data.draw(st.lists(st.lists(_TOKENS, min_size=n, max_size=n),
                                   min_size=1, max_size=6, unique_by=tuple),
                          label="grams")
        keys = sorted(([token_key(t) for t in gram] for gram in grams), key=b"".join)
        counts = data.draw(st.lists(st.integers(1, 20), min_size=len(keys),
                                    max_size=len(keys)), label="counts")
        fault = data.draw(st.sampled_from(_FAULTS), label="fault")
        bad = data.draw(st.integers(0, len(keys) - 1), label="bad key")
        parts = keys[bad]
        if fault in ("cut-length", "bad-key-then-truncated"):
            parts.append(data.draw(st.binary(min_size=1, max_size=3)))
        elif fault == "past-key":
            j = data.draw(st.integers(0, n - 1))
            size = len(parts[j]) - 4 + data.draw(st.sampled_from([1, 3, 200, 2**31]))
            parts[j] = struct.pack("<I", min(size, 2**32 - 1)) + parts[j][4:]
        elif fault == "extra-token":
            parts.append(token_key(data.draw(_TOKENS)))
        elif fault == "missing-token":
            parts.pop()
        elif fault == "bad-utf8":
            # Break a multi-byte character, or put a lone 0xff into a token.
            j = data.draw(st.integers(0, n - 1))
            token = bytearray(parts[j])
            high = [i for i in range(4, len(token)) if token[i] >= 0x80]
            if high:
                token[data.draw(st.sampled_from(high))] = 0x41
            else:
                token = struct.pack("<I", len(token) - 3) + bytes(token[4:]) + b"\xff"
            parts[j] = bytes(token)

        body = bytearray(struct.pack("<Q", len(keys)))
        ends = []
        for parts, count in zip(keys, counts):
            key = b"".join(parts)
            body += struct.pack("<I", len(key)) + key
            ends.append(len(body))
            body += struct.pack("<Q", count)
        if fault == "trailing-bytes":
            body += data.draw(st.binary(min_size=1, max_size=9))
        elif fault == "flip-byte":
            i = data.draw(st.integers(0, len(body) - 1))
            body[i] ^= data.draw(st.integers(1, 255))
        elif fault == "truncate":
            del body[data.draw(st.integers(0, len(body) - 1)):]
        elif fault == "bad-key-then-truncated":
            del body[data.draw(st.integers(ends[bad], len(body) - 1)):]

        path = ngi_dir / "fuzz.ngi"
        path.write_bytes(NGI_MAGIC + struct.pack("<HHIBB", 1, n, 10, 0, 0) + body)
        fast = _load_outcome(path, _Reader.text_table)
        assert fast == _load_outcome(path, text_table_oracle)
        if fault in _KEY_FAULTS or fault == "bad-key-then-truncated":
            assert fast[0] == "error" and "truncated" not in fast[1]
        if fault == "none":
            assert fast[0] == "ok"
            assert fast[1][2] == dict(zip(map(b"".join, keys), counts))


GOLDEN_BOILER = (
    "Please answer the following question about the image: naïve café déjà vu"
)
GOLDEN_TEXT = [
    doc(f"t{i}", f"{GOLDEN_BOILER} item {i} of {i * 7} zürich straße {i % 3}")
    for i in range(5)
] + [doc("solo", "a short document with exactly nine words in it")]
GOLDEN_IMAGES = [
    seq(f"i{i}", [(i * 37 + j * 1013) % 70000 for j in range(32)]) for i in range(6)
]
GOLDEN_IMAGES.append(seq("dup", GOLDEN_IMAGES[0].tokens))


class TestStreamedSave:
    """`save_index` writes, chunk by chunk, the bytes of the whole-file oracle."""

    WORDS = ["a", "b", "ab", "ç", "dé", "naïve", "x1", "中", "文", "日本", "データ"]

    def _check(self, index, tmp_path_factory):
        path = tmp_path_factory.mktemp("save") / "idx.bin"
        save_index(index, path)
        assert path.read_bytes() == ngi1_bytes(index)

    @settings(max_examples=80, deadline=None)
    @given(
        corpus=st.lists(st.lists(st.sampled_from(WORDS), max_size=14), max_size=8),
        copies=st.integers(1, 3),
        n=st.integers(1, 9),
        freq_threshold=st.integers(1, 4),
        hashed=st.booleans(),
    )
    @example(corpus=[], copies=1, n=8, freq_threshold=1, hashed=False)
    @example(corpus=[], copies=1, n=8, freq_threshold=1, hashed=True)
    @example(corpus=[["ab", "a", "b"] * 4], copies=3, n=2, freq_threshold=1, hashed=False)
    @example(corpus=[["中", "データ", "a"] * 4], copies=3, n=3, freq_threshold=2, hashed=True)
    def test_text(self, tmp_path_factory, corpus, copies, n, freq_threshold, hashed):
        # Copies push keys above the threshold, so trailers hold tokens.
        train = [doc(f"t{i}", " ".join(ws)) for i, ws in enumerate(corpus * copies)]
        index = build_text_index(train, n=n, freq_threshold=freq_threshold, hashed=hashed)
        self._check(index, tmp_path_factory)

    @settings(max_examples=40, deadline=None)
    @given(
        corpus=st.lists(
            st.lists(st.sampled_from([0, 1, 2**16, 2**32 - 1]), min_size=32, max_size=32),
            max_size=6,
        ),
        n=st.integers(1, 32),
        hashed=st.booleans(),
    )
    @example(corpus=[], n=8, hashed=False)
    @example(corpus=[], n=8, hashed=True)
    def test_image(self, tmp_path_factory, corpus, n, hashed):
        train = [seq(f"i{i}", tokens) for i, tokens in enumerate(corpus)]
        self._check(build_image_index(train, n=n, hashed=hashed), tmp_path_factory)

    @pytest.mark.parametrize("hashed", [False, True])
    def test_fixed_width_records_span_several_chunks(self, tmp_path_factory, hashed):
        rng = random.Random(5)
        images = [seq(f"i{i}", [rng.randrange(2**32) for _ in range(32)]) for i in range(90)]
        index = build_image_index(images, hashed=hashed)
        assert len(index.table) == 90 * 25  # more than two chunks of 1024 records
        self._check(index, tmp_path_factory)
        if hashed:
            texts = [doc(f"t{i}", words(40, f"g{i}")) for i in range(80)]
            self._check(build_text_index(texts, hashed=True), tmp_path_factory)

    @pytest.mark.parametrize("firsts", [range(256), range(0, 256, 5)],
                             ids=["every-bucket", "some-empty"])
    @pytest.mark.parametrize("kind,hashed", [("text", True), ("image", False),
                                             ("image", True)],
                             ids=["text-hashed", "image-exact", "image-hashed"])
    def test_fixed_width_buckets(self, tmp_path_factory, kind, hashed, firsts):
        # Three keys for each first file byte in `firsts`, random above it, so
        # hashes sort by value in another order than by little-endian bytes.
        rng = random.Random(len(firsts))

        def key(first, tokens):
            if hashed:
                return first | rng.getrandbits(56) << 8
            return bytes([first]) + rng.randbytes(4 * tokens - 1)

        table = {key(b, 8): rng.randrange(1, 2**64) for b in firsts for _ in range(3)}
        if kind == "text":
            tokens = [rng.getrandbits(64) for _ in range(20)]
            index = decontam._text_index(8, 3, True, table, tokens)
        else:
            exact = frozenset(key(b, 32) for b in firsts for _ in range(3))
            index = decontam.ImageNGramIndex(8, hashed, table, exact)
        packed = [struct.pack("<Q", k) if hashed else k for k in table]
        assert {p[0] for p in packed} == set(firsts)
        if hashed:
            assert sorted(table) != sorted(table, key=lambda k: struct.pack("<Q", k))
        self._check(index, tmp_path_factory)


class TestGoldenNGI1:
    """NGI1 bytes for every (kind, hashed) pair, pinned by SHA-256.

    The digests were computed by the implementation that kept a separate
    code path per mode; they pin the format, key encodings and sort orders.
    """

    DIGESTS = {
        ("text", False): "1ad87d53ef952c23c7a14334f04f5889153878c4b8a8b90b19f4a3b02bd11f20",
        ("text", True): "164b4c82f3d64b556c18687871937bbb60517441c7a62a198a1a7c935b03c300",
        ("image", False): "2f76aa0fd5999bc3a5810191223eb09c5daf7445c58540ae72025f0dd8d1c358",
        ("image", True): "8677339a59fd87d24ca20415f91373442b92e89ccab885e9793fe56c3dbc47d7",
    }

    def _index(self, kind, hashed):
        if kind == "text":
            return build_text_index(GOLDEN_TEXT, freq_threshold=3, hashed=hashed)
        return build_image_index(GOLDEN_IMAGES, hashed=hashed)

    @pytest.mark.parametrize("kind,hashed", sorted(DIGESTS))
    def test_digest(self, tmp_path, kind, hashed):
        index = self._index(kind, hashed)
        save_index(index, tmp_path / "idx.bin")
        raw = (tmp_path / "idx.bin").read_bytes()
        assert hashlib.sha256(raw).hexdigest() == self.DIGESTS[kind, hashed]
        assert load_index(tmp_path / "idx.bin") == index

    def test_corpus_tells_the_trailer_orders_apart(self):
        # The hashed-text trailer sorts token hashes by integer value, unlike
        # entries, which sort by packed little-endian bytes. The corpus must
        # have enough meaningless tokens for the two orders to differ.
        tokens = self._index("text", True).meaningless_tokens
        # The boilerplate's 11 distinct words, plus "item", which follows it
        # in every document.
        expected = tokenize_text(GOLDEN_BOILER) + ["item"]
        assert tokens == {fnv1a64(token_key(t)) for t in expected}
        assert len(tokens) == 12
        by_value = sorted(tokens)
        by_bytes = sorted(tokens, key=lambda t: struct.pack("<Q", t))
        assert by_value != by_bytes


# --- streamed loads ----------------------------------------------------------


@pytest.fixture(scope="class", params=[1, 7, 64], ids=lambda size: f"read{size}")
def small_reads(request):
    """`load_index` reading a few bytes at a time, so every field crosses a refill."""
    with mock.patch.object(decontam, "_READ_SIZE", request.param):
        yield request.param


@pytest.mark.usefixtures("small_reads")
class TestFastTextReaderSmallReads(TestFastTextReader):
    """The oracle comparison with counts, keys and trailers split across reads."""


@pytest.mark.usefixtures("small_reads")
class TestSerializationSmallReads(TestSerialization):
    """Round trips and entry faults with records split across reads."""


@pytest.mark.usefixtures("small_reads")
class TestForgedHeadersSmallReads(TestForgedHeaders):
    """Header and key faults with fields split across reads."""


def _golden_index(kind, hashed, empty=False):
    """An index over the golden corpus (non-ASCII text keys, a duplicate image)."""
    if kind == "text":
        train = [] if empty else GOLDEN_TEXT
        return build_text_index(train, freq_threshold=3, hashed=hashed)
    return build_image_index([] if empty else GOLDEN_IMAGES, hashed=hashed)


KINDS = [("text", False), ("text", True), ("image", False), ("image", True)]
KIND_IDS = ["text-exact", "text-hashed", "image-exact", "image-hashed"]


@pytest.mark.usefixtures("small_reads")
class TestSmallReads:
    @pytest.mark.parametrize("empty", [False, True], ids=["full", "empty"])
    @pytest.mark.parametrize("kind,hashed", KINDS, ids=KIND_IDS)
    def test_roundtrip(self, tmp_path, kind, hashed, empty):
        index = _golden_index(kind, hashed, empty)
        save_index(index, tmp_path / "idx.bin")
        assert load_index(tmp_path / "idx.bin") == index

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
    def test_pipe_is_read_whole(self, tmp_path):
        index = _golden_index("image", False)
        save_index(index, tmp_path / "idx.bin")
        pipe = tmp_path / "pipe"
        os.mkfifo(pipe)
        raw = (tmp_path / "idx.bin").read_bytes()
        writer = threading.Thread(target=pipe.write_bytes, args=(raw,), daemon=True)
        writer.start()
        assert load_index(pipe) == index
        writer.join(timeout=10)
        assert not writer.is_alive()

    @pytest.mark.parametrize("kind,hashed", KINDS, ids=KIND_IDS)
    def test_every_cut_is_truncated(self, tmp_path, kind, hashed):
        path = tmp_path / "idx.bin"
        save_index(_golden_index(kind, hashed), path)
        raw = path.read_bytes()
        cuts = sorted({*range(4, len(raw), max(1, len(raw) // 40)), len(raw) - 1})
        for cut in cuts:
            path.write_bytes(raw[:cut])
            with pytest.raises(CoreliteError) as exc:
                load_index(path)
            assert str(exc.value) == f"{path}: truncated index file", cut
        path.write_bytes(raw + b"\0")
        with pytest.raises(CoreliteError) as exc:
            load_index(path)
        assert str(exc.value) == f"{path}: trailing bytes in index file"


class TestFilteredLoad:
    """`load_index(path, keep)` is the full load restricted to what `keep` returns."""

    @settings(max_examples=150, deadline=None)
    @given(
        data=st.data(),
        corpus=st.lists(st.lists(st.sampled_from(TestStreamedSave.WORDS), max_size=12),
                        max_size=6),
        copies=st.integers(1, 3),
        n=st.integers(1, 4),
        kind=st.sampled_from(["text", "image"]),
        hashed=st.booleans(),
    )
    def test_matches_the_full_load_restricted(self, ngi_dir, data, corpus, copies, n,
                                              kind, hashed):
        # Copies push text keys above the threshold (meaningless, always kept);
        # image tokens come from the words' positions in the word list.
        if kind == "text":
            train = [doc(f"t{i}", " ".join(ws)) for i, ws in enumerate(corpus * copies)]
            index = build_text_index(train, n=n, freq_threshold=2, hashed=hashed)
            keys = set(index.table)
        else:
            tokens = [[TestStreamedSave.WORDS.index(w) for w in (ws * 32)[:32]]
                      for ws in corpus if ws]
            train = [seq(f"i{i}", t) for i, t in enumerate(tokens * copies)]
            index = build_image_index(train, n=n, hashed=hashed)
            keys = set(index.table) | index.exact_sequences
        path = ngi_dir / "filtered.ngi"
        save_index(index, path)
        full = load_index(path)
        assert full == index
        # Keys of the index, and others it does not hold.
        other = st.integers(0, 2**64 - 1) if hashed else st.binary(max_size=40)
        keep = data.draw(st.sets(st.sampled_from(sorted(keys, key=repr)))
                         if keys else st.just(set()), label="kept keys")
        keep |= data.draw(st.sets(other, max_size=4), label="other keys")
        got = load_index(path, lambda _: keep)
        if kind == "text":
            table = {k: c for k, c in full.table.items()
                     if k in keep or k in full.meaningless}
            assert got == decontam.TextNGramIndex(
                n, 2, hashed, table, full.meaningless, full.meaningless_tokens)
        else:
            table = {k: c for k, c in full.table.items() if k in keep}
            assert got == decontam.ImageNGramIndex(
                n, hashed, table, full.exact_sequences & keep)

    @pytest.mark.parametrize("kind,hashed", KINDS, ids=KIND_IDS)
    def test_scan_reports_as_with_the_full_load(self, tmp_path, kind, hashed):
        path = tmp_path / "idx.bin"
        save_index(_golden_index(kind, hashed), path)
        if kind == "text":
            bench = GOLDEN_TEXT[::2] + [doc("new", "please answer the following x")]
            scan = scan_text
        else:
            bench = GOLDEN_IMAGES[::2] + [seq("new", range(32))]
            scan = scan_image
        index = load_index(path, lambda header: decontam.scan_keys(bench, header))
        assert len(index.table) < len(load_index(path).table)
        assert scan(bench, index) == scan(bench, load_index(path))


@pytest.mark.usefixtures("small_reads")
class TestFilteredLoadSmallReads(TestFilteredLoad):
    """Filtered loads with keys, counts and trailers split across reads."""


def _load_error_and_peak(path, text_table=_Reader.text_table):
    """load_index's error message and tracemalloc peak, with `text_table`."""
    tracemalloc.start()
    try:
        with mock.patch.object(_Reader, "text_table", text_table):
            with pytest.raises(CoreliteError) as exc:
                load_index(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return str(exc.value), peak


class TestBoundedReads:
    """A corrupt size ends in a truncated file, with no read of that size."""

    @pytest.mark.parametrize(
        "kind,hashed,region",
        [*((kind, hashed, "entries") for kind, hashed in KINDS),
         ("text", True, "trailer"), ("image", False, "trailer"), ("image", True, "trailer")],
        ids=[*KIND_IDS, "text-hashed-trailer", "image-exact-trailer", "image-hashed-trailer"],
    )
    def test_entry_count_2_63(self, tmp_path, kind, hashed, region):
        # The entry count, or the trailer's: the entries run on into the
        # trailer and then the end of the file, or the trailer keys do.
        index = _golden_index(kind, hashed)
        path = tmp_path / "idx.bin"
        save_index(index, path)
        data = bytearray(path.read_bytes())
        if region == "entries":
            at = 14
        elif kind == "text":
            at = len(data) - 8 * len(index.meaningless_tokens) - 8
        else:
            at = len(data) - (8 if hashed else 4 * 32) * len(index.exact_sequences) - 8
        data[at : at + 8] = struct.pack("<Q", 2**63)
        path.write_bytes(data)
        message, peak = _load_error_and_peak(path)
        assert message == f"{path}: truncated index file"
        assert peak < 256 * 1024

    @pytest.mark.parametrize("text_table", [_Reader.text_table, text_table_oracle],
                             ids=["fast", "oracle"])
    def test_text_key_length_u32_max(self, tmp_path, text_table):
        body = struct.pack("<QI", 1, 0xFFFFFFFF) + text_key(["a"] * 8)
        path = _forged(tmp_path, 8, 0, 0, body)
        message, peak = _load_error_and_peak(path, text_table)
        assert message == f"{path}: truncated index file"
        assert peak < 256 * 1024


def _traced(fn, *args):
    """fn(*args), and tracemalloc's current and peak bytes once it returns."""
    tracemalloc.start()
    try:
        result = fn(*args)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, current, peak


class TestPeakMemory:
    """Each n-gram table is held once: no file image, record list or table copy."""

    def test_load_holds_no_file_image(self, tmp_path):
        # 20-byte words make the file several times the table's dict.
        rng = random.Random(1)
        vocab = [f"{'x' * 14}{i:06d}" for i in range(3000)]
        train = [doc(f"t{i}", " ".join(rng.choices(vocab, k=60))) for i in range(400)]
        path = tmp_path / "idx.bin"
        save_index(build_text_index(train), path)
        read_size = 64 * 1024
        with mock.patch.object(decontam, "_READ_SIZE", read_size):
            index, current, peak = _traced(load_index, path)
        assert len(index.table) == 400 * 53
        slack = 4 * read_size
        assert peak - current < slack < path.stat().st_size / 8

    @pytest.mark.parametrize("kind,hashed", KINDS, ids=KIND_IDS)
    def test_filtered_load_holds_what_a_scan_can_hit(self, tmp_path, kind, hashed):
        # A scan of 10 documents keeps their keys and the meaningless ones:
        # a small part of an index of about 20,000 keys.
        rng = random.Random(6)
        if kind == "text":
            vocab = [f"w{i}" for i in range(3000)]
            train = [doc(f"t{i}", " ".join(rng.choices(vocab, k=60))) for i in range(400)]
            index = build_text_index(train, hashed=hashed)
        else:
            train = [seq(f"i{i}", [rng.randrange(2**32) for _ in range(32)])
                     for i in range(800)]
            index = build_image_index(train, hashed=hashed)
        path = tmp_path / "idx.bin"
        save_index(index, path)
        bench = train[:5] + train[-5:]
        with mock.patch.object(decontam, "_READ_SIZE", 64 * 1024):
            full, _, full_peak = _traced(load_index, path)
            kept, _, kept_peak = _traced(
                load_index, path, lambda header: decontam.scan_keys(bench, header))
        assert len(kept.table) < len(full.table) / 20
        assert kept_peak < full_peak / 2

    def test_exact_image_save_holds_sorted_keys_and_one_chunk(self, tmp_path):
        rng = random.Random(2)
        train = [seq(f"i{i}", [rng.randrange(2**32) for _ in range(32)])
                 for i in range(1000)]
        index = build_image_index(train)
        _, current, peak = _traced(save_index, index, tmp_path / "idx.bin")
        # The sorted keys and the sort's scratch (up to half as many); then,
        # while a chunk is joined, its 1024 packed 40-byte records and up to
        # three joined chunks: the new one and those its writers still hold.
        keys = sys.getsizeof(sorted(index.table))
        chunk = 1024 * (sys.getsizeof(bytes(40)) + 8 + 3 * 40)
        assert peak - current < 1.5 * keys + chunk + 64 * 1024

    def test_hashed_image_save_holds_one_reference_per_key(self, tmp_path):
        rng = random.Random(2)
        train = [seq(f"i{i}", [rng.randrange(2**32) for _ in range(32)])
                 for i in range(1000)]
        index = build_image_index(train, hashed=True)
        _, current, peak = _traced(save_index, index, tmp_path / "idx.bin")
        # 256 buckets of references to the table's keys (a list grows by up
        # to 1/8), then one bucket's packed records, sorted and joined: not
        # a new object per key.
        refs = sys.getsizeof(list(index.table))
        assert peak - current < 1.5 * refs + 64 * 1024

    @pytest.mark.parametrize("hashed", [False, True], ids=["exact", "hashed"])
    def test_streamed_image_build_holds_no_corpus(self, tmp_path, hashed):
        rng = random.Random(4)
        path = tmp_path / "train.jsonl"
        path.write_text("".join(
            json.dumps({"id": f"i{i}", "tokens": [rng.randrange(2**32) for _ in range(32)]})
            + "\n" for i in range(2000)
        ))
        _, corpus, _ = _traced(lambda: list(load_token_corpus(path)))
        index, current, peak = _traced(
            lambda: build_image_index(load_token_corpus(path), hashed=hashed)
        )
        # The table's last resize holds its old storage (half the new) beside
        # it, and a hashed build one batch of windows and their lanes.
        assert peak - current < 0.5 * sys.getsizeof(index.table) + 1024 * 1024 < corpus

    @pytest.mark.parametrize("kind", ["text", "image"])
    def test_exact_build_holds_one_table(self, kind):
        # A copy of the finished table would add its dict storage (getsizeof)
        # beside it; growing the table in place holds at most its old storage.
        rng = random.Random(3)
        if kind == "text":
            vocab = [f"w{i}" for i in range(3000)]
            train = [doc(f"t{i}", " ".join(rng.choices(vocab, k=60)))
                     for i in range(700)]
            index, current, peak = _traced(build_text_index, train)
        else:
            train = [seq(f"i{i}", [rng.randrange(2**32) for _ in range(32)])
                     for i in range(1400)]
            index, current, peak = _traced(build_image_index, train)
        assert len(index.table) == 35_000 + (2_100 if kind == "text" else 0)
        assert peak - current < 0.8 * sys.getsizeof(index.table)
