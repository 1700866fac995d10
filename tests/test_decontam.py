import hashlib
import json
import random
import struct
from collections import Counter
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corelite import CoreliteError
from corelite.corpus import TextDocument, TokenSequence, tokenize_text
from corelite.decontam import (
    ContaminationCategory,
    InstanceOverlap,
    NGI_MAGIC,
    _Reader,
    _split_words,
    build_image_index,
    build_text_index,
    categorize,
    fnv1a64,
    load_index,
    overlap_ratio,
    save_index,
    scan_image,
    scan_text,
)


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


class TestBuildTextIndex:
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
        docs = [doc(f"d{i}", words(9)) for i in range(3)]
        with mock.patch(
            "corelite.decontam.tokenize_text", wraps=tokenize_text
        ) as spy:
            index = build_text_index(docs, freq_threshold=2, hashed=True)
        assert index.meaningless
        assert spy.call_count == len(docs)

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

    def test_wrong_length_rejected(self):
        index = build_text_index([])
        with pytest.raises(CoreliteError, match="tokens"):
            overlap_ratio(("a",), index)


class TestScanText:
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
            for t in (0.0, 0.5, 0.75, 0.76, 1.01)
        ]
        assert pcts == [0.0, 50.0, 50.0, 100.0, 100.0]
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
        counts = report.category_counts()
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
        vocab = [f"v{i}" for i in range(40)]
        train = [
            doc(f"t{i}", " ".join(rng.choices(vocab, k=20))) for i in range(30)
        ]
        bench = [
            doc(f"b{i}", " ".join(rng.choices(vocab, k=20))) for i in range(10)
        ]
        exact = scan_text(bench, build_text_index(train, freq_threshold=2))
        hashed = scan_text(bench, build_text_index(train, freq_threshold=2, hashed=True))
        assert exact == hashed

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

    def test_bad_magic(self, tmp_path):
        (tmp_path / "x.bin").write_bytes(b"WRONG...")
        with pytest.raises(CoreliteError, match="bad magic"):
            load_index(tmp_path / "x.bin")

    def test_truncated(self, tmp_path):
        index = self._text_index()
        save_index(index, tmp_path / "idx.bin")
        raw = (tmp_path / "idx.bin").read_bytes()
        (tmp_path / "idx.bin").write_bytes(raw[:-3])
        with pytest.raises(CoreliteError, match="truncated|trailing"):
            load_index(tmp_path / "idx.bin")


def _forged(tmp_path, n, kind, hashed, body):
    path = tmp_path / "forged.bin"
    path.write_bytes(NGI_MAGIC + struct.pack("<HHIBB", 1, n, 0, kind, hashed) + body)
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
    """The per-key `_split_words` loop that `_Reader.text_table` replaced."""
    (count,) = self.take("<Q")
    table = {}
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
        (table[key],) = struct.unpack("<Q", raw(8))
    return table


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
        grams = data.draw(st.lists(st.lists(_TOKENS, min_size=n, max_size=n),
                                   min_size=1, max_size=6), label="grams")
        keys = [[token_key(t) for t in gram] for gram in grams]
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
