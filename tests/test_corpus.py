import ast
import copy
import errno
import io
import json
import math
import os
import pickle
import re
import struct
import sys
import unicodedata
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import corelite
from corelite import CoreliteError
from corelite.corpus import (
    _EINSUM_ROW,
    _NORM_ROWS,
    EmbeddingMatrix,
    ScoreTable,
    TextDocument,
    TokenSequence,
    tokenize_text,
    load_embeddings,
    load_scores,
    load_text_corpus,
    load_token_corpus,
    save_embeddings,
    write_atomic,
)
from corelite.decontam import build_image_index, build_text_index, save_index
from oracles import (
    check_embedding_ids,
    check_token_sequence,
    serial_load,
    unicode_tokenize_text,
)


class TestTokenize:
    def test_empty(self):
        assert tokenize_text("") == []

    def test_case_folding_and_punctuation(self):
        assert tokenize_text("The cat, the CAT.") == ["the", "cat", "the", "cat"]

    def test_mixed_alphanumeric(self):
        assert tokenize_text("GPT-4o scores 92.0") == ["gpt", "4o", "scores", "92", "0"]

    def test_underscore_splits(self):
        assert tokenize_text("foo_bar") == ["foo", "bar"]

    @given(st.text(max_size=200))
    def test_idempotent_on_joined_output(self, text):
        tokens = tokenize_text(text)
        assert tokenize_text(" ".join(tokens)) == tokens

    @pytest.mark.parametrize(
        "text,tokens",
        [("\u212aELVIN 4K", ["kelvin", "4k"]),  # the Kelvin sign lowers to ASCII k
         ("\u0130stanbul", ["i\u0307stanbul"]),  # İ lowers to i and a combining dot
         ("STRAẞE_\u00c9T\u00c9", ["straße", "été"])],
    )
    def test_lowering_picks_the_path(self, text, tokens):
        assert tokenize_text(text) == unicode_tokenize_text(text) == tokens

    @pytest.mark.parametrize(
        "text,tokens",
        [
            ("Café Zürich naïve Ångström", ["café", "zürich", "naïve", "ångström"]),
            ("\u0939\u093f\u0928\u094d\u0926\u0940 \u092d\u093e\u0937\u093e",
             ["\u0939\u093f\u0928\u094d\u0926\u0940", "\u092d\u093e\u0937\u093e"]),
            ("\u0645\u064e\u0631\u0652\u062d\u064e\u0628\u064b\u0627",
             ["\u0645\u064e\u0631\u0652\u062d\u064e\u0628\u064b\u0627"]),
            ("中文abc日本語", ["中", "文", "abc", "日", "本", "語"]),
            ("カタカナ・ひらがな", ["カ", "タ", "カ", "ナ", "ひ", "ら", "が", "な"]),
            ("ア\u3099", ["ア\u3099"]),  # no precomposed form: the mark joins
            ("한국어 문장", ["한국어", "문장"]),  # Hangul words stay whole
            ("\u0e20\u0e32\u0e29\u0e32\u0e44\u0e17\u0e22 \u0e07\u0e48\u0e32\u0e22",
             ["\u0e20\u0e32\u0e29\u0e32\u0e44\u0e17\u0e22",
              "\u0e07\u0e48\u0e32\u0e22"]),  # Thai runs stay whole
            ("a\ud800b \ud800\u0301 \u0301c", ["a", "b", "c"]),  # lone surrogates
        ],
    )
    def test_marks_and_scripts(self, text, tokens):
        nfd = unicodedata.normalize("NFD", text)
        assert tokenize_text(text) == tokenize_text(nfd) == tokens
        assert unicode_tokenize_text(text) == unicode_tokenize_text(nfd) == tokens

    @given(st.one_of(
        st.text(alphabet=st.characters(max_codepoint=127), max_size=200),
        st.text(alphabet=st.sampled_from(
            "aAzZ09_ -.\t\u212a\u0130\u0131\u00e9\u00c9\u00df\u03a3\u03c3"
            "\u4e2d\u0663\u00b2\u0301\u0308\u0939\u093f\u094d\u0e48\u0e07"
            "\u3042\u30a2\u3099\u30fb\u30fc\uac00\u1100\u1161\uf900\U00020000"
            "\u20dd\u0903\ud800\udfff"), max_size=200),
        st.text(max_size=200),
        st.text(alphabet=st.characters(exclude_categories=()), max_size=100),
    ))
    def test_matches_unicode_oracle(self, text):
        assert tokenize_text(text) == unicode_tokenize_text(text)


class TestTextCorpus:
    def test_empty_file(self, tmp_path):
        p = tmp_path / "c.jsonl"
        p.write_text("")
        assert list(load_text_corpus(p)) == []

    def test_order_preserved(self, tmp_path):
        p = tmp_path / "c.jsonl"
        p.write_text(
            '{"id": "a", "text": "hello"}\n{"id": "b", "text": "world"}\n'
        )
        docs = list(load_text_corpus(p))
        assert [d.id for d in docs] == ["a", "b"]
        assert docs[1].text == "world"

    def test_missing_id_names_line(self, tmp_path):
        p = tmp_path / "c.jsonl"
        p.write_text(
            '{"id": "a", "text": "x"}\n{"id": "b", "text": "y"}\n{"text": "z"}\n'
        )
        with pytest.raises(CoreliteError, match="line 3: missing field id"):
            list(load_text_corpus(p))

    def test_duplicate_id_named(self, tmp_path):
        p = tmp_path / "c.jsonl"
        p.write_text('{"id": "a", "text": "x"}\n{"id": "a", "text": "y"}\n')
        with pytest.raises(CoreliteError, match="'a'"):
            list(load_text_corpus(p))

    def test_load_twice_identical(self, tmp_path):
        p = tmp_path / "c.jsonl"
        p.write_text('{"id": "a", "text": "x"}\n{"id": "b", "text": ""}\n')
        assert list(load_text_corpus(p)) == list(load_text_corpus(p))


class TestTokenCorpus:
    def _write(self, tmp_path, records):
        p = tmp_path / "t.jsonl"
        p.write_text("".join(json.dumps(r) + "\n" for r in records))
        return p

    def test_valid_32(self, tmp_path):
        p = self._write(tmp_path, [{"id": "img1", "tokens": list(range(32))}])
        seqs = list(load_token_corpus(p))
        assert len(seqs) == 1
        assert seqs[0].tokens == tuple(range(32))

    def test_wrong_length_names_id(self, tmp_path):
        p = self._write(tmp_path, [{"id": "img7", "tokens": list(range(31))}])
        with pytest.raises(CoreliteError, match="id=img7: length 31, expected 32"):
            list(load_token_corpus(p))

    def test_empty_file(self, tmp_path):
        p = self._write(tmp_path, [])
        assert list(load_token_corpus(p)) == []

    def test_negative_token_rejected(self, tmp_path):
        p = self._write(tmp_path, [{"id": "x", "tokens": [-1] + list(range(31))}])
        with pytest.raises(CoreliteError, match="out of range"):
            list(load_token_corpus(p))


class TestRecordRules:
    """A record type checks its own fields; the JSONL reader adds the line."""

    @pytest.mark.parametrize(
        "field,record,message",
        [
            ("text", {"id": "", "text": "x"}, "document id must be non-empty"),
            ("text", {"id": "a", "text": 7}, "text must be a string"),
            ("tokens", {"id": "a", "tokens": list(range(31))},
             "id=a: length 31, expected 32"),
            ("tokens", {"id": "a", "tokens": [1 << 32] + list(range(31))},
             "id=a: token id 4294967296 out of range"),
            ("tokens", {"id": "a", "tokens": "0" * 32}, "tokens must be a list of integers"),
            ("tokens", {"id": "a", "tokens": [1.0] + list(range(31))},
             "tokens must be a list of integers"),
            ("tokens", {"id": "a", "tokens": [True] + list(range(31))},
             "tokens must be a list of integers"),
            ("text", {"id": "a\ud800", "text": "x"}, "document id holds a lone surrogate"),
            ("tokens", {"id": "\udfffb", "tokens": list(range(32))},
             "sequence id holds a lone surrogate"),
            ("text", {"id": 5, "text": "x"}, "id must be a string"),
            ("tokens", {"id": 5, "tokens": list(range(32))}, "id must be a string"),
        ],
        ids=["empty-id", "text-not-str", "wrong-length", "token-range", "tokens-str",
             "tokens-float", "tokens-bool", "text-id-surrogate", "tokens-id-surrogate",
             "text-id-int", "tokens-id-int"],
    )
    def test_type_rule_and_line(self, tmp_path, field, record, message):
        make, loader, good = {
            "text": (TextDocument, load_text_corpus, "fine"),
            "tokens": (TokenSequence, load_token_corpus, list(range(32))),
        }[field]
        with pytest.raises(CoreliteError, match=f"^{re.escape(message)}$"):
            make(record["id"], record[field])
        p = tmp_path / "c.jsonl"
        lines = [json.dumps({"id": "ok", field: good}), "", json.dumps(record)]
        p.write_text("\n".join(lines) + "\n")
        prefix = re.escape(f"{p}: line 3: ")
        with pytest.raises(CoreliteError, match=f"^{prefix}{re.escape(message)}$"):
            list(loader(p))

    def test_tokens_stored_as_tuple(self):
        assert TokenSequence("a", list(range(32))).tokens == tuple(range(32))


class TestRecordBase:
    """`corelite.Record`: what the frozen dataclasses it replaced gave."""

    def test_fields_by_position_or_keyword(self):
        doc = TextDocument("a", "x")
        assert doc == TextDocument(text="x", id="a") == TextDocument("a", text="x")
        assert doc != TextDocument("a", "y") and doc != ("a", "x")
        assert hash(doc) == hash(TextDocument("a", "x"))
        assert repr(doc) == "TextDocument(id='a', text='x')"
        assert doc._values() == ("a", "x")

    def test_default_factory_runs_per_record(self):
        a, b = ScoreTable({("m", "d"): 1.0}), ScoreTable({("m", "d"): 1.0})
        assert a.counts == {} and a.counts is not b.counts

    @pytest.mark.parametrize("args,kwargs", [
        (("a",), {}), (("a", "x", "z"), {}), (("a",), {"id": "b", "text": "x"}),
        ((), {"id": "a", "text": "x", "title": "t"}),
    ], ids=["missing", "extra", "twice", "unknown"])
    def test_wrong_fields_are_type_errors(self, args, kwargs):
        with pytest.raises(TypeError, match="^TextDocument "):
            TextDocument(*args, **kwargs)

    def test_copies_keep_fields_without_checking_again(self):
        table = ScoreTable({("m", "d"): 1.0}, {("m", "d"): 3})
        for copied in (copy.copy(table), copy.deepcopy(table), pickle.loads(pickle.dumps(table))):
            assert copied == table
        with mock.patch.object(ScoreTable, "_check") as check:
            copy.deepcopy(table)
        check.assert_not_called()

    def test_immutable(self):
        doc = TextDocument("a", "x")
        with pytest.raises(AttributeError, match="immutable"):
            doc.text = "y"
        with pytest.raises(AttributeError, match="immutable"):
            del doc.text
        with pytest.raises(AttributeError):
            doc.title = "t"
        assert doc == TextDocument("a", "x")


# Token values at and around each rule's edge, of every type a JSON list holds.
_EDGE_TOKENS = [0, 1, -1, 2**32 - 1, 2**32, 2**64, -(2**63), True, False, 0.0, 1.5,
                "1", None]


@st.composite
def _token_lists(draw):
    """Mostly 32 valid ids, with a few edge values, 31 or 33 of them, or no list."""
    tokens = draw(st.lists(st.integers(0, 2**32 - 1), min_size=32, max_size=32))
    for _ in range(draw(st.integers(0, 2))):
        tokens[draw(st.integers(0, 31))] = draw(st.sampled_from(_EDGE_TOKENS))
    length = draw(st.sampled_from([32, 32, 32, 31, 33]))
    tokens = (tokens + [draw(st.integers(0, 2**32))])[:length]
    container = draw(st.sampled_from([list, list, tuple, str, dict.fromkeys]))
    return container(tokens) if container is not str else "0" * length


class TestTokenSequenceFastPath:
    """`TokenSequence`'s C-level check against the per-token oracle."""

    @settings(max_examples=400, deadline=None)
    @given(
        seq_id=st.one_of(
            st.text(st.characters(max_codepoint=0x7F), max_size=4),
            st.text(max_size=4),
            st.sampled_from(["\ud800", "a\udfff", "é", "日本", "", 7, None]),
        ),
        tokens=_token_lists(),
    )
    @example(seq_id="a", tokens=[True] + list(range(31)))
    @example(seq_id="a", tokens=[1.0] + list(range(31)))
    @example(seq_id="a", tokens=[-1] + list(range(31)))
    @example(seq_id="a", tokens=list(range(31)) + [2**32])
    @example(seq_id="a", tokens=list(range(31)))
    @example(seq_id="a", tokens=list(range(33)))
    @example(seq_id="é", tokens=list(range(32)))
    @example(seq_id="a\ud800", tokens=list(range(32)))
    def test_matches_the_oracle(self, seq_id, tokens):
        try:
            check_token_sequence(seq_id, tokens)
            expected = None
        except CoreliteError as exc:
            expected = str(exc)
        try:
            made = TokenSequence(seq_id, tokens)
        except CoreliteError as exc:
            assert str(exc) == expected
        else:
            assert expected is None
            assert made.tokens == tuple(tokens) and type(made.tokens) is tuple

    def test_int_subclass_tokens_pass(self):
        # Not a JSON type, so the C-level check falls back to the per-token one.
        class Id(int):
            pass

        assert TokenSequence("a", [Id(5)] * 32).tokens == (5,) * 32


class TestJsonlRecords:
    """Rules both JSONL loaders share: one record loop validates both."""

    LOADERS = [
        (load_text_corpus, "text", "hello"),
        (load_token_corpus, "tokens", list(range(32))),
    ]

    @pytest.mark.parametrize("loader,field,value", LOADERS)
    def test_integer_id_rejected(self, tmp_path, loader, field, value):
        p = tmp_path / "c.jsonl"
        p.write_text(json.dumps({"id": 7, field: value}) + "\n")
        with pytest.raises(CoreliteError, match="line 1: id must be a string"):
            list(loader(p))

    @pytest.mark.parametrize("loader,field,value", LOADERS)
    def test_non_utf8_names_line(self, tmp_path, loader, field, value):
        p = tmp_path / "c.jsonl"
        good = json.dumps({"id": "a", field: value}).encode()
        p.write_bytes(good + b"\n" + b'{"id": "b\xff"}\n')
        with pytest.raises(CoreliteError, match="line 2: invalid UTF-8"):
            list(loader(p))

    @pytest.mark.parametrize("loader,field,value", LOADERS)
    def test_non_object_record_rejected(self, tmp_path, loader, field, value):
        p = tmp_path / "c.jsonl"
        p.write_text('"id and text"\n')
        with pytest.raises(CoreliteError, match="line 1: expected a JSON object"):
            list(loader(p))

    @pytest.mark.parametrize("loader,field,value", LOADERS)
    def test_crlf_and_blank_lines(self, tmp_path, loader, field, value):
        p = tmp_path / "c.jsonl"
        rec = json.dumps({"id": "a", field: value}).encode()
        p.write_bytes(b"\r\n" + rec + b"\r\n \r\n")
        assert [r.id for r in loader(p)] == ["a"]


class TestEmbeddings:
    def test_zero_rows(self, tmp_path):
        m = EmbeddingMatrix((), np.zeros((0, 4), dtype=np.float32))
        save_embeddings(m, tmp_path / "e.bin", tmp_path / "e.ids")
        for normalize in (False, True):
            loaded = load_embeddings(tmp_path / "e.bin", tmp_path / "e.ids", normalize)
            assert loaded.n == 0 and loaded.d == 4

    def test_2x3_payload(self, tmp_path):
        data = np.arange(6, dtype=np.float32).reshape(2, 3)
        save_embeddings(
            EmbeddingMatrix(("a", "b"), data), tmp_path / "e.bin", tmp_path / "e.ids"
        )
        loaded = load_embeddings(tmp_path / "e.bin", tmp_path / "e.ids")
        assert loaded.data.shape == (2, 3)
        np.testing.assert_array_equal(loaded.data, data)

    def test_nan_reports_row(self, tmp_path):
        data = np.zeros((7, 2), dtype=np.float32)
        data[5, 1] = np.nan
        with pytest.raises(CoreliteError, match="row 5: non-finite value"):
            EmbeddingMatrix(tuple(f"r{i}" for i in range(7)), data)

    @pytest.mark.parametrize(
        "rows,value",
        [([0], np.nan), ([_NORM_ROWS - 1], np.inf), ([_NORM_ROWS], -np.inf),
         ([2 * _NORM_ROWS - 1], np.nan), ([2 * _NORM_ROWS + 4], np.inf),
         ([2 * _NORM_ROWS + 1, _NORM_ROWS + 3], np.nan),
         ([3, 2 * _NORM_ROWS + 2], np.nan)],
        ids=["first", "chunk-end", "chunk-start", "second-chunk-end", "partial-chunk",
             "first-of-two", "both-workers"],
    )
    def test_non_finite_reports_first_row(self, tmp_path, rows, value):
        # 2 full blocks of _NORM_ROWS rows and 5 rows: loaded by 2 workers, the
        # first reads block 0, the second blocks 1 and 2.
        n = 2 * _NORM_ROWS + 5
        data = np.ones((n, 3), dtype=np.float32)
        data[rows, 1] = value
        message = f"row {min(rows)}: non-finite value$"
        with pytest.raises(CoreliteError, match=f"^{message}"):
            EmbeddingMatrix(tuple(f"r{i}" for i in range(n)), data)
        with _cpus(2), pytest.raises(CoreliteError, match=f": {message}"):
            load_embeddings(*_emb1(tmp_path / "e.bin", data))

    def test_huge_finite_rows_pass(self):
        # Their squares overflow float64, so only a look at the row itself
        # tells them from a row holding inf.
        data = np.array([[1e200, -1e300], [0.0, 1.0], [np.finfo(float).max, 0.0]])
        m = EmbeddingMatrix(("a", "b", "c"), data.copy())
        assert m.sq_norms.tolist() == [np.inf, 1.0, np.inf]
        data[1, 0] = np.nan
        with pytest.raises(CoreliteError, match="^row 1: non-finite value$"):
            EmbeddingMatrix(("a", "b", "c"), data)

    def test_float64_data_is_kept_without_a_copy(self):
        data = np.arange(6, dtype=np.float64).reshape(3, 2)
        m = EmbeddingMatrix(("a", "b", "c"), data)
        assert m.data is data and not m.data.flags.writeable

    @pytest.mark.parametrize(
        "ids,data,message",
        [(("a", "b", "c"), np.zeros(3), "embedding data must be 2-D"),
         (("a", 5), np.zeros((2, 1)), "row 1: embedding id must be a string")],
        ids=["data-1-d", "id-int"],
    )
    def test_matrix_rule(self, ids, data, message):
        with pytest.raises(CoreliteError, match=f"^{re.escape(message)}$"):
            EmbeddingMatrix(ids, data)

    @pytest.mark.parametrize("inst_id", ["a\rb", "a\nb", "a\r\n"])
    def test_id_with_line_break(self, inst_id):
        # save_embeddings writes one id per line, so such an id cannot be read back.
        with pytest.raises(CoreliteError, match="row 1: embedding id holds CR or LF"):
            EmbeddingMatrix(("c", inst_id), np.zeros((2, 1), dtype=np.float32))

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "e.bin"
        p.write_bytes(b"XXXX" + b"\x00" * 8)
        (tmp_path / "e.ids").write_text("")
        with pytest.raises(CoreliteError, match="bad magic"):
            load_embeddings(p, tmp_path / "e.ids")

    def test_file_ending_inside_payload(self, tmp_path, monkeypatch):
        # A file that shrank after its size was checked: one error, not a
        # matrix holding garbage.
        p = tmp_path / "e.bin"
        p.write_bytes(b"EMB1" + bytes([2, 0, 0, 0, 1, 0, 0, 0]) + bytes(4))
        (tmp_path / "e.ids").write_text("a\nb\n")
        monkeypatch.setattr(os, "fstat", lambda fd: SimpleNamespace(st_size=12 + 8))
        with pytest.raises(CoreliteError, match="e.bin: file ended inside the payload"):
            load_embeddings(p, tmp_path / "e.ids")

    def test_truncated_payload(self, tmp_path):
        data = np.zeros((2, 3), dtype=np.float32)
        save_embeddings(
            EmbeddingMatrix(("a", "b"), data), tmp_path / "e.bin", tmp_path / "e.ids"
        )
        raw = (tmp_path / "e.bin").read_bytes()
        (tmp_path / "e.bin").write_bytes(raw[:-4])
        with pytest.raises(CoreliteError, match="payload"):
            load_embeddings(tmp_path / "e.bin", tmp_path / "e.ids")

    def test_id_count_mismatch(self, tmp_path):
        data = np.zeros((2, 3), dtype=np.float32)
        save_embeddings(
            EmbeddingMatrix(("a", "b"), data), tmp_path / "e.bin", tmp_path / "e.ids"
        )
        (tmp_path / "e.ids").write_text("a\n")
        with pytest.raises(CoreliteError, match="1 ids for 2 rows"):
            load_embeddings(tmp_path / "e.bin", tmp_path / "e.ids")

    @given(
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_roundtrip_bit_identical(self, tmp_path_factory, n, d, bits):
        rng = np.random.default_rng(bits)
        data = rng.standard_normal((n, d)).astype(np.float32)
        ids = tuple(f"id{i}" for i in range(n))
        tmp = tmp_path_factory.mktemp("emb")
        save_embeddings(EmbeddingMatrix(ids, data), tmp / "e.bin", tmp / "e.ids")
        loaded = load_embeddings(tmp / "e.bin", tmp / "e.ids")
        assert loaded.ids == ids
        assert loaded.data.tobytes() == data.astype(np.float64).tobytes()
        save_embeddings(loaded, tmp / "again.bin", tmp / "again.ids")
        assert (tmp / "again.bin").read_bytes() == (tmp / "e.bin").read_bytes()
        assert (tmp / "again.ids").read_bytes() == (tmp / "e.ids").read_bytes()


def _cpus(count):
    """`os.sched_getaffinity` patched to `count` CPUs: `load_embeddings` splits its
    rows among that many workers, at most one a block."""
    return mock.patch.object(os, "sched_getaffinity", lambda pid: set(range(count)))


def _emb1(path, data):
    """Write the float32 `data` as an EMB1 file, with no checks; ids p0, p1, ...."""
    n, d = data.shape
    path.write_bytes(b"EMB1" + struct.pack("<II", n, d) + data.astype("<f4").tobytes())
    ids = path.with_suffix(".ids")
    ids.write_text("".join(f"p{i}\n" for i in range(n)))
    return path, ids


class TestParallelLoad:
    """`load_embeddings` splits the rows among workers; nothing may show the split."""

    B = _NORM_ROWS

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.sampled_from([1, _NORM_ROWS - 1, _NORM_ROWS, _NORM_ROWS + 1, 2 * _NORM_ROWS + 1]),
        d=st.sampled_from([1, 3, _EINSUM_ROW, _EINSUM_ROW + 1]),
        normalize=st.booleans(),
        cpus=st.sampled_from([1, 2, 3]),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_matches_serial_load(self, tmp_path_factory, n, d, normalize, cpus, seed, data):
        rng = np.random.default_rng(seed)
        scale = 10.0 ** rng.integers(-20, 20, (n, 1))
        block = (rng.standard_normal((n, d)) * scale).astype(np.float32)
        # Zero rows, some on either side of the first block boundary: with two
        # workers and 2 * B + 1 rows, the split between them.
        boundary = [r for r in (self.B - 1, self.B) if r < n] or [0]
        zero = data.draw(st.sets(st.sampled_from(boundary) | st.integers(0, n - 1)))
        block[sorted(zero)] = 0.0
        path, ids_path = _emb1(tmp_path_factory.mktemp("emb") / "e.bin", block)
        with _cpus(cpus):
            emb = load_embeddings(path, ids_path, normalize)
        ids, X = serial_load(path, ids_path, normalize)
        assert emb.ids == tuple(ids)
        assert emb.data.tobytes() == X.tobytes()
        assert emb.sq_norms.tobytes() == np.einsum("ij,ij->i", X, X).tobytes()

    @pytest.mark.parametrize("d", [_EINSUM_ROW, _EINSUM_ROW + 1, 2 * _EINSUM_ROW])
    @pytest.mark.parametrize("cpus", [1, 2])
    def test_wide_rows_norms_match_whole_matrix(self, tmp_path, d, cpus):
        # Over _EINSUM_ROW values, a row's einsum norm depends on where the
        # row sits in the operand, so block norms can differ in the last bits.
        n = 2 * self.B + 1
        block = np.random.default_rng(d).standard_normal((n, d)).astype(np.float32)
        path, ids_path = _emb1(tmp_path / "e.bin", block)
        with _cpus(cpus):
            emb = load_embeddings(path, ids_path)
        X = block.astype(np.float64)
        assert emb.sq_norms.tobytes() == np.einsum("ij,ij->i", X, X).tobytes()

    def test_more_workers_than_cpus_with_short_switch_interval(self, tmp_path):
        # Workers write disjoint row ranges of one matrix; switching threads
        # often must not lose or mix a block.
        n = 8 * self.B + 3
        block = np.random.default_rng(8).standard_normal((n, 5)).astype(np.float32)
        block[[self.B - 1, 4 * self.B]] = 0.0
        path, ids_path = _emb1(tmp_path / "e.bin", block)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with _cpus(8):
                emb = load_embeddings(path, ids_path, normalize=True)
        finally:
            sys.setswitchinterval(interval)
        _, X = serial_load(path, ids_path, normalize=True)
        assert emb.data.tobytes() == X.tobytes()
        assert emb.sq_norms.tobytes() == np.einsum("ij,ij->i", X, X).tobytes()

    def test_direct_matrix_norms_match_einsum(self):
        data = np.random.default_rng(0).standard_normal((2 * self.B + 1, 7))
        m = EmbeddingMatrix(tuple(f"p{i}" for i in range(len(data))), data)
        assert m.sq_norms.tobytes() == np.einsum("ij,ij->i", data, data).tobytes()
        assert not m.sq_norms.flags.writeable
        for copied in (pickle.loads(pickle.dumps(m)), copy.copy(m)):
            assert copied.sq_norms.tobytes() == m.sq_norms.tobytes()
            assert copied._asdict().keys() == {"ids", "data"}

    def test_copies_are_checked_again(self):
        # A copy or an unpickled matrix is built through EmbeddingMatrix(ids, data).
        data = np.ones((3, 2))
        data[1, 0] = np.nan
        m = EmbeddingMatrix._unchecked(("a", "b", "c"), data)
        for clone in (lambda m: pickle.loads(pickle.dumps(m)), copy.copy):
            with pytest.raises(CoreliteError, match="^row 1: non-finite value$"):
                clone(m)

    def test_id_fault_before_non_finite_row(self, tmp_path):
        block = np.ones((2 * self.B + 5, 2), dtype=np.float32)
        block[[1, 2 * self.B]] = np.inf
        path, ids_path = _emb1(tmp_path / "e.bin", block)
        ids_path.write_text(ids_path.read_text().replace("p7\n", "p6\n"))
        with _cpus(2), pytest.raises(CoreliteError, match=": embedding ids must be unique$"):
            load_embeddings(path, ids_path)
        ids_path.write_text(ids_path.read_text().replace("p9\n", "p\r9\n"))
        with _cpus(2), pytest.raises(CoreliteError,
                                     match=": row 9: embedding id holds CR or LF$"):
            load_embeddings(path, ids_path)

    @pytest.mark.parametrize("rows_in_file", [0, _NORM_ROWS, 2 * _NORM_ROWS + 1])
    def test_file_ending_inside_either_worker(self, tmp_path, monkeypatch, rows_in_file):
        # The header says 3 blocks; the file holds fewer rows but claims all.
        n = 3 * self.B
        path, ids_path = _emb1(tmp_path / "e.bin", np.ones((rows_in_file, 1), np.float32))
        path.write_bytes(b"EMB1" + struct.pack("<II", n, 1) + path.read_bytes()[12:])
        ids_path.write_text("".join(f"p{i}\n" for i in range(n)))
        monkeypatch.setattr(os, "fstat", lambda fd: SimpleNamespace(st_size=12 + 4 * n))
        with _cpus(2), pytest.raises(CoreliteError, match="e.bin: file ended inside the payload$"):
            load_embeddings(path, ids_path)

    @pytest.mark.parametrize("eio_in_first", [True, False])
    def test_first_worker_error_wins(self, tmp_path, monkeypatch, eio_in_first):
        # Block 0 fails one way and block 1, the second worker's, the other:
        # the error raised is block 0's, as a serial read would give.
        path, ids_path = _emb1(tmp_path / "e.bin", np.ones((2 * self.B, 1), np.float32))
        preadv = os.preadv

        def preadv_failing(fd, buffers, offset):
            if (offset == 12) == eio_in_first:
                raise OSError(errno.EIO, "Input/output error")
            return preadv(fd, buffers, offset) - 4  # the file seems to end

        monkeypatch.setattr(os, "preadv", preadv_failing)
        expected = ((OSError, "Input/output error") if eio_in_first
                    else (CoreliteError, "file ended inside the payload$"))
        with _cpus(2), pytest.raises(expected[0], match=expected[1]):
            load_embeddings(path, ids_path)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(st.text("ab\r\n", max_size=3), st.integers(0, 2)), max_size=6))
    def test_id_rules_match_row_by_row_oracle(self, ids):
        assert (_error(EmbeddingMatrix, tuple(ids), np.zeros((len(ids), 1)))
                == _error(check_embedding_ids, ids))

    @settings(max_examples=200, deadline=None)
    @given(st.text("ab\r\n", max_size=12))
    def test_ids_file_split_like_lines(self, tmp_path_factory, text):
        # The loader splits the ids file at C level; the oracle takes each line.
        tmp = tmp_path_factory.mktemp("ids")
        ids_path = tmp / "t.ids"
        ids_path.write_bytes(text.encode())
        expected, _ = serial_load(_emb1(tmp / "empty.bin", np.zeros((0, 1)))[0], ids_path)
        data = np.zeros((len(expected), 1))
        path, _ = _emb1(tmp / "e.bin", data)
        error = _error(EmbeddingMatrix, tuple(expected), data)
        if error is None:
            assert list(load_embeddings(path, ids_path).ids) == expected
        else:
            with pytest.raises(CoreliteError, match=f": {re.escape(error)}$"):
                load_embeddings(path, ids_path)


def _error(f, *args):
    """The message of the CoreliteError `f(*args)` raises, or None."""
    try:
        f(*args)
    except CoreliteError as exc:
        return str(exc)
    return None


class TestScores:
    def test_header_only(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("model,dataset,score\n")
        assert load_scores(p).entries == {}

    def test_two_rows(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("model,dataset,score\nm1,ai2d,66.6\nm1,mme,1841.8\n")
        table = load_scores(p)
        assert table.entries == {("m1", "ai2d"): 66.6, ("m1", "mme"): 1841.8}

    def test_duplicate_pair(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("model,dataset,score\nm1,ai2d,66.6\nm1,ai2d,50.0\n")
        with pytest.raises(CoreliteError, match="duplicate"):
            load_scores(p)

    def test_unparseable_score(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("model,dataset,score\nm1,ai2d,high\n")
        with pytest.raises(CoreliteError, match="unparseable score"):
            load_scores(p)

    def test_row_error_names_file_and_physical_line(self, tmp_path):
        # The first row's quoted model name spans lines 2-3, so "oops" is on 4.
        p = tmp_path / "s.csv"
        p.write_text('model,dataset,score\n"m\n1",ds,1.0\nm2,ds,oops\n')
        with pytest.raises(CoreliteError) as exc:
            load_scores(p)
        assert str(exc.value) == f"{p}: line 4: unparseable score 'oops'"

    def test_duplicate_names_file_and_line(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("model,dataset,score\nm1,ai2d,66.6\n\nm1,ai2d,50.0\n")
        with pytest.raises(CoreliteError) as exc:
            load_scores(p)
        assert str(exc.value).startswith(f"{p}: line 4: duplicate")

    def test_counts_column(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("model,dataset,score,count\nm1,ai2d,66.6,3088\n")
        table = load_scores(p)
        assert table.counts[("m1", "ai2d")] == 3088

    def test_each_row_is_checked_once(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("model,dataset,score,count\nm1,a,1,3\nm1,b,2,\nm2,a,0.5,7\n")
        rules = corelite.corpus
        with mock.patch.object(rules, "_check_score", wraps=rules._check_score) as score, \
             mock.patch.object(rules, "_check_count", wraps=rules._check_count) as count:
            table = load_scores(p)
        assert (score.call_count, count.call_count) == (3, 2)
        assert table == ScoreTable(
            {("m1", "a"): 1.0, ("m1", "b"): 2.0, ("m2", "a"): 0.5},
            {("m1", "a"): 3, ("m2", "a"): 7},
        )

    def test_count_bound_is_two_to_the_53(self, tmp_path):
        # 2**53 is the largest count a float64 weight holds exactly.
        p = tmp_path / "s.csv"
        p.write_text(
            f"model,dataset,score,count\nm1,a,1,{2**53}\nm1,b,1,{2**53 + 1}\n"
        )
        with pytest.raises(CoreliteError) as exc:
            load_scores(p)
        assert str(exc.value) == f"{p}: line 3: count must be at most 2**53"
        table = ScoreTable({("m1", "a"): 1.0}, {("m1", "a"): 2**53})
        assert table.counts[("m1", "a")] == 2**53
        with pytest.raises(CoreliteError, match="at most 2"):
            ScoreTable({("m1", "a"): 1.0}, {("m1", "a"): 2**53 + 1})

    @pytest.mark.parametrize(
        "entries,counts,message",
        [({("m1", "a"): math.nan}, {}, "('m1', 'a'): score must be finite"),
         ({("m1", "a"): -math.inf}, {}, "('m1', 'a'): score must be finite"),
         ({("m1", "a"): 10**400}, {}, "('m1', 'a'): score must be finite"),
         ({("m1", "a"): "1"}, {}, "('m1', 'a'): score must be finite"),
         ({("m1", "a"): True}, {}, "('m1', 'a'): score must be finite"),
         ({("m1", "a"): 1.0}, {("m1", "a"): 0}, "('m1', 'a'): count must be positive"),
         ({("m1", "a"): 1.0}, {("m1", "a"): 2.5}, "('m1', 'a'): count must be an integer"),
         ({("m1", "a"): 1.0}, {("m1", "a"): True}, "('m1', 'a'): count must be an integer"),
         ({("m1", "a"): 1.0}, {("m1", "a"): "3"}, "('m1', 'a'): count must be an integer")],
        ids=["score-nan", "score-inf", "score-huge-int", "score-str", "score-bool",
             "count-0", "count-float", "count-bool", "count-str"],
    )
    def test_score_table_checks_its_fields(self, entries, counts, message):
        with pytest.raises(CoreliteError, match=f"^{re.escape(message)}$"):
            ScoreTable(entries, counts)


class DiskFull:
    """A file that takes `room` chunks, then half of the next, then runs out of space."""

    def __init__(self, fh, room=0):
        self.fh, self.room = fh, room

    def write(self, data):
        if self.room:
            self.room -= 1
            return self.fh.write(data)
        self.fh.write(data[: len(data) // 2])
        self.fh.flush()
        raise OSError(errno.ENOSPC, "No space left on device")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


class TestWriteAtomic:
    def test_writes_bytes_and_bytearray(self, tmp_path):
        write_atomic(tmp_path / "a", [b"ab", b"", b"c"])
        write_atomic(tmp_path / "b", iter([bytearray(b"xy"), memoryview(b"z")]))
        write_atomic(tmp_path / "c", [])
        assert (tmp_path / "a").read_bytes() == b"abc"
        assert (tmp_path / "b").read_bytes() == b"xyz"
        assert (tmp_path / "c").read_bytes() == b""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a", "b", "c"]

    def test_failed_write_keeps_old_file_and_leaves_no_temp(self, tmp_path, monkeypatch):
        target = tmp_path / "out.json"
        target.write_bytes(b"old contents")
        monkeypatch.setattr(
            "corelite.corpus.open", lambda *a: DiskFull(open(*a)), raising=False
        )
        with pytest.raises(OSError, match="No space left"):
            write_atomic(target, [b"new contents, longer than the old ones"])
        assert target.read_bytes() == b"old contents"
        assert [p.name for p in tmp_path.iterdir()] == ["out.json"]

    @pytest.mark.parametrize("what", ["text-index", "image-index", "embeddings"])
    def test_save_failing_after_its_first_chunk(self, tmp_path, monkeypatch, what):
        target, ids = tmp_path / "out.bin", tmp_path / "out.ids"
        target.write_bytes(b"old contents")
        ids.write_bytes(b"old ids\n")
        monkeypatch.setattr(
            "corelite.corpus.open", lambda *a: DiskFull(open(*a), room=1), raising=False
        )
        with pytest.raises(OSError, match="No space left"):
            if what == "text-index":
                docs = [TextDocument(f"d{i}", f"w{i} " * 12) for i in range(50)]
                save_index(build_text_index(docs, n=2), target)
            elif what == "image-index":
                seqs = [TokenSequence(f"s{i}", tuple(range(i, i + 32))) for i in range(9)]
                save_index(build_image_index(seqs), target)
            else:
                matrix = EmbeddingMatrix(("a", "b"), np.ones((2, 3)))
                save_embeddings(matrix, target, ids)
        assert target.read_bytes() == b"old contents"
        assert ids.read_bytes() == b"old ids\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.bin", "out.ids"]

    def test_failed_rename_leaves_no_temp(self, tmp_path, monkeypatch):
        def fail(src, dst):
            raise OSError(errno.EXDEV, "rename failed")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError, match="rename failed"):
            write_atomic(tmp_path / "out", [b"data"])
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("where", ["missing-dir", "directory"])
    def test_error_names_the_path_not_the_temp_file(self, tmp_path, where):
        target = tmp_path / "nodir" / "out"
        if where == "directory":
            target = tmp_path / "out"
            target.mkdir()
        error = FileNotFoundError if where == "missing-dir" else IsADirectoryError
        with pytest.raises(error) as info:
            write_atomic(target, [b"data"])
        assert info.value.filename == str(target) and info.value.filename2 is None
        assert ".tmp" not in str(info.value)
        assert not list(tmp_path.rglob("*.tmp"))

    def test_mode_follows_umask(self, tmp_path):
        old = os.umask(0o027)
        try:
            with open(tmp_path / "plain", "wb"):
                pass
            (tmp_path / "atomic").write_bytes(b"x")
            os.chmod(tmp_path / "atomic", 0o600)  # replaced, not rewritten in place
            write_atomic(tmp_path / "atomic", [b"y"])
        finally:
            os.umask(old)
        plain = (tmp_path / "plain").stat().st_mode
        assert (tmp_path / "atomic").stat().st_mode == plain
        assert plain & 0o777 == 0o640

    def test_stray_temp_name_is_not_clobbered(self, tmp_path):
        target = tmp_path / "out"
        stray = tmp_path / f"out.{os.getpid()}.tmp"
        stray.write_bytes(b"someone else's")
        with pytest.raises(FileExistsError):
            write_atomic(target, [b"data"])
        assert stray.read_bytes() == b"someone else's"
        assert not target.exists()


_WRITE_METHODS = {"write_bytes", "write_text", "tofile", "save", "savez", "savetxt"}
_OPEN_MODULES = {"os", "io", "codecs", "gzip", "bz2", "lzma"}  # open(path, mode)


def _file_writes(source: str) -> list[tuple[str, int]]:
    """(enclosing function, line) of each call that can write a file.

    A call counts when it is a write method such as `write_bytes`, or an
    `open` whose mode is anything but a read-only string literal: builtin
    `open` and `os.open`/`io.open`/... take the mode second, `Path.open` first.
    """
    found = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.Call):
            f = node.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            if name in _WRITE_METHODS:
                found.append((func, node.lineno))
            elif name == "open":
                on_path = isinstance(f, ast.Attribute) and not (
                    isinstance(f.value, ast.Name) and f.value.id in _OPEN_MODULES
                )
                pos = 0 if on_path else 1
                modes = node.args[pos : pos + 1]
                modes += [k.value for k in node.keywords if k.arg == "mode"]
                mode = modes[0] if modes else ast.Constant("r")
                if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                        and not set(mode.value) & set("wax+")):
                    found.append((func, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(ast.parse(source), None)
    return found


class TestOneWriter:
    SRC = Path(corelite.__file__).parent

    def test_checker_sees_writes(self):
        source = (
            "def f(p):\n"
            "    open(p, 'w'); open(p, mode='ab'); open(p, 'rb'); open(p)\n"
            "    os.open(p, os.O_WRONLY); p.open('r+'); p.open(); io.open(p, 'rb')\n"
            "    p.write_text('x'); p.write_bytes(b''); np.save(p, a)\n"
        )
        assert _file_writes(source) == [("f", 2)] * 2 + [("f", 3)] * 2 + [("f", 4)] * 3

    def test_only_write_atomic_writes_files(self):
        writers = {
            (path.name, func)
            for path in sorted(self.SRC.glob("*.py"))
            for func, _ in _file_writes(path.read_text(encoding="utf-8"))
        }
        assert writers == {("corpus.py", "write_atomic")}

    def test_only_main_writes_manifests(self):
        owners = set()
        for path in sorted(self.SRC.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.FunctionDef):
                    for sub in ast.walk(node):
                        if isinstance(sub, ast.Constant) and ".manifest.json" in str(sub.value):
                            owners.add((path.name, node.name))
        assert owners == {("cli.py", "main")}
