import ast
import errno
import json
import os
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import corelite
from corelite import CoreliteError
from corelite.corpus import (
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


class TestTextCorpus:
    def test_empty_file(self, tmp_path):
        p = tmp_path / "c.jsonl"
        p.write_text("")
        assert load_text_corpus(p) == []

    def test_order_preserved(self, tmp_path):
        p = tmp_path / "c.jsonl"
        p.write_text(
            '{"id": "a", "text": "hello"}\n{"id": "b", "text": "world"}\n'
        )
        docs = load_text_corpus(p)
        assert [d.id for d in docs] == ["a", "b"]
        assert docs[1].text == "world"

    def test_missing_id_names_line(self, tmp_path):
        p = tmp_path / "c.jsonl"
        p.write_text(
            '{"id": "a", "text": "x"}\n{"id": "b", "text": "y"}\n{"text": "z"}\n'
        )
        with pytest.raises(CoreliteError, match="line 3: missing field id"):
            load_text_corpus(p)

    def test_duplicate_id_named(self, tmp_path):
        p = tmp_path / "c.jsonl"
        p.write_text('{"id": "a", "text": "x"}\n{"id": "a", "text": "y"}\n')
        with pytest.raises(CoreliteError, match="'a'"):
            load_text_corpus(p)

    def test_load_twice_identical(self, tmp_path):
        p = tmp_path / "c.jsonl"
        p.write_text('{"id": "a", "text": "x"}\n{"id": "b", "text": ""}\n')
        assert load_text_corpus(p) == load_text_corpus(p)


class TestTokenCorpus:
    def _write(self, tmp_path, records):
        p = tmp_path / "t.jsonl"
        p.write_text("".join(json.dumps(r) + "\n" for r in records))
        return p

    def test_valid_32(self, tmp_path):
        p = self._write(tmp_path, [{"id": "img1", "tokens": list(range(32))}])
        seqs = load_token_corpus(p)
        assert len(seqs) == 1
        assert seqs[0].tokens == tuple(range(32))

    def test_wrong_length_names_id(self, tmp_path):
        p = self._write(tmp_path, [{"id": "img7", "tokens": list(range(31))}])
        with pytest.raises(CoreliteError, match="id=img7: length 31, expected 32"):
            load_token_corpus(p)

    def test_empty_file(self, tmp_path):
        p = self._write(tmp_path, [])
        assert load_token_corpus(p) == []

    def test_negative_token_rejected(self, tmp_path):
        p = self._write(tmp_path, [{"id": "x", "tokens": [-1] + list(range(31))}])
        with pytest.raises(CoreliteError, match="out of range"):
            load_token_corpus(p)


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
        ],
        ids=["empty-id", "text-not-str", "wrong-length", "token-range"],
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
            loader(p)

    def test_tokens_stored_as_tuple(self):
        assert TokenSequence("a", list(range(32))).tokens == tuple(range(32))


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
            loader(p)

    @pytest.mark.parametrize("loader,field,value", LOADERS)
    def test_non_utf8_names_line(self, tmp_path, loader, field, value):
        p = tmp_path / "c.jsonl"
        good = json.dumps({"id": "a", field: value}).encode()
        p.write_bytes(good + b"\n" + b'{"id": "b\xff"}\n')
        with pytest.raises(CoreliteError, match="line 2: invalid UTF-8"):
            loader(p)

    @pytest.mark.parametrize("loader,field,value", LOADERS)
    def test_non_object_record_rejected(self, tmp_path, loader, field, value):
        p = tmp_path / "c.jsonl"
        p.write_text('"id and text"\n')
        with pytest.raises(CoreliteError, match="line 1: expected a JSON object"):
            loader(p)

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
        loaded = load_embeddings(tmp_path / "e.bin", tmp_path / "e.ids")
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

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "e.bin"
        p.write_bytes(b"XXXX" + b"\x00" * 8)
        (tmp_path / "e.ids").write_text("")
        with pytest.raises(CoreliteError, match="bad magic"):
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
        assert loaded.data.tobytes() == data.tobytes()


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


class TestWriteAtomic:
    def test_writes_bytes_and_bytearray(self, tmp_path):
        write_atomic(tmp_path / "a", b"abc")
        write_atomic(tmp_path / "b", bytearray(b"xyz"))
        assert (tmp_path / "a").read_bytes() == b"abc"
        assert (tmp_path / "b").read_bytes() == b"xyz"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a", "b"]

    def test_failed_write_keeps_old_file_and_leaves_no_temp(self, tmp_path, monkeypatch):
        target = tmp_path / "out.json"
        target.write_bytes(b"old contents")

        class DiskFull:
            """A file that takes half of what it is given, then runs out of space."""

            def __init__(self, fh):
                self.fh = fh

            def write(self, data):
                self.fh.write(data[: len(data) // 2])
                self.fh.flush()
                raise OSError(errno.ENOSPC, "No space left on device")

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

        monkeypatch.setattr(
            "corelite.corpus.open", lambda *a: DiskFull(open(*a)), raising=False
        )
        with pytest.raises(OSError, match="No space left"):
            write_atomic(target, b"new contents, longer than the old ones")
        assert target.read_bytes() == b"old contents"
        assert [p.name for p in tmp_path.iterdir()] == ["out.json"]

    def test_failed_rename_leaves_no_temp(self, tmp_path, monkeypatch):
        def fail(src, dst):
            raise OSError(errno.EXDEV, "rename failed")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError, match="rename failed"):
            write_atomic(tmp_path / "out", b"data")
        assert list(tmp_path.iterdir()) == []

    def test_mode_follows_umask(self, tmp_path):
        old = os.umask(0o027)
        try:
            with open(tmp_path / "plain", "wb"):
                pass
            (tmp_path / "atomic").write_bytes(b"x")
            os.chmod(tmp_path / "atomic", 0o600)  # replaced, not rewritten in place
            write_atomic(tmp_path / "atomic", b"y")
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
            write_atomic(target, b"data")
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
