"""Data model and ingestion: text documents, image-token sequences, embeddings, scores.

All loaded structures are immutable after construction and safe to share
read-only across threads. numpy is imported only by the embedding code, when
it runs, so the n-gram commands start without it.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import re
import struct
import sys
from pathlib import Path
from typing import Callable, Iterator

from . import CoreliteError, Record

EMB_MAGIC = b"EMB1"
IMAGE_TOKEN_LEN = 32
_MAX_TOKEN_ID = (1 << 32) - 1
_INT_ONLY = frozenset({int})  # element types of a token list checked in C alone
_MAX_COUNT = 1 << 53  # the largest count a float64 weight holds exactly
_FINITE_ROWS = 1024  # rows per finiteness check, so its bool arrays stay small
_NORM_ROWS = 32  # EMB1 rows read, normalized and widened at a time, so they stay in cache

_ASCII_WORD_RE = re.compile(r"[a-z0-9]+")
# Over a string of code point classes (see _code_point_class): a word, or a
# letter that is a token alone; either takes the combining marks that follow it.
_CLASS_TOKEN_RE = re.compile(r"w[wm]*|sm*")
# Letters that are each a token: CJK ideographs (the ranges of BERT's basic
# tokenizer), then Hiragana and Katakana.
_SOLO_RANGES = (
    (0x4E00, 0x9FFF), (0x3400, 0x4DBF), (0x20000, 0x2A6DF), (0x2A700, 0x2CEAF),
    (0xF900, 0xFAFF), (0x2F800, 0x2FA1F), (0x3040, 0x30FF),
)


class _Memo(dict):
    """x -> f(x), computed once per distinct x; a hit is a plain dict lookup."""

    def __init__(self, f: Callable):
        self.f = f

    def __missing__(self, x):
        self[x] = y = self.f(x)
        return y


def _code_point_class(cp: int) -> str:
    """Class of a code point: "w" a letter or digit, "s" one that is a token alone,
    "m" a combining mark (Mn, Mc, Me), " " anything else (punctuation, lone surrogates).
    """
    import unicodedata

    char = chr(cp)
    if char.isalnum():
        return "s" if any(lo <= cp <= hi for lo, hi in _SOLO_RANGES) else "w"
    return "m" if unicodedata.category(char) in ("Mn", "Mc", "Me") else " "


_CLASSES = _Memo(_code_point_class)


def tokenize_text(text: str) -> list[str]:
    """Lowercase, then split into words of letters and digits.

    Punctuation, space, underscore and every other code point separate words.
    Text that is not ASCII is put in NFC first; a word also takes the
    combining marks that follow it, and each CJK ideograph, Hiragana or
    Katakana letter is a word alone. Deterministic by construction: no
    locale, no stemming, no stop words.
    """
    # Test the lowered text: lower() maps some non-ASCII letters to ASCII,
    # such as the Kelvin sign to k.
    text = text.lower()
    if text.isascii():
        return _ASCII_WORD_RE.findall(text)
    import unicodedata

    text = unicodedata.normalize("NFC", text)
    spans = _CLASS_TOKEN_RE.finditer(text.translate(_CLASSES))
    return [text[m.start():m.end()] for m in spans]


def _check_id(record_id: str, kind: str) -> None:
    """A record id is a non-empty string, and UTF-8 can encode it for the JSON reports."""
    if not isinstance(record_id, str):
        raise CoreliteError("id must be a string")
    if not record_id:
        raise CoreliteError(f"{kind} id must be non-empty")
    try:
        record_id.encode("utf-8")
    except UnicodeEncodeError:
        raise CoreliteError(f"{kind} id holds a lone surrogate") from None


class TextDocument(Record):
    __slots__ = ("id", "text")

    def _check(self):
        if not isinstance(self.text, str):
            raise CoreliteError("text must be a string")
        _check_id(self.id, "document")


class TokenSequence(Record):
    __slots__ = ("id", "tokens")  # tokens: a tuple of 32 ints

    def _check(self):
        tokens, seq_id = self.tokens, self.id
        # The common case in C-level calls: exact ints in range, an ASCII id.
        if not (
            isinstance(tokens, (list, tuple))
            and len(tokens) == IMAGE_TOKEN_LEN
            and set(map(type, tokens)) == _INT_ONLY
            and 0 <= min(tokens)
            and max(tokens) <= _MAX_TOKEN_ID
            and type(seq_id) is str
            and seq_id.isascii()
            and seq_id
        ):
            self._check_each_token()
        object.__setattr__(self, "tokens", tuple(tokens))

    def _check_each_token(self):
        """The rules one token at a time: the first fault, in rule order, raises."""
        if not isinstance(self.tokens, (list, tuple)) or not all(
            isinstance(t, int) and not isinstance(t, bool) for t in self.tokens
        ):
            raise CoreliteError("tokens must be a list of integers")
        if len(self.tokens) != IMAGE_TOKEN_LEN:
            raise CoreliteError(
                f"id={self.id}: length {len(self.tokens)}, expected {IMAGE_TOKEN_LEN}"
            )
        _check_id(self.id, "sequence")
        for t in self.tokens:
            if not (0 <= t <= _MAX_TOKEN_ID):
                raise CoreliteError(f"id={self.id}: token id {t} out of range")


class EmbeddingMatrix(Record):
    """Dense n x d float64 matrix of per-instance feature vectors with row ids.

    float32 data widens exactly; a C-contiguous float64 array is kept, not
    copied, and both become read-only.
    """

    __slots__ = ("ids", "data")  # data: float64, shape (n, d)

    def _check(self):
        import numpy as np

        arr = np.ascontiguousarray(self.data, dtype=np.float64)
        if arr.ndim != 2:
            raise CoreliteError("embedding data must be 2-D")
        if arr.shape[1] <= 0:
            raise CoreliteError("embedding dimension must be positive")
        if len(self.ids) != arr.shape[0]:
            raise CoreliteError(f"{len(self.ids)} ids for {arr.shape[0]} rows")
        if "" in self.ids:
            raise CoreliteError(f"row {self.ids.index('')}: empty embedding id")
        for row, inst_id in enumerate(self.ids):  # the ids file is line-based
            if not isinstance(inst_id, str):
                raise CoreliteError(f"row {row}: embedding id must be a string")
            if "\r" in inst_id or "\n" in inst_id:
                raise CoreliteError(f"row {row}: embedding id holds CR or LF")
        if len(set(self.ids)) != len(self.ids):
            raise CoreliteError("embedding ids must be unique")
        for lo in range(0, arr.shape[0], _FINITE_ROWS):
            finite = np.isfinite(arr[lo:lo + _FINITE_ROWS]).all(axis=1)
            if not finite.all():
                raise CoreliteError(f"row {lo + int(finite.argmin())}: non-finite value")
        arr.flags.writeable = False
        object.__setattr__(self, "data", arr)
        object.__setattr__(self, "ids", tuple(self.ids))

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def d(self) -> int:
        return self.data.shape[1]


def _is_finite_number(x) -> bool:
    """An int or float, not a bool, that float64 holds finite: not inf, nan or 10**400."""
    number = isinstance(x, (int, float)) and not isinstance(x, bool)
    return number and abs(x) <= sys.float_info.max


def _check_score(score) -> None:
    if not _is_finite_number(score):
        raise CoreliteError("score must be finite")


def _check_count(count: int) -> None:
    if not isinstance(count, int) or isinstance(count, bool):
        raise CoreliteError("count must be an integer")
    if count <= 0:
        raise CoreliteError("count must be positive")
    if count > _MAX_COUNT:
        raise CoreliteError("count must be at most 2**53")


class ScoreTable(Record):
    """(model, dataset) -> recorded raw score, optionally with instance counts."""

    __slots__ = ("entries", "counts")
    _defaults = {"counts": dict}

    def _check(self):
        for fields, check in ((self.entries, _check_score), (self.counts, _check_count)):
            for key, value in fields.items():
                try:
                    check(value)
                except CoreliteError as exc:
                    raise CoreliteError(f"{key}: {exc}") from None

    def models(self) -> list[str]:
        return sorted({m for m, _ in self.entries})

    def datasets(self) -> list[str]:
        return sorted({d for _, d in self.entries})


class ScaleSpec(Record):
    """Per-dataset (min, max) float ranges: finite bounds, max - min positive and finite."""

    __slots__ = ("scales",)

    def _check(self):
        scales = {}
        for dataset, (lo, hi) in self.scales.items():
            where = f"scale for {dataset!r}: "
            if not (_is_finite_number(lo) and _is_finite_number(hi)):
                raise CoreliteError(f"{where}min and max must be numbers (finite, unquoted)")
            lo, hi = scales[dataset] = float(lo), float(hi)
            if not (hi > lo and math.isfinite(hi - lo)):
                raise CoreliteError(f"{where}max must exceed min by a finite amount")
        object.__setattr__(self, "scales", scales)


def write_atomic(path, chunks) -> None:
    """Write the bytes-like `chunks` to `path` in order, whole or not at all.

    They go to a temp file next to `path`, opened like any new file so the
    result's mode follows the umask, then os.replace. On failure it is removed,
    a file already at `path` stays as it was, and the error names `path`.
    """
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        fh = open(tmp, "xb")
        try:
            with fh:
                for chunk in chunks:
                    fh.write(chunk)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        if exc.filename != tmp or isinstance(exc, FileExistsError):  # a stray file
            raise
        raise OSError(exc.errno, exc.strerror, os.fspath(path)) from None


def _open_text(path, newline=None) -> io.StringIO:
    """`open(path, encoding="utf-8", newline=newline)`; invalid UTF-8 names its line."""
    raw = Path(path).read_bytes()
    try:
        text = raw.decode("utf-8")  # whole, so the error's offset is the file's
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        raise CoreliteError(f"{path}: line {line}: invalid UTF-8") from None
    if text.startswith("\ufeff"):
        raise CoreliteError(f"{path}: starts with a UTF-8 byte-order mark")
    return io.StringIO(text, newline=newline)


def read_json(path):
    """Parse a UTF-8 JSON file; a fault in its content names the file."""
    try:
        return json.load(_open_text(path))
    except json.JSONDecodeError as exc:
        raise CoreliteError(f"{path}: invalid JSON ({exc})") from None
    except RecursionError:
        raise CoreliteError(f"{path}: JSON nested too deeply") from None


def _jsonl_records(path, field_name: str, make) -> Iterator:
    """Yield `make(id, record[field_name])` for each JSONL record, in file order.

    Lazily: the file opens at the first record asked for, and each line is
    read, checked and built as it is reached, so a caller that streams the
    records never holds them all. Lines end at LF (a CR before it is
    whitespace); blank lines are skipped. Every record must be a JSON object
    with an id, unique within the file, and the named field; `make` checks
    both. Errors name file and line, and end the iteration.
    """
    seen: set[str] = set()
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8")
                if not line.strip():
                    continue
                rec = json.loads(line)
                if not isinstance(rec, dict):
                    raise CoreliteError("expected a JSON object")
                for name in ("id", field_name):
                    if name not in rec:
                        raise CoreliteError(f"missing field {name}")
                record = make(rec["id"], rec[field_name])
                if record.id in seen:
                    raise CoreliteError(f"duplicate id {record.id!r}")
                seen.add(record.id)
            except UnicodeDecodeError as exc:
                message = f"invalid UTF-8 ({exc.reason})"
            except json.JSONDecodeError as exc:
                message = f"invalid JSON ({exc.msg})"
            except RecursionError:
                message = "JSON nested too deeply"
            except CoreliteError as exc:
                message = str(exc)
            else:
                yield record
                continue
            raise CoreliteError(f"{path}: line {lineno}: {message}") from None


def load_text_corpus(path) -> Iterator[TextDocument]:
    """Yield line-delimited JSON records {"id": ..., "text": ...} in file order.

    The records come one at a time as the file is read (see `_jsonl_records`);
    wrap the call in `list()` to check the whole file before using a record.
    """
    return _jsonl_records(path, "text", TextDocument)


def load_token_corpus(path) -> Iterator[TokenSequence]:
    """Yield line-delimited JSON records {"id": ..., "tokens": [...]} in file order.

    Lazily, as `load_text_corpus`: a fault is raised when its line is reached.
    """
    return _jsonl_records(path, "tokens", TokenSequence)


def load_embeddings(data_path, ids_path, normalize=False) -> EmbeddingMatrix:
    """Read the EMB1 binary matrix, 32 rows at a time, into float64 rows, and its ids file.

    `normalize` scales rows to unit L2 norm as they are read, with float64
    squares and quotients rounded to float32: the values of a float32
    normalized matrix. Zero rows stay zero; a row with inf or NaN stays
    non-finite. The format is checked first; `EmbeddingMatrix` checks the
    content, naming both files.
    """
    import numpy as np

    with open(data_path, "rb") as fh:
        header = fh.read(12)
        if header[:4] != EMB_MAGIC:
            raise CoreliteError(f"{data_path}: bad magic, expected {EMB_MAGIC!r}")
        if len(header) < 12:
            raise CoreliteError(f"{data_path}: truncated header")
        n, d = struct.unpack_from("<II", header, 4)
        size, want = os.fstat(fh.fileno()).st_size - 12, 4 * n * d
        if size != want:
            raise CoreliteError(f"{data_path}: payload is {size} bytes, expected {want}")
        # An id ends at LF, and one CR before that LF goes with it: a lone CR
        # stays in its id, for `EmbeddingMatrix` to reject.
        ids = [line.removesuffix("\r\n").removesuffix("\n")
               for line in _open_text(ids_path, newline="\n")]

        X = np.empty((n, d))
        buf = np.empty((min(_NORM_ROWS, n), d), "<f4")
        with np.errstate(invalid="ignore"):  # inf / inf: a row with inf stays non-finite
            for lo in range(0, n if d else 0, _NORM_ROWS):  # d == 0 has nothing to read
                block, dst = buf[:n - lo], X[lo:lo + _NORM_ROWS]
                if fh.readinto(block) != block.nbytes:
                    raise CoreliteError(f"{data_path}: file ended inside the payload")
                if normalize:
                    sq = np.square(block, out=dst, dtype=np.float64)
                    norm = np.sqrt(sq.sum(1, keepdims=True))
                    norm[norm == 0.0] = 1.0
                    np.divide(block, norm, out=block)  # rounded to float32
                dst[...] = block
    try:
        return EmbeddingMatrix(tuple(ids), X)
    except CoreliteError as exc:
        raise CoreliteError(f"{data_path}, {ids_path}: {exc}") from None


def save_embeddings(matrix: EmbeddingMatrix, data_path, ids_path) -> None:
    """Write the EMB1 matrix as float32 (exact for a loaded one) and one id per LF line."""
    import numpy as np

    header = EMB_MAGIC + struct.pack("<II", matrix.n, matrix.d)
    write_atomic(data_path, [header, np.ascontiguousarray(matrix.data, dtype="<f4")])
    write_atomic(ids_path, ["".join(f"{i}\n" for i in matrix.ids).encode("utf-8")])


def _csv_rows(path):
    """(line, row) per CSV row, `line` its last physical line; a bad row names it."""
    reader = csv.reader(_open_text(path, newline=""))
    try:
        for row in reader:
            yield reader.line_num, row
    except csv.Error as exc:  # e.g. a field over csv.field_size_limit()
        raise CoreliteError(f"{path}: line {reader.line_num}: {exc}") from None


def load_scores(path) -> ScoreTable:
    """Read a model,dataset,score[,count] CSV into a ScoreTable."""
    entries: dict[tuple[str, str], float] = {}
    counts: dict[tuple[str, str], int] = {}
    rows = _csv_rows(path)
    try:
        _, header = next(rows)
    except StopIteration:
        raise CoreliteError(f"{path}: empty file, expected a header") from None
    if header[:3] != ["model", "dataset", "score"]:
        raise CoreliteError(f"{path}: header must start with model,dataset,score")
    has_count = len(header) > 3 and header[3] == "count"
    for line, row in rows:
        if not row:
            continue
        try:
            if len(row) < 3:
                raise CoreliteError("expected at least 3 columns")
            try:
                score = float(row[2])
            except ValueError:
                raise CoreliteError(f"unparseable score {row[2]!r}") from None
            _check_score(score)
            key = (row[0], row[1])
            if key in entries:
                raise CoreliteError(f"duplicate (model, dataset) pair {key}")
            entries[key] = score
            if has_count and len(row) > 3 and row[3] != "":
                try:
                    counts[key] = count = int(row[3])
                except ValueError:
                    raise CoreliteError(f"unparseable count {row[3]!r}") from None
                _check_count(count)
        except CoreliteError as exc:
            raise CoreliteError(f"{path}: line {line}: {exc}") from None
    return ScoreTable._unchecked(entries, counts)  # row by row above, with the line
