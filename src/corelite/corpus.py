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
_NORM_ROWS = 128  # EMB1 rows read, normalized, widened and square-normed at a time, in cache
# The widest row whose einsum norm is the same in any block of rows: numpy sums
# a wider row in pieces of its 8192-element buffer, placed by the row's offset
# in the whole operand.
_EINSUM_ROW = 8192

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


def _check_embedding_ids(ids) -> None:
    """Non-empty strings without CR or LF (the ids file is line-based), unique.

    The rules are tested on all the ids at once, at C level; only a fault walks
    the rows, to name the first one at fault.
    """
    if "" in ids:
        raise CoreliteError(f"row {ids.index('')}: empty embedding id")
    try:
        joined = "\n".join(ids)
    except TypeError:  # an id that is not a string
        joined = "\r"
    line_based = "\r" not in joined and joined.count("\n") == len(ids) - 1  # no LF in an id
    del joined  # before the set of ids, which takes memory too
    if not line_based:
        for row, inst_id in enumerate(ids):
            if not isinstance(inst_id, str):
                raise CoreliteError(f"row {row}: embedding id must be a string")
            if "\r" in inst_id or "\n" in inst_id:
                raise CoreliteError(f"row {row}: embedding id holds CR or LF")
    if len(set(ids)) != len(ids):
        raise CoreliteError("embedding ids must be unique")


class _RowNorms(Record):
    """Holds an `EmbeddingMatrix`'s row norms in a slot that is not one of its
    fields: a record's fields are its own class's `__slots__`."""

    __slots__ = ("sq_norms",)


class EmbeddingMatrix(_RowNorms):
    """Dense n x d float64 matrix of per-instance feature vectors with row ids.

    float32 data widens exactly; a C-contiguous float64 array is kept, not
    copied, and both become read-only. Each row's squared L2 norm,
    `np.einsum("ij,ij->i", data, data)`, is kept read-only in the slot
    `sq_norms`, which is not a field; the greedy's distances use it, and the
    finiteness rule reads it. `load_embeddings` takes the norms as it reads
    each block of rows. A copy or an unpickled matrix is built and checked
    again.
    """

    __slots__ = ("ids", "data")  # data: float64, shape (n, d)

    def _check(self):
        import numpy as np

        arr = np.ascontiguousarray(self.data, dtype=np.float64)
        if arr.ndim != 2:
            raise CoreliteError("embedding data must be 2-D")
        self._keep(arr, np.einsum("ij,ij->i", arr, arr))

    def _keep(self, arr, sq_norms) -> None:
        """The rules after the 2-D one, in order, for the 2-D float64 `arr` and its
        squared row norms; then both, made read-only, are kept.

        A row holding inf or NaN has a norm that is not finite. A finite row's
        norm is finite too, unless its squares overflow (float64 values beyond
        float32's range), so only rows whose norm is not finite are looked at.
        """
        import numpy as np

        if arr.shape[1] <= 0:
            raise CoreliteError("embedding dimension must be positive")
        if len(self.ids) != arr.shape[0]:
            raise CoreliteError(f"{len(self.ids)} ids for {arr.shape[0]} rows")
        _check_embedding_ids(self.ids)
        for row in np.flatnonzero(~np.isfinite(sq_norms)):
            if not np.isfinite(arr[row]).all():
                raise CoreliteError(f"row {row}: non-finite value")
        arr.flags.writeable = sq_norms.flags.writeable = False
        object.__setattr__(self, "data", arr)
        object.__setattr__(self, "ids", tuple(self.ids))
        object.__setattr__(self, "sq_norms", sq_norms)

    def __reduce__(self):  # copy and pickle: built and checked again, which sets the norms
        return type(self), self._values()

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


def _read_text(path) -> str:
    """A UTF-8 file's text, newlines as they are; invalid UTF-8 names its line."""
    raw = Path(path).read_bytes()
    try:
        text = raw.decode("utf-8")  # whole, so the error's offset is the file's
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        raise CoreliteError(f"{path}: line {line}: invalid UTF-8") from None
    if text.startswith("\ufeff"):
        raise CoreliteError(f"{path}: starts with a UTF-8 byte-order mark")
    return text


def read_json(path):
    """Parse a UTF-8 JSON file; a fault in its content names the file."""
    try:
        return json.loads(_read_text(path))
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


def _in_parallel(run, calls) -> None:
    """`run(*args)` for each `args` in `calls` (at least one): the first call in
    this thread, each other in a thread of its own.

    Every thread has ended when this returns or raises. If calls fail, the
    error raised is that of the first of them in `calls` order.
    """
    import threading

    errors = [None] * len(calls)

    def call(i):
        try:
            run(*calls[i])
        except BaseException as exc:
            errors[i] = exc

    threads = []  # the started ones
    try:
        for i in range(1, len(calls)):
            thread = threading.Thread(target=call, args=(i,))
            thread.start()
            threads.append(thread)
        call(0)
    finally:
        for thread in threads:
            thread.join()
    for exc in errors:
        if exc is not None:
            raise exc


def load_embeddings(data_path, ids_path, normalize=False) -> EmbeddingMatrix:
    """Read the EMB1 binary matrix into float64 rows, and its ids file, in one pass.

    The payload is split by rows among the CPUs this process may run on, at
    most one per block of `_NORM_ROWS` rows. Each worker reads its rows a block
    at a time into a float32 buffer, widens them into the matrix, and takes
    their squared norms while they are in cache, so the matrix's values are
    not walked again (rows over `_EINSUM_ROW` values wide have their norms
    taken again, over the whole matrix). Finiteness is found after the load,
    from the norms, as for any `EmbeddingMatrix`: for float32 values the
    squared norm of a row is finite unless the row holds inf or NaN.

    `normalize` scales rows to unit L2 norm as they are read, with float64
    squares and quotients rounded to float32: the values of a float32
    normalized matrix. Zero rows stay zero; a row with inf or NaN stays
    non-finite. The format is checked first; then the rules of
    `EmbeddingMatrix`, in its order, naming both files.
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
        ids = _read_text(ids_path).replace("\r\n", "\n").split("\n")
        if ids[-1] == "":  # the text ends with LF, or is empty
            ids.pop()

        X, sq_norms = np.empty((n, d)), np.empty(n)

        def read_rows(lo, hi):
            """Rows lo..hi-1 into X, and their squared norms into sq_norms."""
            buf = np.empty((min(_NORM_ROWS, hi - lo), d), "<f4")
            with np.errstate(invalid="ignore"):  # inf / inf: a row with inf stays non-finite
                for start in range(lo, hi, _NORM_ROWS):
                    block = buf[:hi - start]
                    rows = slice(start, start + len(block))
                    dst = X[rows]
                    if os.preadv(fh.fileno(), [block], 12 + 4 * d * start) != block.nbytes:
                        raise CoreliteError(f"{data_path}: file ended inside the payload")
                    if normalize:
                        sq = np.square(block, out=dst, dtype=np.float64)
                        norm = np.sqrt(sq.sum(1, keepdims=True))
                        norm[norm == 0.0] = 1.0
                        np.divide(block, norm, out=block)  # rounded to float32
                    dst[...] = block
                    np.einsum("ij,ij->i", dst, dst, out=sq_norms[rows])

        blocks = -(-n // _NORM_ROWS) if d else 0  # d == 0 has nothing to read
        workers = max(1, min(len(os.sched_getaffinity(0)), blocks))
        bounds = [min(n, w * blocks // workers * _NORM_ROWS) for w in range(workers + 1)]
        _in_parallel(read_rows, list(zip(bounds, bounds[1:])))
        if d > _EINSUM_ROW:
            np.einsum("ij,ij->i", X, X, out=sq_norms)
    try:
        matrix = EmbeddingMatrix._unchecked(ids, X)
        matrix._keep(X, sq_norms)
        return matrix
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
    reader = csv.reader(io.StringIO(_read_text(path), newline=""))
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
