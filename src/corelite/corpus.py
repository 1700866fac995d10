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
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

from . import CoreliteError

if TYPE_CHECKING:
    import numpy as np

EMB_MAGIC = b"EMB1"
IMAGE_TOKEN_LEN = 32
_MAX_TOKEN_ID = (1 << 32) - 1
_MAX_COUNT = 1 << 53  # the largest count a float64 weight holds exactly

_WORD_RE = re.compile(r"[^\W_]+", re.UNICODE)


def tokenize_text(text: str) -> list[str]:
    """Lowercase and split on maximal runs of non-alphanumeric code points.

    Deterministic by construction: no locale, no stemming, no stop words.
    """
    return _WORD_RE.findall(text.lower())


@dataclass(frozen=True)
class TextDocument:
    id: str
    text: str

    def __post_init__(self):
        if not isinstance(self.text, str):
            raise CoreliteError("text must be a string")
        if not self.id:
            raise CoreliteError("document id must be non-empty")


@dataclass(frozen=True)
class TokenSequence:
    id: str
    tokens: tuple[int, ...]

    def __post_init__(self):
        if not isinstance(self.tokens, (list, tuple)) or not all(
            isinstance(t, int) and not isinstance(t, bool) for t in self.tokens
        ):
            raise CoreliteError("tokens must be a list of integers")
        if len(self.tokens) != IMAGE_TOKEN_LEN:
            raise CoreliteError(
                f"id={self.id}: length {len(self.tokens)}, expected {IMAGE_TOKEN_LEN}"
            )
        if not self.id:
            raise CoreliteError("sequence id must be non-empty")
        for t in self.tokens:
            if not (0 <= t <= _MAX_TOKEN_ID):
                raise CoreliteError(f"id={self.id}: token id {t} out of range")
        object.__setattr__(self, "tokens", tuple(self.tokens))


@dataclass(frozen=True)
class EmbeddingMatrix:
    """Dense n x d matrix of per-instance feature vectors with row ids."""

    ids: tuple[str, ...]
    data: np.ndarray  # float32, shape (n, d)

    def __post_init__(self):
        import numpy as np

        arr = np.ascontiguousarray(self.data, dtype=np.float32)
        if arr.ndim != 2:
            raise CoreliteError("embedding data must be 2-D")
        if arr.shape[1] <= 0:
            raise CoreliteError("embedding dimension must be positive")
        if len(self.ids) != arr.shape[0]:
            raise CoreliteError(f"{len(self.ids)} ids for {arr.shape[0]} rows")
        if "" in self.ids:
            raise CoreliteError(f"row {self.ids.index('')}: empty embedding id")
        if len(set(self.ids)) != len(self.ids):
            raise CoreliteError("embedding ids must be unique")
        bad = ~np.isfinite(arr)
        if bad.any():
            row = int(np.nonzero(bad.any(axis=1))[0][0])
            raise CoreliteError(f"row {row}: non-finite value")
        arr.flags.writeable = False
        object.__setattr__(self, "data", arr)
        object.__setattr__(self, "ids", tuple(self.ids))

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def d(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True)
class ScoreTable:
    """(model, dataset) -> recorded raw score, optionally with instance counts."""

    entries: dict[tuple[str, str], float]
    counts: dict[tuple[str, str], int] = field(default_factory=dict)

    def __post_init__(self):
        for key, score in self.entries.items():
            if not math.isfinite(score):
                raise CoreliteError(f"score for {key} is not finite")
        for key, count in self.counts.items():
            if count <= 0:
                raise CoreliteError(f"count for {key} must be positive")
            if count > _MAX_COUNT:
                raise CoreliteError(f"count for {key} must be at most 2**53")

    def models(self) -> list[str]:
        return sorted({m for m, _ in self.entries})

    def datasets(self) -> list[str]:
        return sorted({d for _, d in self.entries})


@dataclass(frozen=True)
class ScaleSpec:
    """Per-dataset (min, max) normalization ranges; max - min positive and finite."""

    scales: dict[str, tuple[float, float]]

    def __post_init__(self):
        for dataset, (lo, hi) in self.scales.items():
            if not (hi > lo and math.isfinite(hi - lo)):
                raise CoreliteError(
                    f"scale for {dataset!r}: max must exceed min by a finite amount"
                )


def write_atomic(path, data: bytes) -> None:
    """Write `data` to `path` whole or not at all: a temp file, then os.replace.

    The temp file sits next to `path` and is opened like any new file, so the
    result's mode follows the umask. On failure it is removed, and any file
    already at `path` is left as it was.
    """
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    fh = open(tmp, "xb")
    try:
        with fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


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


def _jsonl_records(path, field_name: str, make) -> list:
    """Build `make(id, record[field_name])` for each JSONL record, in file order.

    Lines end at LF (a CR before it is whitespace); blank lines are skipped.
    Every record must be a JSON object with a string id, unique within the
    file, and the named field, which `make` checks. Errors name file and line.
    """
    seen: set[str] = set()
    records = []
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
                rec_id = rec["id"]
                if not isinstance(rec_id, str):
                    raise CoreliteError("id must be a string")
                if rec_id in seen:
                    raise CoreliteError(f"duplicate id {rec_id!r}")
                seen.add(rec_id)
                records.append(make(rec_id, rec[field_name]))
                continue
            except UnicodeDecodeError as exc:
                message = f"invalid UTF-8 ({exc.reason})"
            except json.JSONDecodeError as exc:
                message = f"invalid JSON ({exc.msg})"
            except RecursionError:
                message = "JSON nested too deeply"
            except CoreliteError as exc:
                message = str(exc)
            raise CoreliteError(f"{path}: line {lineno}: {message}") from None
    return records


def load_text_corpus(path) -> list[TextDocument]:
    """Read line-delimited JSON records {"id": ..., "text": ...} in file order."""
    return _jsonl_records(path, "text", TextDocument)


def load_token_corpus(path) -> list[TokenSequence]:
    """Read line-delimited JSON records {"id": ..., "tokens": [...]} in file order."""
    return _jsonl_records(path, "tokens", TokenSequence)


def load_embeddings(data_path, ids_path) -> EmbeddingMatrix:
    """Read the EMB1 binary matrix plus its sidecar ids file.

    This checks the format; `EmbeddingMatrix` checks the content, naming both files.
    """
    import numpy as np

    raw = Path(data_path).read_bytes()
    if raw[:4] != EMB_MAGIC:
        raise CoreliteError(f"{data_path}: bad magic, expected {EMB_MAGIC!r}")
    if len(raw) < 12:
        raise CoreliteError(f"{data_path}: truncated header")
    n, d = struct.unpack_from("<II", raw, 4)
    expected = 12 + 4 * n * d
    if len(raw) != expected:
        raise CoreliteError(
            f"{data_path}: payload is {len(raw) - 12} bytes, expected {expected - 12}"
        )
    data = np.frombuffer(raw, dtype="<f4", offset=12).reshape(n, d)

    ids = [line.removesuffix("\n") for line in _open_text(ids_path)]
    try:
        return EmbeddingMatrix(tuple(ids), data)
    except CoreliteError as exc:
        raise CoreliteError(f"{data_path}, {ids_path}: {exc}") from None


def save_embeddings(matrix: EmbeddingMatrix, data_path, ids_path) -> None:
    """Write the EMB1 binary matrix and sidecar ids file (one id per line, LF)."""
    import numpy as np

    out = bytearray(EMB_MAGIC + struct.pack("<II", matrix.n, matrix.d))
    out += memoryview(np.ascontiguousarray(matrix.data, dtype="<f4"))
    write_atomic(data_path, out)
    write_atomic(ids_path, "".join(f"{i}\n" for i in matrix.ids).encode("utf-8"))


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

    def bad(msg: str) -> CoreliteError:  # the message for the current row
        return CoreliteError(f"{path}: line {line}: {msg}")

    for line, row in rows:
        if not row:
            continue
        if len(row) < 3:
            raise bad("expected at least 3 columns")
        model, dataset = row[0], row[1]
        try:
            score = float(row[2])
        except ValueError:
            raise bad(f"unparseable score {row[2]!r}") from None
        if not math.isfinite(score):
            raise bad("score must be finite")
        key = (model, dataset)
        if key in entries:
            raise bad(f"duplicate (model, dataset) pair {key}")
        entries[key] = score
        if has_count and len(row) > 3 and row[3] != "":
            try:
                count = int(row[3])
            except ValueError:
                raise bad(f"unparseable count {row[3]!r}") from None
            if count <= 0:
                raise bad("count must be positive")
            if count > _MAX_COUNT:
                raise bad("count must be at most 2**53")
            counts[key] = count
    return ScoreTable(entries, counts)
