"""8-gram overlap indexes over training corpora and benchmark contamination scans.

Text indexes track "meaningless" n-grams (those appearing more than
`freq_threshold` times in training data) so boilerplate matches can be
suppressed. Image indexes work over fixed-length 32-token sequences with
25 stride-1 windows each; an 8-token window hit corresponds to roughly a
quarter of the image overlapping.

A table key is the n-gram's NGI1 key bytes: per text token a u32 byte length
and its UTF-8, per image token a u32 little-endian id. Hashed indexes
(`hashed`) key by the 64-bit FNV-1a of those bytes instead. Windows are
slices of one encoding per document or sequence, so build, scan, save and
load run one body for both modes.
"""

from __future__ import annotations

import enum
import math
import struct
from collections import Counter
from dataclasses import dataclass, field
from itertools import accumulate, chain, starmap
from pathlib import Path
from typing import Callable, NoReturn

from . import CoreliteError
from .corpus import (
    IMAGE_TOKEN_LEN,
    TextDocument,
    TokenSequence,
    tokenize_text,
    write_atomic,
)

NGI_MAGIC = b"NGI1"
NGI_VERSION = 1
_KIND_TEXT = 0
_KIND_IMAGE = 1
_MAX_N = {_KIND_TEXT: 0xFFFF, _KIND_IMAGE: IMAGE_TOKEN_LEN}

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")
_IMAGE_IDS = struct.Struct(f"<{IMAGE_TOKEN_LEN}I")


def fnv1a64(data: bytes) -> int:
    """64-bit FNV-1a over a byte string."""
    h = _FNV_OFFSET
    for b in data:
        h = ((h ^ b) * _FNV_PRIME) & _MASK64
    return h


def _text_token_bytes(token: str) -> bytes:
    raw = token.encode("utf-8")
    return _U32.pack(len(raw)) + raw


class _Memo(dict):
    """x -> f(x), computed once per distinct x: per-call token encodings and hashes."""

    def __init__(self, f: Callable):
        self.f = f

    def __missing__(self, x):
        self[x] = y = self.f(x)
        return y


def _split_words(key: bytes) -> list[bytes]:
    """Split an exact text key into its per-token encodings, checking each."""
    words = []
    pos = 0
    while pos < len(key):
        if pos + 4 > len(key):
            raise ValueError("token length cut short")
        end = pos + 4 + _U32.unpack_from(key, pos)[0]
        if end > len(key):
            raise ValueError("token runs past the key")
        key[pos + 4 : end].decode("utf-8")
        words.append(key[pos:end])
        pos = end
    return words


def hash_text_ngram(tokens) -> int:
    """Hash a word n-gram: its exact key, per-token length-prefixed UTF-8."""
    return fnv1a64(b"".join(map(_text_token_bytes, tokens)))


def _keys(encodings, hashed: bool):
    """Table keys of NGI1 encodings: the bytes themselves, or their FNV-1a."""
    return map(fnv1a64, encodings) if hashed else encodings


def _check_n(kind: int, n: int, where: str = "") -> None:
    if not 1 <= n <= _MAX_N[kind]:
        raise CoreliteError(f"{where}n must be in 1..{_MAX_N[kind]}")


def _check_freq(freq_threshold: int, where: str = "") -> None:
    if not 1 <= freq_threshold <= 0xFFFFFFFF:  # NGI1 stores it as a u32
        raise CoreliteError(f"{where}freq_threshold must be in 1..4294967295")


class ContaminationCategory(str, enum.Enum):
    """A str enum, so JSON writes each category as its value."""

    CLEAN = "clean"
    DUPLICATE_IMAGE = "duplicate_image"
    SIMILAR_IMAGE = "similar_image"
    SIMILAR_QUESTION = "similar_question"


def categorize(text_hit: bool, image_hit: bool, exact_image: bool) -> ContaminationCategory:
    """Assign the single contamination category, image evidence first."""
    if exact_image and not image_hit:
        raise CoreliteError("exact_image requires image_hit")
    if exact_image:
        return ContaminationCategory.DUPLICATE_IMAGE
    if image_hit:
        return ContaminationCategory.SIMILAR_IMAGE
    if text_hit:
        return ContaminationCategory.SIMILAR_QUESTION
    return ContaminationCategory.CLEAN


@dataclass(frozen=True)
class InstanceOverlap:
    text_hit: bool
    image_hit: bool
    exact_image: bool
    matched_windows: int
    category: ContaminationCategory = field(init=False)

    def __post_init__(self):
        category = categorize(self.text_hit, self.image_hit, self.exact_image)
        object.__setattr__(self, "category", category)


@dataclass(frozen=True)
class OverlapReport:
    per_instance: dict[str, InstanceOverlap]
    text_overlap_pct: float
    image_overlap_pct: float

    def category_counts(self) -> dict[ContaminationCategory, int]:
        counts = {cat: 0 for cat in ContaminationCategory}
        for inst in self.per_instance.values():
            counts[inst.category] += 1
        return counts


def _hit_pct(hits: list[bool]) -> float:
    """Percentage of scanned documents with a hit, one flag per document."""
    return 100.0 * sum(hits) / len(hits) if hits else 0.0


@dataclass(frozen=True)
class TextNGramIndex:
    """Counts of word n-grams in training data plus the meaningless-gram sets.

    A table key is the n-gram's NGI1 key bytes (per token a u32 byte length
    and its UTF-8), or in hashed mode their 64-bit FNV-1a (memory saver at
    scale; identical scan results absent collisions). `meaningless_tokens`
    holds per-token encodings, or their FNV-1a when hashed. A hashed build
    takes a meaningless key's tokens from the window that first passed the
    threshold, so a colliding key misses its other windows' tokens.
    """

    n: int
    freq_threshold: int
    hashed: bool
    table: dict
    meaningless: frozenset
    meaningless_tokens: frozenset


@dataclass(frozen=True)
class ImageNGramIndex:
    """Counts of 8-token windows over 32-token image sequences.

    A table key is the window's NGI1 key bytes (n little-endian u32 ids), or
    their 64-bit FNV-1a when hashed. `exact_sequences` keys the full
    sequences the same way, for duplicate detection. No frequency filtering
    is applied to images.
    """

    n: int
    hashed: bool
    table: dict
    exact_sequences: frozenset


def _text_windows(encoded: list[bytes], n: int) -> list[bytes]:
    """Exact keys of a document's n-grams: slices of its joined token encodings."""
    doc = b"".join(encoded)
    ends = list(accumulate(map(len, encoded), initial=0))
    return [doc[a:b] for a, b in zip(ends, ends[n:])]


def _image_encoding(seq: TokenSequence) -> bytes:
    if len(seq.tokens) != IMAGE_TOKEN_LEN:
        raise CoreliteError(
            f"id={seq.id}: length {len(seq.tokens)}, expected {IMAGE_TOKEN_LEN}"
        )
    return _IMAGE_IDS.pack(*seq.tokens)


def _image_windows(encoded: bytes, n: int) -> list[bytes]:
    """Exact keys of a sequence's stride-1 windows: slices of its encoding."""
    return [encoded[i : i + 4 * n] for i in range(0, len(encoded) - 4 * n + 1, 4)]


def _text_index(
    n: int, freq_threshold: int, hashed: bool, table: dict, token_hashes
) -> TextNGramIndex:
    """Derive the meaningless n-grams and their token keys from a count table.

    Exact keys hold their token encodings. Hashed keys do not, so the caller
    passes the meaningless-token hashes as `token_hashes` (`()` when exact).
    """
    meaningless = frozenset(k for k, c in table.items() if c > freq_threshold)
    words = chain.from_iterable(map(_split_words, meaningless))  # read if exact
    tokens = frozenset(token_hashes if hashed else words)
    return TextNGramIndex(n, freq_threshold, hashed, table, meaningless, tokens)


def build_text_index(
    train: list[TextDocument],
    n: int = 8,
    freq_threshold: int = 10,
    hashed: bool = False,
) -> TextNGramIndex:
    """Count all word n-grams in the training corpus and derive the meaningless sets.

    One pass: a hashed key keeps no tokens, so its window that first passes
    `freq_threshold` gives them (the key's own, absent a 64-bit collision).
    """
    _check_n(_KIND_TEXT, n)
    _check_freq(freq_threshold)
    encode = _Memo(_text_token_bytes).__getitem__

    table: Counter = Counter()
    tokens = set()
    for doc in train:
        encoded = list(map(encode, tokenize_text(doc.text)))
        windows = _text_windows(encoded, n)
        if not hashed:
            table.update(windows)
            continue
        for pos, key in enumerate(map(fnv1a64, windows)):
            table[key] = count = table.get(key, 0) + 1
            if count == freq_threshold + 1:
                tokens.update(encoded[pos : pos + n])

    return _text_index(n, freq_threshold, hashed, dict(table), map(fnv1a64, tokens))


def overlap_ratio(candidate, index: TextNGramIndex) -> float:
    """Fraction of a candidate n-gram's token positions found in meaningless n-grams.

    `candidate` holds index.n per-token keys: NGI1 token encodings (a u32
    byte length and the UTF-8), or their FNV-1a in hashed mode.
    """
    if len(candidate) != index.n:
        raise CoreliteError(
            f"candidate has {len(candidate)} tokens, index n is {index.n}"
        )
    if not index.meaningless_tokens:
        return 0.0
    hits = sum(1 for t in candidate if t in index.meaningless_tokens)
    return hits / index.n


def scan_text(
    bench: list[TextDocument],
    index: TextNGramIndex,
    ratio_threshold: float = 0.75,
) -> OverlapReport:
    """Flag benchmark documents sharing a qualifying n-gram with training data.

    A window qualifies when it is present in the training table, is not
    itself meaningless, and has overlap ratio below `ratio_threshold`; a
    threshold above 1 turns the ratio filter off.
    """
    if math.isnan(ratio_threshold):
        raise CoreliteError("ratio_threshold must not be NaN")
    encode = _Memo(_text_token_bytes).__getitem__
    # Hashed token keys are needed only for windows that hit the table, and a
    # leaked document's tokens sit in up to n of them: hash each one once.
    token_hash = _Memo(fnv1a64).__getitem__
    per_instance: dict[str, InstanceOverlap] = {}
    hits = []
    for doc in bench:
        encoded = list(map(encode, tokenize_text(doc.text)))
        keys = _keys(_text_windows(encoded, index.n), index.hashed)

        matched = 0
        for pos, key in enumerate(keys):
            if key not in index.table or key in index.meaningless:
                continue
            window = encoded[pos : pos + index.n]
            window_keys = list(map(token_hash, window)) if index.hashed else window
            if overlap_ratio(window_keys, index) < ratio_threshold:
                matched += 1
        hits.append(matched > 0)
        per_instance[doc.id] = InstanceOverlap(matched > 0, False, False, matched)
    pct = _hit_pct(hits)
    return OverlapReport(per_instance, text_overlap_pct=pct, image_overlap_pct=0.0)


def build_image_index(
    train: list[TokenSequence], n: int = 8, hashed: bool = False
) -> ImageNGramIndex:
    """Index all stride-1 windows of the 32-token training sequences."""
    _check_n(_KIND_IMAGE, n)
    table: Counter = Counter()
    exact = set()
    for seq in train:
        encoded = _image_encoding(seq)
        table.update(_keys(_image_windows(encoded, n), hashed))
        exact.update(_keys([encoded], hashed))
    return ImageNGramIndex(n, hashed, dict(table), frozenset(exact))


def scan_image(bench: list[TokenSequence], index: ImageNGramIndex) -> OverlapReport:
    """Flag benchmark sequences whose windows (or whole sequence) hit the index."""
    per_instance: dict[str, InstanceOverlap] = {}
    hits = []
    for seq in bench:
        encoded = _image_encoding(seq)
        keys = _keys(_image_windows(encoded, index.n), index.hashed)
        matched = sum(1 for key in keys if key in index.table)
        (whole,) = _keys([encoded], index.hashed)
        hits.append(matched > 0)
        per_instance[seq.id] = InstanceOverlap(
            False, matched > 0, whole in index.exact_sequences, matched
        )
    pct = _hit_pct(hits)
    return OverlapReport(per_instance, text_overlap_pct=0.0, image_overlap_pct=pct)


# --- index serialization ---------------------------------------------------
#
# Layout: magic "NGI1" | version u16 | n u16 | freq_threshold u32 |
# kind u8 (0 text, 1 image) | hashed u8 (0 or 1) | entry count u64 |
# (key, count u64) entries | kind-specific trailer. All integers are
# little-endian. Every key is its in-memory table key: a hashed key is the
# u64 FNV-1a; an exact image key is its n u32 ids; an exact text key is a u32
# byte length, then per token a u32 byte length and its UTF-8. Trailers:
# image indexes store a u64 count and the exact-sequence keys; hashed text
# indexes a u64 count and the u64 meaningless-token hashes; exact text
# indexes nothing, as their keys hold those tokens.
#
# Sort orders make files byte-reproducible. Entries and image sequences sort
# by key bytes (exact text: without the length prefix), so hashed keys sort
# by little-endian bytes, not by value. Meaningless-token hashes sort by value.


def _key_format(hashed: bool, tokens: int) -> str:
    """struct format of a fixed-width key: a u64 hash, or `tokens` u32 ids."""
    return "Q" if hashed else f"{4 * tokens}s"


def save_index(index, path) -> None:
    """Write a text or image n-gram index in the NGI1 binary format."""
    if isinstance(index, TextNGramIndex):
        kind, freq = _KIND_TEXT, index.freq_threshold
    elif isinstance(index, ImageNGramIndex):
        kind, freq = _KIND_IMAGE, 0
    else:
        raise CoreliteError(f"cannot serialize {type(index).__name__}")

    out = bytearray(NGI_MAGIC)
    out += struct.pack("<HHIBB", NGI_VERSION, index.n, freq, kind, int(index.hashed))
    out += _U64.pack(len(index.table))
    if kind == _KIND_TEXT and not index.hashed:
        for key, count in sorted(index.table.items()):
            out += _U32.pack(len(key)) + key + _U64.pack(count)
    else:
        # Fixed-width keys are unique, so whole records sort by key bytes.
        entry = struct.Struct(f"<{_key_format(index.hashed, index.n)}Q")
        for record in sorted(starmap(entry.pack, index.table.items())):
            out += record

    if kind == _KIND_IMAGE:
        key = struct.Struct(f"<{_key_format(index.hashed, IMAGE_TOKEN_LEN)}")
        trailer = sorted(map(key.pack, index.exact_sequences))
    elif index.hashed:
        trailer = list(map(_U64.pack, sorted(index.meaningless_tokens)))
    else:
        trailer = None
    if trailer is not None:
        out += _U64.pack(len(trailer)) + b"".join(trailer)

    write_atomic(path, out)


class _Reader:
    def __init__(self, data: bytes, path):
        self.data = data
        self.off = len(NGI_MAGIC)
        self.path = path

    def truncated(self) -> CoreliteError:
        return CoreliteError(f"{self.path}: truncated index file")

    def raw(self, size: int) -> bytes:
        if self.off + size > len(self.data):
            raise self.truncated()
        self.off += size
        return self.data[self.off - size : self.off]

    def take(self, fmt: str):
        return struct.unpack(fmt, self.raw(struct.calcsize(fmt)))

    def text_table(self, n: int) -> dict:
        """A u64 count, then that many length-prefixed exact text keys and counts.

        Each key is checked in one walk over its n token lengths. ASCII bytes
        are valid UTF-8 as they stand, so only a key that is not all ASCII (a
        multi-byte token, a length byte of 0x80 or more) decodes each token as
        the walk passes it. Only a key that fails goes through `_split_words`,
        which names the first fault.
        """
        (count,) = self.take("<Q")
        data, off, size = self.data, self.off, len(self.data)
        u32, u64 = _U32.unpack_from, _U64.unpack_from
        steps = range(n)
        table = {}
        for _ in range(count):
            if off + 4 > size:
                raise self.truncated()
            start = off + 4
            off = start + u32(data, off)[0]
            if off > size:
                raise self.truncated()
            key = data[start:off]
            pos = 0
            try:
                if key.isascii():
                    for _ in steps:
                        pos += 4 + u32(key, pos)[0]
                else:
                    for _ in steps:
                        end = pos + 4 + u32(key, pos)[0]
                        key[pos + 4 : end].decode("utf-8")
                        pos = end
            except (struct.error, UnicodeDecodeError):
                pos = -1
            if pos != len(key):
                self.bad_text_key(key, n)
            if off + 8 > size:
                raise self.truncated()
            (table[key],) = u64(data, off)
            off += 8
        self.off = off
        return table

    def bad_text_key(self, key: bytes, n: int) -> NoReturn:
        # The key failed the walk, so `_split_words` raises or counts other than n.
        try:
            tokens = len(_split_words(key))
        except ValueError as exc:  # includes UnicodeDecodeError
            raise CoreliteError(f"{self.path}: bad text key ({exc})") from None
        raise CoreliteError(f"{self.path}: text key of {tokens} tokens, expected {n}")

    def records(self, fmt: str):
        """A u64 count, then that many fixed-width `fmt` records, unpacked."""
        (count,) = self.take("<Q")
        record = struct.Struct(f"<{fmt}")
        return record.iter_unpack(self.raw(count * record.size))


def load_index(path):
    """Read an NGI1 index file; returns a TextNGramIndex or ImageNGramIndex."""
    data = Path(path).read_bytes()
    if data[:4] != NGI_MAGIC:
        raise CoreliteError(f"{path}: bad magic, expected {NGI_MAGIC!r}")
    r = _Reader(data, path)
    version, n, freq, kind, hashed = r.take("<HHIBB")
    if version != NGI_VERSION:
        raise CoreliteError(f"{path}: unsupported index version {version}")
    if kind not in _MAX_N or hashed not in (0, 1):
        raise CoreliteError(
            f"{path}: unknown index kind {kind} or hashed flag {hashed}"
        )
    _check_n(kind, n, f"{path}: ")
    hashed = bool(hashed)

    if kind == _KIND_TEXT and not hashed:
        table = r.text_table(n)
    else:
        table = dict(r.records(f"{_key_format(hashed, n)}Q"))
    if kind == _KIND_TEXT:
        _check_freq(freq, f"{path}: ")
        # The hashed-text trailer holds the u64 meaningless-token hashes.
        tokens = chain.from_iterable(r.records("Q")) if hashed else ()
        index = _text_index(n, freq, hashed, table, tokens)
    else:
        key = _key_format(hashed, IMAGE_TOKEN_LEN)
        exact = frozenset(chain.from_iterable(r.records(key)))
        index = ImageNGramIndex(n=n, hashed=hashed, table=table, exact_sequences=exact)
    if r.off != len(data):
        raise CoreliteError(f"{path}: trailing bytes in index file")
    return index
