"""8-gram overlap indexes over training corpora and benchmark contamination scans.

Text indexes track "meaningless" n-grams (those appearing more than
`freq_threshold` times in training data) so boilerplate matches can be
suppressed. Image indexes work over fixed-length 32-token sequences with
25 stride-1 windows each; an 8-token window hit corresponds to roughly a
quarter of the image overlapping.

Every index keys its table either by the exact token window or by its 64-bit
FNV-1a hash (`hashed`). Build, scan, save and load run one body for both;
`_MODES` supplies what differs per (kind, hashed) pair.
"""

from __future__ import annotations

import enum
import struct
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Callable, NamedTuple

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


def fnv1a64(data: bytes) -> int:
    """64-bit FNV-1a over a byte string."""
    h = _FNV_OFFSET
    for b in data:
        h = ((h ^ b) * _FNV_PRIME) & _MASK64
    return h


def _text_token_bytes(token: str) -> bytes:
    raw = token.encode("utf-8")
    return _U32.pack(len(raw)) + raw


def _pack_words(tokens) -> bytes:
    return b"".join(map(_text_token_bytes, tokens))


def _unpack_words(raw: bytes) -> tuple[str, ...]:
    words = []
    pos = 0
    while pos < len(raw):
        if pos + 4 > len(raw):
            raise ValueError("token length cut short")
        (size,) = _U32.unpack_from(raw, pos)
        pos += 4 + size
        if pos > len(raw):
            raise ValueError("token runs past the key")
        words.append(raw[pos - size : pos].decode("utf-8"))
    return tuple(words)


def _pack_ids(tokens) -> bytes:
    return struct.pack(f"<{len(tokens)}I", *tokens)


def _unpack_ids(raw: bytes) -> tuple[int, ...]:
    return struct.unpack(f"<{len(raw) // 4}I", raw)


def _unpack_u64(raw: bytes) -> int:
    return _U64.unpack(raw)[0]


def hash_text_token(token: str) -> int:
    """Hash one word token: length-prefixed UTF-8 through FNV-1a."""
    return fnv1a64(_text_token_bytes(token))


def hash_text_ngram(tokens) -> int:
    """Hash a word n-gram: per-token length-prefixed UTF-8, in order."""
    return fnv1a64(_pack_words(tokens))


def hash_image_window(tokens) -> int:
    """Hash an image-token window: 4-byte little-endian ids, in order."""
    return fnv1a64(_pack_ids(tokens))


class _Mode(NamedTuple):
    """How one (kind, hashed) pair keys its table and writes keys to NGI1."""

    window_key: Callable  # token window -> table key
    token_key: Callable | None  # one text token -> meaningless-token key
    pack: Callable  # table key -> NGI1 key bytes
    unpack: Callable  # NGI1 key bytes -> table key
    width: Callable  # tokens per key -> key bytes, or None for a u32 length prefix


_HASHED_KEYS = (_U64.pack, _unpack_u64, lambda n: 8)
_MODES = {
    (_KIND_TEXT, False): _Mode(tuple, str, _pack_words, _unpack_words, lambda n: None),
    (_KIND_TEXT, True): _Mode(hash_text_ngram, hash_text_token, *_HASHED_KEYS),
    (_KIND_IMAGE, False): _Mode(tuple, None, _pack_ids, _unpack_ids, lambda n: 4 * n),
    (_KIND_IMAGE, True): _Mode(hash_image_window, None, *_HASHED_KEYS),
}


def _check_n(kind: int, n: int, where: str = "") -> None:
    if not 1 <= n <= _MAX_N[kind]:
        raise CoreliteError(f"{where}n must be in 1..{_MAX_N[kind]}")


class ContaminationCategory(enum.Enum):
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
    category: ContaminationCategory
    matched_windows: int


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


@dataclass(frozen=True)
class TextNGramIndex:
    """Counts of word n-grams in training data plus the meaningless-gram sets.

    Keys are exact token tuples by default, or 64-bit FNV-1a hashes in
    hashed mode (memory saver at scale; identical scan results absent
    collisions).
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

    `exact_sequences` holds the full sequences (or their hashes) for
    duplicate detection. No frequency filtering is applied to images.
    """

    n: int
    hashed: bool
    table: dict
    exact_sequences: frozenset


def _text_windows(tokens: list[str], n: int):
    return zip(*(tokens[i:] for i in range(n)))


def _image_windows(seq: TokenSequence, n: int):
    if len(seq.tokens) != IMAGE_TOKEN_LEN:
        raise CoreliteError(
            f"id={seq.id}: length {len(seq.tokens)}, expected {IMAGE_TOKEN_LEN}"
        )
    return (seq.tokens[i : i + n] for i in range(IMAGE_TOKEN_LEN - n + 1))


def _text_index(
    n: int, freq_threshold: int, hashed: bool, table: dict, recover_tokens: Callable
) -> TextNGramIndex:
    """Derive the meaningless n-grams and their token keys from a count table.

    Exact keys hold their tokens. Hashed keys do not, so
    `recover_tokens(meaningless)` supplies the token hashes instead.
    """
    meaningless = frozenset(k for k, c in table.items() if c > freq_threshold)
    if hashed:
        tokens = frozenset(recover_tokens(meaningless))
    else:
        tokens = frozenset(chain.from_iterable(meaningless))
    return TextNGramIndex(n, freq_threshold, hashed, table, meaningless, tokens)


def build_text_index(
    train: list[TextDocument],
    n: int = 8,
    freq_threshold: int = 10,
    hashed: bool = False,
) -> TextNGramIndex:
    """Count all word n-grams in the training corpus and derive the meaningless sets."""
    _check_n(_KIND_TEXT, n)
    if freq_threshold < 1:
        raise CoreliteError("freq_threshold must be at least 1")
    mode = _MODES[_KIND_TEXT, hashed]

    table: Counter = Counter()
    for doc in train:
        table.update(map(mode.window_key, _text_windows(tokenize_text(doc.text), n)))

    def second_pass(meaningless):
        # Hashed keys do not keep their tokens: find them in the corpus again.
        if not meaningless:
            return ()
        return (
            mode.token_key(t)
            for doc in train
            for window in _text_windows(tokenize_text(doc.text), n)
            if mode.window_key(window) in meaningless
            for t in window
        )

    return _text_index(n, freq_threshold, hashed, dict(table), second_pass)


def overlap_ratio(candidate, index: TextNGramIndex) -> float:
    """Fraction of a candidate n-gram's token positions found in meaningless n-grams.

    `candidate` is a token tuple (exact mode) or a tuple of token hashes
    (hashed mode), length index.n either way.
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
    itself meaningless, and has overlap ratio below `ratio_threshold`.
    """
    mode = _MODES[_KIND_TEXT, index.hashed]
    per_instance: dict[str, InstanceOverlap] = {}
    hit_count = 0
    for doc in bench:
        tokens = tokenize_text(doc.text)
        token_keys = list(map(mode.token_key, tokens))
        keys = map(mode.window_key, _text_windows(tokens, index.n))

        matched = 0
        for pos, key in enumerate(keys):
            if key not in index.table or key in index.meaningless:
                continue
            window_keys = tuple(token_keys[pos : pos + index.n])
            if overlap_ratio(window_keys, index) < ratio_threshold:
                matched += 1
        text_hit = matched > 0
        hit_count += text_hit
        per_instance[doc.id] = InstanceOverlap(
            text_hit=text_hit,
            image_hit=False,
            exact_image=False,
            category=categorize(text_hit, False, False),
            matched_windows=matched,
        )

    total = len(bench)
    pct = 100.0 * hit_count / total if total else 0.0
    return OverlapReport(per_instance, text_overlap_pct=pct, image_overlap_pct=0.0)


def build_image_index(
    train: list[TokenSequence], n: int = 8, hashed: bool = False
) -> ImageNGramIndex:
    """Index all stride-1 windows of the 32-token training sequences."""
    _check_n(_KIND_IMAGE, n)
    mode = _MODES[_KIND_IMAGE, hashed]
    table: Counter = Counter()
    for seq in train:
        table.update(map(mode.window_key, _image_windows(seq, n)))
    exact = frozenset(mode.window_key(seq.tokens) for seq in train)
    return ImageNGramIndex(n=n, hashed=hashed, table=dict(table), exact_sequences=exact)


def scan_image(bench: list[TokenSequence], index: ImageNGramIndex) -> OverlapReport:
    """Flag benchmark sequences whose windows (or whole sequence) hit the index."""
    mode = _MODES[_KIND_IMAGE, index.hashed]
    per_instance: dict[str, InstanceOverlap] = {}
    hit_count = 0
    for seq in bench:
        keys = map(mode.window_key, _image_windows(seq, index.n))
        matched = sum(1 for key in keys if key in index.table)
        exact_image = mode.window_key(seq.tokens) in index.exact_sequences
        image_hit = matched > 0
        hit_count += image_hit
        per_instance[seq.id] = InstanceOverlap(
            text_hit=False,
            image_hit=image_hit,
            exact_image=exact_image,
            category=categorize(False, image_hit, exact_image),
            matched_windows=matched,
        )

    total = len(bench)
    pct = 100.0 * hit_count / total if total else 0.0
    return OverlapReport(per_instance, text_overlap_pct=0.0, image_overlap_pct=pct)


# --- index serialization ---------------------------------------------------
#
# Layout: magic "NGI1" | version u16 | n u16 | freq_threshold u32 |
# kind u8 (0 text, 1 image) | hashed u8 (0 or 1) | entry count u64 |
# (key, count u64) entries | kind-specific trailer. All integers are
# little-endian. A hashed key is a u64; an exact image key is n u32 ids; an
# exact text key is a u32 byte length, then per token a u32 byte length and
# its UTF-8. Trailers: image indexes store a u64 count and the exact-sequence
# keys; hashed text indexes a u64 count and the u64 meaningless-token hashes;
# exact text indexes nothing, as their keys hold those tokens.
#
# Sort orders make files byte-reproducible. Entries and image sequences sort
# by key bytes (exact text: without the length prefix), so hashed keys sort
# by little-endian bytes, not by value. Meaningless-token hashes sort by value.


def save_index(index, path) -> None:
    """Write a text or image n-gram index in the NGI1 binary format."""
    if isinstance(index, TextNGramIndex):
        kind, freq = _KIND_TEXT, index.freq_threshold
    elif isinstance(index, ImageNGramIndex):
        kind, freq = _KIND_IMAGE, 0
    else:
        raise CoreliteError(f"cannot serialize {type(index).__name__}")
    mode = _MODES[kind, index.hashed]
    length_prefix = mode.width(index.n) is None

    out = bytearray(NGI_MAGIC)
    out += struct.pack("<HHIBB", NGI_VERSION, index.n, freq, kind, int(index.hashed))
    entries = sorted((mode.pack(k), c) for k, c in index.table.items())
    out += struct.pack("<Q", len(entries))
    for key_bytes, count in entries:
        if length_prefix:
            out += struct.pack("<I", len(key_bytes))
        out += key_bytes + struct.pack("<Q", count)

    if kind == _KIND_IMAGE:
        trailer = sorted(map(mode.pack, index.exact_sequences))
    elif index.hashed:
        trailer = [_U64.pack(t) for t in sorted(index.meaningless_tokens)]
    else:
        trailer = None
    if trailer is not None:
        out += struct.pack("<Q", len(trailer)) + b"".join(trailer)

    write_atomic(path, out)


class _Reader:
    def __init__(self, data: bytes, path):
        self.data = data
        self.off = len(NGI_MAGIC)
        self.path = path

    def raw(self, size: int) -> bytes:
        if self.off + size > len(self.data):
            raise CoreliteError(f"{self.path}: truncated index file")
        self.off += size
        return self.data[self.off - size : self.off]

    def take(self, fmt: str):
        return struct.unpack(fmt, self.raw(struct.calcsize(fmt)))

    def table(self, mode: _Mode, n: int) -> dict:
        """A u64 count, then that many (key, count u64) entries."""
        (count,) = self.take("<Q")
        width = mode.width(n)
        if width is None:
            table = {}
            raw, unpack = self.raw, mode.unpack
            for _ in range(count):
                (size,) = _U32.unpack(raw(4))
                try:
                    key = unpack(raw(size))
                except ValueError as exc:  # includes UnicodeDecodeError
                    raise CoreliteError(f"{self.path}: bad text key ({exc})") from None
                if len(key) != n:
                    raise CoreliteError(
                        f"{self.path}: text key of {len(key)} tokens, expected {n}"
                    )
                (table[key],) = _U64.unpack(raw(8))
            return table
        records = struct.iter_unpack(f"<{width}sQ", self.raw(count * (width + 8)))
        return {mode.unpack(key): c for key, c in records}

    def keys(self, mode: _Mode, tokens: int) -> list:
        """A u64 count, then that many fixed-width keys of `tokens` tokens each."""
        (count,) = self.take("<Q")
        width = mode.width(tokens)
        block = self.raw(count * width)
        return [mode.unpack(k) for (k,) in struct.iter_unpack(f"<{width}s", block)]


def load_index(path):
    """Read an NGI1 index file; returns a TextNGramIndex or ImageNGramIndex."""
    data = Path(path).read_bytes()
    if data[:4] != NGI_MAGIC:
        raise CoreliteError(f"{path}: bad magic, expected {NGI_MAGIC!r}")
    r = _Reader(data, path)
    version, n, freq, kind, hashed = r.take("<HHIBB")
    if version != NGI_VERSION:
        raise CoreliteError(f"{path}: unsupported index version {version}")
    if (kind, hashed) not in _MODES:
        raise CoreliteError(
            f"{path}: unknown index kind {kind} or hashed flag {hashed}"
        )
    _check_n(kind, n, f"{path}: ")
    mode = _MODES[kind, hashed]
    hashed = bool(hashed)

    table = r.table(mode, n)
    if kind == _KIND_TEXT:
        # The hashed-text trailer holds u64 token hashes, read as 1-token keys.
        index = _text_index(n, freq, hashed, table, lambda _: r.keys(mode, 1))
    else:
        exact = frozenset(r.keys(mode, IMAGE_TOKEN_LEN))
        index = ImageNGramIndex(n=n, hashed=hashed, table=table, exact_sequences=exact)
    if r.off != len(data):
        raise CoreliteError(f"{path}: trailing bytes in index file")
    return index
