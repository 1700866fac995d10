"""8-gram overlap indexes over training corpora and benchmark contamination scans.

Text indexes track "meaningless" n-grams (those appearing more than
`freq_threshold` times in training data) and their tokens, flagged once per
scanned document, to drop windows of boilerplate. Image indexes work over
fixed-length 32-token sequences with 25 stride-1 windows each; an 8-token
window hit corresponds to roughly a quarter of the image overlapping.

A table key is the n-gram's NGI1 key bytes: per text token a u32 byte length
and its UTF-8, per image token a u32 little-endian id. Hashed indexes
(`hashed`) key by the 64-bit FNV-1a of those bytes instead. Windows are
slices of one encoding per document or sequence, so build and scan run one
body for both modes; only the keying helpers and the NGI1 layout differ.

Hashed keys are computed about 2048 at a time by `fnv1a64_many`, one 128-bit
lane per key in a single Python int (SWAR: each byte step is a few C-level
big-int operations over every key at once). numpy would vectorize the same
loop, but importing it costs a CLI process about 0.13 s and 13.6 MiB of RSS,
more than the hashing it would save on a typical audit.
"""

from __future__ import annotations

import enum
import io
import math
import os
import struct
from array import array
from collections import Counter, _count_elements  # Counter.update's C loop
from dataclasses import dataclass, field
from itertools import accumulate, chain, compress, count, islice, repeat
from operator import ge, itemgetter, lt
from typing import Iterable, NamedTuple, NoReturn

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
_LANE = struct.Struct("<Q8x")  # one key's hash: 64 bits, then 64 bits of headroom
_BATCH = 2048  # keys hashed together: 32 KiB ints, 2% per-step interpreter overhead
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")
_IMAGE_IDS = struct.Struct(f"<{IMAGE_TOKEN_LEN}I")
_READ_SIZE = 1 << 20  # bytes load_index reads at a time
_CHECK_ROWS = 1024  # entries or trailer keys load_index reads and checks together


def fnv1a64_many(keys: list[bytes]) -> list[int]:
    """The 64-bit FNV-1a of each key, computed `_BATCH` keys at a time."""
    hashes = []
    for lo in range(0, len(keys), _BATCH):
        hashes += _fnv1a64_lanes(keys[lo : lo + _BATCH])
    return hashes


def _fnv1a64_lanes(keys: list[bytes]) -> list[int]:
    """The 64-bit FNV-1a of each key, computed for all keys at once.

    Key i's hash runs in a 128-bit lane of one Python int, the keys sorted
    longest first, so the keys still running at byte step j are the low lanes.
    A step gathers their byte j into the low byte of each lane, XORs it in,
    multiplies by the prime and masks each lane back to 64 bits. A lane is
    below 2**64 and the prime below 2**41, so no carry crosses a lane. The
    lanes of keys that have ended are cut off the top and keep their value.
    """
    n = len(keys)
    lens = list(map(len, keys))
    order = sorted(range(n), key=lens.__getitem__, reverse=True)
    ends = [lens[i] for i in order] + [0]  # ends[a]: the (a+1)-th longest length
    width = ends[0]
    padded = b"".join(
        map(bytes.ljust, map(keys.__getitem__, order), repeat(width), repeat(b"\0"))
    )
    size = _LANE.size
    h = int.from_bytes(_LANE.pack(_FNV_OFFSET) * n, "little")
    mask = int.from_bytes(_LANE.pack(2**64 - 1) * n, "little")
    col = bytearray(size * n)
    parts = []  # lanes cut off, highest first
    lanes = n
    for active in range(n, 0, -1):  # steps ends[active] .. ends[active - 1] - 1
        if ends[active] == ends[active - 1]:
            continue
        low = (1 << 8 * size * active) - 1
        parts.append((h >> 8 * size * active).to_bytes(size * (lanes - active), "little"))
        h, mask, lanes = h & low, mask & low, active
        view = memoryview(col)[: size * active]
        for j in range(ends[active], ends[active - 1]):
            col[0 : size * active : size] = padded[j : active * width : width]
            h = ((h ^ int.from_bytes(view, "little")) * _FNV_PRIME) & mask
    parts.append(h.to_bytes(size * lanes, "little"))
    hashes = [v for (v,) in _LANE.iter_unpack(b"".join(reversed(parts)))]
    return list(map(hashes.__getitem__, sorted(range(n), key=order.__getitem__)))


def _text_token_bytes(token: str) -> bytes:
    raw = token.encode("utf-8")
    return _U32.pack(len(raw)) + raw


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
    return fnv1a64_many([b"".join(map(_text_token_bytes, tokens))])[0]


def _keyed(items, hashed: bool):
    """(item, keys) per (item, windows) of `items`, in order.

    Exact keys are the window encodings themselves. Hashed keys are their
    FNV-1a, computed across items in batches of up to `_BATCH` windows (one
    item's, if it has more), so no caller holds a whole corpus's windows.
    """
    if not hashed:
        yield from items
        return
    batch, size = [], 0
    for item, windows in items:
        if batch and size + len(windows) > _BATCH:
            yield from _hash_batch(batch)
            batch, size = [], 0
        batch.append((item, windows))
        size += len(windows)
    yield from _hash_batch(batch)


def _hash_batch(batch):
    """(item, its windows' FNV-1a) per (item, windows) of `batch`, in one call."""
    hashes = iter(fnv1a64_many([w for _, windows in batch for w in windows]))
    for item, windows in batch:
        yield item, list(islice(hashes, len(windows)))


def _token_keys(tokens: list[bytes], hashed: bool) -> list:
    """The index keys of token encodings: themselves, or their FNV-1a."""
    return fnv1a64_many(tokens) if hashed else tokens


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


def _hit_pct(hits: list[bool]) -> float:
    """Percentage of scanned documents with a hit, one flag per document."""
    return 100.0 * sum(hits) / len(hits) if hits else 0.0


@dataclass(frozen=True)
class TextNGramIndex:
    """Counts of word n-grams in training data plus the meaningless-gram sets.

    A table key is the n-gram's NGI1 key bytes (per token a u32 byte length
    and its UTF-8), or in hashed mode their 64-bit FNV-1a (memory saver at
    scale; identical scan results absent collisions). `meaningless_tokens`
    holds the meaningless n-grams' token encodings, keyed the same way.
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


def _encoded_texts(pairs, n: int):
    """((item, token encodings), n-gram windows) per (item, text) of `pairs`."""
    for item, text in pairs:
        encoded = list(map(_text_token_bytes, tokenize_text(text)))
        yield (item, encoded), _text_windows(encoded, n)


def _encoded_images(seqs: Iterable[TokenSequence], n: int):
    """(id, exact keys) per sequence: its windows', then the whole sequence's."""
    for seq in seqs:
        encoded = _IMAGE_IDS.pack(*seq.tokens)
        keys = [encoded[i : i + 4 * n] for i in range(0, len(encoded) - 4 * n + 1, 4)]
        keys.append(encoded)
        yield seq.id, keys


def _text_index(
    n: int, freq_threshold: int, hashed: bool, table: dict, tokens=None
) -> TextNGramIndex:
    """Derive the meaningless sets; `tokens` defaults to the exact keys' own tokens."""
    meaningless = frozenset(k for k, c in table.items() if c > freq_threshold)
    if tokens is None:
        tokens = chain.from_iterable(map(_split_words, meaningless))
    return TextNGramIndex(n, freq_threshold, hashed, table, meaningless, frozenset(tokens))


def build_text_index(
    train: Iterable[TextDocument],
    n: int = 8,
    freq_threshold: int = 10,
    hashed: bool = False,
) -> TextNGramIndex:
    """Count all word n-grams in the training corpus and derive the meaningless sets.

    Each distinct text is tokenized once, and its windows are counted as
    often as the corpus holds it. One pass: once a text is counted, each of
    its windows whose key is above `freq_threshold` gives its tokens, unless
    that key already has. Counts only grow, so each such key ends
    meaningless, and each meaningless key gives its tokens once (absent a
    64-bit collision, every window of a key holds the same tokens). The
    table counted into is the one returned. `train` is read once, after the
    parameters are checked, and only its distinct texts are kept, so it may
    be a lazy loader's output.
    """
    _check_n(_KIND_TEXT, n)
    _check_freq(freq_threshold)
    texts = Counter(doc.text for doc in train).items()
    docs = _encoded_texts(((times, text) for text, times in texts), n)

    table: dict = {}
    given = set()  # keys above the threshold whose tokens are in `tokens`
    tokens = set()
    for (times, encoded), keys in _keyed(docs, hashed):
        for _ in range(times):
            _count_elements(table, keys)
        over = map(freq_threshold.__lt__, map(table.__getitem__, keys))
        for pos in compress(count(), over):
            if keys[pos] not in given:
                given.add(keys[pos])
                tokens.update(encoded[pos : pos + n])

    token_keys = _token_keys(list(tokens), hashed)
    return _text_index(n, freq_threshold, hashed, table, token_keys)


def scan_text(
    bench: list[TextDocument],
    index: TextNGramIndex,
    ratio_threshold: float = 0.75,
) -> OverlapReport:
    """Flag benchmark documents sharing a qualifying n-gram with training data.

    A window qualifies when it is present in the training table, is not
    itself meaningless, and its overlap ratio, the share of its n tokens
    flagged as meaningless tokens (once per document), is below
    `ratio_threshold`: a finite value above 0 (no ratio is below 0); above 1
    turns the filter off.
    """
    if math.isnan(ratio_threshold):
        raise CoreliteError("ratio_threshold must not be NaN")
    if not 0 < ratio_threshold < math.inf:
        raise CoreliteError("ratio_threshold must be finite and above 0")
    n, table, meaningless = index.n, index.table, index.meaningless
    docs = _encoded_texts(((doc.id, doc.text) for doc in bench), n)
    per_instance: dict[str, InstanceOverlap] = {}
    hits = []
    for (doc_id, tokens), keys in _keyed(docs, index.hashed):
        starts = [p for p, k in enumerate(keys) if k in table and k not in meaningless]
        if starts:
            token_keys = _token_keys(tokens, index.hashed)
            flags = list(map(index.meaningless_tokens.__contains__, token_keys))
        matched = sum(1 for p in starts if sum(flags[p : p + n]) / n < ratio_threshold)
        hits.append(matched > 0)
        per_instance[doc_id] = InstanceOverlap(matched > 0, False, False, matched)
    pct = _hit_pct(hits)
    return OverlapReport(per_instance, text_overlap_pct=pct, image_overlap_pct=0.0)


def build_image_index(
    train: Iterable[TokenSequence], n: int = 8, hashed: bool = False
) -> ImageNGramIndex:
    """Index all stride-1 windows of the 32-token training sequences.

    The table counted into is the one returned. `train` is read once, after
    `n` is checked, and no sequence is kept, so it may be a lazy loader's
    output: the build then holds the table and one hash batch of windows.
    """
    _check_n(_KIND_IMAGE, n)
    table: dict = {}
    exact = set()
    for _, keys in _keyed(_encoded_images(train, n), hashed):
        exact.add(keys.pop())  # the whole sequence; the windows stay
        _count_elements(table, keys)
    return ImageNGramIndex(n, hashed, table, frozenset(exact))


def scan_image(bench: list[TokenSequence], index: ImageNGramIndex) -> OverlapReport:
    """Flag benchmark sequences whose windows (or whole sequence) hit the index."""
    per_instance: dict[str, InstanceOverlap] = {}
    hits = []
    for seq_id, keys in _keyed(_encoded_images(bench, index.n), index.hashed):
        exact = keys.pop() in index.exact_sequences  # the whole sequence
        matched = sum(1 for key in keys if key in index.table)
        if exact and not matched:
            raise CoreliteError(
                f"sequence {seq_id!r} is indexed whole but none of its windows is"
            )
        hits.append(matched > 0)
        per_instance[seq_id] = InstanceOverlap(False, matched > 0, exact, matched)
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
# indexes nothing, as their keys hold those tokens. In the entries and in
# each trailer, keys ascend strictly, and the reader checks this as it
# streams.
#
# Sort orders make files byte-reproducible. Entries and image sequences sort
# by key bytes (exact text: without the length prefix), so hashed keys sort
# by little-endian bytes, not by value. Meaningless-token hashes sort by value.


def _key_format(hashed: bool, tokens: int) -> str:
    """struct format of a fixed-width key: a u64 hash, or `tokens` u32 ids."""
    return "Q" if hashed else f"{4 * tokens}s"


def _joined(records):
    """The byte strings of `records`, joined 1024 at a time.

    `bytes.join` holds a buffer view per item, so joining a whole table's
    records at once would cost more memory than the records themselves.
    """
    while chunk := b"".join(islice(records, 1024)):
        yield chunk


def _fixed_records(keys, hashed: bool, tokens: int, counts=None):
    """The NGI1 records of fixed-width `keys` (with their counts), in file order.

    Each key goes by the first byte of its file form (a hash's low byte, an
    image key's first byte) into one of 256 lists of references. Then one
    list at a time is packed, sorted as bytes and joined: keys differ, so
    records sort as their keys' bytes do. The save holds a reference per
    key and one bucket's records, not a new object per key.
    """
    first_byte = (0xFF).__and__ if hashed else itemgetter(0)
    key = _key_format(hashed, tokens)
    record = struct.Struct(f"<{key}" if counts is None else f"<{key}Q")
    buckets = [[] for _ in range(256)]
    for key in keys:
        buckets[first_byte(key)].append(key)
    for bucket in buckets:
        values = () if counts is None else (map(counts.__getitem__, bucket),)
        yield b"".join(sorted(map(record.pack, bucket, *values)))


def save_index(index, path) -> None:
    """Stream a text or image n-gram index to `path` in the NGI1 binary format.

    Exact text keys are sorted alone, and each record is packed with its
    count as it is written. Every fixed-width table (hashed text, hashed or
    exact image) and the image trailer go through `_fixed_records`, which
    sorts 256 buckets of key references one at a time. So a save holds,
    beside the index, one reference per key and one bucket of records.
    """
    if isinstance(index, TextNGramIndex):
        kind, freq = _KIND_TEXT, index.freq_threshold
    elif isinstance(index, ImageNGramIndex):
        kind, freq = _KIND_IMAGE, 0
    else:
        raise CoreliteError(f"cannot serialize {type(index).__name__}")

    table, hashed = index.table, index.hashed
    header = NGI_MAGIC + struct.pack(
        "<HHIBBQ", NGI_VERSION, index.n, freq, kind, int(hashed), len(table)
    )
    if kind == _KIND_TEXT and not hashed:
        entries = (_U32.pack(len(k)) + k + _U64.pack(table[k]) for k in sorted(table))
    else:
        entries = _fixed_records(table, hashed, index.n, table)

    tail = ()  # exact text indexes have no trailer: their keys hold the tokens
    if kind == _KIND_IMAGE:
        seqs = index.exact_sequences
        records = _fixed_records(seqs, hashed, IMAGE_TOKEN_LEN)
        tail = chain([_U64.pack(len(seqs))], records)
    elif hashed:
        tokens = sorted(index.meaningless_tokens)  # by value, unlike the entries
        tail = chain([_U64.pack(len(tokens))], _joined(map(_U64.pack, tokens)))
    write_atomic(path, chain([header], entries, tail))


class _Reader:
    """An open NGI1 file past its header, buffered about `_READ_SIZE` bytes at a time.

    `data[off:]` holds the bytes read but not yet taken, and `left` counts the
    bytes of the file (its size at open) not yet read. A read never asks for
    more than `left`, so a corrupt size fails as a truncated file at once.
    """

    def __init__(self, fh, path):
        self.fh = fh
        self.path = path
        self.data = b""
        self.off = 0
        at = fh.tell()
        self.left = fh.seek(0, os.SEEK_END) - at
        fh.seek(at)

    def truncated(self) -> CoreliteError:
        return CoreliteError(f"{self.path}: truncated index file")

    def refill(self, off: int, need: int) -> tuple[bytes, int, int]:
        """Read the file again from `data[off]` on, at least `need` bytes.

        It reads `_READ_SIZE` bytes, or `need` if more, or what is left if
        less. The bytes from `off` to the end of the buffer are read again
        rather than copied. Returns the new buffer, its offset (0) and size.
        """
        back = len(self.data) - off
        if need > back + self.left:
            raise self.truncated()
        self.fh.seek(-back, os.SEEK_CUR)
        self.left += back
        self.data = self.fh.read(min(max(need, _READ_SIZE), self.left))
        self.left -= len(self.data)
        self.off = 0
        if len(self.data) < need:  # the file shrank since it was opened
            raise self.truncated()
        return self.data, 0, len(self.data)

    def raw(self, size: int) -> bytes:
        if self.off + size > len(self.data):
            self.refill(self.off, size)
        self.off += size
        return self.data[self.off - size : self.off]

    def take(self, fmt: str):
        return struct.unpack(fmt, self.raw(struct.calcsize(fmt)))

    def text_table(self, n: int):
        """A u64 count, then that many length-prefixed exact text keys and counts.

        Yields (keys, counts) lists of up to `_CHECK_ROWS` entries, in file
        order. Each key is checked in one walk over its n token lengths. ASCII
        bytes are valid UTF-8 as they stand, so only a key that is not all
        ASCII (a multi-byte token, a length byte of 0x80 or more) decodes each
        token as the walk passes it. Only a key that fails goes through
        `_split_words`, which names the first fault. The buffer is refilled
        only where a field runs past its end.
        """
        (total,) = self.take("<Q")
        data, off, size = self.data, self.off, len(self.data)
        u32, u64 = _U32.unpack_from, _U64.unpack_from
        steps = range(n)
        for lo in range(0, total, _CHECK_ROWS):
            keys, counts = [], []
            for _ in range(min(_CHECK_ROWS, total - lo)):
                if off + 4 > size:
                    data, off, size = self.refill(off, 4)
                start = off + 4
                off = start + u32(data, off)[0]
                if off > size:
                    off -= start  # the key's length
                    data, start, size = self.refill(start, off)
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
                    data, off, size = self.refill(off, 8)
                keys.append(key)
                counts.append(u64(data, off)[0])
                off += 8
            yield keys, counts
        self.off = off

    def bad_text_key(self, key: bytes, n: int) -> NoReturn:
        # The key failed the walk, so `_split_words` raises or counts other than n.
        try:
            tokens = len(_split_words(key))
        except ValueError as exc:  # includes UnicodeDecodeError
            raise CoreliteError(f"{self.path}: bad text key ({exc})") from None
        raise CoreliteError(f"{self.path}: text key of {tokens} tokens, expected {n}")

    def records(self, fmt: str):
        """A u64 count, then that many fixed-width `fmt` records.

        Yields (keys, counts) per view of up to `_CHECK_ROWS` records; counts
        are () where `fmt` is a key alone. Hashed records are u64s alone, so
        their keys and counts are C-level slices of one array of the view.
        """
        (total,) = self.take("<Q")
        record = struct.Struct(f"<{fmt}")
        for view in self.views(total, record.size):
            if fmt[0] == "Q":  # a hash, then maybe a count
                words = array("Q")
                words.frombytes(view)
                yield words[:: len(fmt)], words[1::2] if len(fmt) == 2 else ()
            else:
                keys, *counts = zip(*record.iter_unpack(view))
                yield keys, counts[0] if counts else ()

    def checked(self, batches, order, distinct: str):
        """The (keys, counts) `batches` of a file region, checked as they pass.

        Keys must ascend strictly, as they are or as `order` maps a batch
        of them, and counts be above 0, checked a batch at a time in
        C-level passes, so no load holds every key to check it. The first
        fault is raised once the region is read, so a truncated file or a
        bad key later in it is reported first.
        """
        fault, last = None, []
        for keys, counts in batches:
            seq = last + (list(keys) if order is None else order(keys))
            if fault is None:
                if not all(map(lt, seq, islice(seq, 1, None))):
                    pos = next(compress(count(), map(ge, seq, islice(seq, 1, None))))
                    fault = distinct if seq[pos] == seq[pos + 1] else "keys out of order"
                elif 0 in counts:
                    fault = distinct
            last = seq[-1:]
            yield keys, counts
        if fault:
            raise CoreliteError(f"{self.path}: {fault}")

    def trailer(self, fmt: str, order, keep=None) -> frozenset:
        """A u64 count, then that many fixed-width `fmt` keys: those in `keep`."""
        batches = self.checked(self.records(fmt), order, "trailer keys must be distinct")
        keys = chain.from_iterable(keys for keys, _ in batches)
        return frozenset(keys if keep is None else filter(keep.__contains__, keys))

    def views(self, count: int, size: int):
        """Views of `count` records of `size` bytes, up to `_CHECK_ROWS` at a time."""
        while count:
            if len(self.data) - self.off < size:
                self.refill(self.off, size)
            whole = min(count, _CHECK_ROWS, (len(self.data) - self.off) // size)
            end = self.off + whole * size
            yield memoryview(self.data)[self.off : end]
            self.off, count = end, count - whole


def _byte_order(hashes: array) -> list[int]:
    """u64 `hashes` byte-swapped: numbers that order as their file bytes do."""
    swapped = hashes[:]
    swapped.byteswap()  # the low byte, first in the file, becomes the high one
    return swapped.tolist()


class IndexHeader(NamedTuple):
    """What an NGI1 file holds, from its header."""

    text: bool  # a text index, or an image index
    n: int
    freq_threshold: int
    hashed: bool


def _header(fh, path) -> IndexHeader:
    """Read an open NGI1 file's header, checking all but its freq_threshold."""
    if fh.read(len(NGI_MAGIC)) != NGI_MAGIC:
        raise CoreliteError(f"{path}: bad magic, expected {NGI_MAGIC!r}")
    raw = fh.read(10)
    if len(raw) < 10:
        raise CoreliteError(f"{path}: truncated index file")
    version, n, freq, kind, hashed = struct.unpack("<HHIBB", raw)
    if version != NGI_VERSION:
        raise CoreliteError(f"{path}: unsupported index version {version}")
    if kind not in _MAX_N or hashed not in (0, 1):
        raise CoreliteError(f"{path}: unknown index kind {kind} or hashed flag {hashed}")
    _check_n(kind, n, f"{path}: ")
    return IndexHeader(kind == _KIND_TEXT, n, freq, bool(hashed))


def _check_header_freq(header: IndexHeader, path) -> None:
    if header.text:
        _check_freq(header.freq_threshold, f"{path}: ")
    elif header.freq_threshold:
        raise CoreliteError(
            f"{path}: image index freq_threshold is {header.freq_threshold}, not 0"
        )


def load_index(path, keep=None):
    """Read an NGI1 index file; returns a TextNGramIndex or ImageNGramIndex.

    The file is read about `_READ_SIZE` (1 MiB) at a time, so a load holds the
    index it builds and not the file beside it. A pipe is read whole.

    `keep`, if given, is called with the file's checked `IndexHeader` before
    anything past it is read, and returns a set of table keys (exact bytes,
    or hashes in a hashed index). Every entry is still read and checked, but
    the table holds only the keys in that set and, in a text index, the
    meaningless keys, and `exact_sequences` only those in the set. A scan
    that keeps its benchmark's `scan_keys` holds what it can look up and
    reports what a full load would. A filtered load rejects exactly the
    files a full load does; it checks the header's freq_threshold before
    calling `keep`, and a full load after the entries, so a file with more
    than one fault may be named for another.
    """
    with open(path, "rb") as fh:
        header = text, n, freq, hashed = _header(fh, path)
        if keep is not None:
            _check_header_freq(header, path)
            keep = keep(header)
        r = _Reader(fh if fh.seekable() else io.BytesIO(fh.read()), path)
        order = _byte_order if hashed else None  # hashed keys sort as their bytes
        if text and not hashed:
            batches = r.text_table(n)
        else:
            batches = r.records(f"{_key_format(hashed, n)}Q")
        table = {}
        # A key counted above `floor` stays whatever `keep` holds: a text
        # index's meaningless keys, and in an image index none (u64 counts).
        floor = freq if text else 2**64
        distinct = "index keys must be distinct, counts above 0"
        for keys, counts in r.checked(batches, order, distinct):
            rows = zip(keys, counts)
            if keep is not None:
                rows = [(k, c) for k, c in rows if k in keep or c > floor]
            table.update(rows)
        if keep is None:
            _check_header_freq(header, path)
        if text:
            # The hashed-text trailer holds the u64 meaningless-token hashes,
            # sorted by value; a scan may look up any of them.
            tokens = r.trailer("Q", None) if hashed else None
            index = _text_index(n, freq, hashed, table, tokens)
        else:
            exact = r.trailer(_key_format(hashed, IMAGE_TOKEN_LEN), order, keep)
            index = ImageNGramIndex(n, hashed, table, exact)
        if r.off != len(r.data) or r.fh.read(1):  # left in the buffer, or unread
            raise CoreliteError(f"{path}: trailing bytes in index file")
    return index


def scan_keys(bench, header: IndexHeader) -> set:
    """The table keys a scan of `bench` can look up in an index with `header`.

    A text bench's n-gram keys, or an image bench's window and whole-sequence
    keys, in the index's n and mode: the set for `load_index`'s `keep`.
    """
    if header.text:
        items = _encoded_texts(((doc.id, doc.text) for doc in bench), header.n)
    else:
        items = _encoded_images(bench, header.n)
    return set(chain.from_iterable(keys for _, keys in _keyed(items, header.hashed)))
