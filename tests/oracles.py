"""Reference implementations that the tests compare the library against.

Exact k-center solvers for the greedy, the earlier numpy subset gap for its
plain-Python means, a tokenizer that reads one code point at a time, the
byte-at-a-time FNV-1a that the hashed n-gram keys are checked against, the
overlap ratio of one window, that the text scan is checked against, an
NGI1 writer that builds the whole file in memory, that the streamed
`save_index` is checked against, and the per-token check of an image-token
sequence, that `TokenSequence`'s C-level check is checked against, and the
serial EMB1 load, 32 rows at a time in one thread, that the parallel
`load_embeddings` is checked against.
"""

import io
import itertools
import os
import struct
import unicodedata

import numpy as np

from corelite import CoreliteError
from corelite.coreset import CoresetSelection, SubsetGap, _check_k
from corelite.corpus import IMAGE_TOKEN_LEN, EmbeddingMatrix, _check_id, _read_text
from corelite.decontam import TextNGramIndex


def coverage_radius(emb: EmbeddingMatrix, centers) -> float:
    """Max over all points of the distance to their nearest center."""
    centers = list(centers)
    if not centers:
        raise CoreliteError("center list must be non-empty")
    n = emb.n
    for c in centers:
        if not 0 <= c < n:
            raise CoreliteError(f"center index {c} out of range for n={n}")
    X = np.ascontiguousarray(emb.data, dtype=np.float64)
    C = X[centers]
    d2 = (
        np.einsum("ij,ij->i", X, X)[:, None]
        - 2.0 * (X @ C.T)
        + np.einsum("ij,ij->i", C, C)[None, :]
    )
    np.maximum(d2, 0.0, out=d2)
    d_min = np.sqrt(d2.min(axis=1))
    d_min[centers] = 0.0  # centers cover themselves exactly
    return float(d_min.max())


def brute_force_k_center(emb: EmbeddingMatrix, k: int) -> CoresetSelection:
    """Exact k-center by exhaustive enumeration; test oracle for n <= 16."""
    n = emb.n
    if n > 16:
        raise CoreliteError("oracle limited to n ≤ 16")
    _check_k(n, k)
    X = np.ascontiguousarray(emb.data, dtype=np.float64)
    diff = X[:, None, :] - X[None, :, :]
    D = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))

    best_subset: tuple[int, ...] | None = None
    best_radius = np.inf
    # combinations() yields index sets in lexicographic order, so keeping
    # strictly better radii leaves the lexicographically smallest tie winner.
    for subset in itertools.combinations(range(n), k):
        radius = D[:, subset].min(axis=1).max()
        if radius < best_radius:
            best_radius = radius
            best_subset = subset
    assert best_subset is not None
    return CoresetSelection(
        center_indices=best_subset,
        coverage_radius=float(best_radius),
        k=k,
        seed=0,
    )


def numpy_subset_gap(per_instance_scores, subset) -> SubsetGap:
    """subset_gap with numpy's means: the oracle for the plain-Python means."""
    scores = np.asarray(list(per_instance_scores), dtype=np.float64)
    subset = list(subset)
    if scores.size == 0:
        raise CoreliteError("score list must be non-empty")
    if not subset:
        raise CoreliteError("subset must be non-empty")
    if len(set(subset)) != len(subset):
        raise CoreliteError("subset indices must be distinct")
    for i in subset:
        if not 0 <= i < scores.size:
            raise CoreliteError(f"subset index {i} out of range")
    with np.errstate(all="ignore"):  # an overflow shows as a non-finite gap
        full_mean = float(scores.mean())
        subset_mean = float(scores[subset].mean())
    gap = abs(full_mean - subset_mean)
    if not np.isfinite(gap):  # so is the gap when either mean is not finite
        raise CoreliteError("score means or their gap overflow float64")
    return SubsetGap(full_mean, subset_mean, gap)


# CJK ideographs (BERT's basic-tokenizer ranges), Hiragana and Katakana.
_ALONE = [(0x4E00, 0x9FFF), (0x3400, 0x4DBF), (0x20000, 0x2A6DF), (0x2A700, 0x2CEAF),
          (0xF900, 0xFAFF), (0x2F800, 0x2FA1F), (0x3040, 0x30FF)]


def unicode_tokenize_text(text: str) -> list[str]:
    """tokenize_text one code point at a time, from unicodedata categories.

    NFC after lower(). A letter or number (L*, N*) extends an open word or
    opens one; a CJK ideograph, Hiragana or Katakana letter is a closed word
    of its own. A combining mark (M*) extends any word before it. Every other
    code point ends the word.
    """
    tokens: list[str] = []
    word, is_open = "", False
    for char in unicodedata.normalize("NFC", text.lower()):
        category = unicodedata.category(char)
        if category[0] in "LN":
            alone = any(lo <= ord(char) <= hi for lo, hi in _ALONE)
            if word and is_open and not alone:
                word += char
                continue
            tokens.append(word)
            word, is_open = char, not alone
        elif category[0] == "M" and word:
            word += char
        else:
            tokens.append(word)
            word = ""
    tokens.append(word)
    return [t for t in tokens if t]


def fnv1a64(data: bytes) -> int:
    """64-bit FNV-1a over a byte string, one byte at a time."""
    h = 0xCBF29CE484222325
    for b in data:
        h = ((h ^ b) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


def overlap_ratio(candidate, index) -> float:
    """Fraction of a candidate n-gram's token keys in `index.meaningless_tokens`.

    `candidate` holds index.n per-token keys: NGI1 token encodings (a u32
    byte length and the UTF-8), or their FNV-1a in hashed mode.
    """
    assert len(candidate) == index.n
    hits = sum(1 for t in candidate if t in index.meaningless_tokens)
    return hits / index.n


def ngi1_bytes(index) -> bytes:
    """An n-gram index's NGI1 file, built whole in a `bytearray`.

    Exact text entries sort as (key, count) pairs, fixed-width entries as
    packed records, image sequences by key bytes and meaningless-token hashes
    by value.
    """
    text = isinstance(index, TextNGramIndex)
    kind, freq = (0, index.freq_threshold) if text else (1, 0)

    def key_format(tokens):
        return "Q" if index.hashed else f"{4 * tokens}s"

    out = bytearray(b"NGI1")
    out += struct.pack("<HHIBB", 1, index.n, freq, kind, int(index.hashed))
    out += struct.pack("<Q", len(index.table))
    if text and not index.hashed:
        for key, count in sorted(index.table.items()):
            out += struct.pack("<I", len(key)) + key + struct.pack("<Q", count)
    else:
        entry = struct.Struct(f"<{key_format(index.n)}Q")
        for record in sorted(itertools.starmap(entry.pack, index.table.items())):
            out += record

    trailer = None  # exact text indexes have none: their keys hold the tokens
    if not text:
        key = struct.Struct(f"<{key_format(32)}")
        trailer = sorted(map(key.pack, index.exact_sequences))
    elif index.hashed:
        trailer = [struct.pack("<Q", t) for t in sorted(index.meaningless_tokens)]
    if trailer is not None:
        out += struct.pack("<Q", len(trailer)) + b"".join(trailer)
    return bytes(out)


def check_token_sequence(seq_id, tokens) -> None:
    """TokenSequence's rules one token at a time; the first fault in rule order raises."""
    if not isinstance(tokens, (list, tuple)) or not all(
        isinstance(t, int) and not isinstance(t, bool) for t in tokens
    ):
        raise CoreliteError("tokens must be a list of integers")
    if len(tokens) != IMAGE_TOKEN_LEN:
        raise CoreliteError(
            f"id={seq_id}: length {len(tokens)}, expected {IMAGE_TOKEN_LEN}"
        )
    _check_id(seq_id, "sequence")
    for t in tokens:
        if not (0 <= t <= 0xFFFFFFFF):
            raise CoreliteError(f"id={seq_id}: token id {t} out of range")


def serial_load(data_path, ids_path, normalize=False):
    """(ids, X) of a well-formed EMB1 file and its ids file, with no checks.

    One thread reads the payload 32 rows at a time, normalizes each block
    (float64 squares and norms, quotients rounded to float32) and widens it
    into X. Ids end at LF, with one CR before it; each line is taken in turn.
    """
    ids = [line.removesuffix("\r\n").removesuffix("\n")
           for line in io.StringIO(_read_text(ids_path), newline="\n")]
    with open(data_path, "rb") as fh:
        n, d = struct.unpack("<4xII", fh.read(12))
        assert os.fstat(fh.fileno()).st_size == 12 + 4 * n * d
        X = np.empty((n, d))
        buf = np.empty((min(32, n), d), "<f4")
        with np.errstate(invalid="ignore"):
            for lo in range(0, n if d else 0, 32):
                block, dst = buf[:n - lo], X[lo:lo + 32]
                assert fh.readinto(block) == block.nbytes
                if normalize:
                    sq = np.square(block, out=dst, dtype=np.float64)
                    norm = np.sqrt(sq.sum(1, keepdims=True))
                    norm[norm == 0.0] = 1.0
                    np.divide(block, norm, out=block)
                dst[...] = block
    return ids, X


def check_embedding_ids(ids) -> None:
    """`EmbeddingMatrix`'s id rules one row at a time; the first fault, in rule order, raises."""
    if "" in ids:
        raise CoreliteError(f"row {ids.index('')}: empty embedding id")
    for row, inst_id in enumerate(ids):
        if not isinstance(inst_id, str):
            raise CoreliteError(f"row {row}: embedding id must be a string")
        if "\r" in inst_id or "\n" in inst_id:
            raise CoreliteError(f"row {row}: embedding id holds CR or LF")
    if len(set(ids)) != len(ids):
        raise CoreliteError("embedding ids must be unique")
