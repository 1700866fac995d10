"""Workload sizes and helpers shared by run.py, the generator and the checker.

Nothing here imports corelite: the benchmark drives the program only through
the files it generates and the CLI processes it starts.
"""

from __future__ import annotations

import hashlib

WORKLOADS = ("select-large", "lite-suite", "audit-exact", "audit-hashed")

# Sizes are scaled so that one repetition of each CLI sequence fits several
# times into a run. select-large keeps criterion 9's 100k x 512 matrix
# (400 MB as float64, above this box's 300 MiB L3) and lowers k, so every
# greedy step still streams the whole matrix.
SELECT_LARGE = {"n": 100_000, "d": 512, "k": 64}

# (dataset, default lite k, generated n). n = k where the default keeps the
# dataset whole; the other n are scaled-down versions of the real sizes.
# The k column restates corelite.coreset.LITE_K_DEFAULTS, which
# `select --dataset` applies; n must stay >= k.
LITE_DATASETS = (
    ("chartqa", 400, 1000),
    ("docvqa", 400, 1400),
    ("infovqa", 200, 700),
    ("flickr30k", 400, 3200),
    ("nocaps", 400, 1100),
    ("textcaps", 300, 800),
    ("refcoco", 500, 2200),
    ("textvqa", 300, 1250),
    ("mathvista", 1000, 1000),
    ("ai2d", 300, 780),
    ("llava-w", 60, 60),
    ("mme", 2374, 2374),
    ("mmmu", 900, 900),
    ("cmmmu", 900, 900),
    ("seed-bench", 700, 1800),
)
LITE_D = 512
LITE_MODELS = 40

# Audit corpora. About 30% of the training spans come from boilerplate
# templates, so the meaningless set and the overlap-ratio filter are live;
# the other spans draw from a large vocabulary, so most keys are distinct.
# Key counts (about 70k exact and 33k hashed text 8-grams, 25 windows per
# image) stay clear of CPython's dict resize points (43,690 and 87,381
# keys), where peak RSS would jump between seeds.
AUDITS = {
    "audit-exact": {
        "hashed": False, "train_docs": 400, "doc_tokens": 200,
        "templates": 40, "train_images": 3000, "bench_files": 3,
        "bench_docs": 150, "bench_images": 300,
    },
    "audit-hashed": {
        "hashed": True, "train_docs": 200, "doc_tokens": 200,
        "templates": 12, "train_images": 2000, "bench_files": 3,
        "bench_docs": 60, "bench_images": 150,
    },
}
NGRAM_N = 8
IMAGE_LEN = 32
FREQ_THRESHOLD = 10

_MASK64 = (1 << 64) - 1


def uniform_index(seed: int, n: int) -> int:
    """The first greedy center: a SplitMix64 draw from 0..n-1 with rejection.

    Written out here from the format's description so the checker does not
    rely on the program's own generator.
    """
    bound = (1 << 64) - ((1 << 64) % n)
    state = seed & _MASK64
    while True:
        state = (state + 0x9E3779B97F4A7C15) & _MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        z ^= z >> 31
        if z < bound:
            return z % n


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()
