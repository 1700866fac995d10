"""Measurements run.py takes in child processes, printed as one JSON line.

    python3 perfbench/probe.py facts
    python3 perfbench/probe.py greedy-auto EMB IDS K SEED
    python3 perfbench/probe.py hash-text TRAIN_JSONL

`facts` records the machine: affinity CPUs, BLAS, versions, CORELITE_THREADS
and a read-bandwidth probe over a matrix at least four times the reported
L3. The other two time one corelite function on its own, outside the CLI.
"""

from __future__ import annotations

import ctypes
import json
import os
import platform
import statistics
import sys
import time

import numpy as np

_GEMV_COLS = 512
_HASH_WINDOWS = 50_000  # about 1 s of the scalar hash; enough for a rate


def _l3_bytes() -> int | None:
    try:
        with open("/sys/devices/system/cpu/cpu0/cache/index3/size") as fh:
            text = fh.read().strip()
    except OSError:
        return None
    scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(text[-1:], 1)
    return int(text.rstrip("KMG")) * scale


def _openblas() -> dict:
    """Name, config string and thread count of the OpenBLAS numpy loaded."""
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    info = {"name": blas.get("name"), "version": blas.get("version"),
            "config": None, "threads": None}
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        paths = set()
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"),
                               ("openblas", "")):
            get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
            if get_threads is None:
                continue
            get_threads.argtypes, get_threads.restype = [], ctypes.c_int
            info["threads"] = get_threads()
            if get_config is not None:
                get_config.argtypes, get_config.restype = [], ctypes.c_char_p
                info["config"] = get_config().decode()
            return info
    return info


def facts() -> dict:
    l3 = _l3_bytes()
    # float64 GEMV over a row-major matrix, the access pattern of one greedy
    # step, on at least 4x L3 so the figure is DRAM bandwidth.
    probe_bytes = max(4 * (l3 or 0), 256 << 20)
    rows = probe_bytes // (8 * _GEMV_COLS)
    A = np.ones((rows, _GEMV_COLS))
    v = np.ones(_GEMV_COLS)
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        (A @ v).sum()
        times.append(time.perf_counter() - t0)
    return {
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas": _openblas(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "CORELITE_THREADS": os.environ.get("CORELITE_THREADS"),
        "l3_bytes": l3,
        "bandwidth_probe_bytes": int(A.nbytes),
        "bandwidth_gbps": A.nbytes / statistics.median(times) / 1e9,
    }


def greedy_auto(emb_path: str, ids_path: str, k: int, seed: int) -> dict:
    """The select call with workers=1 (the CLI default) and workers=affinity CPUs."""
    from corelite import coreset
    from corelite.corpus import EmbeddingMatrix, load_embeddings

    emb = load_embeddings(emb_path, ids_path)
    norms = np.linalg.norm(emb.data.astype(np.float64), axis=1, keepdims=True)
    emb = EmbeddingMatrix(emb.ids, (emb.data / np.where(norms == 0, 1.0, norms)))
    auto = len(os.sched_getaffinity(0))
    out = {"workers_auto": auto}
    for label, workers in (("workers1_s", 1), ("auto_s", auto)):
        t0 = time.perf_counter()
        sel = coreset.k_center_greedy(emb, k, seed=seed, workers=workers)
        out[label] = time.perf_counter() - t0
        out.setdefault("centers", list(sel.center_indices))
        if out["centers"] != list(sel.center_indices):
            raise SystemExit("greedy-auto: centers differ between worker counts")
    del out["centers"]
    return out


def hash_text(train_path: str) -> dict:
    """hash_text_ngram over the first training windows, timed alone."""
    from corelite import decontam
    from corelite.corpus import load_text_corpus, tokenize_text

    windows = []
    for doc in load_text_corpus(train_path):
        tokens = tokenize_text(doc.text)
        windows += [tuple(tokens[i:i + 8]) for i in range(len(tokens) - 7)]
    windows = windows[:_HASH_WINDOWS]
    t0 = time.perf_counter()
    for w in windows:
        decontam.hash_text_ngram(w)
    return {"windows": len(windows), "seconds": time.perf_counter() - t0}


if __name__ == "__main__":
    cmd, rest = sys.argv[1], sys.argv[2:]
    if cmd == "facts":
        result = facts()
    elif cmd == "greedy-auto":
        result = greedy_auto(rest[0], rest[1], int(rest[2]), int(rest[3]))
    elif cmd == "hash-text":
        result = hash_text(rest[0])
    else:
        sys.exit(f"unknown probe {cmd!r}")
    print(json.dumps(result, sort_keys=True))
