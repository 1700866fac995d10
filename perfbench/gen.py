"""Generate one workload's inputs and its CLI plan from a seed.

    python3 perfbench/gen.py <workload> <seed> <outdir>

Writes the input files the program reads, label files only the checker
reads, and plan.json: the sequence of CLI invocations with, for each, its
stage, its output files and what the checker expects of them. run.py runs
this in a child process so that it never holds the generated data itself
(see run.py on peak RSS).
"""

from __future__ import annotations

import json
import os
import struct
import sys
from pathlib import Path

import numpy as np

import common


def _write_emb(path: Path, X: np.ndarray) -> None:
    with open(path, "wb") as fh:
        fh.write(b"EMB1")
        fh.write(struct.pack("<II", X.shape[0], X.shape[1]))
        fh.write(np.ascontiguousarray(X, dtype="<f4").tobytes())


def _write_lines(path: Path, lines) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("".join(line + "\n" for line in lines))


def _plant_far_tie(rng, X: np.ndarray, seed: int) -> list[int]:
    """Make rows p < q bit-identical copies of -3 * (first center).

    After row normalization they sit at the antipode of the first center,
    farther from it than any other row, and tie exactly, so the second
    center must be p under the lowest-index tie rule.
    """
    n = X.shape[0]
    c0 = common.uniform_index(seed, n)
    others = [i for i in rng.choice(n, size=3, replace=False).tolist() if i != c0]
    p, q = sorted(others[:2])
    X[p] = X[q] = -3.0 * X[c0]
    return [p, q]


def _select_ops(name: str, emb: str, ids: str, scores: str, k: int, seed: int,
                n: int, plant: list[int], dataset: str | None) -> list[dict]:
    sel = f"sel_{name}.json"
    gap = f"gap_{name}.json"
    size = ["--dataset", dataset] if dataset else ["--k", str(k)]
    return [
        {
            "id": f"select:{name}", "stage": "select",
            "argv": ["select", "--embeddings", emb, "--ids", ids, *size,
                     "--seed", str(seed), "--out", sel],
            "outputs": [sel, sel + ".manifest.json"],
            "inputs": {"embeddings": emb, "ids": ids},
            "check": {"kind": "select", "emb": emb, "ids": ids, "out": sel,
                      "k": k, "n": n, "seed": seed, "plant": plant},
        },
        {
            "id": f"gap:{name}", "stage": "gap",
            "argv": ["gap", "--scores", scores, "--selection", sel, "--out", gap],
            "outputs": [gap, gap + ".manifest.json"],
            "inputs": {"scores": scores, "selection": sel},
            "check": {"kind": "gap", "scores": scores, "selection": sel, "out": gap},
        },
    ]


def _instance_scores(rng, path: Path, ids: list[str]) -> None:
    values = np.round(rng.beta(2.0, 2.0, size=len(ids)) * 100.0, 2)
    _write_lines(path, ["model,dataset,score"]
                 + [f"lite-model,{i},{v:.2f}" for i, v in zip(ids, values)])


def gen_select_large(rng, seed: int, out: Path) -> list[dict]:
    n, d, k = (common.SELECT_LARGE[key] for key in ("n", "d", "k"))
    X = rng.standard_normal((n, d), dtype=np.float32)
    plant = _plant_far_tie(rng, X, seed)
    _write_emb(out / "emb.bin", X)
    del X
    ids = [f"q{i:06d}" for i in range(n)]
    _write_lines(out / "ids.txt", ids)
    _instance_scores(rng, out / "scores.csv", ids)
    return _select_ops("large", "emb.bin", "ids.txt", "scores.csv", k, seed, n,
                       plant, None)


def gen_lite_suite(rng, seed: int, out: Path) -> list[dict]:
    ops = []
    for name, k, n in common.LITE_DATASETS:
        # Clustered embeddings: a few dozen tight blobs per dataset.
        centers = rng.standard_normal((max(4, n // 50), common.LITE_D))
        assign = rng.integers(len(centers), size=n)
        X = (centers[assign]
             + 0.35 * rng.standard_normal((n, common.LITE_D))).astype(np.float32)
        plant = _plant_far_tie(rng, X, seed)
        ids = [f"{name}-{i:05d}" for i in range(n)]
        _write_emb(out / f"emb_{name}.bin", X)
        _write_lines(out / f"ids_{name}.txt", ids)
        _instance_scores(rng, out / f"scores_{name}.csv", ids)
        ops += _select_ops(name, f"emb_{name}.bin", f"ids_{name}.txt",
                           f"scores_{name}.csv", k, seed, n, plant, name)

    # ~40-model score tables over the 15 datasets. mme is scored 0-2800 and
    # llava-w is judge-scored and may exceed its declared 0-100 scale, so
    # aggregation must apply explicit scales and clamp.
    models = [f"model-{m:02d}" for m in range(common.LITE_MODELS)]
    ability = rng.random(len(models))
    full, lite = ["model,dataset,score,count"], ["model,dataset,score,count"]
    for name, k, n in common.LITE_DATASETS:
        hi = {"mme": 2800.0, "llava-w": 115.0}.get(name, 100.0)
        base = hi * np.clip(0.2 + 0.7 * ability + 0.08 * rng.standard_normal(len(models)), 0, 1)
        noisy = np.clip(base + 0.03 * hi * rng.standard_normal(len(models)), 0, hi)
        for m, b, v in zip(models, base, noisy):
            full.append(f"{m},{name},{b:.3f},{n}")
            # One decimal gives tied lite scores, which Spearman must rank.
            lite.append(f"{m},{name},{v:.1f},{k}")
    _write_lines(out / "full.csv", full)
    _write_lines(out / "lite.csv", lite)
    scales = {"mme": {"min": 0, "max": 2800}, "llava-w": {"min": 0, "max": 100}}
    (out / "scales.json").write_text(json.dumps(scales, sort_keys=True) + "\n")

    ops.append({
        "id": "aggregate", "stage": "score",
        "argv": ["aggregate", "--scores", "full.csv", "--scales", "scales.json",
                 "--weighted", "--out", "agg.json"],
        "outputs": ["agg.json", "agg.json.manifest.json"],
        "inputs": {"scores": "full.csv", "scales": "scales.json"},
        "check": {"kind": "aggregate", "scores": "full.csv", "scales": "scales.json",
                  "out": "agg.json"},
    })
    for method in ("pearson", "spearman"):
        out_name = f"corr_{method}.json"
        ops.append({
            "id": f"correlate:{method}", "stage": "score",
            "argv": ["correlate", "--full", "full.csv", "--lite", "lite.csv",
                     "--method", method, "--out", out_name],
            "outputs": [out_name, out_name + ".manifest.json"],
            "inputs": {"full": "full.csv", "lite": "lite.csv"},
            "check": {"kind": "correlate", "full": "full.csv", "lite": "lite.csv",
                      "method": method, "out": out_name},
        })
    return ops


def _vocabulary(rng, size: int) -> list[str]:
    letters = np.array(list("abcdefghijklmnopqrstuvwxyz"))
    words: dict[str, None] = {}
    while len(words) < size:
        for length in rng.integers(3, 10, size=size):
            words["".join(rng.choice(letters, size=length))] = None
    return list(words)[:size]


def _segments_text(segments: list[list[str]]) -> str:
    return ". ".join(" ".join([s[0].capitalize(), *s[1:]]) for s in segments) + "."


def gen_audit(rng, workload: str, out: Path) -> list[dict]:
    spec = common.AUDITS[workload]
    n = common.NGRAM_N
    vocab = _vocabulary(rng, 33_000)
    content, tpl_words = vocab[:30_000], vocab[30_000:]  # disjoint
    templates = [[tpl_words[i] for i in rng.integers(len(tpl_words), size=length)]
                 for length in rng.integers(10, 17, size=spec["templates"])]

    def content_run(lo: int, hi: int) -> list[str]:
        return [content[i] for i in rng.integers(len(content), size=rng.integers(lo, hi))]

    # Training documents: template segments carry ~30% of the tokens.
    train_lines, runs = [], []
    tpl_uses = [0] * len(templates)
    for doc_no in range(spec["train_docs"]):
        segments, length = [], 0
        while length < spec["doc_tokens"]:
            if rng.random() < 0.57:
                t = int(rng.integers(len(templates)))
                tpl_uses[t] += 1
                seg = list(templates[t])
            else:
                seg = content_run(20, 61)
                runs.append((doc_no, len(segments)))
            segments.append(seg)
            length += len(seg)
        train_lines.append((f"train{doc_no:05d}", segments))
    if min(tpl_uses) <= 2 * common.FREQ_THRESHOLD:
        raise SystemExit("generator: a template is too rare to be meaningless")
    _write_lines(out / "train.jsonl", [
        json.dumps({"id": i, "text": _segments_text(s)}) for i, s in train_lines])

    images = rng.integers(0, 16384, size=(spec["train_images"], common.IMAGE_LEN))
    _write_lines(out / "img_train.jsonl", [
        json.dumps({"id": f"img{i:05d}", "tokens": row.tolist()})
        for i, row in enumerate(images)])

    hashed = ["--hashed"] if spec["hashed"] else []
    ops = [
        {"id": "index-text", "stage": "index",
         "argv": ["index-text", "--train", "train.jsonl", *hashed, "--out", "text.ngi"],
         "outputs": ["text.ngi", "text.ngi.manifest.json"],
         "inputs": {"train": "train.jsonl"}, "check": {"kind": "index"}},
        {"id": "index-image", "stage": "index",
         "argv": ["index-image", "--train", "img_train.jsonl", *hashed, "--out", "img.ngi"],
         "outputs": ["img.ngi", "img.ngi.manifest.json"],
         "inputs": {"train": "img_train.jsonl"}, "check": {"kind": "index"}},
    ]

    for f in range(spec["bench_files"]):
        docs, labels = [], {}
        for j in range(spec["bench_docs"]):
            doc_id = f"b{f}-{j:04d}"
            r = rng.random()
            if r < 0.2:
                # A verbatim span from inside a training content run: each of
                # its L - n + 1 windows is in the index once. The bench tokens
                # next to it differ from the training ones, so no window
                # reaching past the span matches.
                doc_no, seg_no = runs[int(rng.integers(len(runs)))]
                run = train_lines[doc_no][1][seg_no]
                span_len = int(rng.integers(n + 4, min(len(run) - 2, n + 12) + 1))
                start = int(rng.integers(1, len(run) - span_len))
                left, right = content_run(10, 31), content_run(10, 31)
                while left[-1] == run[start - 1]:
                    left[-1] = content[int(rng.integers(len(content)))]
                while right[0] == run[start + span_len]:
                    right[0] = content[int(rng.integers(len(content)))]
                segs = [left, run[start:start + span_len], right]
                labels[doc_id] = {"label": "leak", "matched": span_len - n + 1}
            elif r < 0.4:
                segs = [list(templates[t]) for t in
                        rng.integers(len(templates), size=rng.integers(3, 7))]
                labels[doc_id] = {"label": "boilerplate", "matched": 0}
            else:
                segs = [content_run(15, 41)]
                for _ in range(int(rng.integers(0, 3))):
                    segs.append(list(templates[int(rng.integers(len(templates)))]))
                    segs.append(content_run(10, 41))
                labels[doc_id] = {"label": "clean", "matched": 0}
            docs.append(json.dumps({"id": doc_id, "text": _segments_text(segs)}))
        bench, report = f"bench_text_{f}.jsonl", f"report_text_{f}.json"
        _write_lines(out / bench, docs)
        (out / f"labels_text_{f}.json").write_text(json.dumps(labels))
        ops.append({
            "id": f"scan-text:{f}", "stage": "scan",
            "argv": ["scan-text", "--index", "text.ngi", "--bench", bench,
                     "--report", report],
            "outputs": [report, report + ".manifest.json"],
            "inputs": {"index": "text.ngi", "bench": bench},
            "check": {"kind": "scan-text", "labels": f"labels_text_{f}.json",
                      "out": report},
        })

    width = common.IMAGE_LEN
    for f in range(spec["bench_files"]):
        seqs, labels = [], {}
        for j in range(spec["bench_images"]):
            seq_id = f"v{f}-{j:04d}"
            r = rng.random()
            src = images[int(rng.integers(len(images)))]
            if r < 0.1:
                row = src.copy()
                labels[seq_id] = {"label": "duplicate_image", "matched": width - n + 1}
            elif r < 0.35:
                # Shares exactly one 8-token window with a training image; the
                # tokens beside it differ from the training image's.
                row = rng.integers(0, 16384, size=width)
                a, b = rng.integers(width - n + 1, size=2)
                row[b:b + n] = src[a:a + n]
                if a > 0 and b > 0 and row[b - 1] == src[a - 1]:
                    row[b - 1] = (src[a - 1] + 1) % 16384
                if a + n < width and b + n < width and row[b + n] == src[a + n]:
                    row[b + n] = (src[a + n] + 1) % 16384
                labels[seq_id] = {"label": "similar_image", "matched": 1}
            else:
                row = rng.integers(0, 16384, size=width)
                labels[seq_id] = {"label": "clean", "matched": 0}
            seqs.append(json.dumps({"id": seq_id, "tokens": row.tolist()}))
        bench, report = f"bench_img_{f}.jsonl", f"report_img_{f}.json"
        _write_lines(out / bench, seqs)
        (out / f"labels_img_{f}.json").write_text(json.dumps(labels))
        ops.append({
            "id": f"scan-image:{f}", "stage": "scan",
            "argv": ["scan-image", "--index", "img.ngi", "--bench", bench,
                     "--report", report],
            "outputs": [report, report + ".manifest.json"],
            "inputs": {"index": "img.ngi", "bench": bench},
            "check": {"kind": "scan-image", "labels": f"labels_img_{f}.json",
                      "out": report},
        })
    return ops


def generate(workload: str, seed: int, out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, common.WORKLOADS.index(workload)])
    if workload == "select-large":
        ops = gen_select_large(rng, seed, out)
    elif workload == "lite-suite":
        ops = gen_lite_suite(rng, seed, out)
    else:
        ops = gen_audit(rng, workload, out)
    (out / "plan.json").write_text(
        json.dumps({"workload": workload, "seed": seed, "ops": ops}, indent=1))
    # Flush the inputs to disk now, so their write-back does not run during
    # the first timed repetition.
    for path in out.iterdir():
        if path.is_file():
            with open(path, "rb") as fh:
                os.fsync(fh.fileno())


if __name__ == "__main__":
    if len(sys.argv) != 4 or sys.argv[1] not in common.WORKLOADS:
        sys.exit(f"usage: gen.py {{{','.join(common.WORKLOADS)}}} SEED OUTDIR")
    generate(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]))
