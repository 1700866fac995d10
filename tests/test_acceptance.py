"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`. The performance criterion
allocates a 100k x 512 matrix and takes about a minute.
"""

import json
import math
import random
import struct
import time
from collections import Counter

import numpy as np
import pytest

from corelite.cli import main
from corelite.corpus import EmbeddingMatrix, ScaleSpec, ScoreTable, save_embeddings
from corelite.coreset import k_center_greedy, subset_gap
from corelite.decontam import (
    ContaminationCategory,
    build_image_index,
    build_text_index,
    scan_image,
    scan_text,
)
from corelite.corpus import TextDocument, TokenSequence
from corelite.scoring import aggregate, normalize_score, pearson, spearman
from oracles import brute_force_k_center


def _ok(n, name):
    print(f"ACCEPTANCE {n} {name}: PASS")


def _text_key(tokens):
    """An exact text n-gram key: per token a u32 byte length, then its UTF-8."""
    return b"".join(struct.pack("<I", len(t.encode())) + t.encode() for t in tokens)


def _emb(data, prefix="p"):
    data = np.asarray(data, dtype=np.float32)
    return EmbeddingMatrix(tuple(f"{prefix}{i}" for i in range(data.shape[0])), data)


def test_criterion_1_two_opt():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    for _ in range(200):
        n = int(rng.integers(2, 13))
        k = int(rng.integers(1, min(4, n) + 1))
        d = int(rng.integers(1, 4))
        emb = _emb(rng.uniform(-10, 10, size=(n, d)))
        greedy = k_center_greedy(emb, k, seed=int(rng.integers(0, 2**32)))
        optimal = brute_force_k_center(emb, k)
        assert greedy.coverage_radius <= 2.0 * optimal.coverage_radius + 1e-9
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"took {elapsed:.1f}s"
    _ok(1, "k-center greedy within 2x brute-force optimum")


def test_criterion_2_determinism_and_prefix():
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = int(rng.integers(5, 60))
        k = int(rng.integers(1, n + 1))
        seed = int(rng.integers(0, 2**32))
        emb = _emb(rng.standard_normal((n, int(rng.integers(1, 8)))))
        runs = [
            k_center_greedy(emb, k, seed=seed, workers=w) for w in (1, 2, 8)
        ]
        assert runs[0].center_indices == runs[1].center_indices == runs[2].center_indices
        j = max(1, k // 2)
        assert (
            k_center_greedy(emb, j, seed=seed).center_indices
            == runs[0].center_indices[:j]
        )
    _ok(2, "selection identical across 1/2/8 workers; j-prefix equals j-run")


def test_criterion_3_subset_gap():
    scores = [3.5, -1.0, 2.25, 8.0]
    assert subset_gap(scores, range(len(scores))).gap == 0.0
    hand = subset_gap([1.0, 0.0, 0.0, 1.0], [0, 3])
    assert hand.full_mean == 0.5 and hand.subset_mean == 1.0 and hand.gap == 0.5
    _ok(3, "subset gap: zero on full set; hand case 0.5")


def test_criterion_4_text_planted_corpus():
    train = [
        TextDocument(f"t{i}", " ".join(f"t{i}w{j}" for j in range(12)))
        for i in range(40)
    ]
    index = build_text_index(train)
    bench = [
        TextDocument(f"copy{i}", train[i].text) for i in range(20)
    ] + [
        TextDocument(f"clean{i}", " ".join(f"b{i}w{j}" for j in range(12)))
        for i in range(80)
    ]
    report = scan_text(bench, index)
    assert report.text_overlap_pct == 20.0
    flagged = {k for k, v in report.per_instance.items() if v.text_hit}
    assert flagged == {f"copy{i}" for i in range(20)}  # zero false positives

    # Threshold boundary: count 10 stays meaningful, count 11 is meaningless.
    ten = [TextDocument(f"a{i}", "a0 a1 a2 a3 a4 a5 a6 a7") for i in range(10)]
    eleven = [TextDocument(f"b{i}", "b0 b1 b2 b3 b4 b5 b6 b7") for i in range(11)]
    boundary = build_text_index(ten + eleven, freq_threshold=10)
    assert _text_key(f"a{i}" for i in range(8)) not in boundary.meaningless
    assert _text_key(f"b{i}" for i in range(8)) in boundary.meaningless
    _ok(4, "planted corpus: exactly 20.0% overlap, no false positives, 10/11 boundary")


def test_criterion_5_image_categories():
    train = [TokenSequence("t0", tuple(range(32)))]
    index = build_image_index(train)
    bench = [
        TokenSequence("dup", tuple(range(32))),
        TokenSequence("sim", tuple(range(8)) + tuple(range(100, 124))),
        TokenSequence("clean", tuple(range(200, 232))),
    ]
    report = scan_image(bench, index)
    dup = report.per_instance["dup"]
    assert dup.category is ContaminationCategory.DUPLICATE_IMAGE
    assert dup.matched_windows == 25
    sim = report.per_instance["sim"]
    assert sim.category is ContaminationCategory.SIMILAR_IMAGE
    assert sim.matched_windows == 1
    counts = Counter(inst.category for inst in report.per_instance.values())
    assert sum(counts.values()) == len(bench)
    _ok(5, "image scan: duplicate=25 windows, single window=similar, counts conserve")


def test_criterion_6_hash_mode_equivalence():
    rng = random.Random(99)
    vocab = [f"v{i}" for i in range(50_000)]
    train = [
        TextDocument(f"t{i}", " ".join(rng.choices(vocab, k=208)))
        for i in range(500)
    ]
    total_windows = sum(208 - 8 + 1 for _ in train)
    assert total_windows >= 100_000
    bench = [
        TextDocument(f"b{i}", " ".join(rng.choices(vocab, k=40))) for i in range(50)
    ] + [TextDocument("copy", train[0].text)]
    exact = scan_text(bench, build_text_index(train))
    hashed = scan_text(bench, build_text_index(train, hashed=True))
    assert exact == hashed

    irng = random.Random(5)
    itrain = [
        TokenSequence(f"t{i}", tuple(irng.randrange(1 << 16) for _ in range(32)))
        for i in range(300)
    ]
    ibench = [
        TokenSequence(f"b{i}", tuple(irng.randrange(1 << 16) for _ in range(32)))
        for i in range(50)
    ] + [TokenSequence("dup", itrain[0].tokens)]
    assert scan_image(ibench, build_image_index(itrain)) == scan_image(
        ibench, build_image_index(itrain, hashed=True)
    )
    _ok(6, "hashed-key and exact-key indexes give identical reports at 1e5 n-grams")


def test_criterion_7_statistics_oracle():
    rng = np.random.default_rng(12)
    for _ in range(1000):
        n = int(rng.integers(2, 101))
        x = rng.uniform(-100, 100, size=n)
        y = rng.uniform(-100, 100, size=n)
        if np.ptp(x) == 0 or np.ptp(y) == 0:
            continue
        mx, my = x.mean(), y.mean()
        oracle = float(
            np.sum((x - mx) * (y - my))
            / math.sqrt(np.sum((x - mx) ** 2) * np.sum((y - my) ** 2))
        )
        r = pearson(x, y)
        assert abs(r) <= 1.0 + 1e-12
        assert abs(r - oracle) <= 1e-12

    x = rng.uniform(-10, 10, size=30)
    y = rng.uniform(-10, 10, size=30)
    assert abs(pearson(2.5 * x + 1.0, 0.3 * y - 7.0) - pearson(x, y)) <= 1e-9
    assert abs(spearman(np.exp(x), y**3) - spearman(x, y)) <= 1e-12
    _ok(7, "pearson matches two-pass oracle (1e-12); affine/monotone invariance")


def test_criterion_8_aggregation():
    rng = np.random.default_rng(21)
    for _ in range(50):
        datasets = [f"d{i}" for i in range(int(rng.integers(1, 6)))]
        entries = {("m", d): float(rng.uniform(0, 100)) for d in datasets}
        result = aggregate(ScoreTable(entries), ScaleSpec({}))
        assert 0.0 <= result.per_model["m"] <= 100.0
        shuffled = dict(sorted(entries.items(), key=lambda kv: -len(kv[0][1])))
        assert aggregate(ScoreTable(shuffled), ScaleSpec({})) == result

    hand = aggregate(
        ScoreTable({("m", "a"): 40.0, ("m", "b"): 60.0}), ScaleSpec({})
    )
    assert hand.per_model["m"] == 50.0
    assert abs(normalize_score(1841.8, (0.0, 2800.0)) - 65.78) <= 0.01
    _ok(8, "aggregates in [0,100], permutation invariant, (40,60)->50, MME->65.78")


@pytest.mark.slow
def test_criterion_9_performance():
    rng = np.random.default_rng(0)
    emb = _emb(rng.standard_normal((100_000, 512)))

    t0 = time.perf_counter()
    single = k_center_greedy(emb, 500, seed=1, workers=1)
    t_single = time.perf_counter() - t0
    assert t_single < 120.0, f"single-threaded took {t_single:.1f}s"

    t0 = time.perf_counter()
    multi = k_center_greedy(emb, 500, seed=1, workers=8)
    t_multi = time.perf_counter() - t0
    assert t_multi < 30.0, f"8 workers took {t_multi:.1f}s"
    assert single.center_indices == multi.center_indices

    # Training corpora repeat boilerplate heavily; model that with 300
    # distinct documents each seen 10 times. Best-of-3 timing (timeit-style)
    # to damp scheduler noise.
    vocab = [f"w{i}" for i in range(5000)]
    prng = random.Random(0)
    base = [" ".join(prng.choices(vocab, k=208)) for _ in range(300)]
    docs = [TextDocument(f"d{i}", base[i % 300]) for i in range(3000)]
    total = len(docs) * (208 - 8 + 1)
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        build_text_index(docs)
        best = min(best, time.perf_counter() - t0)
    rate = total / best
    assert rate >= 1e6, f"indexed {rate:.0f} n-grams/s"
    _ok(9, f"greedy {t_single:.0f}s/1w {t_multi:.0f}s/8w; index {rate/1e6:.1f}M n-grams/s")


def test_criterion_10_cli_golden(tmp_path, capsys):
    rng = np.random.default_rng(3)
    n = 20
    save_embeddings(
        _emb(rng.standard_normal((n, 4)), prefix="inst"),
        tmp_path / "e.bin",
        tmp_path / "e.ids",
    )
    train_text = tmp_path / "train.jsonl"
    train_text.write_text(
        "".join(
            json.dumps({"id": f"t{i}", "text": " ".join(f"t{i}w{j}" for j in range(10))})
            + "\n"
            for i in range(5)
        )
    )
    bench_text = tmp_path / "bench.jsonl"
    bench_text.write_text(
        json.dumps({"id": "copy", "text": " ".join(f"t0w{j}" for j in range(10))})
        + "\n"
        + json.dumps({"id": "clean", "text": " ".join(f"b{j}" for j in range(10))})
        + "\n"
    )
    train_img = tmp_path / "timg.jsonl"
    train_img.write_text(json.dumps({"id": "t0", "tokens": list(range(32))}) + "\n")
    bench_img = tmp_path / "bimg.jsonl"
    bench_img.write_text(json.dumps({"id": "dup", "tokens": list(range(32))}) + "\n")
    scores = tmp_path / "scores.csv"
    scores.write_text(
        "model,dataset,score\n"
        + "".join(f"m,inst{i},{float(i % 3)}\n" for i in range(n))
    )
    table = tmp_path / "table.csv"
    table.write_text("model,dataset,score\nm1,a,40\nm2,a,60\nm3,a,80\n")

    invocations = {
        "select": ["select", "--embeddings", str(tmp_path / "e.bin"),
                   "--ids", str(tmp_path / "e.ids"), "--k", "5", "--seed", "1"],
        "index-text": ["index-text", "--train", str(train_text)],
        "index-image": ["index-image", "--train", str(train_img)],
        "aggregate": ["aggregate", "--scores", str(table)],
        "correlate": ["correlate", "--full", str(table), "--lite", str(table)],
    }
    outputs: dict[str, str] = {}
    for name, argv in invocations.items():
        runs = []
        for tag in ("x", "y"):
            out = tmp_path / f"{name}.{tag}.json"
            assert main(argv + ["--out", str(out)]) == 0
            runs.append(out.read_bytes())
        assert runs[0] == runs[1], f"{name} output not byte-identical"
        outputs[name] = str(tmp_path / f"{name}.x.json")

    # Scan and gap subcommands consume the artifacts above.
    for name, argv in {
        "scan-text": ["scan-text", "--index", outputs["index-text"],
                      "--bench", str(bench_text)],
        "scan-image": ["scan-image", "--index", outputs["index-image"],
                       "--bench", str(bench_img)],
    }.items():
        runs = []
        for tag in ("x", "y"):
            out = tmp_path / f"{name}.{tag}.json"
            assert main(argv + ["--report", str(out)]) == 0
            runs.append(out.read_bytes())
        assert runs[0] == runs[1], f"{name} output not byte-identical"

    runs = []
    for tag in ("x", "y"):
        out = tmp_path / f"gap.{tag}.json"
        assert main(["gap", "--scores", str(scores),
                     "--selection", outputs["select"], "--out", str(out)]) == 0
        runs.append(out.read_bytes())
    assert runs[0] == runs[1]

    # Documented exit codes: 2 usage, 1 data.
    with pytest.raises(SystemExit) as exc:
        main(["select", "--embeddings", str(tmp_path / "e.bin"),
              "--ids", str(tmp_path / "e.ids"), "--k", "0",
              "--out", str(tmp_path / "z.json")])
    assert exc.value.code == 2
    assert main(["select", "--embeddings", str(tmp_path / "e.bin"),
                 "--ids", str(tmp_path / "e.ids"), "--k", "999",
                 "--out", str(tmp_path / "z.json")]) == 1
    capsys.readouterr()
    _ok(10, "all subcommands byte-identical across reruns; exit codes 0/1/2")
