"""The benchmark's tracer and probe still reach the corelite functions they wrap.

`perfbench/traced_cli.py` replaces module globals (`decontam.tokenize_text`,
`decontam.build_text_index`, ...) with spanning wrappers, and
`perfbench/probe.py hash-text` calls `decontam.hash_text_ngram` on token
tuples. A refactor that bypasses a wrapped global or changes one of these
signatures would make `--trace 1` runs fail or lose spans; these tests run
both scripts on tiny inputs to catch that. The numpy commands import
`coreset` and `scoring` inside the command, so their spans are checked too.
"""

import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def _env():
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + old if old else "")
    return env


def _run(*args):
    proc = subprocess.run(
        [sys.executable, *map(str, args)],
        cwd=ROOT, env=_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.fixture(scope="module")
def corpora(tmp_path_factory):
    root = tmp_path_factory.mktemp("hooks")
    boiler = "please answer the following question about the image"
    text = [{"id": f"t{i}", "text": f"{boiler} item {i} of many w{i} x{i}"}
            for i in range(12)]
    bench = [{"id": "copy", "text": text[0]["text"]},
             {"id": "clean", "text": " ".join(f"b{j}" for j in range(10))}]
    images = [{"id": f"i{i}", "tokens": [(i * 37 + j) % 500 for j in range(32)]}
              for i in range(4)]
    files = {}
    for name, records in (("train.jsonl", text), ("bench.jsonl", bench),
                          ("timg.jsonl", images), ("bimg.jsonl", images[:2])):
        files[name] = root / name
        files[name].write_text("".join(json.dumps(r) + "\n" for r in records))
    return root, files


def _spans(root, label, *argv):
    spans_path = root / f"{label}.spans.json"
    _run(PERFBENCH / "traced_cli.py", spans_path, label, *argv)
    spans = json.loads(spans_path.read_text())
    by_id = {s["id"]: s for s in spans}
    return spans, {(s["name"], by_id[s["parent"]]["name"] if s["parent"] is not None
                    else None) for s in spans}


@pytest.mark.parametrize("hashed", [False, True], ids=["exact", "hashed"])
def test_traced_text_pipeline(corpora, hashed):
    root, f = corpora
    flag = ["--hashed"] if hashed else []
    idx = root / f"text{int(hashed)}.idx"
    spans, edges = _spans(root, f"index-text-{hashed}", "index-text",
                          "--train", f["train.jsonl"], "--out", idx, *flag)
    assert {
        ("cli.index-text", None),
        ("corpus.load_text_corpus", "cli.index-text"),
        ("decontam.build_text_index", "cli.index-text"),
        ("corpus.tokenize_text", "decontam.build_text_index"),
        ("decontam.save_index_text", "cli.index-text"),
        ("trace.finalize", None),
    } <= edges
    (build,) = [s for s in spans if s["name"] == "decontam.build_text_index"]
    assert build["counts"]["meaningless_keys"] > 0
    assert build["counts"]["meaningless_tokens"] > 0

    spans, edges = _spans(root, f"scan-text-{hashed}", "scan-text", "--index", idx,
                          "--bench", f["bench.jsonl"], "--report", root / "r.json")
    assert {
        ("decontam.load_index_text", "cli.scan-text"),
        ("decontam.scan_text", "cli.scan-text"),
        ("corpus.tokenize_text", "decontam.scan_text"),
    } <= edges
    (scan,) = [s for s in spans if s["name"] == "decontam.scan_text"]
    assert scan["counts"]["windows_matched"] > 0


@pytest.mark.parametrize("hashed", [False, True], ids=["exact", "hashed"])
def test_traced_image_pipeline(corpora, hashed):
    root, f = corpora
    flag = ["--hashed"] if hashed else []
    idx = root / f"img{int(hashed)}.idx"
    spans, edges = _spans(root, f"index-image-{hashed}", "index-image",
                          "--train", f["timg.jsonl"], "--out", idx, *flag)
    assert {
        ("corpus.load_token_corpus", "cli.index-image"),
        ("decontam.build_image_index", "cli.index-image"),
        ("decontam.save_index_image", "cli.index-image"),
    } <= edges
    (build,) = [s for s in spans if s["name"] == "decontam.build_image_index"]
    assert build["counts"]["distinct_keys"] > 0

    spans, edges = _spans(root, f"scan-image-{hashed}", "scan-image", "--index", idx,
                          "--bench", f["bimg.jsonl"], "--report", root / "r.json")
    assert {
        ("decontam.load_index_image", "cli.scan-image"),
        ("decontam.scan_image", "cli.scan-image"),
    } <= edges
    (scan,) = [s for s in spans if s["name"] == "decontam.scan_image"]
    assert scan["counts"]["windows_matched"] == 2 * 25


def test_traced_select_and_gap(tmp_path):
    n, d = 6, 3
    emb = tmp_path / "e.bin"
    emb.write_bytes(b"EMB1" + struct.pack(f"<II{n * d}f", n, d,
                                          *[(i * 7 + j) % 5 for i in range(n)
                                            for j in range(d)]))
    ids = tmp_path / "e.ids"
    ids.write_text("".join(f"s{i}\n" for i in range(n)))
    sel = tmp_path / "sel.json"
    _, edges = _spans(tmp_path, "select", "select", "--embeddings", emb, "--ids", ids,
                      "--k", "2", "--out", sel)
    assert {
        ("cli.select", None),
        ("corpus.load_embeddings", "cli.select"),
        ("coreset.k_center_greedy", "cli.select"),
    } <= edges

    scores = tmp_path / "scores.csv"
    scores.write_text("model,dataset,score\n" +
                      "".join(f"m,s{i},{i}\n" for i in range(n)))
    _, edges = _spans(tmp_path, "gap", "gap", "--scores", scores, "--selection", sel,
                      "--out", tmp_path / "gap.json")
    assert {
        ("corpus.load_scores", "cli.gap"),
        ("coreset.subset_gap", "cli.gap"),
    } <= edges


def test_traced_aggregate_and_correlate(tmp_path):
    full = tmp_path / "full.csv"
    full.write_text("model,dataset,score\nm1,a,10\nm2,a,30\nm3,a,20\n")
    lite = tmp_path / "lite.csv"
    lite.write_text("model,dataset,score\nm1,a,12\nm2,a,28\nm3,a,25\n")
    scales = tmp_path / "scales.json"
    scales.write_text(json.dumps({"a": {"min": 0, "max": 50}}))
    _, edges = _spans(tmp_path, "aggregate", "aggregate", "--scores", full,
                      "--scales", scales, "--out", tmp_path / "agg.json")
    assert {
        ("corpus.load_scores", "cli.aggregate"),
        ("scoring.load_scales", "cli.aggregate"),
        ("scoring.aggregate", "cli.aggregate"),
    } <= edges

    _, edges = _spans(tmp_path, "correlate", "correlate", "--full", full,
                      "--lite", lite, "--out", tmp_path / "corr.json")
    assert {
        ("corpus.load_scores", "cli.correlate"),
        ("scoring.correlate_lite", "cli.correlate"),
    } <= edges


def test_hash_text_probe(corpora):
    _, f = corpora
    result = json.loads(_run(PERFBENCH / "probe.py", "hash-text", f["train.jsonl"]))
    # 12 documents of 14 tokens, 7 windows each.
    assert result["windows"] == 12 * 7
    assert result["seconds"] >= 0
