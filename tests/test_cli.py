import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from corelite import cli
from corelite.cli import main
from corelite.corpus import EmbeddingMatrix, TokenSequence, save_embeddings
from corelite.decontam import ImageNGramIndex, build_image_index, save_index


@pytest.fixture
def emb_files(tmp_path):
    rng = np.random.default_rng(0)
    data = rng.standard_normal((12, 4)).astype(np.float32)
    ids = tuple(f"inst{i}" for i in range(12))
    save_embeddings(EmbeddingMatrix(ids, data), tmp_path / "e.bin", tmp_path / "e.ids")
    return tmp_path / "e.bin", tmp_path / "e.ids"


def write_jsonl(path, records):
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    return path


class TestSelect:
    def test_k_equals_n(self, tmp_path, emb_files, capsys):
        data_path, ids_path = emb_files
        out = tmp_path / "sel.json"
        rc = main([
            "select", "--embeddings", str(data_path), "--ids", str(ids_path),
            "--k", "12", "--out", str(out),
        ])
        assert rc == 0
        sel = json.loads(out.read_text())
        assert sorted(sel["center_ids"]) == sorted(f"inst{i}" for i in range(12))
        assert sel["coverage_radius"] == 0.0
        assert (tmp_path / "sel.json.manifest.json").exists()

    def test_byte_identical_reruns(self, tmp_path, emb_files):
        data_path, ids_path = emb_files
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            main([
                "select", "--embeddings", str(data_path), "--ids", str(ids_path),
                "--k", "4", "--seed", "9", "--out", str(out),
            ])
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_k_zero_usage_error(self, tmp_path, emb_files, capsys):
        data_path, ids_path = emb_files
        with pytest.raises(SystemExit) as exc:
            main([
                "select", "--embeddings", str(data_path), "--ids", str(ids_path),
                "--k", "0", "--out", str(tmp_path / "x.json"),
            ])
        assert exc.value.code == 2
        assert "argument --k: must be an integer ≥ 1, not '0'" in capsys.readouterr().err

    @pytest.mark.parametrize("command,flag", [
        ("select", "--k"), ("index-text", "--n"), ("index-text", "--freq-threshold"),
    ])
    @pytest.mark.parametrize("value", ["abc", "1.5", "-2"])
    def test_positive_int_usage_error(self, tmp_path, emb_files, capsys, command, flag, value):
        # One message for a value that is not an integer and one below 1,
        # and no name from inside the program.
        inputs = {"select": ["--embeddings", str(emb_files[0]), "--ids", str(emb_files[1])],
                  "index-text": ["--train", str(tmp_path / "train.jsonl")]}[command]
        with pytest.raises(SystemExit) as exc:
            main([command, *inputs, f"{flag}={value}", "--out", str(tmp_path / "x")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: must be an integer ≥ 1, not {value!r}\n" in err
        assert "_positive_int" not in err

    def test_crlf_ids_select_as_lf(self, tmp_path, emb_files):
        data_path, ids_path = emb_files
        crlf_ids = tmp_path / "crlf.ids"
        crlf_ids.write_bytes(ids_path.read_bytes().replace(b"\n", b"\r\n"))
        outs = []
        for ids in (ids_path, crlf_ids):
            out = tmp_path / f"{ids.stem}.json"
            assert main(["select", "--embeddings", str(data_path), "--ids", str(ids),
                         "--k", "4", "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_k_above_n_data_error(self, tmp_path, emb_files, capsys):
        data_path, ids_path = emb_files
        rc = main([
            "select", "--embeddings", str(data_path), "--ids", str(ids_path),
            "--k", "99", "--out", str(tmp_path / "x.json"),
        ])
        assert rc == 1
        assert "error" in capsys.readouterr().err

    def test_dataset_default_k(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        n = 70
        data = rng.standard_normal((n, 3)).astype(np.float32)
        ids = tuple(f"i{j}" for j in range(n))
        save_embeddings(
            EmbeddingMatrix(ids, data), tmp_path / "e.bin", tmp_path / "e.ids"
        )
        out = tmp_path / "sel.json"
        rc = main([
            "select", "--embeddings", str(tmp_path / "e.bin"),
            "--ids", str(tmp_path / "e.ids"),
            "--dataset", "LLaVA-W", "--out", str(out),
        ])
        assert rc == 0
        assert json.loads(out.read_text())["k"] == 60

    @pytest.mark.parametrize("files", ["present", "missing"])
    def test_unknown_dataset_reads_no_embeddings(self, tmp_path, emb_files, capsys, files):
        # --dataset resolves to k before the embeddings file is opened.
        def loaded(*args, **kwargs):
            pytest.fail("select read the embeddings before resolving --dataset")

        guard = mock.patch.object(cli, "load_embeddings", side_effect=loaded)
        if files == "missing":  # opening them would fail with another error
            emb_files = (tmp_path / "missing.bin", tmp_path / "missing.ids")
            guard = contextlib.nullcontext()
        with guard:
            rc = main(["select", "--embeddings", str(emb_files[0]),
                       "--ids", str(emb_files[1]), "--dataset", "nope",
                       "--out", str(tmp_path / "sel.json")])
        assert rc == 1
        assert capsys.readouterr() == (
            "", "corelite: error: no default lite size for dataset 'nope'\n")
        assert not (tmp_path / "sel.json").exists()
        assert not (tmp_path / "sel.json.manifest.json").exists()

    @pytest.mark.parametrize(
        "size", [[], ["--k", "3", "--dataset", "LLaVA-W"]], ids=["neither", "both"]
    )
    def test_k_and_dataset_exclusive(self, tmp_path, emb_files, capsys, size):
        data_path, ids_path = emb_files
        with pytest.raises(SystemExit) as exc:
            main([
                "select", "--embeddings", str(data_path), "--ids", str(ids_path),
                *size, "--out", str(tmp_path / "x.json"),
            ])
        assert exc.value.code == 2
        assert "--k" in capsys.readouterr().err
        assert not (tmp_path / "x.json").exists()

    def test_manifest_echoes_defaults(self, tmp_path, emb_files):
        data_path, ids_path = emb_files
        out = tmp_path / "sel.json"
        main([
            "select", "--embeddings", str(data_path), "--ids", str(ids_path),
            "--k", "3", "--out", str(out),
        ])
        manifest = json.loads((tmp_path / "sel.json.manifest.json").read_text())
        assert manifest["parameters"] == {
            "k": 3, "seed": 0, "normalize": True, "metric": "l2",
        }
        assert set(manifest["input_digests"]) == {"embeddings", "ids"}

    @pytest.mark.parametrize(
        "flags,normalize",
        [(["--normalize"], True), (["--normalize", "--no-normalize"], False),
         (["--no-normalize", "--normalize"], True)],
    )
    def test_normalize_last_flag_wins(self, tmp_path, emb_files, flags, normalize):
        data_path, ids_path = emb_files
        out = tmp_path / "sel.json"
        assert main([
            "select", "--embeddings", str(data_path), "--ids", str(ids_path),
            "--k", "3", *flags, "--out", str(out),
        ]) == 0
        manifest = json.loads((tmp_path / "sel.json.manifest.json").read_text())
        assert manifest["parameters"]["normalize"] is normalize

    @pytest.mark.parametrize("flag", ["--normalize", "--no-normalize"])
    def test_one_working_matrix(self, tmp_path, flag):
        # select holds one float64 n x d matrix and no float32 copy beside it.
        import corelite.coreset  # noqa: F401  (imported before tracing starts)

        n, d = 32768, 128
        data = np.random.default_rng(2).standard_normal((n, d)).astype(np.float32)
        ids = tuple(f"i{j}" for j in range(n))
        save_embeddings(EmbeddingMatrix(ids, data), tmp_path / "e.bin", tmp_path / "e.ids")
        del data
        tracemalloc.start()
        try:
            rc = main(["select", "--embeddings", str(tmp_path / "e.bin"),
                       "--ids", str(tmp_path / "e.ids"), "--k", "8", flag,
                       "--out", str(tmp_path / "sel.json")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 0
        assert peak < 1.3 * 8 * n * d, f"peak {peak / (8 * n * d):.2f}x the matrix"


class TestGap:
    def test_gap_pipeline(self, tmp_path, emb_files, capsys):
        data_path, ids_path = emb_files
        sel = tmp_path / "sel.json"
        main([
            "select", "--embeddings", str(data_path), "--ids", str(ids_path),
            "--k", "12", "--out", str(sel),
        ])
        scores = tmp_path / "scores.csv"
        scores.write_text(
            "model,dataset,score\n"
            + "".join(f"m,inst{i},{float(i % 2)}\n" for i in range(12))
        )
        out = tmp_path / "gap.json"
        rc = main(["gap", "--scores", str(scores), "--selection", str(sel),
                   "--out", str(out)])
        assert rc == 0
        # k = n, so the subset mean equals the full mean exactly.
        assert json.loads(out.read_text())["gap"] == 0.0

    def test_unknown_selected_id(self, tmp_path, capsys):
        scores = tmp_path / "scores.csv"
        scores.write_text("model,dataset,score\nm,a,1.0\n")
        sel = tmp_path / "sel.json"
        sel.write_text(json.dumps({"center_ids": ["zzz"]}))
        rc = main(["gap", "--scores", str(scores), "--selection", str(sel),
                   "--out", str(tmp_path / "g.json")])
        assert rc == 1


@contextlib.contextmanager
def _piped(path):
    """A /dev/fd path reading `path` through a pipe, as a shell's `<(cat path)`."""
    with subprocess.Popen(["cat", str(path)], stdout=subprocess.PIPE) as cat:
        yield f"/dev/fd/{cat.stdout.fileno()}"


def _scans_alike_from_a_pipe(tmp_path, command, idx, bench):
    """`command` reports the same bytes with `idx` behind a pipe as from the file.

    The manifests differ only in the index digest, which is null for the pipe:
    its bytes are gone once the scan has read them.
    """
    reports, manifests = [], []
    for name, index in (("file", contextlib.nullcontext(str(idx))), ("pipe", _piped(idx))):
        with index as arg:
            assert main([command, "--index", arg, "--bench", str(bench),
                         "--report", str(tmp_path / name)]) == 0
        reports.append((tmp_path / name).read_bytes())
        manifests.append(json.loads((tmp_path / f"{name}.manifest.json").read_text()))
    assert reports[0] == reports[1]
    from_file, from_pipe = (m["input_digests"] for m in manifests)
    assert from_file["index"] == hashlib.sha256(idx.read_bytes()).hexdigest()
    assert from_pipe == {**from_file, "index": None}
    for m in manifests:
        del m["input_digests"]
    assert manifests[0] == manifests[1]


needs_dev_fd = pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd")


class TestTextScan:
    def _corpora(self, tmp_path):
        train = write_jsonl(
            tmp_path / "train.jsonl",
            [{"id": f"t{i}", "text": " ".join(f"t{i}w{j}" for j in range(10))}
             for i in range(5)],
        )
        bench = write_jsonl(
            tmp_path / "bench.jsonl",
            [{"id": "copy", "text": " ".join("t0w%d" % j for j in range(10))},
             {"id": "clean", "text": " ".join(f"b{j}" for j in range(10))}],
        )
        return train, bench

    def test_index_and_scan(self, tmp_path, capsys):
        train, bench = self._corpora(tmp_path)
        idx = tmp_path / "idx.bin"
        assert main(["index-text", "--train", str(train), "--out", str(idx)]) == 0
        report = tmp_path / "report.json"
        rc = main(["scan-text", "--index", str(idx), "--bench", str(bench),
                   "--report", str(report)])
        assert rc == 0
        assert "text_overlap_pct=50.0" in capsys.readouterr().out
        payload = json.loads(report.read_text())
        assert payload["per_instance"]["copy"]["text_hit"] is True
        assert payload["per_instance"]["clean"]["category"] == "clean"

    def test_chinese_question_flagged(self, tmp_path, capsys):
        # One token per ideograph gives the question 31 tokens: 24 windows.
        question = "下列哪个选项最能说明图中所示的化学反应过程？A. 氧化反应 B. 还原反应"
        train = write_jsonl(tmp_path / "train.jsonl", [
            {"id": "leak", "text": f"题目：{question} 答案：A"},
            {"id": "other", "text": "这是一段与题目无关的训练文本，用来填充语料。"},
        ])
        bench = write_jsonl(tmp_path / "bench.jsonl", [{"id": "q", "text": question}])
        idx = tmp_path / "idx.bin"
        assert main(["index-text", "--train", str(train), "--out", str(idx)]) == 0
        report = tmp_path / "report.json"
        assert main(["scan-text", "--index", str(idx), "--bench", str(bench),
                     "--report", str(report)]) == 0
        assert "text_overlap_pct=100.0" in capsys.readouterr().out
        hit = json.loads(report.read_text())["per_instance"]["q"]
        assert hit["text_hit"] is True and hit["matched_windows"] == 24

    def test_lone_surrogate_in_text_indexes_and_scans(self, tmp_path, capsys):
        body = "\ud800 ".join(f"w{j}" for j in range(10))
        train = write_jsonl(tmp_path / "train.jsonl", [{"id": "t", "text": body}])
        bench = write_jsonl(tmp_path / "bench.jsonl", [{"id": "b", "text": body}])
        idx = tmp_path / "idx.bin"
        assert main(["index-text", "--train", str(train), "--out", str(idx)]) == 0
        report = tmp_path / "report.json"
        assert main(["scan-text", "--index", str(idx), "--bench", str(bench),
                     "--report", str(report)]) == 0
        assert "text_overlap_pct=100.0" in capsys.readouterr().out

    def test_empty_train_scan(self, tmp_path, capsys):
        train = write_jsonl(tmp_path / "train.jsonl", [])
        bench = write_jsonl(
            tmp_path / "bench.jsonl",
            [{"id": "b", "text": " ".join(f"x{j}" for j in range(10))}],
        )
        idx = tmp_path / "idx.bin"
        main(["index-text", "--train", str(train), "--out", str(idx)])
        rc = main(["scan-text", "--index", str(idx), "--bench", str(bench),
                   "--report", str(tmp_path / "r.json")])
        assert rc == 0
        assert "text_overlap_pct=0.0" in capsys.readouterr().out

    def test_scan_takes_n_from_index(self, tmp_path, capsys):
        train, bench = self._corpora(tmp_path)
        idx = tmp_path / "idx.bin"
        main(["index-text", "--train", str(train), "--n", "8", "--out", str(idx)])
        with pytest.raises(SystemExit) as exc:
            main(["scan-text", "--index", str(idx), "--bench", str(bench),
                  "--n", "8", "--report", str(tmp_path / "r.json")])
        assert exc.value.code == 2
        assert "unrecognized arguments: --n 8" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    def test_rerun_byte_identical(self, tmp_path, capsys):
        train, bench = self._corpora(tmp_path)
        idx = tmp_path / "idx.bin"
        main(["index-text", "--train", str(train), "--out", str(idx)])
        reports = []
        for name in ("r1.json", "r2.json"):
            main(["scan-text", "--index", str(idx), "--bench", str(bench),
                  "--report", str(tmp_path / name)])
            reports.append((tmp_path / name).read_bytes())
        assert reports[0] == reports[1]

    @needs_dev_fd
    @pytest.mark.parametrize("hashed", [False, True], ids=["exact", "hashed"])
    def test_index_from_a_pipe(self, tmp_path, capsys, hashed):
        train, bench = self._corpora(tmp_path)
        idx = tmp_path / "idx.bin"
        flag = ["--hashed"] if hashed else []
        assert main(["index-text", "--train", str(train), "--out", str(idx), *flag]) == 0
        _scans_alike_from_a_pipe(tmp_path, "scan-text", idx, bench)
        assert capsys.readouterr().out.count("text_overlap_pct=50.0") == 2


class TestImageScan:
    def _corpora(self, tmp_path):
        train = write_jsonl(
            tmp_path / "train.jsonl",
            [{"id": "t0", "tokens": list(range(32))}],
        )
        bench = write_jsonl(
            tmp_path / "bench.jsonl",
            [
                {"id": "dup", "tokens": list(range(32))},
                {"id": "sim", "tokens": list(range(8)) + list(range(100, 124))},
                {"id": "clean", "tokens": list(range(200, 232))},
            ],
        )
        return train, bench

    def test_index_and_scan(self, tmp_path, capsys):
        train, bench = self._corpora(tmp_path)
        idx = tmp_path / "idx.bin"
        assert main(["index-image", "--train", str(train), "--out", str(idx)]) == 0
        report = tmp_path / "report.json"
        rc = main(["scan-image", "--index", str(idx), "--bench", str(bench),
                   "--report", str(report)])
        assert rc == 0
        payload = json.loads(report.read_text())
        assert payload["per_instance"]["dup"]["category"] == "duplicate_image"
        assert payload["per_instance"]["sim"]["category"] == "similar_image"
        assert payload["per_instance"]["clean"]["category"] == "clean"

    def test_disjoint_alphabets(self, tmp_path, capsys):
        train = write_jsonl(
            tmp_path / "train.jsonl", [{"id": "t", "tokens": list(range(32))}]
        )
        bench = write_jsonl(
            tmp_path / "bench.jsonl",
            [{"id": "b", "tokens": list(range(500, 532))}],
        )
        idx = tmp_path / "idx.bin"
        main(["index-image", "--train", str(train), "--out", str(idx)])
        rc = main(["scan-image", "--index", str(idx), "--bench", str(bench),
                   "--report", str(tmp_path / "r.json")])
        assert rc == 0
        assert "image_overlap_pct=0.0" in capsys.readouterr().out

    def test_wrong_index_kind(self, tmp_path, capsys):
        train, bench = self._corpora(tmp_path)
        idx = tmp_path / "idx.bin"
        main(["index-image", "--train", str(train), "--out", str(idx)])
        rc = main(["scan-text", "--index", str(idx),
                   "--bench", str(tmp_path / "train.jsonl"),
                   "--report", str(tmp_path / "r.json")])
        assert rc == 1

    @needs_dev_fd
    def test_index_from_a_pipe(self, tmp_path, capsys):
        train, bench = self._corpora(tmp_path)
        idx = tmp_path / "idx.bin"
        assert main(["index-image", "--train", str(train), "--out", str(idx)]) == 0
        _scans_alike_from_a_pipe(tmp_path, "scan-image", idx, bench)


class TestAggregateCorrelate:
    def test_aggregate_hand_case(self, tmp_path):
        scores = tmp_path / "s.csv"
        scores.write_text("model,dataset,score\nm1,a,40.0\nm1,b,60.0\n")
        out = tmp_path / "agg.json"
        rc = main(["aggregate", "--scores", str(scores), "--out", str(out)])
        assert rc == 0
        assert json.loads(out.read_text())["per_model"]["m1"] == 50.0

    def test_missing_scale_names_dataset(self, tmp_path, capsys):
        scores = tmp_path / "s.csv"
        scores.write_text("model,dataset,score\nm1,mme,1841.8\n")
        rc = main(["aggregate", "--scores", str(scores),
                   "--out", str(tmp_path / "agg.json")])
        assert rc == 1
        assert "mme" in capsys.readouterr().err

    def test_scales_config(self, tmp_path):
        scores = tmp_path / "s.csv"
        scores.write_text("model,dataset,score\nm1,mme,1841.8\n")
        scales = tmp_path / "scales.json"
        scales.write_text('{"mme": {"min": 0, "max": 2800}}')
        out = tmp_path / "agg.json"
        rc = main(["aggregate", "--scores", str(scores), "--scales", str(scales),
                   "--out", str(out)])
        assert rc == 0
        assert json.loads(out.read_text())["per_model"]["m1"] == pytest.approx(
            65.78, abs=0.01
        )

    def test_correlate_identical_tables(self, tmp_path):
        csv_text = (
            "model,dataset,score\n"
            "m1,a,10\nm2,a,20\nm3,a,30\n"
            "m1,b,5\nm2,b,9\nm3,b,2\n"
        )
        full = tmp_path / "full.csv"
        lite = tmp_path / "lite.csv"
        full.write_text(csv_text)
        lite.write_text(csv_text)
        out = tmp_path / "corr.json"
        rc = main(["correlate", "--full", str(full), "--lite", str(lite),
                   "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["per_dataset"] == {"a": 1.0, "b": 1.0}

    def test_correlate_rerun_identical(self, tmp_path):
        csv_text = "model,dataset,score\nm1,a,10\nm2,a,25\nm3,a,31\n"
        full = tmp_path / "full.csv"
        lite = tmp_path / "lite.csv"
        full.write_text(csv_text)
        lite.write_text("model,dataset,score\nm1,a,11\nm2,a,24\nm3,a,30\n")
        outs = []
        for name in ("c1.json", "c2.json"):
            main(["correlate", "--full", str(full), "--lite", str(lite),
                  "--out", str(tmp_path / name)])
            outs.append((tmp_path / name).read_bytes())
        assert outs[0] == outs[1]

    def test_missing_file_data_error(self, tmp_path, capsys):
        rc = main(["aggregate", "--scores", str(tmp_path / "nope.csv"),
                   "--out", str(tmp_path / "agg.json")])
        assert rc == 1


class TestErrorLines:
    """Malformed inputs exit 1 with one `corelite: error:` line."""

    def _one_error_line(self, capsys):
        err = capsys.readouterr().err
        assert err.startswith("corelite: error: ") and err.count("\n") == 1
        return err

    def test_non_utf8_corpus(self, tmp_path, capsys):
        train = tmp_path / "train.jsonl"
        train.write_bytes(b'{"id": "a", "text": "ok"}\n{"id": "b", "text": "\xff"}\n')
        rc = main(["index-text", "--train", str(train), "--out", str(tmp_path / "i")])
        assert rc == 1
        assert "line 2: invalid UTF-8" in self._one_error_line(capsys)

    def test_non_utf8_scores(self, tmp_path, capsys):
        scores = tmp_path / "s.csv"
        scores.write_bytes(b"model,dataset,score\nm\xff,a,1.0\n")
        rc = main(["aggregate", "--scores", str(scores),
                   "--out", str(tmp_path / "agg.json")])
        assert rc == 1
        self._one_error_line(capsys)

    @pytest.mark.parametrize("kind", ["text", "image"])
    def test_lone_surrogate_bench_id(self, tmp_path, capsys, kind):
        good = {"text": {"text": "w " * 9}, "image": {"tokens": list(range(32))}}[kind]
        train = write_jsonl(tmp_path / "train.jsonl", [{"id": "t", **good}])
        bench = write_jsonl(tmp_path / "bench.jsonl", [{"id": "a\ud800", **good}])
        idx = tmp_path / "idx.bin"
        assert main([f"index-{kind}", "--train", str(train), "--out", str(idx)]) == 0
        capsys.readouterr()
        report = tmp_path / "r.json"
        rc = main([f"scan-{kind}", "--index", str(idx), "--bench", str(bench),
                   "--report", str(report)])
        assert rc == 1
        what = {"text": "document", "image": "sequence"}[kind]
        assert self._one_error_line(capsys) == (
            f"corelite: error: {bench}: line 1: {what} id holds a lone surrogate\n")
        assert not report.exists()

    @pytest.mark.parametrize("command", ["index-text", "scan-text"])
    def test_unwritable_output_is_named(self, tmp_path, command):
        # index-text writes into a missing directory, scan-text onto a
        # directory. Each run is its own process, with its own temp file name.
        train = write_jsonl(tmp_path / "train.jsonl", [{"id": "t", "text": "w " * 9}])
        argv, out = ["index-text", "--train", str(train), "--out"], "nodir/x.ngi"
        if command == "scan-text":
            assert main(["index-text", "--train", str(train),
                         "--out", str(tmp_path / "x.ngi")]) == 0
            argv = ["scan-text", "--index", "x.ngi", "--bench", str(train), "--report"]
            out = "report"
            (tmp_path / out).mkdir()
        errs = []
        for _ in range(2):
            proc = subprocess.run(
                [sys.executable, "-m", "corelite.cli", *argv, out], cwd=tmp_path,
                env=_src_env(), capture_output=True, text=True, timeout=120,
            )
            assert proc.returncode == 1
            errs.append(proc.stderr)
        assert errs[0] == errs[1]
        assert errs[0].startswith("corelite: error: ") and errs[0].count("\n") == 1
        assert repr(out) in errs[0] and ".tmp" not in errs[0]
        assert not list(tmp_path.rglob("*.tmp"))

    def test_scales_json_list(self, tmp_path, capsys):
        scores = tmp_path / "s.csv"
        scores.write_text("model,dataset,score\nm1,a,40.0\n")
        scales = tmp_path / "scales.json"
        scales.write_text("[]")
        rc = main(["aggregate", "--scores", str(scores), "--scales", str(scales),
                   "--out", str(tmp_path / "agg.json")])
        assert rc == 1
        assert "JSON object" in self._one_error_line(capsys)

    def test_freq_threshold_beyond_u32(self, tmp_path, capsys):
        # NGI1 stores freq_threshold as a u32.
        train = write_jsonl(tmp_path / "train.jsonl", [{"id": "a", "text": "w " * 9}])
        out = tmp_path / "i"
        rc = main(["index-text", "--train", str(train), "--freq-threshold",
                   "5000000000", "--out", str(out)])
        assert rc == 1
        assert "freq_threshold must be in 1..4294967295" in self._one_error_line(capsys)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["train.jsonl"]

    def test_nan_ratio_threshold(self, tmp_path, capsys):
        body = " ".join(f"w{j}" for j in range(10))
        train = write_jsonl(tmp_path / "train.jsonl", [{"id": "t", "text": body}])
        bench = write_jsonl(tmp_path / "bench.jsonl", [{"id": "b", "text": body}])
        idx = tmp_path / "idx.bin"
        assert main(["index-text", "--train", str(train), "--out", str(idx)]) == 0
        capsys.readouterr()
        report = tmp_path / "r.json"
        rc = main(["scan-text", "--index", str(idx), "--bench", str(bench),
                   "--ratio-threshold", "nan", "--report", str(report)])
        assert rc == 1
        assert "ratio_threshold must not be NaN" in self._one_error_line(capsys)
        assert not report.exists()
        assert not (tmp_path / "r.json.manifest.json").exists()

    def test_scales_infinite_bounds(self, tmp_path, capsys):
        scores = tmp_path / "s.csv"
        scores.write_text("model,dataset,score\nm1,d,40.0\n")
        scales = tmp_path / "scales.json"
        scales.write_text('{"d": {"min": "-inf", "max": "inf"}}')
        rc = main(["aggregate", "--scores", str(scores), "--scales", str(scales),
                   "--out", str(tmp_path / "agg.json")])
        assert rc == 1
        assert "must be numbers" in self._one_error_line(capsys)
        assert not (tmp_path / "agg.json").exists()

    def test_unwritable_output_leaves_no_manifest(self, tmp_path, capsys):
        scores = tmp_path / "s.csv"
        scores.write_text("model,dataset,score\nm1,a,40.0\n")
        out = tmp_path / "missing-dir" / "agg.json"
        rc = main(["aggregate", "--scores", str(scores), "--out", str(out)])
        assert rc == 1
        self._one_error_line(capsys)
        assert list(tmp_path.iterdir()) == [scores]

    @pytest.mark.parametrize(
        "selection", [{"center_indices": [0]}, {"center_ids": [["a"]]}]
    )
    def test_selection_without_center_ids(self, tmp_path, capsys, selection):
        scores = tmp_path / "scores.csv"
        scores.write_text("model,dataset,score\nm,a,1.0\n")
        sel = tmp_path / "sel.json"
        sel.write_text(json.dumps(selection))
        rc = main(["gap", "--scores", str(scores), "--selection", str(sel),
                   "--out", str(tmp_path / "g.json")])
        assert rc == 1
        assert "expected a center_ids list" in self._one_error_line(capsys)

    def _gap_rejects_two_models(self, tmp_path, capsys, rows):
        scores = tmp_path / "scores.csv"
        scores.write_text("model,dataset,score\n" + rows)
        sel = tmp_path / "sel.json"
        sel.write_text(json.dumps({"center_ids": ["a"]}))
        rc = main(["gap", "--scores", str(scores), "--selection", str(sel),
                   "--out", str(tmp_path / "g.json")])
        assert rc == 1
        out, err = capsys.readouterr()
        assert err == (
            f"corelite: error: {scores}: holds 2 models ('m1', 'm2');"
            " gap takes one model's per-instance scores\n"
        )
        assert out == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["scores.csv", "sel.json"]

    def test_gap_repeated_instance_id(self, tmp_path, capsys):
        # Two models' rows for instance "a" would be averaged into one mean.
        self._gap_rejects_two_models(
            tmp_path, capsys, "m1,a,0\nm1,b,0\nm2,a,100\nm2,b,100\n")

    def test_gap_two_models_disjoint_ids(self, tmp_path, capsys):
        # No id repeats, yet the full mean would average two models.
        self._gap_rejects_two_models(tmp_path, capsys, "m1,a,1\nm2,b,0\n")

    def test_non_finite_result_not_written(self, tmp_path, capsys):
        # JSON cannot hold NaN: one error line, and no output file.
        from corelite import scoring

        scores = tmp_path / "s.csv"
        scores.write_text("model,dataset,score\nm1,a,40.0\n")
        out = tmp_path / "agg.json"
        result = scoring.AggregateResult({"m1": float("nan")}, "unweighted")
        with mock.patch.object(scoring, "aggregate", return_value=result):
            err = self._fails_cleanly(
                tmp_path, capsys, ["aggregate", "--scores", str(scores), "--out", str(out)],
                ["s.csv"],
            )
        assert err.startswith(f"corelite: error: {out}: Out of range float values")

    DEEP = "[" * 100_000 + "]" * 100_000

    def _fails_cleanly(self, tmp_path, capsys, argv, inputs):
        """Exit 1, one error line, and no file written beside the inputs."""
        assert main(argv) == 1
        err = self._one_error_line(capsys)
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(inputs)
        return err

    @pytest.mark.parametrize("command", ["index-text", "index-image"])
    def test_jsonl_nested_too_deeply(self, tmp_path, capsys, command):
        train = tmp_path / "train.jsonl"
        ok = {"id": "a", "text": "ok", "tokens": list(range(32))}
        train.write_text(json.dumps(ok) + "\n" + self.DEEP + "\n")
        err = self._fails_cleanly(
            tmp_path, capsys,
            [command, "--train", str(train), "--out", str(tmp_path / "i")],
            ["train.jsonl"],
        )
        assert "line 2: JSON nested too deeply" in err

    def test_selection_nested_too_deeply(self, tmp_path, capsys):
        scores = tmp_path / "scores.csv"
        scores.write_text("model,dataset,score\nm,a,1.0\n")
        sel = tmp_path / "sel.json"
        sel.write_text(self.DEEP)
        err = self._fails_cleanly(
            tmp_path, capsys,
            ["gap", "--scores", str(scores), "--selection", str(sel),
             "--out", str(tmp_path / "g.json")],
            ["scores.csv", "sel.json"],
        )
        assert f"{sel}: JSON nested too deeply" in err

    def test_scales_nested_too_deeply(self, tmp_path, capsys):
        scores = tmp_path / "s.csv"
        scores.write_text("model,dataset,score\nm1,a,40.0\n")
        scales = tmp_path / "scales.json"
        scales.write_text(self.DEEP)
        err = self._fails_cleanly(
            tmp_path, capsys,
            ["aggregate", "--scores", str(scores), "--scales", str(scales),
             "--out", str(tmp_path / "agg.json")],
            ["s.csv", "scales.json"],
        )
        assert f"{scales}: JSON nested too deeply" in err

    @pytest.mark.parametrize("row", [0, 2], ids=["header", "score-row"])
    def test_score_field_over_csv_limit(self, tmp_path, capsys, row):
        lines = ["model,dataset,score", "m1,a,40.0", "m1,b,50.0"]
        lines[row] += "," + "x" * 200_000
        scores = tmp_path / "s.csv"
        scores.write_text("\n".join(lines) + "\n")
        err = self._fails_cleanly(
            tmp_path, capsys,
            ["aggregate", "--scores", str(scores), "--out", str(tmp_path / "agg.json")],
            ["s.csv"],
        )
        assert f"{scores}: line {row + 1}: field larger than field limit" in err

    def test_gap_overflow(self, tmp_path, capsys):
        # The full mean overflows float64: the gap would be written as NaN.
        scores = tmp_path / "scores.csv"
        scores.write_text("model,dataset,score\nm,a,1.7e308\nm,b,1.7e308\nm,c,1\n")
        sel = tmp_path / "sel.json"
        sel.write_text(json.dumps({"center_ids": ["a", "b"]}))
        err = self._fails_cleanly(
            tmp_path, capsys,
            ["gap", "--scores", str(scores), "--selection", str(sel),
             "--out", str(tmp_path / "g.json")],
            ["scores.csv", "sel.json"],
        )
        assert f"{scores}: score means or their gap overflow float64" in err

    def test_correlate_overflow_is_undefined(self, tmp_path, capsys):
        full = tmp_path / "full.csv"
        full.write_text("model,dataset,score\nm1,a,1e308\nm2,a,1.7e308\nm3,a,1.5e308\n")
        lite = tmp_path / "lite.csv"
        lite.write_text("model,dataset,score\nm1,a,1\nm2,a,3\nm3,a,2\n")
        out = tmp_path / "c.json"
        rc = main(["correlate", "--full", str(full), "--lite", str(lite),
                   "--out", str(out)])
        assert rc == 0
        assert capsys.readouterr().err == ""
        payload = json.loads(out.read_text(), parse_constant=_reject_constant)
        assert payload["per_dataset"] == {"a": None}
        assert "not finite" in payload["undefined_reason"]["a"]

    @pytest.mark.parametrize("digits", [308, 309], ids=["infinity", "traceback"])
    def test_weighted_count_beyond_float64(self, tmp_path, capsys, digits):
        # 10**307 * a score of 100 overflows to inf; 10**308 fails int -> float.
        count = 10 ** (digits - 1)
        scores = tmp_path / "s.csv"
        scores.write_text(
            f"model,dataset,score,count\nm,a,100,{count}\nm,b,100,{count}\n"
        )
        err = self._fails_cleanly(
            tmp_path, capsys,
            ["aggregate", "--scores", str(scores), "--weighted",
             "--out", str(tmp_path / "agg.json")],
            ["s.csv"],
        )
        assert f"{scores}: line 2: count must be at most 2**53" in err

    @pytest.mark.parametrize("value", ["inf", "-inf"])
    def test_infinite_ratio_threshold(self, tmp_path, capsys, value):
        body = " ".join(f"w{j}" for j in range(10))
        train = write_jsonl(tmp_path / "train.jsonl", [{"id": "t", "text": body}])
        bench = write_jsonl(tmp_path / "bench.jsonl", [{"id": "b", "text": body}])
        idx = tmp_path / "idx.bin"
        assert main(["index-text", "--train", str(train), "--out", str(idx)]) == 0
        capsys.readouterr()
        err = self._fails_cleanly(
            tmp_path, capsys,
            ["scan-text", "--index", str(idx), "--bench", str(bench),
             f"--ratio-threshold={value}", "--report", str(tmp_path / "r.json")],
            ["train.jsonl", "bench.jsonl", "idx.bin", "idx.bin.manifest.json"],
        )
        assert "ratio_threshold must be finite and above 0" in err

    def test_index_with_freq_threshold_zero(self, tmp_path, capsys):
        # Every key of such an index is meaningless, so a verbatim copy scans clean.
        body = " ".join(f"w{j}" for j in range(10))
        train = write_jsonl(tmp_path / "train.jsonl", [{"id": "t", "text": body}])
        idx = tmp_path / "idx.bin"
        assert main(["index-text", "--train", str(train), "--out", str(idx)]) == 0
        capsys.readouterr()
        data = bytearray(idx.read_bytes())
        data[8:12] = bytes(4)  # the u32 freq_threshold in the NGI1 header
        idx.write_bytes(data)
        err = self._fails_cleanly(
            tmp_path, capsys,
            ["scan-text", "--index", str(idx), "--bench", str(train),
             "--report", str(tmp_path / "r.json")],
            ["train.jsonl", "idx.bin", "idx.bin.manifest.json"],
        )
        assert f"{idx}: freq_threshold must be in 1..4294967295" in err

    def test_index_with_count_zero(self, tmp_path, capsys):
        # A window counted 0 times would still match a verbatim copy.
        seq = TokenSequence("a", tuple(range(32)))
        idx = tmp_path / "idx.bin"
        save_index(build_image_index([seq]), idx)
        data = bytearray(idx.read_bytes())
        data[54:62] = bytes(8)  # the first entry's u64 count, after its 8 ids
        idx.write_bytes(data)
        bench = write_jsonl(
            tmp_path / "bench.jsonl", [{"id": "a", "tokens": list(seq.tokens)}]
        )
        err = self._fails_cleanly(
            tmp_path, capsys,
            ["scan-image", "--index", str(idx), "--bench", str(bench),
             "--report", str(tmp_path / "r.json")],
            ["idx.bin", "bench.jsonl"],
        )
        assert err == (
            f"corelite: error: {idx}: index keys must be distinct, counts above 0\n"
        )

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_ratio_threshold_not_above_zero(self, tmp_path, capsys, value):
        # No overlap ratio is below 0, so a verbatim copy would scan clean.
        body = " ".join(f"w{j}" for j in range(10))
        train = write_jsonl(tmp_path / "train.jsonl", [{"id": "t", "text": body}])
        idx = tmp_path / "idx.bin"
        assert main(["index-text", "--train", str(train), "--out", str(idx)]) == 0
        capsys.readouterr()
        err = self._fails_cleanly(
            tmp_path, capsys,
            ["scan-text", "--index", str(idx), "--bench", str(train),
             f"--ratio-threshold={value}", "--report", str(tmp_path / "r.json")],
            ["train.jsonl", "idx.bin", "idx.bin.manifest.json"],
        )
        assert "ratio_threshold must be finite and above 0" in err

    @pytest.mark.parametrize(
        "content,message",
        [
            (b"", "{path}: empty file, expected a header"),
            (b"model,data,score\nm,a,1\n", "{path}: header must start with"),
            (b"model,dataset,score\nm,a\n", "{path}: line 2: expected at least 3"),
            (b"model,dataset,score\nm,a,inf\n", "{path}: line 2: score must be finite"),
            (b"model,dataset,score,count\nm,a,1,abc\n",
             "{path}: line 2: unparseable count 'abc'"),
            (b"model,dataset,score,count\nm,a,1,0\n",
             "{path}: line 2: count must be positive"),
            (b"model,dataset,score\n", "{path}: score table is empty"),
            (b"model,dataset,score\nm,a,150\n",
             "{path}: dataset 'a': score 150.0 exceeds the default (0, 100) scale"),
            (b"model,dataset,score\r\nm,a,1\r\nm\xff,b,1\r\n",
             "{path}: line 3: invalid UTF-8"),
            (b"\xef\xbb\xbfmodel,dataset,score\nm,a,1\n",
             "{path}: starts with a UTF-8 byte-order mark"),
        ],
        ids=["empty", "header", "two-columns", "score-inf", "count-abc", "count-0",
             "header-only", "over-default-scale", "utf8", "bom"],
    )
    def test_bad_scores_csv(self, tmp_path, capsys, content, message):
        scores = tmp_path / "s.csv"
        scores.write_bytes(content)
        err = self._fails_cleanly(
            tmp_path, capsys,
            ["aggregate", "--scores", str(scores), "--out", str(tmp_path / "agg.json")],
            ["s.csv"],
        )
        assert message.format(path=scores) in err

    def test_weighted_without_count(self, tmp_path, capsys):
        scores = tmp_path / "s.csv"
        scores.write_text("model,dataset,score,count\nm,a,1,\n")
        err = self._fails_cleanly(
            tmp_path, capsys,
            ["aggregate", "--scores", str(scores), "--weighted",
             "--out", str(tmp_path / "agg.json")],
            ["s.csv"],
        )
        assert f"{scores}: instance-weighted aggregation needs a count for ('m', 'a')" in err

    K1 = ["--k", "1"]
    # A 2 x 2 matrix whose second row holds inf: normalized, it becomes NaN.
    INF_ROW = (b"EMB1" + bytes([2, 0, 0, 0, 2, 0, 0, 0])
               + np.array([[1.0, 2.0], [np.inf, 1.0]], "<f4").tobytes())

    @pytest.mark.parametrize(
        "data,ids,size,message",
        [
            (b"EMB1\x01\x00", b"", K1, "{data}: truncated header"),
            (b"EMB1\x01\x00\x00\x00\x00\x00\x00\x00", b"a\n", K1,
             "{data}, {ids}: embedding dimension must be positive"),
            (None, b"a\na\n", K1, "{data}, {ids}: embedding ids must be unique"),
            (None, b"a\n\n", K1, "{data}, {ids}: row 1: empty embedding id"),
            (None, b"a\n", K1, "{data}, {ids}: 1 ids for 2 rows"),
            (b"EMB1" + bytes([2, 0, 0, 0, 1, 0, 0, 0]) + bytes(4) + b"\x00\x00\xc0\x7f",
             b"a\nb\n", K1, "{data}, {ids}: row 1: non-finite value"),
            (None, b"a\n\xff\n", K1, "{ids}: line 2: invalid UTF-8"),
            (None, b"\xef\xbb\xbfa\nb\n", K1,
             "{ids}: starts with a UTF-8 byte-order mark"),
            (None, b"a\nb\n", ["--dataset", "nope"],
             "no default lite size for dataset 'nope'"),
            # n = d = 2**32 - 1: the size check comes before any allocation.
            (b"EMB1" + b"\xff" * 8 + bytes(8), b"", K1,
             f"{{data}}: payload is 8 bytes, expected {4 * (2**32 - 1) ** 2}"),
            (INF_ROW, b"a\nb\n", K1, "{data}, {ids}: row 1: non-finite value"),
            (INF_ROW, b"a\nb\n", [*K1, "--no-normalize"],
             "{data}, {ids}: row 1: non-finite value"),
            # Ids end at LF only: a lone CR stays in its id.
            (None, b"a\rb\nc\n", K1, "{data}, {ids}: row 0: embedding id holds CR or LF"),
            (b"EMB1" + bytes([3, 0, 0, 0, 1, 0, 0, 0]) + bytes(12), b"a\rb\nc\n", K1,
             "{data}, {ids}: 2 ids for 3 rows"),
            (None, b"a\r\r\nb\r\n", K1, "{data}, {ids}: row 0: embedding id holds CR or LF"),
        ],
        ids=["short-header", "d-0", "repeated-ids", "empty-id", "id-count", "nan",
             "utf8-ids", "bom-ids", "unknown-dataset", "huge-header", "inf",
             "inf-no-normalize", "lone-cr-ids", "lone-cr-id-count", "cr-before-crlf"],
    )
    def test_bad_embeddings(self, tmp_path, capsys, data, ids, size, message):
        data_path, ids_path = tmp_path / "e.bin", tmp_path / "e.ids"
        if data is None:  # a valid 2 x 1 matrix
            data = b"EMB1" + bytes([2, 0, 0, 0, 1, 0, 0, 0]) + bytes(8)
        data_path.write_bytes(data)
        ids_path.write_bytes(ids)
        err = self._fails_cleanly(
            tmp_path, capsys,
            ["select", "--embeddings", str(data_path), "--ids", str(ids_path),
             *size, "--out", str(tmp_path / "sel.json")],
            ["e.bin", "e.ids"],
        )
        assert message.format(data=data_path, ids=ids_path) in err

    @pytest.mark.parametrize(
        "content,message",
        [
            (b"{", "{path}: invalid JSON (Expecting property name"),
            (b'{"center_ids": [\n"\xff"]}', "{path}: line 2: invalid UTF-8"),
            (b'{"center_ids": ["zz"]}', "{path}: selected id 'zz' not present in scores"),
            (b'{"center_ids": ["a", "a"]}',
             "{path}: selected id 'a' appears more than once"),
            (b'{"center_ids": []}', "{path}: center_ids is empty"),
        ],
        ids=["json", "utf8", "unknown-id", "repeated-id", "empty"],
    )
    def test_unreadable_selection(self, tmp_path, capsys, content, message):
        scores = tmp_path / "scores.csv"
        scores.write_text("model,dataset,score\nm,a,1.0\n")
        sel = tmp_path / "sel.json"
        sel.write_bytes(content)
        err = self._fails_cleanly(
            tmp_path, capsys,
            ["gap", "--scores", str(scores), "--selection", str(sel),
             "--out", str(tmp_path / "g.json")],
            ["scores.csv", "sel.json"],
        )
        assert message.format(path=sel) in err

    @pytest.mark.parametrize(
        "content,message",
        [
            ('{"a": 1}', "scale for 'a' must have min and max"),
            ('{"a": {"min": 5, "max": 1}}',
             "scale for 'a': max must exceed min by a finite amount"),
        ],
        ids=["no-bounds", "max-below-min"],
    )
    def test_bad_scale_names_file(self, tmp_path, capsys, content, message):
        scores = tmp_path / "s.csv"
        scores.write_text("model,dataset,score\nm1,a,40.0\n")
        scales = tmp_path / "scales.json"
        scales.write_text(content)
        err = self._fails_cleanly(
            tmp_path, capsys,
            ["aggregate", "--scores", str(scores), "--scales", str(scales),
             "--out", str(tmp_path / "agg.json")],
            ["s.csv", "scales.json"],
        )
        assert err == f"corelite: error: {scales}: {message}\n"

    def test_scales_not_utf8(self, tmp_path, capsys):
        scores = tmp_path / "s.csv"
        scores.write_text("model,dataset,score\nm1,d,40.0\n")
        scales = tmp_path / "scales.json"
        scales.write_bytes(b'{"d\xff": {"min": 0, "max": 1}}')
        err = self._fails_cleanly(
            tmp_path, capsys,
            ["aggregate", "--scores", str(scores), "--scales", str(scales),
             "--out", str(tmp_path / "agg.json")],
            ["s.csv", "scales.json"],
        )
        assert f"{scales}: line 1: invalid UTF-8" in err

    def test_jsonl_line_not_json(self, tmp_path, capsys):
        train = tmp_path / "train.jsonl"
        train.write_text('{"id": "a", "text": "ok"}\n{"id": "b", "text": \n')
        err = self._fails_cleanly(
            tmp_path, capsys,
            ["index-text", "--train", str(train), "--out", str(tmp_path / "i")],
            ["train.jsonl"],
        )
        assert "line 2: invalid JSON" in err

    def test_jsonl_repeated_id_names_line(self, tmp_path, capsys):
        train = write_jsonl(
            tmp_path / "train.jsonl",
            [{"id": i, "text": "x"} for i in ("a", "b", "a")],
        )
        err = self._fails_cleanly(
            tmp_path, capsys,
            ["index-text", "--train", str(train), "--out", str(tmp_path / "i")],
            ["train.jsonl"],
        )
        assert err == f"corelite: error: {train}: line 3: duplicate id 'a'\n"

    def test_jsonl_record_rule_names_line(self, tmp_path, capsys):
        train = write_jsonl(
            tmp_path / "train.jsonl",
            [{"id": "a", "tokens": list(range(32))}, {"id": "", "tokens": [0] * 32}],
        )
        err = self._fails_cleanly(
            tmp_path, capsys,
            ["index-image", "--train", str(train), "--out", str(tmp_path / "i")],
            ["train.jsonl"],
        )
        assert err == (
            f"corelite: error: {train}: line 2: sequence id must be non-empty\n"
        )

    @pytest.mark.parametrize("hashed", [False, True], ids=["exact", "hashed"])
    @pytest.mark.parametrize("command", ["index-text", "index-image"])
    @pytest.mark.parametrize("fault", ["bad-line-3", "missing"])
    def test_streamed_training_file_fault(self, tmp_path, capsys, command, hashed, fault):
        # The build reads the training file as it counts, so lines 1 and 2
        # are counted before line 3 fails; nothing is written either way.
        train = tmp_path / "train.jsonl"
        field = "text" if command == "index-text" else "tokens"
        inputs = []
        if fault == "bad-line-3":
            good = {"text": "a b c d e f g h i", "tokens": list(range(32))}
            write_jsonl(train, [{"id": "a", **good}, {"id": "b", **good}, {"id": "c"}])
            inputs = ["train.jsonl"]
        argv = [command, "--train", str(train), "--out", str(tmp_path / "i")]
        err = self._fails_cleanly(
            tmp_path, capsys, argv + (["--hashed"] if hashed else []), inputs
        )
        if fault == "bad-line-3":
            assert err == f"corelite: error: {train}: line 3: missing field {field}\n"
        else:
            assert err == (
                f"corelite: error: [Errno 2] No such file or directory: '{train}'\n"
            )

    @pytest.mark.parametrize("fault", ["text-index", "version-2"])
    def test_bad_image_index(self, tmp_path, capsys, fault):
        train = write_jsonl(
            tmp_path / "train.jsonl",
            [{"id": "t", "text": "a b c d e f g h", "tokens": list(range(32))}],
        )
        idx = tmp_path / "idx.bin"
        command = "index-text" if fault == "text-index" else "index-image"
        assert main([command, "--train", str(train), "--out", str(idx)]) == 0
        capsys.readouterr()
        if fault == "version-2":
            data = bytearray(idx.read_bytes())
            data[4:6] = (2).to_bytes(2, "little")  # the u16 version after the magic
            idx.write_bytes(data)
        err = self._fails_cleanly(
            tmp_path, capsys,
            ["scan-image", "--index", str(idx), "--bench", str(train),
             "--report", str(tmp_path / "r.json")],
            ["train.jsonl", "idx.bin", "idx.bin.manifest.json"],
        )
        expected = {"text-index": f"{idx}: not an image index",
                    "version-2": f"{idx}: unsupported index version 2"}
        assert expected[fault] in err

    @pytest.mark.parametrize("hashed", [False, True], ids=["exact", "hashed"])
    def test_inconsistent_image_index(self, tmp_path, capsys, hashed):
        # The whole sequence is indexed but none of its windows: no build
        # writes this, so the scan names the index.
        seq = TokenSequence("a", tuple(range(32)))
        built = build_image_index([seq], hashed=hashed)
        idx = tmp_path / "idx.bin"
        save_index(ImageNGramIndex(8, hashed, {}, built.exact_sequences), idx)
        bench = write_jsonl(
            tmp_path / "bench.jsonl", [{"id": "a", "tokens": list(seq.tokens)}]
        )
        err = self._fails_cleanly(
            tmp_path, capsys,
            ["scan-image", "--index", str(idx), "--bench", str(bench),
             "--report", str(tmp_path / "r.json")],
            ["idx.bin", "bench.jsonl"],
        )
        assert err == (
            f"corelite: error: {idx}: sequence 'a' is indexed whole"
            " but none of its windows is\n"
        )

    def test_internal_key_error_is_not_a_data_error(self, tmp_path, monkeypatch):
        def broken(args):
            raise KeyError("bug")

        monkeypatch.setattr("corelite.cli.cmd_gap", broken)
        with pytest.raises(KeyError):
            main(["gap", "--scores", "s", "--selection", "x", "--out", "o"])


# Runs corelite.cli.main in-process on one argv and writes whether numpy and
# corelite.decontam had been imported by its end, and whether _hashlib
# (libcrypto) had been when the command function returned, or by the end if
# no command ran (--version).
_IMPORT_PROBE = """
import json, sys
import corelite.cli as cli
hashlib = []
def watch(name):
    command = getattr(cli, name)
    def watched(args):
        result = command(args)
        hashlib.append("_hashlib" in sys.modules)
        return result
    setattr(cli, name, watched)
for name in [name for name in vars(cli) if name.startswith("cmd_")]:
    watch(name)
argv = json.loads(sys.argv[1])
try:
    rc = cli.main(argv)
except SystemExit as exc:
    rc = exc.code
assert rc == 0, argv
hashlib.append("_hashlib" in sys.modules)
seen = [argv[0], "numpy" in sys.modules, "corelite.decontam" in sys.modules, hashlib[0]]
with open(sys.argv[2], "w") as fh:
    json.dump(seen, fh)
"""


REPO = Path(__file__).resolve().parents[1]


def _src_env() -> dict:
    """The environment with this checkout's `src` first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + (os.pathsep + env["PYTHONPATH"]
                                             if env.get("PYTHONPATH") else "")
    return env


def _import_probe(cwd, argv):
    result = cwd / "imports.json"
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, json.dumps(argv), str(result)],
        cwd=cwd, env=_src_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(result.read_text())


class TestNumpyStaysOut:
    """Each command imports only what it runs.

    Only select and correlate load numpy, and only the n-gram commands load
    decontam. No command loads hashlib's libcrypto before it returns: the
    manifest's digests load it once the command's data is freed, so it adds
    nothing to the command's peak. A module one run imports stays for the
    next, so each command runs in a process of its own.
    """

    def test_ngram_commands(self, tmp_path):
        write_jsonl(tmp_path / "t.jsonl",
                    [{"id": f"t{i}", "text": f"w{i} " + "a b c d e f g h i"}
                     for i in range(12)])
        write_jsonl(tmp_path / "img.jsonl",
                    [{"id": f"i{i}", "tokens": [i + j for j in range(32)]}
                     for i in range(3)])
        runs = [["--version"]]
        for flag in ([], ["--hashed"]):
            runs += [
                ["index-text", "--train", "t.jsonl", "--out", "t.idx", *flag],
                ["scan-text", "--index", "t.idx", "--bench", "t.jsonl",
                 "--report", "t.json"],
                ["index-image", "--train", "img.jsonl", "--out", "i.idx", *flag],
                ["scan-image", "--index", "i.idx", "--bench", "img.jsonl",
                 "--report", "i.json"],
            ]
        for argv in runs:
            assert _import_probe(tmp_path, argv) == [
                argv[0], False, argv[0] != "--version", False
            ]

    def test_select_imports_numpy(self, tmp_path, emb_files):
        data_path, ids_path = emb_files
        argv = ["select", "--embeddings", str(data_path), "--ids", str(ids_path),
                "--k", "3", "--out", "sel.json"]
        assert _import_probe(tmp_path, argv) == ["select", True, False, False]

    @pytest.mark.parametrize("argv,numpy", [
        (["--version"], False),
        (["gap", "--scores", "inst.csv", "--selection", "sel.json", "--out", "g.json"],
         False),
        (["aggregate", "--scores", "s.csv", "--out", "a.json"], False),
        (["correlate", "--full", "s.csv", "--lite", "s.csv", "--out", "c.json"], True),
    ], ids=lambda v: v[0] if isinstance(v, list) else None)
    def test_scoring_commands(self, tmp_path, argv, numpy):
        (tmp_path / "s.csv").write_text(
            "model,dataset,score\nm1,a,10\nm1,b,20\nm2,a,25\nm2,b,5\n"
        )
        (tmp_path / "inst.csv").write_text("model,dataset,score\nm,a,1\nm,b,0.5\n")
        (tmp_path / "sel.json").write_text(json.dumps({"center_ids": ["b"]}))
        assert _import_probe(tmp_path, argv) == [argv[0], numpy, False, False]


def _imported(*args) -> set[str]:
    """The modules a fresh interpreter imports to run `args`, from -X importtime."""
    proc = subprocess.run([sys.executable, "-X", "importtime", *args], env=_src_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
            if line.startswith("import time:")}


@pytest.mark.parametrize("args", [
    ["-c", "import corelite.cli, corelite.coreset"],
    ["-c", "import corelite.cli, corelite.decontam"],
    ["-c", "import corelite.cli, corelite.scoring"],
    ["-m", "corelite.cli", "--version"],
], ids=["coreset", "decontam", "scoring", "version"])
def test_start_up_without_dataclasses(args):
    """No module loads `dataclasses`, whose `inspect` (with `ast` and `dis`) costs
    each process about 1 MiB; what the interpreter loads alone does not count."""
    added = _imported(*args) - _imported("-c", "pass")
    assert "corelite" in added
    assert not added & {"dataclasses", "inspect"}


def test_demo_pipeline(tmp_path):
    """The README's demo runs end to end and writes strict JSON outputs."""
    proc = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "demo_pipeline.py"), str(tmp_path)],
        env=_src_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    for name in ("selection.json", "gap.json", "text_report.json",
                 "image_report.json", "aggregate.json", "correlation.json"):
        json.loads((tmp_path / name).read_text(), parse_constant=_reject_constant)


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def _golden_inputs(root):
    """Fixed inputs for every subcommand; small integers keep floats BLAS-free."""
    points = [[(i * 7) % 11, (i * 5) % 13, (i * 3) % 5] for i in range(20)]
    ids = tuple(f"s{i}" for i in range(20))
    save_embeddings(
        EmbeddingMatrix(ids, np.array(points, dtype=np.float32)),
        root / "e.bin", root / "e.ids",
    )
    (root / "inst.csv").write_text(
        "model,dataset,score\n" + "".join(f"m,s{i},{(i * 37) % 100 / 4}\n" for i in range(20))
    )
    boiler = "please answer the question about the image shown below carefully"
    write_jsonl(root / "train.jsonl", [
        {"id": f"t{i}", "text": f"{boiler} item {i} of {i * 7} zürich straße"}
        for i in range(5)
    ] + [{"id": "solo", "text": " ".join(f"solo{j}" for j in range(12))}])
    write_jsonl(root / "bench.jsonl", [
        {"id": "copy", "text": " ".join(f"solo{j}" for j in range(12))},
        {"id": "boiler", "text": boiler},
        {"id": "clean", "text": " ".join(f"b{j}" for j in range(10))},
    ])
    write_jsonl(root / "itrain.jsonl", [
        {"id": f"i{i}", "tokens": [(i * 37 + j * 1013) % 70000 for j in range(32)]}
        for i in range(4)
    ])
    write_jsonl(root / "ibench.jsonl", [
        {"id": "dup", "tokens": [(j * 1013) % 70000 for j in range(32)]},
        {"id": "sim", "tokens": [(37 + j * 1013) % 70000 for j in range(8)]
         + list(range(100, 124))},
        {"id": "clean", "tokens": list(range(200, 232))},
    ])
    (root / "agg.csv").write_text(
        "model,dataset,score,count\n"
        "m1,a,40.0,3\nm1,mme,1841.8,7\nm2,a,55.5,3\nm2,mme,1500,7\n"
    )
    (root / "scales.json").write_text('{"mme": {"min": 0, "max": 2800}}')
    (root / "full.csv").write_text(
        "model,dataset,score\nm1,a,10\nm2,a,25\nm3,a,31\nm1,b,5\nm2,b,9\nm3,b,2\n"
    )
    (root / "lite.csv").write_text(
        "model,dataset,score\nm1,a,11\nm2,a,24\nm3,a,30\nm1,b,4\nm2,b,9\nm3,b,3\n"
    )


def _golden_run(root):
    """Run every subcommand once; returns (output name -> its bytes, stdout)."""
    _golden_inputs(root)
    f = {name: str(root / name) for name in (
        "e.bin", "e.ids", "inst.csv", "train.jsonl", "bench.jsonl", "itrain.jsonl",
        "ibench.jsonl", "agg.csv", "scales.json", "full.csv", "lite.csv",
    )}
    runs = [
        ["select", "--embeddings", f["e.bin"], "--ids", f["e.ids"], "--k", "5",
         "--seed", "3", "--no-normalize", "--out", "sel.json"],
        ["gap", "--scores", f["inst.csv"], "--selection", str(root / "sel.json"),
         "--out", "gap.json"],
        ["aggregate", "--scores", f["agg.csv"], "--scales", f["scales.json"],
         "--weighted", "--out", "agg.json"],
        ["correlate", "--full", f["full.csv"], "--lite", f["lite.csv"],
         "--out", "corr.json"],
    ]
    for mode, flags in (("exact", []), ("hashed", ["--hashed"])):
        runs += [
            ["index-text", "--train", f["train.jsonl"], "--freq-threshold", "3",
             *flags, "--out", f"text-{mode}.ngi"],
            ["scan-text", "--index", str(root / f"text-{mode}.ngi"),
             "--bench", f["bench.jsonl"], "--report", f"text-{mode}.json"],
            ["index-image", "--train", f["itrain.jsonl"], *flags,
             "--out", f"image-{mode}.ngi"],
            ["scan-image", "--index", str(root / f"image-{mode}.ngi"),
             "--bench", f["ibench.jsonl"], "--report", f"image-{mode}.json"],
        ]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        for argv in runs:
            argv[-1] = str(root / argv[-1])
            assert main(argv) == 0, argv
    artifacts = {}
    for argv in runs:
        for path in (argv[-1], argv[-1] + ".manifest.json"):
            artifacts[os.path.basename(path)] = open(path, "rb").read()
    return artifacts, stdout.getvalue()


class TestGoldenArtifacts:
    """Every subcommand's output and manifest, pinned by SHA-256.

    The digests were taken from the implementation in which each subcommand
    wrote its own manifest and files were written in place.
    """

    DIGESTS = {
        "agg.json":
            "efcde3cdd0369a29d7aa05ed38f852f1d2c91b57909cdf10aa009fe123531961",
        "agg.json.manifest.json":
            "dee17d1a96fa0304738b8bfb727e7e2654723de6c3cd34166081d62af8c93841",
        "corr.json":
            "d950d194973dfa544098063357b0dedeb9eedc7d1e79109f3ae4cf8f23cd39ea",
        "corr.json.manifest.json":
            "92363ce30ca9a9ba83a37a5512723edf8d664c93aeb1b8ce3e0922ebad2afc72",
        "gap.json":
            "39d26c84d6a663c007bf12d964843e1e4073ca055f51dc8a8f8703af7dd0da01",
        "gap.json.manifest.json":
            "13393a01dea87f8b62e9b57c54f4e455c8367d469351fabe3d9d4a960e4d6e4d",
        "image-exact.json":
            "6c7a9e649572b9d52230f576ce2de43fe374b9a473d3b3f21c5a6903283db8fc",
        "image-exact.json.manifest.json":
            "317bdfbd273ca0184dd4af6bf1da260ae1a8c81e48f72d211bbc7fae09ce165a",
        "image-exact.ngi":
            "b8c339f86341be505ea75c8e2358a90a2ccccf87459dcf2623ecfe6434e17e34",
        "image-exact.ngi.manifest.json":
            "6b78856f62000c2f464cb35e0f89cbdb3dddde6277d3e3314911654d3000c7b9",
        "image-hashed.json":
            "6c7a9e649572b9d52230f576ce2de43fe374b9a473d3b3f21c5a6903283db8fc",
        "image-hashed.json.manifest.json":
            "05fa374ad449e453d546ff773c200f7b8c69c28248f48f343795271e201508d8",
        "image-hashed.ngi":
            "bf97a7a809b837e0b638b2c5cf7651ecb708895ce604d93be521462eb3170251",
        "image-hashed.ngi.manifest.json":
            "d7ca132be73a524ba6546ec31bbba8b0d9d3268b1474cca06f69cabd5dab4e24",
        "sel.json":
            "c6abeff4e0f88e3d0836fd448c5d69fd98a75eed1a13c99314f65c6f8523c288",
        "sel.json.manifest.json":
            "a0fbd53d13de17923274c7bbff66d429a13652b7e49eba3be3b122a423edcb1a",
        "text-exact.json":
            "f436f362ef38e4e9b10ea91333c82f783c6ddc6d5f7c9863f9b9cfd885d47aeb",
        "text-exact.json.manifest.json":
            "986cc641aa33f9ac063e75f00e6937c8ca38b576b1601c501b98ad9bd17a8986",
        "text-exact.ngi":
            "f3427ad5f518cc34408034cf0cb30f9827cfcc40ce6862c7329e5264c6a61e9a",
        "text-exact.ngi.manifest.json":
            "322bc29aff83291377c68d6063e5a95c8b22dccbe3206516c7c164cb8b589f55",
        "text-hashed.json":
            "f436f362ef38e4e9b10ea91333c82f783c6ddc6d5f7c9863f9b9cfd885d47aeb",
        "text-hashed.json.manifest.json":
            "35cc102bc94b2af5ac9a1ab8193484175007350789479484fe62352f45b12421",
        "text-hashed.ngi":
            "f4925cd54a256ab5388045e2a2dac83e209eb92ea4903c13484271e02eafc3be",
        "text-hashed.ngi.manifest.json":
            "ec3296c3510e9a04f713d2d91c2ed3f03d56e76281f4cdfea581b674a9813d5b",
    }
    STDOUT = (
        "gap=0.875\n"
        "text_overlap_pct=33.333333333333336\n"
        "image_overlap_pct=66.66666666666667\n"
        "text_overlap_pct=33.333333333333336\n"
        "image_overlap_pct=66.66666666666667\n"
    )

    @pytest.fixture(scope="class")
    def run(self, tmp_path_factory):
        return _golden_run(tmp_path_factory.mktemp("golden"))

    @pytest.mark.parametrize("name", sorted(DIGESTS))
    def test_digest(self, run, name):
        assert hashlib.sha256(run[0][name]).hexdigest() == self.DIGESTS[name]

    def test_every_artifact_pinned(self, run):
        assert sorted(run[0]) == sorted(self.DIGESTS)
        for name, raw in run[0].items():  # strict JSON: no NaN or Infinity
            if name.endswith(".json"):
                json.loads(raw, parse_constant=_reject_constant)

    def test_stdout(self, run):
        assert run[1] == self.STDOUT


class TestGoldenNormalizedSelect:
    """`select` with its default row normalization, pinned by SHA-256.

    TestGoldenArtifacts runs `--no-normalize`. These digests were taken when
    `select` normalized a float32 copy of the matrix before the greedy.
    """

    DIGESTS = {
        "sel.json":
            "83c4a9d1950c62b3ee75d74705ae772462238a04a64906313dc7f077195dc5e7",
        "sel.json.manifest.json":
            "56891f6a34560d51033f610a8ccf05251bcf93042ab189dd2b6148fef055fb37",
    }

    def test_digest(self, tmp_path):
        _golden_inputs(tmp_path)
        out = tmp_path / "sel.json"
        assert main(["select", "--embeddings", str(tmp_path / "e.bin"),
                     "--ids", str(tmp_path / "e.ids"), "--k", "5", "--seed", "3",
                     "--out", str(out)]) == 0
        for name, digest in self.DIGESTS.items():
            assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest
