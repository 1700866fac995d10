import json

import numpy as np
import pytest

from corelite.cli import main
from corelite.corpus import EmbeddingMatrix, save_embeddings


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
        assert "must be ≥ 1" in capsys.readouterr().err

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

    def test_n_mismatch(self, tmp_path, capsys):
        train, bench = self._corpora(tmp_path)
        idx = tmp_path / "idx.bin"
        main(["index-text", "--train", str(train), "--n", "8", "--out", str(idx)])
        rc = main(["scan-text", "--index", str(idx), "--bench", str(bench),
                   "--n", "9", "--report", str(tmp_path / "r.json")])
        assert rc == 1
        assert "n=9" in capsys.readouterr().err

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

    def test_scales_json_list(self, tmp_path, capsys):
        scores = tmp_path / "s.csv"
        scores.write_text("model,dataset,score\nm1,a,40.0\n")
        scales = tmp_path / "scales.json"
        scales.write_text("[]")
        rc = main(["aggregate", "--scores", str(scores), "--scales", str(scales),
                   "--out", str(tmp_path / "agg.json")])
        assert rc == 1
        assert "JSON object" in self._one_error_line(capsys)

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

    def test_internal_key_error_is_not_a_data_error(self, tmp_path, monkeypatch):
        def broken(args):
            raise KeyError("bug")

        monkeypatch.setattr("corelite.cli.cmd_gap", broken)
        with pytest.raises(KeyError):
            main(["gap", "--scores", "s", "--selection", "x", "--out", "o"])
