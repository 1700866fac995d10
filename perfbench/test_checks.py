"""The benchmark's own tests: its output checks catch corrupted outputs.

    python3 -m pytest perfbench/test_checks.py

Each test runs a few real CLI invocations on a small generated workload,
confirms the checks pass on the program's outputs, then corrupts one output
and confirms the operation is counted as failed.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402


def _run_ops(workdir: Path, workload: str, seed: int, op_ids: list[str]) -> tuple[dict, dict]:
    gen.generate(workload, seed, workdir)
    plan = json.loads((workdir / "plan.json").read_text())
    plan = {"ops": [op for op in plan["ops"] if op["id"] in op_ids]}
    runner = run.Runner(HERE.parent, workdir, time.monotonic() + 120)
    return plan, run.run_rep(runner, plan, 0, traced=False)


def _failed(workdir: Path, plan: dict, rep: dict) -> int:
    errors = {op["id"]: check.check_op(workdir, op) for op in plan["ops"]}
    _, failed, _ = run.tally([rep], plan, {k: v for k, v in errors.items() if v})
    return failed


def _edit_json(path: Path, edit) -> None:
    data = json.loads(path.read_text())
    edit(data)
    path.write_text(json.dumps(data))


def test_corrupted_scan_report_counts_as_failed(tmp_path):
    plan, rep = _run_ops(tmp_path, "audit-hashed", 7,
                         ["index-text", "index-image", "scan-text:0", "scan-image:0"])
    assert all(op["ok"] for op in rep["ops"])
    assert _failed(tmp_path, plan, rep) == 0

    labels = json.loads((tmp_path / "labels_text_0.json").read_text())
    leak = next(i for i, w in labels.items() if w["label"] == "leak")

    def unflag(report):
        report["per_instance"][leak].update(text_hit=False, category="clean")

    _edit_json(tmp_path / "report_text_0.json", unflag)
    assert _failed(tmp_path, plan, rep) == 1

    labels = json.loads((tmp_path / "labels_img_0.json").read_text())
    similar = next(i for i, w in labels.items() if w["label"] == "similar_image")

    def promote(report):
        report["per_instance"][similar].update(exact_image=True,
                                               category="duplicate_image")

    _edit_json(tmp_path / "report_img_0.json", promote)
    assert _failed(tmp_path, plan, rep) == 2


def test_corrupted_selection_and_gap_count_as_failed(tmp_path):
    plan, rep = _run_ops(tmp_path, "lite-suite", 3, ["select:llava-w", "gap:llava-w"])
    assert _failed(tmp_path, plan, rep) == 0

    low, high = plan["ops"][0]["check"]["plant"]

    def swap(sel):
        # The generator planted rows low < high as exact twins farthest from
        # centers[0]; the lowest-index tie rule makes centers[1] = low.
        i, j = sel["center_indices"].index(low), sel["center_indices"].index(high)
        for seq in (sel["center_indices"], sel["center_ids"]):
            seq[i], seq[j] = seq[j], seq[i]

    assert json.loads((tmp_path / "sel_llava-w.json").read_text())["center_indices"][1] == low
    _edit_json(tmp_path / "sel_llava-w.json", swap)
    errors = check.check_op(tmp_path, plan["ops"][0])
    assert any("breaks an exact tie" in e for e in errors)

    _edit_json(tmp_path / "gap_llava-w.json", lambda g: g.update(gap=g["gap"] + 1e-6))
    assert _failed(tmp_path, plan, rep) == 2


def test_changed_digest_counts_as_failed(tmp_path):
    plan, rep = _run_ops(tmp_path, "lite-suite", 4, ["correlate:spearman"])
    again = json.loads(json.dumps(rep))
    out = plan["ops"][0]["outputs"][0]
    again["digests"][out] = "0" * 64
    assert run.tally([rep, again], plan, {})[1] == 1


def test_refuses_to_run_without_the_program(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "lite-suite",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
