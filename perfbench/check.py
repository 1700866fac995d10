"""Check a workload's CLI outputs against the benchmark's own recomputation.

    python3 perfbench/check.py WORKDIR

Prints one JSON object {op_id: [error, ...]} naming every operation whose
outputs are wrong. Nothing here imports corelite: means, scales,
correlations, ranks, the first greedy center and the expected contamination
labels are all computed from the generated inputs and the generator's
labels. run.py runs this in a child process, after the timed runs.
"""

from __future__ import annotations

import csv
import json
import math
import struct
import sys
from pathlib import Path

import numpy as np

import common

_REL_TOL = 1e-5  # aggregate and correlate print 6 significant digits


def _close(a: float, b: float, rel: float = 1e-9) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(b))


def _load_json(path: Path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _read_lines(path: Path) -> list[str]:
    return path.read_text(encoding="utf-8").splitlines()


def _read_emb(path: Path) -> np.ndarray:
    with open(path, "rb") as fh:
        n, d = struct.unpack("<II", fh.read(12)[4:])
        return np.fromfile(fh, dtype="<f4").reshape(n, d)


def _distances_from(X: np.ndarray, row: int) -> np.ndarray:
    """Squared L2 distances after row normalization, in float64, in chunks."""
    def unit(block):
        block = block.astype(np.float64)
        norms = np.sqrt(np.einsum("ij,ij->i", block, block))[:, None]
        return (block / np.where(norms == 0.0, 1.0, norms)).astype(np.float32)

    x0 = unit(X[row:row + 1]).astype(np.float64)[0]
    out = np.empty(X.shape[0])
    for lo in range(0, X.shape[0], 8192):
        diff = unit(X[lo:lo + 8192]).astype(np.float64) - x0
        out[lo:lo + 8192] = np.einsum("ij,ij->i", diff, diff)
    return out


def check_select(wd: Path, c: dict) -> list[str]:
    sel = _load_json(wd / c["out"])
    k, n = c["k"], c["n"]
    idx = sel["center_indices"]
    errors = []
    if sel["k"] != k or len(idx) != k:
        errors.append(f"expected {k} centers, got k={sel['k']} with {len(idx)}")
    if len(set(idx)) != len(idx) or not all(0 <= i < n for i in idx):
        return errors + ["center indices are not distinct and in range"]
    ids = _read_lines(wd / c["ids"])
    if sel["center_ids"] != [ids[i] for i in idx]:
        errors.append("center_ids do not match the ids of center_indices")
    if sel["seed"] != c["seed"]:
        errors.append(f"seed {sel['seed']} is not {c['seed']}")
    if not (math.isfinite(sel["coverage_radius"]) and sel["coverage_radius"] >= 0):
        errors.append("coverage radius is not a finite non-negative number")
    first = common.uniform_index(c["seed"], n)
    if idx[0] != first:
        errors.append(f"centers[0]={idx[0]}, the SplitMix64 draw is {first}")
    if k >= 2:
        X = _read_emb(wd / c["emb"])
        d2 = _distances_from(X, idx[0])
        far = np.flatnonzero(d2 >= d2.max() - 1e-6)
        if idx[1] not in far:
            errors.append(f"centers[1]={idx[1]} is not the farthest from centers[0]")
        elif np.all(X[far] == X[far[0]]) and idx[1] != far.min():
            errors.append(f"centers[1]={idx[1]} breaks an exact tie; "
                          f"lowest index is {far.min()}")
    return errors


def check_gap(wd: Path, c: dict) -> list[str]:
    with open(wd / c["scores"], encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    values = np.array([float(r[2]) for r in rows])
    pos = {r[1]: i for i, r in enumerate(rows)}
    chosen = [pos[i] for i in _load_json(wd / c["selection"])["center_ids"]]
    full, sub = values.mean(), values[chosen].mean()
    out = _load_json(wd / c["out"])
    errors = []
    for name, want in (("full_mean", full), ("subset_mean", sub),
                       ("gap", abs(full - sub))):
        if not _close(out[name], float(want)):
            errors.append(f"{name}={out[name]}, recomputed {want}")
    if out["subset_size"] != len(chosen) or out["total"] != len(values):
        errors.append("subset_size or total is wrong")
    return errors


def _score_table(path: Path) -> dict[tuple[str, str], tuple[float, int | None]]:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    return {(r[0], r[1]): (float(r[2]), int(r[3]) if len(r) > 3 and r[3] else None)
            for r in rows}


def check_aggregate(wd: Path, c: dict) -> list[str]:
    table = _score_table(wd / c["scores"])
    scales = {d: (s["min"], s["max"]) for d, s in _load_json(wd / c["scales"]).items()}
    out = _load_json(wd / c["out"])
    models = sorted({m for m, _ in table})
    if out["weighting"] != "instance_weighted" or sorted(out["per_model"]) != models:
        return ["wrong weighting or model set"]
    errors = []
    for m in models:
        keys = [key for key in table if key[0] == m]
        lo_hi = np.array([scales.get(d, (0.0, 100.0)) for _, d in keys])
        raw = np.array([table[key][0] for key in keys])
        weight = np.array([table[key][1] for key in keys], dtype=np.float64)
        norm = np.clip(100.0 * (raw - lo_hi[:, 0]) / (lo_hi[:, 1] - lo_hi[:, 0]), 0, 100)
        want = float(norm @ weight / weight.sum())
        if not _close(out["per_model"][m], want, _REL_TOL):
            errors.append(f"{m}: {out['per_model'][m]}, recomputed {want}")
    return errors


def _average_ranks(v: np.ndarray) -> np.ndarray:
    _, inverse, counts = np.unique(v, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)
    return ((ends - counts + 1 + ends) / 2.0)[inverse]


def check_correlate(wd: Path, c: dict) -> list[str]:
    full, lite = _score_table(wd / c["full"]), _score_table(wd / c["lite"])
    out = _load_json(wd / c["out"])
    datasets = sorted({d for _, d in full} & {d for _, d in lite})
    if out["method"] != c["method"] or sorted(out["per_dataset"]) != datasets:
        return ["wrong method or dataset set"]
    errors = []
    for d in datasets:
        models = sorted({m for m, dd in full if dd == d} & {m for m, dd in lite if dd == d})
        x = np.array([full[(m, d)][0] for m in models])
        y = np.array([lite[(m, d)][0] for m in models])
        if c["method"] == "spearman":
            x, y = _average_ranks(x), _average_ranks(y)
        want = float(np.corrcoef(x, y)[0, 1])
        got = out["per_dataset"][d]
        if got is None or not _close(got, want, _REL_TOL):
            errors.append(f"{d}: {got}, recomputed {want}")
        if out["sample_count"][d] != len(models):
            errors.append(f"{d}: sample_count {out['sample_count'][d]}")
    return errors


def _check_scan(wd: Path, c: dict, flag: str, pct_key: str) -> list[str]:
    labels = _load_json(wd / c["labels"])
    report = _load_json(wd / c["out"])
    per = report["per_instance"]
    if sorted(per) != sorted(labels):
        return ["report ids differ from the benchmark ids"]
    errors = []
    for inst_id, want in labels.items():
        got = per[inst_id]
        label = want["label"]
        hit = label != "clean" and label != "boilerplate"
        category = {"leak": "similar_question", "boilerplate": "clean"}.get(label, label)
        expected = {flag: hit, "category": category, "matched_windows": want["matched"]}
        if flag == "image_hit":
            expected["exact_image"] = label == "duplicate_image"
        wrong = {k: got[k] for k, v in expected.items() if got[k] != v}
        if wrong:
            errors.append(f"{inst_id} ({label}): {wrong}")
    hits = sum(1 for w in labels.values() if w["label"] not in ("clean", "boilerplate"))
    if not _close(report[pct_key], 100.0 * hits / len(labels)):
        errors.append(f"{pct_key}={report[pct_key]}, expected {100.0 * hits / len(labels)}")
    return errors[:5]


def check_index(wd: Path, op: dict) -> list[str]:
    with open(wd / op["outputs"][0], "rb") as fh:
        return [] if fh.read(4) == b"NGI1" else ["index file lacks the NGI1 magic"]


def check_manifest(wd: Path, op: dict) -> list[str]:
    manifest = _load_json(wd / (op["outputs"][0] + ".manifest.json"))
    want = {name: common.sha256_file(wd / f) for name, f in op["inputs"].items()}
    errors = []
    if manifest.get("subcommand") != op["argv"][0]:
        errors.append(f"manifest subcommand {manifest.get('subcommand')!r}")
    if manifest.get("input_digests") != want:
        errors.append("manifest input digests differ from the inputs' SHA-256")
    return errors


def check_op(wd: Path, op: dict) -> list[str]:
    c = op["check"]
    kind = c["kind"]
    if kind == "select":
        errors = check_select(wd, c)
    elif kind == "gap":
        errors = check_gap(wd, c)
    elif kind == "aggregate":
        errors = check_aggregate(wd, c)
    elif kind == "correlate":
        errors = check_correlate(wd, c)
    elif kind == "scan-text":
        errors = _check_scan(wd, c, "text_hit", "text_overlap_pct")
    elif kind == "scan-image":
        errors = _check_scan(wd, c, "image_hit", "image_overlap_pct")
    else:
        errors = check_index(wd, op)
    return errors + check_manifest(wd, op)


def check_workdir(wd: Path) -> dict[str, list[str]]:
    """Errors per operation id, for every operation with any."""
    result = {}
    for op in _load_json(wd / "plan.json")["ops"]:
        try:
            errors = check_op(wd, op)
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            errors = [f"unreadable output: {type(exc).__name__}: {exc}"]
        if errors:
            result[op["id"]] = errors
    return result


if __name__ == "__main__":
    print(json.dumps(check_workdir(Path(sys.argv[1])), sort_keys=True))
