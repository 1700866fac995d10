"""Command-line front end: select, gap, index/scan, aggregate, correlate.

Every subcommand writes its primary output and returns its resolved
parameters and input paths; `main` then writes the run manifest (parameters,
input digests, tool version) next to the output, so identical inputs
reproduce byte-identical outputs. A pipe or other input that is not a regular
file has been read by then, so its digest is null. Files are written atomically.

Each command imports only what it runs. Only `select` and `correlate` load
numpy; `gap`, `aggregate`, the n-gram commands and `--version` start
without it. Only the four n-gram commands load `decontam`. A scan reads the
index header, then the benchmark, then the rest of the index, keeping only
the entries the benchmark's keys can hit (and the meaningless ones), so its
memory follows the benchmark, not the training index. `hashlib` (and
libcrypto with it) loads when the manifest's inputs are hashed, after the
command has returned and its data is freed, so it never adds to a command's
peak memory, and `--version` never loads it. No command loads `dataclasses`.

Exit codes: 0 success, 1 data/content error, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import stat
import sys

from . import CoreliteError, __version__
from .corpus import (
    ScaleSpec,
    load_embeddings,
    load_scores,
    load_text_corpus,
    load_token_corpus,
    read_json,
    write_atomic,
)


def _sha256(path) -> str | None:
    if not stat.S_ISREG(os.stat(path).st_mode):
        return None  # a pipe's bytes were consumed by the command
    import hashlib

    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _write_json(path, obj) -> None:
    try:
        text = json.dumps(
            obj, sort_keys=True, indent=2, ensure_ascii=False, allow_nan=False
        )
    except ValueError as exc:  # NaN or ±inf, which JSON cannot hold
        raise CoreliteError(f"{path}: {exc}") from None
    write_atomic(path, [(text + "\n").encode("utf-8")])


def _sig6(value: float | None) -> float | None:
    return None if value is None else float(f"{value:.6g}")


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0  # not an integer: the same message as a value below 1
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be an integer ≥ 1, not {text!r}")
    return value


def cmd_select(args) -> tuple[dict, dict]:
    from . import coreset

    k = args.k or coreset.LITE_K_DEFAULTS.get(args.dataset.lower())  # --k is ≥ 1
    if k is None:
        raise CoreliteError(f"no default lite size for dataset {args.dataset!r}")
    emb = load_embeddings(args.embeddings, args.ids, normalize=args.normalize)
    sel = coreset.k_center_greedy(emb, k, seed=args.seed)
    center_ids = [emb.ids[i] for i in sel.center_indices]
    _write_json(args.out, {**sel._asdict(), "center_ids": center_ids})
    params = {"k": k, "seed": args.seed, "normalize": args.normalize, "metric": "l2"}
    return params, {"embeddings": args.embeddings, "ids": args.ids}


def cmd_gap(args) -> tuple[dict, dict]:
    from . import coreset

    # One model's per-instance scores in file order: the dataset column holds
    # the instance id, which load_scores keeps unique within a model.
    table = load_scores(args.scores)
    models = table.models()
    if len(models) > 1:
        raise CoreliteError(
            f"{args.scores}: holds {len(models)} models ({', '.join(map(repr, models))});"
            " gap takes one model's per-instance scores"
        )
    values = list(table.entries.values())
    positions = {inst_id: i for i, (_, inst_id) in enumerate(table.entries)}
    sel = read_json(args.selection)
    center_ids = sel.get("center_ids") if isinstance(sel, dict) else None
    if not isinstance(center_ids, list) or not all(
        isinstance(i, str) for i in center_ids
    ):
        raise CoreliteError(f"{args.selection}: expected a center_ids list of strings")
    if not center_ids:
        raise CoreliteError(f"{args.selection}: center_ids is empty")
    subset = {}
    for inst_id in center_ids:
        if inst_id in subset or inst_id not in positions:
            why = "appears more than once" if inst_id in subset else "not present in scores"
            raise CoreliteError(f"{args.selection}: selected id {inst_id!r} {why}")
        subset[inst_id] = positions[inst_id]
    try:  # the selection was checked above, so a fault here is the scores'
        gap = coreset.subset_gap(values, list(subset.values()))
    except CoreliteError as exc:
        raise CoreliteError(f"{args.scores}: {exc}") from None
    sizes = {"subset_size": len(subset), "total": len(values)}
    _write_json(args.out, {**gap._asdict(), **sizes})
    print(f"gap={gap.gap}")
    return {}, {"scores": args.scores, "selection": args.selection}


def cmd_index_text(args) -> tuple[dict, dict]:
    from . import decontam

    train = load_text_corpus(args.train)  # streamed into the build
    index = decontam.build_text_index(
        train, n=args.n, freq_threshold=args.freq_threshold, hashed=args.hashed
    )
    decontam.save_index(index, args.out)
    params = {"n": args.n, "freq_threshold": args.freq_threshold, "hashed": args.hashed}
    return params, {"train": args.train}


def cmd_scan_text(args) -> tuple[dict, dict]:
    from . import decontam

    bench = []

    def keep(header):  # the header is checked before the bench is read
        if not header.text:
            raise CoreliteError(f"{args.index}: not a text index")
        bench.extend(load_text_corpus(args.bench))
        return decontam.scan_keys(bench, header)

    index = decontam.load_index(args.index, keep)
    report = decontam.scan_text(bench, index, ratio_threshold=args.ratio_threshold)
    _write_json(args.out, report._asdict())
    print(f"text_overlap_pct={report.text_overlap_pct}")
    params = {"ratio_threshold": args.ratio_threshold, "n": index.n}
    return params, {"index": args.index, "bench": args.bench}


def cmd_index_image(args) -> tuple[dict, dict]:
    from . import decontam

    train = load_token_corpus(args.train)  # streamed into the build
    index = decontam.build_image_index(train, hashed=args.hashed)
    decontam.save_index(index, args.out)
    return {"n": index.n, "hashed": args.hashed}, {"train": args.train}


def cmd_scan_image(args) -> tuple[dict, dict]:
    from . import decontam

    bench = []

    def keep(header):  # the header is checked before the bench is read
        if header.text:
            raise CoreliteError(f"{args.index}: not an image index")
        bench.extend(load_token_corpus(args.bench))
        return decontam.scan_keys(bench, header)

    index = decontam.load_index(args.index, keep)
    try:  # the bench was checked as it loaded, so a fault here is the index's
        report = decontam.scan_image(bench, index)
    except CoreliteError as exc:
        raise CoreliteError(f"{args.index}: {exc}") from None
    _write_json(args.out, report._asdict())
    print(f"image_overlap_pct={report.image_overlap_pct}")
    return {"n": index.n}, {"index": args.index, "bench": args.bench}


def cmd_aggregate(args) -> tuple[dict, dict]:
    from . import scoring

    scores = load_scores(args.scores)
    scales = scoring.load_scales(args.scales) if args.scales else ScaleSpec({})
    weighting = "instance_weighted" if args.weighted else "unweighted"
    try:  # the scales were checked as they loaded, so a fault is the scores'
        result = scoring.aggregate(scores, scales, weighting)
    except CoreliteError as exc:
        raise CoreliteError(f"{args.scores}: {exc}") from None
    per_model = {m: _sig6(v) for m, v in result.per_model.items()}
    _write_json(args.out, {**result._asdict(), "per_model": per_model})
    inputs = {"scores": args.scores}
    if args.scales:
        inputs["scales"] = args.scales
    return {"weighted": args.weighted}, inputs


def cmd_correlate(args) -> tuple[dict, dict]:
    from . import scoring

    full = load_scores(args.full)
    lite = load_scores(args.lite)
    result = scoring.correlate_lite(full, lite, method=args.method)
    per_dataset = {d: _sig6(r) for d, r in result.per_dataset.items()}
    _write_json(args.out, {**result._asdict(), "per_dataset": per_dataset})
    return {"method": args.method}, {"full": args.full, "lite": args.lite}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="corelite",
        description="Lite benchmark selection, contamination scanning, score aggregation",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("select", help="k-center greedy coreset selection")
    p.add_argument("--embeddings", required=True)
    p.add_argument("--ids", required=True)
    size = p.add_mutually_exclusive_group(required=True)
    size.add_argument("--k", type=_positive_int, metavar="K",
                      help="number of centers (must be ≥ 1)")
    size.add_argument("--dataset", help="use the default lite size for this dataset")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--normalize", action=argparse.BooleanOptionalAction, default=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("gap", help="subset gap between full and selected means")
    p.add_argument("--scores", required=True)
    p.add_argument("--selection", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gap)

    p = sub.add_parser("index-text", help="build a text 8-gram index")
    p.add_argument("--train", required=True)
    p.add_argument("--n", type=_positive_int, default=8)
    p.add_argument("--freq-threshold", type=_positive_int, default=10)
    p.add_argument("--hashed", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_index_text)

    p = sub.add_parser("scan-text", help="scan a benchmark for text overlap")
    p.add_argument("--index", required=True)
    p.add_argument("--bench", required=True)
    p.add_argument("--ratio-threshold", type=float, default=0.75)
    p.add_argument("--report", dest="out", metavar="REPORT", required=True)
    p.set_defaults(func=cmd_scan_text)

    p = sub.add_parser("index-image", help="build an image-token 8-gram index")
    p.add_argument("--train", required=True)
    p.add_argument("--hashed", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_index_image)

    p = sub.add_parser("scan-image", help="scan a benchmark for image overlap")
    p.add_argument("--index", required=True)
    p.add_argument("--bench", required=True)
    p.add_argument("--report", dest="out", metavar="REPORT", required=True)
    p.set_defaults(func=cmd_scan_image)

    p = sub.add_parser("aggregate", help="normalize and average scores per model")
    p.add_argument("--scores", required=True)
    p.add_argument("--scales")
    p.add_argument("--weighted", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_aggregate)

    p = sub.add_parser("correlate", help="lite-vs-full per-dataset correlation")
    p.add_argument("--full", required=True)
    p.add_argument("--lite", required=True)
    p.add_argument("--method", choices=("pearson", "spearman"), default="pearson")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_correlate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        params, inputs = args.func(args)
        manifest = {
            "subcommand": args.command,
            "tool_version": __version__,
            "parameters": params,
            "input_digests": {name: _sha256(p) for name, p in sorted(inputs.items())},
        }
        _write_json(f"{args.out}.manifest.json", manifest)
    except (CoreliteError, OSError) as exc:
        print(f"corelite: error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
