"""Run one corelite CLI invocation in-process with spans around each layer call.

    python3 perfbench/traced_cli.py SPANS_JSON INVOCATION_ID <corelite args...>

Wraps the layer entry points that corelite.cli calls (corpus loaders,
coreset, decontam and scoring functions), then calls corelite.cli.main.
Each span records name, start, end, parent and the invocation id. Counts are
read from arguments and results after the root span has closed, inside a
"trace.finalize" span, so they do not inflate any layer's time. Spans stay
in memory and are written once, at exit.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time

import corelite.cli
from corelite import coreset, decontam, scoring


class Tracer:
    def __init__(self, invocation: str):
        self.invocation = invocation
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._deferred: list[tuple[dict, object, tuple, dict, object]] = []

    def span(self, name: str, fn, *args, **kwargs) -> tuple[dict, object]:
        """Call fn inside a new span; returns the span record and fn's result."""
        record = {"id": len(self.spans), "inv": self.invocation, "name": name,
                  "parent": self._stack[-1] if self._stack else None}
        self.spans.append(record)
        self._stack.append(record["id"])
        record["start"] = time.perf_counter()
        try:
            return record, fn(*args, **kwargs)
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, owner, attr: str, name: str, counts=None, rename=None):
        """Replace owner.attr with a spanning wrapper.

        `counts(args, kwargs, result)` returns a dict of counts, evaluated at
        finalize time; `rename(args, result)` picks the span name after the
        call, e.g. to tell a text index from an image index.
        """
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record, result = self.span(name, fn, *args, **kwargs)
            if rename is not None:
                record["name"] = rename(args, result)
            if counts is not None:
                self._deferred.append((record, counts, args, kwargs, result))
            return result

        setattr(owner, attr, wrapper)

    def finalize(self) -> None:
        def run():
            for record, counts, args, kwargs, result in self._deferred:
                record["counts"] = counts(args, kwargs, result)
            self._deferred.clear()

        self.span("trace.finalize", run)


def _kind(index) -> str:
    return "text" if isinstance(index, decontam.TextNGramIndex) else "image"


def _index_counts(args, kwargs, index) -> dict:
    counts = {"distinct_keys": len(index.table), "ngrams": sum(index.table.values())}
    if isinstance(index, decontam.TextNGramIndex):
        counts["meaningless_keys"] = len(index.meaningless)
        counts["meaningless_tokens"] = len(index.meaningless_tokens)
    return counts


def _text_scan_counts(tokenize):
    def counts(args, kwargs, report) -> dict:
        bench, index = args[0], args[1]
        checked = sum(max(0, len(tokenize(d.text)) - index.n + 1) for d in bench)
        matched = sum(i.matched_windows for i in report.per_instance.values())
        return {"windows_checked": checked, "windows_matched": matched}
    return counts


def _image_scan_counts(args, kwargs, report) -> dict:
    bench, index = args[0], args[1]
    matched = sum(i.matched_windows for i in report.per_instance.values())
    return {"windows_checked": len(bench) * (decontam.IMAGE_TOKEN_LEN - index.n + 1),
            "windows_matched": matched}


def install(tracer: Tracer) -> None:
    cli = corelite.cli
    for loader in ("load_embeddings", "load_scores", "load_text_corpus",
                   "load_token_corpus"):
        tracer.wrap(cli, loader, f"corpus.{loader}")
    tokenize = decontam.tokenize_text
    tracer.wrap(decontam, "tokenize_text", "corpus.tokenize_text")
    tracer.wrap(coreset, "k_center_greedy", "coreset.k_center_greedy",
                counts=lambda a, kw, sel: {"n": a[0].n, "d": a[0].d, "k": sel.k})
    tracer.wrap(coreset, "subset_gap", "coreset.subset_gap")
    tracer.wrap(decontam, "build_text_index", "decontam.build_text_index",
                counts=_index_counts)
    tracer.wrap(decontam, "build_image_index", "decontam.build_image_index",
                counts=_index_counts)
    tracer.wrap(decontam, "save_index", "decontam.save_index",
                rename=lambda a, r: f"decontam.save_index_{_kind(a[0])}",
                counts=lambda a, kw, r: {"bytes": os.path.getsize(a[1])})
    tracer.wrap(decontam, "load_index", "decontam.load_index",
                rename=lambda a, r: f"decontam.load_index_{_kind(r)}")
    tracer.wrap(decontam, "scan_text", "decontam.scan_text",
                counts=_text_scan_counts(tokenize))
    tracer.wrap(decontam, "scan_image", "decontam.scan_image",
                counts=_image_scan_counts)
    for fn in ("aggregate", "correlate_lite", "load_scales"):
        tracer.wrap(scoring, fn, f"scoring.{fn}")


def main() -> int:
    spans_path, invocation, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    tracer = Tracer(invocation)
    install(tracer)
    try:
        _, code = tracer.span(f"cli.{argv[0]}", corelite.cli.main, argv)
    finally:
        tracer.finalize()
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
