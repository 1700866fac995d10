"""End-to-end and per-layer benchmark for corelite.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a corelite checkout. The benchmark generates the
workload's inputs from the seed (in a child process), then repeats the
workload's sequence of `corelite` CLI processes until S seconds have passed:
a closed loop with one client, one CLI process at a time. It checks every
output against its own recomputation and prints human-readable lines, then
one JSON line: end-to-end metrics with --trace 0, per-layer metrics with
--trace 1. The traced run alternates untraced repetitions with repetitions
in which every CLI process runs under perfbench/traced_cli.py; end-to-end
numbers always come from untraced repetitions.

Peak RSS is read per CLI process from wait4. Linux carries the parent's RSS
high-water mark into a child's ru_maxrss, so this process never loads the
generated data and never imports numpy; generation, checks and probes all
run in child processes.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import common

HERE = Path(__file__).resolve().parent
SETUP_PROBES_AROUND = 2  # --version start-ups before and after the loop
RSS_SELF_CHECK_MIB = 100.0
RUN_DEADLINE_S = 170.0  # children still running then are killed

# Self time of each wrapped function, reported as a share of the traced wall
# time: most functions run on only some workloads, and a share of 0 says so
# without reporting a time that never varies.
SHARE_SPANS = (
    "corpus.load_embeddings", "corpus.load_scores", "corpus.load_text_corpus",
    "corpus.load_token_corpus", "corpus.tokenize_text",
    "coreset.k_center_greedy", "coreset.subset_gap",
    "decontam.build_text_index", "decontam.build_image_index",
    "decontam.save_index_text", "decontam.save_index_image",
    "decontam.load_index_text", "decontam.load_index_image",
    "decontam.scan_text", "decontam.scan_image",
    "scoring.aggregate", "scoring.correlate_lite", "scoring.load_scales",
    "cli.select", "cli.gap", "cli.index-text", "cli.index-image",
    "cli.scan-text", "cli.scan-image", "cli.aggregate", "cli.correlate",
)
LAYER_UNITS = {
    "traced.wall_s": "s", "cli.startup_s": "s", "cli.self_s": "s",
    "corpus.self_s": "s", "trace.overhead_frac": "frac",
    "trace.accounted_frac": "frac",
    **{f"{name}.share": "frac" for name in SHARE_SPANS},
    "coreset.gemv_gflop": "GFLOP", "coreset.gemv_gb_computed": "GB",
    "coreset.gemv_gbps": "GB/s", "coreset.gemv_bw_frac": "frac",
    "coreset.steps_per_s": "1/s", "coreset.greedy_auto_speedup": "x",
    "decontam.text_ngrams_per_s": "1/s", "decontam.image_windows_per_s": "1/s",
    "decontam.scan_windows_per_s": "1/s", "decontam.hash_text_ngrams_per_s": "1/s",
    "decontam.text_index_bytes": "B", "decontam.image_index_bytes": "B",
    "decontam.text_distinct_keys": "count", "decontam.image_distinct_keys": "count",
    "decontam.meaningless_keys": "count", "decontam.meaningless_tokens": "count",
    "decontam.text_windows_checked": "count", "decontam.text_windows_matched": "count",
    "decontam.image_windows_checked": "count",
    "decontam.image_windows_matched": "count", "decontam.match_frac": "frac",
    "machine.bandwidth_gbps": "GB/s",
}


@dataclass(frozen=True)
class Child:
    """One finished child process: wall time, own peak RSS, exit code, output."""

    wall: float
    rss_mib: float
    code: int
    out: str
    err: str

    @property
    def ok(self) -> bool:
        return self.code == 0 and "Traceback (most recent call last)" not in self.err


class Runner:
    def __init__(self, root: Path, workdir: Path, deadline: float):
        self.workdir = workdir
        self.deadline = deadline
        self.env = dict(os.environ)
        src = str(root / "src")
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src + (os.pathsep + old if old else "")
        self._logs = workdir / ".logs"
        self._logs.mkdir(parents=True, exist_ok=True)

    def run(self, argv: list[str]) -> Child:
        """Start argv, wait for it with wait4, kill it if it outlives the run."""
        out_path, err_path = self._logs / "stdout", self._logs / "stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.workdir, env=self.env,
                                    stdin=subprocess.DEVNULL, stdout=out, stderr=err)
            timer = threading.Timer(max(0.0, self.deadline - time.monotonic()), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Child(wall, usage.ru_maxrss / 1024.0, proc.returncode,
                     out_path.read_text(errors="replace"),
                     err_path.read_text(errors="replace"))

    def run_json(self, argv: list[str], problems: list[str]) -> dict | None:
        """A probe's JSON result; None, with the reason in problems, if it failed."""
        child = self.run(argv)
        if not child.ok:
            problems.append(f"{Path(argv[1]).name} {' '.join(argv[2:3])} failed: "
                            f"{child.err.strip()[-300:]}")
            return None
        return json.loads(child.out.strip().splitlines()[-1])

    def cli(self, args: list[str], spans: Path | None = None, inv: str = "") -> Child:
        if spans is None:
            return self.run([sys.executable, "-m", "corelite.cli", *args])
        return self.run([sys.executable, str(HERE / "traced_cli.py"), str(spans), inv, *args])


def run_rep(runner: Runner, plan: dict, rep: int, traced: bool) -> dict:
    """One pass over the workload's CLI sequence."""
    ops, spans = [], []
    t0 = time.perf_counter()
    for n, op in enumerate(plan["ops"]):
        span_file = runner.workdir / ".logs" / "spans.json" if traced else None
        child = runner.cli(op["argv"], span_file, f"{rep}.{n}")
        ops.append({"id": op["id"], "stage": op["stage"], "wall": child.wall,
                    "rss_mib": child.rss_mib, "ok": child.ok,
                    "error": "" if child.ok else child.err.strip()[-300:]})
        if traced and span_file.exists():
            with open(span_file, encoding="utf-8") as fh:
                spans += json.load(fh)
            span_file.unlink()
    wall = time.perf_counter() - t0
    digests = {}
    for op in plan["ops"]:
        for f in op["outputs"]:
            path = runner.workdir / f
            digests[f] = common.sha256_file(path) if path.exists() else None
    return {"traced": traced, "wall": wall, "ops": ops, "spans": spans,
            "digests": digests}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def end_to_end(reps: list[dict]) -> dict[str, list[float]]:
    """Per-repetition wall time, peak RSS and time of each stage that runs."""
    series = {"wall_s": [r["wall"] for r in reps],
              "peak_rss_mib": [max(o["rss_mib"] for o in r["ops"]) for r in reps]}
    for stage in dict.fromkeys(o["stage"] for o in reps[0]["ops"]):
        series[f"{stage}_s"] = [
            sum(o["wall"] for o in r["ops"] if o["stage"] == stage) for r in reps]
    return series


def layer_metrics(rep: dict, facts: dict, untraced_wall: float) -> tuple[dict, dict]:
    """Per-layer metrics of one traced repetition, and self seconds per span name."""
    spans = rep["spans"]
    children: dict[tuple[str, int], float] = {}
    for s in spans:
        if s["parent"] is not None:
            key = (s["inv"], s["parent"])
            children[key] = children.get(key, 0.0) + s["end"] - s["start"]
    self_time: dict[str, float] = {}
    total: dict[str, float] = {}
    counts: dict[str, dict[str, float]] = {}
    roots = 0.0
    for s in spans:
        dur = s["end"] - s["start"]
        self_time[s["name"]] = (self_time.get(s["name"], 0.0) + dur
                                - children.get((s["inv"], s["id"]), 0.0))
        total[s["name"]] = total.get(s["name"], 0.0) + dur
        agg = counts.setdefault(s["name"], {})
        for key, value in s.get("counts", {}).items():
            agg[key] = agg.get(key, 0) + value
        if s["parent"] is None:
            roots += dur
    processes = sum(o["wall"] for o in rep["ops"])
    wall = rep["wall"]

    def c(name: str, key: str) -> float:
        return counts.get(name, {}).get(key, 0)

    def rate(work: float, seconds: float) -> float:
        return work / seconds if seconds > 0 else 0.0

    # Start-up is each traced process's wall time outside its spans; what the
    # spans and start-up cover, less the tracer's own finalize span, is the
    # part of the traced run that accounts for the untraced wall time.
    m = {"traced.wall_s": wall, "cli.startup_s": processes - roots,
         "trace.overhead_frac": wall / untraced_wall - 1.0,
         "trace.accounted_frac":
             (processes - total.get("trace.finalize", 0.0)) / untraced_wall,
         "cli.self_s": sum(v for k, v in self_time.items() if k.startswith("cli.")),
         "corpus.self_s": sum(v for k, v in self_time.items() if k.startswith("corpus."))}
    for name in SHARE_SPANS:
        m[f"{name}.share"] = self_time.get(name, 0.0) / wall
    greedy = "coreset.k_center_greedy"
    row_steps = sum(s["counts"]["n"] * s["counts"]["d"] * s["counts"]["k"]
                    for s in spans if s["name"] == greedy and "counts" in s)
    m["coreset.gemv_gflop"] = 2 * row_steps / 1e9
    m["coreset.gemv_gb_computed"] = 8 * row_steps / 1e9
    m["coreset.gemv_gbps"] = rate(m["coreset.gemv_gb_computed"], total.get(greedy, 0.0))
    m["coreset.gemv_bw_frac"] = rate(m["coreset.gemv_gbps"], facts.get("bandwidth_gbps", 0))
    m["coreset.steps_per_s"] = rate(c(greedy, "k"), total.get(greedy, 0.0))
    m["decontam.text_ngrams_per_s"] = rate(c("decontam.build_text_index", "ngrams"),
                                           total.get("decontam.build_text_index", 0.0))
    m["decontam.image_windows_per_s"] = rate(c("decontam.build_image_index", "ngrams"),
                                             total.get("decontam.build_image_index", 0.0))
    checked = {kind: c(f"decontam.scan_{kind}", "windows_checked") for kind in ("text", "image")}
    matched = {kind: c(f"decontam.scan_{kind}", "windows_matched") for kind in ("text", "image")}
    m["decontam.scan_windows_per_s"] = rate(
        sum(checked.values()),
        total.get("decontam.scan_text", 0.0) + total.get("decontam.scan_image", 0.0))
    for kind in ("text", "image"):
        m[f"decontam.{kind}_index_bytes"] = c(f"decontam.save_index_{kind}", "bytes")
        m[f"decontam.{kind}_distinct_keys"] = c(f"decontam.build_{kind}_index", "distinct_keys")
        m[f"decontam.{kind}_windows_checked"] = checked[kind]
        m[f"decontam.{kind}_windows_matched"] = matched[kind]
    m["decontam.meaningless_keys"] = c("decontam.build_text_index", "meaningless_keys")
    m["decontam.meaningless_tokens"] = c("decontam.build_text_index", "meaningless_tokens")
    m["decontam.match_frac"] = rate(sum(matched.values()), sum(checked.values()))
    return m, self_time


def tally(reps: list[dict], plan: dict,
          check_errors: dict[str, list[str]]) -> tuple[int, int, list[str]]:
    """Attempted and failed CLI operations, and why each failure failed.

    An operation fails if it exits non-zero, prints a traceback, fails an
    output check, or writes outputs whose SHA-256 differs from the first
    repetition's.
    """
    first = reps[0]["digests"]
    attempted, failed, reasons = 0, 0, []
    for n, rep in enumerate(reps):
        for op, planned in zip(rep["ops"], plan["ops"]):
            attempted += 1
            why = op["error"] if not op["ok"] else ""
            if not why and op["id"] in check_errors:
                why = "; ".join(check_errors[op["id"]])
            if not why and any(rep["digests"][f] != first[f] for f in planned["outputs"]):
                why = "output differs from repetition 0"
            if why:
                failed += 1
                reasons.append(f"rep {n} {op['id']}: {why}")
    return attempted, failed, reasons


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=common.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "corelite" / "cli.py").is_file():
        print(f"perfbench: no corelite source under {root}/src; run from a checkout's root",
              file=sys.stderr)
        return 2
    started = time.monotonic()
    workdir = root / ".perfbench" / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        runner = Runner(root, workdir, started + RUN_DEADLINE_S)
        return measure(args, runner, started)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run's directory is still there


def measure(args, runner: Runner, started: float) -> int:
    workdir = runner.workdir
    t0 = time.perf_counter()
    gen = runner.run([sys.executable, str(HERE / "gen.py"), args.workload,
                      str(args.seed), str(workdir)])
    if not gen.ok:
        print(f"perfbench: input generation failed: {gen.err.strip()[-400:]}", file=sys.stderr)
        return 1
    gen_s = time.perf_counter() - t0
    with open(workdir / "plan.json", encoding="utf-8") as fh:
        plan = json.load(fh)

    # Set-up: interpreter start plus import, which every invocation pays.
    # The machine's speed drifts over seconds, so the start-ups are spread
    # over the run: before the loop, after every repetition and after it.
    version = [runner.cli(["--version"]) for _ in range(SETUP_PROBES_AROUND)]
    reps: list[dict] = []
    window = time.perf_counter()
    while not reps or time.perf_counter() - window < args.seconds:
        reps.append(run_rep(runner, plan, len(reps), traced=False))
        if args.trace:
            reps.append(run_rep(runner, plan, len(reps), traced=True))
        version.append(runner.cli(["--version"]))
    version += [runner.cli(["--version"]) for _ in range(SETUP_PROBES_AROUND)]
    setup_s = statistics.median(v.wall for v in version)
    version_rss = max(v.rss_mib for v in version)
    rss_honest = version_rss < RSS_SELF_CHECK_MIB and all(v.ok for v in version)

    # After the timed repetitions: the probe allocates four times L3.
    problems: list[str] = []
    probe = [sys.executable, str(HERE / "probe.py")]
    facts = runner.run_json([*probe, "facts"], problems) or {}
    greedy = hashed = None
    if args.trace and args.workload == "select-large":
        c = plan["ops"][0]["check"]
        greedy = runner.run_json([*probe, "greedy-auto", c["emb"], c["ids"], str(c["k"]),
                                  str(c["seed"])], problems)
    if args.trace and args.workload.startswith("audit"):
        hashed = runner.run_json([*probe, "hash-text", "train.jsonl"], problems)

    check = runner.run([sys.executable, str(HERE / "check.py"), str(workdir)])
    check_errors = (json.loads(check.out) if check.ok
                    else {op["id"]: [f"checker failed: {check.err.strip()[-300:]}"]
                          for op in plan["ops"]})
    attempted, failed, reasons = tally(reps, plan, check_errors)
    attempted += len(version)
    failed += sum(not v.ok for v in version)
    correct = failed == 0 and rss_honest and not problems

    untraced = [r for r in reps if not r["traced"]]
    series = end_to_end(untraced)
    say = print
    say(f"workload {args.workload} seed {args.seed}: {len(untraced)} untraced repetitions of "
        f"{len(plan['ops'])} CLI processes, closed loop, one process at a time")
    say(f"inputs generated in {gen_s:.2f} s")
    say(f"machine facts {json.dumps(facts, sort_keys=True)}")
    for name, values in series.items():
        q1, q2, q3 = quartiles(values)
        unit = "MiB" if name == "peak_rss_mib" else "s"
        say(f"  {name:14s} {q2:10.4f} {unit:3s} median, quartiles {q1:.4f}..{q3:.4f}, "
            f"n={len(values)}: " + " ".join(f"{v:.4f}" for v in values))
    say(f"  {'setup_s':14s} {setup_s:10.4f} s   median of {len(version)} `corelite --version`")
    say(f"  {'failed_frac':14s} {failed / attempted:10.4f}     {failed} of {attempted} "
        "CLI operations failed")
    say(f"  --version peak RSS {version_rss:.1f} MiB (self-check: < {RSS_SELF_CHECK_MIB:.0f} MiB"
        f" {'passed' if rss_honest else 'FAILED'})")
    for reason in reasons[:10] + problems:
        say(f"  failure: {reason}")
    say(f"digests {json.dumps(reps[0]['digests'], sort_keys=True)}")

    if not args.trace:
        metrics = {"wall_s": (statistics.median(series["wall_s"]), "s"),
                   "peak_rss_mib": (statistics.median(series["peak_rss_mib"]), "MiB"),
                   "setup_s": (setup_s, "s")}
    else:
        untraced_wall = statistics.median(series["wall_s"])
        layers = [layer_metrics(r, facts, untraced_wall) for r in reps if r["traced"]]
        metrics = {name: (statistics.median(lm[name] for lm, _ in layers), LAYER_UNITS[name])
                   for name in layers[0][0]}
        metrics["coreset.greedy_auto_speedup"] = (
            greedy["workers1_s"] / greedy["auto_s"] if greedy else 0.0, "x")
        metrics["decontam.hash_text_ngrams_per_s"] = (
            hashed["windows"] / hashed["seconds"] if hashed else 0.0, "1/s")
        metrics["machine.bandwidth_gbps"] = (facts.get("bandwidth_gbps", 0.0), "GB/s")
        names = sorted({name for _, self_s in layers for name in self_s})
        say(f"traced: {len(layers)} traced repetitions; median self time per span (s): "
            + ", ".join(f"{name}={statistics.median(s.get(name, 0.0) for _, s in layers):.4f}"
                        for name in names))
        if greedy:
            say(f"greedy probe: workers=1 {greedy['workers1_s']:.3f} s, "
                f"workers={greedy['workers_auto']} {greedy['auto_s']:.3f} s")
        if hashed:
            say(f"hash probe: {hashed['windows']} windows in {hashed['seconds']:.3f} s")
        for name in LAYER_UNITS:
            value, unit = metrics[name]
            say(f"  {name:40s} {value:14.6g} {unit}")
    say(f"run took {time.monotonic() - started:.1f} s")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
