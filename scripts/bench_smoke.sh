#!/usr/bin/env bash
# Benchmark smoke check: runs each perfbench workload once, for one second,
# and fails unless its outputs are correct, no operation failed and its peak
# RSS is under the workload's bound. run.py exits 0 even when an output check
# fails, so its last line, the result JSON, is checked here.
#
# The bounds: select holds one float64 n x d matrix, so on select-large
# (100k x 512, 390 MiB) its peak RSS stays under 500 MiB, and a second copy
# of the payload beside it would not. The n-gram commands start without
# numpy, load hashlib's libcrypto only to hash the inputs for the manifest,
# after the command's data is freed, stream the training file into the
# build, and save fixed-width tables one bucket of records at a time. A
# scan holds only the index entries its benchmark can reach (its own keys
# and the meaningless ones), not the whole table. So a build peaks at its
# table plus one batch and a scan at far less: audit-hashed at about
# 24 MiB on Python 3.11 and audit-exact at about 28 MiB, each under a
# bound of 32 MiB. A numpy import (+13.6 MiB) still breaks both bounds.
#
# Usage: scripts/bench_smoke.sh   (from anywhere in a checkout)
set -euo pipefail
cd "$(dirname "$0")/.."

for w in select-large lite-suite audit-exact audit-hashed; do
  last=$(python3 perfbench/run.py --workload "$w" --seed 1 --seconds 1 --trace 0 | tail -n 1)
  python3 - "$w" "$last" <<'PY'
import json, sys

workload, last = sys.argv[1:]
r = json.loads(last)
rss = r["metrics"]["peak_rss_mib"]["value"]
bound = {"select-large": 500, "audit-exact": 32, "audit-hashed": 32}.get(workload, float("inf"))
print(f"{workload}: correct={r['correct']} failed={r['failed']} peak_rss_mib={rss} (bound {bound})")
if not (r["correct"] is True and r["failed"] == 0 and rss < bound):
    sys.exit(f"{workload}: {last}")
PY
done
