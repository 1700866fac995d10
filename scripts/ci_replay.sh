#!/usr/bin/env bash
# Runs the steps of the CI workflow (.github/workflows/tests.yml) on one
# machine, offline, with the Python 3.11+ on PATH as `python3`.
#
# PYTHONPATH=src stands in for `pip install -e ".[test]"`: an offline
# editable install needs setuptools' `bdist_wheel`, which older setuptools
# lacks without the `wheel` package, and pytest and hypothesis must already
# be installed. The console-script step calls the function that
# `[project.scripts] corelite` names in pyproject.toml, with `--version`.
# The workflow's Python-version and numpy matrix is not replayed: every
# step runs once, on this interpreter and its numpy.
#
# Usage: scripts/ci_replay.sh   (from anywhere in a checkout)
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH="$PWD/src${PYTHONPATH:+:$PYTHONPATH}"

echo "== corelite --version (entry point from pyproject.toml)"
python3 - <<'PY'
import importlib, sys, tomllib

with open("pyproject.toml", "rb") as fh:
    target = tomllib.load(fh)["project"]["scripts"]["corelite"]
module, func = target.split(":")
sys.argv = ["corelite", "--version"]
sys.exit(getattr(importlib.import_module(module), func)())
PY

echo "== pytest -m 'not slow'"
python3 -m pytest -q -m "not slow" --continue-on-collection-errors

echo "== perfbench checker tests"
python3 -m pytest -q perfbench/test_checks.py

echo "== benchmark smoke"
bash scripts/bench_smoke.sh

echo "ci_replay: every step passed"
