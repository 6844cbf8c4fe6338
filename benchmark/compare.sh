#!/usr/bin/env bash
# compare.sh a.json b.json: one row per workload x end-to-end metric,
# `a` the parent (or first run), `b` the change (or second run), judged by
# the benchmark's own bounds. Exits 1 if `b` is worse anywhere.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
a="$(realpath "$1")"
b="$(realpath "$2")"
exec "$here/run.sh" compare "$a" "$b"
