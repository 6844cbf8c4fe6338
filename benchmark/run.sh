#!/usr/bin/env bash
# Builds the benchmark (release, offline, into $CARGO_TARGET_DIR or
# `target/` at the checkout root) and runs it with the given arguments.
# See README.md beside this file.
set -euo pipefail
cd "$(dirname "$0")/.."
target="${CARGO_TARGET_DIR:-target}"
# the build's own chatter goes to stderr; stdout is the benchmark's alone
cargo build --release --offline --quiet \
    --manifest-path benchmark/Cargo.toml --target-dir "$target" >&2
exec "$target/release/accfg-benchmark" "$@"
