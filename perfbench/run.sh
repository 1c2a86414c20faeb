#!/usr/bin/env bash
# Build `qas` and the benchmark from source, then run the benchmark with
# the arguments given (the driver appends
# `--workload NAME --seed N --seconds S --trace 0|1`).
#
# Both builds go to one target directory — $CARGO_TARGET_DIR, or
# .bench_build in the checkout — so `qas` ends up next to `perfbench`,
# where the benchmark looks for it, and everything the run writes stays
# under that directory. Build output goes to stderr: the last line of
# stdout is the benchmark's result.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path Cargo.toml --bin qas 1>&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml 1>&2
exec "$CARGO_TARGET_DIR/release/perfbench" "$@"
