#!/usr/bin/env bash
# Build the release `hxq` and the benchmark from this checkout, then run
# the benchmark with the given arguments:
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Both builds go to $CARGO_TARGET_DIR (default: target); inputs, child
# outputs and traces go to perfbench/work.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet --manifest-path Cargo.toml -p hedgex --bin hxq >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
bin="$CARGO_TARGET_DIR/release"
exec "$bin/perfbench" --hxq "$bin/hxq" --work perfbench/work "$@"
