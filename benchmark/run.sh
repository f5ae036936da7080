#!/usr/bin/env bash
# One command for the whole benchmark.
#
#   benchmark/run.sh [--seed N] [--quick] [--out DIR] [--compare FILE]
#       builds flexminer and the harness, runs every workload untraced and
#       then traced, prints every metric and writes DIR/results.json
#       (DIR defaults to benchmark/out).
#
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       one run of one workload, ending in one JSON line (what
#       BENCHMARK.json's command is given).
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
# An absolute target directory, shared by both builds: a relative
# CARGO_TARGET_DIR is relative to where the command was started.
case "${CARGO_TARGET_DIR:-}" in
  "") export CARGO_TARGET_DIR="$root/target" ;;
  /*) ;;
  *) export CARGO_TARGET_DIR="$PWD/$CARGO_TARGET_DIR" ;;
esac
# The out directory and the baseline may be relative to the caller's
# directory too; resolve them before moving to the repository root.
args=()
while [ $# -gt 0 ]; do
  case "$1" in
    --out|--compare)
      [ $# -ge 2 ] || { echo "run.sh: $1 needs a value" >&2; exit 2; }
      case "$2" in /*) args+=("$1" "$2") ;; *) args+=("$1" "$PWD/$2") ;; esac
      shift 2 ;;
    *) args+=("$1"); shift ;;
  esac
done
cd "$root"

# The program under test comes from the repository's own workspace and
# lockfile; the harness is a package of its own. Build output goes to
# stderr so that stdout ends with the result.
cargo build --release --offline --locked -p flexminer --bin flexminer >&2
cargo build --release --offline --locked --manifest-path benchmark/Cargo.toml >&2

mode=suite
for a in "${args[@]}"; do
  [ "$a" = --workload ] && mode=run
done
exec "$CARGO_TARGET_DIR/release/fm-benchmark" "$mode" \
  --bin "$CARGO_TARGET_DIR/release/flexminer" "${args[@]}"
