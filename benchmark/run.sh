#!/usr/bin/env bash
# The HOT wall-clock benchmark, one command:
#
#   benchmark/run.sh                     all five workloads, end-to-end then traced
#   benchmark/run.sh --workload NAME     one workload
#   benchmark/run.sh --traced            only the traced (per-layer) pass
#   benchmark/run.sh --selfcheck         every run twice, compared against the bounds
#   benchmark/run.sh --seed S            inputs of another seed (default 1997; 4242 is held out)
#   benchmark/run.sh --workload NAME --seed S --seconds T --trace 0|1
#                                        one run; its result object is the last line of stdout
#
# Builds the harness in release mode, offline, then hands over to it. The
# harness writes benchmark/out/. See benchmark/README.md.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"

# A relative CARGO_TARGET_DIR means relative to where the caller stands.
target="${CARGO_TARGET_DIR:-$root/target}"
case "$target" in /*) ;; *) target="$PWD/$target" ;; esac

# Build output goes to stderr: stdout carries only the measurements.
cargo build --release --offline --quiet \
    --manifest-path "$here/Cargo.toml" --target-dir "$target" >&2

cd "$root"
exec "$target/release/hot-benchmark" --out benchmark/out "$@"
