#!/usr/bin/env bash
# The benchmark's one command: builds the standalone package and runs it.
#
#   bash benchmark/run.sh [--seed S] [--seconds T] [--quick] [--only WORKLOAD]
#   bash benchmark/run.sh --workload NAME --seed S --seconds T --trace 0|1
#   bash benchmark/run.sh --compare A.json B.json
#
# See benchmark/README.md.  Touches nothing outside benchmark/ (and the
# cargo target directory, `benchmark/target` unless CARGO_TARGET_DIR says
# otherwise).
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
case "$target" in
    /*) ;;
    *) target="$PWD/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

# Build output goes to stderr: the last line of stdout is the result.
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2

exec "$target/release/wimnet-benchmark" --dir "$here" --clk-tck "$(getconf CLK_TCK)" "$@"
