#!/usr/bin/env bash
# Runs `cargo test ARGS... -- FILTER` once per FILTER and fails when a
# filter runs no test.  `cargo test` exits 0 on a filter that matches
# nothing, so a renamed or deleted test would otherwise leave a CI step
# that names it silently testing nothing.
#
#   scripts/test-named.sh [cargo test args...] -- FILTER...
#
# e.g. scripts/test-named.sh --release -p wimnet --test checkpoint -- hostile_schedule
set -euo pipefail

args=()
while [ $# -gt 0 ] && [ "$1" != "--" ]; do
  args+=("$1")
  shift
done
if [ $# -lt 2 ]; then
  echo "usage: $0 [cargo test args...] -- FILTER..." >&2
  exit 2
fi
shift

for filter in "$@"; do
  out=$(cargo test "${args[@]}" -- "$filter" 2>&1) || { printf '%s\n' "$out"; exit 1; }
  printf '%s\n' "$out"
  passed=$(printf '%s\n' "$out" |
    sed -n 's/^test result: ok\. \([0-9][0-9]*\) passed.*/\1/p' |
    awk '{ n += $1 } END { print n + 0 }')
  if [ "$passed" -eq 0 ]; then
    echo "$0: filter \`$filter\` ran no test (cargo test ${args[*]})" >&2
    exit 1
  fi
done
