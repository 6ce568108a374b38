#!/bin/sh
# check_inference_workcounts.sh — pins the solver's search order, run as a
# ctest (`inference_workcounts`).
#
#   usage: check_inference_workcounts.sh BENCH_INFERENCE_BINARY GOLDEN_FILE
#
# Prints bench_inference's work-count table (unify steps and branch points
# for four heuristic sets, on the synthetic families and on models A-F)
# without its timing section, and diffs it against GOLDEN_FILE. Any change
# to the order in which the solver visits alternatives moves some count,
# so a pure performance change must leave the table byte-identical.
# Regenerate the golden only for an intended change to the search:
#
#   bench_inference --benchmark_filter=NONE > tests/golden/inference_workcounts.txt
#
# Exits non-zero, with the diff on stderr, when the table differs.

set -u

BENCH=${1:?usage: check_inference_workcounts.sh BENCH_INFERENCE_BINARY GOLDEN_FILE}
GOLDEN=${2:?usage: check_inference_workcounts.sh BENCH_INFERENCE_BINARY GOLDEN_FILE}

TMP=$(mktemp "${TMPDIR:-/tmp}/lss_workcounts.XXXXXX") || exit 2
trap 'rm -f "$TMP"' EXIT

# benchmark_filter=NONE matches no timing benchmark (google-benchmark
# notes that on stderr), so stdout is the table alone.
if ! "$BENCH" --benchmark_filter=NONE >"$TMP" 2>/dev/null; then
  echo "check_inference_workcounts: $BENCH failed" >&2
  exit 1
fi
if ! diff -u "$GOLDEN" "$TMP" >&2; then
  echo "check_inference_workcounts: work counts differ from $GOLDEN" >&2
  exit 1
fi
echo "check_inference_workcounts: OK"
exit 0
