#!/bin/sh
# check_cache_stability.sh — end-to-end cache-transparency check, run as a
# ctest (`cache_stability`).
#
#   usage: check_cache_stability.sh LSSC_BINARY [REPO_ROOT]
#
# Runs the same lssc invocations twice in one cache directory and asserts
# the cache is observably transparent:
#   1. a successful model (uarch + model A, 50 simulated cycles,
#      --print-netlist) produces byte-identical stdout and the same exit
#      code cold and warm — and identical to a --no-cache run;
#   2. the warm run really was served from the cache (stats JSON reports
#      elab_from_cache/solution_from_cache true and zero misses);
#   3. the compiled engine (--sim-engine compiled) is just as transparent:
#      cold and warm stdout are byte-identical;
#   4. a failing compile diagnoses identically on both runs (failures are
#      never cached, so the second run must re-diagnose, not replay).
#
# Exits non-zero with one line per violation.

set -u

LSSC=${1:?usage: check_cache_stability.sh LSSC_BINARY [REPO_ROOT]}
ROOT=${2:-$(dirname "$0")/..}
cd "$ROOT" || exit 2

TMP=$(mktemp -d "${TMPDIR:-/tmp}/lss_cache_stab.XXXXXX") || exit 2
trap 'rm -rf "$TMP"' EXIT

FAILURES=0
fail() {
  echo "check_cache_stability: $1" >&2
  FAILURES=$((FAILURES + 1))
}

MODEL="models/uarch.lss models/a.lss"
FLAGS="--run 50 --print-netlist --jobs 2"

# --- 1. Success path: no-cache vs. cold vs. warm. -----------------------
# shellcheck disable=SC2086  # word-splitting of MODEL/FLAGS is intended
"$LSSC" $FLAGS $MODEL >"$TMP/out0" 2>"$TMP/err0"
RC0=$?
"$LSSC" $FLAGS --cache-dir "$TMP/cache" --stats-json "$TMP/r1.json" \
  $MODEL >"$TMP/out1" 2>"$TMP/err1"
RC1=$?
"$LSSC" $FLAGS --cache-dir "$TMP/cache" --stats-json "$TMP/r2.json" \
  $MODEL >"$TMP/out2" 2>"$TMP/err2"
RC2=$?

[ "$RC0" -eq 0 ] || fail "baseline run failed (exit $RC0)"
[ "$RC1" -eq "$RC0" ] || fail "cold cached run exit $RC1 != baseline $RC0"
[ "$RC2" -eq "$RC0" ] || fail "warm cached run exit $RC2 != baseline $RC0"
cmp -s "$TMP/out0" "$TMP/out1" || fail "cold cached stdout differs from --no-cache stdout"
cmp -s "$TMP/out1" "$TMP/out2" || fail "warm stdout differs from cold stdout"

# --- 2. The warm run must actually hit. ---------------------------------
grep -q '"elab_from_cache": true' "$TMP/r2.json" ||
  fail "warm run did not reload the elaborated netlist from the cache"
grep -q '"solution_from_cache": true' "$TMP/r2.json" ||
  fail "warm run did not reload the inference solution from the cache"
grep -q '"misses": 0' "$TMP/r2.json" ||
  fail "warm run reported cache misses"
grep -q '"elab_from_cache": false' "$TMP/r1.json" ||
  fail "cold run unexpectedly hit the cache"

# --- 3. Compiled engine: a warm run simulates identically. --------------
# A fresh cache dir so the first run is genuinely cold.
# shellcheck disable=SC2086
"$LSSC" $FLAGS --sim-engine compiled --cache-dir "$TMP/kcache" \
  $MODEL >"$TMP/kout1" 2>"$TMP/kerr1"
KRC1=$?
# shellcheck disable=SC2086
"$LSSC" $FLAGS --sim-engine compiled --cache-dir "$TMP/kcache" \
  $MODEL >"$TMP/kout2" 2>"$TMP/kerr2"
KRC2=$?
[ "$KRC1" -eq 0 ] || fail "cold compiled-engine run failed (exit $KRC1)"
[ "$KRC2" -eq 0 ] || fail "warm compiled-engine run failed (exit $KRC2)"
cmp -s "$TMP/kout1" "$TMP/kout2" ||
  fail "compiled-engine warm stdout differs from cold stdout"

# --- 4. Failing compiles re-diagnose identically (and are not cached). --
cat >"$TMP/bad.lss" <<'EOF'
instance g:counter_source;
instance s:sink;
g.out -> s.nosuch;
EOF
"$LSSC" --cache-dir "$TMP/cache" "$TMP/bad.lss" >"$TMP/bout1" 2>"$TMP/berr1"
BRC1=$?
"$LSSC" --cache-dir "$TMP/cache" "$TMP/bad.lss" >"$TMP/bout2" 2>"$TMP/berr2"
BRC2=$?
[ "$BRC1" -ne 0 ] || fail "failing model unexpectedly compiled"
[ "$BRC1" -eq "$BRC2" ] || fail "failing model exit codes differ across runs ($BRC1 vs $BRC2)"
cmp -s "$TMP/berr1" "$TMP/berr2" || fail "failing model diagnostics differ across runs"

if [ "$FAILURES" -ne 0 ]; then
  echo "check_cache_stability: FAILED ($FAILURES problem(s))" >&2
  exit 1
fi
echo "check_cache_stability: OK"
exit 0
