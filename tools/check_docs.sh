#!/bin/sh
# check_docs.sh — documentation lint, run as a ctest.
#
# Checks, against the repository root (first argument, default: the
# parent of this script's directory):
#   1. every src/ subdirectory is mentioned in docs/ARCHITECTURE.md, so
#      the contributor map cannot silently go stale when a subsystem is
#      added;
#   2. every intra-repository markdown link in docs/*.md and README.md
#      resolves to an existing file;
#   3. the driver library API reference (docs/API.md) exists and names the
#      invocation/service entry points, and the cache/batch flags appear in
#      both the lssc usage text and the README flag table;
#   4. the daemon protocol doc (docs/DAEMON.md) documents every message
#      type and error code registered in src/driver/DaemonProtocol.h, and
#      every `"type": "X"` it shows is registered; its `stats_result`
#      example names exactly the fields lssd's stats reply emits, so the
#      wire-protocol spec cannot drift from the code in either direction.
#   5. every stats JSON field src/driver/Stats.cpp's Json section builders
#      emit is documented in docs/API.md, and every field its stats tables
#      list is still emitted.
#   6. every `bench_<name>` named in README.md or docs/*.md is a bench
#      target (or a bench ctest entry) in bench/CMakeLists.txt, so the
#      docs cannot point at a deleted bench.
#   7. every artifact format version (`LSSNL N`, `LSSSOL N`) named in
#      README.md or docs/*.md is the one its writer emits, so a format
#      bump cannot leave a doc describing the old layout; and every
#      artifact under fuzz/corpus/ or fuzz/regressions/ opens with the
#      current header, so the fuzz replays keep reaching the record
#      parsers behind it.
#   8. every `--flag` named in README.md or docs/*.md is registered by a
#      tool, bench, example, fuzzer or test binary, so the docs cannot
#      describe a deleted flag.
#   9. the versions the docs state are the code's: docs/API.md's
#      "currently **N**" is StatsSchemaVersion (src/driver/Stats.h),
#      docs/DAEMON.md's is DaemonProtocolVersion
#      (src/driver/DaemonProtocol.h), and so is every `"version": N` in a
#      DAEMON.md example.
#
# Exits non-zero with one line per violation.

set -u

ROOT=${1:-$(dirname "$0")/..}
cd "$ROOT" || exit 2

FAILURES=0
fail() {
  echo "check_docs: $1" >&2
  FAILURES=$((FAILURES + 1))
}

ARCH=docs/ARCHITECTURE.md
[ -f "$ARCH" ] || { fail "missing $ARCH"; exit 1; }

# 1. Every src/ subdirectory appears in the architecture doc as 'src/<name>'.
for Dir in src/*/; do
  Name=$(basename "$Dir")
  if ! grep -q "src/$Name" "$ARCH"; then
    fail "$ARCH does not mention src/$Name"
  fi
done

# 2. Relative markdown links resolve. Matches [text](target) where the
# target is not an absolute URL or an in-page anchor; strips #fragments.
for Doc in README.md docs/*.md; do
  [ -f "$Doc" ] || continue
  DocDir=$(dirname "$Doc")
  # One link target per line.
  grep -o '\[[^]]*\]([^)]*)' "$Doc" | sed 's/.*(\(.*\))/\1/' |
  while IFS= read -r Target; do
    case "$Target" in
    http://*|https://*|mailto:*|\#*) continue ;;
    # Indexing/call syntax inside code spans, e.g. `new instance[n](delay,
    # "delays")`, matches the markdown-link shape; real link targets never
    # contain spaces or quotes.
    *' '*|*'"'*) continue ;;
    esac
    Path=${Target%%#*}
    [ -n "$Path" ] || continue
    if [ ! -e "$DocDir/$Path" ] && [ ! -e "$Path" ]; then
      echo "check_docs: $Doc links to missing '$Target'" >&2
      # The pipeline runs in a subshell; signal through a marker file.
      touch "$ROOT/.check_docs_failed"
    fi
  done
done
if [ -e "$ROOT/.check_docs_failed" ]; then
  rm -f "$ROOT/.check_docs_failed"
  FAILURES=$((FAILURES + 1))
fi

# 3. The library API surface stays documented: docs/API.md exists and the
# driver entry points it contracts for are named there; the cache/batch
# flags are in both the lssc usage text and the README flag table.
API=docs/API.md
if [ ! -f "$API" ]; then
  fail "missing $API (CompilerInvocation/CompileService reference)"
else
  for Name in CompilerInvocation CompileService elabKey solveKey; do
    grep -q "$Name" "$API" || fail "$API does not document $Name"
  done
fi
for Flag in cache-dir no-cache batch daemon deadline-ms no-daemon-fallback \
            sim-engine fault-inject; do
  grep -q -- "--$Flag" tools/lssc.cpp ||
    fail "lssc usage text does not document --$Flag"
  grep -q -- "--$Flag" README.md ||
    fail "README.md flag table does not document --$Flag"
done

# 4. The daemon wire-protocol doc tracks the code, in both directions:
#  - every message type in LSSD_MESSAGE_TYPES and every error code in
#    LSSD_ERROR_CODES (src/driver/DaemonProtocol.h) appears, backtick-
#    quoted, in docs/DAEMON.md, and every `"type": "X"` the doc shows is
#    a registered message type;
#  - the doc's `stats_result` example names exactly the fields
#    DaemonServer::buildStats emits (its own `.set("name", ...)` calls plus
#    the `cache` object's, from cacheCountersJson in src/driver/Stats.cpp).
# Adding a wire name or stats field without documenting it, or leaving a
# removed one in the doc, fails here.
PROTO=src/driver/DaemonProtocol.h
DAEMON=docs/DAEMON.md
STATS_SRC=src/driver/Stats.cpp
if [ ! -f "$DAEMON" ]; then
  fail "missing $DAEMON (lssd wire-protocol spec)"
else
  # The registry is an X-macro: one `X(Ident, "wire_name")` per line,
  # backslash-continued. Pull the quoted wire names out of its extent.
  registry() {
    sed -n "/#define $1(X)/,/[^\\\\]\$/p" "$PROTO" |
    grep -o '"[a-z_][a-z_]*"' | tr -d '"'
  }
  for Macro in LSSD_MESSAGE_TYPES LSSD_ERROR_CODES; do
    for Name in $(registry "$Macro"); do
      grep -q "\`$Name\`" "$DAEMON" ||
        fail "$DAEMON does not document $Macro entry '$Name'"
    done
  done
  TYPES=" $(registry LSSD_MESSAGE_TYPES | tr '\n' ' ') "
  for Name in $(grep -oE '"type": *"[a-z_]+"' "$DAEMON" |
                sed 's/.*"\([a-z_]*\)"$/\1/' | sort -u); do
    case "$TYPES" in
    *" $Name "*) ;;
    *) fail "$DAEMON shows message type '$Name', which $PROTO does not register" ;;
    esac
  done
  EMITTED=$({ sed -n '/^Json DaemonServer::buildStats() const {/,/^}/p' \
                src/driver/DaemonServer.cpp
              sed -n '/^Json liberty::driver::cacheCountersJson(/,/^}/p' \
                "$STATS_SRC"; } |
            grep -o '\.set("[a-z_][a-z0-9_]*"' | sed 's/^\.set("//; s/"$//' |
            sort -u)
  EXAMPLE=$(awk '/^### `stats` → `stats_result`/ { In = 1; next }
                 In && /^```json/ { Block = 1; next }
                 Block && /^```/ { exit }
                 Block' "$DAEMON" |
            grep -oE '"[a-z_][a-z0-9_]*":' | tr -d '":' | sort -u)
  [ -n "$EMITTED" ] || fail "cannot find the fields DaemonServer::buildStats emits"
  for Field in $EMITTED; do
    echo "$EXAMPLE" | grep -qx "$Field" ||
      fail "$DAEMON's stats_result example lacks emitted field '$Field'"
  done
  for Field in $EXAMPLE; do
    echo "$EMITTED" | grep -qx "$Field" ||
      fail "$DAEMON's stats_result example names '$Field', which lssd does not emit"
  done
fi

# 5. The stats JSON schema stays documented, in both directions: every
# field name src/driver/Stats.cpp emits (the section builders name each
# field as the first argument of a `.set("name", ...)` call on a Json
# object) must appear, backtick-quoted, in docs/API.md; and every field
# named in the first column of a table in API.md's "The stats JSON
# schema" section must still be emitted. Adding a stats counter without
# documenting it, or removing one without updating the tables, fails
# here; the schema is versioned via `schema_version` (driver/Stats.h).
STATS=src/driver/Stats.cpp
if [ -f "$STATS" ] && [ -f "$API" ]; then
  grep -o '\.set("[a-z_][a-z0-9_]*"' "$STATS" | sed 's/^\.set("//; s/"$//' |
  sort -u |
  while IFS= read -r Field; do
    if ! grep -q "\`$Field\`" "$API"; then
      echo "check_docs: $API does not document stats field '$Field'" >&2
      touch "$ROOT/.check_docs_failed"
    fi
  done
  awk '/^## The stats JSON schema/ { In = 1; next } /^## / { In = 0 }
       In && /^\| `/' "$API" |
  cut -d'|' -f2 | grep -o '`[a-z_][a-z0-9_]*`' | tr -d '`' | sort -u |
  while IFS= read -r Field; do
    if ! grep -qF ".set(\"$Field\"" "$STATS"; then
      echo "check_docs: $API lists stats field '$Field' that $STATS does not emit" >&2
      touch "$ROOT/.check_docs_failed"
    fi
  done
  if [ -e "$ROOT/.check_docs_failed" ]; then
    rm -f "$ROOT/.check_docs_failed"
    FAILURES=$((FAILURES + 1))
  fi
fi

# 6. Benches named in the docs exist: every bench_<name> word in README.md
# or docs/*.md must be a liberty_add_bench target or an add_test name in
# bench/CMakeLists.txt.
BENCH_CMAKE=bench/CMakeLists.txt
BENCH_NAMES=$(grep -oE '(liberty_add_bench\(|NAME )bench_[a-z0-9_]+' \
  "$BENCH_CMAKE" | sed 's/^.*[( ]//')
for Name in $(cat README.md docs/*.md |
              grep -oE '(^|[^A-Za-z0-9_])bench_[a-z0-9_]+' |
              sed 's/^[^b]*//' | sort -u); do
  if ! echo "$BENCH_NAMES" | grep -qx "$Name"; then
    fail "docs name '$Name', which is not a bench in $BENCH_CMAKE"
  fi
done

# 7. Artifact versions in the docs and the fuzz inputs are the ones the
# writers emit. Each writer source must name exactly one version of its
# format; the only other version a doc may name is the quoted example of
# a rejected older entry in API.md ("unsupported format 'LSSNL 1' ...").
for Pair in LSSNL:src/netlist/Serializer.cpp LSSSOL:src/infer/Solution.cpp; do
  Magic=${Pair%%:*}
  Writer=${Pair#*:}
  Emitted=$(grep -oE "\"$Magic [0-9]+" "$Writer" | sed "s/^\"$Magic //" |
            sort -u)
  case "$Emitted" in
  ''|*[!0-9]*)
    fail "$Writer does not name exactly one $Magic version ('$Emitted')"
    continue ;;
  esac
  eval "CURRENT_$Magic=\$Emitted"
  for Doc in README.md docs/*.md; do
    [ -f "$Doc" ] || continue
    if [ "$Doc" = docs/API.md ]; then
      Text=$(sed "s/unsupported format '$Magic [0-9]*'//g" "$Doc")
    else
      Text=$(cat "$Doc")
    fi
    for V in $(echo "$Text" | grep -oE "$Magic [0-9]+" | sed "s/^$Magic //" |
               sort -u); do
      [ "$V" = "$Emitted" ] ||
        fail "$Doc names $Magic $V, but $Writer writes $Magic $Emitted"
    done
  done
done

# An artifact header is "LSS<KIND> <N>" alone on the first line; every one
# in the fuzz inputs must be the current header of a format with a writer.
for File in fuzz/corpus/* fuzz/regressions/*; do
  [ -f "$File" ] || continue
  Header=$(head -n 1 "$File")
  echo "$Header" | grep -qE '^LSS[A-Z]+ [0-9]+$' || continue
  Magic=${Header%% *}
  case "$Magic" in
  LSSNL|LSSSOL) eval "Want=\"$Magic \${CURRENT_$Magic:-}\"" ;;
  *) Want="" ;;
  esac
  [ "$Header" = "$Want" ] ||
    fail "$File opens with '$Header', but the current header is '${Want:-none: no $Magic writer}'"
done

# 8. Flags named in the docs exist. A flag is registered where its name
# is a quoted string literal on its own ("--name", "--name=" or '--name'):
# the FlagParser tables of lssc and lssd (their shared flags live in
# src/driver/FlagParser.cpp), the benches' and fuzzers' argv loops,
# perfbench's argparse, and the test binaries' --regen-golden. The
# exceptions are the build system's own flags and the generic
# `--flag=VALUE` of the FlagParser description.
FLAG_SOURCES="tools bench examples perfbench fuzz tests src/driver/FlagParser.cpp"
EXTERNAL_FLAGS=" build preset target test-dir flag "
for Flag in $(cat README.md docs/*.md |
              grep -oE -- '(^|[^A-Za-z0-9_-])--[a-z][a-z0-9-]*' |
              sed 's/^[^-]*--//' | sort -u); do
  case "$EXTERNAL_FLAGS" in *" $Flag "*) continue ;; esac
  grep -rqE -- "[\"']--$Flag[\"'=]" $FLAG_SOURCES ||
    fail "docs name --$Flag, which no tool, bench, fuzzer or test registers"
done

# 9. Stated versions match the constants. "currently **N**" may wrap
# across a line break, so each doc is read as one line.
version_constant() {
  sed -n "s/^constexpr uint32_t $1 = \([0-9][0-9]*\);.*/\1/p" "$2"
}
stated_current() {
  tr '\n' ' ' < "$1" | grep -oE 'currently +\*\*[0-9]+\*\*' |
  grep -oE '[0-9]+'
}
for Triple in "$API:StatsSchemaVersion:src/driver/Stats.h" \
              "$DAEMON:DaemonProtocolVersion:$PROTO"; do
  Doc=${Triple%%:*}
  Rest=${Triple#*:}
  Name=${Rest%%:*}
  Header=${Rest#*:}
  [ -f "$Doc" ] || continue
  Want=$(version_constant "$Name" "$Header")
  if [ -z "$Want" ]; then
    fail "cannot find $Name in $Header"
    continue
  fi
  Stated=$(stated_current "$Doc")
  [ -n "$Stated" ] || fail "$Doc does not state $Name as 'currently **N**'"
  for V in $Stated; do
    [ "$V" = "$Want" ] ||
      fail "$Doc says $Name is currently $V, but $Header has $Want"
  done
  if [ "$Name" = DaemonProtocolVersion ]; then
    for V in $(grep -oE '"version": *[0-9]+' "$Doc" | grep -oE '[0-9]+$'); do
      [ "$V" = "$Want" ] ||
        fail "$Doc shows \"version\": $V in an example, but $Header has $Want"
    done
  fi
done

if [ "$FAILURES" -ne 0 ]; then
  echo "check_docs: FAILED ($FAILURES problem(s))" >&2
  exit 1
fi
echo "check_docs: OK"
exit 0
