#!/bin/sh
# check_coverage.sh — enforce the statement-coverage floor on the
# storage and service layers (the fault-tolerance and cluster-tier
# core: regressions there are exactly the ones the chaos tests exist
# to catch). Reads a coverage profile produced by
#
#	go test -coverprofile=coverage.out ./internal/...
#	go test -coverprofile=storage.out -coverpkg=./internal/storage/... ./internal/storage/...
#	tail -n +2 storage.out >> coverage.out
#
# (the storage tests live in internal/storage and reach its core,
# internal/storage/blob, through the core's API, so the second run
# instruments the storage tree from them) and fails if combined
# statement coverage over internal/storage (core included) plus
# internal/service falls below the floor. A block that appears more
# than once — once per run or test binary that instruments it — counts
# once, covered if any of them covered it.
#
# Usage: scripts/check_coverage.sh [coverage.out [floor-pct]]
#   COVER_FLOOR=N  alternative way to set the floor (default 80,
#   a few points under the ~84% measured when the gate was added)
set -eu

prof="${1:-coverage.out}"
floor="${2:-${COVER_FLOOR:-80}}"

[ -f "$prof" ] || { echo "check_coverage.sh: $prof not found (run: go test -coverprofile=$prof ./internal/...)" >&2; exit 1; }

awk -v floor="$floor" '
/^mode:/ { next }
/^repro\/internal\/storage\/blob\/storagetest\// { next }  # test harness, exercised from storage tests
/^repro\/internal\/(storage|service)\// {
    stmts[$1] = $(NF - 1)
    if ($NF > 0) hit[$1] = 1
}
END {
    for (b in stmts) {
        total += stmts[b]
        if (b in hit) covered += stmts[b]
    }
    if (total == 0) {
        print "check_coverage.sh: no internal/storage or internal/service statements in profile" > "/dev/stderr"
        exit 1
    }
    pct = 100 * covered / total
    printf "storage+service statement coverage: %.1f%% (floor %s%%)\n", pct, floor
    if (pct < floor) {
        printf "check_coverage.sh: coverage %.1f%% is below the %s%% floor\n", pct, floor > "/dev/stderr"
        exit 1
    }
}
' "$prof"
