#!/usr/bin/env bash
# test_timing.sh — run the plain test suite and report where its time
# goes, failing before a package reaches go test's timeout.
#
# Usage (from the repo root):
#
#	scripts/test_timing.sh [packages...]    # default ./...
#
# Runs `go test -json -count=1` once (a cached result has no time), then
# prints each package's elapsed time, slowest first, and the ten slowest
# top-level tests. It exits non-zero
# when the suite fails (printing the failing tests' output) or when a
# package takes more than 70 % of go test's default 600 s timeout,
# 420 s, so a package creeping toward the timeout fails here, naming
# itself, before it fails CI by timing out. Needs jq.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cd "$root"
command -v jq >/dev/null || {
	echo "test_timing: needs jq" >&2
	exit 2
}
limit=420 # seconds: 70 % of the default -timeout 10m

events=$(mktemp)
trap 'rm -f "$events"' EXIT
status=0
go test -json -count=1 "${@:-./...}" >"$events" || status=$?

echo "package time (s), slowest first:"
jq -r 'select(.Test == null and .Elapsed != null and (.Action == "pass" or .Action == "fail" or .Action == "skip"))
	| "\(.Elapsed)\t\(.Action)\t\(.Package)"' "$events" | sort -rn | awk -F'\t' '{ printf "%9.2f  %-4s  %s\n", $1, $2, $3 }'

echo "ten slowest tests (s):"
jq -r 'select(.Test != null and (.Test | contains("/") | not) and (.Action == "pass" or .Action == "fail"))
	| "\(.Elapsed)\t\(.Package).\(.Test)"' "$events" | sort -rn | head -10 | awk -F'\t' '{ printf "%9.2f  %s\n", $1, $2 }'

if [ "$status" -ne 0 ]; then
	echo "test_timing: the suite failed; output of what failed:" >&2
	jq -rj --slurp '
		(map(select(.Action == "fail") | {key: "\(.Package) \(.Test // "")", value: true}) | from_entries) as $failed
		| .[] | select(.Action == "output" and $failed["\(.Package) \(.Test // "")"]) | .Output' "$events" >&2
fi

over=$(jq -r --argjson limit "$limit" 'select(.Test == null and .Elapsed != null and .Elapsed > $limit)
	| "\(.Package) took \(.Elapsed) s"' "$events")
if [ -n "$over" ]; then
	echo "test_timing: past $limit s, 70 % of the 600 s default timeout:" >&2
	echo "$over" >&2
	status=1
fi
exit "$status"
