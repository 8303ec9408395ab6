#!/usr/bin/env bash
# bench_trajectory.sh — record and print the committed benchmark
# trajectory: one BENCH_<pr>.json per change, at the repo root.
#
# Usage (from the repo root):
#
#	scripts/bench_trajectory.sh <pr>     # measure HEAD, write BENCH_<pr>.json
#	scripts/bench_trajectory.sh -table   # print every BENCH_*.json as one table
#
# Measuring refuses a tree with uncommitted changes to tracked files,
# exports HEAD with `git archive` into a fresh .bench_build/trajectory/src
# (a long-used checkout measures setup_s slower), and runs the
# benchmark's own entry point there, unchanged, once per workload that
# BENCHMARK.json declares:
#
#	bash cmd/rapwambench/run.sh --workload W --seconds 25 --trace 0 --report R
#
# A run the harness flags unstable (its calibration kernel drifted by
# more than 10 % across the run) is repeated up to twice; the first
# unflagged run is kept, or else the last one, still flagged. Per
# workload the file keeps each end-to-end metric of BENCHMARK.json as
# the q1, median and q3 over the kept run's units, and the run's
# unstable flag, calib_ms (kernel time before and after), host_factor
# and how many runs it took; with the commit, the CPU model, the vCPU
# count and the Go version. `-table` marks flagged rows (files written
# before these fields existed show no mark). Measure on a quiet host;
# compare medians across files from one host only. The reports land in
# .bench_build/trajectory/. Needs jq.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cd "$root"

if [ "${1:-}" = "-table" ]; then
	shopt -s nullglob
	files=(BENCH_*.json)
	if [ ${#files[@]} -eq 0 ]; then
		echo "bench_trajectory: no BENCH_*.json committed yet" >&2
		exit 1
	fi
	# One row per file and workload, in change order; each cell is the
	# median with its quartiles, and a flagged row ends in UNSTABLE.
	printf '%s\n' "${files[@]}" | sort -t_ -k2 -n | while read -r f; do
		jq -r '
			def r: . * 1000 | round / 1000;
			. as $b
			| ($b.workloads | to_entries[]) as $w
			| [("#" + ($b.pr | tostring)), $b.commit[0:7], ($b.vcpus | tostring) + " vCPU", $w.key]
			  + ($w.value | to_entries | map(select(.value | type == "object")
				| "\(.key) \(.value.median | r) [\(.value.q1 | r)–\(.value.q3 | r)] \(.value.unit)"))
			  + (if $w.value.unstable then ["UNSTABLE (calib \($w.value.calib_ms | map(r) | join("→")) ms, \($w.value.runs) runs)"] else [] end)
			| join("  ")' "$f"
	done
	exit 0
fi

pr=${1:-}
case "$pr" in
'' | *[!0-9]*)
	echo "usage: scripts/bench_trajectory.sh <pr> | -table" >&2
	exit 2
	;;
esac
command -v jq >/dev/null || {
	echo "bench_trajectory: needs jq" >&2
	exit 2
}
if [ -n "$(git status --porcelain --untracked-files=no)" ]; then
	echo "bench_trajectory: uncommitted changes; commit them first (HEAD is what gets measured)" >&2
	exit 1
fi

out=$root/.bench_build/trajectory
src=$out/src
rm -rf "$src"
mkdir -p "$src"
git archive HEAD | tar -x -C "$src"
commit=$(git rev-parse HEAD)
cpu=$(awk -F': ' '/^model name/ { print $2; exit }' /proc/cpuinfo 2>/dev/null || true)
vcpus=$(getconf _NPROCESSORS_ONLN)
gover=$(go env GOVERSION)
metrics=$(jq -c '[.end_to_end[].name]' BENCHMARK.json)

workloads='{}'
for w in $(jq -r '.workloads[].name' BENCHMARK.json); do
	for run in 1 2 3; do
		echo "bench_trajectory: $w (run $run)" >&2
		(cd "$src" && bash cmd/rapwambench/run.sh --workload "$w" --seconds 25 --trace 0 --report "$out/$w.json" >/dev/null)
		[ "$(jq .unstable "$out/$w.json")" = false ] && break
	done
	workloads=$(jq -c --arg w "$w" --argjson names "$metrics" --argjson runs "$run" --slurpfile r "$out/$w.json" '
		. + {($w): (($r[0].metrics | with_entries(select(.key as $k | $names | index($k)))
			| map_values({unit, q1, median, q3}))
			+ {unstable: $r[0].unstable, calib_ms: $r[0].calib_ms, host_factor: $r[0].host_factor, runs: $runs})}' <<<"$workloads")
done

jq -n --argjson pr "$pr" --arg commit "$commit" --arg cpu "$cpu" --argjson vcpus "$vcpus" \
	--arg go "$gover" --argjson workloads "$workloads" \
	'{pr: $pr, commit: $commit, cpu: $cpu, vcpus: $vcpus, go: $go, seconds: 25, workloads: $workloads}' >"BENCH_$pr.json"
echo "bench_trajectory: wrote BENCH_$pr.json" >&2
