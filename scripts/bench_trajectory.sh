#!/usr/bin/env bash
# bench_trajectory.sh — record and print the committed benchmark
# trajectory: one BENCH_<pr>.json per change, at the repo root.
#
# Usage (from the repo root):
#
#	scripts/bench_trajectory.sh <pr>     # measure HEAD, write BENCH_<pr>.json
#	scripts/bench_trajectory.sh -table   # print every BENCH_*.json as one table
#
# Measuring runs the benchmark's own entry point, unchanged, once per
# workload that BENCHMARK.json declares:
#
#	bash cmd/rapwambench/run.sh --workload W --seconds 25 --trace 0 --report R
#
# and keeps, per workload, each end-to-end metric of BENCHMARK.json as
# the q1, median and q3 over the run's units, with the commit, the CPU
# model, the vCPU count and the Go version. Measure a clean tree on a
# quiet host; compare medians across files from one host only. The
# reports land in .bench_build/trajectory/. Needs jq.
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
	# median with its quartiles.
	printf '%s\n' "${files[@]}" | sort -t_ -k2 -n | while read -r f; do
		jq -r '
			def r: . * 1000 | round / 1000;
			. as $b
			| ($b.workloads | to_entries[]) as $w
			| [("#" + ($b.pr | tostring)), $b.commit[0:7], ($b.vcpus | tostring) + " vCPU", $w.key]
			  + ($w.value | to_entries | map("\(.key) \(.value.median | r) [\(.value.q1 | r)–\(.value.q3 | r)] \(.value.unit)"))
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

out=.bench_build/trajectory
mkdir -p "$out"
commit=$(git rev-parse HEAD)
if [ -n "$(git status --porcelain --untracked-files=no)" ]; then
	commit="$commit-dirty"
fi
cpu=$(awk -F': ' '/^model name/ { print $2; exit }' /proc/cpuinfo 2>/dev/null || true)
vcpus=$(getconf _NPROCESSORS_ONLN)
gover=$(go env GOVERSION)
metrics=$(jq -c '[.end_to_end[].name]' BENCHMARK.json)

workloads='{}'
for w in $(jq -r '.workloads[].name' BENCHMARK.json); do
	echo "bench_trajectory: $w" >&2
	bash cmd/rapwambench/run.sh --workload "$w" --seconds 25 --trace 0 --report "$out/$w.json" >/dev/null
	workloads=$(jq -c --arg w "$w" --argjson names "$metrics" --slurpfile r "$out/$w.json" '
		. + {($w): ($r[0].metrics | with_entries(select(.key as $k | $names | index($k)))
			| map_values({unit, q1, median, q3}))}' <<<"$workloads")
done

jq -n --argjson pr "$pr" --arg commit "$commit" --arg cpu "$cpu" --argjson vcpus "$vcpus" \
	--arg go "$gover" --argjson workloads "$workloads" \
	'{pr: $pr, commit: $commit, cpu: $cpu, vcpus: $vcpus, go: $go, seconds: 25, workloads: $workloads}' >"BENCH_$pr.json"
echo "bench_trajectory: wrote BENCH_$pr.json" >&2
