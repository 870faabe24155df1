#!/usr/bin/env bash
# A/B driver for speed claims. It exports two commits of this
# repository (the parent and the change) into a scratch directory,
# builds the benchmark in each through bench/run.sh, and runs
# alternating untraced pairs of the same workload and seed, plus
# optional traced runs of each side. It writes every run into one
# BENCH_<pr>.json and prints, per workload and end-to-end metric, the
# inputs of a verdict: the two medians and their gap, how many pairs
# the change won (ties count for neither side) and the parent's
# interquartile range. It decides nothing; each claim sets its own
# threshold.
#
# The end-to-end metrics of an untraced run are reported by the
# benchmark at host speed 1 (bench/host.go). The file holds each one
# both that way and as measured, with the run's host-speed factor.
#
# Usage, from anywhere in the repository:
#   bash scripts/benchpairs.sh --pr N [options]
#     --base REV        the parent commit (default HEAD~1)
#     --head REV        the change commit (default HEAD)
#     --workloads LIST  comma-separated workloads (default keyspread)
#     --seeds LIST      seeds of the untraced pairs, comma-separated or
#                       a range A-B (default 1-10); one pair per seed
#                       and workload, the first side alternating
#     --seconds S       timed window of an untraced run (default 10)
#     --traced LIST     seeds of traced runs of every workload, on both
#                       sides (default none)
#     --claim TEXT      the claimed workload and metric, as written in
#                       the file (default "none")
#     --change TEXT     what the change does, as written in the file
#     --out FILE        where to write (default BENCH_<pr>.json at the
#                       repository root)
#     --work DIR        scratch directory for the exports, their build
#                       caches and the per-run JSON (default a fresh
#                       temporary directory, removed at the end)
#   bash scripts/benchpairs.sh --check FILE   # only the schema check
#
# Micro mode pairs core microbenchmarks instead of the benchmark:
#   bash scripts/benchpairs.sh --pr N --micro SET [--pairs K] [options]
#     --micro SET       "default" or a comma-separated list of entries
#                       PATTERN@BENCHTIME, PATTERN a go test -bench
#                       pattern of ./internal/core and BENCHTIME its
#                       -benchtime
#     --pairs K         pairs per entry (default 10)
# It builds each side's test binary once (go test -c) from its git
# archive export and runs every entry in ABBA order (the first side
# alternates from pair to pair) at -cpu 1 with -benchmem. Every run's
# ns/op and custom metrics (ns/sample, trials/sample, allocs/op, ...)
# go under the "micro" key of BENCH_<pr>.json; an existing file keeps
# its other keys. Per benchmark row and time metric it prints the
# median per-pair ratio (change / parent), the pairs the change won
# and the parent's interquartile range, and decides nothing.
# --base, --head, --change, --out and --work work as above.
#
# The commits are exported with git archive, so only committed files
# are measured, and nothing is registered in the repository's .git.
# The script edits nothing under bench/ and nothing in BENCHMARK.json.
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"

die() {
	echo "benchpairs: $*" >&2
	exit 2
}

# seeds LIST prints the seeds of a comma-separated list or an A-B range.
seeds() {
	case "$1" in
	"") ;;
	*-*) seq "${1%-*}" "${1#*-}" ;;
	*) tr ',' '\n' <<<"$1" ;;
	esac
}

pr="" base="HEAD~1" head="HEAD" workloads="keyspread" seedlist="1-10" seconds=10
traced="" claim="none" change="" out="" work="" check="" micro="" pairs=10
while [ $# -gt 0 ]; do
	[ $# -ge 2 ] || die "$1 needs a value"
	case "$1" in
	--pr) pr="$2" ;;
	--base) base="$2" ;;
	--head) head="$2" ;;
	--workloads) workloads="$2" ;;
	--seeds) seedlist="$2" ;;
	--seconds) seconds="$2" ;;
	--traced) traced="$2" ;;
	--claim) claim="$2" ;;
	--change) change="$2" ;;
	--out) out="$2" ;;
	--work) work="$2" ;;
	--check) check="$2" ;;
	--micro) micro="$2" ;;
	--pairs) pairs="$2" ;;
	*) die "unknown option $1" ;;
	esac
	shift 2
done

summarize() {
	python3 "$root/scripts/benchpairs.py" "$@"
}

if [ -n "$check" ]; then
	summarize check "$check"
	exit
fi
[[ "$pr" =~ ^[0-9]+$ ]] || die "--pr N is required"
out="${out:-$root/BENCH_$pr.json}"
model="$(sed -n 's/^model name[[:space:]]*: //p' /proc/cpuinfo 2>/dev/null | head -n 1)"
host="$(nproc) CPUs ${model:-of unknown model}, $(go env GOOS)/$(go env GOARCH), $(go env GOVERSION)"
if [ -z "$work" ]; then
	work="$(mktemp -d)"
	trap 'rm -rf "$work"' EXIT
fi

# export SIDE exports the side's commit into $work/SIDE.
export_side() {
	local rev="$base" sha
	[ "$1" = change ] && rev="$head"
	sha="$(git rev-parse --verify "$rev^{commit}")" || die "no commit $rev"
	echo "$sha" >"$work/$1.rev"
	rm -rf "${work:?}/$1"
	mkdir -p "$work/$1"
	git archive "$sha" | tar -x -C "$work/$1"
	echo "== $1: $rev ($sha)" >&2
}

if [ -n "$micro" ]; then
	# The rows PRs 38-40 paired by hand: the frozen parent, a clone and
	# the churned Mutable drawing; the trial at bulk's shape; the two
	# frozen build phases at keyspread's l range and at bulk's shape;
	# one churn batch on a fresh mutable index; and the build of a
	# mutable index from R and S, which every store runs.
	[ "$micro" = default ] &&
		micro='^BenchmarkFrozenSampleInto$/^(parent|clone|mutable)$@100x'\
',^BenchmarkTrialScale$/^bulk$@50x'\
',^BenchmarkBuild$/^(nyc25k_l50|nyc25k_l200|nyc200k_l100)$@5x'\
',^BenchmarkCount$/^(nyc25k_l50|nyc25k_l200|nyc200k_l100)$@5x'\
',^BenchmarkMutableApply$/^fresh$@200x'\
',^BenchmarkMutableBuild$@20x'
	[[ "$pairs" =~ ^[1-9][0-9]*$ ]] || die "--pairs K must be a positive number"
	mkdir -p "$work/micro"
	for side in parent change; do
		export_side "$side"
		(cd "$work/$side" && go test -c -o "$work/$side.test" ./internal/core) || die "$side: go test -c failed"
	done
	IFS=',' read -r -a entries <<<"$micro"
	for ((i = 0; i < pairs; i++)); do
		if [ $((i % 2)) = 0 ]; then order="parent change"; else order="change parent"; fi
		for e in "${!entries[@]}"; do
			entry="${entries[$e]}"
			pattern="${entry%@*}" benchtime="1x"
			[ "$pattern" != "$entry" ] && benchtime="${entry##*@}"
			for side in $order; do
				f="$work/micro/$side.$i.$e.txt"
				echo "== micro pair $i $side $pattern ($benchtime)" >&2
				(cd "$work/$side/internal/core" && "$work/$side.test" -test.run '^$' -test.bench "$pattern" \
					-test.benchtime "$benchtime" -test.cpu 1 -test.benchmem -test.timeout 30m >"$f" 2>&1) ||
					die "$side $pattern failed; see $f"
			done
		done
	done
	harness="go test -c ./internal/core binaries built in git-archive exports of $base ($(cut -c1-12 "$work/parent.rev")) and $head ($(cut -c1-12 "$work/change.rev")), run as BINARY -test.run '^\$' -test.bench PATTERN -test.benchtime BENCHTIME -test.cpu 1 -test.benchmem -test.timeout 30m from the package directory; pairs alternate which side runs first (ABBA)"
	summarize micro --runs "$work/micro" --out "$out" --pr "$pr" --change "$change" --host "$host" \
		--harness "$harness" --entries "$micro" --pairs "$pairs"
	summarize check "$out"
	exit
fi

mkdir -p "$work/runs"

# Export and build both sides. The first run of each side goes through
# bench/run.sh, which builds the binary; it warms the side up and is
# not recorded.
first="${workloads%%,*}"
for side in parent change; do
	export_side "$side"
	echo "== $side: building and warming up" >&2
	(cd "$work/$side" && bash bench/run.sh -workload "$first" -seed 0 -seconds "$seconds" -trace 0 >"$work/$side.warmup.log") ||
		die "$side: bench/run.sh failed; see $work/$side.warmup.log"
done

# bench SIDE WORKLOAD SEED TRACE runs one benchmark and keeps its JSON.
# A run whose operations failed still writes its file, which records
# the failures; a run that wrote none stops the script.
bench() {
	local f="$work/runs/$1.$2.$3.trace$4.json"
	echo "== $1 $2 seed $3 trace $4" >&2
	(cd "$work/$1" && .bench_build/bench -workload "$2" -seed "$3" -seconds "$seconds" -trace "$4" -json "$f" >"$f.log" 2>&1) ||
		echo "   exit status $? (see $f.log)" >&2
	[ -s "$f" ] || die "$1 $2 seed $3 wrote no result; see $f.log"
}

for w in ${workloads//,/ }; do
	i=0
	for s in $(seeds "$seedlist"); do
		if [ $((i % 2)) = 0 ]; then order="parent change"; else order="change parent"; fi
		for side in $order; do bench "$side" "$w" "$s" 0; done
		i=$((i + 1))
	done
	for s in $(seeds "$traced"); do
		for side in parent change; do bench "$side" "$w" "$s" 1; done
	done
done

harness=".bench_build/bench -workload W -seed N -seconds $seconds -trace T, built by bash bench/run.sh in git-archive exports of $base ($(cut -c1-12 "$work/parent.rev")) and $head ($(cut -c1-12 "$work/change.rev")); untraced pairs alternate which side runs first, after one unrecorded warm-up run per side"
summarize write --runs "$work/runs" --benchmark "$root/BENCHMARK.json" --out "$out" \
	--pr "$pr" --change "$change" --host "$host" --harness "$harness" --claim "$claim" \
	--workloads "$workloads"
summarize check "$out"
