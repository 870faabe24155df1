#!/usr/bin/env bash
# Mutation gate. Each testdata/mutants/*.patch breaks the program on
# purpose, and its header names, on a line "Test: go test ...", the
# command that must catch it. For every patch the script
#   1. runs the command on the tree as it is, which must pass;
#   2. copies the tree, applies the patch to the copy and checks that
#      the mutant still builds (go vet ./...);
#   3. runs the command in the copy, which must fail.
# It exits non-zero when a mutant survives, when a patch no longer
# applies (refresh it against the current code rather than drop it),
# or when a header or a mutant is malformed.
#
# Usage, from anywhere in the repository:
#   bash scripts/mutants.sh                 # every mutant
#   bash scripts/mutants.sh PATCH [PATCH...] # the named ones
set -uo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root" || exit 1
if [ $# -gt 0 ]; then
	patches=("$@")
else
	patches=(testdata/mutants/*.patch)
fi
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

status=0
# report NAME MESSAGE LOG prints a failure with the tail of its log.
report() {
	echo "FAIL $1: $2"
	[ -f "$3" ] && tail -n 20 "$3" | sed 's/^/    /'
	status=1
}

for patch in "${patches[@]}"; do
	if [ ! -f "$patch" ]; then
		report "$patch" "no such patch" /dev/null
		continue
	fi
	patch="$(cd "$(dirname "$patch")" && pwd)/$(basename "$patch")"
	name="$(basename "$patch" .patch)"
	log="$work/$name.log"
	cmd="$(sed -n 's/^Test: //p' "$patch" | head -n 1)"
	case "$cmd" in
	"go test "*) ;;
	*)
		report "$name" "the header has no 'Test: go test ...' line" /dev/null
		continue
		;;
	esac

	if ! bash -c "$cmd" >"$log" 2>&1; then
		report "$name" "'$cmd' fails on the unpatched tree" "$log"
		continue
	fi

	tree="$work/$name"
	mkdir "$tree"
	tar -C "$root" --exclude=./.git --exclude=./.bench_build -cf - . | tar -C "$tree" -xf -
	# A repository of its own, so git apply patches paths from the
	# copy's root whatever directory holds the temporary tree.
	if ! (cd "$tree" && git init -q && git apply "$patch" && rm -rf .git) >"$log" 2>&1; then
		report "$name" "the patch no longer applies; refresh it against the current tree" "$log"
		rm -rf "$tree"
		continue
	fi
	if ! (cd "$tree" && go vet ./...) >"$log" 2>&1; then
		report "$name" "the mutant does not build or vet" "$log"
		rm -rf "$tree"
		continue
	fi
	if (cd "$tree" && bash -c "$cmd") >"$log" 2>&1; then
		report "$name" "survived '$cmd'" "$log"
	else
		echo "ok   $name: killed by '$cmd'"
	fi
	rm -rf "$tree"
done
exit $status
