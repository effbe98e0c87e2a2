#!/usr/bin/env bash
# loc.sh — the repository's Go line counts, under the one definition
# every size figure in CHANGES.md and ROADMAP.md uses: the lines of
# every .go file outside bench/ and .bench_build/, split into test
# lines (files ending _test.go) and non-test lines.
#
#   scripts/loc.sh          # the working tree
#   scripts/loc.sh <rev>    # the files of a commit (git archive)
#
# Prints "nontest <n>" and "test <n>", one per line.
set -euo pipefail

repo=$(git rev-parse --show-toplevel)
dir=$repo
if [ $# -ge 1 ]; then
	dir=$(mktemp -d "${TMPDIR:-/tmp}/loc.XXXXXX")
	trap 'rm -rf "$dir"' EXIT
	git -C "$repo" archive "$1" | tar -x -C "$dir"
fi

lines() { # find predicate… → total lines of the matching Go files
	(cd "$dir" && find . \( -path ./bench -o -path ./.bench_build -o -path ./.git \) -prune -o \
		-type f -name '*.go' "$@" -print0 | xargs -0r cat | wc -l)
}

echo "nontest $(lines -not -name '*_test.go')"
echo "test $(lines -name '*_test.go')"
