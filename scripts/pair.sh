#!/usr/bin/env bash
# pair.sh — paired benchmark runs of two commits, judged by the rule in
# README "Performance".
#
#   scripts/pair.sh <parent> <change> -workload W -pairs N [-seed S] [-trace 0|1] [-metric M] [-dir D]
#
# Both commits are checked out as detached git worktrees under D
# (default: a new directory in $TMPDIR). Pair i runs
# `bash bench/run.sh -workload W -trace T -seed S` once on each side,
# the parent first in even pairs and the change first in odd ones, so
# that drift of the machine falls on both sides alike. Every result line
# is kept as D/<side>-<i>.json; each side's runs are also gathered into
# D/<side>.json, a result file bench/run.sh -compare reads.
#
# The statistics are bench/compare.go's: the script runs
# `bench/run.sh -compare D/parent.json D/change.json` and takes each
# side's median and spread — the interquartile range over the median —
# from its table, so it prints the IQR as spread × median and adds no
# quantile routine of its own. Pairs won count, for metric M (default
# p50_ms), the pairs in which the change's value is better in the
# direction BENCHMARK.json gives. The verdict applies the rule, to at
# least 10 pairs: the change wins at least 9 of every 10 pairs and its
# median differs from the parent's by more than the parent's IQR.
#
# Needs git, jq and the Go toolchain. The worktrees are removed at the
# end; D and its JSON files stay.
set -euo pipefail

usage() { echo "usage: $0 <parent> <change> -workload W -pairs N [-seed S] [-trace 0|1] [-metric M] [-dir D]" >&2; exit 2; }
[ $# -ge 2 ] || usage
parent=$1 change=$2
shift 2
workload="" pairs="" seed=1 trace=0 metric=p50_ms dir=""
while [ $# -gt 0 ]; do
	[ $# -ge 2 ] || usage
	case $1 in
	-workload) workload=$2 ;;
	-pairs) pairs=$2 ;;
	-seed) seed=$2 ;;
	-trace) trace=$2 ;;
	-metric) metric=$2 ;;
	-dir) dir=$2 ;;
	*) usage ;;
	esac
	shift 2
done
[ -n "$workload" ] && [ -n "$pairs" ] || usage

repo=$(git rev-parse --show-toplevel)
better=$(jq -r --arg m "$metric" '(.end_to_end + .per_layer)[] | select(.name == $m) | .better' "$repo/BENCHMARK.json")
[ -n "$better" ] || { echo "pair.sh: BENCHMARK.json defines no metric $metric" >&2; exit 2; }
dir=${dir:-$(mktemp -d "${TMPDIR:-/tmp}/pair.XXXXXX")}
mkdir -p "$dir"
dir=$(cd "$dir" && pwd)

cleanup() {
	for side in parent change; do
		[ -d "$dir/$side" ] && git -C "$repo" worktree remove --force "$dir/$side" || true
	done
}
trap cleanup EXIT
git -C "$repo" worktree add --detach "$dir/parent" "$parent" >/dev/null
git -C "$repo" worktree add --detach "$dir/change" "$change" >/dev/null
echo "parent $(git -C "$dir/parent" rev-parse --short HEAD)  change $(git -C "$dir/change" rev-parse --short HEAD)  $workload -trace $trace -seed $seed  $pairs pairs  results in $dir"

runside() { # side pair
	(cd "$dir/$1" && bash bench/run.sh -workload "$workload" -trace "$trace" -seed "$seed") | tail -n 1 >"$dir/$1-$2.json"
	jq -r --arg m "$metric" '"  \($m) \(.metrics[$m].value)  correct=\(.correct) failed=\(.failed)"' "$dir/$1-$2.json" | sed "s/^/pair $2 $1/"
}
for ((i = 0; i < pairs; i++)); do
	if ((i % 2 == 0)); then
		runside parent "$i"
		runside change "$i"
	else
		runside change "$i"
		runside parent "$i"
	fi
done

# One result file per side, in the shape bench/run.sh -compare reads.
for side in parent change; do
	jq -s --arg w "$workload" --argjson t "$trace" --argjson s "$seed" \
		'{env: {commit: "'"$side"'", seed: $s}, runs: [.[] | {workload: $w, trace: $t, seed: $s} + .]}' \
		$(for ((i = 0; i < pairs; i++)); do echo "$dir/$side-$i.json"; done) >"$dir/$side.json"
done
(cd "$dir/change" && bash bench/run.sh -compare "$dir/parent.json" "$dir/change.json") >"$dir/compare.txt" || true
echo
sed 1,3d "$dir/compare.txt"

won=0
for ((i = 0; i < pairs; i++)); do
	p=$(jq --arg m "$metric" '.metrics[$m].value' "$dir/parent-$i.json")
	c=$(jq --arg m "$metric" '.metrics[$m].value' "$dir/change-$i.json")
	if [ "$better" = lower ]; then win=$(jq -n "$c < $p"); else win=$(jq -n "$c > $p"); fi
	[ "$win" = true ] && won=$((won + 1))
done
# The compare row of an end-to-end metric: workload metric a_median
# b_median change bound a_spread b_spread verdict. A per-layer row has
# no spread, so the rule cannot be applied to it.
row=$(awk -v w="$workload" -v m="$metric" '$1 == w && $2 == m { print $3, $4, $7, $8; exit }' "$dir/compare.txt" | tr -d '%')
read -r pm cm ps cs <<<"$row"
if [ -z "$cs" ]; then
	echo "$metric: parent median $pm, change median $cm; pairs won by the change: $won/$pairs (a per-layer metric: no verdict)"
	exit 0
fi
jq -n --arg m "$metric" --argjson pm "$pm" --argjson cm "$cm" --argjson ps "$ps" --argjson cs "$cs" \
	--argjson won "$won" --argjson n "$pairs" '
	($ps / 100 * ($pm | fabs)) as $piqr | ($cs / 100 * ($cm | fabs)) as $ciqr | ($cm - $pm) as $d |
	"\($m): parent median \($pm) (IQR \($piqr * 1000 | round / 1000)), change median \($cm) (IQR \($ciqr * 1000 | round / 1000)), Δ \($d * 1000 | round / 1000) (\(100 * $d / ($pm | fabs) * 10 | round / 10)%)",
	"pairs won by the change: \($won)/\($n)",
	"verdict: " + (if $n < 10 then "none: the rule needs at least 10 pairs"
		elif $won * 10 >= 9 * $n and ($d | fabs) > $piqr then "the change wins (≥ 9/10 pairs and |Δmedian| > parent IQR)"
		else "no claim (needs ≥ 9/10 pairs and |Δmedian| > parent IQR)" end)' -r
