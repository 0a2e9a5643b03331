#!/usr/bin/env bash
# A/B run of the repository benchmark: builds bench/ at a base revision
# and in the working tree, runs N pairs on one workload, and prints each
# pair's metrics, the medians, the base's interquartile range and how
# many pairs the working tree won. Run it from the repository root:
#
#   bash scripts/bench-ab.sh --base HEAD~1 --workload dense-300 --pairs 5 --seconds 10
#
# Pair i runs both binaries with seed FIRST+i, so the two sides of a pair
# see the same stream and every pair a different one; the side that runs
# first alternates from pair to pair, so a host that drifts over the run
# favours neither. --trace 1 compares the per-layer metrics instead of
# the end-to-end ones. The base tree is extracted with git archive and
# everything is built with bench/run.sh's environment, under
# .bench_build/ab/.
set -euo pipefail

base=HEAD workload=dense-300 pairs=5 seconds=10 seed=1 trace=0
usage() {
	echo "usage: $0 [--base REV] [--workload keyed-2k|dense-300|churn-120] [--pairs N] [--seconds S] [--seed FIRST] [--trace 0|1]" >&2
	exit 2
}
while [ $# -gt 0 ]; do
	[ $# -ge 2 ] || usage
	case $1 in
	--base) base=$2 ;;
	--workload) workload=$2 ;;
	--pairs) pairs=$2 ;;
	--seconds) seconds=$2 ;;
	--seed) seed=$2 ;;
	--trace) trace=$2 ;;
	*) usage ;;
	esac
	shift 2
done
[ -f bench/run.sh ] && [ -f BENCHMARK.json ] || {
	echo "$0: run from the repository root" >&2
	exit 2
}

root=$(pwd)
out="$root/.bench_build"
ab="$out/ab"
mkdir -p "$out/tmp" "$ab"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS= CGO_ENABLED=0

rev=$(git rev-parse --short "$base^{commit}")
rm -rf "$ab/base" "$ab/runs"
mkdir -p "$ab/base" "$ab/runs"
git archive "$rev" | tar -x -C "$ab/base"
go -C "$ab/base/bench" build -o "$ab/pnmbench-base" .
go -C "$root/bench" build -o "$ab/pnmbench-new" .
echo "base $rev vs working tree: $workload, $pairs pairs of ${seconds} s, seeds $seed..$((seed + pairs - 1)), trace $trace"

# run SIDE PAIR SEED runs one side's binary and keeps its metric lines
# as "side pair metric value" rows, plus its verdict hash and failed
# count.
run() {
	local log="$ab/runs/$1-$2.log" spans=()
	[ "$trace" = 1 ] && spans=(--spans "$ab/runs/$1-$2.jsonl")
	if ! "$ab/pnmbench-$1" --workload "$workload" --seed "$3" --seconds "$seconds" --trace "$trace" "${spans[@]}" >"$log" 2>&1; then
		echo "$1 pair $2 (seed $3) failed; see $log" >&2
		tail -5 "$log" >&2
		exit 1
	fi
	awk -v side="$1" -v pair="$2" '$1 == "metric" { print side, pair, $2, $3 }' "$log" >>"$ab/runs/metrics"
	awk '$1 == "verdict_hash" { print $2 }' "$log" >"$ab/runs/$1-$2.verdict"
	sed -n 's/.*"failed":\([0-9]*\).*/\1/p' "$log" >"$ab/runs/$1-$2.failed"
}
for ((i = 0; i < pairs; i++)); do
	if ((i % 2 == 0)); then
		run base "$i" $((seed + i))
		run new "$i" $((seed + i))
	else
		run new "$i" $((seed + i))
		run base "$i" $((seed + i))
	fi
	same=same
	cmp -s "$ab/runs/base-$i.verdict" "$ab/runs/new-$i.verdict" || same=DIFFERS
	echo "pair $i seed $((seed + i)): verdict_hash $same, failed $(cat "$ab/runs/base-$i.failed") base / $(cat "$ab/runs/new-$i.failed") new"
done

# Each metric's direction comes from BENCHMARK.json, one metric a line.
awk '/"name":/ && /"better":/ {
	match($0, /"name": *"[^"]*"/); n = substr($0, RSTART, RLENGTH); sub(/"name": *"/, "", n); sub(/"$/, "", n)
	match($0, /"better": *"[^"]*"/); b = substr($0, RSTART, RLENGTH); sub(/"better": *"/, "", b); sub(/"$/, "", b)
	print n, b
}' BENCHMARK.json >"$ab/runs/better"

# quantile P of the numbers on stdin, interpolated between order stats.
quantile() {
	sort -g | awk -v p="$1" '{ v[++n] = $1 } END {
		if (n == 0) { print "nan"; exit }
		h = 1 + (n - 1) * p; l = int(h)
		print (l >= n) ? v[n] : v[l] + (h - l) * (v[l + 1] - v[l])
	}'
}

echo
printf '%-5s %-40s %14s %14s %9s\n' pair metric base new change
awk 'NR == FNR { better[$1] = $2; next }
	($3 in better) { v[$1, $2, $3] = $4; if (!(($2, $3) in seen)) { seen[$2, $3] = 1; key[++k] = $2 SUBSEP $3 } }
	END {
		for (j = 1; j <= k; j++) {
			split(key[j], f, SUBSEP); b = v["base", f[1], f[2]]; n = v["new", f[1], f[2]]
			printf "%-5s %-40s %14.6g %14.6g %+8.1f%%\n", f[1], f[2], b, n, (b != 0) ? 100 * (n - b) / b : 0
		}
	}' "$ab/runs/better" "$ab/runs/metrics"

echo
printf '%-40s %-6s %14s %14s %9s %14s %5s\n' metric better base_median new_median change base_iqr wins
while read -r metric better; do
	grep -q " $metric " "$ab/runs/metrics" || continue
	bmed=$(awk -v m="$metric" '$1 == "base" && $3 == m { print $4 }' "$ab/runs/metrics" | quantile 0.5)
	nmed=$(awk -v m="$metric" '$1 == "new" && $3 == m { print $4 }' "$ab/runs/metrics" | quantile 0.5)
	q1=$(awk -v m="$metric" '$1 == "base" && $3 == m { print $4 }' "$ab/runs/metrics" | quantile 0.25)
	q3=$(awk -v m="$metric" '$1 == "base" && $3 == m { print $4 }' "$ab/runs/metrics" | quantile 0.75)
	wins=$(awk -v m="$metric" -v better="$better" '$3 == m { v[$1, $2] = $4; p[$2] = 1 }
		END { for (i in p) if ((better == "higher") ? v["new", i] > v["base", i] : v["new", i] < v["base", i]) w++
			print w + 0 "/" length(p) }' "$ab/runs/metrics")
	awk -v m="$metric" -v bt="$better" -v b="$bmed" -v n="$nmed" -v q1="$q1" -v q3="$q3" -v w="$wins" 'BEGIN {
		printf "%-40s %-6s %14.6g %14.6g %+8.1f%% %14.6g %5s\n", m, bt, b, n, (b != 0) ? 100 * (n - b) / b : 0, q3 - q1, w
	}'
done <"$ab/runs/better"
