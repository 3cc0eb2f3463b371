#!/usr/bin/env bash
# Same-host A/B comparison of the simulator benchmark (perfbench/): the
# committed revision <rev> against the working tree, run in alternating
# pairs so host drift hits both sides alike.
#
#   bash scripts/perfab.sh <rev> <workload> [pairs] [seconds]
#
#   pairs    number of base/change pairs (default 10); the side that runs
#            first alternates from pair to pair
#   seconds  --seconds of each run (default 30, BENCHMARK.json's run
#            length)
#   SEED     environment: workload seed (default 2)
#   METRIC   environment: end-to-end metric to compare (default
#            req_per_host_s); its direction comes from BENCHMARK.json
#
# <rev> is checked out with `git worktree` under .bench_build/perfab/ and
# both sides are built and run by their own perfbench/run.sh, exactly as
# the benchmark runs them. The script prints every run, each side's median
# and quartiles, the change's win count, and a verdict by the rule: a gain
# needs wins in at least nine tenths of the pairs (ties count for neither)
# and a median gap larger than the base's interquartile range. It also
# reports whether the simulated digests of the two sides agree.
set -euo pipefail

if [ $# -lt 2 ]; then
	echo "usage: $0 <rev> <workload> [pairs] [seconds]" >&2
	exit 2
fi
rev=$1 workload=$2 pairs=${3:-10} seconds=${4:-30}
seed=${SEED:-2} metric=${METRIC:-req_per_host_s}

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
out="$root/.bench_build/perfab"
base="$out/base"
mkdir -p "$out"

better=$(awk -v m="\"$metric\"" '
	$0 ~ "\"name\": " m { found = 1 }
	found && /"better"/ { gsub(/[",]/, "", $2); print $2; exit }
' "$root/BENCHMARK.json")
if [ -z "$better" ]; then
	echo "perfab: metric $metric is not in BENCHMARK.json" >&2
	exit 2
fi

# cleanup also clears what an interrupted earlier run left behind.
cleanup() {
	git -C "$root" worktree remove --force "$base" >/dev/null 2>&1 || true
	rm -rf "$base"
	git -C "$root" worktree prune
}
cleanup
git -C "$root" worktree add --quiet --detach "$base" "$rev"
trap cleanup EXIT

# run <checkout> <label>: one benchmark run; appends "value digest" to
# $out/<label>.txt and the run's result line to $out/<label>.jsonl.
run() {
	local log="$out/$2.log"
	bash "$1/perfbench/run.sh" --workload "$workload" --seed "$seed" \
		--seconds "$seconds" --trace 0 >"$log" 2>&1 || {
		echo "perfab: $2 run failed; see $log" >&2
		exit 1
	}
	local v d
	v=$(tail -n 1 "$log" | grep -o "\"$metric\":{\"value\":[^,}]*" | sed 's/.*://')
	d=$(grep '^digest ' "$log" | awk '{print $NF}')
	echo "$v $d" >>"$out/$2.txt"
	tail -n 1 "$log" >>"$out/$2.jsonl"
	printf '  %-6s %-14s digest %s\n' "$2" "$v" "$d"
}

rm -f "$out"/base.txt "$out"/change.txt "$out"/base.jsonl "$out"/change.jsonl
echo "perfab: $workload seed=$seed $metric ($better is better), $pairs pairs of ${seconds}s"
echo "        base $(git -C "$root" rev-parse --short=12 "$rev") vs working tree"
for i in $(seq 1 "$pairs"); do
	echo "pair $i"
	if [ $((i % 2)) -eq 1 ]; then
		run "$base" base
		run "$root" change
	else
		run "$root" change
		run "$base" base
	fi
done

paste -d' ' "$out/base.txt" "$out/change.txt" | awk -v better="$better" '
	function sortv(a, n,    i, j, t) {
		for (i = 2; i <= n; i++)
			for (j = i; j > 1 && a[j-1] > a[j]; j--) { t = a[j]; a[j] = a[j-1]; a[j-1] = t }
	}
	# q: linear-interpolation quantile of the sorted a[1..n].
	function q(a, n, p,    h, lo) {
		h = (n - 1) * p + 1; lo = int(h)
		return lo >= n ? a[n] : a[lo] + (h - lo) * (a[lo+1] - a[lo])
	}
	{
		n++; b[n] = $1; c[n] = $3
		if ($2 != $4) digest_diff++
		if (better == "higher" ? $3 > $1 : $3 < $1) wins++
		else if ($3 != $1) losses++
	}
	END {
		sortv(b, n); sortv(c, n)
		mb = q(b, n, .5); mc = q(c, n, .5); iqr = q(b, n, .75) - q(b, n, .25)
		printf "base    median %.6g  quartiles %.6g .. %.6g\n", mb, q(b, n, .25), q(b, n, .75)
		printf "change  median %.6g  quartiles %.6g .. %.6g\n", mc, q(c, n, .25), q(c, n, .75)
		printf "change/base %.4f; change won %d of %d pairs (%d lost, %d tied)\n", mc / mb, wins, n, losses, n - wins - losses
		gap = better == "higher" ? mc - mb : mb - mc
		if (wins * 10 >= 9 * n && gap > iqr)
			printf "verdict: gain (median gap %.6g > base IQR %.6g)\n", gap, iqr
		else
			printf "verdict: no gain shown (needs >= 9/10 wins and median gap %.6g > base IQR %.6g)\n", gap, iqr
		if (digest_diff) printf "digests: DIFFER in %d pairs\n", digest_diff
		else print "digests: identical"
	}'
