#!/usr/bin/env bash
# Builds the GQS benchmark from source and runs it. Run from the
# repository root.
#
#   bash bench/run.sh --workload NAME [--seed N] [--seconds S] [--trace 0|1]
#       Runs one workload and prints its metrics as `name value unit`;
#       the last line is one JSON object.
#   bash bench/run.sh [--seed N] [--seconds S] [--trace 0|1]
#       Runs every workload, each in a fresh process (so max_rss_mb is per
#       workload), prints all metrics and writes .bench_build/results.json.
#
# Everything the build and the runs leave behind goes to .bench_build/.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/bench/go.mod" ]; then
	echo "run.sh: run from the repository root" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false GOWORK=off
(cd "$root/bench" && go build -o "$build/gqsbench" ./gqsbench)

for arg in "$@"; do
	case "$arg" in
	--workload | --workload=* | -workload | -workload=*)
		exec "$build/gqsbench" "$@"
		;;
	esac
done

status=0
entries=""
for w in campaign campaign-durable-2w replay large-graph; do
	out="$build/out-$w.txt"
	if ! "$build/gqsbench" --workload "$w" "$@" | tee "$out"; then
		status=1
		continue
	fi
	procs=$(sed -n 's/.* GOMAXPROCS \([0-9]*\) .*/\1/p' "$out" | head -n 1)
	entries="$entries${entries:+, }\"$w\": {\"gomaxprocs\": $procs, \"result\": $(tail -n 1 "$out")}"
done
printf '{"nproc": %s, "args": "%s", "workloads": {%s}}\n' "$(nproc)" "$*" "$entries" >"$build/results.json"
echo "wrote $build/results.json"
exit $status
