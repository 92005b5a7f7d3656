#!/usr/bin/env bash
# Builds the closnetd benchmark (the Go module in bench/) and runs it with
# the given arguments from the repository root. Everything the build
# writes stays under .bench_build/ in the repository:
#
#   bash bench/run.sh -seed 1 -o out.json
#   bash bench/run.sh --workload evaluate-cold --seed 3 --seconds 15 --trace 0
#   bash bench/run.sh compare A.json... -- B.json...
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
# Stamp the commit into the binary only inside a git checkout.
vcs=false
if [ -d .git ]; then vcs=auto; fi
go -C bench build -buildvcs="$vcs" -o "$out/closnet-bench" . >&2
exec "$out/closnet-bench" "$@"
