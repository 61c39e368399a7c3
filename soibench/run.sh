#!/usr/bin/env bash
# Builds soid, soigw and the soibench program from the soi checkout in the
# current directory, then runs soibench with this script's arguments:
#
#   bash soibench/run.sh --workload build --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write lands under .bench_build/ in the
# checkout, including the Go build cache.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/soid" ] || [ ! -d "$root/internal" ]; then
	echo "soibench: run from the root of a soi checkout (no go.mod, cmd/soid or internal/ here)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/gopath" "$out/config" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/mod"
export XDG_CONFIG_HOME="$out/config" GOENV=off GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
export TMPDIR="$out/tmp"

go build -o "$out/bin/" ./cmd/soid ./cmd/soigw
(cd "$root/soibench" && go build -o "$out/bin/soibench" .)

exec "$out/bin/soibench" -root "$root" -bin "$out/bin" "$@"
