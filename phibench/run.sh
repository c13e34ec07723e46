#!/usr/bin/env bash
# Builds the phihpl benchmark from source and runs one workload:
#
#   bash phibench/run.sh --workload native|grid|server --seed N --seconds S --trace 0|1
#
# Run it from the repository root. The build cache, the binary, the
# Chrome traces and every scratch file stay under .bench_build/ there.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/phibench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOWORK=off GOFLAGS=
(cd "$root/phibench" && go build -o "$out/phibench" .) >&2
exec "$out/phibench" --out "$out" "$@"
