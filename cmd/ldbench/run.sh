#!/usr/bin/env bash
# Builds the benchmark binary from source and runs it with the given
# arguments. Run from the repository root:
#
#   bash cmd/ldbench/run.sh --workload sweep --seed 1 --seconds 20 --trace 0
#
# The build cache, the go command's own config files, and the binary
# all live in .bench_build (or $CARGO_TARGET_DIR when set)
# inside the checkout, so nothing is written outside it. The first run
# compiles the standard library into that cache.
set -euo pipefail

if [[ ! -f go.mod ]]; then
	echo "run.sh: no go.mod here; run it from the repository root" >&2
	exit 2
fi

out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOTOOLCHAIN=local
export GOFLAGS=-buildvcs=false

# Telemetry off: in its default "local" mode the go command forks a
# detached sidecar process (setsid) that can outlive this script.
mkdir -p "$out/config/go/telemetry"
printf 'off\n' >"$out/config/go/telemetry/mode"

HOME="$out/home" XDG_CONFIG_HOME="$out/config" go build -o "$out/ldbench" ./cmd/ldbench
exec "$out/ldbench" "$@"
