#!/usr/bin/env bash
# End-to-end benchmark launcher. Run from the repository root:
#
#   bash perfbench/run.sh --workload firehose --seed 1 --seconds 15 --trace 0
#
# It builds cmd/mbserver and the perfbench program from source, keeping
# every build artifact, cache and temporary file under .bench_build in
# the current directory, then hands its arguments to perfbench. It
# starts mbserver as a separate process on loopback, runs the
# workload against it and prints the result as the last line of stdout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/mbserver" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (go.mod, cmd/mbserver and perfbench/ must exist)" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/bin" "$build/gocache" "$build/gotmp" "$build/config" "$build/gopath"
export GOCACHE="$build/gocache"
export GOTMPDIR="$build/gotmp"
export TMPDIR="$build/gotmp"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOFLAGS=
export GOWORK=off

go build -o "$build/bin/mbserver" ./cmd/mbserver >&2
(cd "$root/perfbench" && go build -o "$build/bin/perfbench" .) >&2

exec "$build/bin/perfbench" -server "$build/bin/mbserver" -out "$build" "$@"
