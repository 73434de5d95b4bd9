#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it. Everything
# the build writes (Go build cache, module path, telemetry, temp files) is
# pointed inside bench/.build so a run touches nothing outside the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$here/.build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off
go -C "$here" build -o "$build/tcssbench" .
exec "$build/tcssbench" -dir "$here" "$@"
