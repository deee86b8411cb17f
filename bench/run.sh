#!/usr/bin/env bash
# Builds inkserve and the benchmark from this checkout's sources into
# bench/out/ and runs the benchmark with the given arguments. Everything the
# Go toolchain writes stays under bench/out/.
set -euo pipefail
cd "$(dirname "$0")"
if [ ! -f ../go.mod ]; then
	echo "bench/run.sh: no ../go.mod: the engine's sources are not in this checkout" >&2
	exit 1
fi
out="$PWD/out"
export GOCACHE="$out/.gocache" GOPATH="$out/.gopath" XDG_CONFIG_HOME="$out/.config"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local
# In a fresh config directory the go command starts a detached telemetry
# sidecar process that may outlive it; with the mode off it starts none.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
echo off >"$XDG_CONFIG_HOME/go/telemetry/mode"
go build -o "$out/inkserve" inkfuse/cmd/inkserve
go build -o "$out/bench" .
cd ..
exec "$out/bench" "$@"
