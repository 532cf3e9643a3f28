#!/bin/bash
# The benchmark's command (BENCHMARK.json): build ./bench from source
# and run it with the given flags, from the root of a checkout.
# Everything the Go toolchain writes — build cache, module cache,
# temporary files, its own settings — is kept under .bench_build in the
# checkout, so a run reads and writes nothing outside it.
set -euo pipefail
build="$PWD/.bench_build"
export HOME="$build/home"
export XDG_CONFIG_HOME="$HOME/.config" XDG_CACHE_HOME="$HOME/.cache"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off
mkdir -p "$GOTMPDIR" "$XDG_CONFIG_HOME/go/telemetry"
# A go command that finds a fresh settings directory starts a detached
# telemetry child that outlives it; with the mode file saying off it
# starts none, so no process is left behind on any path out of here.
echo off > "$XDG_CONFIG_HOME/go/telemetry/mode"
go build -o "$build/bench" ./bench
exec "$build/bench" "$@"
