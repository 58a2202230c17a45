#!/usr/bin/env bash
# Builds lapsbench from source and runs it. Everything the build writes — the
# binary, the Go build cache, whatever the toolchain keeps under $HOME — goes
# under .bench_build at the root of the checkout, so a run reads and writes
# only inside the checkout. Arguments are passed through to lapsbench.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/home"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$here" && go build -o "$build/lapsbench.bin" .)
cd "$root"
exec "$build/lapsbench.bin" "$@"
