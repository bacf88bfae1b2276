#!/usr/bin/env bash
# run.sh — builds the rebase binary and the benchmark harness from this
# checkout, then runs the harness with the given arguments. Run it from the
# repository root:
#
#   bash perfbench/run.sh --workload warm --seed 3 --seconds 10 --trace 0
#
# Everything it builds or writes stays under the build directory
# ($CARGO_TARGET_DIR when set, else .bench_build), Go's caches included.
set -euo pipefail

root="$(pwd)"
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/rebase" || ! -f "$root/perfbench/go.mod" ]]; then
  echo "perfbench: run from the repository root (go.mod, cmd/rebase and perfbench/go.mod must exist)" >&2
  exit 2
fi

build="${CARGO_TARGET_DIR:-.bench_build}"
[[ "$build" = /* ]] || build="$root/$build"
mkdir -p "$build/bin" "$build/go/tmp" "$build/go/config"
export GOCACHE="$build/go/cache" GOTMPDIR="$build/go/tmp" GOPATH="$build/go/path"
export GOMODCACHE="$build/go/path/pkg/mod" XDG_CONFIG_HOME="$build/go/config"
export GOTOOLCHAIN=local TMPDIR="$build/go/tmp"

go build -o "$build/bin/rebase" ./cmd/rebase
go -C perfbench build -o "$build/bin/perfbench" .
exec "$build/bin/perfbench" -build-dir "$build" "$@"
