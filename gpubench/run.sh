#!/usr/bin/env bash
# Builds gpubench from the checkout it sits in, then runs it with the
# given flags. Run from the repository root:
#
#   bash gpubench/run.sh --workload fig-dynamic --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write goes under $CARGO_TARGET_DIR
# (default .bench_build): the Go build cache, the binary, tier caches
# and span files.
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/tmp"
commit=unknown
if [ -d "$root/.git" ]; then
	commit=$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)
fi
(
	cd "$root/gpubench"
	GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
		GOTOOLCHAIN=local GOPROXY=off GOWORK=off go build -o "$out/gpubench" .
)
exec "$out/gpubench" --artifacts "$out" --commit "$commit" "$@"
