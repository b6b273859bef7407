#!/usr/bin/env bash
# Builds homeguardd, homeguardgw and the benchmark driver from the tree
# and runs the driver. Run from the repository root:
#
#   bash perfbench/run.sh --workload install-warm --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and every file a run writes stay
# under .bench_build in the repository root.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/homeguardd" || ! -d "$root/cmd/homeguardgw" ]]; then
	echo "perfbench: run from the homeguard repository root (go.mod and cmd/ not found)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(cd "$root/perfbench" && go build -o "$out/bin/" homeguard/cmd/homeguardd homeguard/cmd/homeguardgw .) >&2

exec "$out/bin/perfbench" -bin "$out/bin" -work "$out/run" "$@"
