#!/usr/bin/env bash
# Bitwise gate for the end-to-end benchmark.
#
# Runs perfbench on `deco_stream` and `serve_fleet` with `--seconds 0`
# (each stops at the fixed minimum stream its tail percentile needs: 48
# segments and 24 calls) and fails unless each prints its pinned
# `# digest` line. A change that claims to keep every output bit must
# pass it unchanged; only a change that means to alter the numerics may
# re-pin, and says so.
#
# The pins were recorded on x86_64 (built with `target-cpu=native`, as
# `.cargo/config.toml` sets). rustc never contracts `a*b + c` to FMA, so
# the bits hold across x86_64 vector widths; like the golden traces
# (docs/testing.md), they may differ on another architecture or compiler.
#
# Usage: scripts/check_digests.sh   (from any directory)
set -euo pipefail
cd "$(dirname "$0")/.."

status=0
check() {
    local workload=$1 want=$2 got
    got=$(cargo run --release --quiet --manifest-path perfbench/Cargo.toml -- \
        --workload "$workload" --seed 3 --seconds 0 --trace 0 |
        sed -n 's/^# digest //p')
    if [[ "$got" == "$want" ]]; then
        echo "check_digests: $workload digest $got ok"
    else
        echo "check_digests: $workload digest '${got}', pinned $want" >&2
        status=1
    fi
}

check deco_stream c10a2cc9d38f8ac9
check serve_fleet da2f686f70e98bfe
exit "$status"
