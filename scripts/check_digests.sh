#!/usr/bin/env bash
# Bitwise and heap gate for the end-to-end benchmark.
#
# Runs perfbench on `deco_stream` and `serve_fleet` with `--seconds 0`
# (each stops at the fixed minimum stream its tail percentile needs: 48
# segments and 24 calls) and fails unless each prints its pinned
# `# digest` line. A change that claims to keep every output bit must
# pass it unchanged; only a change that means to alter the numerics may
# re-pin, and says so.
#
# The same `serve_fleet` run must also keep `peak_heap_bytes` at or below
# 48 MiB. Its sixteen session buffers are 30.8 KB each; what fills the
# heap beyond the sessions is the two threads' tensor pools, which park
# only what their own thread takes back (crates/tensor/src/pool.rs). A
# pool that parks every dropped buffer again reads well over 100 MB here.
#
# The pins were recorded on x86_64 (built with `target-cpu=native`, as
# `.cargo/config.toml` sets). rustc never contracts `a*b + c` to FMA, so
# the bits hold across x86_64 vector widths; like the golden traces
# (docs/testing.md), they may differ on another architecture or compiler.
#
# Usage: scripts/check_digests.sh   (from any directory)
set -euo pipefail
cd "$(dirname "$0")/.."

SERVE_FLEET_MAX_HEAP_BYTES=50331648

status=0
check() {
    local workload=$1 want=$2 out got
    out=$(cargo run --release --quiet --manifest-path perfbench/Cargo.toml -- \
        --workload "$workload" --seed 3 --seconds 0 --trace 0)
    got=$(sed -n 's/^# digest //p' <<<"$out")
    if [[ "$got" == "$want" ]]; then
        echo "check_digests: $workload digest $got ok"
    else
        echo "check_digests: $workload digest '${got}', pinned $want" >&2
        status=1
    fi
    if [[ "$workload" == serve_fleet ]]; then
        local heap
        heap=$(sed -n 's/^peak_heap_bytes \([0-9]*\) bytes$/\1/p' <<<"$out")
        if [[ -n "$heap" && "$heap" -le "$SERVE_FLEET_MAX_HEAP_BYTES" ]]; then
            echo "check_digests: $workload peak_heap_bytes $heap ok"
        else
            echo "check_digests: $workload peak_heap_bytes '${heap}'," \
                "limit $SERVE_FLEET_MAX_HEAP_BYTES" >&2
            status=1
        fi
    fi
}

check deco_stream c10a2cc9d38f8ac9
check serve_fleet da2f686f70e98bfe
exit "$status"
