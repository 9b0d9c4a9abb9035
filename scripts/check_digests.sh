#!/usr/bin/env bash
# Bitwise and heap gates for the end-to-end benchmark.
#
# Runs perfbench on `deco_stream` and `serve_fleet` with `--seconds 0`
# (each stops at the fixed minimum stream its tail percentile needs: 48
# segments and 24 calls) and fails unless each prints its pinned
# `# digest` line. A change that claims to keep every output bit must
# pass it unchanged; only a change that means to alter the numerics may
# re-pin, and says so.
#
# The same runs must also keep `peak_heap_bytes` at or below a limit:
#
# - `deco_stream` at 14 MiB. Its 100-image train steps convolve as
#   implicit GEMMs (crates/tensor/src/ops/conv.rs), so the tape keeps no
#   im2col slab; with the slabs (4 + 2 + 0.5 MiB of pool buffers per
#   step) it read 17.45 MB, without them 11.16 MB, and 11.05 MB
#   (11,053,164 bytes) since the input gradient stopped taking a
#   column matrix per call. The run is single-threaded, so the value
#   repeats from run to run.
# - `serve_fleet` at 48 MiB. Its sixteen session buffers are 30.8 KB
#   each; what fills the heap beyond the sessions is the two threads'
#   tensor pools, which park only what their own thread takes back
#   (crates/tensor/src/pool.rs). A pool that parks every dropped buffer
#   again reads well over 100 MB here.
#
# The pins were recorded on x86_64 (built with `target-cpu=native`, as
# `.cargo/config.toml` sets). rustc never contracts `a*b + c` to FMA, so
# the bits hold across x86_64 vector widths; like the golden traces
# (docs/testing.md), they may differ on another architecture or compiler.
#
# Usage: scripts/check_digests.sh   (from any directory)
set -euo pipefail
cd "$(dirname "$0")/.."

DECO_STREAM_MAX_HEAP_BYTES=14680064
SERVE_FLEET_MAX_HEAP_BYTES=50331648

status=0
check() {
    local workload=$1 want=$2 max_heap=$3 out got heap
    out=$(cargo run --release --quiet --manifest-path perfbench/Cargo.toml -- \
        --workload "$workload" --seed 3 --seconds 0 --trace 0)
    got=$(sed -n 's/^# digest //p' <<<"$out")
    if [[ "$got" == "$want" ]]; then
        echo "check_digests: $workload digest $got ok"
    else
        echo "check_digests: $workload digest '${got}', pinned $want" >&2
        status=1
    fi
    heap=$(sed -n 's/^peak_heap_bytes \([0-9]*\) bytes$/\1/p' <<<"$out")
    if [[ -n "$heap" && "$heap" -le "$max_heap" ]]; then
        echo "check_digests: $workload peak_heap_bytes $heap ok"
    else
        echo "check_digests: $workload peak_heap_bytes '${heap}'," \
            "limit $max_heap" >&2
        status=1
    fi
}

check deco_stream c10a2cc9d38f8ac9 "$DECO_STREAM_MAX_HEAP_BYTES"
check serve_fleet da2f686f70e98bfe "$SERVE_FLEET_MAX_HEAP_BYTES"
exit "$status"
