#!/usr/bin/env bash
# Run every workload of the benchmark, timed (end-to-end metrics) and
# traced (per-layer metrics), with one seed:
#   bash crcwbench/run_all.sh [seed] [seconds]
set -euo pipefail
cd "$(dirname "$0")/.."
seed="${1:-1}"
seconds="${2:-25}"
for workload in bfs-rmat18 bfs-path14 cc-rmat16 max2048; do
    for trace in 0 1; do
        echo "== $workload trace=$trace"
        cargo run --quiet --release --offline --manifest-path crcwbench/Cargo.toml -- \
            --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace"
    done
done
