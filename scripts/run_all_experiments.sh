#!/usr/bin/env bash
# Regenerate every paper table/figure and the ablations, capturing outputs
# under results/. Pass --full to scale toward paper sizes.
set -u
cd "$(dirname "$0")/.."
mkdir -p results
FLAG="${1:-}"
for bin in repro_fig1 repro_table3 repro_fig5 repro_fig6 repro_fig7 \
           repro_fig8 repro_fig9a repro_fig9b repro_ablations; do
    echo "=== $bin $FLAG ==="
    cargo run --quiet -p mf-bench --release --bin "$bin" -- $FLAG \
        > "results/${bin}${FLAG:+_full}.txt" 2>&1
    tail -3 "results/${bin}${FLAG:+_full}.txt"
done
# Serve load test: cross-request batching vs per-request launches in the
# long-lived solve service (closed-loop A/B plus an open-loop phase).
echo "=== repro_serve $FLAG ==="
cargo run --quiet -p mf-bench --release --bin repro_serve -- $FLAG --open-loop 2000 \
    > "results/repro_serve${FLAG:+_full}.txt" 2>&1
tail -4 "results/repro_serve${FLAG:+_full}.txt"
echo "outputs in results/"
