#!/usr/bin/env bash
# Smoke test of the benchmark itself: builds the driver offline, then runs
# `check` and all four workloads (untraced and traced) at --smoke sizes
# (300 organic, 2 campaigns x 8, 4 h + 5 h, like `perf bench --quick`).
# About 30 s from a cold build, a few seconds from a warm one.
#
# The driver exits non-zero on any verdict that is missing or differs
# from the reference (a non-zero failed count), on a digest mismatch and
# on an invalid generator lag, so `set -e` is the whole gate. This is the
# hook a later change wires into ci.sh.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml"
bin="${CARGO_TARGET_DIR:-$here/target}/release/ph-benchmark"

"$bin" check --smoke
for workload in gt_train sniff_durable serve_paced serve_flood; do
    for trace in 0 1; do
        "$bin" --workload "$workload" --smoke --seconds 1 --trace "$trace" \
            --out "$here/out/smoke" | tail -n 1 | cut -c1-72
    done
done
echo "benchmark smoke: ok"
