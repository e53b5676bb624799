#!/usr/bin/env bash
# Builds vmbench (release, fat LTO — the simulator's own settings) and runs it.
#
#   benchmark/run.sh                       the whole suite: prints every metric,
#                                          checks outputs, writes benchmark/out/
#   benchmark/run.sh --sets 2              the suite twice, then compare on itself
#   benchmark/run.sh --smoke               budgets / 100, 2 repetitions
#   benchmark/run.sh compare A.json B.json
#   benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#                                          one contract run (BENCHMARK.json)
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"

case "${1:-}" in
    --workload | run | compare | manifest) ;;
    *)
        commit="$(git -C "$here" rev-parse --short HEAD 2>/dev/null || echo unknown)"
        set -- run --seed 1 --commit "$commit" --date "$(date -u +%F)" "$@"
        ;;
esac

# Cargo's own output goes to stderr, so stdout carries only vmbench's.
exec cargo run --release --quiet --offline --manifest-path "$here/Cargo.toml" -- "$@"
