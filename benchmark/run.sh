#!/usr/bin/env bash
# The one command of BENCHMARK.json: builds the program under test
# (`repsbench`) and this package, then runs `repsperf` with the given
# arguments (`--workload W --seed N --seconds N --trace 0|1`; none = all
# workloads end to end, then traced). Builds land in $CARGO_TARGET_DIR when
# set, else in target/ (program) and benchmark/target/ (benchmark).
set -euo pipefail
cd "$(dirname "$0")/.."
program_target="${CARGO_TARGET_DIR:-target}"
bench_target="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --release --offline --quiet -p sweep --bin repsbench
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
exec "$bench_target/release/repsperf" --repsbench "$program_target/release/repsbench" "$@"
