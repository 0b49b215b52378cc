#!/bin/sh
# Build offline and run every workload (timed pass, then traced pass) with
# the default seed. Leaves benchmark/out/results.json and one
# benchmark/out/trace_<workload>.json per workload. Extra arguments go to
# `run` (e.g. --seed 7, --workload serve_hot, --seconds 5).
set -eu
cd "$(dirname "$0")/.."
exec cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- run "$@"
