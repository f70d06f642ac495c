#!/usr/bin/env bash
# Build sigbench (release, offline, from source) and run it with the given
# arguments, from the root of the checkout:
#
#   bash benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1   one run (the driver's form)
#   bash benchmark/run.sh [--runs R] [--trace]                               the suite, every workload
#   bash benchmark/run.sh --aa [--runs R]                                    the suite twice, compared
#   bash benchmark/run.sh --smoke                                            every gate, small and quick
#   bash benchmark/run.sh --compare A.json B.json
#
# See benchmark/README.md.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

# The build lands outside the benchmark's own directory, which holds sources
# only; both locations are in the root .gitignore.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
# Cargo's own output goes to stderr; stdout is the benchmark's alone.
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
exec "$CARGO_TARGET_DIR/release/sigbench" "$@"
