#!/usr/bin/env bash
# The benchmark crate's own gate: format, lints, tests, and a quick pass
# over every workload (2 s windows; only wrong answers fail it). Offline,
# building into the repository's target/ so nothing is compiled twice.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo_b() {
    local cmd=$1
    shift
    cargo "$cmd" --offline --manifest-path benchmark/Cargo.toml --target-dir target "$@"
}

cargo fmt --manifest-path benchmark/Cargo.toml -- --check
cargo_b clippy --all-targets -- -D warnings
cargo_b test
cargo_b run --release --quiet -- --all --quick
