#!/usr/bin/env bash
# The benchmark's one command. Builds the benchmark package (and with it the
# product crates, from source, in release mode) and hands every argument on;
# `--list` and the header of benches/main.rs name the subcommands.
set -euo pipefail
here=$(dirname "${BASH_SOURCE[0]}")
export ETHMETER_BENCHMARK_DIR=$here
exec cargo run --release --offline --quiet --manifest-path "$here/Cargo.toml" -- "$@"
