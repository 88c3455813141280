#!/usr/bin/env bash
# The one command of the benchmark: builds the package, then runs it.
#
#   benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#       one run of one workload (what the benchmark driver calls)
#   benchmark/run.sh [--seed N] [--seconds S]
#       the full set: interleaved untraced runs, traced runs, probe pass,
#       results/latest.json
#   benchmark/run.sh --smoke            the full set at toy sizes (~20 s)
#   benchmark/run.sh --repeat-check     the untraced set twice, compared
#                                       against the bounds in BENCHMARK.json
#   benchmark/run.sh --unit-tests       the harness's own unit tests
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
repo="$(dirname "$here")"

# The kernel pool is capped at one thread: with the default pool two worker
# threads oversubscribe a two-core box, half the CPU time turns into `sys`
# and identical runs differ by 2x.
export VC_THREADS=1

# Host facts the binary cannot learn without starting processes itself.
export VC_BENCH_RUSTC="${VC_BENCH_RUSTC:-$(rustc --version 2>/dev/null || echo unknown)}"
export VC_BENCH_COMMIT="${VC_BENCH_COMMIT:-$(GIT_CEILING_DIRECTORIES="$(dirname "$repo")" \
    git -C "$repo" rev-parse --short HEAD 2>/dev/null || echo unknown)}"

# The driver sets CARGO_TARGET_DIR; on its own the package builds into
# benchmark/target. There is no network: the build is always offline.
target="${CARGO_TARGET_DIR:-$here/target}"
manifest="$here/Cargo.toml"

if [[ "${1:-}" == "--unit-tests" ]]; then
    exec cargo test --offline --release --manifest-path "$manifest" --target-dir "$target"
fi

# Build output goes to stderr: the last line of stdout is the result.
cargo build --offline --release --manifest-path "$manifest" --target-dir "$target" >&2

exec "$target/release/vc-benchmark" \
    --results-dir "$here/results" \
    --manifest "$repo/BENCHMARK.json" \
    "$@"
