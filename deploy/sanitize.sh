#!/usr/bin/env bash
# AddressSanitizer over the code that holds the repo's hand-written
# `unsafe`: on the parameter path, the int8 kernels of `vc-tensor::quant`
# (one scalar body each, run as written and compiled under AVX2; its
# unchecked float -> int truncation and the i8 <-> u8 slice views) and
# everything `vc-ps` drives them with — the block-wise encoder, the token
# walker over hostile bytes, the fused publish and the in-place delta
# apply; on the compute path, `vc-tensor::conv_direct` (the raw loads and
# stores of its `isa::Lanes` tiles over the staged image and the bands, at
# 16, 8 and 1 lanes, and the raw-pointer slot arithmetic that gives each
# pool participant its own staging slot and dx band) and the GEMM's
# `Lanes` micro-tile.
#
# Usage: deploy/sanitize.sh [extra `cargo test` arguments]
#
#   Runs, under `RUSTFLAGS=-Zsanitizer=address` on the nightly toolchain:
#     vc-tensor  lib unit tests + tests/quant_kernels.rs (every kernel at
#                every tier the host has, every length and tail)
#                + tests/conv_direct_props.rs (every case on every tier the
#                host has via `isa::with_tier_cap`: the 16-lane body where
#                AVX-512F is present, the 8-lane body under an AVX2 cap and
#                the one-lane body of the portable tier, on a 4-thread pool
#                so slots past the first are used; its 1×1 cases run the
#                GEMM micro-tile at every tier too)
#                + tests/gemm_blocking.rs (the k-blocked GEMM at its block
#                boundaries, every layout and epilogue, every tier, on a
#                4-thread pool)
#     vc-nn      the `preact` unit tests (the fused unit against its three
#                layers: uncapped, under an AVX2 cap and portable)
#     vc-ps      tests/codec_props.rs + tests/wire_props.rs
#   An out-of-bounds lane, a misaligned assumption or a use after free
#   aborts the test binary with ASan's report; exit status is cargo's.
#
#   Needs no network and no `rust-src`: the installed nightly ships the
#   sanitizer runtime, and `--target` keeps the flag off build scripts and
#   proc macros. Builds into target/sanitize (override with
#   CARGO_TARGET_DIR) so the ordinary build cache is left alone.
set -euo pipefail

repo="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$repo"

export RUSTFLAGS="-Zsanitizer=address ${RUSTFLAGS:-}"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$repo/target/sanitize}"
# One kernel thread where the pool's workers are not what is under test.
export VC_THREADS=1

run() {
    cargo +nightly test --offline --target x86_64-unknown-linux-gnu "$@"
}

run -p vc-tensor --lib "$@"
run -p vc-tensor --test quant_kernels "$@"
# Here the pool's slot indices are what is under test: four participants,
# each tier in turn.
VC_THREADS=4 run -p vc-tensor --test conv_direct_props "$@"
# The GEMM's per-participant A slots, its carry rows and the micro-tile's
# in-place loads and stores across k-blocks, at every tier.
VC_THREADS=4 run -p vc-tensor --test gemm_blocking "$@"
run -p vc-nn --lib preact "$@"
run -p vc-ps --test codec_props --test wire_props "$@"
