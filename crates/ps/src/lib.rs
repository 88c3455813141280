//! # vc-ps — the sharded parameter service
//!
//! The paper stores "all the parameters of a model as a single value" in
//! one database key, so every assimilation serializes on one row and every
//! fetch ships the full 21.2 MB file. This crate splits the flat parameter
//! vector into `P` contiguous shards — each its own store key, version
//! counter, and per-shard VC-ASGD merge — behind a length-prefixed binary
//! wire protocol with one codec (one encoder, [`SealedFrame::write_to`],
//! and one decoder, [`wire::read_frame`]) and two transports that are only
//! byte pipes under one client fetch body and one server request body
//! (`PsService::serve`):
//!
//! * **TCP** ([`TcpPsServer`]/[`TcpClient`]): blocking sockets on loopback,
//!   one listener for every shard and one stream per worker, so a sync is
//!   one request as it is in process.
//! * **In-memory** ([`MemClient`]): a loopback byte stream into an
//!   in-process service, whose flush serves the request — synchronous and
//!   threadless, so deterministic simulation sweeps stay single-threaded
//!   and byte-identical, and run the socket's codec.
//!
//! Because the Eq. (1) blend is elementwise, sharding never changes the
//! math: `P = 1` reproduces the single-value store *exactly* (same key,
//! same operation sequence), and any `P` produces bitwise-identical
//! parameters under the same merge order. What sharding changes is
//! contention — concurrent mergers pipeline through shards instead of
//! serializing on one row — and wire traffic: workers cache shards by
//! version ([`ShardCache`]) and fetch only what moved.
//!
//! There is one way into the model. The wire protocol is fetch-only — a
//! worker can read the published snapshots and nothing else — and a
//! trained replica reaches the store as in the paper (§III-A): uploaded to
//! the scheduler, validated, then blended by the assimilator through
//! [`ShardedAssimilator::begin`] / [`ShardedAssimilator::finish`].

#[doc(hidden)]
mod bench_compat;
pub mod client;
pub mod codec;
pub mod merge;
pub mod service;
pub mod shard;
pub mod tcp;
pub mod wire;

/// The shared buffer a shard blob lives in: in the store, a frame, a checkpoint.
pub use bytes::Bytes;
pub use client::{FetchSink, MemClient, PsClient, PsError, ShardCache};
pub use codec::Codec;
pub use merge::{
    ShardSnapshot, ShardedAssimilator, PARAMS_KEY, PS_MERGE_S, PS_SHARD_SKEW_VERSIONS,
};
pub use service::{PsOps, PsService};
pub use shard::ShardLayout;
pub use tcp::{TcpClient, TcpPsServer};
pub use wire::{
    crc32, Crc32, FetchReq, FetchSummary, Frame, FrameKind, FrameReadError, SealedFrame, WireError,
    HEADER_LEN, MAX_PAYLOAD,
};
