//! # tc-server — network serving front end for the interval-tc closure
//!
//! The paper's premise is a *database-resident* transitive-closure index
//! answering relationship queries for large knowledge bases; this crate is
//! the wire between that index and its callers. It layers three things on
//! top of the in-process serving machinery ([`tc_core::ShardedService`]):
//!
//! * **Dictionary encoding** ([`dict::Dict`]) — external callers speak
//!   string keys (`"part-7"`, `"person/alice"`), never raw `u32` node ids.
//!   The dictionary is append-only with tombstone reuse and persists via
//!   its own checksummed codec section (`DIC1`), mutation-fuzzed like the
//!   closure codec.
//! * **A line protocol** ([`proto`]) — one request per LF-terminated line,
//!   one `ok ...` / `err <code> ...` response line back. Malformed input
//!   (oversized lines, unknown verbs, bad UTF-8, unknown keys, half-closed
//!   sockets) yields a protocol-level error response, never a disconnect
//!   and never a panic.
//! * **A threaded TCP daemon** ([`server::Server`]) — std-only: one accept
//!   loop, one thread per connection, each connection owning its own
//!   zero-lock [`tc_core::ShardedReader`]. Writes funnel through the
//!   validating front end and the per-shard background writers, so the
//!   daemon inherits the serving layer's staleness model: every answer is
//!   some *prefix* of the accepted write sequence, at most one flush
//!   interval behind.
//!
//! The [`client::Client`] is the matching blocking connector used by the
//! integration tests, the perf ledger's wire workloads and the
//! `kb_scale` bench.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod client;
pub mod dict;
pub mod engine;
pub mod proto;
pub mod server;

pub use client::Client;
pub use dict::{Dict, DictError};
pub use engine::{Engine, EngineConfig};
pub use proto::{parse, ProtoError, Request, MAX_LINE};
pub use server::{Server, ServerConfig};
