//! Page-granular storage primitives: the pager and the buffer pool.
//!
//! The paper motivates compression with I/O: "in the case of large
//! relations, the information will reside on secondary storage, and hence we
//! need to minimize I/O traffic" (§2.2). This crate is the bottom layer of
//! that story — deliberately free of any closure types so both the
//! page-resident stores (`tc-store`) and the out-of-core frozen plane
//! (`tc-core`'s `PagedPlane`) can build on it:
//!
//! * [`Pager`] — a page-granular disk: either an in-memory simulation with
//!   read/write counters, or a real `File` addressed with `pread`/`pwrite`,
//!   optionally windowed to a byte region of a larger stream (how a `PLN2`
//!   plane section embedded behind an `ITC1` stream is addressed).
//! * [`BufferPool`] — exact-LRU caching over a pager with hit/miss/eviction
//!   statistics, O(1) per fetch: a dense page table and an intrusive
//!   recency list, with misses read in place into the evicted frame.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod bufpool;
mod pager;

pub use bufpool::{BufferPool, PoolStats};
pub use pager::{PageId, Pager, DEFAULT_PAGE_SIZE};
