//! Paged secondary storage: pager, buffer pool, and page-resident stores.
//!
//! The paper motivates compression with I/O: "in the case of large
//! relations, the information will reside on secondary storage, and hence we
//! need to minimize I/O traffic" (§2.2). This crate supplies the storage
//! substrate: a [`Pager`] is a page-granular disk — either an in-memory
//! simulation with read/write counters, or a real `File` addressed with
//! `pread`/`pwrite` (optionally windowed to a section of a larger stream) —
//! and a [`BufferPool`] adds exact-LRU caching, O(1) per fetch, with
//! hit/miss statistics.
//!
//! Two layers build on it. The **paged query plane** in `tc-core`
//! (`PagedPlane`) serves frozen-closure reachability straight from a `PLN1`
//! file section through the pool, so graphs larger than RAM stay queryable.
//! And three page-resident stores replay the paper's §3.3 storage-layout
//! comparison, with every page touch counted:
//!
//! * [`LabelStore`] — the compressed closure's interval records; a
//!   reachability query typically costs **one** page read.
//! * [`TcListStore`] — the full materialized closure as successor lists;
//!   a membership query scans a list that may span many pages.
//! * [`AdjStore`] — the base relation's adjacency lists; answering by
//!   pointer chasing reads one record per visited node.
//!
//! Records are plain little-endian integers encoded with `std` alone. The
//! `io_costs` experiment binary in `tc-bench` drives all three over the
//! same query mix.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod blob;
mod stores;

pub use blob::BlobStore;
// The pager and buffer pool live in the dependency-free `tc-pager` crate
// (so `tc-core`'s paged plane can use them without a cycle); re-exported
// here unchanged.
pub use tc_pager::{BufferPool, PageId, Pager, PoolStats, DEFAULT_PAGE_SIZE};
pub use stores::{AdjStore, LabelStore, TcListStore};
