//! Page-resident reachability stores.
//!
//! Every record is a little-endian `u32` entry count followed by its
//! entries: `(lo, hi)` endpoint pairs for labels, node ids for lists.

use tc_core::CompressedClosure;
use tc_graph::{BitSet, DiGraph, NodeId};

use crate::{BlobStore, BufferPool};

/// Encodes a record: the entry count, then each `u32` entry.
fn u32_record(count: usize, entries: impl IntoIterator<Item = u32>) -> Vec<u8> {
    let mut rec = (count as u32).to_le_bytes().to_vec();
    for e in entries {
        rec.extend_from_slice(&e.to_le_bytes());
    }
    rec
}

/// The entries of a record, each `width` bytes wide, count prefix skipped.
fn entries(rec: &[u8], width: usize) -> impl Iterator<Item = u64> + '_ {
    rec[4..].chunks_exact(width).map(|field| {
        let mut le = [0u8; 8];
        le[..field.len()].copy_from_slice(field);
        u64::from_le_bytes(le)
    })
}

/// The compressed closure on disk: one interval-list record per node, plus
/// an in-memory postorder index (the analogue of a key index a DBMS would
/// keep hot).
///
/// A reachability query reads the source node's record — typically a single
/// page — and does one binary-search-equivalent scan of its few intervals.
#[derive(Debug)]
pub struct LabelStore {
    blob: BlobStore,
    post: Vec<u64>,
    /// Bytes per stored endpoint: 8 (u64), or 4 (u32) when every endpoint
    /// fits. A closure built with `gap(1)` — the natural choice for a static
    /// disk image — fits in u32, matching the 4-byte entries of successor
    /// lists.
    width: usize,
}

impl LabelStore {
    /// Serializes the closure's labels onto a fresh disk. Endpoint width is
    /// chosen automatically from the largest postorder number.
    pub fn build(closure: &CompressedClosure, page_size: usize) -> Self {
        let n = closure.node_count();
        let wide = closure
            .graph()
            .nodes()
            .any(|v| closure.intervals(v).iter().any(|iv| iv.hi() > u32::MAX as u64));
        let width = if wide { 8 } else { 4 };
        let mut records = Vec::with_capacity(n);
        let mut post = Vec::with_capacity(n);
        for v in closure.graph().nodes() {
            post.push(closure.post_number(v));
            let set = closure.intervals(v);
            let mut rec = Vec::with_capacity(4 + 2 * width * set.count());
            rec.extend_from_slice(&(set.count() as u32).to_le_bytes());
            for iv in set.iter() {
                for end in [iv.lo(), iv.hi()] {
                    rec.extend_from_slice(&end.to_le_bytes()[..width]);
                }
            }
            records.push(rec);
        }
        LabelStore {
            blob: BlobStore::build(&records, page_size),
            post,
            width,
        }
    }

    /// Disk-resident reachability query.
    pub fn reaches(&self, src: NodeId, dst: NodeId, pool: &mut BufferPool) -> bool {
        let target = self.post[dst.index()];
        let rec = self.blob.read(src.index(), pool);
        let mut ends = entries(&rec, self.width);
        while let (Some(lo), Some(hi)) = (ends.next(), ends.next()) {
            if lo <= target && target <= hi {
                return true;
            }
        }
        false
    }

    /// The underlying record store (counters, page counts).
    pub fn blob(&self) -> &BlobStore {
        &self.blob
    }
}

/// The full materialized transitive closure on disk: one sorted successor
/// list per node. Long lists span many pages — the storage *and* I/O cost
/// the compression scheme is built to avoid.
#[derive(Debug)]
pub struct TcListStore {
    blob: BlobStore,
}

impl TcListStore {
    /// Materializes the closure of `g` and serializes the successor lists.
    pub fn build(g: &DiGraph, page_size: usize) -> Self {
        let rows = tc_graph::traverse::closure_rows(g);
        let records: Vec<Vec<u8>> = rows
            .iter()
            .enumerate()
            .map(|(ix, row)| {
                let succ: Vec<u32> = row
                    .iter()
                    .filter(|&v| v != ix)
                    .map(|v| v as u32)
                    .collect();
                u32_record(succ.len(), succ)
            })
            .collect();
        TcListStore {
            blob: BlobStore::build(&records, page_size),
        }
    }

    /// Disk-resident reachability query: reads the whole successor record
    /// and binary-searches it.
    pub fn reaches(&self, src: NodeId, dst: NodeId, pool: &mut BufferPool) -> bool {
        if src == dst {
            return true;
        }
        let rec = self.blob.read(src.index(), pool);
        let succ: Vec<u64> = entries(&rec, 4).collect();
        succ.binary_search(&(dst.0 as u64)).is_ok()
    }

    /// The underlying record store.
    pub fn blob(&self) -> &BlobStore {
        &self.blob
    }
}

/// The base relation's adjacency lists on disk, queried by pointer chasing —
/// "the current approach" (§2.1). Every node visited during the DFS costs a
/// record read.
#[derive(Debug)]
pub struct AdjStore {
    blob: BlobStore,
    nodes: usize,
}

impl AdjStore {
    /// Serializes `g`'s adjacency onto a fresh disk.
    pub fn build(g: &DiGraph, page_size: usize) -> Self {
        let records: Vec<Vec<u8>> = g
            .nodes()
            .map(|v| {
                let succ = g.successors(v);
                u32_record(succ.len(), succ.iter().map(|s| s.0))
            })
            .collect();
        AdjStore {
            blob: BlobStore::build(&records, page_size),
            nodes: g.node_count(),
        }
    }

    /// Disk-resident DFS reachability query.
    pub fn reaches(&self, src: NodeId, dst: NodeId, pool: &mut BufferPool) -> bool {
        if src == dst {
            return true;
        }
        let mut visited = BitSet::new(self.nodes);
        visited.insert(src.index());
        let mut stack = vec![src];
        while let Some(node) = stack.pop() {
            let rec = self.blob.read(node.index(), pool);
            for succ in entries(&rec, 4) {
                let succ = NodeId(succ as u32);
                if succ == dst {
                    return true;
                }
                if visited.insert(succ.index()) {
                    stack.push(succ);
                }
            }
        }
        false
    }

    /// The underlying record store.
    pub fn blob(&self) -> &BlobStore {
        &self.blob
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tc_graph::generators;

    fn sample_graph() -> DiGraph {
        generators::random_dag(generators::RandomDagConfig {
            nodes: 60,
            avg_out_degree: 2.5,
            seed: 13,
        })
    }

    #[test]
    fn all_three_stores_agree_with_dfs() {
        let g = sample_graph();
        let closure = CompressedClosure::build(&g).unwrap();
        let labels = LabelStore::build(&closure, 256);
        let tclists = TcListStore::build(&g, 256);
        let adj = AdjStore::build(&g, 256);
        let mut p1 = BufferPool::new(16);
        let mut p2 = BufferPool::new(16);
        let mut p3 = BufferPool::new(16);
        for u in g.nodes() {
            let truth = tc_graph::traverse::reachable_set(&g, u);
            for v in g.nodes() {
                let expect = truth.contains(v.index());
                assert_eq!(labels.reaches(u, v, &mut p1), expect, "labels ({u:?},{v:?})");
                assert_eq!(tclists.reaches(u, v, &mut p2), expect, "tclists ({u:?},{v:?})");
                assert_eq!(adj.reaches(u, v, &mut p3), expect, "adj ({u:?},{v:?})");
            }
        }
    }

    #[test]
    fn label_queries_touch_few_pages() {
        let g = sample_graph();
        let closure = CompressedClosure::build(&g).unwrap();
        let labels = LabelStore::build(&closure, 4096);
        // Cold cache, one query:
        let mut pool = BufferPool::new(1);
        labels.reaches(NodeId(0), NodeId(59), &mut pool);
        assert!(
            labels.blob().pager().reads() <= 2,
            "interval record should span at most a couple of pages"
        );
    }

    #[test]
    fn pointer_chasing_costs_scale_with_path_visits() {
        // A long chain: querying end-to-end reachability by pointer chasing
        // must read one record per visited node (dozens of distinct pages),
        // while the label store reads exactly one page.
        let g = generators::chain(5000);
        let closure = CompressedClosure::build(&g).unwrap();
        let labels = LabelStore::build(&closure, 256);
        let adj = AdjStore::build(&g, 256);

        let mut cold = BufferPool::new(1); // capacity 1 = effectively no caching
        adj.reaches(NodeId(0), NodeId(4999), &mut cold);
        let chasing_reads = adj.blob().pager().reads();

        let mut cold = BufferPool::new(1);
        labels.reaches(NodeId(0), NodeId(4999), &mut cold);
        let label_reads = labels.blob().pager().reads();

        assert!(
            chasing_reads > 50 * label_reads,
            "chasing {chasing_reads} vs labels {label_reads}"
        );
        assert_eq!(label_reads, 1);
    }

    #[test]
    fn closure_lists_span_many_pages_on_dense_graphs() {
        let g = generators::random_dag(generators::RandomDagConfig {
            nodes: 300,
            avg_out_degree: 4.0,
            seed: 3,
        });
        let tclists = TcListStore::build(&g, 256);
        // gap(1) keeps numbers small, so endpoints pack as u32 — the natural
        // encoding for a static disk image.
        let closure = tc_core::ClosureConfig::new().gap(1).build(&g).unwrap();
        let labels = LabelStore::build(&closure, 256);
        // Total footprint: the compressed labels occupy fewer pages.
        assert!(
            labels.blob().page_count() < tclists.blob().page_count(),
            "labels {} pages vs closure lists {} pages",
            labels.blob().page_count(),
            tclists.blob().page_count()
        );
    }
}
