//! Memory gate: what a build keeps and what a resident freeze allocates,
//! counted byte for byte by a global allocator.
//!
//! This binary holds a single test, so no other test allocates while the
//! counter runs. Both bounds are per interval and per node, on the graph
//! `construction_output_is_pinned` pins: a build keeps at most the labels'
//! 16 bytes per interval plus a per-node allowance (no spare `Vec`
//! capacity), and a freeze's transient peak is its payload plus a per-node
//! allowance (no per-interval staging). The freeze is gated twice: fresh,
//! and after seeded §4 churn has left dead numbers for rank merging to
//! drop, where the spill reserved from the source interval counts is
//! furthest from the merged rows written into it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use tc_core::{ClosureConfig, CompressedClosure};
use tc_graph::NodeId;
use tc_graph::generators;
use tc_pager::DEFAULT_PAGE_SIZE;

/// Counts live heap bytes and their high-water mark.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let now = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(now, Ordering::Relaxed);
}

fn shrank(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
}

// SAFETY: every call forwards to `System` unchanged; the counters only
// observe the sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                shrank(layout.size() - new_size);
            }
        }
        p
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Bytes a build may keep per node beyond its labels' intervals: the
/// graph copy with both adjacency lists, the cover, three label arrays,
/// the set headers and the number line. This graph keeps about 187; the
/// spare capacity of untrimmed sets would add about 90 more.
const BUILD_PER_NODE: usize = 224;
/// Bytes a resident freeze may take per node beyond its payload: the rank
/// and line arrays, the rank index, the cutoff labels and row scratch.
/// This graph takes about 37, fresh and churned alike; a writer that
/// staged 8 bytes per merged interval would take about 145.
const FREEZE_PER_NODE: usize = 48;
/// Seeded §4 operations applied before the second freeze.
const CHURN_OPS: usize = 1000;

#[test]
fn builds_keep_only_their_labels_and_freezes_only_their_image() {
    let g = generators::random_dag(generators::RandomDagConfig {
        nodes: 2000,
        avg_out_degree: 2.0,
        seed: 1,
    });
    let n = g.node_count();

    let before = LIVE.load(Ordering::Relaxed);
    let mut c = ClosureConfig::new().gap(64).reserve(16).build(&g).unwrap();
    let kept = LIVE.load(Ordering::Relaxed) - before;
    let intervals = c.total_intervals();
    let allowed = 16 * intervals + BUILD_PER_NODE * n;
    assert!(
        kept <= allowed,
        "build keeps {kept} B for {intervals} intervals on {n} nodes, over {allowed} B"
    );

    assert_freeze_within(&mut c, "fresh");

    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = move |below: usize| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % below as u64) as usize
    };
    for _ in 0..CHURN_OPS {
        let n = c.node_count();
        let (u, v) = (NodeId::from_index(next(n)), NodeId::from_index(next(n)));
        match next(4) {
            0 => {
                c.add_node_with_parents(&[u]).unwrap();
            }
            // A refused cycle skips its turn.
            1 => {
                let _ = c.add_edge(u, v);
            }
            2 => {
                if let Some(&w) = c.graph().successors(u).first() {
                    c.remove_edge(u, w).unwrap();
                }
            }
            _ => c.remove_node(u).unwrap(),
        }
    }
    assert_freeze_within(&mut c, "churned");
}

/// Freezes `c` and asserts the freeze's peak above its start stays within
/// the payload plus [`FREEZE_PER_NODE`] per node.
fn assert_freeze_within(c: &mut CompressedClosure, what: &str) {
    let n = c.node_count();
    let start = LIVE.load(Ordering::Relaxed);
    PEAK.store(start, Ordering::Relaxed);
    c.freeze();
    let peak = PEAK.load(Ordering::Relaxed) - start;
    let payload = c.plane().unwrap().payload_pages() as usize * DEFAULT_PAGE_SIZE;
    let allowed = payload + FREEZE_PER_NODE * n;
    assert!(
        peak <= allowed,
        "{what} freeze peaks {peak} B above its start for a {payload} B payload on {n} nodes, \
         over {allowed} B"
    );
}
