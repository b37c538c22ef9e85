//! The frozen query plane: one `PLN1` format, two page sources
//! (DESIGN.md, "Frozen query plane").
//!
//! [`crate::CompressedClosure::freeze`] snapshots the labels into an
//! immutable, read-optimized plane. There is exactly one layout for it —
//! the page-aligned `PLN1` image — and one reader, [`FrozenPlane`], generic
//! (static dispatch) over where the pages live:
//!
//! * [`QueryPlane`] = `FrozenPlane<MemPages>` — the resident plane: the
//!   image's payload held in one aligned buffer in RAM, handing out `&[u8]`
//!   slices directly (no lock, no lookup).
//! * [`PagedPlane`] = `FrozenPlane<PoolPages>` — the out-of-core plane: the
//!   same payload in a file (or an in-memory pager), pulled page by page
//!   through an exact-LRU [`BufferPool`]. Used by
//!   [`crate::ClosureConfig::paged`] freezes and by [`PagedClosure`]
//!   instant restart.
//!
//! Every public query opens one [`PageSession`] and reads through it: the
//! resident session is the payload slice, the paged one holds the pool
//! lock for the whole call (a whole batch, for
//! [`FrozenPlane::reaches_batch_into`]) and lends frame bytes in place.
//!
//! The image holds eight page-aligned payload segments: row heads and
//! boundary spill (the fenced row layout of `tc_interval::paged`), the rank
//! of each node's own number, the live node at each rank, and the stabbing
//! index's `los`/`his`/`owners`/segment tree answering `predecessors`. A
//! file image adds a fixed-size header with the segment directory and an
//! FNV-1a payload digest, a 12-byte footer locating the header from the end
//! of the file, and the resident `HYB1` overlay (negative-cutoff labels and
//! bitset rows) after it. It rides behind an `ITC1` stream
//! ([`CompressedClosure::save_paged`]) or stands alone (freeze-to-temp).
//!
//! * **One writer** derives each row once: a counting pass rank-compresses
//!   every label set into `(lo, hi, owner)` triples in owner order, the
//!   head and spill segments are encoded from those, and the same triples,
//!   sorted by `lo` in place, become the stabbing segments. Only file
//!   targets are digested and get a header and footer. Staging is bounded:
//!   12 bytes per merged interval (the triples), the stabbing tree (8 bytes
//!   per leaf, while it is written), 16 bytes per node and per live rank
//!   (row ends, rank and line arrays, sort buckets), and the resident
//!   overlay. Row heads and spill keys are encoded one row at a time, so a
//!   paged freeze never holds the image itself in memory.
//! * **Instant restart** — [`PagedPlane::open`] reads only the footer,
//!   header and overlay: O(directory), independent of the interval count.
//! * Every query has a fallible `try_*` form whose reads are bounds-checked
//!   against the directory — a corrupt or truncated image reports
//!   [`PagedError::Corrupt`] instead of panicking or over-allocating, which
//!   is what the `PLN1` byte-mutation fuzz campaign in `tc-fuzz` leans on.
//!
//! Every freeze carries the overlay. Images written before it existed end
//! at the plane footer; they still open, and serve without the cutoff
//! screen.

use std::fmt;
use std::fs::{self, File};
use std::io::{self, Seek, Write};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use tc_graph::topo::CutoffLabels;
use tc_graph::{DiGraph, NodeId};
use tc_interval::paged::{
    count_le, decode_head, encode_boundaries, encode_head, for_each_boundary_pair,
    padded_boundary_keys, probe_head, HeadProbe, KeyWidth,
};
use tc_interval::{merged_row_into, stab, stab_tree, BitRows, BitRowsBuilder, RankIndex};
use tc_pager::{BufferPool, PageId, Pager, PoolStats, DEFAULT_PAGE_SIZE};

use crate::builder::ClosureConfig;
use crate::codec::{fnv1a, DecodeError, Fnv1a, HashingWriter};
use crate::labeling::Labeling;
use crate::CompressedClosure;

/// Magic of the plane section ("PLN1").
const PLANE_MAGIC: [u8; 4] = *b"PLN1";
/// Magic of the hybrid-oracle overlay appended *after* the plane footer
/// ("HYB1"). Images from before the overlay simply end with the `PLN1`
/// footer and keep opening unchanged.
const HYBRID_MAGIC: [u8; 4] = *b"HYB1";
/// Fixed hybrid trailer at the very end of an overlay-bearing file:
/// `[magic][n][live][threshold][word count][payload fnv][plane end][fnv]`.
const HYBRID_TRAILER_BYTES: usize = 60;
/// Bytes of the hybrid trailer covered by its digest.
const HYBRID_HASHED: usize = 52;
/// Fixed header size: fields, segment directory, header digest.
const HEADER_BYTES: usize = 224;
/// Trailing footer: `[header locator: section_start u64][magic]`.
const FOOTER_BYTES: usize = 12;
/// Bytes of the header covered by the header digest.
const HEADER_HASHED: usize = 216;
/// Alignment of a resident image's payload: one 128-byte wide row head
/// (two cache lines) never straddles an extra line.
const IMAGE_ALIGN: usize = 128;

/// Segment indices in the directory (fixed order, ascending offsets).
const SEG_HEADS: usize = 0;
const SEG_SPILL: usize = 1;
const SEG_RANK: usize = 2;
const SEG_LINE: usize = 3;
const SEG_STAB_LOS: usize = 4;
const SEG_STAB_HIS: usize = 5;
const SEG_STAB_OWNERS: usize = 6;
const SEG_STAB_TREE: usize = 7;
const SEG_COUNT: usize = 8;

/// Default buffer-pool capacity (pages) for paged planes opened without an
/// explicit size: 256 × 4 KiB = 1 MiB of cache.
pub const DEFAULT_POOL_PAGES: usize = 256;

/// Failure opening or probing a frozen plane.
#[derive(Debug)]
pub enum PagedError {
    /// Underlying file I/O failed.
    Io(io::Error),
    /// The `PLN1` section is missing, structurally invalid, or a probe hit
    /// bytes inconsistent with the directory.
    Corrupt(&'static str),
    /// Thawing failed: the `ITC1` stream ahead of the plane section did
    /// not decode.
    Decode(DecodeError),
}

impl fmt::Display for PagedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PagedError::Io(e) => write!(f, "paged plane I/O: {e}"),
            PagedError::Corrupt(what) => write!(f, "paged plane corrupt: {what}"),
            PagedError::Decode(e) => write!(f, "paged plane thaw: {e}"),
        }
    }
}

impl std::error::Error for PagedError {}

impl From<io::Error> for PagedError {
    fn from(e: io::Error) -> Self {
        PagedError::Io(e)
    }
}

impl From<DecodeError> for PagedError {
    fn from(e: DecodeError) -> Self {
        PagedError::Decode(e)
    }
}

const fn corrupt<T>(what: &'static str) -> Result<T, PagedError> {
    Err(PagedError::Corrupt(what))
}

/// One directory entry: a byte range within the payload.
#[derive(Debug, Clone, Copy, Default)]
struct Segment {
    off: u64,
    len: u64,
}

/// The plane's shape and segment directory — parsed and validated from a
/// file header, or laid out by the writer.
#[derive(Debug, Clone)]
struct PlaneMeta {
    kw: KeyWidth,
    page_size: usize,
    nodes: usize,
    live: usize,
    /// Total *merged* rank intervals (the stabbing index length).
    intervals: usize,
    /// Labeling interval count at freeze time, before rank merging.
    source_intervals: usize,
    /// Stabbing-tree leaf count (power of two, 0 when `intervals == 0`).
    leaves: usize,
    /// Boundary keys in the spill segment, padding included.
    spill_keys: u64,
    /// Where the section begins in the file (the `ITC1` stream's length).
    section_start: u64,
    /// Absolute file offset of the payload pages.
    payload_off: u64,
    payload_len: u64,
    /// FNV-1a of the payload; `None` for an image built in memory, which
    /// is never digested.
    payload_fnv: Option<u64>,
    segs: [Segment; SEG_COUNT],
}

#[inline]
fn rd_u32(b: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(b[at..at + 4].try_into().expect("four bytes"))
}

#[inline]
fn rd_u64(b: &[u8], at: usize) -> u64 {
    let mut buf = [0u8; 8];
    buf.copy_from_slice(&b[at..at + 8]);
    u64::from_le_bytes(buf)
}

fn align_up(x: u64, a: u64) -> Option<u64> {
    let rem = x % a;
    if rem == 0 {
        Some(x)
    } else {
        x.checked_add(a - rem)
    }
}

/// A header count field, rejected past `u32` range.
fn as_count(v: u64, what: &'static str) -> Result<usize, PagedError> {
    if v > u32::MAX as u64 {
        corrupt(what)
    } else {
        Ok(v as usize)
    }
}

/// Segment lengths the counts dictate, in directory order.
fn segment_lens(
    kw: KeyWidth,
    nodes: u64,
    live: u64,
    m: u64,
    leaves: u64,
    spill: u64,
) -> [u64; SEG_COUNT] {
    [
        nodes * kw.head_bytes() as u64,
        spill * kw.key_bytes() as u64,
        nodes * 4,
        live * 4,
        m * 4,
        m * 4,
        m * 4,
        if m == 0 { 0 } else { 2 * leaves * 4 },
    ]
}

impl PlaneMeta {
    /// Parses and validates a header against the file length. `footer` is
    /// the trailing [`FOOTER_BYTES`]; `header` the [`HEADER_BYTES`] before
    /// them.
    fn parse(file_len: u64, header: &[u8], footer: &[u8]) -> Result<PlaneMeta, PagedError> {
        if footer.len() != FOOTER_BYTES || header.len() != HEADER_BYTES {
            return corrupt("short header read");
        }
        if footer[8..12] != PLANE_MAGIC {
            return corrupt("no plane section (footer magic)");
        }
        if header[0..4] != PLANE_MAGIC {
            return corrupt("header magic");
        }
        if fnv1a(&header[..HEADER_HASHED]) != rd_u64(header, HEADER_HASHED) {
            return corrupt("header digest mismatch");
        }
        let kw = match header[4] {
            2 => KeyWidth::Narrow,
            4 => KeyWidth::Wide,
            _ => return corrupt("key width"),
        };
        let page_size = rd_u32(header, 8) as usize;
        if page_size < 128 || page_size % 128 != 0 || page_size > (1 << 24) {
            return corrupt("page size");
        }
        let mut segs = [Segment::default(); SEG_COUNT];
        for (i, seg) in segs.iter_mut().enumerate() {
            seg.off = rd_u64(header, 88 + 16 * i);
            seg.len = rd_u64(header, 88 + 16 * i + 8);
        }
        let meta = PlaneMeta {
            kw,
            page_size,
            nodes: as_count(rd_u64(header, 16), "node count")?,
            live: as_count(rd_u64(header, 24), "live count")?,
            intervals: as_count(rd_u64(header, 32), "interval count")?,
            source_intervals: as_count(rd_u64(header, 40), "source interval count")?,
            leaves: as_count(rd_u64(header, 48), "leaf count")?,
            spill_keys: rd_u64(header, 56),
            section_start: rd_u64(footer, 0),
            payload_off: rd_u64(header, 64),
            payload_len: rd_u64(header, 72),
            payload_fnv: Some(rd_u64(header, 80)),
            segs,
        };
        // Ranks must fit the key width (mirrors the freeze gate), and the
        // tree leaf count must be what the stab descent assumes.
        if meta.live as u64 > kw.max_key() as u64 {
            return corrupt("live count exceeds key width");
        }
        if meta.intervals == 0 {
            if meta.leaves != 0 {
                return corrupt("leaf count for empty index");
            }
        } else if meta.leaves != meta.intervals.next_power_of_two() {
            return corrupt("leaf count");
        }
        // The payload must sit between the section start and the header,
        // in whole pages, with a page count a PageId can address.
        let header_pos = file_len
            .checked_sub((HEADER_BYTES + FOOTER_BYTES) as u64)
            .ok_or(PagedError::Corrupt("file shorter than header"))?;
        if meta.payload_len % page_size as u64 != 0 {
            return corrupt("payload not whole pages");
        }
        if meta.payload_len / page_size as u64 > u32::MAX as u64 {
            return corrupt("payload page count");
        }
        let payload_end = meta
            .payload_off
            .checked_add(meta.payload_len)
            .ok_or(PagedError::Corrupt("payload range"))?;
        if meta.section_start > meta.payload_off || payload_end > header_pos {
            return corrupt("payload outside section");
        }
        // Directory: fixed order, page-aligned, non-overlapping, inside the
        // payload, with the lengths the counts dictate.
        if meta.spill_keys > u32::MAX as u64 {
            return corrupt("spill length");
        }
        let expect = segment_lens(
            kw,
            meta.nodes as u64,
            meta.live as u64,
            meta.intervals as u64,
            meta.leaves as u64,
            meta.spill_keys,
        );
        let mut prev_end = 0u64;
        for (seg, &want) in meta.segs.iter().zip(&expect) {
            if seg.len != want {
                return corrupt("segment length");
            }
            if seg.off % page_size as u64 != 0 || seg.off < prev_end {
                return corrupt("segment offset");
            }
            prev_end = seg.off.checked_add(seg.len).ok_or(PagedError::Corrupt("segment range"))?;
            if prev_end > meta.payload_len {
                return corrupt("segment past payload");
            }
        }
        Ok(meta)
    }

    /// The header bytes a file image closes its section with; the digest
    /// covers everything above it.
    fn header(&self) -> [u8; HEADER_BYTES] {
        let mut h = [0u8; HEADER_BYTES];
        h[0..4].copy_from_slice(&PLANE_MAGIC);
        h[4] = self.kw.key_bytes() as u8;
        h[8..12].copy_from_slice(&(self.page_size as u32).to_le_bytes());
        let fields = [
            self.nodes as u64,
            self.live as u64,
            self.intervals as u64,
            self.source_intervals as u64,
            self.leaves as u64,
            self.spill_keys,
            self.payload_off,
            self.payload_len,
            self.payload_fnv.unwrap_or(0),
        ];
        for (i, v) in fields.iter().enumerate() {
            h[16 + 8 * i..24 + 8 * i].copy_from_slice(&v.to_le_bytes());
        }
        for (i, seg) in self.segs.iter().enumerate() {
            h[88 + 16 * i..96 + 16 * i].copy_from_slice(&seg.off.to_le_bytes());
            h[96 + 16 * i..104 + 16 * i].copy_from_slice(&seg.len.to_le_bytes());
        }
        let hfnv = fnv1a(&h[..HEADER_HASHED]);
        h[HEADER_HASHED..HEADER_BYTES].copy_from_slice(&hfnv.to_le_bytes());
        h
    }

    fn payload_pages(&self) -> u64 {
        self.payload_len / self.page_size as u64
    }
}

// ---------------------------------------------------------------------------
// The writer
// ---------------------------------------------------------------------------

fn too_big() -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, "plane exceeds PLN1 extents")
}

/// Everything a freeze derives from the labeling, staged in one pass over
/// the label sets: the only per-interval state is the triples array.
struct Staged {
    kw: KeyWidth,
    live: usize,
    source_intervals: usize,
    spill_keys: u64,
    /// Rank of each node's own postorder number — the probe key.
    rank: Vec<u32>,
    /// Live node at each rank: decoding a rank interval is a slice copy.
    line_nodes: Vec<u32>,
    /// Every merged rank interval as `(lo, hi, owner)`, in owner order.
    triples: Vec<(u32, u32, u32)>,
    /// `row_ends[v]` is where node `v`'s row ends in `triples`.
    row_ends: Vec<usize>,
}

/// Rank-compresses every label set of `lab` once (the counting pass).
/// Keys are `u16` whenever the live line fits, unless `wide` forces `u32`.
fn stage(lab: &Labeling, wide: bool) -> io::Result<Staged> {
    let n = lab.post.len();
    let live = lab.line.live_count();
    if n > u32::MAX as usize || live > u32::MAX as usize {
        return Err(too_big());
    }
    let mut line_nums: Vec<u64> = Vec::with_capacity(live);
    let mut line_nodes: Vec<u32> = Vec::with_capacity(live);
    for (num, node) in lab.line.live_in_range(0, u64::MAX) {
        line_nums.push(num);
        line_nodes.push(node);
    }
    // Every node's own number is live, so the rank array is total.
    let mut rank = vec![0u32; n];
    for (r, &node) in line_nodes.iter().enumerate() {
        rank[node as usize] = r as u32;
    }
    let kw = if live <= u16::MAX as usize && !wide { KeyWidth::Narrow } else { KeyWidth::Wide };
    let line = RankIndex::new(line_nums);
    let source_intervals: usize = lab.sets.iter().map(|s| s.count()).sum();
    let mut triples = Vec::with_capacity(source_intervals);
    let mut row_ends = Vec::with_capacity(n);
    let mut row = Vec::new();
    let mut spill_keys = 0u64;
    for (owner, set) in lab.sets.iter().enumerate() {
        merged_row_into(&line, set, &mut row);
        triples.extend(row.iter().map(|&(lo, hi)| (lo, hi, owner as u32)));
        spill_keys += padded_boundary_keys(row.len(), kw) as u64;
        row_ends.push(triples.len());
    }
    if triples.len() > u32::MAX as usize || spill_keys > u32::MAX as u64 {
        return Err(too_big());
    }
    Ok(Staged { kw, live, source_intervals, spill_keys, rank, line_nodes, triples, row_ends })
}

impl Staged {
    /// Each node's row of triples, in node order.
    fn rows(&self) -> impl Iterator<Item = &[(u32, u32, u32)]> + '_ {
        let mut start = 0;
        self.row_ends.iter().map(move |&end| {
            let row = &self.triples[start..end];
            start = end;
            row
        })
    }

    /// Lays the payload out in page-aligned segments for a section that
    /// starts at `section_start`.
    fn meta(&self, page_size: usize, section_start: u64) -> io::Result<PlaneMeta> {
        assert!(
            page_size >= 128 && page_size % 128 == 0,
            "plane page size must be a multiple of 128"
        );
        let (n, m) = (self.rank.len(), self.triples.len());
        let leaves = if m == 0 { 0 } else { m.next_power_of_two() };
        let lens = segment_lens(
            self.kw,
            n as u64,
            self.live as u64,
            m as u64,
            leaves as u64,
            self.spill_keys,
        );
        let ps = page_size as u64;
        let mut segs = [Segment::default(); SEG_COUNT];
        let mut pos = 0u64;
        for (seg, &len) in segs.iter_mut().zip(&lens) {
            let off = align_up(pos, ps).ok_or_else(too_big)?;
            *seg = Segment { off, len };
            pos = off.checked_add(len).ok_or_else(too_big)?;
        }
        Ok(PlaneMeta {
            kw: self.kw,
            page_size,
            nodes: n,
            live: self.live,
            intervals: m,
            source_intervals: self.source_intervals,
            leaves,
            spill_keys: self.spill_keys,
            section_start,
            payload_off: align_up(section_start, ps).ok_or_else(too_big)?,
            payload_len: align_up(pos, ps).ok_or_else(too_big)?,
            payload_fnv: None,
            segs,
        })
    }

    /// The resident overlay: negative-cutoff labels over `graph`, and a
    /// bitset row for every node whose merged row *exceeds* `threshold`
    /// (`usize::MAX` selects none).
    fn hybrid(&self, graph: &DiGraph, threshold: usize) -> ResidentHybrid {
        debug_assert_eq!(graph.node_count(), self.rank.len(), "graph/labeling mismatch");
        let mut bits = BitRowsBuilder::new(self.rank.len(), self.live);
        let mut pairs = Vec::new();
        for (owner, row) in self.rows().enumerate() {
            if row.len() > threshold {
                pairs.clear();
                pairs.extend(row.iter().map(|&(lo, hi, _)| (lo, hi)));
                bits.add_row(owner, &pairs);
            }
        }
        ResidentHybrid {
            cutoff: CutoffLabels::build(graph),
            bitrows: bits.finish(),
            threshold: threshold as u64,
        }
    }

    /// Writes the payload — every segment and its alignment padding,
    /// `meta.payload_len` bytes — to `out`.
    fn write_payload<W: Write>(mut self, meta: &PlaneMeta, out: &mut W) -> io::Result<()> {
        let kw = self.kw;
        let mut cursor = 0u64;
        let mut row: Vec<(u32, u32)> = Vec::new();
        let mut head = vec![0u8; kw.head_bytes()];
        let mut bounds: Vec<u8> = Vec::new();
        let mut next_spill = 0u32;
        pad_to(out, &mut cursor, meta.segs[SEG_HEADS].off)?;
        for r in self.rows() {
            row.clear();
            row.extend(r.iter().map(|&(lo, hi, _)| (lo, hi)));
            encode_head(&mut head, kw, &row, next_spill);
            next_spill += padded_boundary_keys(row.len(), kw) as u32;
            out.write_all(&head)?;
            cursor += head.len() as u64;
        }
        pad_to(out, &mut cursor, meta.segs[SEG_SPILL].off)?;
        for r in self.rows() {
            row.clear();
            row.extend(r.iter().map(|&(lo, hi, _)| (lo, hi)));
            bounds.clear();
            encode_boundaries(&mut bounds, kw, &row);
            out.write_all(&bounds)?;
            cursor += bounds.len() as u64;
        }
        pad_to(out, &mut cursor, meta.segs[SEG_RANK].off)?;
        write_u32s(out, &mut cursor, self.rank.iter().copied())?;
        pad_to(out, &mut cursor, meta.segs[SEG_LINE].off)?;
        write_u32s(out, &mut cursor, self.line_nodes.iter().copied())?;
        // The stabbing index: the same triples, sorted by lower endpoint in
        // place — HEADS and SPILL above were the last readers of owner order.
        sort_by_lo(&mut self.triples, self.live);
        let stab = &self.triples;
        pad_to(out, &mut cursor, meta.segs[SEG_STAB_LOS].off)?;
        write_u32s(out, &mut cursor, stab.iter().map(|t| t.0))?;
        pad_to(out, &mut cursor, meta.segs[SEG_STAB_HIS].off)?;
        write_u32s(out, &mut cursor, stab.iter().map(|t| t.1))?;
        pad_to(out, &mut cursor, meta.segs[SEG_STAB_OWNERS].off)?;
        write_u32s(out, &mut cursor, stab.iter().map(|t| t.2))?;
        pad_to(out, &mut cursor, meta.segs[SEG_STAB_TREE].off)?;
        write_u32s(out, &mut cursor, stab_tree(stab.iter().map(|t| t.1)).into_iter())?;
        pad_to(out, &mut cursor, meta.payload_len)
    }
}

/// Sorts `triples` by lower endpoint in place. Every `lo` is a rank below
/// `live`, so one counting pass fixes each rank's bucket and every triple
/// is then swapped straight into its bucket: O(m + live) time, and no
/// second triple array. Order within a bucket is deterministic but
/// unspecified — the stabbing index needs only ascending `lo`.
fn sort_by_lo(triples: &mut [(u32, u32, u32)], live: usize) {
    let mut next = vec![0usize; live + 1];
    for t in triples.iter() {
        next[t.0 as usize + 1] += 1;
    }
    for r in 1..=live {
        next[r] += next[r - 1];
    }
    let ends = next[1..].to_vec();
    for bucket in 0..live {
        while next[bucket] < ends[bucket] {
            let dest = triples[next[bucket]].0 as usize;
            if dest != bucket {
                triples.swap(next[bucket], next[dest]);
            }
            next[dest] += 1;
        }
    }
}

fn write_zeros<W: Write>(out: &mut W, count: u64) -> io::Result<()> {
    let zeros = [0u8; 512];
    let mut left = count;
    while left > 0 {
        let take = left.min(zeros.len() as u64) as usize;
        out.write_all(&zeros[..take])?;
        left -= take as u64;
    }
    Ok(())
}

fn pad_to<W: Write>(w: &mut W, cursor: &mut u64, target: u64) -> io::Result<()> {
    debug_assert!(*cursor <= target, "writer overran segment plan");
    write_zeros(w, target - *cursor)?;
    *cursor = target;
    Ok(())
}

fn write_u32s<W: Write>(
    w: &mut W,
    cursor: &mut u64,
    items: impl Iterator<Item = u32>,
) -> io::Result<()> {
    // Chunk through a small staging buffer so the sink sees a few large
    // writes per segment instead of one per element.
    let mut buf = Vec::with_capacity(4096);
    for v in items {
        buf.extend_from_slice(&v.to_le_bytes());
        if buf.len() >= 4096 {
            w.write_all(&buf)?;
            *cursor += buf.len() as u64;
            buf.clear();
        }
    }
    w.write_all(&buf)?;
    *cursor += buf.len() as u64;
    Ok(())
}

/// Writes `lab`'s frozen plane as a file image at the writer's position:
/// the digested `PLN1` section (payload, header, footer), then the `HYB1`
/// overlay for `threshold` over `graph`.
fn write_plane_file<W: Write + Seek>(
    graph: &DiGraph,
    lab: &Labeling,
    threshold: usize,
    out: &mut W,
) -> io::Result<()> {
    let section_start = out.stream_position()?;
    let staged = stage(lab, false)?;
    let mut meta = staged.meta(DEFAULT_PAGE_SIZE, section_start)?;
    let hybrid = staged.hybrid(graph, threshold);
    write_zeros(out, meta.payload_off - section_start)?;
    let mut w = HashingWriter::new(&mut *out);
    staged.write_payload(&meta, &mut w)?;
    debug_assert_eq!(w.written(), meta.payload_len);
    meta.payload_fnv = Some(w.digest());
    out.write_all(&meta.header())?;
    out.write_all(&section_start.to_le_bytes())?;
    out.write_all(&PLANE_MAGIC)?;
    let plane_end = meta.payload_off + meta.payload_len + (HEADER_BYTES + FOOTER_BYTES) as u64;
    hybrid.write_overlay(meta.live, plane_end, out)
}

// ---------------------------------------------------------------------------
// The hybrid overlay (HYB1)
// ---------------------------------------------------------------------------
//
// The hybrid oracle's two structures — negative-cutoff labels and the
// bitset rows — are consulted on (nearly) every probe, so paging them would
// defeat their purpose. They stay resident in every plane; a file image
// carries them as an overlay appended after the `PLN1` footer:
// `mn[n] ++ post[n] ++ slots[n]` as `u32`s, then the words arena as `u64`s,
// closed by a fixed trailer that locates where the plain plane image ends.
// Every node keeps its full interval row in the `PLN1` section either way.

/// The hybrid structures held in memory alongside a [`FrozenPlane`].
#[derive(Debug, Clone)]
struct ResidentHybrid {
    cutoff: CutoffLabels,
    bitrows: BitRows,
    threshold: u64,
}

impl ResidentHybrid {
    /// Appends the overlay and its trailer; `plane_end` is where the
    /// writer's `PLN1` image ends (the current position).
    fn write_overlay<W: Write>(&self, live: usize, plane_end: u64, out: &mut W) -> io::Result<()> {
        let mut w = HashingWriter::new(&mut *out);
        let mut cursor = 0u64;
        write_u32s(&mut w, &mut cursor, self.cutoff.mn().iter().copied())?;
        write_u32s(&mut w, &mut cursor, self.cutoff.post().iter().copied())?;
        write_u32s(&mut w, &mut cursor, self.bitrows.slots().iter().copied())?;
        let mut buf = Vec::with_capacity(4096);
        for &word in self.bitrows.words() {
            buf.extend_from_slice(&word.to_le_bytes());
            if buf.len() >= 4096 {
                w.write_all(&buf)?;
                buf.clear();
            }
        }
        w.write_all(&buf)?;
        let payload_fnv = w.digest();
        let mut t = [0u8; HYBRID_TRAILER_BYTES];
        t[0..4].copy_from_slice(&HYBRID_MAGIC);
        let fields = [
            self.cutoff.len() as u64,
            live as u64,
            self.threshold,
            self.bitrows.words().len() as u64,
            payload_fnv,
            plane_end,
        ];
        for (i, v) in fields.iter().enumerate() {
            t[4 + 8 * i..12 + 8 * i].copy_from_slice(&v.to_le_bytes());
        }
        let tfnv = fnv1a(&t[..HYBRID_HASHED]);
        t[HYBRID_HASHED..].copy_from_slice(&tfnv.to_le_bytes());
        out.write_all(&t)
    }
}

/// A parsed, shape-validated hybrid trailer.
struct HybridTail {
    n: usize,
    live: usize,
    threshold: u64,
    words: usize,
    payload_fnv: u64,
    /// Where the `PLN1` file image ends — also the overlay payload start.
    plane_end: u64,
}

impl HybridTail {
    fn payload_len(&self) -> u64 {
        self.n as u64 * 12 + self.words as u64 * 8
    }

    /// Parses the trailing [`HYBRID_TRAILER_BYTES`] of a file. `Ok(None)`
    /// means "no overlay here" (fall through to a plain `PLN1` parse);
    /// a valid magic with a broken digest or shape is `Corrupt`.
    fn parse(file_len: u64, t: &[u8]) -> Result<Option<HybridTail>, PagedError> {
        if t.len() != HYBRID_TRAILER_BYTES || t[0..4] != HYBRID_MAGIC {
            return Ok(None);
        }
        if fnv1a(&t[..HYBRID_HASHED]) != rd_u64(t, HYBRID_HASHED) {
            return corrupt("hybrid trailer digest mismatch");
        }
        let tail = HybridTail {
            n: as_count(rd_u64(t, 4), "hybrid node count")?,
            live: as_count(rd_u64(t, 12), "hybrid live count")?,
            threshold: rd_u64(t, 20),
            words: as_count(rd_u64(t, 28), "hybrid word count")?,
            payload_fnv: rd_u64(t, 36),
            plane_end: rd_u64(t, 44),
        };
        let end = tail
            .plane_end
            .checked_add(tail.payload_len())
            .and_then(|v| v.checked_add(HYBRID_TRAILER_BYTES as u64));
        if end != Some(file_len) {
            return corrupt("hybrid overlay extents");
        }
        Ok(Some(tail))
    }

    /// Reassembles the resident structures from the raw payload bytes.
    fn load(&self, payload: &[u8]) -> Result<ResidentHybrid, PagedError> {
        if payload.len() as u64 != self.payload_len() {
            return corrupt("hybrid payload length");
        }
        if fnv1a(payload) != self.payload_fnv {
            return corrupt("hybrid payload digest mismatch");
        }
        let n = self.n;
        let u32s = |at: usize| -> Vec<u32> {
            payload[at..at + 4 * n].chunks_exact(4).map(|c| rd_u32(c, 0)).collect()
        };
        let words: Vec<u64> = payload[12 * n..].chunks_exact(8).map(|c| rd_u64(c, 0)).collect();
        let bitrows = BitRows::from_parts(self.live.div_ceil(64), u32s(8 * n), words, 0)
            .map_err(PagedError::Corrupt)?;
        Ok(ResidentHybrid {
            cutoff: CutoffLabels::from_parts(u32s(0), u32s(4 * n)),
            bitrows,
            threshold: self.threshold,
        })
    }
}

/// If `data` ends with a valid hybrid trailer, the prefix holding the plain
/// `PLN1` file image; `data` unchanged otherwise. Purely structural.
fn strip_hybrid_tail(data: &[u8]) -> &[u8] {
    if data.len() < HYBRID_TRAILER_BYTES {
        return data;
    }
    let t = &data[data.len() - HYBRID_TRAILER_BYTES..];
    match HybridTail::parse(data.len() as u64, t) {
        Ok(Some(tail)) => &data[..tail.plane_end as usize],
        _ => data,
    }
}

/// The overlay's counts must match the plane it annotates.
fn check_hybrid_shape(meta: &PlaneMeta, hybrid: Option<&ResidentHybrid>) -> Result<(), PagedError> {
    if let Some(h) = hybrid {
        if h.cutoff.len() != meta.nodes || h.bitrows.slots().len() != meta.nodes {
            return corrupt("hybrid overlay node count mismatch");
        }
        if h.bitrows.row_count() > 0 && h.bitrows.width_words() != meta.live.div_ceil(64) {
            return corrupt("hybrid overlay width mismatch");
        }
    }
    Ok(())
}

/// Splits an in-memory file image into its validated plane metadata, its
/// payload bytes, and its overlay (if any).
fn parse_image(data: &[u8]) -> Result<(PlaneMeta, &[u8], Option<ResidentHybrid>), PagedError> {
    let mut hybrid = None;
    let mut plane = data;
    if data.len() >= HYBRID_TRAILER_BYTES {
        let tb = &data[data.len() - HYBRID_TRAILER_BYTES..];
        if let Some(tail) = HybridTail::parse(data.len() as u64, tb)? {
            let start = tail.plane_end as usize;
            hybrid = Some(tail.load(&data[start..start + tail.payload_len() as usize])?);
            plane = &data[..start];
        }
    }
    let tail = HEADER_BYTES + FOOTER_BYTES;
    if plane.len() < tail {
        return corrupt("file shorter than header");
    }
    let header = &plane[plane.len() - tail..plane.len() - FOOTER_BYTES];
    let footer = &plane[plane.len() - FOOTER_BYTES..];
    let meta = PlaneMeta::parse(plane.len() as u64, header, footer)?;
    check_hybrid_shape(&meta, hybrid.as_ref())?;
    let payload = &plane[meta.payload_off as usize..(meta.payload_off + meta.payload_len) as usize];
    Ok((meta, payload, hybrid))
}

// ---------------------------------------------------------------------------
// Page sources
// ---------------------------------------------------------------------------

/// Where a [`FrozenPlane`]'s payload pages live. Every public probe opens
/// exactly one [`PageSession`] and does all its reads through it.
pub trait PageSource {
    /// The reader one probe call holds for its duration.
    type Session<'a>: PageSession
    where
        Self: 'a;

    /// Opens a session. Sessions do not nest: a probe never opens a second
    /// one while it holds the first.
    fn session(&self) -> Self::Session<'_>;
}

/// Reads payload bytes for one probe call. `at` is a byte offset into the
/// payload; the reader has already bounds-checked every range against the
/// segment directory, and sessions check again against their own extent.
/// Bytes handed out borrow the session, so they are gone before the next
/// read can fetch a page.
pub trait PageSession {
    /// The contiguous payload bytes `[at, at + len)`, which must lie in one
    /// page (heads and `u32` cells divide the page size, so they always do).
    fn read(&mut self, at: u64, len: usize) -> Result<&[u8], PagedError>;

    /// Calls `f` on consecutive pieces covering `[at, at + len)`, in order.
    fn scan(&mut self, at: u64, len: u64, f: impl FnMut(&[u8])) -> Result<(), PagedError>;

    /// Calls `f` with the bytes `[at, at + len)`, which may span pages, and
    /// with the session itself, so `f` can keep reading while it walks the
    /// run.
    fn with_run<R>(
        &mut self,
        at: u64,
        len: usize,
        f: impl FnOnce(&[u8], &mut Self) -> R,
    ) -> Result<R, PagedError>;
}

/// A resident payload: one buffer whose start is aligned to
/// [`IMAGE_ALIGN`], so every page-aligned segment starts on a cache line.
/// Its session is the payload slice itself: no lock, no lookup.
#[derive(Debug)]
pub struct MemPages {
    buf: Vec<u8>,
    start: usize,
}

impl MemPages {
    /// Allocates room for a `len`-byte payload, lets `fill` append it to the
    /// aligned buffer, and checks it wrote exactly that much.
    fn build(
        len: usize,
        fill: impl FnOnce(&mut Vec<u8>) -> io::Result<()>,
    ) -> io::Result<MemPages> {
        let mut buf: Vec<u8> = Vec::with_capacity(len + IMAGE_ALIGN);
        let start = match buf.as_ptr().align_offset(IMAGE_ALIGN) {
            off if off < IMAGE_ALIGN => off,
            _ => 0,
        };
        buf.resize(start, 0);
        fill(&mut buf)?;
        debug_assert_eq!(buf.len(), start + len, "payload length off plan");
        Ok(MemPages { buf, start })
    }

    fn bytes(&self) -> &[u8] {
        &self.buf[self.start..]
    }
}

impl Clone for MemPages {
    fn clone(&self) -> Self {
        let bytes = self.bytes();
        MemPages::build(bytes.len(), |w| {
            w.extend_from_slice(bytes);
            Ok(())
        })
        .expect("in-memory copy")
    }
}

impl PageSource for MemPages {
    type Session<'a> = &'a [u8];

    #[inline(always)]
    fn session(&self) -> &[u8] {
        self.bytes()
    }
}

/// A resident payload's bytes, read in place.
impl PageSession for &[u8] {
    #[inline(always)]
    fn read(&mut self, at: u64, len: usize) -> Result<&[u8], PagedError> {
        let from = at as usize;
        match self.get(from..from + len) {
            Some(bytes) => Ok(bytes),
            None => corrupt("read past image end"),
        }
    }

    #[inline]
    fn scan(&mut self, at: u64, len: u64, mut f: impl FnMut(&[u8])) -> Result<(), PagedError> {
        f(self.read(at, len as usize)?);
        Ok(())
    }

    #[inline]
    fn with_run<R>(
        &mut self,
        at: u64,
        len: usize,
        f: impl FnOnce(&[u8], &mut Self) -> R,
    ) -> Result<R, PagedError> {
        let mut payload = *self;
        Ok(f(payload.read(at, len)?, self))
    }
}

/// The pager, its buffer pool and a run buffer, locked together: the
/// pager's read counters and the pool's LRU state both need exclusive
/// access, and a fetch must consult them atomically.
#[derive(Debug)]
struct PoolInner {
    pager: Pager,
    pool: BufferPool,
    /// Reused by [`PoolSession::with_run`]: a run is copied out before the
    /// next page is fetched.
    run: Vec<u8>,
}

/// An out-of-core payload: pages read from a file region (or an in-memory
/// pager) through an exact-LRU buffer pool. Its session holds the pool lock
/// for one whole probe call, so a probe costs one lock however many pages
/// it touches, and reads borrow the frames in place.
#[derive(Debug)]
pub struct PoolPages {
    inner: Mutex<PoolInner>,
    page_size: usize,
    pages: u64,
    /// A temp file owned by this source (freeze-to-temp), removed on drop.
    owned_path: Option<PathBuf>,
}

impl Drop for PoolPages {
    fn drop(&mut self) {
        if let Some(path) = &self.owned_path {
            let _ = fs::remove_file(path);
        }
    }
}

impl PoolPages {
    fn new(
        pager: Pager,
        meta: &PlaneMeta,
        pool_pages: usize,
        owned_path: Option<PathBuf>,
    ) -> PoolPages {
        let pool = BufferPool::new(pool_pages.max(1));
        PoolPages {
            inner: Mutex::new(PoolInner { pager, pool, run: Vec::new() }),
            page_size: meta.page_size,
            pages: meta.payload_pages(),
            owned_path,
        }
    }

    /// The pool lock. A probe that panicked while holding it (a failed
    /// page read) left the pool valid — a miss maps its frame only after
    /// the read lands — so a poisoned lock is taken over, not propagated.
    fn lock(&self) -> MutexGuard<'_, PoolInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl PageSource for PoolPages {
    type Session<'a> = PoolSession<'a>;

    fn session(&self) -> PoolSession<'_> {
        PoolSession { inner: self.lock(), page_size: self.page_size, pages: self.pages }
    }
}

/// One probe call's hold on a [`PoolPages`]: the pool lock, released when
/// the call returns.
#[derive(Debug)]
pub struct PoolSession<'a> {
    inner: MutexGuard<'a, PoolInner>,
    page_size: usize,
    pages: u64,
}

impl PoolSession<'_> {
    /// Fetches payload page `page` through the pool.
    #[inline]
    fn fetch(&mut self, page: u64) -> Result<&[u8], PagedError> {
        if page >= self.pages {
            return corrupt("page index out of range");
        }
        let PoolInner { pager, pool, .. } = &mut *self.inner;
        Ok(pool.fetch(pager, PageId(page as u32)))
    }
}

impl PageSession for PoolSession<'_> {
    fn read(&mut self, at: u64, len: usize) -> Result<&[u8], PagedError> {
        let in_page = (at % self.page_size as u64) as usize;
        if in_page + len > self.page_size {
            return corrupt("read straddles a page");
        }
        let page = self.fetch(at / self.page_size as u64)?;
        Ok(&page[in_page..in_page + len])
    }

    fn scan(&mut self, at: u64, len: u64, mut f: impl FnMut(&[u8])) -> Result<(), PagedError> {
        let ps = self.page_size as u64;
        let end = at.checked_add(len).ok_or(PagedError::Corrupt("range overflow"))?;
        let mut pos = at;
        while pos < end {
            let in_page = (pos % ps) as usize;
            let take = (ps - in_page as u64).min(end - pos) as usize;
            f(&self.fetch(pos / ps)?[in_page..in_page + take]);
            pos += take as u64;
        }
        Ok(())
    }

    /// Copies the run into the session's run buffer first — it may span
    /// pages, and `f`'s own reads may evict its frames.
    fn with_run<R>(
        &mut self,
        at: u64,
        len: usize,
        f: impl FnOnce(&[u8], &mut Self) -> R,
    ) -> Result<R, PagedError> {
        let mut run = std::mem::take(&mut self.inner.run);
        run.clear();
        self.scan(at, len as u64, |piece| run.extend_from_slice(piece))?;
        let out = f(&run, self);
        self.inner.run = run;
        Ok(out)
    }
}

// ---------------------------------------------------------------------------
// The reader
// ---------------------------------------------------------------------------

/// A frozen query plane: an immutable snapshot of a closure's labels in the
/// `PLN1` layout, served from page source `S`. Answers `reaches`,
/// `successors`, `successor_count` and `predecessors` identically whatever
/// the source; see [`QueryPlane`] and [`PagedPlane`].
#[derive(Debug, Clone)]
pub struct FrozenPlane<S> {
    meta: PlaneMeta,
    pages: S,
    /// Resident hybrid-oracle structures (negative-cutoff labels + bitset
    /// rows). Every freeze carries them; only images written before the
    /// overlay existed open without (and then skip the cutoff screen).
    hybrid: Option<ResidentHybrid>,
}

/// The resident plane: a `PLN1` payload held in RAM, read without locks.
pub type QueryPlane = FrozenPlane<MemPages>;

/// The out-of-core plane: a `PLN1` payload paged through a buffer pool.
pub type PagedPlane = FrozenPlane<PoolPages>;

impl<S: PageSource> FrozenPlane<S> {
    /// Number of nodes in the snapshot.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.meta.nodes
    }

    /// Total merged rank intervals in the snapshot. At most the mutable
    /// closure's [`CompressedClosure::total_intervals`] at freeze time —
    /// usually well below it, since rank compression merges intervals
    /// separated only by dead numbers.
    pub fn total_intervals(&self) -> usize {
        self.meta.intervals
    }

    /// Total payload pages (the plane's footprint in pages).
    pub fn payload_pages(&self) -> u64 {
        self.meta.payload_pages()
    }

    /// The hybrid threshold the plane was frozen with (`usize::MAX` as a
    /// `u64` for a pure-interval freeze); `None` for an image without an
    /// overlay.
    pub fn hybrid_threshold(&self) -> Option<u64> {
        self.hybrid.as_ref().map(|h| h.threshold)
    }

    /// Number of nodes served from resident bitset rows.
    pub fn bitset_rows(&self) -> usize {
        self.hybrid.as_ref().map_or(0, |h| h.bitrows.row_count())
    }

    /// The `len` bytes at `byte_off` within segment `seg`, bounds-checked
    /// against the directory.
    #[inline]
    fn seg_read<'s>(
        &self,
        s: &'s mut S::Session<'_>,
        seg: usize,
        byte_off: u64,
        len: usize,
    ) -> Result<&'s [u8], PagedError> {
        let seg = self.meta.segs[seg];
        match byte_off.checked_add(len as u64) {
            Some(end) if end <= seg.len => s.read(seg.off + byte_off, len),
            _ => corrupt("read past segment end"),
        }
    }

    /// As [`Self::seg_read`], in source-sized pieces.
    #[inline]
    fn seg_scan(
        &self,
        s: &mut S::Session<'_>,
        seg: usize,
        byte_off: u64,
        len: u64,
        f: impl FnMut(&[u8]),
    ) -> Result<(), PagedError> {
        let seg = self.meta.segs[seg];
        match byte_off.checked_add(len) {
            Some(end) if end <= seg.len => s.scan(seg.off + byte_off, len, f),
            _ => corrupt("read past segment end"),
        }
    }

    /// The `u32` at `index` of a 4-byte-element segment.
    #[inline]
    fn u32_at(&self, s: &mut S::Session<'_>, seg: usize, index: u64) -> Result<u32, PagedError> {
        let Some(off) = index.checked_mul(4) else {
            return corrupt("index overflow");
        };
        Ok(rd_u32(self.seg_read(s, seg, off, 4)?, 0))
    }

    /// Node id bounds check shared by the public probes.
    #[inline(always)]
    fn check_node(&self, node: NodeId) -> Result<usize, PagedError> {
        if node.index() >= self.meta.nodes {
            return corrupt("node id out of range");
        }
        Ok(node.index())
    }

    /// The rank of `node`'s own postorder number — the probe key.
    #[inline(always)]
    fn rank_of(&self, s: &mut S::Session<'_>, node: NodeId) -> Result<u32, PagedError> {
        let idx = self.check_node(node)? as u64;
        // The directory fixes the rank segment at `nodes` cells, so a
        // checked node id needs no segment check of its own.
        let r = rd_u32(s.read(self.meta.segs[SEG_RANK].off + 4 * idx, 4)?, 0);
        if r as u64 >= self.meta.live as u64 {
            return corrupt("rank out of range");
        }
        Ok(r)
    }

    /// Whether row `row` (a checked node id: the directory fixes the heads
    /// segment at `nodes` headers) contains rank `t`: one header read, then
    /// at most one boundary slice.
    #[inline(always)]
    fn row_contains(&self, s: &mut S::Session<'_>, row: usize, t: u32) -> Result<bool, PagedError> {
        let kw = self.meta.kw;
        let hb = kw.head_bytes();
        let at = self.meta.segs[SEG_HEADS].off + (row * hb) as u64;
        match probe_head(s.read(at, hb)?, kw, t) {
            HeadProbe::Hit(ans) => Ok(ans),
            HeadProbe::Scan { key_start, key_count } => {
                let kb = kw.key_bytes() as u64;
                let Some(start) = key_start.checked_mul(kb) else {
                    return corrupt("spill range");
                };
                let mut count = 0usize;
                self.seg_scan(s, SEG_SPILL, start, key_count as u64 * kb, |keys| {
                    count += count_le(keys, kw, t);
                })?;
                Ok(count % 2 == 1)
            }
        }
    }

    /// [`FrozenPlane::try_reaches`] inside an open session.
    #[inline(always)]
    fn reaches_in(
        &self,
        s: &mut S::Session<'_>,
        src: NodeId,
        dst: NodeId,
    ) -> Result<bool, PagedError> {
        let row = self.check_node(src)?;
        if let Some(h) = &self.hybrid {
            self.check_node(dst)?;
            // The cutoff labels rule out most unreachable pairs without a
            // single page read; a resident bitset row answers the rest of
            // its node's probes with one word test.
            if !h.cutoff.may_reach(src, dst) {
                return Ok(false);
            }
            let t = self.rank_of(s, dst)?;
            if let Some(hit) = h.bitrows.contains(row, t) {
                return Ok(hit);
            }
            return self.row_contains(s, row, t);
        }
        let t = self.rank_of(s, dst)?;
        self.row_contains(s, row, t)
    }

    /// Fallible [`FrozenPlane::reaches`]: reports corruption instead of
    /// panicking.
    #[inline(always)]
    pub fn try_reaches(&self, src: NodeId, dst: NodeId) -> Result<bool, PagedError> {
        self.reaches_in(&mut self.pages.session(), src, dst)
    }

    /// Whether `src` reaches `dst` (reflexive): the negative-cutoff labels
    /// first — most "no" answers return on two label compares — then
    /// `src`'s row: one word test for a bitset row, one fenced parity probe
    /// of its boundary-array row otherwise.
    ///
    /// # Panics
    ///
    /// Panics if the image is corrupt; use [`FrozenPlane::try_reaches`] for
    /// untrusted files.
    #[inline]
    pub fn reaches(&self, src: NodeId, dst: NodeId) -> bool {
        self.try_reaches(src, dst).expect("frozen plane probe")
    }

    /// The boundary-array probe alone: no negative-cutoff screen, no bitset
    /// rows. Every node keeps its full interval row, so this answers
    /// exactly like [`FrozenPlane::reaches`]; it is the baseline the
    /// hybrid oracle is measured against.
    #[inline]
    pub fn reaches_interval_only(&self, src: NodeId, dst: NodeId) -> bool {
        let s = &mut self.pages.session();
        self.check_node(src)
            .and_then(|row| {
                let t = self.rank_of(s, dst)?;
                self.row_contains(s, row, t)
            })
            .expect("frozen plane probe")
    }

    /// Answers a batch of reachability pairs in one call.
    pub fn reaches_batch(&self, pairs: &[(NodeId, NodeId)]) -> Vec<bool> {
        let mut out = Vec::new();
        self.reaches_batch_into(pairs, &mut out);
        out
    }

    /// Answers every pair into `out` (cleared first) under one page
    /// session: a paged plane takes its pool lock once for the whole
    /// batch.
    ///
    /// # Panics
    ///
    /// As [`FrozenPlane::reaches`], on an id outside the plane or a corrupt
    /// image.
    pub fn reaches_batch_into(&self, pairs: &[(NodeId, NodeId)], out: &mut Vec<bool>) {
        self.reaches_batch_below(usize::MAX, pairs, out);
    }

    /// [`FrozenPlane::reaches_batch_into`], except that a pair with an id at
    /// or past `limit` answers `false` without a probe.
    pub(crate) fn reaches_batch_below(
        &self,
        limit: usize,
        pairs: &[(NodeId, NodeId)],
        out: &mut Vec<bool>,
    ) {
        out.clear();
        let s = &mut self.pages.session();
        out.extend(pairs.iter().map(|&(src, dst)| {
            src.index() < limit
                && dst.index() < limit
                && self.reaches_in(s, src, dst).expect("frozen plane probe")
        }));
    }

    /// Calls `f` with each of row `row`'s merged rank intervals, ascending,
    /// validating shape (ascending, disjoint, within the line). The row's
    /// boundaries are read in full before the first call, and `f` gets the
    /// session back to read with.
    fn for_each_row_interval(
        &self,
        s: &mut S::Session<'_>,
        row: usize,
        mut f: impl FnMut(&mut S::Session<'_>, u32, u32) -> Result<(), PagedError>,
    ) -> Result<(), PagedError> {
        let kw = self.meta.kw;
        let hb = kw.head_bytes();
        let head = decode_head(self.seg_read(s, SEG_HEADS, (row * hb) as u64, hb)?, kw);
        let m = head.intervals as usize;
        if m == 0 {
            return Ok(());
        }
        if m > self.meta.intervals {
            return corrupt("row interval count exceeds total");
        }
        let kb = kw.key_bytes();
        let byte_off = head.spill_start as u64 * kb as u64;
        let len = 2 * m * kb;
        let spill = self.meta.segs[SEG_SPILL];
        let at = match byte_off.checked_add(len as u64) {
            Some(end) if end <= spill.len => spill.off + byte_off,
            _ => return corrupt("read past segment end"),
        };
        let live = self.meta.live as u64;
        s.with_run(at, len, |bounds, s| {
            // Boundaries ascend strictly across the whole row, so checking
            // each `lo` against the previous `hi + 1` keeps the intervals
            // disjoint.
            let mut floor = 0u32;
            for_each_boundary_pair(bounds, kw, m, |lo, hi1| {
                if hi1 <= lo || lo < floor {
                    return corrupt("row intervals not ascending");
                }
                if hi1 as u64 > live {
                    return corrupt("row interval past line end");
                }
                floor = hi1;
                f(s, lo, hi1 - 1)
            })
        })?
    }

    /// Appends the line nodes at ranks `[rlo, rhi]` to `out`.
    fn read_line_run(
        &self,
        s: &mut S::Session<'_>,
        rlo: u32,
        rhi: u32,
        out: &mut Vec<NodeId>,
    ) -> Result<(), PagedError> {
        if rhi < rlo {
            return corrupt("rank run inverted");
        }
        let len = (rhi - rlo) as u64 * 4 + 4;
        self.seg_scan(s, SEG_LINE, rlo as u64 * 4, len, |chunk| {
            out.extend(chunk.chunks_exact(4).map(|c| NodeId(rd_u32(c, 0))));
        })
    }

    /// Fallible [`FrozenPlane::successors_into`].
    pub fn try_successors_into(
        &self,
        node: NodeId,
        out: &mut Vec<NodeId>,
    ) -> Result<(), PagedError> {
        let row = self.check_node(node)?;
        out.clear();
        let s = &mut self.pages.session();
        // A bitset row decodes as maximal set-bit runs — the same (lo, hi)
        // geometry its interval row holds, so the output order (ascending
        // rank == ascending postorder number) is identical.
        if let Some(h) = &self.hybrid {
            let mut res = Ok(());
            let found = h.bitrows.for_each_run(row, |lo, hi| {
                if res.is_ok() {
                    res = self.read_line_run(s, lo, hi, out);
                }
            });
            if found {
                return res;
            }
        }
        self.for_each_row_interval(s, row, |s, lo, hi| self.read_line_run(s, lo, hi, out))
    }

    /// All nodes reachable from `node` (including itself), ascending by
    /// postorder number — identical to the mutable decode. Rank intervals
    /// are disjoint and sorted, so each one is a straight run copy.
    pub fn successors(&self, node: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        self.successors_into(node, &mut out);
        out
    }

    /// [`FrozenPlane::successors`] into a caller-provided buffer (cleared
    /// first); with a reused buffer a resident decode allocates nothing.
    pub fn successors_into(&self, node: NodeId, out: &mut Vec<NodeId>) {
        self.try_successors_into(node, out).expect("frozen plane probe");
    }

    /// Fallible [`FrozenPlane::successor_count`].
    pub fn try_successor_count(&self, node: NodeId) -> Result<usize, PagedError> {
        let row = self.check_node(node)?;
        if let Some(count) = self.hybrid.as_ref().and_then(|h| h.bitrows.count(row)) {
            return Ok(count);
        }
        let mut count = 0usize;
        self.for_each_row_interval(&mut self.pages.session(), row, |_, lo, hi| {
            count += (hi - lo) as usize + 1;
            Ok(())
        })?;
        Ok(count)
    }

    /// Count of nodes reachable from `node` without materializing the list.
    pub fn successor_count(&self, node: NodeId) -> usize {
        self.try_successor_count(node).expect("frozen plane probe")
    }

    /// Fallible [`FrozenPlane::predecessors_into`].
    pub fn try_predecessors_into(
        &self,
        node: NodeId,
        out: &mut Vec<NodeId>,
    ) -> Result<(), PagedError> {
        out.clear();
        let s = &mut self.pages.session();
        let t = self.rank_of(s, node)?;
        // Candidate prefix: positions with lo <= t (los is ascending).
        let (mut lo, mut hi) = (0u64, self.meta.intervals as u64);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.u32_at(s, SEG_STAB_LOS, mid)? <= t {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        let limit = self.meta.intervals;
        stab(
            self.meta.leaves,
            lo as usize,
            t,
            s,
            &|s, i| self.u32_at(s, SEG_STAB_TREE, i as u64),
            &mut |s, pos| {
                let owner = self.u32_at(s, SEG_STAB_OWNERS, pos as u64)?;
                if owner as usize >= self.meta.nodes {
                    return corrupt("stab owner out of range");
                }
                if out.len() >= limit {
                    return corrupt("stab result exceeds interval count");
                }
                out.push(NodeId(owner));
                Ok(())
            },
        )?;
        // A row's merged intervals are disjoint, so each owner appears at
        // most once — sorting alone restores id order.
        out.sort_unstable();
        Ok(())
    }

    /// All nodes that reach `node` (including itself), ascending by node
    /// id: one O(k log m) stabbing query for `node`'s rank over the
    /// inverted index, instead of asking all n rows.
    pub fn predecessors(&self, node: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        self.predecessors_into(node, &mut out);
        out
    }

    /// [`FrozenPlane::predecessors`] into a caller-provided buffer (cleared
    /// first); with a reused buffer the query allocates nothing.
    pub fn predecessors_into(&self, node: NodeId, out: &mut Vec<NodeId>) {
        self.try_predecessors_into(node, out).expect("frozen plane probe");
    }

    /// Streams the whole payload through FNV-1a and compares against the
    /// digest stored in the file header. O(payload) — opening deliberately
    /// skips this to keep restart O(directory); run it when ingesting files
    /// from untrusted storage. A plane frozen in memory carries no digest
    /// and always passes.
    pub fn verify_payload(&self) -> Result<(), PagedError> {
        let Some(want) = self.meta.payload_fnv else {
            return Ok(());
        };
        let mut fnv = Fnv1a::new();
        self.pages.session().scan(0, self.meta.payload_len, |bytes| fnv.update(bytes))?;
        if fnv.finish() != want {
            return corrupt("payload digest mismatch");
        }
        Ok(())
    }

    /// Cross-checks the snapshot against the labeling it should mirror —
    /// shape, source interval count, and the full rank bijection. O(n +
    /// live) reads; run by [`CompressedClosure::audit`] whenever a plane is
    /// frozen, so the fuzzer catches a stale or torn snapshot immediately.
    pub(crate) fn check_consistency(&self, lab: &Labeling) -> Result<(), String> {
        let n = lab.post.len();
        if self.meta.nodes != n {
            return Err(format!("plane holds {} nodes for {n} in the labeling", self.meta.nodes));
        }
        if self.meta.live != lab.line.live_count() {
            return Err(format!(
                "plane line length {} != {} live numbers",
                self.meta.live,
                lab.line.live_count()
            ));
        }
        let total: usize = lab.sets.iter().map(|s| s.count()).sum();
        if self.meta.source_intervals != total {
            return Err(format!(
                "plane frozen from {} intervals but labeling now holds {total}",
                self.meta.source_intervals
            ));
        }
        if self.meta.intervals > total {
            return Err(format!(
                "plane holds {} merged intervals, more than the labeling's {total}",
                self.meta.intervals
            ));
        }
        if let Some(h) = &self.hybrid {
            if h.cutoff.len() != n {
                return Err(format!(
                    "plane cutoff labels cover {} nodes, labeling has {n}",
                    h.cutoff.len()
                ));
            }
        }
        let s = &mut self.pages.session();
        let mut read =
            |seg, ix: usize| self.u32_at(s, seg, ix as u64).map_err(|e| e.to_string());
        for (r, (num, node)) in lab.line.live_in_range(0, u64::MAX).enumerate() {
            let at = read(SEG_LINE, r)?;
            if at != node {
                return Err(format!("plane rank {r} holds node {at}, line says {node}"));
            }
            if lab.post[node as usize] == num {
                let rank = read(SEG_RANK, node as usize)?;
                if rank != r as u32 {
                    return Err(format!(
                        "node {node} has rank {rank} in the plane but its number {num} sits at rank {r}"
                    ));
                }
            }
        }
        Ok(())
    }
}

impl QueryPlane {
    /// Freezes `lab` into a resident plane. The base relation seeds the
    /// negative-cutoff labels, and any node whose merged rank-interval
    /// count *exceeds* `threshold` also gets a bitset row (`usize::MAX` =
    /// pure interval, the default).
    pub(crate) fn freeze(graph: &DiGraph, lab: &Labeling, threshold: usize) -> QueryPlane {
        Self::freeze_keys(graph, lab, threshold, false)
    }

    /// As [`QueryPlane::freeze`], but forcing `u32` keys even when the
    /// snapshot fits `u16` ones — lets tests compare both widths on the
    /// small graphs they can afford.
    #[cfg(test)]
    pub(crate) fn freeze_wide(graph: &DiGraph, lab: &Labeling, threshold: usize) -> QueryPlane {
        Self::freeze_keys(graph, lab, threshold, true)
    }

    fn freeze_keys(graph: &DiGraph, lab: &Labeling, threshold: usize, wide: bool) -> QueryPlane {
        let build = || -> io::Result<QueryPlane> {
            let staged = stage(lab, wide)?;
            let meta = staged.meta(DEFAULT_PAGE_SIZE, 0)?;
            let hybrid = staged.hybrid(graph, threshold);
            let pages =
                MemPages::build(meta.payload_len as usize, |w| staged.write_payload(&meta, w))?;
            Ok(FrozenPlane { meta, pages, hybrid: Some(hybrid) })
        };
        build().expect("plane exceeds PLN1 extents")
    }

    /// Loads an image — a [`CompressedClosure::save_paged`] file or a
    /// standalone section — into a resident plane.
    #[cfg(test)]
    fn open_from_bytes(data: &[u8]) -> Result<QueryPlane, PagedError> {
        let (meta, payload, hybrid) = parse_image(data)?;
        let pages = MemPages::build(payload.len(), |w| {
            w.extend_from_slice(payload);
            Ok(())
        })?;
        Ok(FrozenPlane { meta, pages, hybrid })
    }
}

/// Aggregate I/O counters of a [`PagedPlane`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PagedIoStats {
    /// Pages read from the backing file (pool misses).
    pub page_reads: u64,
    /// Buffer-pool hit/miss/eviction counters.
    pub pool: PoolStats,
    /// Pages currently cached.
    pub resident: usize,
}

impl PagedPlane {
    /// Opens the plane section of `path` — a file written by
    /// [`CompressedClosure::save_paged`] or a standalone section — reading
    /// only the footer, header and overlay: O(directory), independent of
    /// the interval count. `pool_pages` caps the buffer pool (min 1).
    pub fn open<P: AsRef<Path>>(path: P, pool_pages: usize) -> Result<PagedPlane, PagedError> {
        Self::open_impl(path.as_ref(), pool_pages, None)
    }

    /// As [`PagedPlane::open`], but taking ownership of `path`: the file is
    /// removed when the plane drops. Used by freeze-to-temp.
    fn open_owning(path: PathBuf, pool_pages: usize) -> Result<PagedPlane, PagedError> {
        Self::open_impl(&path, pool_pages, Some(path.clone()))
    }

    fn open_impl(
        path: &Path,
        pool_pages: usize,
        owned_path: Option<PathBuf>,
    ) -> Result<PagedPlane, PagedError> {
        let file = File::open(path)?;
        let file_len = file.metadata()?.len();
        // An overlay, when present, sits between the plane footer and the
        // end of the file; load it resident and parse the `PLN1` section as
        // if the file ended where the overlay begins.
        let mut hybrid = None;
        let mut plane_len = file_len;
        if file_len >= HYBRID_TRAILER_BYTES as u64 {
            let mut tb = [0u8; HYBRID_TRAILER_BYTES];
            file.read_exact_at(&mut tb, file_len - HYBRID_TRAILER_BYTES as u64)?;
            if let Some(tail) = HybridTail::parse(file_len, &tb)? {
                let mut payload = vec![0u8; tail.payload_len() as usize];
                file.read_exact_at(&mut payload, tail.plane_end)?;
                hybrid = Some(tail.load(&payload)?);
                plane_len = tail.plane_end;
            }
        }
        let tail = (HEADER_BYTES + FOOTER_BYTES) as u64;
        if plane_len < tail {
            return corrupt("file shorter than header");
        }
        let mut buf = [0u8; HEADER_BYTES + FOOTER_BYTES];
        file.read_exact_at(&mut buf, plane_len - tail)?;
        let meta = PlaneMeta::parse(plane_len, &buf[..HEADER_BYTES], &buf[HEADER_BYTES..])?;
        check_hybrid_shape(&meta, hybrid.as_ref())?;
        let pager = Pager::open_file_region(
            file,
            meta.payload_off,
            meta.payload_pages() as usize,
            meta.page_size,
        );
        let pages = PoolPages::new(pager, &meta, pool_pages, owned_path);
        Ok(FrozenPlane { meta, pages, hybrid })
    }

    /// Opens a plane from an in-memory image of a section-bearing file,
    /// backing it with a memory pager behind the buffer pool. This is the
    /// fuzz campaign's entry point: byte mutations hit the same parse and
    /// probe paths as a corrupt file would.
    pub fn open_from_bytes(data: &[u8], pool_pages: usize) -> Result<PagedPlane, PagedError> {
        let (meta, payload, hybrid) = parse_image(data)?;
        let mut pager = Pager::with_page_size(meta.page_size);
        for chunk in payload.chunks(meta.page_size) {
            let id = pager.alloc();
            pager.write(id, chunk);
        }
        pager.reset_counters();
        let pages = PoolPages::new(pager, &meta, pool_pages, None);
        Ok(FrozenPlane { meta, pages, hybrid })
    }

    /// Where the plane section begins in the file — equivalently, the byte
    /// length of the `ITC1` stream ahead of it (0 for a standalone plane).
    fn section_start(&self) -> u64 {
        self.meta.section_start
    }

    /// Cumulative I/O counters (pager reads, pool hits/misses/evictions).
    pub fn io_stats(&self) -> PagedIoStats {
        let g = self.pages.lock();
        PagedIoStats {
            page_reads: g.pager.reads(),
            pool: g.pool.stats(),
            resident: g.pool.resident(),
        }
    }

    /// Resets the I/O counters *and empties the buffer pool* — the next
    /// probe starts cold. For warm-cache deltas, diff [`PagedPlane::io_stats`]
    /// snapshots instead.
    pub fn reset_io(&self) {
        let mut g = self.pages.lock();
        g.pager.reset_counters();
        g.pool.clear();
    }
}

// ---------------------------------------------------------------------------
// Freezing and the closure-level API
// ---------------------------------------------------------------------------

/// A frozen plane in either page source, shareable behind an `Arc`: what a
/// frozen closure and a published service snapshot hold.
#[derive(Debug, Clone)]
pub(crate) enum Frozen {
    Resident(Arc<QueryPlane>),
    Paged(Arc<PagedPlane>),
}

/// Runs `$body` with `$p` bound to whichever plane `$frozen` holds.
macro_rules! on_plane {
    ($frozen:expr, $p:ident => $body:expr) => {
        match $frozen {
            Frozen::Resident($p) => $body,
            Frozen::Paged($p) => $body,
        }
    };
}

impl Frozen {
    /// Freezes `lab` as `config` asks: streamed to a temp file and paged
    /// through a `config.paged_pool`-page pool, or resident when that is 0.
    pub(crate) fn build(
        graph: &DiGraph,
        lab: &Labeling,
        config: &ClosureConfig,
    ) -> Result<Frozen, PagedError> {
        if config.paged_pool > 0 {
            let plane = freeze_paged(graph, lab, config.hybrid_threshold, config.paged_pool)?;
            Ok(Frozen::Paged(Arc::new(plane)))
        } else {
            Ok(Self::resident(graph, lab, config.hybrid_threshold))
        }
    }

    /// A resident freeze of `lab`.
    pub(crate) fn resident(graph: &DiGraph, lab: &Labeling, threshold: usize) -> Frozen {
        Frozen::Resident(Arc::new(QueryPlane::freeze(graph, lab, threshold)))
    }

    #[inline]
    pub(crate) fn reaches(&self, src: NodeId, dst: NodeId) -> bool {
        on_plane!(self, p => p.reaches(src, dst))
    }

    /// Answers `pairs` under one page session; a pair with an id at or
    /// past `limit` answers `false` without a probe.
    pub(crate) fn reaches_batch_below(
        &self,
        limit: usize,
        pairs: &[(NodeId, NodeId)],
        out: &mut Vec<bool>,
    ) {
        on_plane!(self, p => p.reaches_batch_below(limit, pairs, out))
    }

    pub(crate) fn successors_into(&self, node: NodeId, out: &mut Vec<NodeId>) {
        on_plane!(self, p => p.successors_into(node, out))
    }

    pub(crate) fn successor_count(&self, node: NodeId) -> usize {
        on_plane!(self, p => p.successor_count(node))
    }

    pub(crate) fn predecessors_into(&self, node: NodeId, out: &mut Vec<NodeId>) {
        on_plane!(self, p => p.predecessors_into(node, out))
    }

    pub(crate) fn check_consistency(&self, lab: &Labeling) -> Result<(), String> {
        on_plane!(self, p => p.check_consistency(lab))
    }
}

/// Distinguishes temp plane files of concurrent freezes in one process.
static TEMP_COUNTER: AtomicU64 = AtomicU64::new(0);

/// Streams `lab`'s plane to a fresh temp file and opens it paged; the file
/// is removed when the returned plane drops.
fn freeze_paged(
    graph: &DiGraph,
    lab: &Labeling,
    threshold: usize,
    pool_pages: usize,
) -> Result<PagedPlane, PagedError> {
    let path = std::env::temp_dir().join(format!(
        "tc-plane-{}-{}.pln",
        std::process::id(),
        TEMP_COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    let write = || -> io::Result<()> {
        let mut w = io::BufWriter::new(File::create(&path)?);
        write_plane_file(graph, lab, threshold, &mut w)?;
        w.flush()
    };
    if let Err(e) = write() {
        let _ = fs::remove_file(&path);
        return Err(PagedError::Io(e));
    }
    PagedPlane::open_owning(path, pool_pages)
}

/// An instant-restart handle over a [`CompressedClosure::save_paged`] file:
/// opened in O(directory) time, read queries served straight from the
/// on-disk plane section, and the full mutable closure decoded only when
/// [`PagedClosure::thaw`] asks for it.
#[derive(Debug)]
pub struct PagedClosure {
    plane: Arc<PagedPlane>,
    path: PathBuf,
}

impl PagedClosure {
    /// Opens `path` (written by [`CompressedClosure::save_paged`]) without
    /// decoding the `ITC1` stream: startup reads only the plane footer,
    /// header, directory and overlay.
    pub fn open<P: AsRef<Path>>(path: P, pool_pages: usize) -> Result<PagedClosure, PagedError> {
        let plane = PagedPlane::open(path.as_ref(), pool_pages)?;
        Ok(PagedClosure { plane: Arc::new(plane), path: path.as_ref().to_path_buf() })
    }

    /// The underlying paged plane (shareable across threads).
    pub fn plane(&self) -> &Arc<PagedPlane> {
        &self.plane
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.plane.node_count()
    }

    /// Whether `src` reaches `dst` (reflexive).
    pub fn reaches(&self, src: NodeId, dst: NodeId) -> bool {
        self.plane.reaches(src, dst)
    }

    /// Answers a batch of reachability pairs.
    pub fn reaches_batch(&self, pairs: &[(NodeId, NodeId)]) -> Vec<bool> {
        self.plane.reaches_batch(pairs)
    }

    /// All nodes reachable from `node` (including itself).
    pub fn successors(&self, node: NodeId) -> Vec<NodeId> {
        self.plane.successors(node)
    }

    /// Count of nodes reachable from `node`.
    pub fn successor_count(&self, node: NodeId) -> usize {
        self.plane.successor_count(node)
    }

    /// All nodes that reach `node` (including itself).
    pub fn predecessors(&self, node: NodeId) -> Vec<NodeId> {
        self.plane.predecessors(node)
    }

    /// Decodes the `ITC1` stream ahead of the plane section into a full
    /// mutable [`CompressedClosure`] — the deferred half of instant
    /// restart, paid only when the caller needs to write. The paged plane
    /// stays attached and keeps serving reads until the first update
    /// invalidates it.
    pub fn thaw(&self) -> Result<CompressedClosure, PagedError> {
        let data = fs::read(&self.path)?;
        let cut = self.plane.section_start() as usize;
        if cut > data.len() {
            return corrupt("section start past end of file");
        }
        let mut closure = CompressedClosure::from_bytes(&data[..cut])?;
        closure.frozen = Some(Frozen::Paged(Arc::clone(&self.plane)));
        Ok(closure)
    }
}

impl CompressedClosure {
    /// Serializes the closure as an `ITC1` stream followed by its frozen
    /// plane image (`PLN1` section plus `HYB1` overlay). The result can be
    /// reopened instantly with [`CompressedClosure::open_paged`] or loaded
    /// fully with [`CompressedClosure::load`].
    pub fn save_paged<P: AsRef<Path>>(&self, path: P) -> io::Result<()> {
        let mut w = io::BufWriter::new(File::create(path)?);
        self.write_to(&mut w)?;
        write_plane_file(&self.graph, &self.lab, self.config.hybrid_threshold, &mut w)?;
        w.flush()
    }

    /// [`CompressedClosure::save_paged`] into memory — the fuzz campaign's
    /// corpus seed.
    pub fn to_paged_bytes(&self) -> Vec<u8> {
        let mut cur = io::Cursor::new(self.to_bytes());
        cur.seek(io::SeekFrom::End(0)).expect("in-memory seek");
        write_plane_file(&self.graph, &self.lab, self.config.hybrid_threshold, &mut cur)
            .expect("in-memory plane write");
        cur.into_inner()
    }

    /// Opens a [`CompressedClosure::save_paged`] file as an instant-restart
    /// [`PagedClosure`]: O(directory) startup, reads served from the paged
    /// plane, the mutable closure decoded lazily by [`PagedClosure::thaw`].
    pub fn open_paged<P: AsRef<Path>>(
        path: P,
        pool_pages: usize,
    ) -> Result<PagedClosure, PagedError> {
        PagedClosure::open(path, pool_pages)
    }

    /// Loads a closure from a file written by either
    /// `std::fs::write(path, closure.to_bytes())` or
    /// [`CompressedClosure::save_paged`] — a trailing plane section, when
    /// present, is skipped.
    pub fn load<P: AsRef<Path>>(path: P) -> Result<CompressedClosure, PagedError> {
        let data = fs::read(path)?;
        Self::from_bytes_auto(&data)
    }

    /// [`CompressedClosure::load`] for a buffer already in memory (e.g. a
    /// stream read from stdin): decodes a bare `ITC1` stream or a
    /// [`CompressedClosure::save_paged`] image, skipping the trailing
    /// plane section in the latter case.
    pub fn from_bytes_auto(data: &[u8]) -> Result<CompressedClosure, PagedError> {
        let stream = match plane_section_start(data) {
            Some(cut) => &data[..cut],
            None => data,
        };
        Ok(CompressedClosure::from_bytes(stream)?)
    }
}

/// If `data` ends with a plane footer (optionally followed by a hybrid
/// overlay), the byte offset where the section begins (i.e. the `ITC1`
/// stream length). Purely structural — corrupt sections are caught later by
/// the header digest.
fn plane_section_start(data: &[u8]) -> Option<usize> {
    let data = strip_hybrid_tail(data);
    if data.len() < HEADER_BYTES + FOOTER_BYTES {
        return None;
    }
    let footer = &data[data.len() - FOOTER_BYTES..];
    if footer[8..12] != PLANE_MAGIC {
        return None;
    }
    let start = rd_u64(footer, 0);
    (start <= data.len() as u64).then_some(start as usize)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ClosureConfig;
    use tc_graph::generators;

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "tc-paged-test-{}-{}-{tag}.itc",
            std::process::id(),
            TEMP_COUNTER.fetch_add(1, Ordering::Relaxed)
        ))
    }

    fn sample_closure() -> CompressedClosure {
        let g = generators::random_dag(generators::RandomDagConfig {
            nodes: 120,
            avg_out_degree: 2.5,
            seed: 31,
        });
        ClosureConfig::new().reserve(2).build(&g).unwrap()
    }

    /// Every query surface of `plane` against the mutable closure `c`
    /// (which must not be frozen).
    fn assert_plane_matches<S: PageSource>(c: &CompressedClosure, plane: &FrozenPlane<S>) {
        assert!(!c.is_frozen(), "the oracle must answer from the mutable labels");
        assert_eq!(plane.node_count(), c.node_count());
        assert!(plane.total_intervals() <= c.total_intervals());
        for v in (0..c.node_count()).map(NodeId::from_index) {
            assert_eq!(plane.successors(v), c.successors(v), "successors({v:?})");
            assert_eq!(plane.predecessors(v), c.predecessors(v), "predecessors({v:?})");
            assert_eq!(plane.successor_count(v), c.successor_count(v));
            for w in (0..c.node_count()).step_by(7).map(NodeId::from_index) {
                assert_eq!(plane.reaches(v, w), c.reaches(v, w), "reaches({v:?},{w:?})");
                assert_eq!(plane.reaches_interval_only(v, w), c.reaches(v, w));
            }
        }
    }

    /// Where the `PLN1` image inside `bytes` ends (before any overlay).
    fn plane_end(bytes: &[u8]) -> usize {
        strip_hybrid_tail(bytes).len()
    }

    #[test]
    fn save_open_round_trip_matches_memory_plane() {
        let c = sample_closure();
        let path = temp_path("roundtrip");
        c.save_paged(&path).unwrap();
        let paged = PagedPlane::open(&path, 64).unwrap();
        paged.verify_payload().unwrap();
        assert_plane_matches(&c, &paged);
        let resident = QueryPlane::open_from_bytes(&fs::read(&path).unwrap()).unwrap();
        resident.verify_payload().unwrap();
        assert_plane_matches(&c, &resident);
        let mut frozen = c.clone();
        frozen.freeze();
        assert_eq!(frozen.plane().unwrap().total_intervals(), paged.total_intervals());
        drop(paged);
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn tiny_pool_still_answers_identically() {
        // Pool of one page ≪ plane: every probe evicts, answers unchanged.
        let c = sample_closure();
        let bytes = c.to_paged_bytes();
        let paged = PagedPlane::open_from_bytes(&bytes, 1).unwrap();
        assert!(paged.payload_pages() > 1, "plane must outsize the pool");
        assert_plane_matches(&c, &paged);
        let stats = paged.io_stats();
        assert!(stats.pool.evictions > 0, "one-frame pool must evict");
    }

    #[test]
    fn open_reads_only_the_directory() {
        let c = sample_closure();
        let path = temp_path("instant");
        c.save_paged(&path).unwrap();
        let paged = PagedPlane::open(&path, 64).unwrap();
        // Opening touched no payload pages at all; the first probe does.
        assert_eq!(paged.io_stats().page_reads, 0);
        assert!(paged.reaches(NodeId(0), NodeId(0)));
        assert!(paged.io_stats().page_reads > 0);
        drop(paged);
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn reaches_costs_a_bounded_page_count() {
        let c = sample_closure();
        let bytes = c.to_paged_bytes();
        let paged = PagedPlane::open_from_bytes(&bytes, 1).unwrap();
        // With a one-frame pool every touched page is a read: a point probe
        // is rank + head + at most one straddling slice = ≤ 4 pages.
        for v in (0..c.node_count()).step_by(11).map(NodeId::from_index) {
            for w in (0..c.node_count()).step_by(13).map(NodeId::from_index) {
                let before = paged.io_stats().page_reads;
                let _ = paged.reaches(v, w);
                assert!(paged.io_stats().page_reads - before <= 4);
            }
        }
    }

    #[test]
    fn paged_closure_thaws_to_equal_closure() {
        let c = sample_closure();
        let path = temp_path("thaw");
        c.save_paged(&path).unwrap();
        let handle = CompressedClosure::open_paged(&path, 32).unwrap();
        assert_eq!(handle.node_count(), c.node_count());
        assert_eq!(handle.successors(NodeId(3)), c.successors(NodeId(3)));
        let thawed = handle.thaw().unwrap();
        assert!(thawed.is_frozen(), "thaw keeps the paged plane attached");
        assert_eq!(thawed.to_bytes(), c.to_bytes(), "thawed stream is bit-identical");
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn load_strips_the_plane_section() {
        let c = sample_closure();
        let path = temp_path("load");
        c.save_paged(&path).unwrap();
        let loaded = CompressedClosure::load(&path).unwrap();
        assert_eq!(loaded.to_bytes(), c.to_bytes());
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupt_sections_error_instead_of_panicking() {
        let c = sample_closure();
        let good = c.to_paged_bytes();
        // Truncations at every granularity: parse must reject, never panic.
        for cut in [0, 1, 100, good.len() / 2, good.len() - 1] {
            assert!(PagedPlane::open_from_bytes(&good[..cut], 4).is_err());
            assert!(QueryPlane::open_from_bytes(&good[..cut]).is_err());
        }
        // A flipped header byte breaks the header digest.
        let mut bad = good.clone();
        let hdr = plane_end(&good) - HEADER_BYTES - FOOTER_BYTES;
        bad[hdr + 16] ^= 0xff;
        assert!(matches!(
            PagedPlane::open_from_bytes(&bad, 4),
            Err(PagedError::Corrupt(_))
        ));
        // A flipped payload byte passes open (O(directory) by design) but
        // fails the deep verify.
        let mut bad = good.clone();
        let meta_probe = PagedPlane::open_from_bytes(&good, 4).unwrap();
        let off = meta_probe.meta.payload_off as usize;
        bad[off] ^= 0xff;
        let opened = PagedPlane::open_from_bytes(&bad, 4).unwrap();
        assert!(matches!(opened.verify_payload(), Err(PagedError::Corrupt(_))));
    }

    #[test]
    fn empty_and_single_node_planes() {
        for edges in [vec![], vec![(0u32, 1u32)]] {
            let g = tc_graph::DiGraph::from_edges(edges);
            let c = CompressedClosure::build(&g).unwrap();
            let bytes = c.to_paged_bytes();
            assert_plane_matches(&c, &PagedPlane::open_from_bytes(&bytes, 2).unwrap());
            assert_plane_matches(&c, &QueryPlane::freeze(&c.graph, &c.lab, usize::MAX));
        }
    }

    /// Construction output pinned byte for byte: the FNV-1a of the `ITC1`
    /// stream and the `PLN1` payload digest, for two seeded graphs built
    /// with a gap and a refinement reserve. The cover, the sweep and the
    /// rank compression are free to get faster; their output is not free
    /// to change.
    #[test]
    fn construction_output_is_pinned() {
        let random = generators::random_dag(generators::RandomDagConfig {
            nodes: 2000,
            avg_out_degree: 2.0,
            seed: 1,
        });
        let layered = generators::dense_layered(12, 40, 4, 5);
        let got: Vec<(u64, u64)> = [random, layered]
            .iter()
            .map(|g| {
                let c = ClosureConfig::new().gap(64).reserve(16).build(g).unwrap();
                let (meta, _, _) = parse_image(&c.to_paged_bytes()).unwrap();
                (crate::codec::fnv1a(&c.to_bytes()), meta.payload_fnv.unwrap())
            })
            .collect();
        let want = vec![
            (0xaa6b_56c9_e010_7799, 0x0345_2eb7_6553_6096),
            (0xeca9_d80f_a681_b563, 0xa0fc_2714_e75d_2527),
        ];
        assert_eq!(got, want, "construction output changed");
    }

    /// An image written before every freeze carried the `HYB1` overlay: it
    /// ends at the `PLN1` footer. Both sources open it, serve it without
    /// the cutoff screen, and answer like the closure it was saved from.
    #[test]
    fn images_without_an_overlay_still_open_and_answer() {
        let image = include_bytes!("../../../tests/fixtures/plane_without_overlay.itc");
        assert_eq!(&image[image.len() - 4..], b"PLN1", "fixture ends at the plane footer");
        let c = CompressedClosure::from_bytes_auto(image).unwrap();
        assert!(c.node_count() <= 200);
        let paged = PagedPlane::open_from_bytes(image, 2).unwrap();
        let resident = QueryPlane::open_from_bytes(image).unwrap();
        assert_eq!(paged.hybrid_threshold(), None);
        assert_eq!(resident.hybrid_threshold(), None);
        paged.verify_payload().unwrap();
        resident.verify_payload().unwrap();
        assert_plane_matches(&c, &paged);
        assert_plane_matches(&c, &resident);
    }

    fn hybrid_closure() -> CompressedClosure {
        // Dense layered graphs fragment successor sets, so a low threshold
        // actually selects bitset rows.
        let g = generators::dense_layered(6, 18, 4, 9);
        ClosureConfig::new().hybrid(2).build(&g).unwrap()
    }

    #[test]
    fn hybrid_overlay_roundtrips_and_matches_every_plane() {
        let c = hybrid_closure();
        let bytes = c.to_paged_bytes();
        let paged = PagedPlane::open_from_bytes(&bytes, 8).unwrap();
        assert_eq!(paged.hybrid_threshold(), Some(2));
        assert!(paged.bitset_rows() > 0, "threshold 2 must select bitset rows");
        assert_plane_matches(&c, &paged);
        // A pure-interval freeze of the same labels carries cutoff labels
        // but no bitset rows, and answers identically.
        let pure = QueryPlane::freeze(&c.graph, &c.lab, usize::MAX);
        assert_eq!(pure.bitset_rows(), 0);
        assert_eq!(pure.hybrid_threshold(), Some(u64::MAX));
        assert_plane_matches(&c, &pure);
    }

    #[test]
    fn hybrid_overlay_survives_a_file_roundtrip() {
        let c = hybrid_closure();
        let path = temp_path("hybrid");
        c.save_paged(&path).unwrap();
        let paged = PagedPlane::open(&path, 16).unwrap();
        assert!(paged.bitset_rows() > 0);
        assert_plane_matches(&c, &paged);
        // `load` sees through the overlay *and* the plane section, and the
        // HYB1 config footer restores the threshold.
        let loaded = CompressedClosure::load(&path).unwrap();
        assert_eq!(loaded.hybrid_threshold(), 2);
        assert_eq!(loaded.to_bytes(), c.to_bytes());
        drop(paged);
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupt_hybrid_overlays_error_instead_of_panicking() {
        let c = hybrid_closure();
        let good = c.to_paged_bytes();
        let plane_end = plane_end(&good);
        assert!(plane_end < good.len(), "every image carries the overlay");
        // A flipped overlay payload byte breaks the payload digest.
        let mut bad = good.clone();
        bad[plane_end] ^= 0xff;
        assert!(matches!(
            PagedPlane::open_from_bytes(&bad, 4),
            Err(PagedError::Corrupt(_))
        ));
        // A flipped trailer byte breaks the trailer digest.
        let mut bad = good.clone();
        let at = good.len() - HYBRID_TRAILER_BYTES + 20;
        bad[at] ^= 0xff;
        assert!(PagedPlane::open_from_bytes(&bad, 4).is_err());
        // Truncations anywhere in the overlay reject cleanly.
        for cut in [plane_end + 1, good.len() - HYBRID_TRAILER_BYTES, good.len() - 1] {
            assert!(PagedPlane::open_from_bytes(&good[..cut], 4).is_err());
        }
    }

    /// The ledger's smoke shape paged through a 16-page pool, probed with a
    /// fixed mix of every query. The counts are exact: they pin the pool's
    /// replacement decisions, so a pool change that reads one page more or
    /// less fails here.
    #[test]
    fn smoke_shape_pool_counts_are_exact() {
        let g = generators::dense_layered(12, 100, 3, 1);
        let mut c = ClosureConfig::new().paged(16).build(&g).unwrap();
        c.freeze();
        let plane = Arc::clone(c.paged_plane().expect("paged freeze"));
        let n = plane.node_count() as u64;
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        // Sources from the first quarter, targets from the rest, as the
        // ledger draws them: most pairs get past the cutoff screen.
        let mut next = move |lo: u64, hi: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            NodeId((lo + state % (hi - lo)) as u32)
        };
        let mut pair = move || (next(0, n / 4), next(n / 4, n));
        let mut reached = 0usize;
        for _ in 0..2000 {
            let (s, d) = pair();
            reached += plane.reaches(s, d) as usize;
        }
        let pairs: Vec<(NodeId, NodeId)> = (0..512).map(|_| pair()).collect();
        reached += plane.reaches_batch(&pairs).into_iter().filter(|&b| b).count();
        let stats = |page_reads, hits, evictions| PagedIoStats {
            page_reads,
            pool: PoolStats { hits, misses: page_reads, evictions },
            resident: 16,
        };
        assert_eq!(reached, 374);
        assert_eq!(plane.io_stats(), stats(520, 5394, 504));
        let mut out = Vec::new();
        let mut decoded = 0usize;
        for _ in 0..32 {
            let (s, d) = pair();
            plane.successors_into(s, &mut out);
            decoded += out.len();
            decoded += plane.successor_count(d);
            plane.predecessors_into(d, &mut out);
            decoded += out.len();
        }
        assert_eq!(decoded, 5665);
        assert_eq!(plane.io_stats(), stats(1099, 14207, 1083));
    }

    /// Four threads share one plane on a one-frame pool — every fetch
    /// evicts, so every run spanning pages must be copied out before the
    /// next fetch — and every answer must match the resident plane. The
    /// threads report through a channel with a deadline, so a nested
    /// session (a self-deadlock on the pool lock) fails instead of hanging.
    #[test]
    fn concurrent_readers_on_a_one_frame_pool_match_resident() {
        let c = hybrid_closure();
        let paged = Arc::new(PagedPlane::open_from_bytes(&c.to_paged_bytes(), 1).unwrap());
        let resident = Arc::new(QueryPlane::freeze(&c.graph, &c.lab, 2));
        assert!(paged.bitset_rows() > 0 && paged.payload_pages() > 1);
        let n = c.node_count();
        let (tx, rx) = std::sync::mpsc::channel();
        let mut readers = Vec::new();
        for t in 0..4usize {
            let (paged, resident, tx) = (Arc::clone(&paged), Arc::clone(&resident), tx.clone());
            readers.push(std::thread::spawn(move || {
                let (mut got, mut want) = (Vec::new(), Vec::new());
                let (mut bits, mut want_bits) = (Vec::new(), Vec::new());
                for round in 0..3 {
                    for v in (t..n).step_by(3).map(NodeId::from_index) {
                        paged.successors_into(v, &mut got);
                        resident.successors_into(v, &mut want);
                        assert_eq!(got, want, "successors({v:?})");
                        assert_eq!(paged.successor_count(v), resident.successor_count(v));
                        paged.predecessors_into(v, &mut got);
                        resident.predecessors_into(v, &mut want);
                        assert_eq!(got, want, "predecessors({v:?})");
                        let pairs: Vec<(NodeId, NodeId)> = (round..n)
                            .step_by(5)
                            .map(|w| (v, NodeId::from_index(w)))
                            .collect();
                        paged.reaches_batch_into(&pairs, &mut bits);
                        resident.reaches_batch_into(&pairs, &mut want_bits);
                        assert_eq!(bits, want_bits, "reaches_batch from {v:?}");
                        for &(s, d) in &pairs {
                            assert_eq!(paged.reaches(s, d), resident.reaches(s, d));
                        }
                        assert!(paged.io_stats().resident <= 1);
                    }
                }
                tx.send(t).unwrap();
            }));
        }
        drop(tx);
        for _ in 0..4 {
            let done = rx.recv_timeout(std::time::Duration::from_secs(30));
            assert!(done.is_ok(), "a reader panicked or deadlocked: {done:?}");
        }
        for reader in readers {
            reader.join().expect("reader thread");
        }
        assert!(paged.io_stats().pool.evictions > 0);
    }

    #[test]
    fn plane_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<PagedPlane>();
        assert_send_sync::<QueryPlane>();
        assert_send_sync::<PagedClosure>();
    }
}
