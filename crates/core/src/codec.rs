//! Binary serialization of a compressed closure.
//!
//! A materialized closure is a *persistent* artifact — "compression is a
//! one-time activity, and once the compressed closure has been obtained, it
//! can be repeatedly used" (§3.2) — so it must survive process restarts
//! without being recomputed. The format is a versioned little-endian byte
//! stream carrying the base relation, the tree cover, the numbering
//! (including tombstones and consumed reserve tails) and every interval
//! set, so a round-trip restores the closure bit-for-bit, mid-update-epoch
//! state included.

use std::fmt;
use std::io::{self, Write};

use tc_graph::{DiGraph, NodeId};
use tc_interval::{Interval, IntervalSet, NumberLine};

use crate::labeling::Labeling;
use crate::treecover::{CoverStrategy, TreeCover};
use crate::{ClosureConfig, CompressedClosure};

const MAGIC: &[u8; 4] = b"ITC1";
/// Tag of the optional runtime-config footer appended after the number
/// line. Streams written before the footer existed simply end there;
/// decoding treats an absent footer as the old defaults (serial, thawed),
/// which keeps every previously written stream valid.
const CONFIG_FOOTER: &[u8; 4] = b"CFG1";
/// Tag of the optional hybrid-threshold footer, written after the `CFG1`
/// fields only when [`ClosureConfig::hybrid`] is set (threshold !=
/// `usize::MAX`). Non-hybrid closures keep producing byte-identical
/// streams, and old streams decode with the hybrid disabled.
const HYBRID_FOOTER: &[u8; 4] = b"HYB1";
const NO_PARENT: u32 = u32::MAX;
const TOMBSTONE: u32 = u32::MAX;

/// FNV-1a, 64-bit: integrity check over the payload so bit-level corruption
/// cannot silently alter reachability answers. Public so sibling codecs
/// (the server's dictionary section) and the fuzzer's mutation mode can
/// share the exact trailer convention.
pub fn fnv1a(data: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.update(data);
    h.finish()
}

/// Incremental FNV-1a, 64-bit: feed bytes in any chunking and get the same
/// digest as [`fnv1a`] over their concatenation. This is what lets the
/// streaming encode paths (closure save, plane section) compute their
/// trailer on the fly instead of materializing the stream first.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv1a {
    /// A fresh accumulator at the FNV-1a offset basis.
    pub fn new() -> Self {
        Fnv1a(0xcbf29ce484222325u64)
    }

    /// Absorbs `data`.
    pub fn update(&mut self, data: &[u8]) {
        let mut hash = self.0;
        for &b in data {
            hash ^= b as u64;
            hash = hash.wrapping_mul(0x100000001b3);
        }
        self.0 = hash;
    }

    /// The digest so far (the accumulator is still usable afterwards).
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// An [`io::Write`] adapter that FNV-accumulates and counts everything
/// written through it. The streaming save paths wrap their sink in this, so
/// the integrity trailer falls out of the write pass itself.
#[derive(Debug)]
pub struct HashingWriter<W> {
    inner: W,
    hash: Fnv1a,
    written: u64,
}

impl<W: Write> HashingWriter<W> {
    /// Wraps `inner` with a fresh accumulator.
    pub fn new(inner: W) -> Self {
        HashingWriter { inner, hash: Fnv1a::new(), written: 0 }
    }

    /// Digest of everything written so far.
    pub fn digest(&self) -> u64 {
        self.hash.finish()
    }

    /// Bytes written so far.
    pub fn written(&self) -> u64 {
        self.written
    }

    /// Unwraps the inner sink.
    pub fn into_inner(self) -> W {
        self.inner
    }
}

impl<W: Write> Write for HashingWriter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.hash.update(&buf[..n]);
        self.written += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// Errors from decoding a serialized closure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Missing or wrong magic/version header.
    BadMagic,
    /// The stream ended mid-field.
    Truncated,
    /// A structural invariant failed while rebuilding (corrupt stream).
    Corrupt(&'static str),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::BadMagic => write!(f, "not an interval-tc closure stream"),
            DecodeError::Truncated => write!(f, "closure stream is truncated"),
            DecodeError::Corrupt(what) => write!(f, "closure stream is corrupt: {what}"),
        }
    }
}

impl std::error::Error for DecodeError {}

struct Writer<W> {
    sink: HashingWriter<W>,
}

impl<W: Write> Writer<W> {
    fn bytes(&mut self, v: &[u8]) -> io::Result<()> {
        self.sink.write_all(v)
    }
    fn u8(&mut self, v: u8) -> io::Result<()> {
        self.sink.write_all(&[v])
    }
    fn u32(&mut self, v: u32) -> io::Result<()> {
        self.sink.write_all(&v.to_le_bytes())
    }
    fn u64(&mut self, v: u64) -> io::Result<()> {
        self.sink.write_all(&v.to_le_bytes())
    }
}

struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        let end = self.pos.checked_add(n).ok_or(DecodeError::Truncated)?;
        if end > self.data.len() {
            return Err(DecodeError::Truncated);
        }
        let slice = &self.data[self.pos..end];
        self.pos = end;
        Ok(slice)
    }
    fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }
    fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }
    fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }
    fn done(&self) -> bool {
        self.pos == self.data.len()
    }
    fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }
}

impl CompressedClosure {
    /// Serializes the closure (relation, cover, numbering, labels) to bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.write_to(&mut buf).expect("writing to a Vec cannot fail");
        buf
    }

    /// Streams the closure's serialized form into any [`io::Write`] sink —
    /// the same bytes as [`CompressedClosure::to_bytes`], but without
    /// materializing the stream: the FNV-1a trailer is accumulated on the
    /// fly, so peak memory during a save is O(1) beyond the closure itself.
    pub fn write_to<W: Write>(&self, sink: W) -> io::Result<()> {
        let mut w = Writer { sink: HashingWriter::new(sink) };
        w.bytes(MAGIC)?;

        // Config.
        match self.config.strategy {
            CoverStrategy::Optimal => w.u8(0)?,
            CoverStrategy::FirstParent => w.u8(1)?,
            CoverStrategy::Random { seed } => {
                w.u8(2)?;
                w.u64(seed)?;
            }
            CoverStrategy::Deepest => w.u8(3)?,
        }
        w.u64(self.config.gap)?;
        w.u64(self.config.reserve)?;
        w.u8(self.config.merge_adjacent as u8)?;

        // Relation.
        let n = self.graph.node_count();
        w.u32(n as u32)?;
        for v in self.graph.nodes() {
            let succ = self.graph.successors(v);
            w.u32(succ.len() as u32)?;
            for s in succ {
                w.u32(s.0)?;
            }
        }

        // Tree cover (children order is recoverable: ascending id for the
        // builder strategies; explicit covers serialize their order).
        for v in self.graph.nodes() {
            w.u32(self.cover.parent(v).map_or(NO_PARENT, |p| p.0))?;
        }
        for v in self.graph.nodes() {
            let kids = self.cover.children(v);
            w.u32(kids.len() as u32)?;
            for k in kids {
                w.u32(k.0)?;
            }
        }

        // Labels.
        for ix in 0..n {
            w.u64(self.lab.post[ix])?;
            w.u64(self.lab.low[ix])?;
            w.u64(self.lab.advertised_hi[ix])?;
        }
        w.u64(self.lab.reserve)?;
        for ix in 0..n {
            let set = &self.lab.sets[ix];
            w.u32(set.count() as u32)?;
            for iv in set.iter() {
                w.u64(iv.lo())?;
                w.u64(iv.hi())?;
            }
        }

        // Number line, tombstones included, ascending — streamed straight
        // off the line instead of staging a Vec of entries.
        w.u64(self.lab.line.total_count() as u64)?;
        let mut cursor = if self.lab.line.is_used(0) {
            Some(0) // `next_used` is exclusive, and 0 itself can be occupied
        } else {
            self.lab.line.next_used(0)
        };
        while let Some(num) = cursor {
            w.u64(num)?;
            w.u32(self.lab.line.node_at(num).unwrap_or(TOMBSTONE))?;
            cursor = self.lab.line.next_used(num);
        }

        // Runtime-config footer: the knobs that are not closure *state* but
        // should survive a save/load cycle all the same (a service restored
        // from disk wants its thread count back). The byte after the thread
        // count once carried a freeze-on-load flag; it is written as 0 and
        // ignored on read, so the footer keeps its 13-byte layout.
        w.bytes(CONFIG_FOOTER)?;
        w.u64(self.config.threads as u64)?;
        w.u8(0)?;
        if self.config.hybrid_threshold != usize::MAX {
            w.bytes(HYBRID_FOOTER)?;
            w.u64(self.config.hybrid_threshold as u64)?;
        }

        let checksum = w.sink.digest();
        let mut sink = w.sink.into_inner();
        sink.write_all(&checksum.to_le_bytes())?;
        sink.flush()
    }

    /// Restores a closure serialized with [`CompressedClosure::to_bytes`].
    pub fn from_bytes(data: &[u8]) -> Result<Self, DecodeError> {
        // Verify and strip the trailing checksum first.
        if data.len() < 12 {
            return Err(DecodeError::Truncated);
        }
        let (payload, tail) = data.split_at(data.len() - 8);
        let stored = u64::from_le_bytes(tail.try_into().expect("8 bytes"));
        if fnv1a(payload) != stored {
            return Err(DecodeError::Corrupt("checksum mismatch"));
        }
        let mut r = Reader { data: payload, pos: 0 };
        if r.take(4)? != MAGIC {
            return Err(DecodeError::BadMagic);
        }

        let strategy = match r.u8()? {
            0 => CoverStrategy::Optimal,
            1 => CoverStrategy::FirstParent,
            2 => CoverStrategy::Random { seed: r.u64()? },
            3 => CoverStrategy::Deepest,
            _ => return Err(DecodeError::Corrupt("unknown cover strategy")),
        };
        let gap = r.u64()?;
        let reserve = r.u64()?;
        let merge_adjacent = r.u8()? != 0;
        if gap == 0 || gap <= 2 * reserve {
            return Err(DecodeError::Corrupt("invalid gap/reserve"));
        }
        let mut config = ClosureConfig {
            strategy,
            gap,
            reserve,
            merge_adjacent,
            // Runtime knob; restored from the config footer at the end of
            // the stream when present, defaulting to serial for streams
            // written before the footer existed.
            threads: 1,
            // Not serialized: scoped and global deletion recomputes yield
            // the same closure, so restored streams default to scoped.
            scoped_deletes: true,
            // Not serialized: whether to serve frozen snapshots out-of-core
            // is a property of the opening process, not the stream.
            paged_pool: 0,
            // Restored from the optional HYB1 footer when present.
            hybrid_threshold: usize::MAX,
        };

        // Relation.
        let n = r.u32()? as usize;
        // Every node costs at least 4 bytes (its degree word) before the
        // stream can end, so a declared count beyond that is corrupt — and
        // must be rejected *before* sizing any allocation by it, or a
        // 5-byte stream could demand gigabytes.
        if n > r.remaining() / 4 {
            return Err(DecodeError::Corrupt("node count exceeds stream"));
        }
        let mut graph = DiGraph::with_nodes(n);
        for v in 0..n as u32 {
            let deg = r.u32()? as usize;
            for _ in 0..deg {
                let d = r.u32()?;
                if d as usize >= n {
                    return Err(DecodeError::Corrupt("edge endpoint out of range"));
                }
                graph
                    .try_add_edge(NodeId(v), NodeId(d))
                    .map_err(|_| DecodeError::Corrupt("invalid edge"))?;
            }
        }

        // Tree cover.
        let mut parents: Vec<Option<NodeId>> = Vec::with_capacity(n);
        for _ in 0..n {
            let p = r.u32()?;
            parents.push(if p == NO_PARENT {
                None
            } else if (p as usize) < n {
                Some(NodeId(p))
            } else {
                return Err(DecodeError::Corrupt("parent out of range"));
            });
        }
        let mut children: Vec<Vec<NodeId>> = Vec::with_capacity(n);
        for _ in 0..n {
            let k = r.u32()? as usize;
            if k > n {
                return Err(DecodeError::Corrupt("child count out of range"));
            }
            let mut kids = Vec::with_capacity(k);
            for _ in 0..k {
                let c = r.u32()?;
                if c as usize >= n {
                    return Err(DecodeError::Corrupt("child out of range"));
                }
                kids.push(NodeId(c));
            }
            children.push(kids);
        }
        let cover = TreeCover::from_raw(parents, children)
            .ok_or(DecodeError::Corrupt("inconsistent tree cover"))?;
        if !cover.check_consistency(&graph) {
            return Err(DecodeError::Corrupt("cover does not match relation"));
        }

        // Labels.
        let mut post = Vec::with_capacity(n);
        let mut low = Vec::with_capacity(n);
        let mut advertised_hi = Vec::with_capacity(n);
        for _ in 0..n {
            let p = r.u64()?;
            let l = r.u64()?;
            let a = r.u64()?;
            if l > p || a < p {
                return Err(DecodeError::Corrupt("label ordering violated"));
            }
            post.push(p);
            low.push(l);
            advertised_hi.push(a);
        }
        let lab_reserve = r.u64()?;
        let mut sets = Vec::with_capacity(n);
        #[allow(clippy::needless_range_loop)] // parallel-array reconstruction
        for ix in 0..n {
            let k = r.u32()? as usize;
            let mut set = IntervalSet::new();
            for _ in 0..k {
                let lo = r.u64()?;
                let hi = r.u64()?;
                if lo > hi {
                    return Err(DecodeError::Corrupt("inverted interval"));
                }
                set.insert(Interval::new(lo, hi));
            }
            if set.count() != k {
                return Err(DecodeError::Corrupt("interval set had subsumed members"));
            }
            if !set.contains_point(post[ix]) {
                return Err(DecodeError::Corrupt("node label misses its own number"));
            }
            sets.push(set);
        }

        // Number line. Each entry is 12 bytes on the wire; a count beyond
        // what the stream can still hold is corrupt, not a reason to loop.
        let entries = r.u64()? as usize;
        if entries > r.remaining() / 12 {
            return Err(DecodeError::Corrupt("number line count exceeds stream"));
        }
        let mut line = NumberLine::new();
        let mut live = 0usize;
        for _ in 0..entries {
            let num = r.u64()?;
            let owner = r.u32()?;
            if line.is_used(num) {
                // `NumberLine::assign` asserts uniqueness; a corrupt stream
                // must not be able to trip that assert.
                return Err(DecodeError::Corrupt("duplicate number on the line"));
            }
            if owner == TOMBSTONE {
                // Assign-then-tombstone reconstructs the tombstoned state.
                line.assign(num, 0);
                line.tombstone(num);
            } else {
                if owner as usize >= n || post[owner as usize] != num {
                    return Err(DecodeError::Corrupt("number line disagrees with labels"));
                }
                line.assign(num, owner);
                live += 1;
            }
        }
        if live != n {
            return Err(DecodeError::Corrupt("number line is missing live nodes"));
        }
        // Optional runtime-config footer (absent in old streams).
        if !r.done() {
            if r.take(4)? != CONFIG_FOOTER {
                return Err(DecodeError::Corrupt("trailing bytes"));
            }
            config.threads = r.u64()? as usize;
            r.u8()?; // retired freeze-on-load flag: read and ignored
            // Optional hybrid-threshold footer (absent when disabled).
            if !r.done() {
                if r.take(4)? != HYBRID_FOOTER {
                    return Err(DecodeError::Corrupt("trailing bytes"));
                }
                let threshold = r.u64()?;
                if threshold == u64::MAX {
                    return Err(DecodeError::Corrupt("hybrid footer with disabled threshold"));
                }
                config.hybrid_threshold = threshold as usize;
            }
            if !r.done() {
                return Err(DecodeError::Corrupt("trailing bytes"));
            }
        }

        Ok(CompressedClosure::from_parts(
            graph,
            cover,
            Labeling {
                post,
                low,
                advertised_hi,
                sets,
                line,
                reserve: lab_reserve,
            },
            config,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tc_graph::generators;

    fn sample() -> CompressedClosure {
        let g = generators::random_dag(generators::RandomDagConfig {
            nodes: 40,
            avg_out_degree: 2.0,
            seed: 6,
        });
        ClosureConfig::new().gap(32).reserve(3).build(&g).unwrap()
    }

    #[test]
    fn roundtrip_fresh_closure() {
        let c = sample();
        let bytes = c.to_bytes();
        let back = CompressedClosure::from_bytes(&bytes).unwrap();
        back.verify().unwrap();
        for v in c.graph().nodes() {
            assert_eq!(c.intervals(v), back.intervals(v));
            assert_eq!(c.post_number(v), back.post_number(v));
        }
        assert_eq!(back.to_bytes(), bytes, "re-serialization is stable");
    }

    #[test]
    fn roundtrip_mid_update_state() {
        let mut c = sample();
        // Mutate into an interesting state: insertions, a refinement, a
        // tree-arc deletion (tombstones!).
        let leaf = c.add_node_with_parents(&[NodeId(3)]).unwrap();
        let preds: Vec<NodeId> = c.graph().predecessors(leaf).to_vec();
        c.refine_insert(leaf, &preds).unwrap();
        let (s, d) = c
            .graph()
            .edges()
            .find(|&(s, d)| c.cover().is_tree_arc(s, d))
            .unwrap();
        c.remove_edge(s, d).unwrap();

        let back = CompressedClosure::from_bytes(&c.to_bytes()).unwrap();
        back.verify().unwrap();
        // Updates continue to work on the restored closure.
        let mut back = back;
        let extra = back.add_node_with_parents(&[leaf]).unwrap();
        assert!(back.reaches(NodeId(3), extra));
        back.verify().unwrap();
    }

    #[test]
    fn rejects_garbage() {
        // Too short to even carry a checksum.
        assert!(matches!(
            CompressedClosure::from_bytes(b"nope"),
            Err(DecodeError::Truncated)
        ));
        // Checksums out: truncation breaks the checksum before anything else.
        let mut bytes = sample().to_bytes();
        bytes.truncate(bytes.len() - 3);
        assert!(matches!(
            CompressedClosure::from_bytes(&bytes),
            Err(DecodeError::Corrupt("checksum mismatch"))
        ));
        // A well-checksummed stream with the wrong magic.
        let mut garbage = b"XXXXsome-other-format".to_vec();
        let sum = fnv1a(&garbage);
        garbage.extend_from_slice(&sum.to_le_bytes());
        assert!(matches!(
            CompressedClosure::from_bytes(&garbage),
            Err(DecodeError::BadMagic)
        ));
    }

    #[test]
    fn rejects_corruption() {
        let c = sample();
        let bytes = c.to_bytes();
        // Flip bytes across the stream: every flip must either be rejected
        // by the decoder or still yield a *semantically valid* closure
        // (e.g. a flipped config byte). Silent reachability corruption is
        // the failure mode being tested against.
        for pos in (8..bytes.len()).step_by(bytes.len() / 23) {
            let mut broken = bytes.clone();
            broken[pos] ^= 0xFF;
            if let Ok(back) = CompressedClosure::from_bytes(&broken) {
                back.verify()
                    .unwrap_or_else(|e| panic!("silent corruption at byte {pos}: {e}"));
            }
        }
    }

    /// Re-signs a mutated stream so it passes the trailer check — the
    /// mutation-campaign trick, reproduced here for the shrunk regressions.
    fn refix(bytes: &mut [u8]) {
        let split = bytes.len() - 8;
        let sum = fnv1a(&bytes[..split]);
        bytes[split..].copy_from_slice(&sum.to_le_bytes());
    }

    /// Shrunk mutation-campaign reproducer: a stream declaring u32::MAX
    /// nodes used to size a multi-gigabyte graph allocation before reading
    /// another byte. The count must be rejected against the bytes actually
    /// present.
    #[test]
    fn oversized_node_count_is_rejected_not_allocated() {
        let mut bytes = sample().to_bytes();
        // Node count sits right after magic(4) + strategy tag(1) + gap(8) +
        // reserve(8) + merge flag(1) for the non-seeded strategies.
        let off = 22;
        assert_eq!(
            u32::from_le_bytes(bytes[off..off + 4].try_into().unwrap()),
            40,
            "node-count offset moved; update this reproducer"
        );
        bytes[off..off + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        refix(&mut bytes);
        assert_eq!(
            CompressedClosure::from_bytes(&bytes).err(),
            Some(DecodeError::Corrupt("node count exceeds stream"))
        );
    }

    /// Shrunk mutation-campaign reproducer: a duplicated number-line entry
    /// used to trip `NumberLine::assign`'s uniqueness assert — a panic on
    /// attacker-controlled bytes.
    #[test]
    fn duplicate_number_line_entry_is_rejected_not_a_panic() {
        let bytes = sample().to_bytes();
        // Layout from the tail: checksum(8), footer(4+8+1), then the
        // number-line section ending with the last 12-byte entry.
        let footer = 8 + 13;
        let tail = bytes.len() - footer;
        let entry = bytes[tail - 12..tail].to_vec();
        let cnt_off = {
            // The count field precedes the entries; scan for it by decoding
            // the count and checking it spans exactly to `tail`.
            let mut off = None;
            for probe in (12..tail).rev() {
                let c = u64::from_le_bytes(bytes[probe - 8..probe].try_into().unwrap());
                if let Some(span) = c.checked_mul(12) {
                    if span as usize == tail - probe {
                        off = Some(probe - 8);
                        break;
                    }
                }
            }
            off.expect("number-line count field located")
        };
        let count = u64::from_le_bytes(bytes[cnt_off..cnt_off + 8].try_into().unwrap());
        let mut broken = Vec::new();
        broken.extend_from_slice(&bytes[..cnt_off]);
        broken.extend_from_slice(&(count + 1).to_le_bytes());
        broken.extend_from_slice(&bytes[cnt_off + 8..tail]);
        broken.extend_from_slice(&entry); // the duplicate
        broken.extend_from_slice(&bytes[tail..]);
        refix(&mut broken);
        assert_eq!(
            CompressedClosure::from_bytes(&broken).err(),
            Some(DecodeError::Corrupt("duplicate number on the line"))
        );
    }

    /// Shrunk mutation-campaign reproducer: a number-line count of u64::MAX
    /// must be bounded by the stream, not looped over.
    #[test]
    fn oversized_number_line_count_is_rejected() {
        let bytes = sample().to_bytes();
        let footer = 8 + 13;
        let tail = bytes.len() - footer;
        let mut cnt_off = None;
        for probe in (12..tail).rev() {
            let c = u64::from_le_bytes(bytes[probe - 8..probe].try_into().unwrap());
            if let Some(span) = c.checked_mul(12) {
                if span as usize == tail - probe {
                    cnt_off = Some(probe - 8);
                    break;
                }
            }
        }
        let cnt_off = cnt_off.expect("number-line count field located");
        let mut broken = bytes.clone();
        broken[cnt_off..cnt_off + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        refix(&mut broken);
        assert_eq!(
            CompressedClosure::from_bytes(&broken).err(),
            Some(DecodeError::Corrupt("number line count exceeds stream"))
        );
    }

    #[test]
    fn config_footer_roundtrips_runtime_knobs() {
        let g = generators::random_dag(generators::RandomDagConfig {
            nodes: 30,
            avg_out_degree: 2.0,
            seed: 9,
        });
        let c = ClosureConfig::new().threads(3).build(&g).unwrap();
        let back = CompressedClosure::from_bytes(&c.to_bytes()).unwrap();
        assert_eq!(back.config().threads, 3);
        back.verify().unwrap();
        assert_eq!(back.to_bytes(), c.to_bytes(), "footer re-serialization is stable");
    }

    #[test]
    fn retired_freeze_flag_is_read_and_ignored() {
        // Streams written while the footer's flag byte (after the thread
        // count) could be 1 still decode: thawed, answering like the original.
        let c = sample();
        let mut bytes = c.to_bytes();
        let flag = bytes.len() - 8 - 1;
        assert_eq!(&bytes[flag - 12..flag - 8], CONFIG_FOOTER);
        assert_eq!(bytes[flag], 0, "the flag is written as 0");
        bytes[flag] = 1;
        refix(&mut bytes);
        let back = CompressedClosure::from_bytes(&bytes).unwrap();
        assert!(!back.is_frozen(), "the flag no longer freezes on decode");
        back.verify().unwrap();
        for u in c.graph().nodes() {
            assert_eq!(back.successors(u), c.successors(u));
            assert_eq!(back.predecessors(u), c.predecessors(u));
        }
        assert_eq!(back.to_bytes(), c.to_bytes(), "re-encodes with the flag cleared");
    }

    #[test]
    fn streams_without_config_footer_still_decode() {
        // Reconstruct the pre-footer format: strip the 13-byte footer and
        // the checksum, then re-checksum the shortened payload.
        let c = sample();
        let bytes = c.to_bytes();
        let payload = &bytes[..bytes.len() - 8 - 13];
        assert_eq!(&bytes[payload.len()..payload.len() + 4], CONFIG_FOOTER);
        let mut old = payload.to_vec();
        let sum = fnv1a(&old);
        old.extend_from_slice(&sum.to_le_bytes());
        let back = CompressedClosure::from_bytes(&old).unwrap();
        back.verify().unwrap();
        assert_eq!(back.config().threads, 1, "old streams default to serial");
        assert!(!back.is_frozen());
        for v in c.graph().nodes() {
            assert_eq!(c.intervals(v), back.intervals(v));
        }
    }

    #[test]
    fn empty_closure_roundtrips() {
        let c = CompressedClosure::build(&DiGraph::new()).unwrap();
        let back = CompressedClosure::from_bytes(&c.to_bytes()).unwrap();
        assert_eq!(back.node_count(), 0);
    }
}
