//! Byte-level row layout and probe kernel of the frozen plane.
//!
//! Every frozen plane — resident or paged out-of-core — stores its
//! per-node rank-interval rows the same way: a `HEADS` segment of
//! fixed-size row headers and a `SPILL` segment of boundary keys, inside a
//! page-aligned `PLN2` image. A disjoint, non-adjacent interval sequence is
//! exactly its sorted *boundary array* `lo_0, hi_0+1, lo_1, hi_1+1, ...`,
//! and `t` is covered iff an odd number of boundaries are `<= t`. Each row
//! header holds the first interval, the row's upper bound, and *fence*
//! keys splitting the boundary array into at most `fences + 1` slices, so
//! a point probe loads the header, picks one slice with a branchless fence
//! scan, and parity-counts that slice — two dependent cache accesses
//! instead of a pointer-chasing binary search.
//!
//! Two key widths share one geometry: `u16` ranks with 64-byte headers
//! (one cache line) when the live number line fits, `u32` ranks with
//! 128-byte headers otherwise. This module is the single source of truth
//! for that layout — the freeze writer encodes rows through it and the
//! plane reader probes them through it.
//!
//! Everything here is pure byte arithmetic over caller-provided slices —
//! no I/O, no panics on corrupt *values* (only on caller slice-length
//! violations, which the plane reader bounds-checks before calling in).

/// Intervals per slice granule. Slices hold a multiple of 8 whole
/// intervals = a multiple of 16 boundaries = a multiple of one 64-byte
/// cache line for `u32` keys (half a line for `u16`), so with rows starting
/// aligned every slice scan stays within whole aligned lines. Whole
/// intervals per slice also means every preceding slice contributes an
/// *even* number of boundaries, letting the probe take its containment
/// parity from the probed slice alone.
const SLICE_GRANULE: usize = 8;

/// The rank key width of a frozen plane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeyWidth {
    /// `u16` ranks: 64-byte headers, 26 fences. Usable when the live number
    /// line has at most `u16::MAX` entries.
    Narrow,
    /// `u32` ranks: 128-byte headers, 27 fences.
    Wide,
}

impl KeyWidth {
    /// Bytes per rank key.
    #[inline]
    pub fn key_bytes(self) -> usize {
        match self {
            KeyWidth::Narrow => <u16 as Key>::BYTES,
            KeyWidth::Wide => <u32 as Key>::BYTES,
        }
    }

    /// Fence keys per row header — chosen so the header exactly fills its
    /// aligned footprint.
    #[inline]
    pub fn fences(self) -> usize {
        match self {
            KeyWidth::Narrow => <u16 as Key>::FENCES,
            KeyWidth::Wide => <u32 as Key>::FENCES,
        }
    }

    /// Bytes per row header: 64 for narrow, 128 for wide — both divide the
    /// 4 KiB page, so a header never straddles a page boundary.
    #[inline]
    pub fn head_bytes(self) -> usize {
        match self {
            KeyWidth::Narrow => <u16 as Key>::HEAD,
            KeyWidth::Wide => <u32 as Key>::HEAD,
        }
    }

    /// The key maximum, used as the fence/padding sentinel (widened to
    /// `u32` for the narrow layout). Ranks stay strictly below it.
    #[inline]
    pub fn max_key(self) -> u32 {
        match self {
            KeyWidth::Narrow => u16::MAX as u32,
            KeyWidth::Wide => u32::MAX,
        }
    }

    /// Writes `v` as the key at position `pos` of `buf`.
    #[inline]
    pub fn put_key(self, buf: &mut [u8], pos: usize, v: u32) {
        match self {
            KeyWidth::Narrow => {
                buf[pos * 2..pos * 2 + 2].copy_from_slice(&(v as u16).to_le_bytes())
            }
            KeyWidth::Wide => buf[pos * 4..pos * 4 + 4].copy_from_slice(&v.to_le_bytes()),
        }
    }
}

/// A little-endian rank key type; lets the probe kernel be written once and
/// monomorphized per width, so the hot loops carry no width dispatch.
trait Key {
    const BYTES: usize;
    const FENCES: usize;
    const HEAD: usize;
    /// The key at the start of `b`, widened.
    fn read(b: &[u8]) -> u32;
}

impl Key for u16 {
    const BYTES: usize = 2;
    const FENCES: usize = 26;
    const HEAD: usize = 64;
    #[inline(always)]
    fn read(b: &[u8]) -> u32 {
        u16::from_le_bytes(b[..2].try_into().expect("two bytes")) as u32
    }
}

impl Key for u32 {
    const BYTES: usize = 4;
    const FENCES: usize = 27;
    const HEAD: usize = 128;
    #[inline(always)]
    fn read(b: &[u8]) -> u32 {
        u32::from_le_bytes(b[..4].try_into().expect("four bytes"))
    }
}

/// Slice width (in intervals) for a row of `m` intervals: the smallest
/// multiple of the 8-interval slice granule that fits `m` into `fences + 1` slices.
#[inline]
pub fn slice_width(m: usize, kw: KeyWidth) -> usize {
    (m.div_ceil(kw.fences() + 1)).next_multiple_of(SLICE_GRANULE)
}

/// Total boundary *keys* a row of `m` intervals occupies in the spill
/// segment, padding included: whole slices of `2 * slice_width` keys.
/// Zero for an empty row.
#[inline]
pub fn padded_boundary_keys(m: usize, kw: KeyWidth) -> usize {
    if m == 0 {
        return 0;
    }
    let width = slice_width(m, kw);
    m.div_ceil(width) * 2 * width
}

/// A decoded row header (fences are read lazily during probes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PagedHead {
    /// First interval's endpoints; `[1, 0]` for an empty row.
    pub lo0: u32,
    /// First interval's upper endpoint.
    pub hi0: u32,
    /// Start of the row's boundary slices in the spill segment, in keys.
    pub spill_start: u32,
    /// The row's merged interval count.
    pub intervals: u32,
    /// One past the row's last covered rank; 0 for an empty row.
    pub top: u32,
}

/// Field byte offsets within a header for key size `kb`:
/// `(lo0, hi0, spill_start (u32), intervals, top, fences)`.
#[inline]
const fn field_offsets(kb: usize) -> (usize, usize, usize, usize, usize, usize) {
    (0, kb, 2 * kb, 2 * kb + 4, 3 * kb + 4, 4 * kb + 4)
}

/// Encodes one row header into `out` (exactly [`KeyWidth::head_bytes`]).
/// `intervals` must be the row's *merged* intervals, ascending and disjoint,
/// with every endpoint strictly below [`KeyWidth::max_key`]; `spill_start`
/// is the row's first key index in the spill segment.
pub fn encode_head(out: &mut [u8], kw: KeyWidth, intervals: &[(u32, u32)], spill_start: u32) {
    assert_eq!(out.len(), kw.head_bytes(), "head buffer size");
    let (o_lo0, o_hi0, o_spill, o_m, o_top, o_fences) = field_offsets(kw.key_bytes());
    let Some(&(lo0, hi0)) = intervals.first() else {
        // The empty row: impossible interval [1, 0], zero extent, all-max
        // fences — no probe can land in it.
        out.fill(0);
        kw.put_key(&mut out[o_lo0..], 0, 1);
        kw.put_key(&mut out[o_hi0..], 0, 0);
        for i in 0..kw.fences() {
            kw.put_key(&mut out[o_fences..], i, kw.max_key());
        }
        return;
    };
    let m = intervals.len();
    let width = slice_width(m, kw);
    let slices = m.div_ceil(width);
    kw.put_key(&mut out[o_lo0..], 0, lo0);
    kw.put_key(&mut out[o_hi0..], 0, hi0);
    out[o_spill..o_spill + 4].copy_from_slice(&spill_start.to_le_bytes());
    kw.put_key(&mut out[o_m..], 0, m as u32);
    kw.put_key(&mut out[o_top..], 0, intervals[m - 1].1 + 1);
    for i in 0..kw.fences() {
        // fences[i] is the first boundary of slice i + 1 (padding boundaries
        // are the key maximum), or the key maximum past the last slice.
        let fence = if i < slices - 1 {
            boundary_at(intervals, (i + 1) * 2 * width, kw)
        } else {
            kw.max_key()
        };
        kw.put_key(&mut out[o_fences..], i, fence);
    }
}

/// The `j`-th boundary of a row: `lo_0, hi_0+1, lo_1, hi_1+1, ...`, with
/// the key maximum past the real boundaries (tail-slice padding).
#[inline]
fn boundary_at(intervals: &[(u32, u32)], j: usize, kw: KeyWidth) -> u32 {
    if j < 2 * intervals.len() {
        let (lo, hi) = intervals[j / 2];
        if j % 2 == 0 { lo } else { hi + 1 }
    } else {
        kw.max_key()
    }
}

/// Appends one row's boundary keys — real boundaries plus tail-slice
/// padding, [`padded_boundary_keys`] keys total — to `out` as bytes.
pub fn encode_boundaries(out: &mut Vec<u8>, kw: KeyWidth, intervals: &[(u32, u32)]) {
    let total = padded_boundary_keys(intervals.len(), kw);
    let base = out.len();
    out.resize(base + total * kw.key_bytes(), 0);
    let buf = &mut out[base..];
    for j in 0..total {
        kw.put_key(buf, j, boundary_at(intervals, j, kw));
    }
}

/// Decodes a row header from `bytes` (at least [`KeyWidth::head_bytes`]).
pub fn decode_head(bytes: &[u8], kw: KeyWidth) -> PagedHead {
    match kw {
        KeyWidth::Narrow => decode_head_k::<u16>(bytes),
        KeyWidth::Wide => decode_head_k::<u32>(bytes),
    }
}

#[inline(always)]
fn decode_head_k<K: Key>(bytes: &[u8]) -> PagedHead {
    // A constant-length view lets every field read below skip its check.
    let bytes = &bytes[..K::HEAD];
    let (o_lo0, o_hi0, o_spill, o_m, o_top, _) = field_offsets(K::BYTES);
    PagedHead {
        lo0: K::read(&bytes[o_lo0..]),
        hi0: K::read(&bytes[o_hi0..]),
        spill_start: u32::read(&bytes[o_spill..]),
        intervals: K::read(&bytes[o_m..]),
        top: K::read(&bytes[o_top..]),
    }
}

/// Outcome of probing a row header for rank `t`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HeadProbe {
    /// The header alone settles the probe.
    Hit(bool),
    /// The probe must parity-count one boundary slice: `key_count` keys of
    /// the spill segment starting at key index `key_start`. The answer is
    /// `count_le(slice, t)` being odd.
    Scan {
        /// First key index of the slice within the spill segment.
        key_start: u64,
        /// Keys in the slice (`2 * slice_width`).
        key_count: u32,
    },
}

/// Probes a row header for rank `t`: the inline first interval and the
/// row's upper bound settle most probes; otherwise the fence keys pick the
/// one slice of the boundary array that can hold `t`'s predecessor. Slices
/// hold whole intervals, so every earlier slice contributes an even count
/// and only the probed slice's parity matters.
#[inline]
pub fn probe_head(bytes: &[u8], kw: KeyWidth, t: u32) -> HeadProbe {
    match kw {
        KeyWidth::Narrow => probe_head_k::<u16>(bytes, t),
        KeyWidth::Wide => probe_head_k::<u32>(bytes, t),
    }
}

#[inline(always)]
fn probe_head_k<K: Key>(bytes: &[u8], t: u32) -> HeadProbe {
    let head = decode_head_k::<K>(bytes);
    if t <= head.hi0 {
        return HeadProbe::Hit(t >= head.lo0);
    }
    if t >= head.top {
        return HeadProbe::Hit(false);
    }
    let (.., o_fences) = field_offsets(K::BYTES);
    let fences = &bytes[o_fences..K::HEAD];
    let mut g = 0usize;
    for i in 0..K::FENCES {
        g += usize::from(K::read(&fences[i * K::BYTES..]) <= t);
    }
    let width =
        2 * (head.intervals as usize).div_ceil(K::FENCES + 1).next_multiple_of(SLICE_GRANULE);
    HeadProbe::Scan {
        key_start: head.spill_start as u64 + (g * width) as u64,
        key_count: width as u32,
    }
}

/// Calls `f(lo, hi + 1)` for each of a row's `m` intervals, decoded from
/// its first `2 * m` boundary keys in `bytes`, stopping at the first error.
#[inline]
pub fn for_each_boundary_pair<E>(
    bytes: &[u8],
    kw: KeyWidth,
    m: usize,
    f: impl FnMut(u32, u32) -> Result<(), E>,
) -> Result<(), E> {
    fn pairs<K: Key, E>(
        bytes: &[u8],
        m: usize,
        mut f: impl FnMut(u32, u32) -> Result<(), E>,
    ) -> Result<(), E> {
        for pair in bytes[..2 * m * K::BYTES].chunks_exact(2 * K::BYTES) {
            f(K::read(pair), K::read(&pair[K::BYTES..]))?;
        }
        Ok(())
    }
    match kw {
        KeyWidth::Narrow => pairs::<u16, E>(bytes, m, f),
        KeyWidth::Wide => pairs::<u32, E>(bytes, m, f),
    }
}

/// Counts the keys `<= t` in a raw key run (`bytes.len()` must be a
/// multiple of the key size) — the parity count of a boundary slice, usable
/// piecewise across page boundaries since addition is associative.
#[inline]
pub fn count_le(bytes: &[u8], kw: KeyWidth, t: u32) -> usize {
    fn count<K: Key>(bytes: &[u8], t: u32) -> usize {
        bytes.chunks_exact(K::BYTES).map(|c| usize::from(K::read(c) <= t)).sum()
    }
    match kw {
        KeyWidth::Narrow => count::<u16>(bytes, t),
        KeyWidth::Wide => count::<u32>(bytes, t),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes rows via this module and probes every rank through the
    /// byte layout, comparing against a naive scan of the same intervals.
    fn assert_rows_match(kw: KeyWidth, rows: &[Vec<(u32, u32)>], top_probe: u32) {
        let mut heads = Vec::new();
        let mut spill = Vec::new();
        let mut spill_keys = 0u32;
        for row in rows {
            let base = heads.len();
            heads.resize(base + kw.head_bytes(), 0);
            encode_head(&mut heads[base..], kw, row, spill_keys);
            encode_boundaries(&mut spill, kw, row);
            spill_keys += padded_boundary_keys(row.len(), kw) as u32;
        }
        let probe = |row: usize, t: u32| -> bool {
            let hb = kw.head_bytes();
            match probe_head(&heads[row * hb..(row + 1) * hb], kw, t) {
                HeadProbe::Hit(ans) => ans,
                HeadProbe::Scan { key_start, key_count } => {
                    let kb = kw.key_bytes();
                    let a = key_start as usize * kb;
                    let b = a + key_count as usize * kb;
                    count_le(&spill[a..b], kw, t) % 2 == 1
                }
            }
        };
        for (ix, row) in rows.iter().enumerate() {
            for t in 0..top_probe {
                let want = row.iter().any(|&(lo, hi)| lo <= t && t <= hi);
                assert_eq!(probe(ix, t), want, "{kw:?} row {ix}, t {t}");
            }
        }
    }

    /// Pre-merged interval rows (ascending, disjoint, non-adjacent) — what
    /// the freeze path hands the encoder.
    fn sample_rows() -> Vec<Vec<(u32, u32)>> {
        vec![
            vec![(1, 3), (7, 9)],
            vec![],
            vec![(2, 2)],
            vec![(0, 9), (20, 30)],
            vec![(0, 0)],
        ]
    }

    #[test]
    fn byte_probe_matches_memory_probe_both_widths() {
        assert_rows_match(KeyWidth::Wide, &sample_rows(), 40);
        assert_rows_match(KeyWidth::Narrow, &sample_rows(), 40);
    }

    #[test]
    fn large_rows_cross_fence_slices() {
        // Rows around the slice-count boundaries, so the fence scan and
        // multi-slice padding paths are exercised in both widths.
        let mut state = 0x0123_4567_89ab_cdefu64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 33) as u32
        };
        for m in [1usize, 8, 9, 223, 224, 225, 500] {
            let mut row = Vec::with_capacity(m);
            let mut lo = next() % 3;
            for _ in 0..m {
                let hi = lo + next() % 9;
                row.push((lo, hi));
                lo = hi + 2 + next() % 7;
            }
            let top = row.last().unwrap().1 + 3;
            let rows = vec![row];
            assert_rows_match(KeyWidth::Wide, &rows, top.min(4000));
            if top < u16::MAX as u32 {
                assert_rows_match(KeyWidth::Narrow, &rows, top.min(4000));
            }
        }
    }

    #[test]
    fn geometry_constants() {
        for kw in [KeyWidth::Wide, KeyWidth::Narrow] {
            // Headers exactly fill their footprint: fields + fences.
            let (.., o_fences) = field_offsets(kw.key_bytes());
            assert_eq!(o_fences + kw.fences() * kw.key_bytes(), kw.head_bytes());
            // Rows always occupy whole 16-key (one-slice-granule) units, so
            // spill starts stay slice-aligned.
            for m in 0..600 {
                assert_eq!(padded_boundary_keys(m, kw) % 16, 0);
            }
        }
        assert_eq!((KeyWidth::Wide.head_bytes(), KeyWidth::Narrow.head_bytes()), (128, 64));
        assert_eq!(
            (u16::FENCES, u32::FENCES),
            (KeyWidth::Narrow.fences(), KeyWidth::Wide.fences())
        );
    }

    /// The freeze reserves its resident buffer from unmerged row lengths,
    /// which bounds the spill only because padding never shrinks as a row
    /// grows.
    #[test]
    fn padding_is_monotone_in_the_row_length() {
        for kw in [KeyWidth::Wide, KeyWidth::Narrow] {
            for m in 0..20_000 {
                let here = padded_boundary_keys(m, kw);
                let next = padded_boundary_keys(m + 1, kw);
                assert!(here <= next, "{kw:?}: {m} intervals pad to {here} keys, {m}+1 to {next}");
            }
        }
    }

    #[test]
    fn head_roundtrip() {
        for kw in [KeyWidth::Wide, KeyWidth::Narrow] {
            let mut buf = vec![0u8; kw.head_bytes()];
            encode_head(&mut buf, kw, &[(3, 5), (9, 12)], 48);
            let head = decode_head(&buf, kw);
            assert_eq!(
                head,
                PagedHead { lo0: 3, hi0: 5, spill_start: 48, intervals: 2, top: 13 }
            );
            encode_head(&mut buf, kw, &[], 0);
            let empty = decode_head(&buf, kw);
            assert_eq!(empty, PagedHead { lo0: 1, hi0: 0, spill_start: 0, intervals: 0, top: 0 });
        }
    }
}
