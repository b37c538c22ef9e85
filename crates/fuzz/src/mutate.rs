//! Mutation fuzzing for binary codecs.
//!
//! Complements the op-trace engine: instead of churning the *update* paths,
//! this corrupts serialized byte streams — bit flips, truncation,
//! length-field sabotage, span surgery — and asserts the decoder fails
//! *closed*: a structured decode error, never a panic and never an
//! allocation sized by a corrupted length field. Every interval-tc stream
//! ends in a FNV-1a trailer, so half of the cases re-fix the checksum after
//! mutating; without that, nearly every mutation dies at the trailer check
//! and the decoder's interior never gets exercised.
//!
//! The driver is generic over the decoder (`&[u8] -> CaseOutcome`), so the
//! same campaign runs against [`tc_core::CompressedClosure::from_bytes`]
//! and the server's dictionary codec.

use std::panic::{catch_unwind, AssertUnwindSafe};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use tc_core::codec::fnv1a;

/// One family of corruption applied to a valid stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MutationKind {
    /// 1–8 single-bit flips at random positions.
    BitFlips,
    /// Cut the stream to a random shorter length.
    Truncate,
    /// Overwrite a 4-byte window with `u32::MAX` — length-field sabotage.
    MaxU32,
    /// Overwrite an 8-byte window with `u64::MAX` — count-field sabotage.
    MaxU64,
    /// Zero a short span.
    ZeroSpan,
    /// Copy one span over another (duplicates records).
    DupSpan,
    /// Splice a span out entirely (shifts every later field).
    DeleteSpan,
}

const KINDS: [MutationKind; 7] = [
    MutationKind::BitFlips,
    MutationKind::Truncate,
    MutationKind::MaxU32,
    MutationKind::MaxU64,
    MutationKind::ZeroSpan,
    MutationKind::DupSpan,
    MutationKind::DeleteSpan,
];

/// Recomputes the trailing FNV-1a checksum over everything before it, so a
/// mutated stream passes the trailer check and reaches the decoder proper.
pub fn refix_checksum(bytes: &mut [u8]) {
    if bytes.len() < 8 {
        return;
    }
    let split = bytes.len() - 8;
    let sum = fnv1a(&bytes[..split]);
    bytes[split..].copy_from_slice(&sum.to_le_bytes());
}

/// Applies one random mutation to `base`, re-signing with `refix` half the
/// time so the decoder's interior — not an end-of-stream digest — has to
/// reject the result. Returns the mutated stream, the mutation family, and
/// whether the re-sign ran.
pub fn mutate_with(
    base: &[u8],
    rng: &mut StdRng,
    refix: &dyn Fn(&mut Vec<u8>),
) -> (Vec<u8>, MutationKind, bool) {
    let mut bytes = base.to_vec();
    let kind = KINDS[rng.random_range(0..KINDS.len())];
    let len = bytes.len();
    match kind {
        MutationKind::BitFlips => {
            for _ in 0..rng.random_range(1..=8) {
                let pos = rng.random_range(0..len);
                bytes[pos] ^= 1u8 << rng.random_range(0..8u32);
            }
        }
        MutationKind::Truncate => {
            bytes.truncate(rng.random_range(0..len));
        }
        MutationKind::MaxU32 => {
            let pos = rng.random_range(0..len.saturating_sub(4).max(1));
            let end = (pos + 4).min(len);
            bytes[pos..end].fill(0xFF);
        }
        MutationKind::MaxU64 => {
            let pos = rng.random_range(0..len.saturating_sub(8).max(1));
            let end = (pos + 8).min(len);
            bytes[pos..end].fill(0xFF);
        }
        MutationKind::ZeroSpan => {
            let pos = rng.random_range(0..len);
            let end = (pos + rng.random_range(1..=16usize)).min(len);
            bytes[pos..end].fill(0);
        }
        MutationKind::DupSpan => {
            let span = rng.random_range(1..=16.min(len));
            let src = rng.random_range(0..=len - span);
            let dst = rng.random_range(0..=len - span);
            let copy = bytes[src..src + span].to_vec();
            bytes[dst..dst + span].copy_from_slice(&copy);
        }
        MutationKind::DeleteSpan => {
            let span = rng.random_range(1..=16.min(len));
            let pos = rng.random_range(0..=len - span);
            bytes.drain(pos..pos + span);
        }
    }
    // Half the time, make the digest lie for the mutation so the decoder's
    // interior — not the checksum — has to reject the stream.
    let refixed = rng.random_bool(0.5);
    if refixed {
        refix(&mut bytes);
    }
    (bytes, kind, refixed)
}

/// [`mutate_with`] re-signing the trailing FNV-1a — the right refix for
/// every `ITC1`-style stream whose last 8 bytes are the digest.
pub fn mutate(base: &[u8], rng: &mut StdRng) -> (Vec<u8>, MutationKind, bool) {
    mutate_with(base, rng, &|bytes| refix_checksum(bytes))
}

/// What one decode attempt did with a mutated stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CaseOutcome {
    /// The decoder returned a structured error — the expected behaviour.
    Rejected,
    /// The decoder accepted the stream and the result passed its semantic
    /// check (e.g. the mutation only touched a benign config byte).
    OkClean,
    /// The decoder accepted the stream but the result failed its semantic
    /// check — silent corruption that only a deep verify catches.
    OkCorrupt,
}

/// Tally of a mutation campaign. The hard pass criterion is
/// [`MutationReport::panics`]` == 0`: a decoder must never panic on
/// attacker-controlled bytes, however mangled.
#[derive(Debug, Clone, Default)]
pub struct MutationReport {
    /// Mutated streams attempted.
    pub cases: u64,
    /// Cases the decoder rejected with a structured error.
    pub rejected: u64,
    /// Cases that decoded and passed the semantic check.
    pub ok_clean: u64,
    /// Cases that decoded but failed the semantic check.
    pub ok_corrupt: u64,
    /// Cases where the decoder (or the semantic check) panicked — bugs.
    pub panics: u64,
    /// Case seeds that panicked, for replay; at most the first 16.
    pub panic_seeds: Vec<u64>,
}

impl MutationReport {
    /// Whether the campaign found a decoder bug.
    pub fn failed(&self) -> bool {
        self.panics > 0
    }
}

/// Runs `cases` mutations of `base` through `decode`, starting from
/// `seed`. Each case uses its own deterministic RNG (`seed + i`), so a
/// panicking case replays in isolation from its seed alone.
pub fn campaign<F>(base: &[u8], cases: u64, seed: u64, decode: F) -> MutationReport
where
    F: Fn(&[u8]) -> CaseOutcome,
{
    campaign_with_refix(base, cases, seed, &|bytes| refix_checksum(bytes), decode)
}

/// [`campaign`] with a format-specific re-sign step — `PLN2` planes keep
/// their digest in the trailing header rather than the last 8 bytes.
pub fn campaign_with_refix<F>(
    base: &[u8],
    cases: u64,
    seed: u64,
    refix: &dyn Fn(&mut Vec<u8>),
    decode: F,
) -> MutationReport
where
    F: Fn(&[u8]) -> CaseOutcome,
{
    let mut report = MutationReport::default();
    for i in 0..cases {
        let case_seed = seed.wrapping_add(i);
        let mut rng = StdRng::seed_from_u64(case_seed);
        let (bytes, _, _) = mutate_with(base, &mut rng, refix);
        report.cases += 1;
        match catch_unwind(AssertUnwindSafe(|| decode(&bytes))) {
            Ok(CaseOutcome::Rejected) => report.rejected += 1,
            Ok(CaseOutcome::OkClean) => report.ok_clean += 1,
            Ok(CaseOutcome::OkCorrupt) => report.ok_corrupt += 1,
            Err(_) => {
                report.panics += 1;
                if report.panic_seeds.len() < 16 {
                    report.panic_seeds.push(case_seed);
                }
            }
        }
    }
    report
}

/// The standard closure-codec campaign: mutate a mid-update closure stream
/// and decode with [`tc_core::CompressedClosure::from_bytes`], deep-verifying
/// anything the decoder accepts.
pub fn closure_campaign(cases: u64, seed: u64) -> MutationReport {
    let base = closure_base_stream();
    campaign(&base, cases, seed, decode_closure)
}

/// Decodes one stream as a closure and classifies the outcome.
pub fn decode_closure(bytes: &[u8]) -> CaseOutcome {
    match tc_core::CompressedClosure::from_bytes(bytes) {
        Err(_) => CaseOutcome::Rejected,
        Ok(c) => {
            if c.verify().is_ok() {
                CaseOutcome::OkClean
            } else {
                CaseOutcome::OkCorrupt
            }
        }
    }
}

/// A closure in a rich state — tombstones, refinement nodes, consumed
/// reserve — so mutations can hit every codec section.
fn rich_closure() -> tc_core::CompressedClosure {
    use tc_graph::generators;
    let g = generators::random_dag(generators::RandomDagConfig {
        nodes: 40,
        avg_out_degree: 2.0,
        seed: 17,
    });
    let mut c = tc_core::ClosureConfig::new()
        .gap(32)
        .reserve(3)
        .build(&g)
        .expect("base closure builds");
    let leaf = c
        .add_node_with_parents(&[tc_graph::NodeId(3)])
        .expect("add_node");
    let preds: Vec<tc_graph::NodeId> = c.graph().predecessors(leaf).to_vec();
    c.refine_insert(leaf, &preds).expect("refine");
    let tree_arc = c
        .graph()
        .edges()
        .find(|&(s, d)| c.cover().is_tree_arc(s, d));
    if let Some((s, d)) = tree_arc {
        c.remove_edge(s, d).expect("remove tree arc");
    }
    c
}

/// The serialized `rich_closure` — the closure-codec campaign's corpus.
pub fn closure_base_stream() -> Vec<u8> {
    rich_closure().to_bytes()
}

/// Geometry of the `PLN2` plane section (mirrors `tc-core::paged`): the
/// plane image ends in a 192-byte header — whose final 8 bytes are an
/// FNV-1a over the preceding 184 — followed by a 12-byte footer. The
/// resident `HYB1` overlay follows the image, closed by a 60-byte trailer
/// whose bytes 44..52 hold where the image ends.
const PLANE_HEADER_BYTES: usize = 192;
const PLANE_HEADER_HASHED: usize = 184;
const PLANE_FOOTER_BYTES: usize = 12;
const HYBRID_TRAILER_BYTES: usize = 60;

/// Recomputes a `PLN2` image's header digest so a mutated plane passes the
/// header check and reaches the directory validation and probe paths. The
/// header sits before the overlay when the (possibly mutated) trailer still
/// names a plausible image end, else at the end of the file. (The payload
/// digest is deliberately left alone: `verify_payload` catching it is one
/// of the outcomes under test.)
pub fn refix_plane_header(bytes: &mut [u8]) {
    let tail = PLANE_HEADER_BYTES + PLANE_FOOTER_BYTES;
    let mut end = bytes.len();
    if let Some(t) = bytes.len().checked_sub(HYBRID_TRAILER_BYTES).map(|at| &bytes[at..]) {
        if &t[0..4] == b"HYB1" {
            let claimed = u64::from_le_bytes(t[44..52].try_into().expect("8 bytes"));
            if let Some(plane_end) = usize::try_from(claimed).ok().filter(|&e| e <= end) {
                end = plane_end;
            }
        }
    }
    if end < tail {
        return;
    }
    let hstart = end - tail;
    let sum = fnv1a(&bytes[hstart..hstart + PLANE_HEADER_HASHED]);
    bytes[hstart + PLANE_HEADER_HASHED..hstart + PLANE_HEADER_BYTES]
        .copy_from_slice(&sum.to_le_bytes());
}

/// The `PLN2` base corpus: the rich closure written in the paged format
/// (ITC1 stream + plane section + overlay).
pub fn paged_base_stream() -> Vec<u8> {
    rich_closure().to_paged_bytes()
}

/// Opens one mutated stream as a paged plane and drives every probe path.
/// Structured errors — at open, from a probe, or from the deep payload
/// verify — are failing closed; the only unacceptable outcome is a panic.
pub fn decode_paged(bytes: &[u8]) -> CaseOutcome {
    use tc_core::PagedPlane;
    use tc_graph::NodeId;
    // A 2-frame pool forces eviction on nearly every touch, so pin reuse
    // and straddled reads run against corrupted geometry too.
    let plane = match PagedPlane::open_from_bytes(bytes, 2) {
        Err(_) => return CaseOutcome::Rejected,
        Ok(p) => p,
    };
    let mut corrupt = plane.verify_payload().is_err();
    let n = plane.node_count().min(64) as u32;
    let mut out = Vec::new();
    for v in 0..n {
        let node = NodeId(v);
        corrupt |= plane.try_successors_into(node, &mut out).is_err();
        corrupt |= plane.try_predecessors_into(node, &mut out).is_err();
        corrupt |= plane.try_successor_count(node).is_err();
        corrupt |= plane.try_reaches(node, NodeId(v.wrapping_mul(7) % n)).is_err();
    }
    if corrupt {
        CaseOutcome::OkCorrupt
    } else {
        CaseOutcome::OkClean
    }
}

/// The `PLN2` mutation campaign: corrupt paged-plane files, open them with
/// the O(directory) shallow open, and hammer the probe paths. Zero panics
/// is the pass criterion — every length and offset a probe trusts came
/// from the (validated) directory, so corruption must surface as a
/// [`tc_core::PagedError`], never as an out-of-bounds or oversized
/// allocation.
pub fn paged_campaign(cases: u64, seed: u64) -> MutationReport {
    let base = paged_base_stream();
    campaign_with_refix(&base, cases, seed, &|bytes| refix_plane_header(bytes), decode_paged)
}

/// Geometry of the `ITCK` taxonomy stream: magic, a u64 length for the
/// embedded `ITC1` closure stream, the closure bytes (which end in their own
/// FNV-1a trailer), then the name table.
const ITCK_HEADER_BYTES: usize = 12;

/// Re-signs the *interior* `ITC1` trailer of an `ITCK` taxonomy stream, at
/// the offset the (possibly mutated) header claims. Re-signing against the
/// claimed length is deliberate: it lets length-field sabotage carry a
/// digest that validates over the wrong span, so the taxonomy decoder's own
/// bounds checks — not the closure checksum — have to reject the stream.
pub fn refix_taxonomy(bytes: &mut [u8]) {
    if bytes.len() < ITCK_HEADER_BYTES {
        return;
    }
    let claimed = u64::from_le_bytes(bytes[4..12].try_into().expect("8 bytes"));
    let Some(closure_len) = usize::try_from(claimed)
        .ok()
        .filter(|&n| n >= 8 && n <= bytes.len() - ITCK_HEADER_BYTES)
    else {
        return;
    };
    let start = ITCK_HEADER_BYTES;
    let split = start + closure_len - 8;
    let sum = fnv1a(&bytes[start..split]);
    bytes[split..split + 8].copy_from_slice(&sum.to_le_bytes());
}

/// The `ITCK` base corpus: a taxonomy with multi-parent concepts and
/// non-trivial names (long, empty-suffix, UTF-8) so mutations can hit both
/// the embedded closure stream and the name table.
pub fn taxonomy_base_stream() -> Vec<u8> {
    use tc_kb::Taxonomy;
    let mut t = Taxonomy::new();
    t.add_root("thing").expect("root");
    t.add_concept("device", &["thing"]).expect("concept");
    t.add_concept("printer", &["device"]).expect("concept");
    t.add_concept("scanner", &["device"]).expect("concept");
    t.add_concept("copier", &["printer", "scanner"]).expect("concept");
    t.add_concept("λ-printer", &["printer"]).expect("concept");
    t.add_concept(&"x".repeat(300), &["thing"]).expect("concept");
    t.to_bytes()
}

/// Decodes one stream as a taxonomy and classifies the outcome. Accepted
/// streams are deep-verified through the embedded closure's audit.
pub fn decode_taxonomy(bytes: &[u8]) -> CaseOutcome {
    match tc_kb::Taxonomy::from_bytes(bytes) {
        Err(_) => CaseOutcome::Rejected,
        Ok(t) => {
            if t.closure().verify().is_ok() {
                CaseOutcome::OkClean
            } else {
                CaseOutcome::OkCorrupt
            }
        }
    }
}

/// The `ITCK` taxonomy-codec campaign: mutate serialized taxonomies —
/// re-signing the interior `ITC1` trailer half the time so corruption
/// reaches the length-prefixed name table — and require the decoder to fail
/// closed. Zero panics is the pass criterion; this is the regression
/// campaign for the `closure_len + 8` / name-length overflow panics.
pub fn taxonomy_campaign(cases: u64, seed: u64) -> MutationReport {
    let base = taxonomy_base_stream();
    campaign_with_refix(&base, cases, seed, &|bytes| refix_taxonomy(bytes), decode_taxonomy)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closure_codec_survives_mutation_campaign() {
        let report = closure_campaign(96, 0xC0DEC);
        assert_eq!(report.cases, 96);
        assert_eq!(
            report.panics, 0,
            "decoder panicked; replay seeds {:?}",
            report.panic_seeds
        );
        // `ok_corrupt` cases exist only because the campaign deliberately
        // re-signs mutated payloads: FNV-1a would reject every one of them
        // in the wild (~2^-64 collision odds for random corruption). They
        // stay in the report for visibility, but the hard criterion is that
        // the decoder never panics and never sizes an allocation from a
        // corrupted length field.
        assert!(report.rejected > 0, "campaign never reached the decoder");
    }

    #[test]
    fn paged_plane_survives_mutation_campaign() {
        let report = paged_campaign(96, 0x9A6ED);
        assert_eq!(report.cases, 96);
        assert_eq!(
            report.panics, 0,
            "paged open/probe panicked; replay seeds {:?}",
            report.panic_seeds
        );
        assert!(report.rejected > 0, "campaign never reached the plane parser");
    }

    #[test]
    fn refixed_plane_headers_reach_the_directory_validation() {
        // With the header digest re-signed, rejection must come from the
        // geometry checks (directory lengths, alignment, counts) — prove
        // mutations actually penetrate past the digest.
        let base = paged_base_stream();
        let mut interior_rejects = 0;
        for seed in 0..64u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let (mut bytes, _, refixed) = mutate_with(&base, &mut rng, &|bytes| refix_plane_header(bytes));
            if !refixed {
                refix_plane_header(&mut bytes);
            }
            if matches!(decode_paged(&bytes), CaseOutcome::Rejected) {
                interior_rejects += 1;
            }
        }
        assert!(
            interior_rejects > 8,
            "mutations never reached past the header digest: {interior_rejects}"
        );
    }

    #[test]
    fn taxonomy_codec_survives_mutation_campaign() {
        let report = taxonomy_campaign(96, 0x17CB);
        assert_eq!(report.cases, 96);
        assert_eq!(
            report.panics, 0,
            "taxonomy decoder panicked; replay seeds {:?}",
            report.panic_seeds
        );
        assert!(report.rejected > 0, "campaign never reached the decoder");
    }

    #[test]
    fn refixed_taxonomies_reach_the_name_table() {
        // With the interior ITC1 trailer re-signed, some rejections must
        // come from the name-table bounds checks rather than the closure
        // checksum — prove the campaign exercises the fixed panic sites.
        let base = taxonomy_base_stream();
        let mut name_table_rejects = 0;
        for seed in 0..64u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let (mut bytes, _, refixed) =
                mutate_with(&base, &mut rng, &|bytes| refix_taxonomy(bytes));
            if !refixed {
                refix_taxonomy(&mut bytes);
            }
            if let Err(e) = tc_kb::Taxonomy::from_bytes(&bytes) {
                if e.contains("name") || e.contains("truncated") {
                    name_table_rejects += 1;
                }
            }
        }
        assert!(
            name_table_rejects > 4,
            "mutations never reached the name table: {name_table_rejects}"
        );
    }

    #[test]
    fn refixed_checksums_reach_the_decoder_interior() {
        // With the trailer re-fixed, rejections must come from interior
        // checks, not the checksum: count distinct error messages.
        let base = closure_base_stream();
        let mut interior = 0;
        for seed in 0..64u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let (mut bytes, _, refixed) = mutate(&base, &mut rng);
            if !refixed {
                refix_checksum(&mut bytes);
            }
            if let Err(e) = tc_core::CompressedClosure::from_bytes(&bytes) {
                if !matches!(e, tc_core::codec::DecodeError::Corrupt("checksum mismatch")) {
                    interior += 1;
                }
            }
        }
        assert!(interior > 8, "mutations never reached past the trailer: {interior}");
    }
}
