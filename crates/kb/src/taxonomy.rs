//! The IS-A hierarchy abstract data type.

use std::collections::HashMap;
use std::fmt;

use tc_core::{ClosureConfig, CompressedClosure, UpdateError};
use tc_graph::NodeId;

/// A concept handle (dense, stable for the life of the taxonomy).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ConceptId(pub u32);

impl ConceptId {
    fn node(self) -> NodeId {
        NodeId(self.0)
    }
}

/// Errors from taxonomy operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TaxonomyError {
    /// Concept name already defined.
    Duplicate(String),
    /// Referenced concept does not exist.
    Unknown(String),
    /// The IS-A arc would make the hierarchy cyclic.
    SubsumptionCycle(String, String),
    /// Refinement precondition failed (see
    /// [`tc_core::CompressedClosure::refine_insert`]).
    Refine(UpdateError),
    /// The underlying closure rejected the update — e.g. a configured
    /// number-line capacity ran out ([`UpdateError::NumberLineFull`]).
    Update(UpdateError),
    /// A disjointness declaration is already contradicted by the hierarchy.
    DisjointnessViolated {
        /// First declared concept.
        a: String,
        /// Second declared concept.
        b: String,
        /// A concept subsumed by both.
        witness: String,
    },
}

impl fmt::Display for TaxonomyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TaxonomyError::Duplicate(n) => write!(f, "concept {n:?} already defined"),
            TaxonomyError::Unknown(n) => write!(f, "unknown concept {n:?}"),
            TaxonomyError::SubsumptionCycle(a, b) => {
                write!(f, "IS-A arc {a:?} -> {b:?} would create a subsumption cycle")
            }
            TaxonomyError::Refine(e) => write!(f, "refinement failed: {e}"),
            TaxonomyError::Update(e) => write!(f, "closure update failed: {e}"),
            TaxonomyError::DisjointnessViolated { a, b, witness } => write!(
                f,
                "cannot declare {a:?} disjoint from {b:?}: {witness:?} is subsumed by both"
            ),
        }
    }
}

impl std::error::Error for TaxonomyError {}

/// An IS-A hierarchy with subsumption answered by interval lookup.
///
/// Arcs run from the more general concept to the more specific one, so
/// `a subsumes b` ⇔ the closure reaches `b` from `a`. Concepts are usually
/// added leaves-down (the way knowledge bases grow), which is exactly the
/// paper's constant-work tree-arc insertion.
///
/// ```
/// use tc_kb::Taxonomy;
///
/// let mut t = Taxonomy::new();
/// t.add_root("thing").unwrap();
/// t.add_concept("device", &["thing"]).unwrap();
/// t.add_concept("printer", &["device"]).unwrap();
/// t.add_concept("scanner", &["device"]).unwrap();
/// t.add_concept("copier", &["printer", "scanner"]).unwrap();
/// assert!(t.subsumes("device", "copier").unwrap());
/// assert!(!t.subsumes("printer", "scanner").unwrap());
/// ```
#[derive(Debug, Clone)]
pub struct Taxonomy {
    closure: CompressedClosure,
    names: Vec<String>,
    by_name: HashMap<String, ConceptId>,
}

impl Default for Taxonomy {
    fn default() -> Self {
        Self::new()
    }
}

impl Taxonomy {
    /// Creates an empty taxonomy. The default configuration reserves a
    /// refinement tail of 16 numbers per concept so [`Taxonomy::refine`] is
    /// constant-time until tails are consumed (then a relabel replenishes
    /// them).
    pub fn new() -> Self {
        Self::with_config(ClosureConfig::new().reserve(16))
    }

    /// Creates an empty taxonomy with an explicit closure configuration.
    pub fn with_config(config: ClosureConfig) -> Self {
        Taxonomy {
            closure: config
                .build(&tc_graph::DiGraph::new())
                .expect("empty graph is acyclic"),
            names: Vec::new(),
            by_name: HashMap::new(),
        }
    }

    /// Number of concepts.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether the taxonomy is empty.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Defines a root concept (no parents).
    pub fn add_root(&mut self, name: &str) -> Result<ConceptId, TaxonomyError> {
        self.add_concept(name, &[])
    }

    /// Defines a concept below the given parents. The first parent supplies
    /// the tree arc (constant work); the rest are non-tree arcs with
    /// subsumption-pruned propagation — the paper's §4.1 additions.
    pub fn add_concept(&mut self, name: &str, parents: &[&str]) -> Result<ConceptId, TaxonomyError> {
        if self.by_name.contains_key(name) {
            return Err(TaxonomyError::Duplicate(name.to_string()));
        }
        let parent_nodes: Vec<NodeId> = parents
            .iter()
            .map(|p| self.id(p).map(ConceptId::node))
            .collect::<Result<_, _>>()?;
        // Parent validation has already passed, but the insertion itself can
        // still fail when a configured number-line capacity is exhausted —
        // surface that instead of panicking (nothing has mutated yet).
        let node = self
            .closure
            .add_node_with_parents(&parent_nodes)
            .map_err(TaxonomyError::Update)?;
        let id = ConceptId(node.0);
        self.names.push(name.to_string());
        self.by_name.insert(name.to_string(), id);
        debug_assert_eq!(self.names.len(), self.closure.node_count());
        Ok(id)
    }

    /// Adds an IS-A arc between existing concepts (`general` subsumes
    /// `specific`).
    pub fn add_isa(&mut self, general: &str, specific: &str) -> Result<(), TaxonomyError> {
        let g = self.id(general)?;
        let s = self.id(specific)?;
        match self.closure.add_edge(g.node(), s.node()) {
            Ok(_) => Ok(()),
            Err(UpdateError::WouldCreateCycle { .. }) | Err(UpdateError::SelfLoop(_)) => Err(
                TaxonomyError::SubsumptionCycle(general.to_string(), specific.to_string()),
            ),
            Err(e) => Err(TaxonomyError::Refine(e)),
        }
    }

    /// [`Self::add_isa`] by id, additionally reporting every subsumption
    /// pair the arc made true ([`tc_core::EdgeDelta`]) — the delta a rule
    /// engine forward-chains over.
    pub fn add_isa_delta(
        &mut self,
        general: ConceptId,
        specific: ConceptId,
    ) -> Result<tc_core::EdgeDelta, TaxonomyError> {
        match self.closure.add_edge_delta(general.node(), specific.node()) {
            Ok(delta) => Ok(delta),
            Err(UpdateError::WouldCreateCycle { .. }) | Err(UpdateError::SelfLoop(_)) => {
                Err(TaxonomyError::SubsumptionCycle(
                    self.name(general).to_string(),
                    self.name(specific).to_string(),
                ))
            }
            Err(e) => Err(TaxonomyError::Update(e)),
        }
    }

    /// Removes a direct IS-A arc by id. Runs the §4.2 scoped recompute
    /// internally.
    pub fn remove_isa(
        &mut self,
        general: ConceptId,
        specific: ConceptId,
    ) -> Result<(), TaxonomyError> {
        self.closure
            .remove_edge(general.node(), specific.node())
            .map_err(TaxonomyError::Update)
    }

    /// Interposes a new concept between `child`'s current parents and
    /// `child` — §4.1 hierarchy refinement, constant-time while the reserve
    /// tail lasts (the taxonomy transparently relabels and retries when it
    /// runs out).
    pub fn refine(&mut self, name: &str, child: &str) -> Result<ConceptId, TaxonomyError> {
        if self.by_name.contains_key(name) {
            return Err(TaxonomyError::Duplicate(name.to_string()));
        }
        let c = self.id(child)?;
        let parents: Vec<NodeId> = self.closure.graph().predecessors(c.node()).to_vec();
        let node = match self.closure.refine_insert(c.node(), &parents) {
            Ok(node) => node,
            Err(UpdateError::ReserveExhausted(_)) => {
                self.closure.relabel();
                self.closure
                    .refine_insert(c.node(), &parents)
                    .map_err(TaxonomyError::Refine)?
            }
            Err(e) => return Err(TaxonomyError::Refine(e)),
        };
        let id = ConceptId(node.0);
        self.names.push(name.to_string());
        self.by_name.insert(name.to_string(), id);
        Ok(id)
    }

    /// Whether `general` subsumes `specific` (reflexive) — one interval
    /// lookup, "a lookup instead of a graph traversal".
    pub fn subsumes(&self, general: &str, specific: &str) -> Result<bool, TaxonomyError> {
        let g = self.id(general)?;
        let s = self.id(specific)?;
        Ok(self.closure.reaches(g.node(), s.node()))
    }

    /// Subsumption by id (no name lookup).
    pub fn subsumes_id(&self, general: ConceptId, specific: ConceptId) -> bool {
        self.closure.reaches(general.node(), specific.node())
    }

    /// All concepts subsumed by `name` (excluding itself).
    pub fn descendants(&self, name: &str) -> Result<Vec<&str>, TaxonomyError> {
        let c = self.id(name)?;
        Ok(self
            .closure
            .successors(c.node())
            .into_iter()
            .filter(|v| v.0 != c.0)
            .map(|v| self.names[v.index()].as_str())
            .collect())
    }

    /// All concepts subsuming `name` (excluding itself).
    pub fn ancestors(&self, name: &str) -> Result<Vec<&str>, TaxonomyError> {
        let c = self.id(name)?;
        Ok(self
            .closure
            .predecessors(c.node())
            .into_iter()
            .filter(|v| v.0 != c.0)
            .map(|v| self.names[v.index()].as_str())
            .collect())
    }

    /// Immediate parents of `name`.
    pub fn parents(&self, name: &str) -> Result<Vec<&str>, TaxonomyError> {
        let c = self.id(name)?;
        Ok(self
            .closure
            .graph()
            .predecessors(c.node())
            .iter()
            .map(|v| self.names[v.index()].as_str())
            .collect())
    }

    /// Immediate children of `name`.
    pub fn children(&self, name: &str) -> Result<Vec<&str>, TaxonomyError> {
        let c = self.id(name)?;
        Ok(self
            .closure
            .graph()
            .successors(c.node())
            .iter()
            .map(|v| self.names[v.index()].as_str())
            .collect())
    }

    /// The id of a concept name.
    pub fn id(&self, name: &str) -> Result<ConceptId, TaxonomyError> {
        self.by_name
            .get(name)
            .copied()
            .ok_or_else(|| TaxonomyError::Unknown(name.to_string()))
    }

    /// The name of a concept id.
    pub fn name(&self, id: ConceptId) -> &str {
        &self.names[id.0 as usize]
    }

    /// Iterates all concept names in definition order.
    pub fn concepts(&self) -> impl Iterator<Item = &str> {
        self.names.iter().map(String::as_str)
    }

    /// The underlying compressed closure.
    pub fn closure(&self) -> &CompressedClosure {
        &self.closure
    }

    /// Caps the underlying number line (admission control for untrusted
    /// writers): once the cap is hit, concept insertion fails with
    /// [`TaxonomyError::Update`] instead of growing without bound.
    pub fn set_capacity(&mut self, capacity: usize) {
        self.closure.set_number_line_capacity(capacity);
    }

    /// Serializes the taxonomy (closure plus concept names) to bytes.
    /// The knowledge base "must be managed as a database" (§2.1): the cached
    /// hierarchy persists instead of being re-derived on startup.
    pub fn to_bytes(&self) -> Vec<u8> {
        let closure_bytes = self.closure.to_bytes();
        let mut out = Vec::with_capacity(closure_bytes.len() + 64);
        out.extend_from_slice(b"ITCK");
        out.extend_from_slice(&(closure_bytes.len() as u64).to_le_bytes());
        out.extend_from_slice(&closure_bytes);
        out.extend_from_slice(&(self.names.len() as u64).to_le_bytes());
        for name in &self.names {
            out.extend_from_slice(&(name.len() as u32).to_le_bytes());
            out.extend_from_slice(name.as_bytes());
        }
        out
    }

    /// Restores a taxonomy serialized with [`Taxonomy::to_bytes`].
    pub fn from_bytes(data: &[u8]) -> Result<Self, String> {
        let fail = |m: &str| Err(format!("taxonomy stream: {m}"));
        if data.len() < 12 || &data[..4] != b"ITCK" {
            return fail("bad header");
        }
        // Every length below comes straight off the wire; a hostile value
        // can exceed the stream (or usize itself), so each bound is checked
        // with wrap-free arithmetic *before* any slice is taken.
        let closure_len = u64::from_le_bytes(data[4..12].try_into().expect("8 bytes"));
        let rest = &data[12..];
        let Some(closure_len) = usize::try_from(closure_len)
            .ok()
            .filter(|&n| n <= rest.len() && rest.len() - n >= 8)
        else {
            return fail("truncated");
        };
        let closure = CompressedClosure::from_bytes(&rest[..closure_len])
            .map_err(|e| format!("taxonomy stream: {e}"))?;
        let mut pos = closure_len;
        let count = u64::from_le_bytes(rest[pos..pos + 8].try_into().expect("8 bytes"));
        pos += 8;
        if count != closure.node_count() as u64 {
            return fail("name count does not match closure");
        }
        let count = closure.node_count();
        let mut names = Vec::with_capacity(count);
        let mut by_name = HashMap::with_capacity(count);
        for ix in 0..count {
            let Some(len_end) = pos.checked_add(4).filter(|&e| e <= rest.len()) else {
                return fail("truncated name length");
            };
            let len = u32::from_le_bytes(rest[pos..len_end].try_into().expect("4 bytes")) as usize;
            pos = len_end;
            let Some(name_end) = pos.checked_add(len).filter(|&e| e <= rest.len()) else {
                return fail("truncated name");
            };
            let name = std::str::from_utf8(&rest[pos..name_end])
                .map_err(|_| "taxonomy stream: non-UTF-8 name".to_string())?
                .to_string();
            pos = name_end;
            if by_name.insert(name.clone(), ConceptId(ix as u32)).is_some() {
                return fail("duplicate concept name");
            }
            names.push(name);
        }
        if pos != rest.len() {
            return fail("trailing bytes");
        }
        Ok(Taxonomy {
            closure,
            names,
            by_name,
        })
    }

    /// Exhaustive consistency check (tests only).
    pub fn verify(&self) -> Result<(), String> {
        self.closure.verify()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn device_taxonomy() -> Taxonomy {
        let mut t = Taxonomy::new();
        t.add_root("thing").unwrap();
        t.add_concept("device", &["thing"]).unwrap();
        t.add_concept("printer", &["device"]).unwrap();
        t.add_concept("scanner", &["device"]).unwrap();
        t.add_concept("laser-printer", &["printer"]).unwrap();
        t.add_concept("copier", &["printer", "scanner"]).unwrap();
        t
    }

    #[test]
    fn subsumption_queries() {
        let t = device_taxonomy();
        assert!(t.subsumes("thing", "copier").unwrap());
        assert!(t.subsumes("device", "laser-printer").unwrap());
        assert!(t.subsumes("scanner", "copier").unwrap());
        assert!(!t.subsumes("scanner", "laser-printer").unwrap());
        assert!(t.subsumes("copier", "copier").unwrap(), "reflexive");
        assert!(!t.subsumes("copier", "device").unwrap(), "antisymmetric");
        t.verify().unwrap();
    }

    #[test]
    fn navigation() {
        let t = device_taxonomy();
        let mut desc = t.descendants("printer").unwrap();
        desc.sort_unstable();
        assert_eq!(desc, vec!["copier", "laser-printer"]);
        let mut anc = t.ancestors("copier").unwrap();
        anc.sort_unstable();
        assert_eq!(anc, vec!["device", "printer", "scanner", "thing"]);
        assert_eq!(t.parents("copier").unwrap().len(), 2);
        let mut kids = t.children("device").unwrap();
        kids.sort_unstable();
        assert_eq!(kids, vec!["printer", "scanner"]);
    }

    #[test]
    fn duplicate_and_unknown_errors() {
        let mut t = device_taxonomy();
        assert!(matches!(
            t.add_concept("printer", &["device"]),
            Err(TaxonomyError::Duplicate(_))
        ));
        assert!(matches!(
            t.add_concept("widget", &["gizmo"]),
            Err(TaxonomyError::Unknown(_))
        ));
        assert!(matches!(t.subsumes("gizmo", "thing"), Err(TaxonomyError::Unknown(_))));
    }

    #[test]
    fn cycle_rejected() {
        let mut t = device_taxonomy();
        assert!(matches!(
            t.add_isa("copier", "device"),
            Err(TaxonomyError::SubsumptionCycle(_, _))
        ));
        t.verify().unwrap();
    }

    #[test]
    fn late_isa_arc() {
        let mut t = device_taxonomy();
        t.add_concept("peripheral", &["thing"]).unwrap();
        t.add_isa("peripheral", "printer").unwrap();
        assert!(t.subsumes("peripheral", "laser-printer").unwrap());
        t.verify().unwrap();
    }

    #[test]
    fn refinement_inserts_between() {
        let mut t = device_taxonomy();
        // Interpose "imaging-device" above copier (whose parents are
        // printer and scanner).
        let id = t.refine("imaging-device", "copier").unwrap();
        assert_eq!(t.name(id), "imaging-device");
        assert!(t.subsumes("printer", "imaging-device").unwrap());
        assert!(t.subsumes("scanner", "imaging-device").unwrap());
        assert!(t.subsumes("imaging-device", "copier").unwrap());
        assert!(!t.subsumes("laser-printer", "imaging-device").unwrap());
        t.verify().unwrap();
    }

    #[test]
    fn refinement_survives_reserve_exhaustion() {
        let mut t = Taxonomy::with_config(ClosureConfig::new().gap(8).reserve(2));
        t.add_root("root").unwrap();
        t.add_concept("leaf", &["root"]).unwrap();
        for i in 0..10 {
            t.refine(&format!("mid{i}"), "leaf").unwrap();
        }
        assert!(t.subsumes("root", "mid9").unwrap());
        assert!(t.subsumes("mid0", "leaf").unwrap());
        t.verify().unwrap();
    }

    #[test]
    fn taxonomy_persistence_roundtrip() {
        let mut t = device_taxonomy();
        t.refine("imaging-device", "copier").unwrap();
        let bytes = t.to_bytes();
        let back = Taxonomy::from_bytes(&bytes).unwrap();
        assert_eq!(back.len(), t.len());
        assert!(back.subsumes("thing", "copier").unwrap());
        assert!(back.subsumes("imaging-device", "copier").unwrap());
        assert!(!back.subsumes("scanner", "laser-printer").unwrap());
        back.verify().unwrap();
        // And it keeps working: add below a restored concept.
        let mut back = back;
        back.add_concept("color-copier", &["copier"]).unwrap();
        assert!(back.subsumes("imaging-device", "color-copier").unwrap());
    }

    #[test]
    fn from_bytes_rejects_wrapping_closure_lengths_without_panicking() {
        // Shrunk reproducer from the ITCK mutation campaign: an all-ones
        // closure length made the old `closure_len + 8` truncation check
        // wrap to a tiny value, and the subsequent slice panicked.
        let mut evil = Vec::new();
        evil.extend_from_slice(b"ITCK");
        evil.extend_from_slice(&u64::MAX.to_le_bytes());
        evil.extend_from_slice(&[0u8; 16]);
        assert!(Taxonomy::from_bytes(&evil).is_err());
        // Same shape with the length tuned so `closure_len + 8` wraps to 4.
        let mut evil = Vec::new();
        evil.extend_from_slice(b"ITCK");
        evil.extend_from_slice(&(u64::MAX - 3).to_le_bytes());
        evil.extend_from_slice(&[0u8; 16]);
        assert!(Taxonomy::from_bytes(&evil).is_err());
    }

    #[test]
    fn from_bytes_rejects_hostile_name_lengths_without_panicking() {
        // Patch the first name's length field to u32::MAX: the name-table
        // bound must reject it wrap-free rather than slicing past the end.
        let bytes = device_taxonomy().to_bytes();
        let closure_len = u64::from_le_bytes(bytes[4..12].try_into().unwrap()) as usize;
        let len_off = 12 + closure_len + 8; // first name's u32 length field
        let mut bad = bytes.clone();
        bad[len_off..len_off + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(Taxonomy::from_bytes(&bad).is_err());
        // Stream cut mid-length-field.
        let mut short = bytes.clone();
        short.truncate(len_off + 2);
        assert!(Taxonomy::from_bytes(&short).is_err());
        // Stream cut mid-name.
        let mut short = bytes;
        short.truncate(len_off + 5);
        assert!(Taxonomy::from_bytes(&short).is_err());
    }

    #[test]
    fn capacity_exhaustion_is_an_error_not_a_panic() {
        let mut t = Taxonomy::new();
        t.add_root("a").unwrap();
        t.add_concept("b", &["a"]).unwrap();
        t.set_capacity(t.closure().node_count());
        assert!(matches!(
            t.add_concept("c", &["b"]),
            Err(TaxonomyError::Update(UpdateError::NumberLineFull { .. }))
        ));
        // Nothing mutated: the failed name is not registered.
        assert!(matches!(t.id("c"), Err(TaxonomyError::Unknown(_))));
        assert_eq!(t.len(), 2);
        t.verify().unwrap();
    }

    #[test]
    fn taxonomy_persistence_rejects_garbage() {
        assert!(Taxonomy::from_bytes(b"junk").is_err());
        let mut bytes = device_taxonomy().to_bytes();
        bytes.truncate(bytes.len() / 2);
        assert!(Taxonomy::from_bytes(&bytes).is_err());
        // Wrong inner magic.
        let mut bad = device_taxonomy().to_bytes();
        bad[12] ^= 0xFF; // first closure byte
        assert!(Taxonomy::from_bytes(&bad).is_err());
    }

    #[test]
    fn large_hierarchy_growth_like_a_knowledge_base() {
        // Grow a 100k-ish concept space the way §2.1 describes (airplane
        // parts), scaled down for test time: breadth-first concept addition
        // with occasional multiple inheritance.
        let mut t = Taxonomy::new();
        t.add_root("part").unwrap();
        let mut layer = vec!["part".to_string()];
        let mut counter = 0;
        for depth in 0..4 {
            let mut next = Vec::new();
            for parent in &layer {
                for _ in 0..4 {
                    let name = format!("c{counter}");
                    counter += 1;
                    let mut parents = vec![parent.as_str()];
                    // Every 7th concept also inherits from the previous one.
                    if counter % 7 == 0 && !next.is_empty() {
                        parents.push(next.last().map(String::as_str).unwrap());
                    }
                    t.add_concept(&name, &parents).unwrap();
                    next.push(name);
                }
            }
            layer = next;
            assert!(depth < 4);
        }
        assert_eq!(t.len(), 1 + 4 + 16 + 64 + 256);
        assert!(t.descendants("part").unwrap().len() == t.len() - 1);
        t.verify().unwrap();
    }
}
