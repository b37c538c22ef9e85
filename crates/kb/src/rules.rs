//! Rule-driven incremental inference over the compressed closure.
//!
//! The paper's §2.1 knowledge bases don't just *store* IS-A and PART-OF
//! relations — they reason over them. This module adds a datalog-ish Horn
//! rule layer on top of the closure:
//!
//! * **Rules** have a derived-edge head and a body of `isa`/`partof` atoms
//!   plus `feat` (feature) predicates, e.g.
//!   `up: isa(X, Y) :- partof(X, Z), isa(Z, Y), feat(Z, critical)`.
//!   Identifiers starting with an uppercase letter are variables; anything
//!   else names a concept or feature constant.
//! * **Body atoms match the transitive relation**, not just direct arcs:
//!   `isa(x, y)` holds iff `x` strictly reaches `y` in the IS-A closure —
//!   one interval lookup, which is exactly why the closure is the right
//!   substrate for rule evaluation.
//! * **Assertion is semi-naive**: every arc insertion goes through the
//!   delta-reporting update hooks ([`tc_core::EdgeDelta`]), and each rule is
//!   joined only against the newly-true pairs — the classic delta-relation
//!   argument: any new derivation must use at least one new atom, so seeding
//!   one body position with the delta and the rest with the full relation
//!   finds them all.
//! * **Rules are compiled once**, when defined: variables become dense
//!   slots of a `u32` environment and constants become concept ids, so
//!   the join never hashes a name. One backtracking kernel (`Join`) serves
//!   forward chaining, over-deletion, derivability probes and the naive
//!   fixpoint; it binds and unbinds slots in place, reuses one row buffer
//!   per depth, and emits head pairs.
//! * **Retraction is DRed-style** (delete and re-derive): the base fact's
//!   arc goes first, and every removal over-deletes the derived facts
//!   whose rule bodies could route through the removed arc — a body pair
//!   `(q, a, b)` is suspect exactly when it lies in the arc's affected
//!   rectangle `pred*(src) × succ*(dst)`. Each arc's suspects are joined
//!   against the live model just before the arc is removed (by the §4.2
//!   *scoped* recompute inside `remove_edge`). At that moment every atom
//!   of a derivation this removal is the first to touch still holds, so
//!   no snapshot of the pre-retraction model is needed. Once the cascade
//!   converges, every casualty still derivable from the surviving model is
//!   re-added and forward-chained back in. Because derivability is always
//!   judged with the candidate's own arc absent, a fact can never justify
//!   itself (or a partner in a mutual loop) through its own reachability.
//! * **The differential gate** ([`KnowledgeBase::check_against_naive`])
//!   replays the surviving base facts into a fresh knowledge base, runs a
//!   genuinely naive all-rules/all-bindings fixpoint, and requires the two
//!   models to agree edge-for-edge and successor-set-for-successor-set.
//!
//! Derived heads that would create a cycle are rejected and counted
//! ([`KbStats::cycle_rejected`]), and heads dropped by a non-cycle failure
//! (e.g. label-capacity exhaustion) are counted separately
//! ([`KbStats::derive_failed`]); either makes the final model depend on
//! insertion order, so differential checks are only meaningful when both
//! counters are zero — the fuzz campaign gates on exactly that.

use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::fmt;

use tc_core::{ClosureConfig, CompressedClosure, EdgeDelta, UpdateError};
use tc_graph::NodeId;

use crate::{ConceptId, Inheritance, PropertyLookup, Taxonomy, TaxonomyError};

/// The two transitive base relations rules range over.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Pred {
    /// Subsumption: `isa(g, s)` — `g` subsumes `s` (arc general → specific).
    IsA,
    /// Aggregation: `partof(w, p)` — `p` is a part of `w` (arc whole → part).
    PartOf,
}

impl Pred {
    /// Parses the wire/text name of a predicate.
    pub fn parse(s: &str) -> Option<Pred> {
        match s {
            "isa" => Some(Pred::IsA),
            "partof" => Some(Pred::PartOf),
            _ => None,
        }
    }

    /// The wire/text name of the predicate.
    pub fn name(self) -> &'static str {
        match self {
            Pred::IsA => "isa",
            Pred::PartOf => "partof",
        }
    }
}

/// A rule term: a variable (capitalized) or a concept constant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Term {
    /// A variable, bound during evaluation.
    Var(String),
    /// A concept name; [`KnowledgeBase::define_rule`] creates the concept
    /// if it does not exist yet and compiles the name to its id.
    Const(String),
}

/// A body or head atom over one of the transitive relations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Atom {
    /// Which relation the atom ranges over.
    pub pred: Pred,
    /// Subject (source of the arc).
    pub sub: Term,
    /// Object (target of the arc).
    pub obj: Term,
}

/// A feature predicate in a rule body: `feat(Term, feature-name)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FeatAtom {
    /// The concept term carrying the feature.
    pub term: Term,
    /// The required feature.
    pub feature: String,
}

/// A Horn rule: `head :- body-atoms, feat-atoms`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rule {
    /// Rule name (diagnostics and redefinition).
    pub name: String,
    /// The derived edge.
    pub head: Atom,
    /// Edge atoms of the body.
    pub body: Vec<Atom>,
    /// Feature atoms of the body.
    pub feats: Vec<FeatAtom>,
}

/// Errors from knowledge-base operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KbError {
    /// Rule or command text failed to parse.
    Parse(String),
    /// A referenced concept does not exist (queries never auto-create).
    UnknownConcept(String),
    /// Retraction of a fact that was never asserted as a base fact.
    NotAsserted(Pred, String, String),
    /// Relations are irreflexive; `assert isa x x` is meaningless.
    SelfLoop(String),
    /// An underlying taxonomy operation failed.
    Taxonomy(TaxonomyError),
    /// An underlying closure update failed.
    Update(UpdateError),
}

impl fmt::Display for KbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KbError::Parse(m) => write!(f, "parse error: {m}"),
            KbError::UnknownConcept(n) => write!(f, "unknown concept {n:?}"),
            KbError::NotAsserted(p, a, b) => {
                write!(f, "{}({a}, {b}) is not an asserted base fact", p.name())
            }
            KbError::SelfLoop(n) => write!(f, "self-referential fact on {n:?}"),
            KbError::Taxonomy(e) => write!(f, "{e}"),
            KbError::Update(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for KbError {}

impl From<TaxonomyError> for KbError {
    fn from(e: TaxonomyError) -> Self {
        KbError::Taxonomy(e)
    }
}

/// Outcome of an assert.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AssertOutcome {
    /// The fact was new; its arc was inserted and rules forward-chained.
    Applied,
    /// The fact was already present (asserted or derived); marked asserted.
    Noop,
    /// The arc would create a cycle; rejected and counted.
    CycleRejected,
}

/// Outcome of a retract.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetractOutcome {
    /// The arc was removed (with DRed cascade over derived facts).
    Removed,
    /// With its own arc out of the closure the fact was still derivable by
    /// rule, so it was re-derived and survives as a derived-only fact.
    KeptDerived,
}

/// One closure mutation, journaled for serving-layer forwarding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KbChange {
    /// A concept was created (dense ids, in creation order).
    NewConcept {
        /// The new concept's dense id.
        id: u32,
        /// Its name.
        name: String,
    },
    /// An arc entered one of the relations.
    EdgeAdded {
        /// Relation.
        pred: Pred,
        /// Arc source.
        src: u32,
        /// Arc target.
        dst: u32,
        /// Whether a rule (rather than an assert) introduced it.
        derived: bool,
    },
    /// An arc left one of the relations.
    EdgeRemoved {
        /// Relation.
        pred: Pred,
        /// Arc source.
        src: u32,
        /// Arc target.
        dst: u32,
    },
}

/// Evaluation counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KbStats {
    /// Base facts applied.
    pub asserted: u64,
    /// Derived arcs introduced by rule heads.
    pub derived: u64,
    /// Derived arcs conservatively removed during DRed over-deletion.
    pub overdeleted: u64,
    /// Over-deleted arcs restored by re-derivation.
    pub rederived: u64,
    /// Head instantiations rejected because the arc would create a cycle.
    pub cycle_rejected: u64,
    /// Head instantiations dropped by a non-cycle update failure (e.g.
    /// label-capacity exhaustion). The model is incomplete afterwards, so
    /// differential gates must require this to stay zero.
    pub derive_failed: u64,
}

#[derive(Debug, Clone)]
struct Fact {
    asserted: bool,
}

/// A knowledge base: named concepts, two transitive relations served by
/// compressed closures, features, Horn rules, and property inheritance.
///
/// ```
/// use tc_kb::rules::{KnowledgeBase, Pred};
///
/// let mut kb = KnowledgeBase::new();
/// kb.define_rule("up: isa(X, Y) :- partof(X, Z), isa(Z, Y)").unwrap();
/// kb.assert_fact(Pred::PartOf, "engine", "piston").unwrap();
/// kb.assert_fact(Pred::IsA, "piston", "small-piston").unwrap();
/// assert!(kb.ask(Pred::IsA, "engine", "small-piston").unwrap());
/// kb.check_against_naive().unwrap();
/// ```
#[derive(Debug, Clone)]
pub struct KnowledgeBase {
    taxonomy: Taxonomy,
    part: CompressedClosure,
    features: Vec<BTreeSet<String>>,
    feat_index: HashMap<String, BTreeSet<u32>>,
    rules: Vec<Rule>,
    /// `rules[i]` compiled against concept ids, same order.
    compiled: Vec<Compiled>,
    facts: BTreeMap<(Pred, u32, u32), Fact>,
    props: Inheritance,
    journal: Vec<KbChange>,
    stats: KbStats,
}

impl Default for KnowledgeBase {
    fn default() -> Self {
        Self::new()
    }
}

impl KnowledgeBase {
    /// Creates an empty knowledge base.
    pub fn new() -> Self {
        KnowledgeBase {
            taxonomy: Taxonomy::new(),
            part: ClosureConfig::new()
                .build(&tc_graph::DiGraph::new())
                .expect("empty graph is acyclic"),
            features: Vec::new(),
            feat_index: HashMap::new(),
            rules: Vec::new(),
            compiled: Vec::new(),
            facts: BTreeMap::new(),
            props: Inheritance::new(),
            journal: Vec::new(),
            stats: KbStats::default(),
        }
    }

    /// Number of concepts.
    pub fn concept_count(&self) -> usize {
        self.taxonomy.len()
    }

    /// Evaluation counters.
    pub fn stats(&self) -> KbStats {
        self.stats
    }

    /// The IS-A side of the knowledge base (names + subsumption closure).
    pub fn taxonomy(&self) -> &Taxonomy {
        &self.taxonomy
    }

    /// Drains the journal of closure mutations accumulated since the last
    /// drain (serving layers forward these to their own replicas).
    pub fn take_journal(&mut self) -> Vec<KbChange> {
        std::mem::take(&mut self.journal)
    }

    /// The id of an existing concept.
    pub fn concept_id(&self, name: &str) -> Option<u32> {
        self.taxonomy.id(name).ok().map(|c| c.0)
    }

    /// The name of a concept id.
    pub fn concept_name(&self, id: u32) -> &str {
        self.taxonomy.name(ConceptId(id))
    }

    /// Returns the id of `name`, creating the concept if needed (facts
    /// auto-introduce the concepts they mention, the way streamed knowledge
    /// bases grow).
    pub fn concept(&mut self, name: &str) -> Result<u32, KbError> {
        if let Ok(c) = self.taxonomy.id(name) {
            return Ok(c.0);
        }
        let id = self.taxonomy.add_root(name)?;
        let mirrored = self
            .part
            .add_node_with_parents(&[])
            .map_err(KbError::Update)?;
        debug_assert_eq!(id.0, mirrored.0, "relations must stay in lockstep");
        self.features.push(BTreeSet::new());
        self.journal.push(KbChange::NewConcept {
            id: id.0,
            name: name.to_string(),
        });
        Ok(id.0)
    }

    /// Attaches a feature to a concept (creating the concept if needed) and
    /// forward-chains any rules the new feature atom enables. Features are
    /// extensional only — rules test them, never derive them.
    pub fn add_feature(&mut self, concept: &str, feature: &str) -> Result<(), KbError> {
        let id = self.concept(concept)?;
        if !self.features[id as usize].insert(feature.to_string()) {
            return Ok(());
        }
        self.feat_index
            .entry(feature.to_string())
            .or_default()
            .insert(id);
        let mut work = VecDeque::new();
        work.push_back(DeltaAtom::Feat(id, feature.to_string()));
        self.propagate(work);
        Ok(())
    }

    /// Defines (or redefines, by name) a rule. Returns the rule's name.
    /// Concept constants named by the rule are created if absent, so a
    /// rule can never refer to a concept the model doesn't know.
    ///
    /// Existing derived facts are not re-evaluated — define rules before the
    /// facts they should fire on (the streaming-ingestion order).
    pub fn define_rule(&mut self, text: &str) -> Result<String, KbError> {
        let rule = parse_rule(text)?;
        let consts: Vec<String> = rule
            .body
            .iter()
            .chain(std::iter::once(&rule.head))
            .flat_map(|a| [&a.sub, &a.obj])
            .chain(rule.feats.iter().map(|f| &f.term))
            .filter_map(|t| match t {
                Term::Const(c) => Some(c.clone()),
                Term::Var(_) => None,
            })
            .collect();
        for c in consts {
            self.concept(&c)?;
        }
        let name = rule.name.clone();
        let compiled = self.compile(&rule);
        if let Some(i) = self.rules.iter().position(|r| r.name == name) {
            self.rules[i] = rule;
            self.compiled[i] = compiled;
        } else {
            self.rules.push(rule);
            self.compiled.push(compiled);
        }
        Ok(name)
    }

    /// The currently defined rules.
    pub fn rules(&self) -> &[Rule] {
        &self.rules
    }

    /// Whether `pred(a, b)` holds in the transitive relation (strict: a
    /// concept neither subsumes itself nor is a part of itself here).
    pub fn ask(&self, pred: Pred, a: &str, b: &str) -> Result<bool, KbError> {
        let x = self
            .concept_id(a)
            .ok_or_else(|| KbError::UnknownConcept(a.to_string()))?;
        let y = self
            .concept_id(b)
            .ok_or_else(|| KbError::UnknownConcept(b.to_string()))?;
        Ok(self.holds(pred, x, y))
    }

    /// Every concept strictly below `a` in the given relation, sorted.
    pub fn below(&self, pred: Pred, a: &str) -> Result<Vec<String>, KbError> {
        let x = self
            .concept_id(a)
            .ok_or_else(|| KbError::UnknownConcept(a.to_string()))?;
        let mut out: Vec<String> = self
            .clos(pred)
            .successors(NodeId(x))
            .into_iter()
            .filter(|v| v.0 != x)
            .map(|v| self.concept_name(v.0).to_string())
            .collect();
        out.sort_unstable();
        Ok(out)
    }

    /// Sets a property on a concept (creating it if needed); resolved by
    /// most-specific-provider inheritance over the IS-A relation.
    pub fn set_prop(&mut self, concept: &str, prop: &str, value: &str) -> Result<(), KbError> {
        self.concept(concept)?;
        self.props.set(&self.taxonomy, concept, prop, value)?;
        Ok(())
    }

    /// Resolves a property at a concept by inheritance along IS-A.
    pub fn get_prop(&self, concept: &str, prop: &str) -> Result<PropertyLookup, KbError> {
        Ok(self.props.effective(&self.taxonomy, concept, prop)?)
    }

    /// Asserts a base fact, inserting its arc through the delta-reporting
    /// §4.1 add path and semi-naively forward-chaining every rule over the
    /// newly-true pairs.
    pub fn assert_fact(&mut self, pred: Pred, a: &str, b: &str) -> Result<AssertOutcome, KbError> {
        if a == b {
            return Err(KbError::SelfLoop(a.to_string()));
        }
        let x = self.concept(a)?;
        let y = self.concept(b)?;
        let key = (pred, x, y);
        if let Some(fact) = self.facts.get_mut(&key) {
            fact.asserted = true;
            return Ok(AssertOutcome::Noop);
        }
        let delta = match self.edge_add(pred, x, y) {
            Ok(delta) => delta,
            Err(KbEdgeError::Cycle) => {
                self.stats.cycle_rejected += 1;
                return Ok(AssertOutcome::CycleRejected);
            }
            Err(KbEdgeError::Other(e)) => return Err(e),
        };
        self.facts.insert(key, Fact { asserted: true });
        self.stats.asserted += 1;
        self.journal.push(KbChange::EdgeAdded {
            pred,
            src: x,
            dst: y,
            derived: false,
        });
        let mut work = VecDeque::new();
        for &(s, t) in &delta.changed {
            work.push_back(DeltaAtom::Edge(pred, s.0, t.0));
        }
        self.propagate(work);
        Ok(AssertOutcome::Applied)
    }

    /// Retracts a base fact with DRed-style maintenance: the arc is removed
    /// (scoped §4.2 recompute inside `remove_edge`), derived facts whose
    /// rule bodies could have routed through any removed arc are
    /// over-deleted in cascade, and every casualty still derivable from the
    /// surviving model — the retracted fact included — is re-added and
    /// forward-chained. A fact that rules still derive therefore comes back
    /// as derived-only ([`RetractOutcome::KeptDerived`]).
    ///
    /// Derivability is always judged with the candidate's own arc out of
    /// the closure, so a fact can never be kept by a derivation that only
    /// exists because of the arc under retraction.
    pub fn retract_fact(
        &mut self,
        pred: Pred,
        a: &str,
        b: &str,
    ) -> Result<RetractOutcome, KbError> {
        let x = self
            .concept_id(a)
            .ok_or_else(|| KbError::UnknownConcept(a.to_string()))?;
        let y = self
            .concept_id(b)
            .ok_or_else(|| KbError::UnknownConcept(b.to_string()))?;
        let key = (pred, x, y);
        match self.facts.get_mut(&key) {
            Some(fact) if fact.asserted => fact.asserted = false,
            _ => return Err(KbError::NotAsserted(pred, a.to_string(), b.to_string())),
        }
        self.dred_cascade(key)?;
        Ok(if self.facts.contains_key(&key) {
            RetractOutcome::KeptDerived
        } else {
            RetractOutcome::Removed
        })
    }

    /// Differential gate: rebuilds the model from scratch — same concepts,
    /// features and rules, the surviving base facts replayed in canonical
    /// order, then a genuinely naive all-rules/all-bindings fixpoint — and
    /// checks the incremental model against it arc-for-arc and
    /// successor-set-for-successor-set.
    ///
    /// Only meaningful while [`KbStats::cycle_rejected`] and
    /// [`KbStats::derive_failed`] are zero: a rejected or dropped head makes
    /// the surviving model depend on arrival order, which a from-scratch
    /// replay cannot reproduce.
    pub fn check_against_naive(&self) -> Result<(), String> {
        let mut naive = KnowledgeBase::new();
        for name in self.taxonomy.concepts() {
            naive.concept(name).map_err(|e| e.to_string())?;
        }
        naive.compiled = self.rules.iter().map(|r| naive.compile(r)).collect();
        naive.rules = self.rules.clone();
        for (id, feats) in self.features.iter().enumerate() {
            for f in feats {
                naive.features[id].insert(f.clone());
                naive.feat_index.entry(f.clone()).or_default().insert(id as u32);
            }
        }
        // Base facts in canonical key order. The base graph is a subgraph
        // of the (acyclic) full graph, so none of these can be rejected.
        for (&(pred, x, y), fact) in &self.facts {
            if !fact.asserted {
                continue;
            }
            naive
                .edge_add(pred, x, y)
                .map_err(|e| format!("naive replay of {}({x},{y}): {e:?}", pred.name()))?;
            naive.facts.insert((pred, x, y), Fact { asserted: true });
        }
        naive.naive_fixpoint().map_err(|e| e.to_string())?;
        if naive.stats.cycle_rejected > 0 {
            return Err("naive fixpoint hit a cycle rejection; model is order-dependent".into());
        }
        for pred in [Pred::IsA, Pred::PartOf] {
            let mine: BTreeSet<(u32, u32)> = self
                .clos(pred)
                .graph()
                .edges()
                .map(|(s, t)| (s.0, t.0))
                .collect();
            let theirs: BTreeSet<(u32, u32)> = naive
                .clos(pred)
                .graph()
                .edges()
                .map(|(s, t)| (s.0, t.0))
                .collect();
            if mine != theirs {
                let extra: Vec<_> = mine.difference(&theirs).take(5).collect();
                let missing: Vec<_> = theirs.difference(&mine).take(5).collect();
                return Err(format!(
                    "{} arc sets diverge: incremental has extra {extra:?}, missing {missing:?}",
                    pred.name()
                ));
            }
            for id in 0..self.concept_count() as u32 {
                let mut a = self.clos(pred).successors(NodeId(id));
                let mut b = naive.clos(pred).successors(NodeId(id));
                a.sort_unstable();
                b.sort_unstable();
                if a != b {
                    return Err(format!(
                        "{} successor set of {} ({:?}) diverges from naive re-derivation",
                        pred.name(),
                        self.concept_name(id),
                        NodeId(id),
                    ));
                }
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Internal machinery
    // ------------------------------------------------------------------

    fn clos(&self, pred: Pred) -> &CompressedClosure {
        match pred {
            Pred::IsA => self.taxonomy.closure(),
            Pred::PartOf => &self.part,
        }
    }

    /// Strict transitive truth: `x` reaches `y` and `x != y`.
    fn holds(&self, pred: Pred, x: u32, y: u32) -> bool {
        x != y && self.clos(pred).reaches(NodeId(x), NodeId(y))
    }

    fn edge_add(&mut self, pred: Pred, x: u32, y: u32) -> Result<EdgeDelta, KbEdgeError> {
        match pred {
            Pred::IsA => match self.taxonomy.add_isa_delta(ConceptId(x), ConceptId(y)) {
                Ok(d) => Ok(d),
                Err(TaxonomyError::SubsumptionCycle(_, _)) => Err(KbEdgeError::Cycle),
                Err(e) => Err(KbEdgeError::Other(KbError::Taxonomy(e))),
            },
            Pred::PartOf => match self.part.add_edge_delta(NodeId(x), NodeId(y)) {
                Ok(d) => Ok(d),
                Err(UpdateError::WouldCreateCycle { .. }) | Err(UpdateError::SelfLoop(_)) => {
                    Err(KbEdgeError::Cycle)
                }
                Err(e) => Err(KbEdgeError::Other(KbError::Update(e))),
            },
        }
    }

    fn remove_fact_edge(&mut self, key: (Pred, u32, u32)) -> Result<(), KbError> {
        let (pred, x, y) = key;
        match pred {
            Pred::IsA => self
                .taxonomy
                .remove_isa(ConceptId(x), ConceptId(y))
                .map_err(KbError::Taxonomy)?,
            Pred::PartOf => self
                .part
                .remove_edge(NodeId(x), NodeId(y))
                .map_err(KbError::Update)?,
        }
        self.facts.remove(&key);
        self.journal.push(KbChange::EdgeRemoved {
            pred,
            src: x,
            dst: y,
        });
        Ok(())
    }

    /// Compiles a parsed rule against this knowledge base: variables become
    /// dense environment slots, constants become concept ids. Every
    /// constant must already exist — `define_rule` creates them first, and
    /// concepts are never removed, so the ids stay valid for good.
    fn compile(&self, rule: &Rule) -> Compiled {
        let mut vars: Vec<String> = Vec::new();
        let mut arg = |t: &Term| match t {
            Term::Var(v) => Arg::Slot(match vars.iter().position(|w| w == v) {
                Some(slot) => slot,
                None => {
                    vars.push(v.clone());
                    vars.len() - 1
                }
            }),
            Term::Const(c) => Arg::Id(
                self.concept_id(c)
                    .expect("rule constants are created before compiling"),
            ),
        };
        let mut atom = |a: &Atom| CompiledAtom {
            pred: a.pred,
            sub: arg(&a.sub),
            obj: arg(&a.obj),
        };
        let head = atom(&rule.head);
        let body = rule.body.iter().map(&mut atom).collect();
        let feats = rule
            .feats
            .iter()
            .map(|f| CompiledFeat {
                term: arg(&f.term),
                feature: f.feature.clone(),
            })
            .collect();
        Compiled {
            head,
            body,
            feats,
            slots: vars.len(),
        }
    }

    /// Semi-naive forward chaining: each worklist entry is one newly-true
    /// ground atom; for every rule position it can fill, the remaining body
    /// is joined against the full current relations and the resulting heads
    /// are materialized (which can enqueue further newly-true pairs).
    fn propagate(&mut self, mut work: VecDeque<DeltaAtom>) {
        let mut join = Join::default();
        while let Some(delta) = work.pop_front() {
            for ri in 0..self.compiled.len() {
                let positions = match delta {
                    DeltaAtom::Edge(..) => self.compiled[ri].body.len(),
                    DeltaAtom::Feat(..) => self.compiled[ri].feats.len(),
                };
                for pos in 0..positions {
                    let rule = &self.compiled[ri];
                    let seed = match &delta {
                        DeltaAtom::Edge(p, x, y) if rule.body[pos].pred == *p => {
                            Seed::Body(pos, *x, *y)
                        }
                        DeltaAtom::Feat(c, f) if rule.feats[pos].feature == *f => {
                            Seed::Feat(pos, *c)
                        }
                        _ => continue,
                    };
                    let pred = rule.head.pred;
                    for &(x, y) in join.run(self, rule, seed, false) {
                        self.fire(pred, x, y, &mut work);
                    }
                }
            }
        }
    }

    /// Materializes one ground head instantiation. An already-present fact
    /// is left alone; a genuinely new arc goes through the delta add path
    /// and its newly-true pairs join the worklist.
    fn fire(&mut self, pred: Pred, x: u32, y: u32, work: &mut VecDeque<DeltaAtom>) {
        if x == y || self.facts.contains_key(&(pred, x, y)) {
            return;
        }
        match self.edge_add(pred, x, y) {
            Ok(delta) => {
                self.facts.insert((pred, x, y), Fact { asserted: false });
                self.stats.derived += 1;
                self.journal.push(KbChange::EdgeAdded {
                    pred,
                    src: x,
                    dst: y,
                    derived: true,
                });
                for &(s, t) in &delta.changed {
                    work.push_back(DeltaAtom::Edge(pred, s.0, t.0));
                }
            }
            Err(KbEdgeError::Cycle) => {
                self.stats.cycle_rejected += 1;
            }
            Err(KbEdgeError::Other(_)) => {
                // Capacity-style failures during derivation: the head is
                // dropped rather than poisoning the whole propagation, but
                // the model is incomplete from here on — counted separately
                // so gates can tell this apart from order-dependence.
                self.stats.derive_failed += 1;
            }
        }
    }

    /// DRed cascade for the retraction of `seed`: remove its arc,
    /// over-delete every derived fact whose rule body could have routed
    /// through a removed arc, then re-derive the casualties the surviving
    /// model still justifies.
    ///
    /// The over-deletion is driven by arcs, not recorded supports: removing
    /// arc `(q, u, v)` makes every same-relation body pair in the affected
    /// rectangle `pred*(u) × succ*(v)` suspect, and each suspect head is
    /// removed in turn (enqueueing its own rectangle). Each arc's suspects
    /// are joined against the live model just *before* the arc goes. That
    /// is exact: over-deletion only ever removes arcs, so a removal can
    /// falsify a pair only inside its own rectangle, and every derivation
    /// is enumerated at the first removal whose rectangle holds one of its
    /// atoms — when all of its atoms are still live. This deletes a
    /// superset of what is truly lost — including mutually-supporting
    /// derived facts whose grounding died — and the re-derive phase, which
    /// only ever consults the surviving model, restores the rest.
    fn dred_cascade(&mut self, seed: (Pred, u32, u32)) -> Result<(), KbError> {
        let mut casualties: Vec<(Pred, u32, u32)> = vec![seed];
        let mut queue: VecDeque<(Pred, u32, u32)> = self.suspect_heads(seed).into();
        self.remove_fact_edge(seed)?;
        while let Some(key) = queue.pop_front() {
            match self.facts.get(&key) {
                Some(fact) if !fact.asserted => {}
                _ => continue,
            }
            queue.extend(self.suspect_heads(key));
            self.remove_fact_edge(key)?;
            self.stats.overdeleted += 1;
            casualties.push(key);
        }
        // Re-derive: restoring one casualty can justify another, so sweep
        // until a full pass restores nothing. Each restoration forward-
        // chains, which may itself re-materialize later casualties — those
        // are skipped when their turn comes.
        loop {
            let mut restored = false;
            for &(pred, x, y) in &casualties {
                if self.facts.contains_key(&(pred, x, y)) || !self.derivable(pred, x, y) {
                    continue;
                }
                let delta = match self.edge_add(pred, x, y) {
                    Ok(delta) => delta,
                    Err(KbEdgeError::Cycle) => {
                        self.stats.cycle_rejected += 1;
                        continue;
                    }
                    Err(KbEdgeError::Other(e)) => return Err(e),
                };
                self.facts.insert((pred, x, y), Fact { asserted: false });
                self.stats.rederived += 1;
                self.journal.push(KbChange::EdgeAdded {
                    pred,
                    src: x,
                    dst: y,
                    derived: true,
                });
                let mut work = VecDeque::new();
                for &(s, t) in &delta.changed {
                    work.push_back(DeltaAtom::Edge(pred, s.0, t.0));
                }
                self.propagate(work);
                restored = true;
            }
            if !restored {
                break;
            }
        }
        Ok(())
    }

    /// Heads of rule instantiations with a body pair in the affected
    /// rectangle of the arc `(q, u, v)` about to be removed: any such
    /// derivation may route through the arc, so its head is an
    /// over-deletion suspect. Called while the arc is still live, so the
    /// whole join runs against the current model.
    fn suspect_heads(&self, removed: (Pred, u32, u32)) -> Vec<(Pred, u32, u32)> {
        let (q, u, v) = removed;
        let clos = self.clos(q);
        let mut above: Vec<u32> = clos
            .predecessors(NodeId(u))
            .into_iter()
            .map(|n| n.0)
            .filter(|&n| n != u)
            .collect();
        above.push(u);
        let mut below: Vec<u32> = clos
            .successors(NodeId(v))
            .into_iter()
            .map(|n| n.0)
            .filter(|&n| n != v)
            .collect();
        below.push(v);
        let mut join = Join::default();
        let mut out = Vec::new();
        for rule in &self.compiled {
            for (pos, atom) in rule.body.iter().enumerate() {
                if atom.pred != q {
                    continue;
                }
                for &a in &above {
                    for &b in &below {
                        if a == b {
                            continue;
                        }
                        for &(hx, hy) in join.run(self, rule, Seed::Body(pos, a, b), false) {
                            if hx != hy {
                                out.push((rule.head.pred, hx, hy));
                            }
                        }
                    }
                }
            }
        }
        out
    }

    /// Whether any rule currently derives `pred(x, y)`. Judged against the
    /// live model, which never contains the candidate's own arc when this
    /// is asked (retraction removes first, then re-derives). Each rule's
    /// join stops at its first binding.
    fn derivable(&self, pred: Pred, x: u32, y: u32) -> bool {
        let mut join = Join::default();
        self.compiled.iter().any(|rule| {
            rule.head.pred == pred && !join.run(self, rule, Seed::Head(x, y), true).is_empty()
        })
    }

    /// Genuinely naive fixpoint: every rule against every binding until no
    /// new arc is materialized. The differential oracle the incremental
    /// engine is checked against; it shares the join kernel, which the
    /// string-environment reference in this module's tests checks in turn.
    fn naive_fixpoint(&mut self) -> Result<(), KbError> {
        let mut join = Join::default();
        loop {
            let mut new_heads: Vec<(Pred, u32, u32)> = Vec::new();
            for rule in &self.compiled {
                for &(x, y) in join.run(self, rule, Seed::Free, false) {
                    if x != y && !self.facts.contains_key(&(rule.head.pred, x, y)) {
                        new_heads.push((rule.head.pred, x, y));
                    }
                }
            }
            let mut changed = false;
            for (pred, x, y) in new_heads {
                if self.facts.contains_key(&(pred, x, y)) {
                    continue;
                }
                match self.edge_add(pred, x, y) {
                    Ok(_) => {
                        self.facts.insert((pred, x, y), Fact { asserted: false });
                        self.stats.derived += 1;
                        changed = true;
                    }
                    Err(KbEdgeError::Cycle) => {
                        self.stats.cycle_rejected += 1;
                    }
                    Err(KbEdgeError::Other(e)) => return Err(e),
                }
            }
            if !changed {
                return Ok(());
            }
        }
    }
}

#[derive(Debug)]
enum KbEdgeError {
    Cycle,
    Other(KbError),
}

#[derive(Debug, Clone)]
enum DeltaAtom {
    Edge(Pred, u32, u32),
    Feat(u32, String),
}

// ----------------------------------------------------------------------
// Compiled rules and the join kernel
// ----------------------------------------------------------------------

/// A rule term compiled against concept ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Arg {
    /// A variable: its dense slot in the join environment.
    Slot(usize),
    /// A constant: its concept id.
    Id(u32),
}

#[derive(Debug, Clone)]
struct CompiledAtom {
    pred: Pred,
    sub: Arg,
    obj: Arg,
}

#[derive(Debug, Clone)]
struct CompiledFeat {
    term: Arg,
    feature: String,
}

/// A [`Rule`] as the join evaluates it: no names left to hash.
#[derive(Debug, Clone)]
struct Compiled {
    head: CompiledAtom,
    body: Vec<CompiledAtom>,
    feats: Vec<CompiledFeat>,
    /// Number of distinct variables (environment slots).
    slots: usize,
}

/// Where a join starts: the ground atom a caller has already matched.
#[derive(Debug, Clone, Copy)]
enum Seed {
    /// Nothing bound: every body instantiation.
    Free,
    /// Body edge atom `pos` matched the pair `(x, y)`; it is not re-checked.
    Body(usize, u32, u32),
    /// Feature atom `pos` matched concept `c`; it is not re-checked.
    Feat(usize, u32),
    /// The head is the pair `(x, y)` (derivability probes).
    Head(u32, u32),
}

/// The rule-join kernel and its scratch state, reused across calls: one
/// slot environment bound and unbound in place, per-atom done flags, and
/// one row buffer per enumeration depth.
#[derive(Debug, Default)]
struct Join {
    env: Vec<Option<u32>>,
    edge_done: Vec<bool>,
    feat_done: Vec<bool>,
    rows: Vec<Vec<NodeId>>,
    heads: Vec<(u32, u32)>,
    first_only: bool,
}

impl Join {
    /// Joins `rule`'s body, starting from `seed`, against `kb`'s current
    /// relations and returns the head pair of every total binding in join
    /// order (reflexive pairs included; callers drop them). With
    /// `first_only` the join stops at the first binding.
    fn run(
        &mut self,
        kb: &KnowledgeBase,
        rule: &Compiled,
        seed: Seed,
        first_only: bool,
    ) -> &[(u32, u32)] {
        self.heads.clear();
        self.first_only = first_only;
        self.env.clear();
        self.env.resize(rule.slots, None);
        self.edge_done.clear();
        self.edge_done.resize(rule.body.len(), false);
        self.feat_done.clear();
        self.feat_done.resize(rule.feats.len(), false);
        let seeded = match seed {
            Seed::Free => true,
            Seed::Body(pos, x, y) => {
                self.edge_done[pos] = true;
                self.bind(rule.body[pos].sub, x) && self.bind(rule.body[pos].obj, y)
            }
            Seed::Feat(pos, c) => {
                self.feat_done[pos] = true;
                self.bind(rule.feats[pos].term, c)
            }
            Seed::Head(x, y) => self.bind(rule.head.sub, x) && self.bind(rule.head.obj, y),
        };
        if seeded {
            self.step(kb, rule, 0);
        }
        &self.heads
    }

    fn value(&self, arg: Arg) -> Option<u32> {
        match arg {
            Arg::Slot(v) => self.env[v],
            Arg::Id(c) => Some(c),
        }
    }

    /// Binds `arg` to `id`: a free slot takes it; a bound slot or a
    /// constant must already equal it. A variable repeated within a rule
    /// is therefore a check, never an overwrite.
    fn bind(&mut self, arg: Arg, id: u32) -> bool {
        match arg {
            Arg::Slot(v) => match self.env[v] {
                Some(bound) => bound == id,
                None => {
                    self.env[v] = Some(id);
                    true
                }
            },
            Arg::Id(c) => c == id,
        }
    }

    /// One level of the backtracking join; returns `false` once a
    /// `first_only` join has its binding.
    ///
    /// Bound feature atoms go first (cheap filters). Then the edge atom
    /// with the most bound terms — the last one among ties — is matched:
    /// fully bound, by one interval lookup; half bound, by enumerating one
    /// successor or predecessor row; unbound, by enumerating every
    /// concept's successor row (rules are expected to be range-connected,
    /// so only the naive fixpoint starts there). Feature atoms over free
    /// variables enumerate the feature index once no edge atom is left.
    fn step(&mut self, kb: &KnowledgeBase, rule: &Compiled, depth: usize) -> bool {
        let bound_feat = (0..rule.feats.len())
            .find(|&i| !self.feat_done[i] && self.value(rule.feats[i].term).is_some());
        if let Some(fi) = bound_feat {
            let fa = &rule.feats[fi];
            let c = self.value(fa.term).expect("found bound");
            if !kb.features[c as usize].contains(&fa.feature) {
                return true;
            }
            self.feat_done[fi] = true;
            let go = self.step(kb, rule, depth);
            self.feat_done[fi] = false;
            return go;
        }
        let pick = (0..rule.body.len())
            .filter(|&i| !self.edge_done[i])
            .max_by_key(|&i| {
                let a = &rule.body[i];
                self.value(a.sub).is_some() as usize + self.value(a.obj).is_some() as usize
            });
        let Some(ai) = pick else {
            let Some(fi) = (0..rule.feats.len()).find(|&i| !self.feat_done[i]) else {
                return self.emit(rule);
            };
            let fa = &rule.feats[fi];
            let Arg::Slot(v) = fa.term else {
                unreachable!("constants are always bound")
            };
            let Some(ids) = kb.feat_index.get(&fa.feature) else {
                return true;
            };
            self.feat_done[fi] = true;
            let mut go = true;
            for &c in ids {
                self.env[v] = Some(c);
                go = self.step(kb, rule, depth);
                if !go {
                    break;
                }
            }
            self.env[v] = None;
            self.feat_done[fi] = false;
            return go;
        };
        let atom = &rule.body[ai];
        let clos = kb.clos(atom.pred);
        self.edge_done[ai] = true;
        let go = match (
            atom.sub,
            atom.obj,
            self.value(atom.sub),
            self.value(atom.obj),
        ) {
            (_, _, Some(s), Some(o)) => !kb.holds(atom.pred, s, o) || self.step(kb, rule, depth),
            (_, Arg::Slot(v), Some(s), None) => self.each_in_row(kb, rule, depth, v, s, |row| {
                clos.successors_into(NodeId(s), row)
            }),
            (Arg::Slot(v), _, None, Some(o)) => self.each_in_row(kb, rule, depth, v, o, |row| {
                clos.predecessors_into(NodeId(o), row)
            }),
            // `isa(X, X)` asks for a reflexive pair, which the strict
            // relations never hold.
            (Arg::Slot(vs), Arg::Slot(vo), None, None) if vs != vo => {
                let mut go = true;
                for s in 0..kb.concept_count() as u32 {
                    self.env[vs] = Some(s);
                    go = self.each_in_row(kb, rule, depth, vo, s, |row| {
                        clos.successors_into(NodeId(s), row)
                    });
                    if !go {
                        break;
                    }
                }
                self.env[vs] = None;
                go
            }
            _ => true,
        };
        self.edge_done[ai] = false;
        go
    }

    /// Binds slot `v` to each node of the row `fill` writes, `except`
    /// excluded (the relations are strict), and joins the rest one level
    /// deeper. The row lives in this depth's reused buffer.
    fn each_in_row(
        &mut self,
        kb: &KnowledgeBase,
        rule: &Compiled,
        depth: usize,
        v: usize,
        except: u32,
        fill: impl FnOnce(&mut Vec<NodeId>),
    ) -> bool {
        if self.rows.len() <= depth {
            self.rows.resize_with(depth + 1, Vec::new);
        }
        let mut row = std::mem::take(&mut self.rows[depth]);
        fill(&mut row);
        let mut go = true;
        for &t in &row {
            if t.0 == except {
                continue;
            }
            self.env[v] = Some(t.0);
            go = self.step(kb, rule, depth + 1);
            if !go {
                break;
            }
        }
        self.env[v] = None;
        self.rows[depth] = row;
        go
    }

    /// Records the head of a total binding.
    fn emit(&mut self, rule: &Compiled) -> bool {
        let head = |arg| {
            self.value(arg)
                .expect("range restriction binds head variables")
        };
        let pair = (head(rule.head.sub), head(rule.head.obj));
        self.heads.push(pair);
        !self.first_only
    }
}

// ----------------------------------------------------------------------
// Rule text parser
// ----------------------------------------------------------------------

/// Parses `name: head :- atom, atom, ...` where each atom is
/// `isa(T, T)`, `partof(T, T)` or `feat(T, feature)`. Capitalized
/// identifiers are variables. Every head variable must occur in the body.
pub fn parse_rule(text: &str) -> Result<Rule, KbError> {
    let fail = |m: String| Err(KbError::Parse(m));
    let Some((name, rest)) = text.split_once(':') else {
        return fail("expected `name: head :- body`".into());
    };
    let name = name.trim();
    if name.is_empty() || !name.chars().all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_')
    {
        return fail(format!("bad rule name {name:?}"));
    }
    let Some((head_text, body_text)) = rest.split_once(":-") else {
        return fail("missing `:-`".into());
    };
    let head_atoms = parse_atoms(head_text)?;
    let [ParsedAtom::Edge(head)] = head_atoms.as_slice() else {
        return fail("head must be exactly one isa/partof atom".into());
    };
    let head = head.clone();
    let mut body = Vec::new();
    let mut feats = Vec::new();
    for atom in parse_atoms(body_text)? {
        match atom {
            ParsedAtom::Edge(a) => body.push(a),
            ParsedAtom::Feat(f) => feats.push(f),
        }
    }
    if body.is_empty() && feats.is_empty() {
        return fail("empty body".into());
    }
    // Range restriction: head variables must be bound by the body.
    for term in [&head.sub, &head.obj] {
        if let Term::Var(v) = term {
            let in_body = body
                .iter()
                .any(|a| a.sub == Term::Var(v.clone()) || a.obj == Term::Var(v.clone()))
                || feats.iter().any(|f| f.term == Term::Var(v.clone()));
            if !in_body {
                return fail(format!("head variable {v} is not bound by the body"));
            }
        }
    }
    Ok(Rule {
        name: name.to_string(),
        head,
        body,
        feats,
    })
}

enum ParsedAtom {
    Edge(Atom),
    Feat(FeatAtom),
}

fn parse_atoms(text: &str) -> Result<Vec<ParsedAtom>, KbError> {
    let fail = |m: String| Err(KbError::Parse(m));
    let mut out = Vec::new();
    let mut rest = text.trim();
    while !rest.is_empty() {
        let Some(open) = rest.find('(') else {
            return fail(format!("expected an atom at {rest:?}"));
        };
        let pred_name = rest[..open].trim();
        let Some(close) = rest.find(')') else {
            return fail(format!("unclosed atom at {rest:?}"));
        };
        if close < open {
            return fail(format!("mismatched parentheses at {rest:?}"));
        }
        let args: Vec<&str> = rest[open + 1..close].split(',').map(str::trim).collect();
        let [first, second] = args.as_slice() else {
            return fail(format!("{pred_name} takes exactly two arguments"));
        };
        if first.is_empty() || second.is_empty() {
            return fail(format!("{pred_name} has an empty argument"));
        }
        match pred_name {
            "feat" => out.push(ParsedAtom::Feat(FeatAtom {
                term: parse_term(first),
                feature: second.to_string(),
            })),
            _ => {
                let Some(pred) = Pred::parse(pred_name) else {
                    return fail(format!("unknown predicate {pred_name:?}"));
                };
                out.push(ParsedAtom::Edge(Atom {
                    pred,
                    sub: parse_term(first),
                    obj: parse_term(second),
                }));
            }
        }
        rest = rest[close + 1..].trim();
        if let Some(stripped) = rest.strip_prefix(',') {
            rest = stripped.trim();
            if rest.is_empty() {
                return fail("trailing comma".into());
            }
        } else if !rest.is_empty() {
            return fail(format!("expected `,` before {rest:?}"));
        }
    }
    Ok(out)
}

fn parse_term(s: &str) -> Term {
    if s.chars().next().is_some_and(|c| c.is_ascii_uppercase()) {
        Term::Var(s.to_string())
    } else {
        Term::Const(s.to_string())
    }
}

/// The string-environment join the compiled kernel replaced, kept as the
/// differential reference for it: variables bind by name in a hash map and
/// constants resolve by name on every use. Its only change is the fully
/// unbound arm, which binds the object through `bind_term` so a repeated
/// variable is checked instead of overwritten.
#[cfg(test)]
mod reference {
    use std::collections::HashMap;

    use tc_graph::NodeId;

    use super::{KnowledgeBase, Rule, Seed, Term};

    type Env = HashMap<String, u32>;

    /// Every head pair `rule` derives from `seed`, in join order.
    pub(super) fn heads(kb: &KnowledgeBase, rule: &Rule, seed: Seed) -> Vec<(u32, u32)> {
        let mut env = Env::new();
        let (skip_edge, skip_feat, seeded) = match seed {
            Seed::Free => (None, usize::MAX, true),
            Seed::Body(pos, x, y) => (
                Some(pos),
                usize::MAX,
                bind_term(&rule.body[pos].sub, x, &mut env, kb)
                    && bind_term(&rule.body[pos].obj, y, &mut env, kb),
            ),
            Seed::Feat(pos, c) => (None, pos, bind_term(&rule.feats[pos].term, c, &mut env, kb)),
            Seed::Head(x, y) => (
                None,
                usize::MAX,
                bind_term(&rule.head.sub, x, &mut env, kb)
                    && bind_term(&rule.head.obj, y, &mut env, kb),
            ),
        };
        if !seeded {
            return Vec::new();
        }
        let edge_todo: Vec<usize> = (0..rule.body.len())
            .filter(|&i| Some(i) != skip_edge)
            .collect();
        let feat_todo: Vec<usize> = (0..rule.feats.len()).filter(|&i| i != skip_feat).collect();
        let mut envs = Vec::new();
        join(kb, rule, env, &edge_todo, &feat_todo, &mut envs);
        envs.iter()
            .map(|env| {
                let head = |t| resolve(kb, t, env).expect("range-restricted head");
                (head(&rule.head.sub), head(&rule.head.obj))
            })
            .collect()
    }

    fn join(
        kb: &KnowledgeBase,
        rule: &Rule,
        env: Env,
        edge_todo: &[usize],
        feat_todo: &[usize],
        out: &mut Vec<Env>,
    ) {
        for (slot, &fi) in feat_todo.iter().enumerate() {
            let fa = &rule.feats[fi];
            if let Some(c) = resolve(kb, &fa.term, &env) {
                if !kb.features[c as usize].contains(&fa.feature) {
                    return;
                }
                let rest = without(feat_todo, slot);
                return join(kb, rule, env, edge_todo, &rest, out);
            }
        }
        if edge_todo.is_empty() {
            if let Some(&fi) = feat_todo.first() {
                let fa = &rule.feats[fi];
                let Term::Var(v) = &fa.term else {
                    return;
                };
                let rest = without(feat_todo, 0);
                if let Some(ids) = kb.feat_index.get(&fa.feature) {
                    for &c in ids {
                        let mut env2 = env.clone();
                        env2.insert(v.clone(), c);
                        join(kb, rule, env2, edge_todo, &rest, out);
                    }
                }
                return;
            }
            out.push(env);
            return;
        }
        let (slot, _) = edge_todo
            .iter()
            .enumerate()
            .max_by_key(|(_, &i)| {
                let a = &rule.body[i];
                resolve(kb, &a.sub, &env).is_some() as usize
                    + resolve(kb, &a.obj, &env).is_some() as usize
            })
            .expect("non-empty");
        let atom = &rule.body[edge_todo[slot]];
        let rest = without(edge_todo, slot);
        let clos = kb.clos(atom.pred);
        match (resolve(kb, &atom.sub, &env), resolve(kb, &atom.obj, &env)) {
            (Some(s), Some(o)) => {
                if kb.holds(atom.pred, s, o) {
                    join(kb, rule, env, &rest, feat_todo, out);
                }
            }
            (Some(s), None) => {
                let Term::Var(v) = &atom.obj else { return };
                for t in clos.successors(NodeId(s)).into_iter().filter(|t| t.0 != s) {
                    let mut env2 = env.clone();
                    env2.insert(v.clone(), t.0);
                    join(kb, rule, env2, &rest, feat_todo, out);
                }
            }
            (None, Some(o)) => {
                let Term::Var(v) = &atom.sub else { return };
                for s in clos
                    .predecessors(NodeId(o))
                    .into_iter()
                    .filter(|s| s.0 != o)
                {
                    let mut env2 = env.clone();
                    env2.insert(v.clone(), s.0);
                    join(kb, rule, env2, &rest, feat_todo, out);
                }
            }
            (None, None) => {
                let Term::Var(vs) = &atom.sub else { return };
                for s in 0..kb.concept_count() as u32 {
                    for t in clos.successors(NodeId(s)).into_iter().filter(|t| t.0 != s) {
                        let mut env2 = env.clone();
                        env2.insert(vs.clone(), s);
                        if bind_term(&atom.obj, t.0, &mut env2, kb) {
                            join(kb, rule, env2, &rest, feat_todo, out);
                        }
                    }
                }
            }
        }
    }

    fn without(todo: &[usize], slot: usize) -> Vec<usize> {
        let mut rest = todo.to_vec();
        rest.remove(slot);
        rest
    }

    fn resolve(kb: &KnowledgeBase, term: &Term, env: &Env) -> Option<u32> {
        match term {
            Term::Var(v) => env.get(v).copied(),
            Term::Const(c) => kb.concept_id(c),
        }
    }

    fn bind_term(term: &Term, id: u32, env: &mut Env, kb: &KnowledgeBase) -> bool {
        match term {
            Term::Var(v) => match env.get(v) {
                Some(&bound) => bound == id,
                None => {
                    env.insert(v.clone(), id);
                    true
                }
            },
            Term::Const(c) => kb.concept_id(c) == Some(id),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_parser_accepts_the_readme_shape() {
        let r = parse_rule("up: isa(X, Y) :- partof(X, Z), isa(Z, Y), feat(Z, critical)")
            .unwrap();
        assert_eq!(r.name, "up");
        assert_eq!(r.head.pred, Pred::IsA);
        assert_eq!(r.body.len(), 2);
        assert_eq!(r.feats.len(), 1);
        assert_eq!(r.feats[0].feature, "critical");
        assert_eq!(r.body[0].sub, Term::Var("X".into()));
    }

    #[test]
    fn rule_parser_rejects_malformed_programs() {
        for bad in [
            "no-body: isa(X, Y) :-",
            "unbound: isa(X, Y) :- isa(X, Z)",
            "feat-head: feat(X, f) :- isa(X, y)",
            "arity: isa(X) :- isa(X, Y)",
            "pred: friend(X, Y) :- isa(X, Y)",
            "missing-neck: isa(X, Y)",
            "isa(X, Y) :- isa(X, Z)",
            "two-heads: isa(X, Y), isa(Y, X) :- isa(X, Y)",
        ] {
            assert!(parse_rule(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn transitive_part_inheritance_fires_on_assert() {
        let mut kb = KnowledgeBase::new();
        kb.define_rule("up: isa(X, Y) :- partof(X, Z), isa(Z, Y)").unwrap();
        assert_eq!(
            kb.assert_fact(Pred::PartOf, "engine", "piston").unwrap(),
            AssertOutcome::Applied
        );
        assert_eq!(
            kb.assert_fact(Pred::IsA, "piston", "forged-piston").unwrap(),
            AssertOutcome::Applied
        );
        assert!(kb.ask(Pred::IsA, "engine", "forged-piston").unwrap());
        assert!(kb.stats().derived >= 1);
        kb.check_against_naive().unwrap();
    }

    #[test]
    fn feature_atoms_gate_and_trigger_rules() {
        let mut kb = KnowledgeBase::new();
        kb.define_rule("crit: isa(X, Y) :- partof(X, Z), isa(Z, Y), feat(Z, critical)")
            .unwrap();
        kb.assert_fact(Pred::PartOf, "plane", "engine").unwrap();
        kb.assert_fact(Pred::IsA, "engine", "jet-engine").unwrap();
        // Feature not present yet: rule must NOT have fired.
        assert!(!kb.ask(Pred::IsA, "plane", "jet-engine").unwrap());
        // The feature arrives later and forward-chains the rule.
        kb.add_feature("engine", "critical").unwrap();
        assert!(kb.ask(Pred::IsA, "plane", "jet-engine").unwrap());
        kb.check_against_naive().unwrap();
    }

    #[test]
    fn derived_facts_chain_through_derived_facts() {
        let mut kb = KnowledgeBase::new();
        kb.define_rule("lift: partof(X, Y) :- isa(X, Z), partof(Z, Y)").unwrap();
        kb.assert_fact(Pred::IsA, "car", "sports-car").unwrap();
        kb.assert_fact(Pred::IsA, "sports-car", "gt").unwrap();
        kb.assert_fact(Pred::PartOf, "gt", "spoiler").unwrap();
        // car isa gt (transitively) and gt has a spoiler, so car gets one;
        // so does sports-car, through the same transitive body atom.
        assert!(kb.ask(Pred::PartOf, "car", "spoiler").unwrap());
        assert!(kb.ask(Pred::PartOf, "sports-car", "spoiler").unwrap());
        kb.check_against_naive().unwrap();
    }

    #[test]
    fn retraction_of_underived_support_removes_derived_facts() {
        let mut kb = KnowledgeBase::new();
        kb.define_rule("up: isa(X, Y) :- partof(X, Z), isa(Z, Y)").unwrap();
        kb.assert_fact(Pred::PartOf, "engine", "piston").unwrap();
        kb.assert_fact(Pred::IsA, "piston", "forged-piston").unwrap();
        assert!(kb.ask(Pred::IsA, "engine", "forged-piston").unwrap());
        assert_eq!(
            kb.retract_fact(Pred::PartOf, "engine", "piston").unwrap(),
            RetractOutcome::Removed
        );
        assert!(!kb.ask(Pred::PartOf, "engine", "piston").unwrap());
        assert!(
            !kb.ask(Pred::IsA, "engine", "forged-piston").unwrap(),
            "derived fact must fall with its support"
        );
        assert!(kb.stats().overdeleted >= 1);
        kb.check_against_naive().unwrap();
    }

    #[test]
    fn retraction_keeps_facts_with_surviving_derivations() {
        let mut kb = KnowledgeBase::new();
        kb.define_rule("up: isa(X, Y) :- partof(X, Z), isa(Z, Y)").unwrap();
        // Two independent parts both justify isa(machine, alloy-gear).
        kb.assert_fact(Pred::PartOf, "machine", "gearbox").unwrap();
        kb.assert_fact(Pred::PartOf, "machine", "spare-gearbox").unwrap();
        kb.assert_fact(Pred::IsA, "gearbox", "alloy-gear").unwrap();
        kb.assert_fact(Pred::IsA, "spare-gearbox", "alloy-gear").unwrap();
        assert!(kb.ask(Pred::IsA, "machine", "alloy-gear").unwrap());
        kb.retract_fact(Pred::PartOf, "machine", "gearbox").unwrap();
        assert!(
            kb.ask(Pred::IsA, "machine", "alloy-gear").unwrap(),
            "second derivation must keep the fact alive"
        );
        kb.check_against_naive().unwrap();
    }

    #[test]
    fn retracting_a_fact_that_rules_still_derive_keeps_the_arc() {
        let mut kb = KnowledgeBase::new();
        kb.define_rule("up: isa(X, Y) :- partof(X, Z), isa(Z, Y)").unwrap();
        kb.assert_fact(Pred::PartOf, "engine", "piston").unwrap();
        kb.assert_fact(Pred::IsA, "piston", "forged-piston").unwrap();
        // Assert the derivable fact as a base fact too, then retract it:
        // the arc must survive as derived-only.
        assert_eq!(
            kb.assert_fact(Pred::IsA, "engine", "forged-piston").unwrap(),
            AssertOutcome::Noop
        );
        assert_eq!(
            kb.retract_fact(Pred::IsA, "engine", "forged-piston").unwrap(),
            RetractOutcome::KeptDerived
        );
        assert!(kb.ask(Pred::IsA, "engine", "forged-piston").unwrap());
        // Now remove the real support; the derived-only arc falls too.
        kb.retract_fact(Pred::PartOf, "engine", "piston").unwrap();
        assert!(!kb.ask(Pred::IsA, "engine", "forged-piston").unwrap());
        kb.check_against_naive().unwrap();
    }

    #[test]
    fn rederivation_restores_overdeleted_facts() {
        let mut kb = KnowledgeBase::new();
        kb.define_rule("up: isa(X, Y) :- partof(X, Z), isa(Z, Y)").unwrap();
        kb.define_rule("lift: partof(X, Y) :- isa(X, Z), partof(Z, Y)").unwrap();
        kb.assert_fact(Pred::IsA, "fleet", "truck").unwrap();
        kb.assert_fact(Pred::PartOf, "truck", "axle").unwrap();
        kb.assert_fact(Pred::IsA, "axle", "steel-axle").unwrap();
        // Derived: partof(fleet, axle), isa(truck, steel-axle), ...
        assert!(kb.ask(Pred::PartOf, "fleet", "axle").unwrap());
        assert!(kb.ask(Pred::IsA, "truck", "steel-axle").unwrap());
        // Retract and re-assert in various orders; the differential check
        // must hold at every quiescent point.
        kb.retract_fact(Pred::IsA, "fleet", "truck").unwrap();
        kb.check_against_naive().unwrap();
        assert!(!kb.ask(Pred::PartOf, "fleet", "axle").unwrap());
        kb.assert_fact(Pred::IsA, "fleet", "truck").unwrap();
        assert!(kb.ask(Pred::PartOf, "fleet", "axle").unwrap());
        kb.check_against_naive().unwrap();
    }

    #[test]
    fn retraction_rejects_circular_self_justification() {
        // isa(p, q) is "derivable" by up only through m -> p -> q, i.e.
        // through the very arc being retracted. Keeping it would be a
        // circular self-justification; the fact must fall.
        let mut kb = KnowledgeBase::new();
        kb.define_rule("up: isa(X, Y) :- partof(X, Z), isa(Z, Y)").unwrap();
        kb.assert_fact(Pred::PartOf, "p", "m").unwrap();
        kb.assert_fact(Pred::IsA, "m", "p").unwrap();
        kb.assert_fact(Pred::IsA, "p", "q").unwrap();
        assert_eq!(
            kb.retract_fact(Pred::IsA, "p", "q").unwrap(),
            RetractOutcome::Removed
        );
        assert!(!kb.ask(Pred::IsA, "p", "q").unwrap());
        assert_eq!(kb.stats().cycle_rejected, 0);
        kb.check_against_naive().unwrap();
    }

    #[test]
    fn mutual_support_loops_do_not_survive_retraction() {
        // r1 and r2 derive each other's bodies: once partof(c, d) exists,
        // isa(a, b) is derived, and each then "justifies" the other. After
        // the only base fact is retracted nothing grounds the pair, so both
        // must fall together.
        let mut kb = KnowledgeBase::new();
        kb.define_rule("r1: isa(a, b) :- partof(c, d)").unwrap();
        kb.define_rule("r2: partof(c, d) :- isa(a, b)").unwrap();
        kb.assert_fact(Pred::PartOf, "c", "d").unwrap();
        assert!(kb.ask(Pred::IsA, "a", "b").unwrap());
        assert_eq!(
            kb.retract_fact(Pred::PartOf, "c", "d").unwrap(),
            RetractOutcome::Removed
        );
        assert!(!kb.ask(Pred::PartOf, "c", "d").unwrap());
        assert!(!kb.ask(Pred::IsA, "a", "b").unwrap());
        kb.check_against_naive().unwrap();
    }

    #[test]
    fn parallel_path_loops_do_not_survive_retraction() {
        // The adversarial shape for delta-driven over-deletion: the pairs
        // sustaining the f/g loop (partof(g1, g2) and isa(a, b)) each hold
        // through TWO paths — a grounded one through the seed-derived arcs
        // h/k, and the loop partner's own arc. Removing h or k therefore
        // never flips those pairs; only an affected-rectangle cascade sees
        // that the loop may have routed through them. After the seed goes,
        // every derived fact must fall.
        let mut kb = KnowledgeBase::new();
        kb.define_rule("rh: partof(m, g2) :- partof(s1, s2)").unwrap();
        kb.define_rule("rk: isa(n, b) :- partof(s1, s2)").unwrap();
        kb.define_rule("rf: isa(a, b) :- partof(g1, g2)").unwrap();
        kb.define_rule("rg: partof(g1, g2) :- isa(a, b)").unwrap();
        kb.assert_fact(Pred::PartOf, "g1", "m").unwrap();
        kb.assert_fact(Pred::IsA, "a", "n").unwrap();
        kb.assert_fact(Pred::PartOf, "s1", "s2").unwrap();
        assert!(kb.ask(Pred::IsA, "a", "b").unwrap());
        assert!(kb.ask(Pred::PartOf, "g1", "g2").unwrap());
        kb.check_against_naive().unwrap();
        assert_eq!(
            kb.retract_fact(Pred::PartOf, "s1", "s2").unwrap(),
            RetractOutcome::Removed
        );
        assert!(!kb.ask(Pred::IsA, "a", "b").unwrap());
        assert!(!kb.ask(Pred::PartOf, "g1", "g2").unwrap());
        assert!(!kb.ask(Pred::PartOf, "m", "g2").unwrap());
        assert!(!kb.ask(Pred::IsA, "n", "b").unwrap());
        assert_eq!(kb.stats().cycle_rejected, 0);
        kb.check_against_naive().unwrap();
    }

    #[test]
    fn overdeletion_finds_derivations_that_lose_two_atoms_to_one_removal() {
        // Removing isa(u, v) falsifies both isa(x, v) and isa(u, w), the
        // two edge atoms of the only derivation of partof(x, w). Joined
        // after the removal, neither atom seeds a binding the other still
        // completes; joined before it, the derivation is found.
        let mut kb = KnowledgeBase::new();
        kb.define_rule("r: partof(X, W) :- isa(X, Y), feat(Y, k), isa(Z, W), feat(Z, m)")
            .unwrap();
        for (a, b) in [("x", "u"), ("u", "v"), ("v", "w")] {
            kb.assert_fact(Pred::IsA, a, b).unwrap();
        }
        kb.add_feature("v", "k").unwrap();
        kb.add_feature("u", "m").unwrap();
        assert!(kb.ask(Pred::PartOf, "x", "w").unwrap());
        assert_eq!(
            kb.retract_fact(Pred::IsA, "u", "v").unwrap(),
            RetractOutcome::Removed
        );
        assert!(!kb.ask(Pred::PartOf, "x", "w").unwrap());
        kb.check_against_naive().unwrap();
    }

    #[test]
    fn repeated_body_variables_are_checks_in_the_naive_gate_too() {
        // `isa(X, X)` asks for a reflexive pair, which the strict relations
        // never hold, so `odd` can never fire — neither incrementally nor
        // in the naive re-derivation the gate compares against.
        let mut kb = KnowledgeBase::new();
        kb.define_rule("odd: isa(X, Y) :- partof(Y, X), isa(X, X)").unwrap();
        kb.assert_fact(Pred::IsA, "r", "s").unwrap();
        kb.assert_fact(Pred::PartOf, "w", "s").unwrap();
        assert!(!kb.ask(Pred::IsA, "s", "w").unwrap());
        assert_eq!(kb.check_against_naive(), Ok(()));
    }

    #[test]
    fn cycle_heads_are_rejected_and_counted() {
        let mut kb = KnowledgeBase::new();
        kb.define_rule("inv: isa(Y, X) :- isa(X, Y), feat(X, flip)").unwrap();
        kb.assert_fact(Pred::IsA, "a", "b").unwrap();
        kb.add_feature("a", "flip").unwrap();
        // The rule wants isa(b, a), which would close a cycle.
        assert!(kb.ask(Pred::IsA, "a", "b").unwrap());
        assert!(!kb.ask(Pred::IsA, "b", "a").unwrap());
        assert_eq!(kb.stats().cycle_rejected, 1);
    }

    #[test]
    fn constants_in_rules_bind_by_name() {
        let mut kb = KnowledgeBase::new();
        kb.define_rule("pin: isa(root, X) :- isa(anchor, X)").unwrap();
        kb.assert_fact(Pred::IsA, "anchor", "leaf").unwrap();
        kb.assert_fact(Pred::IsA, "root", "unrelated").unwrap();
        assert!(kb.ask(Pred::IsA, "root", "leaf").unwrap());
        kb.check_against_naive().unwrap();
    }

    #[test]
    fn asserts_are_idempotent_and_self_loops_rejected() {
        let mut kb = KnowledgeBase::new();
        assert_eq!(
            kb.assert_fact(Pred::IsA, "a", "b").unwrap(),
            AssertOutcome::Applied
        );
        assert_eq!(
            kb.assert_fact(Pred::IsA, "a", "b").unwrap(),
            AssertOutcome::Noop
        );
        assert!(matches!(
            kb.assert_fact(Pred::IsA, "a", "a"),
            Err(KbError::SelfLoop(_))
        ));
        assert_eq!(
            kb.assert_fact(Pred::IsA, "b", "a").unwrap(),
            AssertOutcome::CycleRejected
        );
        assert!(matches!(
            kb.retract_fact(Pred::IsA, "b", "a"),
            Err(KbError::NotAsserted(..))
        ));
    }

    #[test]
    fn inheritance_rides_the_rule_derived_hierarchy() {
        let mut kb = KnowledgeBase::new();
        kb.define_rule("up: isa(X, Y) :- partof(X, Z), isa(Z, Y)").unwrap();
        kb.assert_fact(Pred::PartOf, "assembly", "bolt").unwrap();
        kb.assert_fact(Pred::IsA, "bolt", "m8-bolt").unwrap();
        kb.set_prop("assembly", "torque", "12nm").unwrap();
        // assembly subsumes m8-bolt via the rule, so the property inherits.
        match kb.get_prop("m8-bolt", "torque").unwrap() {
            PropertyLookup::Value { value, .. } => assert_eq!(value, "12nm"),
            other => panic!("expected inherited value, got {other:?}"),
        }
    }

    #[test]
    fn journal_records_every_closure_mutation() {
        let mut kb = KnowledgeBase::new();
        kb.define_rule("up: isa(X, Y) :- partof(X, Z), isa(Z, Y)").unwrap();
        kb.assert_fact(Pred::PartOf, "engine", "piston").unwrap();
        kb.assert_fact(Pred::IsA, "piston", "forged").unwrap();
        let journal = kb.take_journal();
        let concepts = journal
            .iter()
            .filter(|c| matches!(c, KbChange::NewConcept { .. }))
            .count();
        let derived = journal
            .iter()
            .filter(|c| matches!(c, KbChange::EdgeAdded { derived: true, .. }))
            .count();
        assert_eq!(concepts, 3);
        assert_eq!(derived, 1, "isa(engine, forged) was derived");
        assert!(kb.take_journal().is_empty(), "drained");
        kb.retract_fact(Pred::PartOf, "engine", "piston").unwrap();
        let journal = kb.take_journal();
        assert!(journal
            .iter()
            .any(|c| matches!(c, KbChange::EdgeRemoved { .. })));
    }

    #[test]
    fn randomized_assert_retract_churn_matches_naive_rederivation() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        // Layered name spaces keep every asserted arc pointing "downhill",
        // so no head or assert can be cycle-rejected and the differential
        // gate stays meaningful (cycle_rejected == 0 throughout). The final
        // (derived, overdeleted, rederived) counts are pinned per seed: the
        // model is checked against the naive gate, the counts check that
        // the cascade does the same work to get there.
        let pinned = [(37, 43, 19), (49, 29, 10), (30, 19, 4), (82, 68, 34)];
        for (seed, want) in (0..4u64).zip(pinned) {
            let mut rng = StdRng::seed_from_u64(seed * 7 + 1);
            let mut kb = KnowledgeBase::new();
            kb.define_rule("up: isa(X, Y) :- partof(X, Z), isa(Z, Y)").unwrap();
            kb.define_rule("lift: partof(X, Y) :- isa(X, Z), partof(Z, Y), feat(Z, hub)")
                .unwrap();
            let name = |layer: usize, i: usize| format!("l{layer}n{i}");
            let mut live: Vec<(Pred, String, String)> = Vec::new();
            for step in 0..120 {
                let retract = !live.is_empty() && rng.random_bool(0.3);
                if retract {
                    let ix = rng.random_range(0..live.len());
                    let (p, a, b) = live.swap_remove(ix);
                    kb.retract_fact(p, &a, &b).unwrap();
                } else {
                    let la = rng.random_range(0..4usize);
                    let lb = rng.random_range(la + 1..5usize);
                    let a = name(la, rng.random_range(0..3));
                    let b = name(lb, rng.random_range(0..3));
                    let pred = if rng.random_bool(0.5) { Pred::IsA } else { Pred::PartOf };
                    match kb.assert_fact(pred, &a, &b).unwrap() {
                        AssertOutcome::Applied => live.push((pred, a.clone(), b.clone())),
                        AssertOutcome::Noop => {
                            if !live.contains(&(pred, a.clone(), b.clone())) {
                                live.push((pred, a.clone(), b.clone()));
                            }
                        }
                        AssertOutcome::CycleRejected => {
                            panic!("layered workload cannot cycle")
                        }
                    }
                    if rng.random_bool(0.15) {
                        kb.add_feature(&a, "hub").unwrap();
                    }
                }
                assert_eq!(kb.stats().cycle_rejected, 0);
                assert_eq!(kb.stats().derive_failed, 0);
                if step % 20 == 19 {
                    kb.check_against_naive()
                        .unwrap_or_else(|e| panic!("seed {seed} step {step}: {e}"));
                }
            }
            kb.check_against_naive()
                .unwrap_or_else(|e| panic!("seed {seed} final: {e}"));
            let st = kb.stats();
            assert_eq!((st.derived, st.overdeleted, st.rederived), want, "seed {seed}");
        }
    }

    /// A random small program over concepts `c0..c5`, variables `X`,
    /// `Y`, `Z` and features `f0`, `f1`: 1–3 edge atoms, up to two feature
    /// atoms, constants and repeated variables included, and a head built
    /// from body variables and constants.
    fn random_rule(rng: &mut rand::rngs::StdRng, name: &str) -> String {
        use rand::Rng;
        fn term(rng: &mut rand::rngs::StdRng, used: &mut Vec<String>) -> String {
            if rng.random_bool(0.75) {
                let v = ["X", "Y", "Z"][rng.random_range(0..3usize)].to_string();
                used.push(v.clone());
                v
            } else {
                format!("c{}", rng.random_range(0..6))
            }
        }
        let mut used = Vec::new();
        let mut body = Vec::new();
        for _ in 0..rng.random_range(1..=3) {
            let pred = ["isa", "partof"][rng.random_range(0..2usize)];
            let (a, b) = (term(rng, &mut used), term(rng, &mut used));
            body.push(format!("{pred}({a}, {b})"));
        }
        for _ in 0..rng.random_range(0..=2) {
            let t = term(rng, &mut used);
            body.push(format!("feat({t}, f{})", rng.random_range(0..2)));
        }
        let mut head = [0, 1].map(|_| {
            if used.is_empty() || rng.random_bool(0.2) {
                format!("c{}", rng.random_range(0..6))
            } else {
                used[rng.random_range(0..used.len())].clone()
            }
        });
        let pred = ["isa", "partof"][rng.random_range(0..2usize)];
        let [a, b] = std::mem::take(&mut head);
        format!("{name}: {pred}({a}, {b}) :- {}", body.join(", "))
    }

    proptest::proptest! {
        /// The compiled slot join and the string-environment reference emit
        /// the same head sequence — order included — from every seed the
        /// engine uses: the empty seed (naive fixpoint), each body position
        /// against every pair, each feature position against every concept,
        /// and each head pair (derivability).
        #[test]
        fn compiled_join_matches_the_string_reference(seed in 0u64..u64::MAX) {
            use rand::rngs::StdRng;
            use rand::{Rng, SeedableRng};
            let mut rng = StdRng::seed_from_u64(seed);
            let mut kb = KnowledgeBase::new();
            let n = rng.random_range(3..=8u32);
            for i in 0..n {
                kb.concept(&format!("c{i}")).unwrap();
            }
            for _ in 0..rng.random_range(4..24) {
                let (a, b) = (rng.random_range(0..n), rng.random_range(0..n));
                let pred = if rng.random_bool(0.5) { Pred::IsA } else { Pred::PartOf };
                if a != b {
                    kb.assert_fact(pred, &format!("c{a}"), &format!("c{b}")).unwrap();
                }
            }
            for _ in 0..rng.random_range(0..8) {
                let c = format!("c{}", rng.random_range(0..n));
                kb.add_feature(&c, &format!("f{}", rng.random_range(0..2))).unwrap();
            }
            for r in 0..3 {
                let text = random_rule(&mut rng, &format!("r{r}"));
                kb.define_rule(&text).unwrap_or_else(|e| panic!("{text}: {e}"));
            }
            let mut join = Join::default();
            let concepts = kb.concept_count() as u32;
            for (rule, compiled) in kb.rules.iter().zip(&kb.compiled) {
                let mut seeds = vec![Seed::Free];
                for x in 0..concepts {
                    for pos in 0..rule.feats.len() {
                        seeds.push(Seed::Feat(pos, x));
                    }
                    for y in (0..concepts).filter(|&y| y != x) {
                        seeds.push(Seed::Head(x, y));
                        for pos in 0..rule.body.len() {
                            seeds.push(Seed::Body(pos, x, y));
                        }
                    }
                }
                for seed in seeds {
                    let want = reference::heads(&kb, rule, seed);
                    let got = join.run(&kb, compiled, seed, false);
                    proptest::prop_assert_eq!(got, &want[..], "{}: {:?}", rule.name, seed);
                    let first = join.run(&kb, compiled, seed, true);
                    proptest::prop_assert_eq!(first, &want[..want.len().min(1)]);
                }
            }
        }
    }
}
