//! The fuzzer's op vocabulary and its serialized, replayable trace format.
//!
//! A trace is a [`FuzzConfig`] (the closure configuration the sequence runs
//! under) plus a list of [`Op`]s applied to an *initially empty* closure.
//! Ops reference nodes by the dense id the closure assigns them, so a trace
//! is fully deterministic: replaying it reproduces the exact same closure
//! states, including any failure. Ops whose operands are invalid at replay
//! time (unknown node, cycle, missing edge) are *skipped* by the engine
//! under fixed, documented rules — this keeps shrinking sound: deleting an
//! op from a failing trace never makes the remainder unreplayable.
//!
//! The text format is line-oriented so reproducers diff and review well:
//!
//! ```text
//! # tc-fuzz trace v1
//! gap 64
//! reserve 4
//! merge 0
//! threads 1
//! add-node
//! add-node 0
//! add-edge 1 0
//! remove-edge 1 0
//! refine 0
//! remove-node 1
//! relabel
//! rebuild
//! freeze
//! thaw
//! set-threads 2
//! service-publish
//! service-query
//! paged-probe
//! ```

use std::fmt;

use tc_core::ClosureConfig;

/// One update operation against the closure under test.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// `CompressedClosure::add_node_with_parents` — the listed parents may
    /// contain duplicates or out-of-range ids on purpose (exercising the
    /// dedup and validation paths); out-of-range ids are dropped at replay.
    AddNode {
        /// Parent ids for the new node (first valid one becomes the tree
        /// parent).
        parents: Vec<u32>,
    },
    /// `CompressedClosure::add_edge` (skipped when the arc exists, is a
    /// self-loop, or would create a cycle).
    AddEdge {
        /// Arc source.
        src: u32,
        /// Arc destination.
        dst: u32,
    },
    /// `CompressedClosure::remove_edge` (skipped when the arc is absent).
    RemoveEdge {
        /// Arc source.
        src: u32,
        /// Arc destination.
        dst: u32,
    },
    /// `CompressedClosure::remove_node` (skipped for out-of-range ids).
    RemoveNode {
        /// The node to remove.
        node: u32,
    },
    /// `CompressedClosure::refine_insert` with the node's current immediate
    /// predecessors (skipped when the reserve tail is exhausted).
    Refine {
        /// The node being refined.
        child: u32,
    },
    /// `CompressedClosure::relabel`.
    Relabel,
    /// `CompressedClosure::rebuild`.
    Rebuild,
    /// `CompressedClosure::freeze` — snapshots a read-optimized query plane;
    /// subsequent queries (and the per-step audit) run against it until the
    /// next update invalidates it. Never skipped.
    Freeze,
    /// `CompressedClosure::thaw` — drops the plane (a no-op when none is
    /// frozen). Never skipped.
    Thaw,
    /// `CompressedClosure::set_threads`.
    SetThreads {
        /// Worker-thread count (0 = one per CPU).
        threads: usize,
    },
    /// `ServiceSnapshot::capture` — pins the serving layer's published view
    /// of the current state (plus a mirror copy of the relation for the
    /// oracle); it stays pinned while the trace keeps mutating, exactly like
    /// a [`tc_core::ShardedView`] a reader pinned before later flushes.
    /// Never skipped.
    ServicePublish,
    /// Replays queries against the pinned published view and checks them
    /// against a DFS closure of the relation *as it was at publish time*
    /// (skipped when nothing has been published yet).
    ServiceQuery,
    /// Round-trips the current closure through the out-of-core `PLN2`
    /// format (`CompressedClosure::to_paged_bytes` →
    /// `PagedPlane::open_from_bytes` with an eviction-forcing 2-frame pool)
    /// and compares every paged answer against the closure under test.
    /// Never skipped; never mutates the relation but counts as applied.
    PagedProbe,
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Op::AddNode { parents } => {
                write!(f, "add-node")?;
                for p in parents {
                    write!(f, " {p}")?;
                }
                Ok(())
            }
            Op::AddEdge { src, dst } => write!(f, "add-edge {src} {dst}"),
            Op::RemoveEdge { src, dst } => write!(f, "remove-edge {src} {dst}"),
            Op::RemoveNode { node } => write!(f, "remove-node {node}"),
            Op::Refine { child } => write!(f, "refine {child}"),
            Op::Relabel => write!(f, "relabel"),
            Op::Rebuild => write!(f, "rebuild"),
            Op::Freeze => write!(f, "freeze"),
            Op::Thaw => write!(f, "thaw"),
            Op::SetThreads { threads } => write!(f, "set-threads {threads}"),
            Op::ServicePublish => write!(f, "service-publish"),
            Op::ServiceQuery => write!(f, "service-query"),
            Op::PagedProbe => write!(f, "paged-probe"),
        }
    }
}

/// The closure configuration a trace runs under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FuzzConfig {
    /// Postorder-number spacing ([`ClosureConfig::gap`]).
    pub gap: u64,
    /// Refinement reserve ([`ClosureConfig::reserve`]).
    pub reserve: u64,
    /// Adjacent-interval merging ([`ClosureConfig::merge_adjacent`]).
    pub merge: bool,
    /// Initial worker-thread count ([`ClosureConfig::threads`]); traces can
    /// change it mid-run with [`Op::SetThreads`].
    pub threads: usize,
    /// Scoped deletion recompute ([`ClosureConfig::scoped_deletes`]).
    /// Defaults to on; running the same seed with it off replays every
    /// deletion through the historical global sweep, so the two settings
    /// serve as cross-check oracles of each other.
    pub scoped: bool,
    /// Hybrid bitset threshold ([`ClosureConfig::hybrid`]) applied to every
    /// freeze in the trace. `u64::MAX` (the default) keeps freezes
    /// pure-interval; any other value routes hot rows through bitset rows
    /// and cutoff labels, which the per-step audit and differential oracle
    /// then cross-check against the mutable labels.
    pub hybrid: u64,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            gap: 64,
            reserve: 0,
            merge: false,
            threads: 1,
            scoped: true,
            hybrid: u64::MAX,
        }
    }
}

impl FuzzConfig {
    /// The equivalent [`ClosureConfig`], or an error message when the
    /// gap/reserve combination is invalid (`gap` must exceed `2 * reserve`).
    pub fn closure_config(&self) -> Result<ClosureConfig, String> {
        if self.gap == 0 || self.gap <= 2 * self.reserve {
            return Err(format!(
                "invalid fuzz config: gap {} must be positive and exceed 2 * reserve {}",
                self.gap, self.reserve
            ));
        }
        let mut config = ClosureConfig::new()
            .gap(self.gap)
            .reserve(self.reserve)
            .merge_adjacent(self.merge)
            .threads(self.threads)
            .scoped_deletes(self.scoped);
        if self.hybrid != u64::MAX {
            config = config.hybrid(self.hybrid as usize);
        }
        Ok(config)
    }
}

/// A full replayable trace: configuration plus op sequence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpTrace {
    /// The closure configuration the ops run under.
    pub config: FuzzConfig,
    /// The op sequence, applied to an initially empty closure.
    pub ops: Vec<Op>,
}

impl OpTrace {
    /// Serializes the trace in the line-oriented reproducer format.
    pub fn to_text(&self) -> String {
        let mut out = String::from("# tc-fuzz trace v1\n");
        out.push_str(&format!("gap {}\n", self.config.gap));
        out.push_str(&format!("reserve {}\n", self.config.reserve));
        out.push_str(&format!("merge {}\n", u8::from(self.config.merge)));
        out.push_str(&format!("threads {}\n", self.config.threads));
        // Written only off its default so pre-existing reproducers stay
        // byte-identical.
        if !self.config.scoped {
            out.push_str("scoped 0\n");
        }
        if self.config.hybrid != u64::MAX {
            out.push_str(&format!("hybrid {}\n", self.config.hybrid));
        }
        for op in &self.ops {
            out.push_str(&op.to_string());
            out.push('\n');
        }
        out
    }

    /// Parses a trace serialized by [`OpTrace::to_text`]. Header lines
    /// (`gap`/`reserve`/`merge`/`threads`/`scoped`/`hybrid <value>`) may appear in
    /// any order before the first op and default when absent; blank lines
    /// and `#` comments are ignored.
    pub fn parse(text: &str) -> Result<OpTrace, String> {
        let mut config = FuzzConfig::default();
        let mut ops = Vec::new();
        let mut in_header = true;
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut tok = line.split_whitespace();
            let head = tok.next().expect("non-empty line has a token");
            let rest: Vec<&str> = tok.collect();
            let fail = |msg: &str| Err(format!("line {}: {msg}: {raw:?}", lineno + 1));
            let one = |rest: &[&str]| -> Result<u64, String> {
                match rest {
                    [v] => v.parse().map_err(|_| format!("line {}: bad number {v:?}", lineno + 1)),
                    _ => Err(format!("line {}: expected one operand: {raw:?}", lineno + 1)),
                }
            };
            let two = |rest: &[&str]| -> Result<(u32, u32), String> {
                match rest {
                    [a, b] => Ok((
                        a.parse().map_err(|_| format!("line {}: bad id {a:?}", lineno + 1))?,
                        b.parse().map_err(|_| format!("line {}: bad id {b:?}", lineno + 1))?,
                    )),
                    _ => Err(format!("line {}: expected two operands: {raw:?}", lineno + 1)),
                }
            };
            match head {
                "gap" | "reserve" | "merge" | "threads" | "scoped" | "hybrid" if in_header => {
                    let v = one(&rest)?;
                    match head {
                        "gap" => config.gap = v,
                        "reserve" => config.reserve = v,
                        "merge" => config.merge = v != 0,
                        "scoped" => config.scoped = v != 0,
                        "hybrid" => config.hybrid = v,
                        _ => config.threads = v as usize,
                    }
                }
                "add-node" => {
                    in_header = false;
                    let parents = rest
                        .iter()
                        .map(|p| p.parse().map_err(|_| format!("line {}: bad id {p:?}", lineno + 1)))
                        .collect::<Result<Vec<u32>, String>>()?;
                    ops.push(Op::AddNode { parents });
                }
                "add-edge" => {
                    in_header = false;
                    let (src, dst) = two(&rest)?;
                    ops.push(Op::AddEdge { src, dst });
                }
                "remove-edge" => {
                    in_header = false;
                    let (src, dst) = two(&rest)?;
                    ops.push(Op::RemoveEdge { src, dst });
                }
                "remove-node" => {
                    in_header = false;
                    ops.push(Op::RemoveNode { node: one(&rest)? as u32 });
                }
                "refine" => {
                    in_header = false;
                    ops.push(Op::Refine { child: one(&rest)? as u32 });
                }
                "relabel" => {
                    in_header = false;
                    ops.push(Op::Relabel);
                }
                "rebuild" => {
                    in_header = false;
                    ops.push(Op::Rebuild);
                }
                "freeze" => {
                    in_header = false;
                    ops.push(Op::Freeze);
                }
                "thaw" => {
                    in_header = false;
                    ops.push(Op::Thaw);
                }
                "set-threads" => {
                    in_header = false;
                    ops.push(Op::SetThreads { threads: one(&rest)? as usize });
                }
                "service-publish" => {
                    in_header = false;
                    ops.push(Op::ServicePublish);
                }
                "service-query" => {
                    in_header = false;
                    ops.push(Op::ServiceQuery);
                }
                "paged-probe" => {
                    in_header = false;
                    ops.push(Op::PagedProbe);
                }
                _ => return fail("unknown directive"),
            }
        }
        Ok(OpTrace { config, ops })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let trace = OpTrace {
            config: FuzzConfig {
                gap: 8,
                reserve: 2,
                merge: true,
                threads: 2,
                scoped: false,
                hybrid: 3,
            },
            ops: vec![
                Op::AddNode { parents: vec![] },
                Op::AddNode { parents: vec![0, 0, 1] },
                Op::AddEdge { src: 1, dst: 0 },
                Op::RemoveEdge { src: 1, dst: 0 },
                Op::Refine { child: 0 },
                Op::RemoveNode { node: 1 },
                Op::Relabel,
                Op::Rebuild,
                Op::Freeze,
                Op::Thaw,
                Op::SetThreads { threads: 0 },
                Op::ServicePublish,
                Op::ServiceQuery,
                Op::PagedProbe,
            ],
        };
        let text = trace.to_text();
        assert_eq!(OpTrace::parse(&text).unwrap(), trace);
    }

    #[test]
    fn defaults_and_comments() {
        let t = OpTrace::parse("# hi\n\nadd-node\nrelabel\n").unwrap();
        assert_eq!(t.config, FuzzConfig::default());
        assert_eq!(t.ops.len(), 2);
    }

    #[test]
    fn bad_lines_are_rejected() {
        assert!(OpTrace::parse("frobnicate 1").is_err());
        assert!(OpTrace::parse("add-edge 1").is_err());
        assert!(OpTrace::parse("remove-node x").is_err());
        // Header keys after the first op are no longer header fields.
        assert!(OpTrace::parse("add-node\ngap 4").is_err());
    }

    #[test]
    fn invalid_config_is_reported() {
        let t = OpTrace::parse("gap 4\nreserve 2\nadd-node\n").unwrap();
        assert!(t.config.closure_config().is_err());
        assert!(FuzzConfig::default().closure_config().is_ok());
    }
}
