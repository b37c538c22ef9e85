//! Inputs generated from the seed, and the oracle answers that go with
//! them. The oracle is graph traversal over the generated relation, not
//! any closure code, so a wrong interval, plane, pager or shard answer
//! cannot agree with it by sharing a bug.

use std::collections::BTreeSet;
use std::fmt::Write as _;

use tc_graph::traverse::reachable_set;
use tc_graph::{topo, BitSet, DiGraph, NodeId};

/// SplitMix64: tiny, fast, and fully determined by the seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, with `stream` separating independent uses.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }

    /// True with probability `pct` percent.
    pub fn percent(&mut self, pct: u32) -> bool {
        self.below(100) < pct as usize
    }
}

/// Reachability pairs with their answers, and the request lines that ask
/// them.
#[derive(Debug, Clone)]
pub struct PairPool {
    /// `(src, dst)` node ids.
    pub pairs: Vec<(u32, u32)>,
    /// `answers[i]`: whether `pairs[i].0` reaches `pairs[i].1` (reflexive).
    pub answers: Vec<bool>,
    /// Bit `j` of `arc_mask[i]` is set when adding write-arc `j` alone
    /// makes pair `i` reachable (empty unless arcs were given).
    pub arc_mask: Vec<u64>,
}

impl PairPool {
    /// Draws `count` pairs with sources uniform in `src` and targets
    /// uniform in `dst`, and answers them by one traversal per distinct
    /// source. `arcs` (at most 64) are extra arcs the workload adds and
    /// removes one at a time.
    pub fn draw(
        g: &DiGraph,
        count: usize,
        src: std::ops::Range<usize>,
        dst: std::ops::Range<usize>,
        arcs: &[(u32, u32)],
        rng: &mut Rng,
    ) -> PairPool {
        let pairs: Vec<(u32, u32)> = (0..count)
            .map(|_| {
                let a = src.start + rng.below(src.len());
                let b = dst.start + rng.below(dst.len());
                (a as u32, b as u32)
            })
            .collect();
        PairPool::answer(g, pairs, arcs)
    }

    /// Answers given pairs as [`PairPool::draw`] does.
    pub fn answer(g: &DiGraph, pairs: Vec<(u32, u32)>, arcs: &[(u32, u32)]) -> PairPool {
        assert!(arcs.len() <= 64, "the arc mask has 64 bits");
        let count = pairs.len();
        let below: Vec<BitSet> = arcs
            .iter()
            .map(|&(_, v)| reachable_set(g, NodeId(v)))
            .collect();
        let mut answers = vec![false; count];
        let mut arc_mask = vec![0u64; if arcs.is_empty() { 0 } else { count }];
        let mut order: Vec<usize> = (0..count).collect();
        order.sort_by_key(|&i| pairs[i].0);
        let mut reach: Option<(u32, BitSet)> = None;
        for i in order {
            let (a, b) = pairs[i];
            if reach.as_ref().is_none_or(|(s, _)| *s != a) {
                reach = Some((a, reachable_set(g, NodeId(a))));
            }
            let set = &reach.as_ref().expect("set above").1;
            answers[i] = set.contains(b as usize);
            if !answers[i] {
                for (j, &(u, _)) in arcs.iter().enumerate() {
                    if set.contains(u as usize) && below[j].contains(b as usize) {
                        arc_mask[i] |= 1 << j;
                    }
                }
            }
        }
        PairPool {
            pairs,
            answers,
            arc_mask,
        }
    }

    /// `reaches nA nB` for every pair.
    pub fn reach_lines(&self) -> Vec<String> {
        self.pairs
            .iter()
            .map(|(a, b)| format!("reaches n{a} n{b}"))
            .collect()
    }

    /// `reaches-batch` lines of `per` consecutive pairs each (the pool
    /// length must be a multiple of `per`).
    pub fn batch_lines(&self, per: usize) -> Vec<String> {
        assert_eq!(self.pairs.len() % per, 0, "pool splits into whole batches");
        self.pairs
            .chunks(per)
            .map(|chunk| {
                let mut line = String::from("reaches-batch");
                for (a, b) in chunk {
                    let _ = write!(line, " n{a} n{b}");
                }
                line
            })
            .collect()
    }
}

/// Arcs a writer can add and remove again: `u` precedes `v` in a
/// topological order (so the add is admitted), the arc is absent, and `u`
/// does not already reach `v` (so adding it changes the closure and costs
/// real §4 work). Fewer than `count` come back only on tiny graphs.
pub fn write_arcs(g: &DiGraph, count: usize, rng: &mut Rng) -> Vec<(u32, u32)> {
    let order = topo::topo_sort(g).expect("generated graphs are acyclic");
    let n = order.len();
    let mut arcs = Vec::new();
    let mut tries = 0;
    while arcs.len() < count && tries < 100 * count && n >= 2 {
        tries += 1;
        let (i, j) = (rng.below(n), rng.below(n));
        if i >= j {
            continue;
        }
        let (u, v) = (order[i], order[j]);
        if g.has_edge(u, v) || arcs.contains(&(u.0, v.0)) || reachable_set(g, u).contains(v.index())
        {
            continue;
        }
        arcs.push((u.0, v.0));
    }
    arcs
}

/// The response `successors nX` must produce: every reachable node's key,
/// sorted as strings, after `ok`.
pub fn successors_line(g: &DiGraph, node: u32) -> String {
    let set = reachable_set(g, NodeId(node));
    let mut keys: Vec<String> = (0..g.node_count())
        .filter(|&v| set.contains(v))
        .map(|v| format!("n{v}"))
        .collect();
    keys.sort_unstable();
    let mut line = String::from("ok");
    for k in keys {
        line.push(' ');
        line.push_str(&k);
    }
    line
}

/// FNV-1a, to keep long expected responses as 8 bytes.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Shape of the knowledge-base stream (`kb_scale`'s catalog).
#[derive(Debug, Clone, Copy)]
pub struct KbShape {
    /// Concept layers; facts point from higher to lower layers.
    pub layers: usize,
    /// Concepts per layer.
    pub width: usize,
    /// Windows in the stream.
    pub windows: usize,
    /// Mutations per window.
    pub ops: usize,
    /// `ask`s after each window's mutations.
    pub asks: usize,
    /// Share of mutations that retract a live fact, in percent.
    pub retract_pct: u32,
}

/// The rules every `kb_ingest` daemon gets: part-hood lifted through
/// subsumption in both directions. Derived heads stay downhill through the
/// layers, so forward chaining can never be cycle-rejected.
pub const KB_RULES: [&str; 2] = [
    "up: isa(X, Y) :- partof(X, Z), isa(Z, Y)",
    "share: partof(X, Y) :- isa(X, Z), partof(Z, Y)",
];

/// One window of the stream: mutation lines, then ask lines.
#[derive(Debug, Clone, Default)]
pub struct KbWindow {
    /// `assert` / `retract` lines.
    pub mutations: Vec<String>,
    /// `ask` lines.
    pub asks: Vec<String>,
}

/// Generates the stream. Asserts point strictly downhill, so none is
/// cycle-rejected; retracts pick a still-asserted fact, exercising DRed;
/// asks pick two distinct concepts seen so far, `isa` 70 % of the time.
pub fn kb_stream(shape: KbShape, rng: &mut Rng) -> Vec<KbWindow> {
    let mut live: BTreeSet<(bool, String, String)> = BTreeSet::new();
    let mut names: Vec<String> = Vec::new();
    let mut out = Vec::with_capacity(shape.windows);
    for _ in 0..shape.windows {
        let mut w = KbWindow::default();
        for _ in 0..shape.ops {
            if !live.is_empty() && rng.percent(shape.retract_pct) {
                let fact = live
                    .iter()
                    .nth(rng.below(live.len()))
                    .expect("index in range")
                    .clone();
                let rel = if fact.0 { "isa" } else { "partof" };
                w.mutations
                    .push(format!("retract {rel} {} {}", fact.1, fact.2));
                live.remove(&fact);
                continue;
            }
            let hi = 1 + rng.below(shape.layers - 1);
            let lo = rng.below(hi);
            let a = format!("l{hi}n{}", rng.below(shape.width));
            let b = format!("l{lo}n{}", rng.below(shape.width));
            let isa = rng.percent(50);
            w.mutations.push(format!(
                "assert {} {a} {b}",
                if isa { "isa" } else { "partof" }
            ));
            for n in [&a, &b] {
                if !names.contains(n) {
                    names.push(n.clone());
                }
            }
            live.insert((isa, a, b));
        }
        for _ in 0..shape.asks {
            let a = rng.below(names.len());
            let b = (a + 1 + rng.below(names.len() - 1)) % names.len();
            let rel = if rng.percent(70) { "isa" } else { "partof" };
            w.asks.push(format!("ask {rel} {} {}", names[a], names[b]));
        }
        out.push(w);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use tc_graph::generators::{random_dag, RandomDagConfig};

    fn graph() -> DiGraph {
        random_dag(RandomDagConfig {
            nodes: 300,
            avg_out_degree: 2.0,
            seed: 5,
        })
    }

    #[test]
    fn rng_is_seeded_and_uniform_enough() {
        let (mut a, mut b) = (Rng::new(7, 1), Rng::new(7, 1));
        assert_eq!(a.next_u64(), b.next_u64());
        assert_ne!(Rng::new(7, 1).next_u64(), Rng::new(7, 2).next_u64());
        let mut hits = [0usize; 4];
        for _ in 0..4000 {
            hits[a.below(4)] += 1;
        }
        assert!(hits.iter().all(|&h| (800..1200).contains(&h)), "{hits:?}");
    }

    #[test]
    fn pool_answers_match_traversal_and_arc_masks_are_exact() {
        let g = graph();
        let mut rng = Rng::new(1, 0);
        let arcs = write_arcs(&g, 8, &mut rng);
        assert_eq!(arcs.len(), 8);
        let pool = PairPool::draw(&g, 500, 0..300, 0..300, &arcs, &mut rng);
        for (i, &(a, b)) in pool.pairs.iter().enumerate() {
            assert_eq!(
                pool.answers[i],
                tc_graph::traverse::reaches(&g, NodeId(a), NodeId(b))
            );
            for (j, &(u, v)) in arcs.iter().enumerate() {
                let mut h = g.clone();
                h.add_edge(NodeId(u), NodeId(v));
                let gained =
                    !pool.answers[i] && tc_graph::traverse::reaches(&h, NodeId(a), NodeId(b));
                assert_eq!(pool.arc_mask[i] >> j & 1 == 1, gained, "pair {i} arc {j}");
            }
        }
        assert!(pool.answers.iter().any(|&x| x) && pool.answers.iter().any(|&x| !x));
        assert!(
            pool.arc_mask.iter().any(|&m| m != 0),
            "some arc changes some answer"
        );
    }

    #[test]
    fn write_arcs_are_admissible_and_new() {
        let g = graph();
        for (u, v) in write_arcs(&g, 16, &mut Rng::new(3, 0)) {
            assert!(!g.has_edge(NodeId(u), NodeId(v)));
            assert!(!tc_graph::traverse::reaches(&g, NodeId(u), NodeId(v)));
            assert!(
                !tc_graph::traverse::reaches(&g, NodeId(v), NodeId(u)),
                "adding it keeps the graph acyclic"
            );
        }
    }

    #[test]
    fn lines_render_the_protocol() {
        let g = DiGraph::from_edges([(0, 1), (1, 2), (0, 10)]);
        let pool = PairPool {
            pairs: vec![(0, 2), (2, 0)],
            answers: vec![true, false],
            arc_mask: vec![],
        };
        assert_eq!(pool.reach_lines(), vec!["reaches n0 n2", "reaches n2 n0"]);
        assert_eq!(pool.batch_lines(2), vec!["reaches-batch n0 n2 n2 n0"]);
        assert_eq!(successors_line(&g, 0), "ok n0 n1 n10 n2");
        assert_ne!(fnv1a(b"ok n0"), fnv1a(b"ok n1"));
    }

    #[test]
    fn kb_stream_is_deterministic_and_downhill() {
        let shape = KbShape {
            layers: 4,
            width: 6,
            windows: 3,
            ops: 50,
            asks: 20,
            retract_pct: 20,
        };
        let a = kb_stream(shape, &mut Rng::new(9, 0));
        let b = kb_stream(shape, &mut Rng::new(9, 0));
        assert_eq!(
            a.iter().map(|w| &w.mutations).collect::<Vec<_>>(),
            b.iter().map(|w| &w.mutations).collect::<Vec<_>>()
        );
        let mut retracts = 0;
        for w in &a {
            assert_eq!((w.mutations.len(), w.asks.len()), (50, 20));
            for m in &w.mutations {
                let t: Vec<&str> = m.split(' ').collect();
                if t[0] == "retract" {
                    retracts += 1;
                    continue;
                }
                let layer = |s: &str| s[1..s.find('n').unwrap()].parse::<usize>().unwrap();
                assert!(layer(t[2]) > layer(t[3]), "{m} points downhill");
            }
            for q in &w.asks {
                let t: Vec<&str> = q.split(' ').collect();
                assert_ne!(t[2], t[3]);
            }
        }
        assert!(retracts > 0);
    }
}
