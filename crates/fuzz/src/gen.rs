//! Random op-sequence generation.
//!
//! The generator drives a real [`EngineState`] while it emits ops, so the
//! trace it returns is grounded in the exact states a replay will visit —
//! node ids in later ops always refer to nodes that exist (modulo the few
//! deliberately-invalid ops it mixes in), and refinement ops land on nodes
//! whose reserve tails are genuinely live. No checks run during generation
//! (that is the replay's job); a panic inside an op is swallowed and the
//! trace is returned truncated at the panicking op, so the caller's checked
//! replay rediscovers and attributes the crash.

use std::panic::{catch_unwind, AssertUnwindSafe};

use rand::rngs::StdRng;
use rand::seq::IndexedRandom;
use rand::{Rng, SeedableRng};

use crate::engine::EngineState;
use crate::ops::{FuzzConfig, Op, OpTrace};

/// Knobs for [`generate`].
#[derive(Debug, Clone, Copy)]
pub struct GenConfig {
    /// Number of ops to emit.
    pub ops: usize,
    /// RNG seed; same seed + same config = same trace.
    pub seed: u64,
    /// Mix `freeze`/`thaw` ops into the stream, so updates and oracle
    /// passes run against frozen query planes as well as mutable labels.
    /// Off by default to keep pre-existing seeds producing identical
    /// traces.
    pub freeze: bool,
    /// Mix `service-publish`/`service-query` ops into the stream, pinning
    /// serving-layer snapshots mid-churn and replaying queries against them
    /// later. Off by default for the same seed-stability reason.
    pub serve: bool,
    /// Skew the op mix toward `RemoveEdge`/`RemoveNode` interleaved with
    /// refines and relabels, so the deletion recompute paths (scoped and
    /// global) see as much churn as insertion does. Off by default for the
    /// same seed-stability reason.
    pub delete_bias: bool,
    /// Mix `paged-probe` ops into the stream, round-tripping the closure
    /// through the out-of-core `PLN2` format mid-churn and lockstep-
    /// comparing the paged answers. Off by default for the same
    /// seed-stability reason.
    pub paged: bool,
    /// The closure configuration the trace runs under.
    pub config: FuzzConfig,
}

impl Default for GenConfig {
    fn default() -> Self {
        GenConfig {
            ops: 256,
            seed: 0,
            freeze: false,
            serve: false,
            delete_bias: false,
            paged: false,
            config: FuzzConfig::default(),
        }
    }
}

/// Emits one random op given the current relation state. Kind weights skew
/// toward growth (a shrinking relation fuzzes nothing) with a steady diet
/// of deletions, relabels and rebuilds to exercise tombstone churn.
fn next_op(
    rng: &mut StdRng,
    state: &EngineState,
    config: &FuzzConfig,
    freeze: bool,
    serve: bool,
    delete_bias: bool,
    paged: bool,
) -> Op {
    let n = state.mirror.node_count() as u32;
    if n == 0 {
        return Op::AddNode { parents: vec![] };
    }
    let any = |rng: &mut StdRng| rng.random_range(0..n);
    // Each knob is guarded before any RNG draw so that with the knob off,
    // existing seeds keep producing byte-identical traces.
    if freeze && rng.random_range(0..8u32) == 0 {
        return if rng.random_bool(0.7) { Op::Freeze } else { Op::Thaw };
    }
    // Publishes outnumber queries: a query checks the *pinned* view, so the
    // interesting sequences re-pin often and query while churn diverges.
    if serve && rng.random_range(0..10u32) == 0 {
        return if rng.random_bool(0.6) { Op::ServicePublish } else { Op::ServiceQuery };
    }
    // Paged probes are a full round trip plus an exhaustive comparison, so
    // they stay rare — enough to catch a divergence, cheap enough to leave
    // the update mix dominant.
    if paged && rng.random_range(0..12u32) == 0 {
        return Op::PagedProbe;
    }
    // Half of all ops become deletion-flavoured: arc and node removals
    // salted with refines and relabels, which are exactly the ops that
    // interact with quarantined point labels and tombstone churn.
    if delete_bias && rng.random_range(0..2u32) == 0 {
        return match rng.random_range(0..10u32) {
            0..=5 => {
                let edges: Vec<(u32, u32)> =
                    state.mirror.edges().map(|(s, d)| (s.0, d.0)).collect();
                match edges.choose(rng) {
                    Some(&(src, dst)) => Op::RemoveEdge { src, dst },
                    None => Op::AddEdge { src: any(rng), dst: any(rng) },
                }
            }
            6 | 7 => Op::RemoveNode { node: any(rng) },
            8 => {
                if config.reserve > 0 {
                    Op::Refine { child: any(rng) }
                } else {
                    Op::RemoveNode { node: any(rng) }
                }
            }
            _ => Op::Relabel,
        };
    }
    match rng.random_range(0..100u32) {
        // Node additions: roots, single-parent leaves, multi-parent joins —
        // occasionally with duplicate parents to exercise the dedup path.
        0..=34 => {
            let count = match rng.random_range(0..10u32) {
                0 => 0,
                1..=6 => 1,
                7 | 8 => 2,
                _ => 3,
            };
            let mut parents: Vec<u32> = (0..count).map(|_| any(rng)).collect();
            if !parents.is_empty() && rng.random_bool(0.1) {
                parents.push(parents[0]);
            }
            Op::AddNode { parents }
        }
        // Non-tree arcs; the engine skips self-loops, duplicates and cycles.
        35..=59 => Op::AddEdge { src: any(rng), dst: any(rng) },
        // Deletions target real arcs when any exist (random endpoints almost
        // never hit one of the O(n) arcs in a sparse relation).
        60..=74 => {
            let edges: Vec<(u32, u32)> =
                state.mirror.edges().map(|(s, d)| (s.0, d.0)).collect();
            match edges.choose(rng) {
                Some(&(src, dst)) => Op::RemoveEdge { src, dst },
                None => Op::AddEdge { src: any(rng), dst: any(rng) },
            }
        }
        75..=81 => Op::RemoveNode { node: any(rng) },
        // Refinement: pointless without a reserve, so re-roll into an arc.
        82..=91 => {
            if config.reserve > 0 {
                Op::Refine { child: any(rng) }
            } else {
                Op::AddEdge { src: any(rng), dst: any(rng) }
            }
        }
        92..=94 => Op::Relabel,
        95 | 96 => Op::Rebuild,
        // Thread-count flips cover the serial and parallel code paths of
        // batch queries, relabels and rebuilds within a single trace.
        _ => Op::SetThreads { threads: *[0usize, 1, 2, 4].choose(rng).expect("non-empty") },
    }
}

/// Generates `cfg.ops` random ops by simulating them against a live engine.
/// If an op panics mid-generation the trace is returned truncated at that
/// op (replaying it reproduces the panic); if the configuration itself is
/// invalid the trace is returned with no ops.
pub fn generate(cfg: &GenConfig) -> OpTrace {
    let mut trace = OpTrace { config: cfg.config, ops: Vec::with_capacity(cfg.ops) };
    let Ok(mut state) = EngineState::new(&cfg.config) else {
        return trace;
    };
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    for _ in 0..cfg.ops {
        let op = next_op(
            &mut rng,
            &state,
            &cfg.config,
            cfg.freeze,
            cfg.serve,
            cfg.delete_bias,
            cfg.paged,
        );
        trace.ops.push(op.clone());
        let outcome = catch_unwind(AssertUnwindSafe(|| state.apply(&op)));
        match outcome {
            Ok(Ok(_)) => {}
            // An unexpected update error or a panic: stop here; the trace
            // ends at the offending op and the checked replay will classify
            // the failure.
            Ok(Err(_)) | Err(_) => break,
        }
    }
    trace
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{run_trace, CheckOptions};

    #[test]
    fn generation_is_deterministic() {
        let cfg = GenConfig { ops: 120, seed: 42, ..GenConfig::default() };
        assert_eq!(generate(&cfg), generate(&cfg));
        let other = GenConfig { seed: 43, ..cfg };
        assert_ne!(generate(&cfg), generate(&other));
    }

    #[test]
    fn generated_traces_mostly_apply() {
        let cfg = GenConfig {
            ops: 200,
            seed: 7,
            config: FuzzConfig {
                gap: 64,
                reserve: 4,
                merge: true,
                threads: 2,
                ..FuzzConfig::default()
            },
            ..GenConfig::default()
        };
        let trace = generate(&cfg);
        assert_eq!(trace.ops.len(), 200);
        let report = run_trace(&trace, &CheckOptions::default()).unwrap();
        // The generator grounds ops in real state, so the skip rate stays
        // low (duplicate arcs, cycle attempts, exhausted reserves).
        assert!(report.applied > 140, "only {} of 200 ops applied", report.applied);
        assert!(report.final_nodes > 20);
    }

    #[test]
    fn generated_traces_replay_from_text() {
        let cfg = GenConfig { ops: 80, seed: 11, ..GenConfig::default() };
        let trace = generate(&cfg);
        let reparsed = OpTrace::parse(&trace.to_text()).unwrap();
        assert_eq!(reparsed, trace);
        run_trace(&reparsed, &CheckOptions::default()).unwrap();
    }

    #[test]
    fn freeze_knob_mixes_in_freeze_ops_and_replays_clean() {
        let cfg = GenConfig {
            ops: 200,
            seed: 3,
            freeze: true,
            config: FuzzConfig { gap: 64, reserve: 4, ..FuzzConfig::default() },
            ..GenConfig::default()
        };
        let trace = generate(&cfg);
        let freezes = trace.ops.iter().filter(|op| matches!(op, Op::Freeze)).count();
        let thaws = trace.ops.iter().filter(|op| matches!(op, Op::Thaw)).count();
        assert!(freezes > 0, "no freeze ops in 200");
        assert!(thaws > 0, "no thaw ops in 200");
        run_trace(&trace, &CheckOptions::default()).unwrap();
        // The knob only adds ops; it never changes what off-knob seeds emit.
        let plain = generate(&GenConfig { freeze: false, ..cfg });
        assert!(plain.ops.iter().all(|op| !matches!(op, Op::Freeze | Op::Thaw)));
    }

    #[test]
    fn serve_knob_mixes_in_service_ops_and_replays_clean() {
        let cfg = GenConfig {
            ops: 200,
            seed: 5,
            serve: true,
            config: FuzzConfig { gap: 64, reserve: 4, ..FuzzConfig::default() },
            ..GenConfig::default()
        };
        let trace = generate(&cfg);
        let publishes = trace.ops.iter().filter(|op| matches!(op, Op::ServicePublish)).count();
        let queries = trace.ops.iter().filter(|op| matches!(op, Op::ServiceQuery)).count();
        assert!(publishes > 0, "no service-publish ops in 200");
        assert!(queries > 0, "no service-query ops in 200");
        run_trace(&trace, &CheckOptions::default()).unwrap();
        // The knob only adds ops; off-knob seeds are untouched.
        let plain = generate(&GenConfig { serve: false, ..cfg });
        assert!(plain.ops.iter().all(|op| !matches!(op, Op::ServicePublish | Op::ServiceQuery)));
    }

    #[test]
    fn paged_knob_mixes_in_paged_probes_and_replays_clean() {
        let cfg = GenConfig {
            ops: 200,
            seed: 13,
            paged: true,
            delete_bias: true, // tombstones + relocations feed the round trip
            config: FuzzConfig { gap: 64, reserve: 4, ..FuzzConfig::default() },
            ..GenConfig::default()
        };
        let trace = generate(&cfg);
        let probes = trace.ops.iter().filter(|op| matches!(op, Op::PagedProbe)).count();
        assert!(probes > 0, "no paged-probe ops in 200");
        run_trace(&trace, &CheckOptions::default()).unwrap();
        // The knob only adds ops; off-knob seeds are untouched.
        let plain = generate(&GenConfig { paged: false, ..cfg });
        assert!(plain.ops.iter().all(|op| !matches!(op, Op::PagedProbe)));
    }

    #[test]
    fn delete_bias_knob_skews_toward_removals_and_replays_clean() {
        let cfg = GenConfig {
            ops: 240,
            seed: 9,
            delete_bias: true,
            config: FuzzConfig { gap: 64, reserve: 4, ..FuzzConfig::default() },
            ..GenConfig::default()
        };
        let removals = |trace: &OpTrace| {
            trace
                .ops
                .iter()
                .filter(|op| matches!(op, Op::RemoveEdge { .. } | Op::RemoveNode { .. }))
                .count()
        };
        let biased = generate(&cfg);
        run_trace(&biased, &CheckOptions::default()).unwrap();
        let plain = generate(&GenConfig { delete_bias: false, ..cfg });
        run_trace(&plain, &CheckOptions::default()).unwrap();
        assert!(
            removals(&biased) > removals(&plain),
            "bias did not raise removal count: {} vs {}",
            removals(&biased),
            removals(&plain)
        );
        // Replaying the same biased seed through the global sweep must also
        // come out clean — the two deletion recomputes oracle each other.
        let global = OpTrace {
            config: FuzzConfig { scoped: false, ..biased.config },
            ops: biased.ops.clone(),
        };
        run_trace(&global, &CheckOptions::default()).unwrap();
    }

    #[test]
    fn hybrid_config_replays_clean_under_freeze_churn() {
        // Every freeze in these traces builds a hybrid plane; the per-step
        // audit and differential oracle cross-check it against the mutable
        // labels. Threshold 0 forces a bitset row on every node; threshold 2
        // mixes both representations in one plane.
        for hybrid in [0, 2] {
            let cfg = GenConfig {
                ops: 200,
                seed: 3,
                freeze: true,
                paged: true,
                config: FuzzConfig { gap: 64, reserve: 4, hybrid, ..FuzzConfig::default() },
                ..GenConfig::default()
            };
            let trace = generate(&cfg);
            assert!(trace.ops.iter().any(|op| matches!(op, Op::Freeze)));
            run_trace(&trace, &CheckOptions::default())
                .unwrap_or_else(|e| panic!("hybrid {hybrid}: {e}"));
            // The knob changes the closure config, never the op stream.
            let plain_cfg = GenConfig {
                config: FuzzConfig { hybrid: u64::MAX, ..cfg.config },
                ..cfg
            };
            assert_eq!(generate(&plain_cfg).ops, trace.ops);
        }
    }

    #[test]
    fn invalid_config_yields_empty_trace() {
        let cfg = GenConfig {
            ops: 10,
            seed: 0,
            config: FuzzConfig { gap: 1, reserve: 3, ..FuzzConfig::default() },
            ..GenConfig::default()
        };
        assert!(generate(&cfg).ops.is_empty());
    }
}
