//! `interval-tc` — command-line front end for the compressed transitive
//! closure.
//!
//! ```text
//! interval-tc info <graph>                  structural metrics (works on cyclic graphs)
//! interval-tc stats <graph>                 storage accounting vs baselines
//! interval-tc query <graph> <src> <dst>     reachability by interval lookup
//! interval-tc successors <graph> <node>     decode the reachable set
//! interval-tc predecessors <graph> <node>   who reaches <node>
//! interval-tc path <graph> <src> <dst>      one concrete path witness
//! interval-tc dot <graph>                   Graphviz with interval labels
//! interval-tc compress <graph> <out.itc>    persist the closure
//! interval-tc gen <nodes> <degree> [seed]   emit a random §3.3 edge list
//! interval-tc serve <graph> [flags]         concurrent snapshot-serving benchmark
//! interval-tc serve <graph> --listen ADDR   network daemon (line protocol, string keys)
//! interval-tc kb <script>                   run a knowledge-base command script
//! interval-tc fuzz [flags]                  differential update-churn fuzzing
//! ```
//!
//! `<graph>` is an edge-list file (`src dst` per line, `#` comments, `-`
//! for stdin) or a previously compressed `.itc` closure — the tool detects
//! which by content.
//!
//! A global `--threads N` flag (any position) splits the batch reads —
//! `stats`' per-node decodes and batched reachability probes — across `N`
//! worker threads (`0` = one per CPU); construction always runs the serial
//! sweeps, and every answer is identical at any count. A global
//! `--frozen` flag freezes a read-optimized query plane after loading, so
//! every query answers from the immutable snapshot (see DESIGN.md, "Frozen
//! query plane"). A global `--paged N` flag makes those freezes out-of-core:
//! the plane streams to disk and queries page it through an `N`-frame
//! buffer pool, answering bit-identically to the resident plane. A global
//! `--hybrid T` flag arms the hybrid oracle: frozen planes carry
//! negative-cutoff labels and switch any row with more than `T` merged
//! intervals to a bitset representation (see DESIGN.md, "Hybrid oracle").

#![forbid(unsafe_code)]

use std::io::Read;
use std::process::ExitCode;

use tc_baselines::{FullClosure, ReachMatrix, ReachabilityIndex};
use tc_core::{ClosureConfig, CompressedClosure, ShardedClosure};
use tc_graph::{edgelist, generators, NodeId};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  interval-tc info <graph>
  interval-tc stats <graph>
  interval-tc query <graph> <src> <dst>
  interval-tc successors <graph> <node>
  interval-tc predecessors <graph> <node>
  interval-tc path <graph> <src> <dst>
  interval-tc dot <graph>
  interval-tc compress <graph> <out.itc>
  interval-tc gen <nodes> <degree> [seed]
  interval-tc serve <graph> [--readers N] [--duration-ms D] [--churn]
  interval-tc serve <graph> --listen ADDR
  interval-tc kb <script> [--check]
  interval-tc fuzz [--ops N] [--seed S] [--seeds K] [--gap G] [--reserve R]
                   [--merge] [--freeze] [--serve] [--delete-bias] [--shrink]
                   [--codec] [--kb] [--out FILE] [--replay FILE]

global flags: --threads N   batch reads on N worker threads (0 = one per CPU)
              --frozen      freeze the query plane after loading; all queries
                            answer from the immutable snapshot
              --scoped-deletes <on|off>
                            on (default): deletions recompute only the
                            affected region; off: historical global sweep
                            (same answers, kept as a cross-check oracle)
              --shards N    partition the DAG into N shards (weak components,
                            level-cut fallback) with one closure and one
                            writer per shard; serve scatter-gathers across
                            shards (default 1) and fuzz replays every trace
                            through the sharded service in lockstep (fuzz
                            default: unsharded)
              --paged N     freeze query planes out-of-core: the frozen plane
                            streams to a temp file and queries page it through
                            an N-frame buffer pool instead of holding it
                            resident (answers are bit-identical); compress
                            appends a PLN2 plane section for instant restart
                            via open_paged, and fuzz mixes paged-probe round
                            trips into the op stream
              --hybrid T    arm the hybrid oracle for frozen planes: rows with
                            more than T merged intervals freeze as bitsets and
                            every reaches probe consults negative-cutoff
                            labels first (answers are bit-identical); with
                            --paged the bitset overlay rides the plane file as
                            a resident HYB1 section
<graph> = edge-list file ('src dst' lines, '-' for stdin) or a .itc closure

serve: spins up the sharded serving layer (--shards pieces, default 1;
lock-free snapshot readers, one background writer per shard behind a
validating front end), spot-checks reader answers against the closure,
then measures reader throughput for --duration-ms (default 1000) on
--readers threads (default 2); --churn keeps the writers busy with mixed
add/remove update batches meanwhile and reports publish counts and
staleness. With --listen ADDR the same machinery is exposed as a TCP
daemon speaking a line protocol with string node keys (n0, n1, ... for
the initial graph): reads answer from lock-free snapshots, writes go
through the batched background writers, and a client's `shutdown` verb
stops the daemon. Both forms build every shard with the loaded closure's
config, so an .itc footer's threads and hybrid threshold carry over.

fuzz: random update sequences against the closure, each applied op followed
by a structural audit and periodically cross-checked against a brute-force
DFS oracle and the chain-decomposition baseline. --seeds K runs K
consecutive seeds starting at --seed. On failure --shrink minimizes the
sequence and prints (or --out writes) a replayable trace; --replay runs a
previously saved trace instead of generating. --freeze mixes freeze/thaw ops
into the stream so audits and oracles also run against frozen query planes
(combine with the global --hybrid T to run every frozen plane, and its
paged image, through the hybrid oracle on the same seeds);
--serve mixes service-publish/service-query ops that pin serving-layer
snapshots mid-churn and later check them against the publish-time relation;
--delete-bias skews the op mix toward arc/node removals interleaved with
refines and relabels (combine with --scoped-deletes off to exercise the
global-sweep oracle on the same seeds). --codec switches to byte-mutation
mode: --seeds K corrupted .itc streams (bit flips, truncation, length-field
sabotage, half with re-signed trailers) are fed to the decoder, which must
reject each with a structured error — any panic fails the run; the same
seeds then corrupt a paged (ITC1 + PLN2) image opened and probed through a
2-frame buffer pool, and a serialized ITCK taxonomy (interior ITC1 trailer
re-signed so corruption reaches the name table), under the same zero-panic
rule. --kb switches to knowledge-base differential mode: --seeds K seeded
campaigns of random rule-driven assert/retract/feature churn, each
checkpointed against a from-scratch naive re-derivation of the whole model
— any divergence fails the run with the offending seed and step.

kb: executes a knowledge-base command script (one command per line, '#'
comments, '-' for stdin) against a fresh in-process knowledge base and
prints each command's answer; see DESIGN.md for the command set (rule,
assert, retract, ask, below, feature, set-prop, get-prop, check, stats).
--check additionally runs the naive-re-derivation differential gate after
the script, failing if the incrementally maintained closure diverges.";

/// Global flags stripped from anywhere in the argument list.
#[derive(Clone, Copy)]
struct Globals {
    /// Worker threads for batch reads ([`ClosureConfig::threads`]); `None`
    /// (flag absent) means one for fresh builds but leaves the thread count
    /// a deserialized closure carries in its config footer untouched.
    threads: Option<usize>,
    /// Freeze a query plane right after loading.
    frozen: bool,
    /// Override for [`tc_core::ClosureConfig::scoped_deletes`]; `None`
    /// keeps the default (or, for `.itc` input, whatever the builder chose).
    scoped: Option<bool>,
    /// Shard count for `serve` and `fuzz`; `None` means one shard for
    /// `serve` and the unsharded engine for `fuzz`.
    shards: Option<usize>,
    /// Buffer-pool size (in pages) for out-of-core frozen planes; `None`
    /// keeps freezes fully resident.
    paged: Option<usize>,
    /// Hybrid-oracle threshold: frozen rows with more merged intervals than
    /// this switch to bitsets and every probe consults negative-cutoff
    /// labels first; `None` keeps planes pure-interval.
    hybrid: Option<usize>,
}

impl Globals {
    /// The thread count for code paths that need a concrete number.
    fn threads_or_serial(&self) -> usize {
        self.threads.unwrap_or(1)
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let (args, globals) = extract_globals(args)?;
    let cmd = args.first().ok_or("missing command")?;
    match cmd.as_str() {
        "info" => info(arg(&args, 1)?),
        "stats" => stats(arg(&args, 1)?, globals),
        "query" => query(arg(&args, 1)?, arg(&args, 2)?, arg(&args, 3)?, globals),
        "successors" => neighbors(arg(&args, 1)?, arg(&args, 2)?, true, globals),
        "predecessors" => neighbors(arg(&args, 1)?, arg(&args, 2)?, false, globals),
        "path" => path(arg(&args, 1)?, arg(&args, 2)?, arg(&args, 3)?, globals),
        "dot" => dot(arg(&args, 1)?, globals),
        "compress" => compress(arg(&args, 1)?, arg(&args, 2)?, globals),
        "gen" => gen(&args),
        "serve" => serve(&args, globals),
        "kb" => kb(&args),
        "fuzz" => fuzz(&args, globals),
        other => Err(format!("unknown command {other:?}")),
    }
}

/// Strips the global flags (`--threads N`, `--frozen`,
/// `--scoped-deletes on|off`, `--shards N`, `--paged N`, `--hybrid T`)
/// from anywhere in the argument list. Absent, the tool stays serial,
/// unfrozen, scoped, unsharded, fully resident and pure-interval.
fn extract_globals(args: &[String]) -> Result<(Vec<String>, Globals), String> {
    let mut rest = Vec::with_capacity(args.len());
    let mut globals = Globals {
        threads: None,
        frozen: false,
        scoped: None,
        shards: None,
        paged: None,
        hybrid: None,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--threads" {
            let v = it.next().ok_or("--threads requires a value")?;
            globals.threads = Some(
                v.parse()
                    .map_err(|_| format!("invalid thread count {v:?}"))?,
            );
        } else if a == "--frozen" {
            globals.frozen = true;
        } else if a == "--scoped-deletes" || a.starts_with("--scoped-deletes=") {
            let v = match a.strip_prefix("--scoped-deletes=") {
                Some(v) => v.to_string(),
                None => it
                    .next()
                    .ok_or("--scoped-deletes requires on|off")?
                    .clone(),
            };
            globals.scoped = Some(match v.as_str() {
                "on" => true,
                "off" => false,
                other => {
                    return Err(format!("invalid --scoped-deletes value {other:?} (want on|off)"))
                }
            });
        } else if a == "--shards" || a.starts_with("--shards=") {
            let v = match a.strip_prefix("--shards=") {
                Some(v) => v.to_string(),
                None => it.next().ok_or("--shards requires a value")?.clone(),
            };
            let shards: usize = v
                .parse()
                .map_err(|_| format!("invalid --shards value {v:?}"))?;
            if shards == 0 {
                return Err("--shards must be at least 1".into());
            }
            globals.shards = Some(shards);
        } else if a == "--paged" || a.starts_with("--paged=") {
            let v = match a.strip_prefix("--paged=") {
                Some(v) => v.to_string(),
                None => it.next().ok_or("--paged requires a value")?.clone(),
            };
            let pages: usize = v
                .parse()
                .map_err(|_| format!("invalid --paged value {v:?}"))?;
            if pages == 0 {
                return Err("--paged must be at least 1 buffer-pool page".into());
            }
            globals.paged = Some(pages);
        } else if a == "--hybrid" || a.starts_with("--hybrid=") {
            let v = match a.strip_prefix("--hybrid=") {
                Some(v) => v.to_string(),
                None => it.next().ok_or("--hybrid requires a value")?.clone(),
            };
            let threshold: usize = v
                .parse()
                .map_err(|_| format!("invalid --hybrid value {v:?}"))?;
            globals.hybrid = Some(threshold);
        } else {
            rest.push(a.clone());
        }
    }
    Ok((rest, globals))
}

fn arg(args: &[String], ix: usize) -> Result<&str, String> {
    args.get(ix)
        .map(String::as_str)
        .ok_or_else(|| format!("missing argument #{ix}"))
}

fn read_input(path: &str) -> Result<Vec<u8>, String> {
    if path == "-" {
        let mut buf = Vec::new();
        std::io::stdin()
            .read_to_end(&mut buf)
            .map_err(|e| format!("reading stdin: {e}"))?;
        Ok(buf)
    } else {
        std::fs::read(path).map_err(|e| format!("reading {path}: {e}"))
    }
}

/// Loads either a serialized closure or an edge list (building the closure),
/// with subsequent batch reads on `globals.threads` workers;
/// `--frozen` snapshots a query plane before any query runs.
fn load(path: &str, globals: Globals) -> Result<CompressedClosure, String> {
    let data = read_input(path)?;
    let mut closure = if data.starts_with(b"ITC1") {
        // `from_bytes_auto` also accepts `save_paged` images, skipping the
        // trailing plane section.
        let mut closure =
            CompressedClosure::from_bytes_auto(&data).map_err(|e| e.to_string())?;
        // An explicit --threads overrides the stream's config footer; absent,
        // the closure keeps the thread count it was saved with.
        if let Some(threads) = globals.threads {
            closure.set_threads(threads);
        }
        closure
    } else {
        let text =
            String::from_utf8(data).map_err(|_| "input is neither a closure nor UTF-8 text")?;
        let graph = edgelist::parse(&text).map_err(|e| e.to_string())?;
        ClosureConfig::new()
            .threads(globals.threads_or_serial())
            .build(&graph)
            .map_err(|e| e.to_string())?
    };
    if let Some(scoped) = globals.scoped {
        closure.set_scoped_deletes(scoped);
    }
    if let Some(pool) = globals.paged {
        // Routes the next freeze (including the --frozen one below, and the
        // serving layer's snapshot freezes) through an out-of-core plane
        // paged on a `pool`-frame buffer pool.
        closure.set_paged_pool(pool);
    }
    if let Some(threshold) = globals.hybrid {
        closure.set_hybrid_threshold(threshold);
    }
    if globals.frozen {
        closure.freeze();
    }
    Ok(closure)
}

fn parse_node(c: &CompressedClosure, s: &str) -> Result<NodeId, String> {
    let id: u32 = s.parse().map_err(|_| format!("invalid node id {s:?}"))?;
    if (id as usize) < c.node_count() {
        Ok(NodeId(id))
    } else {
        Err(format!("node {id} out of range (graph has {} nodes)", c.node_count()))
    }
}

fn info(path: &str) -> Result<(), String> {
    // `info` accepts cyclic graphs (it reports on the relation itself, not
    // the closure), so it parses the edge list directly.
    let data = read_input(path)?;
    let graph = if data.starts_with(b"ITC1") {
        CompressedClosure::from_bytes(&data)
            .map_err(|e| e.to_string())?
            .graph()
            .clone()
    } else {
        let text =
            String::from_utf8(data).map_err(|_| "input is neither a closure nor UTF-8 text")?;
        edgelist::parse(&text).map_err(|e| e.to_string())?
    };
    println!("{}", tc_graph::metrics::GraphMetrics::compute(&graph));
    Ok(())
}

fn stats(path: &str, globals: Globals) -> Result<(), String> {
    let closure = load(path, globals)?;
    let s = closure.stats();
    println!("nodes                 {}", s.nodes);
    println!("relation arcs         {}", s.graph_arcs);
    println!("closure pairs         {}", s.closure_size);
    println!("tree intervals        {}", s.tree_intervals);
    println!("non-tree intervals    {}", s.non_tree_intervals);
    let mut counts = closure.merged_interval_counts();
    counts.sort_unstable();
    if let Some(&max) = counts.last() {
        // The frozen plane stores rows post-merge, so this histogram — not
        // the raw set sizes above — is what the hybrid row-selection rule
        // sees (DESIGN.md, "Hybrid oracle").
        let pct = |p: f64| counts[((counts.len() - 1) as f64 * p) as usize];
        println!(
            "merged intervals/row  p50 {}  p95 {}  max {}",
            pct(0.50),
            pct(0.95),
            max
        );
        match closure.hybrid_threshold() {
            usize::MAX => println!("hybrid threshold      off (arm with --hybrid T)"),
            t => {
                let over = counts.iter().filter(|&&c| c > t).count();
                println!(
                    "hybrid threshold      {t}  ({over} of {} rows freeze as bitsets)",
                    counts.len()
                );
            }
        }
    }
    println!("compressed units      {}  ({:.2}x relation, {:.2}x closure)",
        s.compressed_units(), s.compressed_ratio(), 1.0 / s.compression_factor());
    let pooled = tc_core::pooled::PooledClosure::from_closure(&closure);
    println!(
        "pooled-range units    {}  ({} distinct ranges, {} refs)",
        pooled.storage_units(),
        pooled.pool_size(),
        pooled.ref_count()
    );
    println!("serialized bytes      {}", closure.to_bytes().len());
    let full = FullClosure::build(closure.graph());
    let matrix = ReachMatrix::build(closure.graph());
    println!("full closure units    {}", full.storage_units());
    println!("bit-matrix units      {} (u64 words)", matrix.storage_units());
    Ok(())
}

fn query(path: &str, src: &str, dst: &str, globals: Globals) -> Result<(), String> {
    let closure = load(path, globals)?;
    let s = parse_node(&closure, src)?;
    let d = parse_node(&closure, dst)?;
    let reachable = closure.reaches(s, d);
    println!("{s} ->* {d}: {reachable}");
    if !reachable {
        return Err(format!("no path from {s} to {d}"));
    }
    Ok(())
}

fn neighbors(path: &str, node: &str, forward: bool, globals: Globals) -> Result<(), String> {
    let closure = load(path, globals)?;
    let n = parse_node(&closure, node)?;
    let mut set = if forward {
        closure.successors(n)
    } else {
        closure.predecessors(n)
    };
    set.sort_unstable();
    for v in set {
        println!("{v}");
    }
    Ok(())
}

fn path(input: &str, src: &str, dst: &str, globals: Globals) -> Result<(), String> {
    let closure = load(input, globals)?;
    let s = parse_node(&closure, src)?;
    let d = parse_node(&closure, dst)?;
    match closure.find_path(s, d) {
        Some(route) => {
            let text: Vec<String> = route.iter().map(|n| n.to_string()).collect();
            println!("{}", text.join(" -> "));
            Ok(())
        }
        None => Err(format!("no path from {s} to {d}")),
    }
}

fn dot(path: &str, globals: Globals) -> Result<(), String> {
    let closure = load(path, globals)?;
    print!("{}", closure.to_dot());
    Ok(())
}

fn compress(path: &str, out: &str, globals: Globals) -> Result<(), String> {
    let closure = load(path, globals)?;
    // With --paged the image additionally carries a PLN2 plane section, so
    // `open_paged` restarts in O(directory) instead of re-freezing.
    let paged = globals.paged.is_some();
    let bytes = if paged { closure.to_paged_bytes() } else { closure.to_bytes() };
    std::fs::write(out, &bytes).map_err(|e| format!("writing {out}: {e}"))?;
    let s = closure.stats();
    eprintln!(
        "wrote {out}: {} nodes, {} arcs, {} closure pairs in {} bytes{}",
        s.nodes,
        s.graph_arcs,
        s.closure_size,
        bytes.len(),
        if paged { " (with plane section for instant restart)" } else { "" }
    );
    Ok(())
}

/// Runs the sharded serving layer: partitions the DAG into `--shards`
/// pieces (default 1), verifies the composed answers and the service
/// snapshots against the unsharded closure, then measures scatter-gather
/// reader throughput (optionally while churn fans out to the per-shard
/// writers) and reports front-end, writer and publish stats.
fn serve(args: &[String], globals: Globals) -> Result<(), String> {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::{Duration, Instant};
    use tc_core::{ServiceConfig, ServiceOp, ShardedService};

    let path = arg(args, 1)?;
    let mut readers = 2usize;
    let mut duration_ms = 1000u64;
    let mut churn = false;
    let mut it = args.iter().skip(2);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--readers" => {
                let v = it.next().ok_or("--readers requires a value")?;
                readers = v.parse().map_err(|_| "invalid --readers")?;
                if readers == 0 {
                    return Err("--readers must be at least 1".into());
                }
            }
            "--duration-ms" => {
                let v = it.next().ok_or("--duration-ms requires a value")?;
                duration_ms = v.parse().map_err(|_| "invalid --duration-ms")?;
            }
            "--churn" => churn = true,
            "--listen" => {
                let addr = it.next().ok_or("--listen requires an address")?;
                return serve_listen(path, addr, globals);
            }
            other => return Err(format!("unknown serve flag {other:?}")),
        }
    }

    let (closure, sharded) = load_sharded(path, globals)?;
    let n = closure.node_count();
    let pairs: Vec<(NodeId, NodeId)> = (0..(4 * n).min(4096) as u64)
        .map(|k| {
            let s = (k.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize % n;
            let d = (k.wrapping_mul(0xC2B2_AE3D_27D4_EB4F) >> 32) as usize % n;
            (NodeId(s as u32), NodeId(d as u32))
        })
        .collect();
    let want = closure.reaches_batch(&pairs);
    if sharded.reaches_batch(&pairs) != want {
        return Err("sharded answers diverge from the unsharded closure".into());
    }
    let shards = sharded.shard_count();
    println!(
        "sharded {n} nodes into {shards} shard{} (sizes {:?}, {} cross arcs, boundary {}): \
         {} probe pairs verified against the unsharded closure",
        if shards == 1 { "" } else { "s" },
        sharded.shard_sizes(),
        sharded.cross_arc_count(),
        sharded.boundary_size(),
        pairs.len()
    );

    let service = ShardedService::start(sharded, ServiceConfig::new());
    let mut reader = service.reader();
    if reader.reaches_batch(&pairs) != want {
        return Err("service snapshot answers diverge from the closure".into());
    }
    println!("service snapshots: {} probe pairs verified against the closure", pairs.len());

    let stop = AtomicBool::new(false);
    let (per_reader, panicked) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..readers)
            .map(|_| {
                let mut r = service.reader();
                let (stop, pairs) = (&stop, &pairs);
                scope.spawn(move || {
                    let mut out = Vec::new();
                    let mut probes = 0u64;
                    let mut max_stale = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        r.reaches_batch_into(pairs, &mut out);
                        probes += pairs.len() as u64;
                        max_stale = max_stale.max(r.staleness());
                    }
                    (probes, max_stale)
                })
            })
            .collect();
        let deadline = Instant::now() + Duration::from_millis(duration_ms);
        let mut k = 0u64;
        while Instant::now() < deadline {
            if churn {
                let batch: Vec<ServiceOp> = (0..64)
                    .map(|i| {
                        let node = NodeId(((k + i) % n as u64) as u32);
                        let other = NodeId(((k + i + 7) % n as u64) as u32);
                        // Any of these may be rejected (cycle, duplicate,
                        // missing arc) — that is part of the churn the
                        // front end must absorb.
                        match (k + i) % 4 {
                            0 => ServiceOp::AddNode { parents: vec![node] },
                            1 | 2 => ServiceOp::AddEdge { src: node, dst: other },
                            _ => {
                                if (k + i) % 8 == 3 {
                                    ServiceOp::RemoveNode { node }
                                } else {
                                    ServiceOp::RemoveEdge { src: node, dst: other }
                                }
                            }
                        }
                    })
                    .collect();
                k += 64;
                service.submit_batch(batch).expect("service closed while harness submits");
                service.flush();
            } else {
                std::thread::sleep(Duration::from_millis(5));
            }
        }
        stop.store(true, Ordering::Relaxed);
        join_readers(handles)
    });
    if !panicked.is_empty() {
        return Err(format!(
            "reader thread(s) {panicked:?} panicked during serving \
             ({} of {readers} readers survived)",
            per_reader.len()
        ));
    }

    let total: u64 = per_reader.iter().map(|&(p, _)| p).sum();
    let max_stale = per_reader.iter().map(|&(_, s)| s).max().unwrap_or(0);
    let secs = duration_ms as f64 / 1000.0;
    println!(
        "readers {readers}: {total} probes in {secs:.2}s  ({:.0} probes/s, {:.0} per reader)",
        total as f64 / secs,
        total as f64 / secs / readers as f64
    );
    let (stats, sc) = service.shutdown();
    println!(
        "front end: {} ops submitted, {} rejected, {} routed; shard writers: \
         {} applied, {} skipped; {} snapshots published, max observed staleness \
         {max_stale} ops",
        stats.submitted, stats.rejected, stats.routed, stats.applied, stats.skipped,
        stats.publishes
    );
    if let Some(v) = stats.audit_violation {
        return Err(format!("shard audit failed during serving: {v}"));
    }
    sc.audit()
        .map_err(|e| format!("sharded closure audit failed after shutdown: {e}"))?;
    Ok(())
}

/// Loads `path` for serving and partitions it into `--shards` pieces
/// (default 1). Every shard is built with the loaded closure's own config:
/// `load` has already merged the global flags over an `.itc` footer's, so
/// armed hybrid rows, the thread count, gap and reserve reach the served
/// planes.
fn load_sharded(path: &str, globals: Globals) -> Result<(CompressedClosure, ShardedClosure), String> {
    let closure = load(path, globals)?;
    if closure.node_count() == 0 {
        return Err("empty graph: nothing to serve".into());
    }
    let shards = globals.shards.unwrap_or(1);
    let sharded = ShardedClosure::build(*closure.config(), closure.graph(), shards)
        .map_err(|e| e.to_string())?;
    println!("shard config {:?}", sharded.config());
    Ok((closure, sharded))
}

/// Joins the benchmark's reader threads one by one, collecting the indices
/// of any that panicked instead of propagating the first panic — one
/// poisoned reader must not hide the fate of the others or leave the user
/// guessing which thread died.
fn join_readers<'scope>(
    handles: Vec<std::thread::ScopedJoinHandle<'scope, (u64, u64)>>,
) -> (Vec<(u64, u64)>, Vec<usize>) {
    let mut results = Vec::with_capacity(handles.len());
    let mut panicked = Vec::new();
    for (ix, h) in handles.into_iter().enumerate() {
        match h.join() {
            Ok(r) => results.push(r),
            Err(_) => panicked.push(ix),
        }
    }
    (results, panicked)
}

/// `serve --listen ADDR`: run the network daemon instead of the in-process
/// benchmark. Nodes are addressed by string key (`n0`, `n1`, ... for the
/// initial graph); the daemon serves the line protocol until a client sends
/// the `shutdown` verb.
fn serve_listen(path: &str, addr: &str, globals: Globals) -> Result<(), String> {
    use tc_server::{Dict, Engine, EngineConfig, Server, ServerConfig};

    let (_, sharded) = load_sharded(path, globals)?;
    let (n, shards) = (sharded.node_count(), sharded.shard_count());
    let engine = Engine::start(sharded, Dict::with_default_keys(n), EngineConfig::default());
    let server = Server::start(engine, addr, ServerConfig::default())
        .map_err(|e| format!("binding {addr}: {e}"))?;
    println!("serving {n} nodes ({shards} shard(s)) on {}", server.addr());
    println!("one request per line; try `ping`, `reaches n0 n1`, `stats`, `shutdown`");

    // Block until some client sends `shutdown` (which closes the engine);
    // the accept loop notices the closed engine and exits on its own.
    while !server.engine().is_closed() {
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    let requests = server.requests();
    let panics = server.caught_panics();
    server
        .stop()
        .map_err(|e| format!("daemon shutdown: {e} ({requests} requests served)"))?;
    println!("shutdown: {requests} requests served, {panics} handler panic(s) caught");
    if panics > 0 {
        return Err(format!(
            "{panics} request handler(s) panicked (each answered with `err internal`)"
        ));
    }
    Ok(())
}

/// `kb <script> [--check]`: drive a fresh knowledge base through a command
/// script, echoing each command's answer. Command failures abort with the
/// offending line number; `--check` runs the naive-re-derivation
/// differential gate after the script.
fn kb(args: &[String]) -> Result<(), String> {
    use tc_kb::{KbCommand, KnowledgeBase};

    let path = arg(args, 1)?;
    let mut check = false;
    for flag in &args[2..] {
        match flag.as_str() {
            "--check" => check = true,
            other => return Err(format!("unknown kb flag {other:?}")),
        }
    }
    let text =
        String::from_utf8(read_input(path)?).map_err(|_| format!("{path} is not UTF-8"))?;
    let mut kb = KnowledgeBase::new();
    for (ix, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let answer = KbCommand::parse(line)
            .and_then(|cmd| cmd.execute(&mut kb))
            .map_err(|e| format!("{path}:{}: {line}: {e}", ix + 1))?;
        println!("{line} => {answer}");
    }
    if check {
        kb.check_against_naive()
            .map_err(|e| format!("differential check failed: {e}"))?;
        let s = kb.stats();
        println!(
            "check => consistent ({} concepts, {} asserted, {} derived, {} cycle-rejected, \
             {} derive-failed)",
            kb.concept_count(),
            s.asserted,
            s.derived,
            s.cycle_rejected,
            s.derive_failed
        );
    }
    Ok(())
}

fn fuzz(args: &[String], globals: Globals) -> Result<(), String> {
    let mut ops = 256usize;
    let mut seed = 0u64;
    let mut seeds = 1u64;
    let mut config = tc_fuzz::FuzzConfig {
        threads: globals.threads_or_serial(),
        scoped: globals.scoped.unwrap_or(true),
        // The global --hybrid flag arms the hybrid oracle in every freeze
        // the trace performs (combine with --freeze); the op stream itself
        // is unaffected, so seeds reproduce across thresholds.
        hybrid: globals.hybrid.map_or(u64::MAX, |t| t as u64),
        ..tc_fuzz::FuzzConfig::default()
    };
    let mut freeze = false;
    let mut serve = false;
    let mut delete_bias = false;
    let mut want_shrink = false;
    let mut codec = false;
    let mut kb_mode = false;
    // The global --paged flag doubles as the gen knob here: it mixes
    // paged-probe ops (full round trips through an eviction-forcing pool)
    // into the stream. The engine picks its own tiny pool, so the page
    // count itself is irrelevant to fuzzing.
    let paged = globals.paged.is_some();
    let mut out: Option<String> = None;
    let mut replay: Option<String> = None;

    let mut it = args.iter().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> Result<&String, String> {
            it.next().ok_or_else(|| format!("{name} requires a value"))
        };
        match flag.as_str() {
            "--ops" => ops = value("--ops")?.parse().map_err(|_| "invalid --ops")?,
            "--seed" => seed = value("--seed")?.parse().map_err(|_| "invalid --seed")?,
            "--seeds" => seeds = value("--seeds")?.parse().map_err(|_| "invalid --seeds")?,
            "--gap" => config.gap = value("--gap")?.parse().map_err(|_| "invalid --gap")?,
            "--reserve" => {
                config.reserve = value("--reserve")?.parse().map_err(|_| "invalid --reserve")?
            }
            "--merge" => config.merge = true,
            "--freeze" => freeze = true,
            "--serve" => serve = true,
            "--delete-bias" => delete_bias = true,
            "--shrink" => want_shrink = true,
            "--codec" => codec = true,
            "--kb" => kb_mode = true,
            "--out" => out = Some(value("--out")?.clone()),
            "--replay" => replay = Some(value("--replay")?.clone()),
            other => return Err(format!("unknown fuzz flag {other:?}")),
        }
    }
    let opts = tc_fuzz::CheckOptions {
        shards: globals.shards.unwrap_or(1),
        ..tc_fuzz::CheckOptions::default()
    };

    if codec {
        // Mutation mode: corrupt serialized closure streams instead of
        // churning update ops; `--seeds` counts mutated cases here. The
        // same seeds then mutate a save_paged image (ITC1 + PLN2 plane
        // section) probed through a 2-frame pool.
        let report = tc_fuzz::closure_campaign(seeds.max(1), seed);
        println!(
            "codec mutation campaign: {} cases — {} rejected, {} ok+verified, \
             {} ok-but-corrupt (re-signed trailers), {} panics",
            report.cases, report.rejected, report.ok_clean, report.ok_corrupt, report.panics
        );
        if report.failed() {
            return Err(format!(
                "decoder panicked on {} case(s); replay seeds {:?}",
                report.panics, report.panic_seeds
            ));
        }
        let report = tc_fuzz::paged_campaign(seeds.max(1), seed);
        println!(
            "paged-plane mutation campaign: {} cases — {} rejected, {} ok+verified, \
             {} ok-but-corrupt (re-signed headers), {} panics",
            report.cases, report.rejected, report.ok_clean, report.ok_corrupt, report.panics
        );
        if report.failed() {
            return Err(format!(
                "paged open/probe panicked on {} case(s); replay seeds {:?}",
                report.panics, report.panic_seeds
            ));
        }
        let report = tc_fuzz::taxonomy_campaign(seeds.max(1), seed);
        println!(
            "taxonomy (ITCK) mutation campaign: {} cases — {} rejected, {} ok+verified, \
             {} ok-but-corrupt (re-signed interior trailers), {} panics",
            report.cases, report.rejected, report.ok_clean, report.ok_corrupt, report.panics
        );
        if report.failed() {
            return Err(format!(
                "taxonomy decoder panicked on {} case(s); replay seeds {:?}",
                report.panics, report.panic_seeds
            ));
        }
        return Ok(());
    }

    if kb_mode {
        // Knowledge-base differential mode: seeded campaigns of rule-driven
        // assert/retract/feature churn, each checkpointed against a naive
        // from-scratch re-derivation; `--ops` sets the steps per campaign.
        for s in seed..seed.saturating_add(seeds.max(1)) {
            let report = tc_fuzz::run_kb_campaign(&tc_fuzz::KbFuzzConfig {
                steps: ops as u64,
                seed: s,
                ..tc_fuzz::KbFuzzConfig::default()
            })?;
            println!(
                "kb seed {s}: ok — {} asserts, {} retracts, {} features, {} derived arcs, \
                 {} differential checkpoints",
                report.asserts, report.retracts, report.features, report.derived, report.checks
            );
        }
        return Ok(());
    }

    if let Some(path) = replay {
        let text = String::from_utf8(read_input(&path)?)
            .map_err(|_| format!("{path} is not UTF-8"))?;
        let trace = tc_fuzz::OpTrace::parse(&text)?;
        return match tc_fuzz::run_trace_catching(&trace, &opts) {
            Ok(r) => {
                println!(
                    "replay {path}: ok — {} applied, {} skipped, {} oracle checks, \
                     {} nodes / {} arcs at end",
                    r.applied, r.skipped, r.oracle_checks, r.final_nodes, r.final_edges
                );
                Ok(())
            }
            Err(v) => Err(format!("replay {path}: {v}")),
        };
    }

    for s in seed..seed.saturating_add(seeds) {
        let gcfg = tc_fuzz::GenConfig { ops, seed: s, freeze, serve, delete_bias, paged, config };
        let trace = tc_fuzz::generate(&gcfg);
        match tc_fuzz::run_trace_catching(&trace, &opts) {
            Ok(r) => println!(
                "seed {s}: ok — {} applied, {} skipped, {} oracle checks, \
                 {} nodes / {} arcs at end",
                r.applied, r.skipped, r.oracle_checks, r.final_nodes, r.final_edges
            ),
            Err(v) => {
                eprintln!("seed {s}: FAILED — {v}");
                if want_shrink {
                    // Candidate replays of a crashing trace panic on
                    // purpose; keep stderr readable while minimizing.
                    let prev = std::panic::take_hook();
                    std::panic::set_hook(Box::new(|_| {}));
                    let shrunk = tc_fuzz::shrink(&trace, &opts);
                    std::panic::set_hook(prev);
                    let text = shrunk.trace.to_text();
                    eprintln!(
                        "shrunk to {} ops in {} replays; reproducer:",
                        shrunk.trace.ops.len(),
                        shrunk.attempts
                    );
                    print!("{text}");
                    if let Some(path) = &out {
                        std::fs::write(path, &text)
                            .map_err(|e| format!("writing {path}: {e}"))?;
                        eprintln!("reproducer written to {path}");
                    }
                }
                return Err(format!("fuzzing failed at seed {s}"));
            }
        }
    }
    Ok(())
}

fn gen(args: &[String]) -> Result<(), String> {
    let nodes: usize = arg(args, 1)?
        .parse()
        .map_err(|_| "invalid node count".to_string())?;
    let degree: f64 = arg(args, 2)?
        .parse()
        .map_err(|_| "invalid degree".to_string())?;
    let seed: u64 = args.get(3).map_or(Ok(0), |s| {
        s.parse().map_err(|_| "invalid seed".to_string())
    })?;
    let g = generators::random_dag(generators::RandomDagConfig {
        nodes,
        avg_out_degree: degree,
        seed,
    });
    print!("{}", edgelist::write(&g));
    Ok(())
}
