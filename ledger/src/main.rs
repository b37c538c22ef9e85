//! `ledger` — the one perf ledger for interval-tc.
//!
//! It drives the `tc-server` daemon, started in this process, over real
//! loopback sockets on four workloads. It prints every metric by name and
//! unit, and checks every wire answer against an oracle: graph traversal of
//! the generated relation for the graph workloads, and an in-process
//! `KnowledgeBase` mirror plus its naive-fixpoint gate for the KB stream.
//! Any divergence makes the run incorrect and the exit code nonzero.
//!
//! ```text
//! ledger --workload NAME --seed N [--seconds S] [--trace 0|1] [--smoke]
//!        [--out FILE] [--spans FILE]
//! ledger [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out FILE] [--spans FILE]
//! ledger compare PARENT_RUNS CHANGE_RUNS [--bench BENCHMARK.json]
//! ```
//!
//! Without `--workload`, the binary re-invokes itself once per workload, so
//! set-up time and peak RSS belong to one workload each. The last line on
//! stdout of a single-workload run is the result object
//! `{"correct", "attempted", "failed", "metrics"}`; the human-readable
//! report goes to stderr. `--out FILE` appends a run record, stamped with
//! the commit, the core count and the build profile, which `compare`
//! reads. `--spans FILE` appends the traced run's spans as JSON lines.
//! `--smoke` shrinks every input so that all four workloads finish in
//! seconds, and keeps the same oracle gates.
//!
//! # Workloads
//!
//! Load comes from this one process, at most two connections with one
//! client thread each, as on a 2-core box (plus the mix's mostly idle
//! writer). All use the daemon's defaults (1 shard, 25 ms flusher, resident
//! plane, no hybrid rows) unless noted. The inputs come from `--seed`, and
//! the daemon sees only the generated inputs.
//!
//! On a shared 2-core host the speed of a core swings by ±20 % from one
//! second to the next, and a closed loop with one request in flight
//! mostly measured how fast the host woke a sleeping thread: over ten
//! runs, the middle half of its throughputs and medians spread over 40 to
//! 50 % of their median. So the
//! graph workloads pipeline instead. Each connection keeps a fixed number
//! of requests in flight and tops them up, in one write, each time it has
//! read every answer that arrived. The daemon's connection thread then
//! always has work queued, and the numbers follow its work per request.
//! The top-up write also acknowledges the answers read. The daemon leaves
//! Nagle's algorithm on, so it sends further small answers only once the
//! earlier ones are acknowledged; a client that reads on without writing
//! waits out a 40 ms delayed acknowledgement per batch.
//!
//! A graph workload starts its daemon five times; each start is one
//! `setup_s` sample. Each daemon then serves a 250 ms warmup and five
//! measured segments on fresh connections, and the 25 segments together
//! last `--seconds`. A connection stays open across its daemon's segments;
//! an answer counts in the segment it arrived in.
//!
//! * `read_point` — `random_dag` with 20,000 nodes and out-degree 2. Two
//!   connections, each with 8 single `reaches nA nB` requests in flight,
//!   draw from a pool of 65,536 uniform pairs. There are no writes. *Why:*
//!   this is the wire read path. The probe kernel is a few percent of the
//!   daemon's work per request, so protocol, dictionary and connection work
//!   shows here. Writer and kernel changes should show nothing.
//! * `read_write_mix` — `read_point` exactly, plus a writer connection W
//!   running an open loop at a fixed 2 writes/s. W cycles `add-node leafK
//!   nP`, `add-edge nU nV`, `remove-edge nU nV`, `remove-node leafK`. Each
//!   arc joins two nodes in topological order that were not yet connected,
//!   so it is admitted, it costs real §4 work, and the graph returns to its
//!   base after every cycle. Write latency is timed from each write's *due*
//!   time. After each acknowledged write, W asks every millisecond the
//!   question that shows it (`reaches nP leafK`, or `reaches nU nV` for the
//!   arc) until the answer does, which times when the write becomes
//!   visible. Every write refreezes the whole plane, which takes about
//!   180 ms here. At 10 writes/s, writes queued on the front lock and the
//!   writer never caught up; 2/s keeps the writer busy about a third of the
//!   time. *Why:* the writer does most of the work here (§4 update,
//!   refreeze, publish), and the readers pay for it in CPU and locks; the
//!   difference from `read_point` is the writer's cost. This is where
//!   refreeze, format and WAL changes will show.
//! * `batch_paged` — `dense_layered` with 48 × 300 nodes and degree 3. The
//!   daemon is `paged` with a 365-page pool, about 1/16 of the plane. Two
//!   connections each keep 2 `reaches-batch` requests of 256 pairs in
//!   flight, so the next batch is always queued; sources come from the
//!   first quarter of ids and targets from the rest. One request in 32 is a
//!   `successors`. *Why:* the working set is larger than the program's
//!   cache, so the pager and the probe kernels dominate, on fragmented rows.
//! * `kb_ingest` — six `kb_scale` streams, each from its own seed drawn from
//!   `--seed`. A stream has 6 layers of 48 concepts and the rules `up` and
//!   `share`, and 6 windows of 400 mutations (20 % of them DRed retracts)
//!   followed by 256 `ask`s. A pass replays one stream against a fresh
//!   daemon over one connection, one request at a time; a mutation costs
//!   about 60 µs to several ms of daemon work, so the wait for a wakeup is
//!   small beside it. Passes cycle through the streams until `--seconds`
//!   have passed. How fast ingest falls depends on how one stream's
//!   derivations pile up, so runs on one stream varied by about 20 %
//!   between seeds; six streams per run average that out. Only the requests are
//!   timed. After the measured passes, an in-process mirror `KnowledgeBase`
//!   runs every stream, with its naive re-derivation gate after every
//!   window, and the first pass of each stream must have answered every
//!   line as the mirror does; later passes must answer as the first did.
//!   *Why:* rule joins, DRed retraction and the forwarding of IS-A changes
//!   into the service do the work here, and ingest slows sharply as
//!   derivations pile up. The service graph is tiny, so plane and pager
//!   changes should show nothing.
//!
//! # End-to-end metrics (`--trace 0`)
//!
//! Every workload reports the same four, so that one bound covers each
//! (workload, metric) pair:
//!
//! * `setup_s` — the median over the run's set-ups. A set-up is the closure
//!   build, the freeze and the daemon start, dictionary included. For
//!   `kb_ingest` it is the daemon start plus both rule definitions, over at
//!   least 51 starts; the wait for the accept loop, which polls every 2 ms,
//!   to take the connection is left out. Graph generation and the oracle
//!   are excluded.
//! * `rss_mb` — the median of the process's resident set (`VmRSS`, in MB),
//!   sampled every 100 ms while the first daemon serves its segments (at
//!   the end of every pass for `kb_ingest`). Later daemons inherit the
//!   allocator's history of the earlier ones, and their resident set steps
//!   up by as much as 10 % or not at all, from run to run. The oracle holds
//!   answers, not a second closure (the KB mirror runs after the measured
//!   passes), and histograms have a fixed size, so the harness adds little
//!   beyond the daemon. The peak (`VmHWM`) is not gated: on
//!   `read_write_mix` it depends on whether a reader still pins the retired
//!   plane when the writer builds the next one.
//! * `ops_per_s` — the workload's unit of work per second, as the median
//!   over segments (over passes for `kb_ingest`). For `read_point` and
//!   `read_write_mix` it counts the readers' `reaches` answers. For
//!   `batch_paged` it counts probed pairs. For `kb_ingest` it counts
//!   mutations at each window's median cost: one over the mean of the six
//!   windows' median mutation round trips. Mutations slower than 5 ms,
//!   under 1 % of them, take a tenth to a third of the waiting (DRed
//!   cascades, and waits on the front lock while the flusher refreezes),
//!   and how often they strike follows the host's load: the plain rate,
//!   mutations over the time spent waiting on them, moved by up to 1.7x
//!   between runs on one seed. It is in the run record as
//!   `kb_ingest_wall_ops_per_s`.
//! * `p50_us` — the latency median, in µs, of the workload's main request:
//!   `reaches`, `reaches-batch`, and for `kb_ingest` the mutations
//!   (`assert`, `retract`). A pipelined request's latency runs from the
//!   write that sent it to the read of its answer, so it includes the
//!   requests queued ahead of it. It is the median over segments (passes)
//!   of each segment's own median. A percentile is reported only with at
//!   least ten samples beyond it, and the stderr report states the sample
//!   count.
//!
//! Failures are not a metric: `failed` in the result counts `err`
//! responses, answers that disagree with the oracle, and dropped
//! connections, out of `attempted` requests.
//!
//! Run records also carry metrics that `compare` judges with a 10 % bound
//! but the result line leaves out. `peak_rss_mb` is one. `p99_us` (main
//! requests) is another; it is also the traced run's `server.wire_p99_us`.
//! The others are workload-specific: `write_ack_p50_ms` and
//! `write_visible_p50_ms` on `read_write_mix`, `successors_p50_us` on
//! `batch_paged`, and `kb_ask_p50_us`, `kb_ingest_wall_ops_per_s` and
//! `kb_ingest_tail_ops_per_s` (the last window's plain rate) on
//! `kb_ingest`. The mix makes about 50 writes in a 25 s
//! run, too few for a write-latency tail with ten samples beyond it.
//!
//! # Per-layer metrics (`--trace 1`)
//!
//! A traced run measures the wire phase twice, untraced and then traced,
//! and keeps one span per request: id, connection, verb, start and end.
//! `trace.overhead_frac` is `1 - traced/untraced` throughput. The run then
//! replays the traced requests in-process and times calls into each
//! module's public functions from this benchmark's own code. It gives each
//! request a parent span, with child spans around `proto::parse`,
//! `Dict::resolve`, the `ShardedReader` call (or `KnowledgeBase::ask` for
//! PART-OF) and the rendering of the response. `Engine::handle` runs on
//! every replayed line in a pass of its own, so neither pass warms the
//! rows the other probes. Its self time, `engine.self_ns`, is its time
//! minus the layer calls it makes. Each timed interval holds about one
//! clock read, so one read's cost (`replay.clock_ns`, measured at the
//! start) is taken out of every interval. Every rendered response must equal
//! `Engine::handle`'s answer to the same line. Each layer metric below
//! names the end-to-end metric it should move.
//!
//! * `server.residual_us` = the traced wire time per main request on one
//!   connection (the interval between its answers; for `kb_ingest`, the
//!   mean `ask` round trip) − the mean `Engine::handle` time of the same
//!   verb: socket reads and writes, line framing and thread scheduling.
//!   → `ops_per_s` and `p50_us`. `server.wire_p99_us` is the traced pass's
//!   p99.
//! * `proto.parse_ns` (per request), `dict.resolve_ns` (per key) →
//!   `p50_us` on `read_point`, and also on `batch_paged`, where each request
//!   carries 512 keys.
//! * `shard.reader_ns_per_probe` → `p50_us`, and `ops_per_s` on
//!   `batch_paged`.
//! * `engine.handle_ns` is `Engine::handle` on the replayed main request.
//!   `engine.self_ns` is that minus parse, resolve and reader: locks,
//!   dispatch and rendering. → `p50_us`.
//! * `plane.reaches_ns`, `plane.reaches_interval_only_ns`,
//!   `plane.successors_ns` are a resident `QueryPlane` probing the
//!   workload's pairs. `plane.cutoff_reject_frac` is the share of probes that
//!   `CutoffLabels::may_reach` rules out before any row is read. → `p50_us`
//!   (a little), and `ops_per_s` on `batch_paged` as the resident reference.
//! * `paged.reaches_ns`, `paged.successors_ns`,
//!   `pager.page_reads_per_probe` and `pager.hit_rate` are a `PagedPlane`
//!   with the 365-page pool on the same probes, warm. → `ops_per_s` and
//!   `p50_us` on `batch_paged`.
//! * `closure.freeze_ms` and `paged.freeze_ms` are a full freeze of each
//!   kind. → `setup_s`; and `ops_per_s` and `p50_us` on `read_write_mix`,
//!   through the refreeze after every write.
//! * `closure.{add_node,add_edge,remove_edge,remove_node}_us` are the
//!   mix's write cycle applied to a replica `CompressedClosure`.
//!   `shard.submit_us` (`submit_with_outcome`, front lock included) and
//!   `shard.flush_ms` (drain, refreeze, publish) are the same cycle on a
//!   replica `ShardedService` configured like the daemon.
//!   `serve.publish_residual_ms` = flush − apply − freeze. → `ops_per_s`
//!   and `p50_us` on `read_write_mix`, and the write metrics in its
//!   records.
//!
//! On a workload whose traffic never reaches a layer, that layer's metrics
//! are measured on the workload's own graph (for `kb_ingest`, the IS-A
//! taxonomy the stream built) with the same probes and write cycle. There
//! the prediction for a change to that layer is no change. The stderr
//! report adds the workload-only numbers: KB work per verb
//! (`kb.{assert,retract,ask}_us`, `engine.kb_forward_us`,
//! `kb.derived_per_op`, `kb.overdeleted_per_retract`, `kb.rederive_frac`),
//! the writer's lateness (`loadgen.late_p50_ms`, `loadgen.late_max_ms`)
//! and the service counters.
//!
//! # Compare
//!
//! `ledger compare PARENT CHANGE` reads two files of run records (from
//! `--out`, same seeds in the same order). For each workload and metric it
//! prints both medians and quartiles, the change's wins over same-index
//! pairs, and a verdict: *improved* (at least 9 wins in 10, and a median
//! gap larger than the parent's IQR), *no-worse*, *worse* (the median is
//! worse by more than the bound in `BENCHMARK.json`), or *unresolved* (the
//! parent's IQR is wider than the bound). It exits nonzero on any *worse*,
//! on an incorrect run, or when the change's failed share is higher.

mod inputs;
mod replay;
mod wire;
mod workloads;

use std::fs::OpenOptions;
use std::io::{BufWriter, Write as _};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use tc_ledger::compare::{compare, read_bounds, read_runs};
use tc_ledger::env::Stamp;
use tc_ledger::{json, Better, Value};
use workloads::Workload;

/// The `end_to_end` metrics of `BENCHMARK.json`, printed by every
/// untraced run.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("rss_mb", "MB"),
    ("ops_per_s", "1/s"),
    ("p50_us", "us"),
];

/// The `per_layer` metrics of `BENCHMARK.json`, printed by every traced run.
pub const PER_LAYER: [(&str, &str); 25] = [
    ("server.residual_us", "us"),
    ("server.wire_p99_us", "us"),
    ("proto.parse_ns", "ns"),
    ("dict.resolve_ns", "ns"),
    ("shard.reader_ns_per_probe", "ns"),
    ("engine.handle_ns", "ns"),
    ("engine.self_ns", "ns"),
    ("trace.overhead_frac", "frac"),
    ("plane.reaches_ns", "ns"),
    ("plane.reaches_interval_only_ns", "ns"),
    ("plane.successors_ns", "ns"),
    ("plane.cutoff_reject_frac", "frac"),
    ("paged.reaches_ns", "ns"),
    ("paged.successors_ns", "ns"),
    ("pager.page_reads_per_probe", "count"),
    ("pager.hit_rate", "frac"),
    ("closure.freeze_ms", "ms"),
    ("paged.freeze_ms", "ms"),
    ("closure.add_node_us", "us"),
    ("closure.add_edge_us", "us"),
    ("closure.remove_edge_us", "us"),
    ("closure.remove_node_us", "us"),
    ("shard.submit_us", "us"),
    ("shard.flush_ms", "ms"),
    ("serve.publish_residual_ms", "ms"),
];

/// One measured number.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Direction, for metrics `compare` judges.
    pub better: Option<Better>,
    /// Value.
    pub value: f64,
    /// Samples a percentile rests on.
    pub samples: Option<u64>,
}

impl Metric {
    /// A metric with no direction (per-layer).
    pub fn new(name: &str, unit: &'static str, value: f64) -> Metric {
        Metric {
            name: name.to_owned(),
            unit,
            better: None,
            value,
            samples: None,
        }
    }

    /// Sets the direction.
    pub fn better(mut self, b: Better) -> Metric {
        self.better = Some(b);
        self
    }

    /// Records the sample count.
    pub fn samples(mut self, n: u64) -> Metric {
        self.samples = Some(n);
        self
    }
}

/// A span written by `--spans`: wire spans have no parent; replay children
/// name theirs.
#[derive(Debug, Clone)]
pub struct Span {
    /// Request id.
    pub req: u64,
    /// Span name (a verb for wire spans, a layer call for replay spans).
    pub name: &'static str,
    /// Parent span name, for replay children.
    pub parent: Option<&'static str>,
    /// Start, ns since the phase began.
    pub start_ns: u64,
    /// End, ns since the phase began.
    pub end_ns: u64,
}

/// Requests attempted and failed, with the first few failures described.
#[derive(Debug, Default)]
pub struct Checks {
    /// Requests sent (and gates run).
    pub attempted: u64,
    /// Failed requests and gates.
    pub failed: u64,
    /// Descriptions of the first failures.
    pub notes: Vec<String>,
}

impl Checks {
    /// Counts one failure, keeping its description if it is among the first.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.notes.len() < 8 {
            self.notes.push(what);
        }
    }

    /// Adds another tally.
    pub fn merge(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for n in other.notes {
            if self.notes.len() < 8 {
                self.notes.push(n);
            }
        }
    }
}

/// Everything one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Requests and failures.
    pub checks: Checks,
    /// End-to-end metrics.
    pub e2e: Vec<Metric>,
    /// Workload-specific metrics for the run record.
    pub extras: Vec<Metric>,
    /// Per-layer metrics (traced runs).
    pub layers: Vec<Metric>,
    /// Further numbers for the stderr report only.
    pub report: Vec<Metric>,
    /// Spans of a traced run.
    pub spans: Vec<Span>,
}

#[derive(Debug)]
struct Opts {
    workload: Option<Workload>,
    run: workloads::RunOpts,
    out: Option<PathBuf>,
    spans: Option<PathBuf>,
}

const USAGE: &str = "usage: ledger [--workload read_point|read_write_mix|batch_paged|kb_ingest] \
                     [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out FILE] [--spans FILE]\n       \
                     ledger compare PARENT_RUNS CHANGE_RUNS [--bench BENCHMARK.json]";

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        workload: None,
        run: workloads::RunOpts {
            seed: 1,
            seconds: 25.0,
            trace: false,
            smoke: false,
        },
        out: None,
        spans: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            o.run.smoke = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                o.workload =
                    Some(Workload::parse(value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => o.run.seed = value.parse().map_err(|_| format!("bad seed {value:?}"))?,
            "--seconds" => {
                o.run.seconds = value
                    .parse()
                    .map_err(|_| format!("bad seconds {value:?}"))?;
                if !(o.run.seconds > 0.0 && o.run.seconds <= 600.0) {
                    return Err(format!("--seconds {value} is outside (0, 600]"));
                }
            }
            "--trace" => {
                o.run.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            "--out" => o.out = Some(PathBuf::from(value)),
            "--spans" => o.spans = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(o)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = if args.first().map(String::as_str) == Some("compare") {
        compare_cmd(&args[1..])
    } else {
        match parse_opts(&args) {
            Ok(o) => match o.workload {
                Some(w) => run_one(w, &o),
                None => run_all(&o),
            },
            Err(e) => Err(format!("{e}\n{USAGE}")),
        }
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("ledger: {e}");
            ExitCode::from(2)
        }
    }
}

/// The per-process temp directory inside the working directory. Paged
/// freezes stream their planes to `TMPDIR`, and the benchmark writes only
/// inside the tree it runs from.
fn scoped_tmpdir() -> Result<PathBuf, String> {
    let dir = std::env::current_dir()
        .map_err(|e| format!("working directory: {e}"))?
        .join(".ledger-tmp")
        .join(std::process::id().to_string());
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    // Set before any thread starts, so no other thread reads the
    // environment concurrently.
    std::env::set_var("TMPDIR", &dir);
    Ok(dir)
}

fn remove_tmpdir(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
    if let Some(parent) = dir.parent() {
        let _ = std::fs::remove_dir(parent); // only if no other run uses it
    }
}

fn run_one(w: Workload, o: &Opts) -> Result<ExitCode, String> {
    let tmp = scoped_tmpdir()?;
    let outcome = w.run(&o.run, &tmp);
    remove_tmpdir(&tmp);
    let outcome = outcome?;
    report(w, &o.run, &outcome);
    let line = result_line(&outcome, o.run.trace)?;
    if let Some(path) = &o.out {
        append_lines(path, std::iter::once(record(w, &o.run, &outcome)))?;
    }
    if let Some(path) = &o.spans {
        append_lines(path, outcome.spans.iter().map(|s| span_json(w, s)))?;
    }
    println!("{line}");
    Ok(if outcome.checks.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

/// Appends one JSON value per line to `path`.
fn append_lines(path: &Path, lines: impl Iterator<Item = Value>) -> Result<(), String> {
    let file = OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| format!("open {}: {e}", path.display()))?;
    let mut w = BufWriter::new(file);
    for v in lines {
        writeln!(w, "{v}").map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    w.flush()
        .map_err(|e| format!("write {}: {e}", path.display()))
}

fn finite(m: &Metric) -> Result<f64, String> {
    if m.value.is_finite() {
        Ok(m.value)
    } else {
        Err(format!("{} came out as {}", m.name, m.value))
    }
}

/// The result line: exactly the metrics `BENCHMARK.json` lists for the
/// run's kind.
fn result_line(out: &Outcome, trace: bool) -> Result<Value, String> {
    let (list, have): (&[(&str, &str)], &[Metric]) = if trace {
        (&PER_LAYER, &out.layers)
    } else {
        (&END_TO_END, &out.e2e)
    };
    let mut metrics = Value::obj();
    for &(name, unit) in list {
        let m = have
            .iter()
            .find(|m| m.name == name)
            .ok_or(format!("{name} was not measured"))?;
        assert_eq!(
            m.unit, unit,
            "{name} measured in the unit BENCHMARK.json states"
        );
        metrics = metrics.with(
            name,
            Value::obj().with("value", finite(m)?).with("unit", unit),
        );
    }
    Ok(Value::obj()
        .with("correct", out.checks.failed == 0)
        .with("attempted", out.checks.attempted.max(1))
        .with("failed", out.checks.failed)
        .with("metrics", metrics))
}

fn metric_json(m: &Metric) -> Value {
    let mut v = Value::obj().with("value", m.value).with("unit", m.unit);
    if let Some(b) = m.better {
        v = v.with("better", b.name());
    }
    if let Some(n) = m.samples {
        v = v.with("samples", n);
    }
    v
}

/// The run record `compare` reads.
fn record(w: Workload, o: &workloads::RunOpts, out: &Outcome) -> Value {
    let fields = |ms: &[&Metric]| {
        Value::Obj(
            ms.iter()
                .map(|m| (m.name.clone(), metric_json(m)))
                .collect(),
        )
    };
    let judged: Vec<&Metric> = out.e2e.iter().chain(&out.extras).collect();
    let mut v = Value::obj()
        .with("workload", w.name())
        .with("seed", o.seed)
        .with("seconds", o.seconds)
        .with("trace", o.trace)
        .with("smoke", o.smoke)
        .with("stamp", Stamp::current().to_json())
        .with("correct", out.checks.failed == 0)
        .with("attempted", out.checks.attempted)
        .with("failed", out.checks.failed)
        .with("metrics", fields(&judged));
    if o.trace {
        v = v.with(
            "layers",
            fields(&out.layers.iter().chain(&out.report).collect::<Vec<_>>()),
        );
    }
    v
}

fn span_json(w: Workload, s: &Span) -> Value {
    Value::obj()
        .with("workload", w.name())
        .with("req", s.req)
        .with("span", s.name)
        .with("parent", s.parent.map_or(Value::Null, Value::from))
        .with("start_ns", s.start_ns)
        .with("end_ns", s.end_ns)
}

/// The human-readable report, on stderr.
fn report(w: Workload, o: &workloads::RunOpts, out: &Outcome) {
    let mut text = format!(
        "== {} (seed {}, {} s{}{})\n",
        w.name(),
        o.seed,
        o.seconds,
        if o.trace { ", traced" } else { "" },
        if o.smoke { ", smoke" } else { "" }
    );
    let groups: [(&str, &[Metric]); 4] = [
        ("end to end", &out.e2e),
        ("workload", &out.extras),
        ("per layer", &out.layers),
        ("detail", &out.report),
    ];
    for (title, ms) in groups {
        if ms.is_empty() {
            continue;
        }
        text.push_str(&format!("  -- {title}\n"));
        for m in ms {
            let n = m.samples.map_or(String::new(), |n| format!("  (n={n})"));
            text.push_str(&format!(
                "  {:<34} {:>16.4} {}{n}\n",
                m.name, m.value, m.unit
            ));
        }
    }
    let c = &out.checks;
    text.push_str(&format!(
        "  attempted {}  failed {}\n",
        c.attempted, c.failed
    ));
    for note in &c.notes {
        text.push_str(&format!("  FAILURE: {note}\n"));
    }
    eprint!("{text}");
}

/// Runs every workload in a child process of its own and prints a table of
/// their end-to-end metrics.
fn run_all(o: &Opts) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate own binary: {e}"))?;
    if let Some(spans) = &o.spans {
        let _ = std::fs::remove_file(spans);
    }
    let mut rows: Vec<(Workload, Option<Value>)> = Vec::new();
    let mut ok = true;
    for w in workloads::ALL {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", w.name(), "--seed", &o.run.seed.to_string()])
            .args([
                "--seconds",
                &o.run.seconds.to_string(),
                "--trace",
                if o.run.trace { "1" } else { "0" },
            ])
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        if o.run.smoke {
            cmd.arg("--smoke");
        }
        for (flag, path) in [("--out", &o.out), ("--spans", &o.spans)] {
            if let Some(p) = path {
                cmd.arg(flag).arg(p);
            }
        }
        let child = cmd.output().map_err(|e| format!("run {}: {e}", w.name()))?;
        let stdout = String::from_utf8_lossy(&child.stdout);
        let last = stdout.lines().last().and_then(|l| json::parse(l).ok());
        ok &= child.status.success() && last.is_some();
        rows.push((w, last));
    }
    let list: &[(&str, &str)] = if o.run.trace { &PER_LAYER } else { &END_TO_END };
    let mut table = format!("{:<34}", "metric");
    for (w, _) in &rows {
        table.push_str(&format!(" {:>16}", w.name()));
    }
    table.push_str("  unit\n");
    for &(name, unit) in list {
        table.push_str(&format!("{name:<34}"));
        for (_, v) in &rows {
            let x = v
                .as_ref()
                .and_then(|v| v.get("metrics")?.get(name)?.get("value")?.as_f64());
            table.push_str(&x.map_or(format!(" {:>16}", "-"), |x| format!(" {x:>16.4}")));
        }
        table.push_str(&format!("  {unit}\n"));
    }
    for key in ["correct", "attempted", "failed"] {
        table.push_str(&format!("{key:<34}"));
        for (_, v) in &rows {
            table.push_str(&format!(
                " {:>16}",
                v.as_ref()
                    .and_then(|v| v.get(key))
                    .map_or("-".to_owned(), Value::to_string)
            ));
        }
        table.push('\n');
    }
    print!("{table}");
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

fn compare_cmd(args: &[String]) -> Result<ExitCode, String> {
    let mut files = Vec::new();
    let mut bench = PathBuf::from("BENCHMARK.json");
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--bench" {
            bench = PathBuf::from(it.next().ok_or("--bench needs a file")?);
        } else {
            files.push(a);
        }
    }
    let [parent, change] = files.as_slice() else {
        return Err(format!(
            "compare takes PARENT_RUNS and CHANGE_RUNS\n{USAGE}"
        ));
    };
    let read =
        |p: &Path| std::fs::read_to_string(p).map_err(|e| format!("read {}: {e}", p.display()));
    let bounds = read_bounds(&read(&bench)?)?;
    let parent = read_runs(&read(Path::new(parent))?)?;
    let change = read_runs(&read(Path::new(change))?)?;
    let report = compare(&parent, &change, &bounds);
    print!("{}", report.render());
    Ok(if report.passed() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}
