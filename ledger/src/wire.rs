//! The load generator's side of the socket: a minimal blocking connection,
//! per-segment latency tallies, trace spans, and the in-process daemon's
//! start and stop.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

use tc_core::{ClosureConfig, ShardedClosure};
use tc_graph::DiGraph;
use tc_ledger::{Histogram, Quantile};
use tc_server::{Dict, Engine, EngineConfig, Server, ServerConfig};

/// One client connection speaking the line protocol. Requests go out in
/// one `write_all` per call (lines and terminators together), so the
/// numbers time the daemon rather than this client's packetization.
pub struct Conn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    out: Vec<u8>,
    line: String,
}

impl Conn {
    /// Connects with Nagle off, as a latency-sensitive client would.
    pub fn connect(addr: &str) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Conn {
            stream,
            reader,
            out: Vec::new(),
            line: String::new(),
        })
    }

    /// Connects and waits for the answer to a `ping`, so the daemon's
    /// accept and connection-thread spawn are over before any timing.
    pub fn pinged(addr: &str) -> std::io::Result<Conn> {
        let mut c = Conn::connect(addr)?;
        match c.request("ping")? {
            "ok pong" => Ok(c),
            other => Err(std::io::Error::other(format!(
                "ping was answered {other:?}"
            ))),
        }
    }

    /// Sends request lines in one write, without waiting for any answer.
    pub fn send<'a>(&mut self, reqs: impl IntoIterator<Item = &'a str>) -> std::io::Result<()> {
        self.out.clear();
        for req in reqs {
            self.out.extend_from_slice(req.as_bytes());
            self.out.push(b'\n');
        }
        self.stream.write_all(&self.out)
    }

    /// Reads the next response line, without its terminator. A closed
    /// connection is an error: a dropped response.
    pub fn recv(&mut self) -> std::io::Result<&str> {
        self.line.clear();
        if self.reader.read_line(&mut self.line)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "daemon closed the connection",
            ));
        }
        Ok(self.line.trim_end_matches(['\n', '\r']))
    }

    /// Whether every byte received so far has been read as a response.
    pub fn drained(&self) -> bool {
        self.reader.buffer().is_empty()
    }

    /// Sends one request line and returns its response line.
    pub fn request(&mut self, req: &str) -> std::io::Result<&str> {
        self.send([req])?;
        self.recv()
    }
}

/// The measured part of one segment: latencies per request class and the
/// time the segment took.
#[derive(Debug, Clone)]
pub struct Segment {
    /// Round trips of the workload's main requests.
    pub main: Histogram,
    /// Round trips of its side requests (`successors` on `batch_paged`).
    pub side: Histogram,
    /// From the segment's start to its last completion.
    pub secs: f64,
}

impl Segment {
    /// An empty segment.
    pub fn new() -> Segment {
        Segment {
            main: Histogram::new(),
            side: Histogram::new(),
            secs: 0.0,
        }
    }

    /// Adds another connection's share of the same segment.
    pub fn merge(&mut self, other: &Segment) {
        self.main.merge(&other.main);
        self.side.merge(&other.side);
        self.secs = self.secs.max(other.secs);
    }
}

/// Main-request completions per second in each segment, times `work`
/// units per request (256 pairs for a batch, 1 otherwise).
pub fn rates(segments: &[Segment], work: f64) -> Vec<f64> {
    segments
        .iter()
        .map(|s| s.main.count() as f64 * work / s.secs)
        .collect()
}

/// Every segment's samples of `pick`, in one histogram.
pub fn pooled(segments: &[Segment], pick: fn(&Segment) -> &Histogram) -> Histogram {
    let mut all = Histogram::new();
    for s in segments {
        all.merge(pick(s));
    }
    all
}

/// The `q`-quantile of `pick` over a run, in ns, with its sample count:
/// the median of every segment's own quantile, so one disturbed segment
/// cannot move it. When some segment is too short for the quantile, the
/// segments are pooled instead; `None` when even that is too short.
pub fn segment_percentile(
    segments: &[Segment],
    q: f64,
    pick: fn(&Segment) -> &Histogram,
) -> Option<Quantile> {
    let all = pooled(segments, pick);
    let per_segment: Option<Vec<f64>> = segments
        .iter()
        .map(|s| pick(s).percentile(q).map(|p| p.value))
        .collect();
    let value = match per_segment {
        Some(values) => tc_ledger::median(&values)?,
        None => all.percentile(q)?.value,
    };
    Some(Quantile {
        value,
        samples: all.count(),
    })
}

/// One request on the wire, kept in memory by a traced pass.
#[derive(Debug, Clone, Copy)]
pub struct WireSpan {
    /// Request number on its connection.
    pub id: u64,
    /// Connection index.
    pub conn: usize,
    /// The request's verb.
    pub verb: &'static str,
    /// Send time, ns since the clock started.
    pub start_ns: u64,
    /// Response time, ns since the clock started.
    pub end_ns: u64,
}

/// Spans kept per connection and segment of a traced pass; later requests
/// are still timed, only not kept, so a traced run holds a bounded number.
pub const MAX_SPANS: usize = 1 << 14;

/// Records a span when tracing and under the cap.
pub fn push_span(spans: &mut Option<Vec<WireSpan>>, span: WireSpan) {
    if let Some(v) = spans {
        if v.len() < MAX_SPANS {
            v.push(span);
        }
    }
}

/// Builds the daemon `interval-tc serve --listen` would run over `g` —
/// one shard, default dictionary keys `n0..`, the default 25 ms flusher —
/// and starts it on an ephemeral loopback port. This is the work
/// `setup_s` times.
pub fn start_graph_daemon(g: &DiGraph, config: ClosureConfig) -> Server {
    let sharded = ShardedClosure::build(config, g, 1).expect("generated graphs are acyclic");
    let dict = Dict::with_default_keys(g.node_count());
    let engine = Engine::start(sharded, dict, EngineConfig::default());
    Server::start(engine, "127.0.0.1:0", ServerConfig::default())
        .expect("bind an ephemeral loopback port")
}

/// Stops a daemon; a panicked accept loop is a failed run.
pub fn stop_daemon(server: Server) -> Result<(), String> {
    let panics = server.caught_panics();
    server.stop()?;
    if panics > 0 {
        return Err(format!("the daemon caught {panics} handler panics"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seg(lat: &[u64], secs: f64) -> Segment {
        let mut s = Segment::new();
        for &v in lat {
            s.main.record(v);
        }
        s.secs = secs;
        s
    }

    #[test]
    fn rates_and_percentiles_are_per_segment_medians() {
        let a = seg(&[10; 40], 1.0);
        let b = seg(&[20; 40], 2.0);
        let c = seg(&[30; 40], 0.5);
        let short = seg(&[30; 5], 0.5);
        let segs = [a, b, c];
        assert_eq!(rates(&segs, 1.0), vec![40.0, 20.0, 80.0]);
        assert_eq!(rates(&segs, 256.0)[0], 10240.0);
        let q = segment_percentile(&segs, 0.5, |s| &s.main).unwrap();
        assert_eq!((q.value, q.samples), (20.0, 120));
        // A segment too short for its own median sends the whole run to the
        // pooled histogram.
        let q = segment_percentile(&[segs[0].clone(), short], 0.5, |s| &s.main).unwrap();
        assert_eq!((q.value, q.samples), (10.0, 45));
        assert_eq!(segment_percentile(&segs, 0.5, |s| &s.side), None);
        assert_eq!(pooled(&segs, |s| &s.main).count(), 120);
    }

    #[test]
    fn merged_segments_keep_the_longest_duration() {
        let mut a = seg(&[1, 2], 1.0);
        a.merge(&seg(&[3], 1.5));
        assert_eq!((a.main.count(), a.secs), (3, 1.5));
    }
}
