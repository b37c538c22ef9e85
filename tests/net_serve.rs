//! Integration tests for the network serving front end: malformed-input
//! handling on real sockets, pipelined bursts, and multi-client network
//! answers checked against the in-process snapshot reader under churn.

use std::time::Duration;

use tc_core::{ClosureConfig, ShardedClosure};
use tc_graph::{generators, NodeId};
use tc_server::{Client, Dict, Engine, EngineConfig, ProtoError, Server, ServerConfig, MAX_LINE};

fn start_server(nodes: usize, seed: u64, shards: usize) -> Server {
    let g = generators::random_dag(generators::RandomDagConfig {
        nodes,
        avg_out_degree: 2.0,
        seed,
    });
    let sc = ShardedClosure::build(ClosureConfig::new(), &g, shards).unwrap();
    let engine = Engine::start(sc, Dict::with_default_keys(nodes), EngineConfig::default());
    Server::start(engine, "127.0.0.1:0", ServerConfig::default()).unwrap()
}

#[test]
fn malformed_requests_get_error_responses_not_disconnects() {
    let server = start_server(10, 1, 1);
    let addr = server.addr().to_string();
    let mut c = Client::connect(&addr).unwrap();

    // Unknown verb.
    assert!(c.request("frobnicate n0").unwrap().starts_with("err unknown-verb"));
    // Known verb, wrong operands.
    assert!(c.request("reaches n0").unwrap().starts_with("err bad-request"));
    // Unknown string key.
    assert!(c.request("reaches n0 no-such-node").unwrap().starts_with("err unknown-key"));
    // Bad UTF-8 in the middle of a line.
    c.send_raw(b"reaches \xff\xfe n0\n").unwrap();
    assert!(c.read_response().unwrap().starts_with("err utf8"));
    // Oversized line: drained, answered, connection lives.
    let mut big = vec![b'x'; 80 * 1024];
    big.push(b'\n');
    c.send_raw(&big).unwrap();
    assert!(c.read_response().unwrap().starts_with("err oversized"));
    // The same connection still answers real queries after all that abuse.
    assert_eq!(c.request("ping").unwrap(), "ok pong");
    assert_eq!(c.reaches("n0", "n0").unwrap(), Ok(true));

    // Half-closed socket mid-request: a best-effort `err truncated` comes
    // back before the server closes its side.
    let mut half = Client::connect(&addr).unwrap();
    half.send_raw(b"reaches n0").unwrap(); // no terminator
    half.shutdown_write().unwrap();
    assert!(half.read_response().unwrap().starts_with("err truncated"));

    assert_eq!(server.caught_panics(), 0, "no handler panicked");
    let stats = server.engine().stats();
    assert_eq!(stats.submitted, 0, "malformed requests never reach the writers");
    server.stop().expect("accept loop panicked");
}

/// `reaches n0 n0` padded with spaces to `len` bytes, LF included.
fn padded_reaches(len: usize) -> Vec<u8> {
    let mut line = b"reaches n0 n0".to_vec();
    line.resize(len - 1, b' ');
    line.push(b'\n');
    line
}

#[test]
fn line_limit_counts_the_terminator() {
    let server = start_server(4, 1, 1);
    let mut c = Client::connect(&server.addr().to_string()).unwrap();
    c.send_raw(&padded_reaches(MAX_LINE)).unwrap();
    assert_eq!(c.read_response().unwrap(), "ok true", "a MAX_LINE-byte line is accepted");
    // The LF of this line arrives in the read that crosses the limit.
    c.send_raw(&padded_reaches(MAX_LINE + 1)).unwrap();
    assert_eq!(c.read_response().unwrap(), ProtoError::Oversized.line());
    assert_eq!(c.request("ping").unwrap(), "ok pong");
    server.stop().expect("accept loop panicked");
}

#[test]
fn pipelined_bursts_are_answered_in_request_order() {
    let server = start_server(10, 1, 1);
    let mut c = Client::connect(&server.addr().to_string()).unwrap();
    // A server that held answers across a blocking read fails here
    // instead of hanging.
    c.set_read_timeout(Some(Duration::from_secs(5))).unwrap();

    // One write, ten requests; from `reaches n1 burst` on, the answers
    // depend on the order the requests ran in.
    c.send_raw(
        b"ping\nreaches n0 n0\nfrobnicate n0\nreaches \xff n0\nreaches n0 nope\n\
          reaches n1 burst\nadd-node burst n1\nflush\nreaches n1 burst\n\
          reaches-batch n1 burst burst n1\n",
    )
    .unwrap();
    let unknown_key = ProtoError::UnknownKey.line();
    let want = [
        "ok pong",
        "ok true",
        &ProtoError::UnknownVerb.line(),
        &ProtoError::Utf8.line(),
        &unknown_key,
        &unknown_key,
        "ok added",
        "ok flushed",
        "ok true",
        "ok 1 0",
    ];
    for want in want {
        assert_eq!(c.read_response().unwrap(), want);
    }

    // A burst whose last line is still unterminated: the complete lines
    // are answered while the server waits for the rest.
    c.send_raw(b"ping\nreaches n0 n0\nreaches n0").unwrap();
    assert_eq!(c.read_response().unwrap(), "ok pong");
    assert_eq!(c.read_response().unwrap(), "ok true");
    c.send_raw(b" n0\n").unwrap();
    assert_eq!(c.read_response().unwrap(), "ok true");
    assert_eq!(server.caught_panics(), 0);
    server.stop().expect("accept loop panicked");
}

#[test]
fn one_write_per_drained_burst() {
    let server = start_server(10, 1, 1);
    let mut c = Client::connect(&server.addr().to_string()).unwrap();
    let reqs: Vec<String> =
        (0..64).map(|i| format!("reaches n{} n{}", i % 10, i * 3 % 10)).collect();

    let before = server.writes();
    let burst: String = reqs.iter().map(|r| format!("{r}\n")).collect();
    c.send_raw(burst.as_bytes()).unwrap();
    for _ in &reqs {
        assert!(c.read_response().unwrap().starts_with("ok "));
    }
    assert_eq!(c.request("ping").unwrap(), "ok pong");
    assert_eq!(server.writes() - before, 2, "one write for the burst, one for the ping");

    let before = server.writes();
    for r in &reqs {
        assert!(c.request(r).unwrap().starts_with("ok "));
    }
    assert_eq!(server.writes() - before, 64, "one write per lone request");
    server.stop().expect("accept loop panicked");
}

#[test]
fn concurrent_clients_match_the_in_process_snapshot_reader() {
    for clients in [3, 8] {
        clients_match_the_in_process_snapshot_reader(clients);
    }
}

fn clients_match_the_in_process_snapshot_reader(clients: u32) {
    let nodes = 40;
    let server = start_server(nodes, 7, 2);
    let addr = server.addr().to_string();

    // Churn phase: `clients` clients mix reads and writes over real
    // sockets. Every response must be protocol-clean (`ok ...`): semantic
    // rejections are fine, `err` is not.
    std::thread::scope(|scope| {
        for t in 0..clients {
            let addr = addr.clone();
            scope.spawn(move || {
                let mut c = Client::connect(&addr).unwrap();
                for j in 0..40u32 {
                    let a = format!("n{}", (t * 7 + j) % nodes as u32);
                    let b = format!("n{}", (j * 3 + 1) % nodes as u32);
                    let reqs = [
                        format!("add-node t{t}-{j} {a}"),
                        format!("add-edge {a} {b}"),
                        format!("reaches {a} {b}"),
                        format!("successors {b}"),
                        format!("remove-edge {a} {b}"),
                        format!("reaches-batch {a} {b} {b} {a}"),
                    ];
                    for req in &reqs {
                        let resp = c.request(req).unwrap();
                        assert!(
                            resp.starts_with("ok"),
                            "protocol error during churn ({clients} clients): {req:?} -> {resp:?}"
                        );
                    }
                }
            });
        }
    });

    // Settle: one flush makes reads exact, then compare every pair through
    // the network against the in-process snapshot reader.
    let mut net = Client::connect(&addr).unwrap();
    assert_eq!(net.request("flush").unwrap(), "ok flushed");
    let dict = Dict::from_bytes(&server.engine().dict_bytes()).unwrap();
    let mut reader = server.engine().reader();
    let keys: Vec<(String, NodeId)> = (0..dict.slot_count() as u32)
        .filter_map(|i| dict.key(NodeId(i)).map(|k| (k.to_owned(), NodeId(i))))
        .collect();
    assert!(keys.len() > nodes, "churn added nodes");
    for (ka, &(ref a, ia)) in keys.iter().enumerate().step_by(3) {
        for (kb, &(ref b, ib)) in keys.iter().enumerate().step_by(4) {
            if (ka + kb) % 2 == 0 {
                continue;
            }
            assert_eq!(
                net.reaches(a, b).unwrap(),
                Ok(reader.reaches(ia, ib)),
                "{clients} clients: network reaches({a}, {b}) diverged from the snapshot reader"
            );
        }
    }
    // Successor sets too: network keys == in-process ids mapped by name.
    for &(ref k, id) in keys.iter().step_by(5) {
        let resp = net.request(&format!("successors {k}")).unwrap();
        let mut want: Vec<&str> =
            reader.successors(id).iter().filter_map(|&v| dict.key(v)).collect();
        want.sort_unstable();
        let got: Vec<&str> = resp.strip_prefix("ok").unwrap().split_whitespace().collect();
        assert_eq!(got, want, "{clients} clients: successors({k}) diverged");
    }

    assert_eq!(server.caught_panics(), 0);
    let stats = server.engine().flush();
    assert_eq!(stats.skipped, 0, "shard writers never skip front-validated ops");
    assert_eq!(stats.audit_violation, None);
    server.stop().expect("accept loop panicked");
}

#[test]
fn shutdown_verb_closes_writes_but_not_reads() {
    let server = start_server(8, 3, 1);
    let addr = server.addr().to_string();
    let mut c = Client::connect(&addr).unwrap();
    assert_eq!(c.request("add-node extra n0").unwrap(), "ok added");
    assert_eq!(c.request("shutdown").unwrap(), "ok bye");
    // Writes now answer `err closed`; reads still serve off the final
    // published snapshots, the admitted write included.
    assert!(c.request("add-edge n0 n1").unwrap().starts_with("err closed"));
    assert_eq!(c.reaches("n0", "extra").unwrap(), Ok(true));
    server.stop().expect("accept loop panicked");
}

#[test]
fn dict_codec_survives_its_own_mutation_campaign() {
    // The Dict section gets the same treatment as the closure codec: a
    // mutation campaign (bit flips, truncation, length sabotage, half with
    // re-signed trailers) must never panic the decoder.
    let mut d = Dict::with_default_keys(64);
    for i in 0..16u32 {
        d.unbind(NodeId(i * 3));
    }
    for i in 0..8u32 {
        d.bind(NodeId(i * 3), &format!("re-{i}")).unwrap();
    }
    let base = d.to_bytes();
    let report = tc_fuzz::campaign(&base, 128, 0xD1C7, |bytes| match Dict::from_bytes(bytes) {
        Err(_) => tc_fuzz::CaseOutcome::Rejected,
        Ok(back) => {
            // Semantic check: a decoded dict re-serializes stably and its
            // index agrees with its slots.
            let stable = back.to_bytes() == bytes[..];
            let consistent = (0..back.slot_count() as u32)
                .filter_map(|i| back.key(NodeId(i)).map(|k| (i, k.to_owned())))
                .all(|(i, k)| back.resolve(&k) == Some(NodeId(i)));
            if stable && consistent {
                tc_fuzz::CaseOutcome::OkClean
            } else {
                tc_fuzz::CaseOutcome::OkCorrupt
            }
        }
    });
    assert_eq!(report.cases, 128);
    assert_eq!(report.panics, 0, "dict decoder panicked; seeds {:?}", report.panic_seeds);
    assert!(report.rejected > 0);
}
