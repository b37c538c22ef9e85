//! End-to-end tests driving the `interval-tc` binary as a subprocess.

use std::path::PathBuf;
use std::process::{Command, Output};

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_interval-tc"))
}

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("interval_tc_cli_{name}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn gen_stats_query_pipeline() {
    let dir = tmpdir("pipeline");
    let edges = dir.join("g.txt");

    let out = bin().args(["gen", "30", "2.0", "5"]).output().unwrap();
    assert!(out.status.success());
    std::fs::write(&edges, &out.stdout).unwrap();

    let out = bin().args(["stats", edges.to_str().unwrap()]).output().unwrap();
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("nodes                 30"));
    assert!(text.contains("compressed units"));
    assert!(text.contains("full closure units"));

    // A reflexive query always succeeds.
    let out = bin()
        .args(["query", edges.to_str().unwrap(), "3", "3"])
        .output()
        .unwrap();
    assert!(out.status.success());
    assert!(stdout(&out).contains("3 ->* 3: true"));

    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn compress_then_query_closure_file() {
    let dir = tmpdir("compress");
    let edges = dir.join("g.txt");
    let itc = dir.join("g.itc");
    std::fs::write(&edges, "0 1\n1 2\n2 3\n").unwrap();

    let out = bin()
        .args(["compress", edges.to_str().unwrap(), itc.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(itc.exists());

    // Query straight from the compressed artifact (no rebuild).
    let out = bin()
        .args(["query", itc.to_str().unwrap(), "0", "3"])
        .output()
        .unwrap();
    assert!(out.status.success());
    assert!(stdout(&out).contains("true"));

    // Unreachable pairs exit non-zero.
    let out = bin()
        .args(["query", itc.to_str().unwrap(), "3", "0"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(stdout(&out).contains("false"));

    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn successors_and_predecessors() {
    let dir = tmpdir("succ");
    let edges = dir.join("g.txt");
    std::fs::write(&edges, "0 1\n0 2\n1 3\n2 3\n").unwrap();

    let out = bin()
        .args(["successors", edges.to_str().unwrap(), "0"])
        .output()
        .unwrap();
    assert!(out.status.success());
    assert_eq!(stdout(&out), "0\n1\n2\n3\n");

    let out = bin()
        .args(["predecessors", edges.to_str().unwrap(), "3"])
        .output()
        .unwrap();
    assert!(out.status.success());
    assert_eq!(stdout(&out), "0\n1\n2\n3\n");

    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn path_prints_a_witness() {
    let dir = tmpdir("path");
    let edges = dir.join("g.txt");
    std::fs::write(&edges, "0 1\n1 2\n0 3\n").unwrap();
    let out = bin()
        .args(["path", edges.to_str().unwrap(), "0", "2"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", stderr(&out));
    assert_eq!(stdout(&out), "0 -> 1 -> 2\n");
    let out = bin()
        .args(["path", edges.to_str().unwrap(), "3", "2"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(stderr(&out).contains("no path"));
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn info_reports_metrics_even_for_cyclic_graphs() {
    let dir = tmpdir("info");
    let edges = dir.join("g.txt");
    std::fs::write(&edges, "0 1\n1 0\n1 2\n").unwrap();
    // stats would fail (cyclic), info must not.
    let out = bin().args(["info", edges.to_str().unwrap()]).output().unwrap();
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("acyclic          false"));
    assert!(text.contains("SCCs             2"));
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn dot_renders() {
    let dir = tmpdir("dot");
    let edges = dir.join("g.txt");
    std::fs::write(&edges, "0 1\n").unwrap();
    let out = bin().args(["dot", edges.to_str().unwrap()]).output().unwrap();
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.starts_with("digraph"));
    assert!(text.contains("0 -> 1"));
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn serve_command_verifies_and_reports_throughput() {
    let dir = tmpdir("serve");
    let edges = dir.join("g.txt");
    let out = bin().args(["gen", "60", "2.0", "9"]).output().unwrap();
    assert!(out.status.success());
    std::fs::write(&edges, &out.stdout).unwrap();

    let out = bin()
        .args([
            "serve",
            edges.to_str().unwrap(),
            "--readers",
            "2",
            "--duration-ms",
            "150",
            "--churn",
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("verified against the closure"), "{text}");
    assert!(text.contains("probes/s"), "{text}");
    assert!(text.contains("snapshots published"), "{text}");

    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn serve_shards_flag_in_both_spellings() {
    let dir = tmpdir("serve_shards");
    let edges = dir.join("g.txt");
    let out = bin().args(["gen", "60", "2.0", "9"]).output().unwrap();
    assert!(out.status.success());
    std::fs::write(&edges, &out.stdout).unwrap();

    // `--shards N` spelling, with churn fanned out to the per-shard writers.
    let out = bin()
        .args([
            "serve",
            edges.to_str().unwrap(),
            "--readers",
            "2",
            "--duration-ms",
            "150",
            "--churn",
            "--shards",
            "2",
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("into 2 shards"), "{text}");
    assert!(text.contains("verified against the unsharded closure"), "{text}");
    assert!(text.contains("probes/s"), "{text}");
    assert!(text.contains("front end:"), "{text}");

    // `--shards=N` spelling, read-only.
    let out = bin()
        .args([
            "serve",
            edges.to_str().unwrap(),
            "--duration-ms",
            "100",
            "--shards=3",
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("into 3 shards"), "{text}");

    // `--shards 1` runs the same sharded harness on a single shard.
    let out = bin()
        .args([
            "serve",
            edges.to_str().unwrap(),
            "--duration-ms",
            "100",
            "--shards",
            "1",
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("into 1 shard "), "{text}");
    assert!(text.contains("snapshots published"), "{text}");
    assert!(text.contains("front end:"), "{text}");

    // Zero and garbage are rejected up front.
    let out = bin()
        .args(["serve", edges.to_str().unwrap(), "--shards", "0"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(stderr(&out).contains("--shards must be at least 1"));

    let out = bin()
        .args(["serve", edges.to_str().unwrap(), "--shards", "many"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(stderr(&out).contains("invalid --shards"));

    let _ = std::fs::remove_dir_all(dir);
}

/// Both serving forms build their shards with the loaded closure's
/// config: an `.itc` footer's thread count and hybrid threshold reach the
/// served planes, and an explicit global flag still overrides the footer.
#[test]
fn serve_builds_shards_with_the_loaded_closure_config() {
    use std::io::{BufRead, BufReader, Write};

    let dir = tmpdir("serve_config");
    let edges = dir.join("g.txt");
    let itc = dir.join("g.itc");
    let out = bin().args(["gen", "80", "2.0", "7"]).output().unwrap();
    assert!(out.status.success());
    std::fs::write(&edges, &out.stdout).unwrap();
    let out = bin()
        .args(["compress", edges.to_str().unwrap(), itc.to_str().unwrap()])
        .args(["--hybrid", "8", "--threads", "3"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", stderr(&out));

    for (extra, threads) in [(None, "threads: 3,"), (Some("2"), "threads: 2,")] {
        let mut cmd = bin();
        cmd.args(["serve", itc.to_str().unwrap(), "--duration-ms", "50", "--shards", "2"]);
        if let Some(t) = extra {
            cmd.args(["--threads", t]);
        }
        let out = cmd.output().unwrap();
        assert!(out.status.success(), "{}", stderr(&out));
        let text = stdout(&out);
        let config = text.lines().find(|l| l.starts_with("shard config")).unwrap_or("");
        assert!(config.contains(threads), "{text}");
        assert!(config.contains("hybrid_threshold: 8 "), "{text}");
    }

    // The daemon: read the config and bound address off stdout, then stop
    // it over the wire.
    let mut child = bin()
        .args(["serve", itc.to_str().unwrap(), "--listen", "127.0.0.1:0"])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .unwrap();
    let mut lines = BufReader::new(child.stdout.take().unwrap()).lines();
    let mut before = Vec::new();
    let addr = loop {
        let line = lines.next().expect("daemon exited before binding").unwrap();
        if line.starts_with("serving ") {
            break line.rsplit(" on ").next().unwrap().to_string();
        }
        before.push(line);
    };
    // One pipelined write; the answers come back in request order.
    let mut conn = std::net::TcpStream::connect(&addr).unwrap();
    conn.set_read_timeout(Some(std::time::Duration::from_secs(5))).unwrap();
    conn.write_all(b"ping\nreaches n0 n0\nshutdown\n").unwrap();
    let replies: Vec<String> = BufReader::new(&conn).lines().take(3).map(Result::unwrap).collect();
    assert_eq!(replies, ["ok pong", "ok true", "ok bye"]);
    assert!(child.wait().unwrap().success());
    let config = before.iter().find(|l| l.starts_with("shard config"));
    let config = config.map_or("", String::as_str);
    assert!(config.contains("threads: 3,"), "{before:?}");
    assert!(config.contains("hybrid_threshold: 8 "), "{before:?}");

    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn fuzz_shards_flag_replays_through_the_sharded_service() {
    let out = bin()
        .args(["fuzz", "--ops", "60", "--seed", "3", "--shards", "2", "--reserve", "4"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("ok"));
}

#[test]
fn fuzz_serve_flag_runs_clean() {
    let out = bin()
        .args(["fuzz", "--ops", "80", "--seed", "2", "--serve", "--reserve", "4"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("ok"));
}

#[test]
fn fuzz_delete_bias_runs_under_both_deletion_recomputes() {
    // The same deletion-heavy seed must come out clean with the scoped
    // affected-region recompute (default) and with the historical global
    // sweep selected by the global flag, in both spellings.
    let out = bin()
        .args(["fuzz", "--ops", "100", "--seed", "4", "--delete-bias", "--reserve", "4"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("ok"));

    let out = bin()
        .args([
            "fuzz",
            "--ops",
            "100",
            "--seed",
            "4",
            "--delete-bias",
            "--reserve",
            "4",
            "--scoped-deletes",
            "off",
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("ok"));

    let out = bin()
        .args(["fuzz", "--ops", "40", "--seed", "4", "--scoped-deletes=on"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", stderr(&out));

    let out = bin()
        .args(["fuzz", "--ops", "10", "--scoped-deletes", "sideways"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(stderr(&out).contains("invalid --scoped-deletes"));
}

#[test]
fn paged_flag_round_trips_compress_query_serve_and_fuzz() {
    let dir = tmpdir("paged");
    let edges = dir.join("g.txt");
    let itc = dir.join("g.itc");
    let out = bin().args(["gen", "80", "2.0", "7"]).output().unwrap();
    assert!(out.status.success());
    std::fs::write(&edges, &out.stdout).unwrap();

    // compress --paged appends the PLN2 plane section and its HYB1
    // overlay (closed by a 60-byte trailer) ...
    let out = bin()
        .args(["compress", edges.to_str().unwrap(), itc.to_str().unwrap(), "--paged", "4"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stderr(&out).contains("instant restart"), "{}", stderr(&out));
    let image = std::fs::read(&itc).unwrap();
    assert_eq!(&image[image.len() - 60..image.len() - 56], b"HYB1");

    // ... and every command still reads the image, resident or paged
    // through a deliberately tiny (eviction-forcing) pool. Answers must
    // match the pure edge-list build.
    for probe in [
        vec!["successors", itc.to_str().unwrap(), "0"],
        vec!["successors", itc.to_str().unwrap(), "0", "--paged=2", "--frozen"],
        vec!["successors", edges.to_str().unwrap(), "0"],
    ] {
        let out = bin().args(&probe).output().unwrap();
        assert!(out.status.success(), "{probe:?}: {}", stderr(&out));
    }
    let resident = bin().args(["successors", itc.to_str().unwrap(), "0"]).output().unwrap();
    let paged = bin()
        .args(["successors", itc.to_str().unwrap(), "0", "--paged=2", "--frozen"])
        .output()
        .unwrap();
    assert_eq!(stdout(&resident), stdout(&paged));

    // The serving benchmark publishes out-of-core snapshots and still
    // verifies every spot-check against the closure.
    let out = bin()
        .args([
            "serve",
            edges.to_str().unwrap(),
            "--duration-ms",
            "100",
            "--paged",
            "3",
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("verified against the closure"), "{}", stdout(&out));

    // Fuzz: --paged mixes paged-probe ops into the stream.
    let out = bin()
        .args(["fuzz", "--ops", "60", "--seed", "5", "--reserve", "4", "--paged", "2"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("ok"));

    // Zero and garbage pool sizes are rejected up front.
    let out = bin()
        .args(["stats", edges.to_str().unwrap(), "--paged", "0"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(stderr(&out).contains("--paged must be at least 1"));
    let out = bin()
        .args(["stats", edges.to_str().unwrap(), "--paged", "lots"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(stderr(&out).contains("invalid --paged"));

    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn fuzz_codec_runs_both_mutation_campaigns() {
    let out = bin()
        .args(["fuzz", "--codec", "--seeds", "48", "--seed", "11"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("codec mutation campaign: 48 cases"), "{text}");
    assert!(text.contains("paged-plane mutation campaign: 48 cases"), "{text}");
    assert!(text.contains("0 panics"), "{text}");
}

#[test]
fn errors_are_reported() {
    // Unknown command.
    let out = bin().args(["frobnicate"]).output().unwrap();
    assert!(!out.status.success());
    assert!(stderr(&out).contains("unknown command"));
    assert!(stderr(&out).contains("usage"));

    // Missing file.
    let out = bin().args(["stats", "/nonexistent/file"]).output().unwrap();
    assert!(!out.status.success());

    // Cyclic input.
    let dir = tmpdir("cycle");
    let edges = dir.join("g.txt");
    std::fs::write(&edges, "0 1\n1 0\n").unwrap();
    let out = bin().args(["stats", edges.to_str().unwrap()]).output().unwrap();
    assert!(!out.status.success());
    assert!(stderr(&out).contains("cycle"));

    // Node out of range.
    std::fs::write(&edges, "0 1\n").unwrap();
    let out = bin()
        .args(["query", edges.to_str().unwrap(), "0", "99"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(stderr(&out).contains("out of range"));

    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn stdin_input() {
    use std::io::Write as _;
    use std::process::Stdio;
    let mut child = bin()
        .args(["successors", "-", "0"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(b"0 1\n1 2\n")
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success(), "{}", stderr(&out));
    assert_eq!(stdout(&out), "0\n1\n2\n");
}
