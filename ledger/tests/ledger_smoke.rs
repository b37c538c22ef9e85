//! Runs all four workloads on miniature inputs, with the same oracle gates,
//! and checks the result lines against `BENCHMARK.json`: every listed
//! metric printed with its unit, every answer correct. Then compares the
//! run records with themselves.

use std::path::{Path, PathBuf};
use std::process::Command;

use tc_ledger::json::{self, Value};

fn benchmark() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    json::parse(&std::fs::read_to_string(&path).expect("BENCHMARK.json next to the package"))
        .expect("valid JSON")
}

fn names(doc: &Value, key: &str) -> Vec<String> {
    doc.get(key)
        .and_then(Value::as_array)
        .expect("a list")
        .iter()
        .map(|e| {
            e.get("name")
                .and_then(Value::as_str)
                .expect("a name")
                .to_owned()
        })
        .collect()
}

fn ledger(args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_ledger"))
        .args(args)
        .output()
        .expect("the ledger binary runs");
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    if !out.status.success() {
        eprintln!("{}", String::from_utf8_lossy(&out.stderr));
    }
    (out.status.success(), stdout)
}

/// The result line of one workload run, checked against `list`.
fn check_run(workload: &str, trace: &str, records: &Path, list: &[Value]) {
    let records = records.to_str().expect("UTF-8 path");
    let args = [
        "--workload",
        workload,
        "--seed",
        "3",
        "--seconds",
        "1",
        "--trace",
        trace,
        "--smoke",
        "--out",
        records,
    ];
    let (ok, stdout) = ledger(&args);
    assert!(ok, "{workload} --trace {trace} failed");
    let last = stdout.lines().last().expect("a result line");
    let result = json::parse(last).expect("the last line is JSON");
    let keys: Vec<&str> = result
        .as_object()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(
        result.get("correct"),
        Some(&Value::Bool(true)),
        "{workload}: {last}"
    );
    assert_eq!(
        result.get("failed").and_then(Value::as_f64),
        Some(0.0),
        "{workload}: failed_frac must be 0"
    );
    assert!(
        result
            .get("attempted")
            .and_then(Value::as_f64)
            .expect("attempted")
            >= 1.0
    );
    let metrics = result
        .get("metrics")
        .and_then(Value::as_object)
        .expect("metrics");
    assert_eq!(
        metrics.len(),
        list.len(),
        "{workload}: exactly the listed metrics"
    );
    for m in list {
        let name = m.get("name").and_then(Value::as_str).expect("name");
        let got = result
            .get("metrics")
            .and_then(|ms| ms.get(name))
            .unwrap_or_else(|| panic!("{workload}: {name} missing"));
        assert_eq!(got.get("unit"), m.get("unit"), "{workload}: {name}'s unit");
        let v = got
            .get("value")
            .and_then(Value::as_f64)
            .unwrap_or_else(|| panic!("{workload}: {name} has no number"));
        assert!(v.is_finite(), "{workload}: {name} = {v}");
    }
}

#[test]
fn every_workload_prints_every_listed_metric_and_answers_correctly() {
    let bench = benchmark();
    let workloads = names(&bench, "workloads");
    assert_eq!(
        workloads,
        ["read_point", "read_write_mix", "batch_paged", "kb_ingest"]
    );
    let e2e = bench
        .get("end_to_end")
        .and_then(Value::as_array)
        .expect("end_to_end")
        .to_vec();
    let layers = bench
        .get("per_layer")
        .and_then(Value::as_array)
        .expect("per_layer")
        .to_vec();
    assert!(names(&bench, "end_to_end").contains(&"setup_s".to_owned()));
    let records = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("ledger_smoke_runs.jsonl");
    let _ = std::fs::remove_file(&records);
    for w in &workloads {
        check_run(w, "0", &records, &e2e);
        check_run(w, "1", &records, &layers);
    }
    // A record set judged against itself: nothing is worse.
    let bench_path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let (r, b) = (
        records.to_str().expect("UTF-8"),
        bench_path.to_str().expect("UTF-8"),
    );
    let (ok, report) = ledger(&["compare", r, r, "--bench", b]);
    assert!(ok, "{report}");
    for w in &workloads {
        assert!(report.contains(&format!("## {w}")), "{report}");
    }
    assert!(
        report
            .lines()
            .all(|l| !l.ends_with(" worse") && !l.starts_with("PROBLEM")),
        "{report}"
    );
}

#[test]
fn bad_arguments_fail_without_a_result_line() {
    for args in [
        &["--workload", "nope"][..],
        &["--trace", "2"],
        &["--seconds", "-1"],
        &["--frobnicate", "1"],
        &["compare", "one"],
    ] {
        let (ok, stdout) = ledger(args);
        assert!(!ok, "{args:?} was accepted");
        assert!(stdout.is_empty(), "{args:?} printed {stdout:?}");
    }
}
