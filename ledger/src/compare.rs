//! `ledger compare`: judges a change's runs against its parent's.
//!
//! For every workload and metric both run sets carry, it reports each
//! side's median and quartiles, how many same-index pairs the change won,
//! and a verdict:
//!
//! * **unresolved** — the parent's own IQR is wider than the metric's bound
//!   and the change's runs do not all read better than all of the parent's:
//!   the benchmark cannot tell a regression from noise here;
//! * **worse** — the change's median is worse than the parent's by more
//!   than the bound (a share of the parent's median);
//! * **improved** — the change wins at least 9 pairs in 10, ties counting
//!   for neither side, and the medians differ by more than the parent's IQR;
//! * **no-worse** — everything else.
//!
//! Bounds and directions come from `BENCHMARK.json`'s `end_to_end` list.
//! Metrics a run record carries beyond that list (the workload-specific
//! ones) state their own direction and take [`DEFAULT_BOUND`].

use crate::json::{self, Value};
use crate::stats::{spread, Spread};

/// Bound for metrics `BENCHMARK.json` does not list.
pub const DEFAULT_BOUND: f64 = 0.10;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better (throughput).
    Higher,
    /// Smaller is better (latency, memory, set-up).
    Lower,
}

impl Better {
    /// Parses `"higher"` / `"lower"`.
    pub fn parse(s: &str) -> Option<Better> {
        match s {
            "higher" => Some(Better::Higher),
            "lower" => Some(Better::Lower),
            _ => None,
        }
    }

    /// The `BENCHMARK.json` spelling.
    pub fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }

    /// `+1` when larger is better, `-1` otherwise: multiplying a
    /// difference by it makes "better" positive.
    fn sign(self) -> f64 {
        match self {
            Better::Higher => 1.0,
            Better::Lower => -1.0,
        }
    }
}

/// One `end_to_end` entry of `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// Direction.
    pub better: Better,
    /// Allowed worsening, as a share of the parent's median.
    pub bound: f64,
}

/// Reads the `end_to_end` list of a `BENCHMARK.json` document.
pub fn read_bounds(text: &str) -> Result<Vec<Bound>, String> {
    let doc = json::parse(text)?;
    let list = doc
        .get("end_to_end")
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    list.iter()
        .map(|m| {
            let field = |k: &str| m.get(k).ok_or(format!("end_to_end entry without {k}"));
            Ok(Bound {
                name: field("name")?
                    .as_str()
                    .ok_or("name is not a string")?
                    .to_owned(),
                unit: field("unit")?
                    .as_str()
                    .ok_or("unit is not a string")?
                    .to_owned(),
                better: field("better")?
                    .as_str()
                    .and_then(Better::parse)
                    .ok_or("better is not higher/lower")?,
                bound: field("bound")?.as_f64().ok_or("bound is not a number")?,
            })
        })
        .collect()
}

/// One metric as a run record carries it.
#[derive(Debug, Clone, PartialEq)]
pub struct Observed {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: String,
    /// Direction, when the record states it.
    pub better: Option<Better>,
}

/// One run of one workload, as `ledger --out FILE` appends it.
#[derive(Debug, Clone, PartialEq)]
pub struct Run {
    /// Workload name.
    pub workload: String,
    /// Whether every answer matched the oracle.
    pub correct: bool,
    /// Requests sent.
    pub attempted: u64,
    /// Requests answered `err`, answered wrong, or not answered.
    pub failed: u64,
    /// End-to-end and workload-specific metrics.
    pub metrics: Vec<Observed>,
}

impl Run {
    /// Parses one run record.
    pub fn from_json(v: &Value) -> Result<Run, String> {
        let workload = v
            .get("workload")
            .and_then(Value::as_str)
            .ok_or("record without workload")?;
        let count = |k: &str| -> Result<u64, String> {
            let x = v
                .get(k)
                .and_then(Value::as_f64)
                .ok_or(format!("record without {k}"))?;
            if x < 0.0 || x.fract() != 0.0 {
                return Err(format!("{k} is not a whole number"));
            }
            Ok(x as u64)
        };
        let metrics = v
            .get("metrics")
            .and_then(Value::as_object)
            .ok_or("record without metrics")?
            .iter()
            .map(|(name, m)| {
                Ok(Observed {
                    name: name.clone(),
                    value: m
                        .get("value")
                        .and_then(Value::as_f64)
                        .ok_or(format!("{name} has no value"))?,
                    unit: m
                        .get("unit")
                        .and_then(Value::as_str)
                        .unwrap_or("")
                        .to_owned(),
                    better: m
                        .get("better")
                        .and_then(Value::as_str)
                        .and_then(Better::parse),
                })
            })
            .collect::<Result<_, String>>()?;
        Ok(Run {
            workload: workload.to_owned(),
            correct: v
                .get("correct")
                .and_then(Value::as_bool)
                .ok_or("record without correct")?,
            attempted: count("attempted")?,
            failed: count("failed")?,
            metrics,
        })
    }

    fn value(&self, metric: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == metric)
            .map(|m| m.value)
    }
}

/// Reads a file of run records, one JSON object per line (blank lines
/// skipped).
pub fn read_runs(text: &str) -> Result<Vec<Run>, String> {
    text.lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
        .map(|(i, l)| {
            json::parse(l)
                .and_then(|v| Run::from_json(&v))
                .map_err(|e| format!("line {}: {e}", i + 1))
        })
        .collect()
}

/// The judgement on one (workload, metric).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Better by the pairing rule.
    Improved,
    /// Not worse by more than the bound.
    NoWorse,
    /// Worse by more than the bound.
    Worse,
    /// The parent's spread is wider than the bound.
    Unresolved,
}

impl Verdict {
    /// Lower-case name as printed.
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::NoWorse => "no-worse",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges one metric. `parent[i]` and `change[i]` form pair `i`; the
/// shorter side sets the pair count. Both sides must be non-empty.
pub fn judge(
    parent: &[f64],
    change: &[f64],
    better: Better,
    bound: f64,
) -> (Verdict, usize, usize) {
    let s = better.sign();
    let (p, c) = (
        spread(parent).expect("parent runs"),
        spread(change).expect("change runs"),
    );
    let pairs = parent.len().min(change.len());
    let wins = parent
        .iter()
        .zip(change)
        .filter(|(p, c)| (*c - *p) * s > 0.0)
        .count();
    let worst_change = change.iter().map(|x| x * s).fold(f64::INFINITY, f64::min);
    let best_parent = parent
        .iter()
        .map(|x| x * s)
        .fold(f64::NEG_INFINITY, f64::max);
    let all_better = worst_change > best_parent;
    let gap = (c.median - p.median) * s;
    let verdict = if p.iqr() > bound * p.median.abs() && !all_better {
        Verdict::Unresolved
    } else if -gap > bound * p.median.abs() {
        Verdict::Worse
    } else if wins * 10 >= pairs * 9 && gap > p.iqr() {
        Verdict::Improved
    } else {
        Verdict::NoWorse
    };
    (verdict, wins, pairs)
}

/// One line of the comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// Unit.
    pub unit: String,
    /// Parent runs' spread.
    pub parent: Spread,
    /// Change runs' spread.
    pub change: Spread,
    /// Pairs the change won.
    pub wins: usize,
    /// Pairs compared.
    pub pairs: usize,
    /// The bound applied.
    pub bound: f64,
    /// The judgement.
    pub verdict: Verdict,
}

/// Every row plus the problems that fail the comparison outright.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Report {
    /// One row per (workload, metric), workloads in first-seen order.
    pub rows: Vec<Row>,
    /// Incorrect runs, a higher failed share, metrics only one side has.
    pub problems: Vec<String>,
}

impl Report {
    /// Whether the change passes: no problem and no "worse" row.
    pub fn passed(&self) -> bool {
        self.problems.is_empty() && self.rows.iter().all(|r| r.verdict != Verdict::Worse)
    }

    /// The report as an aligned text table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let mut last = "";
        for r in &self.rows {
            if r.workload != last {
                out.push_str(&format!(
                    "## {}\n{:<28} {:>6} {:>36} {:>36} {:>8} {:>6} {:>6}  verdict\n",
                    r.workload,
                    "metric",
                    "unit",
                    "parent median [q1, q3]",
                    "change median [q1, q3]",
                    "delta",
                    "wins",
                    "bound"
                ));
                last = &r.workload;
            }
            let cell = |s: &Spread| format!("{:.4} [{:.4}, {:.4}]", s.median, s.q1, s.q3);
            let delta = if r.parent.median != 0.0 {
                format!(
                    "{:+.1}%",
                    100.0 * (r.change.median - r.parent.median) / r.parent.median.abs()
                )
            } else {
                "n/a".to_owned()
            };
            out.push_str(&format!(
                "{:<28} {:>6} {:>36} {:>36} {:>8} {:>6} {:>5.0}%  {}\n",
                r.metric,
                r.unit,
                cell(&r.parent),
                cell(&r.change),
                delta,
                format!("{}/{}", r.wins, r.pairs),
                100.0 * r.bound,
                r.verdict.name()
            ));
        }
        for p in &self.problems {
            out.push_str(&format!("PROBLEM: {p}\n"));
        }
        out
    }
}

/// Compares two sets of run records metric by metric.
pub fn compare(parent: &[Run], change: &[Run], bounds: &[Bound]) -> Report {
    let mut report = Report::default();
    let mut workloads: Vec<&str> = Vec::new();
    for r in parent.iter().chain(change) {
        if !workloads.contains(&r.workload.as_str()) {
            workloads.push(&r.workload);
        }
        if !r.correct {
            report
                .problems
                .push(format!("{}: a run answered incorrectly", r.workload));
        }
    }
    for w in workloads {
        let p: Vec<&Run> = parent.iter().filter(|r| r.workload == w).collect();
        let c: Vec<&Run> = change.iter().filter(|r| r.workload == w).collect();
        if p.is_empty() || c.is_empty() {
            report.problems.push(format!("{w}: runs on one side only"));
            continue;
        }
        let frac = |rs: &[&Run]| {
            let att: u64 = rs.iter().map(|r| r.attempted).sum();
            rs.iter().map(|r| r.failed).sum::<u64>() as f64 / att.max(1) as f64
        };
        if frac(&c) > frac(&p) {
            report.problems.push(format!(
                "{w}: failed share rose from {} to {}",
                frac(&p),
                frac(&c)
            ));
        }
        let mut names: Vec<&Observed> = Vec::new();
        for m in p.iter().chain(&c).flat_map(|r| &r.metrics) {
            if !names.iter().any(|n| n.name == m.name) {
                names.push(m);
            }
        }
        for m in names {
            let values = |rs: &[&Run]| {
                rs.iter()
                    .filter_map(|r| r.value(&m.name))
                    .collect::<Vec<f64>>()
            };
            let (pv, cv) = (values(&p), values(&c));
            if pv.len() != p.len() || cv.len() != c.len() {
                report
                    .problems
                    .push(format!("{w}: {} is missing from some runs", m.name));
                continue;
            }
            let listed = bounds.iter().find(|b| b.name == m.name);
            let Some(better) = listed.map(|b| b.better).or(m.better) else {
                report
                    .problems
                    .push(format!("{w}: {} states no direction", m.name));
                continue;
            };
            let bound = listed.map_or(DEFAULT_BOUND, |b| b.bound);
            let (verdict, wins, pairs) = judge(&pv, &cv, better, bound);
            report.rows.push(Row {
                workload: w.to_owned(),
                metric: m.name.clone(),
                unit: m.unit.clone(),
                parent: spread(&pv).expect("non-empty"),
                change: spread(&cv).expect("non-empty"),
                wins,
                pairs,
                bound,
                verdict,
            });
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(workload: &str, ops: f64, p50: f64) -> Run {
        Run {
            workload: workload.to_owned(),
            correct: true,
            attempted: 100,
            failed: 0,
            metrics: vec![
                Observed {
                    name: "ops_per_s".into(),
                    value: ops,
                    unit: "1/s".into(),
                    better: None,
                },
                Observed {
                    name: "p50_us".into(),
                    value: p50,
                    unit: "us".into(),
                    better: None,
                },
            ],
        }
    }

    fn bounds() -> Vec<Bound> {
        vec![
            Bound {
                name: "ops_per_s".into(),
                unit: "1/s".into(),
                better: Better::Higher,
                bound: 0.1,
            },
            Bound {
                name: "p50_us".into(),
                unit: "us".into(),
                better: Better::Lower,
                bound: 0.1,
            },
        ]
    }

    fn runs(ops: impl IntoIterator<Item = f64>) -> Vec<Run> {
        ops.into_iter()
            .map(|o| run("read_point", o, 10.0))
            .collect()
    }

    fn verdict_of(report: &Report, metric: &str) -> Verdict {
        report
            .rows
            .iter()
            .find(|r| r.metric == metric)
            .unwrap()
            .verdict
    }

    #[test]
    fn same_commit_is_no_worse() {
        let p = runs((0..10).map(|i| 1000.0 + i as f64));
        let c = runs((0..10).map(|i| 1009.0 - i as f64));
        let r = compare(&p, &c, &bounds());
        assert_eq!(verdict_of(&r, "ops_per_s"), Verdict::NoWorse);
        assert_eq!(
            verdict_of(&r, "p50_us"),
            Verdict::NoWorse,
            "ties win for neither side"
        );
        assert!(r.passed(), "{}", r.render());
    }

    #[test]
    fn a_clear_gain_is_improved_and_a_loss_is_worse() {
        let p = runs((0..10).map(|i| 1000.0 + i as f64));
        let faster = runs((0..10).map(|i| 1100.0 + i as f64));
        let r = compare(&p, &faster, &bounds());
        assert_eq!(verdict_of(&r, "ops_per_s"), Verdict::Improved);
        assert!(r.passed());
        let slower = runs((0..10).map(|i| 850.0 + i as f64));
        let r = compare(&p, &slower, &bounds());
        assert_eq!(verdict_of(&r, "ops_per_s"), Verdict::Worse);
        assert!(!r.passed());
        assert!(r.render().contains("worse"));
    }

    #[test]
    fn eight_wins_in_ten_is_not_a_gain() {
        let p = runs((0..10).map(|i| 1000.0 + i as f64));
        let mut c: Vec<f64> = (0..10).map(|i| 1100.0 + i as f64).collect();
        c[0] = 900.0;
        c[1] = 900.0;
        let r = compare(&p, &runs(c), &bounds());
        let row = r.rows.iter().find(|r| r.metric == "ops_per_s").unwrap();
        assert_eq!((row.wins, row.pairs), (8, 10));
        assert_eq!(row.verdict, Verdict::NoWorse);
    }

    #[test]
    fn a_noisy_parent_leaves_the_metric_unresolved() {
        let p = runs([500.0, 1500.0, 700.0, 1300.0, 1000.0]);
        let c = runs([600.0, 1400.0, 800.0, 1200.0, 950.0]);
        let r = compare(&p, &c, &bounds());
        assert_eq!(verdict_of(&r, "ops_per_s"), Verdict::Unresolved);
        assert!(r.passed(), "unresolved does not fail the comparison");
        // ... unless every change run beats every parent run.
        let c = runs([2000.0, 2100.0, 2200.0, 2300.0, 2400.0]);
        assert_eq!(
            verdict_of(&compare(&p, &c, &bounds()), "ops_per_s"),
            Verdict::Improved
        );
    }

    #[test]
    fn lower_is_better_metrics_flip_the_sign() {
        let (v, wins, pairs) = judge(&[10.0, 10.1, 10.2], &[12.0, 12.1, 12.2], Better::Lower, 0.1);
        assert_eq!((v, wins, pairs), (Verdict::Worse, 0, 3));
        let (v, wins, _) = judge(&[10.0, 10.1, 10.2], &[8.0, 8.1, 8.2], Better::Lower, 0.1);
        assert_eq!((v, wins), (Verdict::Improved, 3));
    }

    #[test]
    fn failures_and_missing_metrics_are_problems() {
        let p = runs([1000.0, 1001.0]);
        let mut c = runs([1000.0, 1001.0]);
        c[1].failed = 1;
        let r = compare(&p, &c, &bounds());
        assert!(!r.passed());
        assert!(r.problems[0].contains("failed share rose"));
        let mut c = runs([1000.0, 1001.0]);
        c[0].metrics.pop();
        c[1].correct = false;
        let r = compare(&p, &c, &bounds());
        assert_eq!(r.problems.len(), 2, "{:?}", r.problems);
        let r = compare(&p, &[run("kb_ingest", 1.0, 1.0)], &bounds());
        assert_eq!(
            r.problems.len(),
            2,
            "both workloads are one-sided: {:?}",
            r.problems
        );
    }

    #[test]
    fn unlisted_metrics_use_their_own_direction_and_the_default_bound() {
        let mut p = runs([1000.0, 1001.0, 1002.0]);
        let mut c = runs([1000.0, 1001.0, 1002.0]);
        for (i, r) in p.iter_mut().chain(c.iter_mut()).enumerate() {
            let v = if i < 3 { 5.0 } else { 5.6 };
            r.metrics.push(Observed {
                name: "write_ack_p50_ms".into(),
                value: v,
                unit: "ms".into(),
                better: Some(Better::Lower),
            });
        }
        let r = compare(&p, &c, &bounds());
        let row = r
            .rows
            .iter()
            .find(|r| r.metric == "write_ack_p50_ms")
            .unwrap();
        assert_eq!((row.verdict, row.bound), (Verdict::Worse, DEFAULT_BOUND));
        p[0].metrics.push(Observed {
            name: "mystery".into(),
            value: 1.0,
            unit: "".into(),
            better: None,
        });
        for r in p.iter_mut().chain(c.iter_mut()).skip(1) {
            r.metrics.push(Observed {
                name: "mystery".into(),
                value: 1.0,
                unit: "".into(),
                better: None,
            });
        }
        let r = compare(&p, &c, &bounds());
        assert!(
            r.problems
                .iter()
                .any(|p| p.contains("mystery states no direction")),
            "{:?}",
            r.problems
        );
    }

    #[test]
    fn records_and_bounds_parse() {
        let line = r#"{"workload":"read_point","seed":1,"correct":true,"attempted":10,"failed":0,"metrics":{"p50_us":{"value":9.5,"unit":"us"},"write_ack_p50_ms":{"value":2,"unit":"ms","better":"lower"}}}"#;
        let rs = read_runs(&format!("{line}\n\n{line}\n")).unwrap();
        assert_eq!(rs.len(), 2);
        assert_eq!(rs[0].value("p50_us"), Some(9.5));
        assert_eq!(rs[0].metrics[1].better, Some(Better::Lower));
        assert!(read_runs("{\"workload\":\"x\"}")
            .unwrap_err()
            .starts_with("line 1"));
        assert!(read_runs(&line.replace("\"attempted\":10", "\"attempted\":1.5")).is_err());
        let bench =
            r#"{"end_to_end":[{"name":"setup_s","unit":"s","better":"lower","bound":0.25}]}"#;
        let b = read_bounds(bench).unwrap();
        assert_eq!(
            b[0],
            Bound {
                name: "setup_s".into(),
                unit: "s".into(),
                better: Better::Lower,
                bound: 0.25
            }
        );
        assert!(read_bounds("{}").is_err());
        assert!(read_bounds(&bench.replace("lower", "sideways")).is_err());
    }
}
