//! Shared experiment-harness utilities: aligned table printing, CSV output,
//! seed-averaged measurement, and command-line parsing for the figure
//! binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the paper
//! (see DESIGN.md §4 for the index) by printing the series the paper plots
//! and writing a CSV next to it under `results/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use std::fmt::Write as _;
use std::path::Path;

/// A simple right-aligned results table that doubles as a CSV writer.
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given title and column headers.
    pub fn new(title: &str, headers: &[&str]) -> Self {
        Table {
            title: title.to_string(),
            headers: headers.iter().map(|h| h.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header count).
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells.to_vec());
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (ix, cell) in row.iter().enumerate() {
                widths[ix] = widths[ix].max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "## {}", self.title);
        let line = |cells: &[String], widths: &[usize]| -> String {
            let mut s = String::new();
            for (ix, cell) in cells.iter().enumerate() {
                if ix > 0 {
                    s.push_str("  ");
                }
                let _ = write!(s, "{:>width$}", cell, width = widths[ix]);
            }
            s
        };
        let _ = writeln!(out, "{}", line(&self.headers, &widths));
        let _ = writeln!(out, "{}", "-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        for row in &self.rows {
            let _ = writeln!(out, "{}", line(row, &widths));
        }
        out
    }

    /// Prints the table to stdout.
    pub fn print(&self) {
        println!("{}", self.render());
    }

    /// Writes the table as CSV.
    pub fn write_csv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = String::new();
        let _ = writeln!(out, "{}", self.headers.join(","));
        for row in &self.rows {
            let _ = writeln!(out, "{}", row.join(","));
        }
        std::fs::write(path, out)
    }

    /// Prints the table and writes `results/<name>.csv`, reporting the path.
    pub fn finish(&self, name: &str) {
        self.print();
        let path = results_dir().join(format!("{name}.csv"));
        match self.write_csv(&path) {
            Ok(()) => println!("(csv written to {})", path.display()),
            Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
        }
    }
}

/// The `results/` directory at the workspace root (falls back to the
/// current directory when run from elsewhere).
pub fn results_dir() -> std::path::PathBuf {
    let manifest = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(Path::parent)
        .map(|ws| ws.join("results"))
        .unwrap_or_else(|| std::path::PathBuf::from("results"))
}

/// Arithmetic mean.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Sample standard deviation.
pub fn stddev(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    (xs.iter().map(|x| (x - m).powi(2)).sum::<f64>() / (xs.len() - 1) as f64).sqrt()
}

/// Minimal flag parser: `--key value` pairs and bare `--switch`es, checked
/// against the flags a bin reads.
#[derive(Debug, Clone)]
pub struct Args {
    pairs: Vec<(String, Option<String>)>,
    known: &'static [&'static str],
}

impl Args {
    /// Parses the process arguments. `known` names every flag the bin
    /// reads; any other argument exits with status 2 and a message naming
    /// it, before the bin does any work.
    pub fn parse(known: &'static [&'static str]) -> Self {
        let raw: Vec<String> = std::env::args().skip(1).collect();
        Self::from_raw(&raw, known).unwrap_or_else(|msg| {
            eprintln!("error: {msg}");
            std::process::exit(2)
        })
    }

    fn from_raw(raw: &[String], known: &'static [&'static str]) -> Result<Self, String> {
        let mut pairs = Vec::new();
        let mut ix = 0;
        while ix < raw.len() {
            let key = raw[ix]
                .strip_prefix("--")
                .filter(|key| known.contains(key))
                .ok_or_else(|| {
                    let flags: Vec<String> = known.iter().map(|k| format!("--{k}")).collect();
                    if flags.is_empty() {
                        format!("unknown flag {:?}; this bin takes no flags", raw[ix])
                    } else {
                        format!("unknown flag {:?}; this bin reads {}", raw[ix], flags.join(" "))
                    }
                })?;
            let value = raw
                .get(ix + 1)
                .filter(|next| !next.starts_with("--"))
                .cloned();
            ix += if value.is_some() { 2 } else { 1 };
            pairs.push((key.to_string(), value));
        }
        Ok(Args { pairs, known })
    }

    /// A `--key value` parsed as `T`, or `default` when `--key` is absent.
    /// A `--key` without a value, or with one that does not parse, exits
    /// with status 2 and a message naming the flag.
    pub fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> T {
        self.check_known(key);
        let value = self.pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_deref());
        parse_flag(key, value, default).unwrap_or_else(|msg| {
            eprintln!("error: {msg}");
            std::process::exit(2)
        })
    }

    /// Whether a bare `--switch` was passed.
    pub fn has(&self, key: &str) -> bool {
        self.check_known(key);
        self.pairs.iter().any(|(k, _)| k == key)
    }

    /// A read of a flag missing from `known` is a bug in the bin: the
    /// parser would have rejected that flag on the command line.
    fn check_known(&self, key: &str) {
        assert!(self.known.contains(&key), "--{key} is read but not declared to Args::parse");
    }
}

/// The value of `--key`: `value` is `None` when the flag is absent (then
/// `default`) and `Some(None)` when it was given without a value.
fn parse_flag<T: std::str::FromStr>(
    key: &str,
    value: Option<Option<&str>>,
    default: T,
) -> Result<T, String> {
    match value {
        None => Ok(default),
        Some(None) => Err(format!("--{key} needs a value")),
        Some(Some(v)) => v
            .parse()
            .map_err(|_| format!("--{key} {v:?} is not a valid {}", std::any::type_name::<T>())),
    }
}

/// Formats a float with 2 decimals (the figures' precision).
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

/// Formats a float with 3 decimals.
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("demo", &["k", "value"]);
        t.row(&["1".to_string(), "10".to_string()]);
        t.row(&["22".to_string(), "3".to_string()]);
        let s = t.render();
        assert!(s.contains("## demo"));
        assert!(s.contains(" k  value"));
        assert!(s.contains(" 1     10"));
        assert!(s.contains("22      3"));
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn row_width_checked() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.row(&["1".to_string()]);
    }

    #[test]
    fn csv_output() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.row(&["1".to_string(), "2".to_string()]);
        let dir = std::env::temp_dir().join("tc_bench_test");
        let path = dir.join("t.csv");
        t.write_csv(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text, "a,b\n1,2\n");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn stats() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        assert!((stddev(&[1.0, 2.0, 3.0]) - 1.0).abs() < 1e-12);
        assert_eq!(stddev(&[5.0]), 0.0);
        assert!(mean(&[]).is_nan());
    }

    #[test]
    fn flag_values_parse_or_name_the_flag() {
        assert_eq!(parse_flag("nodes", None, 7usize), Ok(7));
        assert_eq!(parse_flag("nodes", Some(Some("2000")), 7usize), Ok(2000));
        assert_eq!(parse_flag("order", Some(Some("topo")), String::new()), Ok("topo".into()));
        assert_eq!(
            parse_flag("nodes", Some(Some("2k")), 7usize),
            Err("--nodes \"2k\" is not a valid usize".into())
        );
        assert_eq!(parse_flag("reps", Some(None), 1usize), Err("--reps needs a value".into()));
    }

    #[test]
    fn unknown_flags_are_named_not_ignored() {
        const KNOWN: &[&str] = &["nodes", "reps"];
        let raw = |xs: &[&str]| xs.iter().map(|x| x.to_string()).collect::<Vec<_>>();
        let args = Args::from_raw(&raw(&["--nodes", "100", "--reps"]), KNOWN).unwrap();
        assert_eq!(args.get("nodes", 7usize), 100);
        assert!(args.has("reps"));
        let err = Args::from_raw(&raw(&["--node", "100"]), KNOWN).unwrap_err();
        assert!(err.starts_with("unknown flag \"--node\""), "{err}");
        assert!(err.ends_with("--nodes --reps"), "{err}");
        let err = Args::from_raw(&raw(&["--nodes", "1", "stray", "2"]), KNOWN).unwrap_err();
        assert!(err.starts_with("unknown flag \"stray\""), "{err}");
    }

    #[test]
    #[should_panic(expected = "--seed is read but not declared")]
    fn reading_an_undeclared_flag_panics() {
        Args::from_raw(&[], &["nodes"]).unwrap().get("seed", 1u64);
    }

    #[test]
    fn float_formats() {
        assert_eq!(f2(1.2345), "1.23");
        assert_eq!(f3(1.2345), "1.234");
    }
}
