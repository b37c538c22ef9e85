//! What a run was measured on, and what it cost in memory.

use crate::json::Value;

/// The environment stamp written into every run record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stamp {
    /// `git rev-parse HEAD` of the working directory's own `.git`, or
    /// `"unknown"` (an exported source tree has none).
    pub commit: String,
    /// Schedulable cores (`available_parallelism`).
    pub nproc: usize,
    /// `release` or `debug`.
    pub profile: &'static str,
}

impl Stamp {
    /// Stamps the current process.
    pub fn current() -> Stamp {
        Stamp {
            commit: commit().unwrap_or_else(|| "unknown".to_owned()),
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
        }
    }

    /// The stamp as a JSON object.
    pub fn to_json(&self) -> Value {
        Value::obj()
            .with("commit", self.commit.as_str())
            .with("nproc", self.nproc as u64)
            .with("profile", self.profile)
    }
}

/// The commit checked out in the working directory. `--git-dir` pins the
/// lookup to `./.git`, so a source tree without one never picks up the
/// commit of some repository above it.
fn commit() -> Option<String> {
    let out = std::process::Command::new("git")
        .args(["--git-dir=.git", "rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()?;
    let text = String::from_utf8(out.stdout).ok()?;
    let hash = text.trim();
    (out.status.success() && !hash.is_empty()).then(|| hash.to_owned())
}

/// The process's peak resident set (`VmHWM`) in MB (10^6 bytes), where
/// `/proc` has it.
pub fn peak_rss_mb() -> Option<f64> {
    status_mb("VmHWM")
}

/// The process's resident set now (`VmRSS`) in MB, where `/proc` has it.
pub fn rss_mb() -> Option<f64> {
    status_mb("VmRSS")
}

fn status_mb(field: &str) -> Option<f64> {
    parse_status_kb(&std::fs::read_to_string("/proc/self/status").ok()?, field)
}

/// The `field: N kB` line of a `/proc/*/status` text, in MB.
fn parse_status_kb(status: &str, field: &str) -> Option<f64> {
    let line = status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))?;
    let kib: f64 = line.trim().trim_end_matches("kB").trim().parse().ok()?;
    Some(kib * 1024.0 / 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stamp_names_profile_and_cores() {
        let s = Stamp::current();
        assert!(s.nproc >= 1);
        assert!(s.profile == "debug" || s.profile == "release");
        assert!(!s.commit.is_empty());
        let j = s.to_json();
        assert_eq!(j.get("nproc").and_then(Value::as_f64), Some(s.nproc as f64));
    }

    #[test]
    fn status_fields_parse_in_megabytes() {
        let status = "Name:\tledger\nVmPeak:\t  2048 kB\nVmHWM:\t    1536 kB\nVmRSS:\t 1024 kB\n";
        assert_eq!(parse_status_kb(status, "VmHWM"), Some(1.572864));
        assert_eq!(parse_status_kb(status, "VmRSS"), Some(1.048576));
        assert_eq!(parse_status_kb(status, "VmSwap"), None);
        assert_eq!(parse_status_kb("VmHWM:\tlots kB\n", "VmHWM"), None);
        assert!(rss_mb().is_some_and(|now| peak_rss_mb().is_some_and(|peak| now <= peak)));
    }
}
