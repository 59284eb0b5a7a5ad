//! The run record, the correctness gate over digests, and the result
//! line the benchmark ends with.

use std::collections::BTreeMap;

use flatwalk_obs::Json;

use crate::grid::Pass;
use crate::DEFAULT_SEED;

/// Digests pinned for [`DEFAULT_SEED`]: `<workload> <hex digest>
/// <label>` per line.
const EXPECTED_DIGESTS: &str = include_str!("../expected_digests.txt");

/// Every end-to-end metric with its unit, in `BENCHMARK.json` order.
pub const END_TO_END: [(&str, &str); 7] = [
    ("sim_mops", "Mops/s"),
    ("setup_s", "s"),
    ("warm_p50_ms", "ms"),
    ("warm_p90_ms", "ms"),
    ("cold_p50_ms", "ms"),
    ("req_per_s", "req/s"),
    ("peak_rss_mib", "MiB"),
];

/// Orders `m` as [`END_TO_END`] does.
///
/// # Panics
///
/// Panics when a workload left one out or named another: every
/// workload prints exactly the end-to-end metrics.
pub fn end_to_end(m: Metrics) -> Metrics {
    assert_eq!(m.0.len(), END_TO_END.len(), "end-to-end metrics: {:?}", m.0);
    let mut out = Metrics::default();
    for (name, unit) in END_TO_END {
        let value = m
            .get(name)
            .unwrap_or_else(|| panic!("end-to-end metric {name} missing"));
        out.put(name, value, unit);
    }
    out
}

/// Named metrics in print order.
#[derive(Debug, Default, Clone)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    /// Adds (or replaces) one metric.
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.retain(|(n, _, _)| n != name);
        self.0.push((name.to_string(), value, unit));
    }

    /// Looks a metric up by name.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, v, _)| *v)
    }
}

/// Everything the last stdout line reports.
#[derive(Debug, Default, Clone)]
pub struct Outcome {
    /// Whether every output check passed.
    pub correct: bool,
    /// Operations (cell attempts or requests) attempted.
    pub attempted: u64,
    /// Operations that failed, correctness mismatches included.
    pub failed: u64,
    /// The metrics.
    pub metrics: Metrics,
}

impl Outcome {
    /// The one-line JSON result.
    pub fn result_line(&self) -> String {
        let mut metrics = Json::obj();
        for (name, value, unit) in &self.metrics.0 {
            let mut m = Json::obj();
            m.push("value", Json::Float(*value)).push("unit", *unit);
            metrics.push(name, m);
        }
        let mut o = Json::obj();
        o.push("correct", self.correct)
            .push("attempted", self.attempted)
            .push("failed", self.failed)
            .push("metrics", metrics);
        o.to_string()
    }
}

/// Peak resident memory of this process in MiB (`VmHWM`), or `None`
/// where `/proc` is unavailable.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// The commit the checkout was made from, read from `.git` without
/// running git; `unknown` in a checkout without one.
pub fn git_rev() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return if head.is_empty() {
            "unknown".to_string()
        } else {
            head.to_string()
        };
    };
    if let Ok(rev) = std::fs::read_to_string(format!(".git/{reference}")) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .unwrap_or_default()
        .lines()
        .find(|l| l.ends_with(reference))
        .and_then(|l| l.split_whitespace().next())
        .unwrap_or("unknown")
        .to_string()
}

/// `rustc --version`, or `unknown`.
pub fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The pinned digests of `workload`, by cell label.
pub fn expected_digests(workload: &str) -> BTreeMap<String, u64> {
    EXPECTED_DIGESTS
        .lines()
        .filter_map(|line| {
            let mut parts = line.splitn(3, ' ');
            let (w, hex, label) = (parts.next()?, parts.next()?, parts.next()?);
            (w == workload)
                .then(|| {
                    u64::from_str_radix(hex, 16)
                        .ok()
                        .map(|d| (label.to_string(), d))
                })
                .flatten()
        })
        .collect()
}

/// Checks a grid workload's digests: every pass must reproduce the
/// first pass cell for cell (a warm set-up cache must not change
/// results), and at [`DEFAULT_SEED`] the first pass must match the
/// pinned digests. Returns the number of mismatching cell results; the
/// digests a mismatch observed go to stderr in the pinned format.
pub fn check_grid_digests(workload: &str, seed: u64, passes: &[Pass]) -> u64 {
    let Some(first) = passes.first() else {
        return 0;
    };
    let reference: BTreeMap<&str, u64> = first
        .results
        .iter()
        .filter_map(|r| r.digest.map(|d| (r.label.as_str(), d)))
        .collect();
    let mut mismatches = 0;
    for pass in &passes[1..] {
        for r in &pass.results {
            if let (Some(d), Some(want)) = (r.digest, reference.get(r.label.as_str())) {
                if d != *want {
                    eprintln!("perfbench: {} changed between passes", r.label);
                    mismatches += 1;
                }
            }
        }
    }
    if seed == DEFAULT_SEED {
        let pinned = expected_digests(workload);
        for (label, d) in &reference {
            if pinned.get(*label) != Some(d) {
                eprintln!("perfbench: digest mismatch; observed: {workload} {d:016x} {label}");
                mismatches += 1;
            }
        }
    }
    mismatches
}

/// Attempted/failed counts and the digest gate over a grid run. Every
/// cell attempt counts, so a retried cell counts its failed attempt.
pub fn grid_outcome(workload: &str, seed: u64, passes: &[Pass]) -> Outcome {
    let results = passes.iter().flat_map(|p| &p.results);
    let attempted: u64 = results.clone().map(|r| r.attempts).sum();
    let mut failed: u64 = results.clone().map(|r| r.failed_attempts).sum();
    for r in results.filter(|r| r.digest.is_none()) {
        eprintln!(
            "perfbench: cell {} failed: {}",
            r.label,
            r.error.as_deref().unwrap_or("?")
        );
    }
    let mismatches = check_grid_digests(workload, seed, passes);
    failed += mismatches;
    Outcome {
        correct: mismatches == 0,
        attempted,
        failed,
        metrics: Metrics::default(),
    }
}
