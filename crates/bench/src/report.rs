//! Schema-versioned performance-trajectory reports (`BENCH_<n>.json`).
//!
//! Each PR lands one `BENCH_<n>.json` at the repo root: a flat list of
//! named metrics folded from two sources — wall-clock probe timings
//! measured by the `bench_report` binary, and *deterministic* workload
//! counters (solver conflicts, CNF sizes, call counts) extracted from
//! telemetry [`RunReport`](mm_telemetry::RunReport)s of the same probes.
//! CI diffs the candidate report against the committed baseline
//! (`scripts/bench_diff.py`): deterministic metrics gate the build when
//! they regress past a threshold in their bad direction; time metrics are
//! advisory, because container wall clocks are noisy.

use serde::{Deserialize, Serialize};

/// Version of the `BENCH_<n>.json` schema. Bump on incompatible change.
pub const BENCH_SCHEMA_VERSION: u64 = 1;

/// Which way "better" points for a metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Direction {
    /// Smaller values are better (times, conflicts, CNF sizes).
    Lower,
    /// Larger values are better (throughputs, coverage counts).
    Higher,
    /// Informational only; never gated.
    None,
}

/// One named measurement in a bench report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchMetric {
    /// Stable metric name (diffed by name across reports).
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit label (`us`, `count`, `rate`).
    pub unit: String,
    /// Which way "better" points.
    pub direction: Direction,
    /// Whether the value is a deterministic function of the workload
    /// (seeded counters, CNF sizes) rather than a wall-clock sample.
    /// Only deterministic metrics gate CI; times are advisory.
    pub deterministic: bool,
}

/// A full performance-trajectory report for one PR.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchReport {
    /// Always [`BENCH_SCHEMA_VERSION`] for reports built by this crate.
    pub schema_version: u64,
    /// PR number the report belongs to (the `<n>` in `BENCH_<n>.json`).
    pub pr: u64,
    /// Metrics, sorted by name so reports diff cleanly as text.
    pub metrics: Vec<BenchMetric>,
}

impl BenchReport {
    /// Creates an empty report for `pr`.
    pub fn new(pr: u64) -> Self {
        Self {
            schema_version: BENCH_SCHEMA_VERSION,
            pr,
            metrics: Vec::new(),
        }
    }

    /// Adds a metric row.
    pub fn push(
        &mut self,
        name: impl Into<String>,
        value: f64,
        unit: &str,
        direction: Direction,
        deterministic: bool,
    ) {
        self.metrics.push(BenchMetric {
            name: name.into(),
            value,
            unit: unit.to_string(),
            direction,
            deterministic,
        });
    }

    /// Sorts metrics by name and serializes to pretty JSON.
    ///
    /// # Errors
    ///
    /// Returns the underlying serialization error (not expected for this
    /// type).
    pub fn to_json(&self) -> Result<String, String> {
        let mut sorted = self.clone();
        sorted.metrics.sort_by(|a, b| a.name.cmp(&b.name));
        serde_json::to_string_pretty(&sorted).map_err(|e| e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BenchReport {
        let mut r = BenchReport::new(7);
        r.push("zeta_time_us", 123.0, "us", Direction::Lower, false);
        r.push("alpha_conflicts", 42.0, "count", Direction::Lower, true);
        r
    }

    #[test]
    fn roundtrips_through_json_sorted() {
        let text = sample().to_json().unwrap();
        let back: BenchReport = serde_json::from_str(&text).unwrap();
        assert_eq!(back.schema_version, BENCH_SCHEMA_VERSION);
        assert_eq!(back.pr, 7);
        assert_eq!(back.metrics.len(), 2);
        // to_json sorts by name; first metric out is alpha_conflicts.
        let [alpha, zeta] = &back.metrics[..] else {
            unreachable!("two metrics")
        };
        assert_eq!(
            (alpha.name.as_str(), alpha.deterministic),
            ("alpha_conflicts", true)
        );
        assert_eq!((zeta.name.as_str(), zeta.value), ("zeta_time_us", 123.0));
    }
}
