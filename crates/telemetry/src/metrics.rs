//! Live metrics: a lock-free registry of counters, gauges, and
//! fixed-bucket histograms with a Prometheus exposition-format renderer.
//!
//! # Design
//!
//! The event pipeline in this crate ([`crate::Telemetry`]) answers "what
//! happened, in order" — it is a *trace*. This module answers "where are
//! we now" — live totals an operator can scrape while a long UNSAT ladder
//! descends. The two are complementary: traces are complete and post-hoc,
//! metrics are aggregated and live.
//!
//! Updates must be cheap enough for the service's hot paths (the cache
//! hit path, the supervisor admission path), so a registered handle is an
//! `Arc` around plain atomics: `inc`/`add`/`set`/`observe` are wait-free
//! and never touch the registry lock. The registry's `RwLock` guards only
//! *registration* (cold: once per metric family/label set) and
//! *rendering* (a scrape). Readers therefore never tear a single metric —
//! each value is one atomic load — and counters observed across two
//! scrapes are monotonically non-decreasing.
//!
//! # Naming conventions
//!
//! Prometheus exposition rules, enforced by the renderer's callers and
//! linted in CI (`scripts/lint_metrics.py`):
//!
//! * families are `snake_case`, prefixed `mmsynth_` in the service;
//! * counters end in `_total`;
//! * histograms carry their unit as a suffix (`_us`) and use log-scaled
//!   buckets ([`latency_buckets`]);
//! * every family gets `# HELP` and `# TYPE` lines exactly once.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use serde::Value;

/// A monotonic counter handle. Clones share the same cell.
#[derive(Debug, Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// A counter not attached to any registry (updates go nowhere
    /// visible). Lets instrumented types default to zero-cost handles and
    /// swap in registered ones when a registry is wired up.
    pub fn detached() -> Self {
        Self(Arc::new(AtomicU64::new(0)))
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `delta`.
    #[inline]
    pub fn add(&self, delta: u64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current total.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge handle: a settable, signed instantaneous value.
#[derive(Debug, Clone)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// A gauge not attached to any registry.
    pub fn detached() -> Self {
        Self(Arc::new(AtomicI64::new(0)))
    }

    /// Sets the value.
    #[inline]
    pub fn set(&self, value: i64) {
        self.0.store(value, Ordering::Relaxed);
    }

    /// Adds `delta` (may be negative).
    #[inline]
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Subtracts `delta`.
    #[inline]
    pub fn sub(&self, delta: i64) {
        self.0.fetch_sub(delta, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Shared storage of one histogram series: fixed upper bounds plus
/// per-bucket, sum, and count atomics.
#[derive(Debug)]
pub struct HistogramCore {
    /// Inclusive upper bounds, strictly increasing. An implicit `+Inf`
    /// bucket follows the last bound.
    bounds: Vec<u64>,
    /// One cell per bound, plus the `+Inf` cell last.
    buckets: Vec<AtomicU64>,
    sum: AtomicU64,
    count: AtomicU64,
}

impl HistogramCore {
    fn new(bounds: &[u64]) -> Self {
        debug_assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        Self {
            bounds: bounds.to_vec(),
            buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }
}

/// A histogram handle over fixed buckets. `observe` is wait-free: one
/// linear scan of ≤ a dozen bounds plus three relaxed atomic adds.
#[derive(Debug, Clone)]
pub struct Histogram(Arc<HistogramCore>);

impl Histogram {
    /// A histogram not attached to any registry.
    pub fn detached(bounds: &[u64]) -> Self {
        Self(Arc::new(HistogramCore::new(bounds)))
    }

    /// Records one observation.
    #[inline]
    pub fn observe(&self, value: u64) {
        let core = &self.0;
        let idx = core
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(core.bounds.len());
        core.buckets[idx].fetch_add(1, Ordering::Relaxed);
        core.sum.fetch_add(value, Ordering::Relaxed);
        core.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> u64 {
        self.0.sum.load(Ordering::Relaxed)
    }

    /// `(upper_bound, cumulative_count)` per bucket, ending with the
    /// `+Inf` bucket (`None` bound). Cumulative counts are assembled from
    /// one relaxed load per cell; a scrape racing `observe` may see a
    /// bucket updated before `count`, which keeps every reported number a
    /// true (if slightly stale) total.
    pub fn cumulative_buckets(&self) -> Vec<(Option<u64>, u64)> {
        let core = &self.0;
        let mut cumulative = 0u64;
        let mut out = Vec::with_capacity(core.buckets.len());
        for (i, cell) in core.buckets.iter().enumerate() {
            cumulative += cell.load(Ordering::Relaxed);
            out.push((core.bounds.get(i).copied(), cumulative));
        }
        out
    }
}

/// Log-scaled latency buckets in microseconds: 100µs · 4ⁿ for n = 0..=9,
/// spanning 100µs (a warm cache hit) to ~26s (a deep UNSAT ladder).
pub fn latency_buckets() -> Vec<u64> {
    (0..10).map(|n| 100u64 << (2 * n)).collect()
}

/// What kind of metric a family holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MetricKind {
    Counter,
    Gauge,
    Histogram,
}

impl MetricKind {
    fn as_str(self) -> &'static str {
        match self {
            Self::Counter => "counter",
            Self::Gauge => "gauge",
            Self::Histogram => "histogram",
        }
    }
}

/// One registered series within a family.
#[derive(Debug, Clone)]
enum Child {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

/// A named family: help text, kind, and one child per label set.
#[derive(Debug)]
struct Family {
    help: String,
    kind: MetricKind,
    /// Keyed by the rendered label block (`{k="v",…}`, empty for
    /// unlabeled), so iteration renders deterministically sorted.
    children: BTreeMap<String, Child>,
}

/// Renders a label set as the Prometheus label block. Empty for no
/// labels. Label values are escaped per the exposition format.
fn label_block(labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let body: Vec<String> = labels
        .iter()
        .map(|(k, v)| {
            let escaped = v.replace('\\', "\\\\").replace('"', "\\\"");
            format!("{k}=\"{escaped}\"")
        })
        .collect();
    format!("{{{}}}", body.join(","))
}

/// Splices an extra label (`le` for histogram buckets) into a rendered
/// label block.
fn with_extra_label(block: &str, key: &str, value: &str) -> String {
    if block.is_empty() {
        format!("{{{key}=\"{value}\"}}")
    } else {
        format!("{},{key}=\"{value}\"}}", &block[..block.len() - 1])
    }
}

/// A process-wide registry of metric families.
///
/// Registration (`counter`/`gauge`/`histogram` and their `_with` labeled
/// variants) is idempotent: asking for an existing `(family, labels)`
/// pair returns a handle to the same cell, so independent subsystems can
/// share totals without coordination. Registering the same family name
/// under a different kind panics — that is a programming error, not a
/// runtime condition.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    families: RwLock<BTreeMap<String, Family>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn register(&self, name: &str, labels: &[(&str, &str)], help: &str, kind: MetricKind) -> Child {
        let block = label_block(labels);
        let mut families = self.families.write().expect("metrics registry poisoned");
        let family = families.entry(name.to_string()).or_insert_with(|| Family {
            help: help.to_string(),
            kind,
            children: BTreeMap::new(),
        });
        assert!(
            family.kind == kind,
            "metric family {name:?} registered as {} and {}",
            family.kind.as_str(),
            kind.as_str()
        );
        family
            .children
            .entry(block)
            .or_insert_with(|| match kind {
                MetricKind::Counter => Child::Counter(Counter::detached()),
                MetricKind::Gauge => Child::Gauge(Gauge::detached()),
                MetricKind::Histogram => Child::Histogram(Histogram::detached(&latency_buckets())),
            })
            .clone()
    }

    /// Registers (or fetches) an unlabeled counter.
    pub fn counter(&self, name: &str, help: &str) -> Counter {
        self.counter_with(name, &[], help)
    }

    /// Registers (or fetches) a labeled counter series.
    pub fn counter_with(&self, name: &str, labels: &[(&str, &str)], help: &str) -> Counter {
        match self.register(name, labels, help, MetricKind::Counter) {
            Child::Counter(c) => c,
            _ => unreachable!("kind checked in register"),
        }
    }

    /// Registers (or fetches) an unlabeled gauge.
    pub fn gauge(&self, name: &str, help: &str) -> Gauge {
        self.gauge_with(name, &[], help)
    }

    /// Registers (or fetches) a labeled gauge series.
    pub fn gauge_with(&self, name: &str, labels: &[(&str, &str)], help: &str) -> Gauge {
        match self.register(name, labels, help, MetricKind::Gauge) {
            Child::Gauge(g) => g,
            _ => unreachable!("kind checked in register"),
        }
    }

    /// Registers (or fetches) an unlabeled histogram over
    /// [`latency_buckets`].
    pub fn histogram(&self, name: &str, help: &str) -> Histogram {
        self.histogram_with(name, &[], help)
    }

    /// Registers (or fetches) a labeled histogram series over
    /// [`latency_buckets`].
    pub fn histogram_with(&self, name: &str, labels: &[(&str, &str)], help: &str) -> Histogram {
        match self.register(name, labels, help, MetricKind::Histogram) {
            Child::Histogram(h) => h,
            _ => unreachable!("kind checked in register"),
        }
    }

    /// Renders every family in the Prometheus text exposition format
    /// (version 0.0.4): families sorted by name, series sorted by label
    /// block, `# HELP`/`# TYPE` once per family.
    pub fn render_prometheus(&self) -> String {
        let families = self.families.read().expect("metrics registry poisoned");
        let mut out = String::new();
        for (name, family) in families.iter() {
            out.push_str(&format!("# HELP {name} {}\n", family.help));
            out.push_str(&format!("# TYPE {name} {}\n", family.kind.as_str()));
            for (block, child) in &family.children {
                match child {
                    Child::Counter(c) => {
                        out.push_str(&format!("{name}{block} {}\n", c.get()));
                    }
                    Child::Gauge(g) => {
                        out.push_str(&format!("{name}{block} {}\n", g.get()));
                    }
                    Child::Histogram(h) => {
                        for (bound, cumulative) in h.cumulative_buckets() {
                            let le = bound
                                .map(|b| b.to_string())
                                .unwrap_or_else(|| "+Inf".to_string());
                            let labels = with_extra_label(block, "le", &le);
                            out.push_str(&format!("{name}_bucket{labels} {cumulative}\n"));
                        }
                        out.push_str(&format!("{name}_sum{block} {}\n", h.sum()));
                        out.push_str(&format!("{name}_count{block} {}\n", h.count()));
                    }
                }
            }
        }
        out
    }

    /// Structured snapshot for the wire protocol: one object per family
    /// with `name`, `type`, `help`, and a `series` array.
    pub fn to_value(&self) -> Value {
        let families = self.families.read().expect("metrics registry poisoned");
        let rendered: Vec<Value> = families
            .iter()
            .map(|(name, family)| {
                let series: Vec<Value> = family
                    .children
                    .iter()
                    .map(|(block, child)| {
                        let mut fields = vec![("labels".to_string(), Value::Str(block.clone()))];
                        match child {
                            Child::Counter(c) => {
                                fields.push(("value".into(), Value::UInt(c.get())));
                            }
                            Child::Gauge(g) => {
                                let v = g.get();
                                fields.push((
                                    "value".into(),
                                    if v >= 0 {
                                        Value::UInt(v as u64)
                                    } else {
                                        Value::Int(v)
                                    },
                                ));
                            }
                            Child::Histogram(h) => {
                                let buckets: Vec<Value> = h
                                    .cumulative_buckets()
                                    .into_iter()
                                    .map(|(bound, cumulative)| {
                                        Value::Object(vec![
                                            (
                                                "le".into(),
                                                bound
                                                    .map(|b| Value::Str(b.to_string()))
                                                    .unwrap_or_else(|| Value::Str("+Inf".into())),
                                            ),
                                            ("count".into(), Value::UInt(cumulative)),
                                        ])
                                    })
                                    .collect();
                                fields.push(("count".into(), Value::UInt(h.count())));
                                fields.push(("sum".into(), Value::UInt(h.sum())));
                                fields.push(("buckets".into(), Value::Array(buckets)));
                            }
                        }
                        Value::Object(fields)
                    })
                    .collect();
                Value::Object(vec![
                    ("name".into(), Value::Str(name.clone())),
                    ("type".into(), Value::Str(family.kind.as_str().into())),
                    ("help".into(), Value::Str(family.help.clone())),
                    ("series".into(), Value::Array(series)),
                ])
            })
            .collect();
        Value::Object(vec![("families".into(), Value::Array(rendered))])
    }

    /// Every counter series as `(family, rendered label block, total)`,
    /// the facet the service persists across restarts (`*_total_lifetime`
    /// gauges).
    pub fn counter_totals(&self) -> Vec<(String, String, u64)> {
        let families = self.families.read().expect("metrics registry poisoned");
        let mut out = Vec::new();
        for (name, family) in families.iter() {
            for (block, child) in &family.children {
                if let Child::Counter(c) = child {
                    out.push((name.clone(), block.clone(), c.get()));
                }
            }
        }
        out
    }

    /// Registers a gauge series under `name` with a pre-rendered label
    /// block (used to rehydrate persisted counter totals whose label sets
    /// only exist as rendered strings).
    pub fn gauge_with_block(&self, name: &str, block: &str, help: &str) -> Gauge {
        let mut families = self.families.write().expect("metrics registry poisoned");
        let family = families.entry(name.to_string()).or_insert_with(|| Family {
            help: help.to_string(),
            kind: MetricKind::Gauge,
            children: BTreeMap::new(),
        });
        assert!(
            family.kind == MetricKind::Gauge,
            "metric family {name:?} is not a gauge"
        );
        match family
            .children
            .entry(block.to_string())
            .or_insert_with(|| Child::Gauge(Gauge::detached()))
        {
            Child::Gauge(g) => g.clone(),
            _ => unreachable!("family kind checked above"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_render() {
        let registry = MetricsRegistry::new();
        let c = registry.counter("mm_test_total", "A test counter.");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        // Re-registration returns the same cell.
        assert_eq!(
            registry.counter("mm_test_total", "A test counter.").get(),
            5
        );
        let text = registry.render_prometheus();
        assert!(text.contains("# TYPE mm_test_total counter"));
        assert!(text.contains("mm_test_total 5\n"));
    }

    #[test]
    fn labeled_series_are_independent_and_sorted() {
        let registry = MetricsRegistry::new();
        registry
            .counter_with("mm_jobs_total", &[("op", "b")], "Jobs.")
            .add(2);
        registry
            .counter_with("mm_jobs_total", &[("op", "a")], "Jobs.")
            .add(1);
        let text = registry.render_prometheus();
        let a = text.find(r#"mm_jobs_total{op="a"} 1"#).expect("series a");
        let b = text.find(r#"mm_jobs_total{op="b"} 2"#).expect("series b");
        assert!(a < b, "series render sorted by label block");
    }

    #[test]
    fn histogram_buckets_are_cumulative_and_end_at_inf() {
        let h = Histogram::detached(&[10, 100]);
        h.observe(5);
        h.observe(50);
        h.observe(5_000);
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum(), 5_055);
        assert_eq!(
            h.cumulative_buckets(),
            vec![(Some(10), 1), (Some(100), 2), (None, 3)]
        );
    }

    #[test]
    fn latency_buckets_are_log_scaled() {
        let buckets = latency_buckets();
        assert_eq!(buckets[0], 100);
        assert!(buckets.windows(2).all(|w| w[1] == w[0] * 4));
        assert_eq!(buckets.len(), 10);
    }

    #[test]
    fn gauges_go_negative() {
        let g = MetricsRegistry::new().gauge("mm_depth", "Depth.");
        g.set(3);
        g.sub(5);
        assert_eq!(g.get(), -2);
    }

    #[test]
    #[should_panic(expected = "registered as")]
    fn kind_conflicts_panic() {
        let registry = MetricsRegistry::new();
        let _ = registry.counter("mm_conflict", "x");
        let _ = registry.gauge("mm_conflict", "x");
    }

    #[test]
    fn counter_totals_round_trip_as_lifetime_gauges() {
        let registry = MetricsRegistry::new();
        registry
            .counter_with("mm_jobs_total", &[("op", "minimize")], "Jobs.")
            .add(7);
        let totals = registry.counter_totals();
        assert_eq!(
            totals,
            vec![(
                "mm_jobs_total".to_string(),
                r#"{op="minimize"}"#.to_string(),
                7
            )]
        );
        let fresh = MetricsRegistry::new();
        for (name, block, value) in totals {
            fresh
                .gauge_with_block(&format!("{name}_lifetime"), &block, "Lifetime total.")
                .set(value as i64);
        }
        assert!(fresh
            .render_prometheus()
            .contains("mm_jobs_total_lifetime{op=\"minimize\"} 7\n"));
    }
}
